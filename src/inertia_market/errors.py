"""Exception hierarchy shared across the package.

Input-shaped problems (bad files, bad parameters, infeasible targets) map to
CLI exit code 1, numerical failures (non-convergence, stability violations)
to exit code 2.
"""


class InertiaMarketError(Exception):
    """Base class for all package errors."""


class GridError(InertiaMarketError):
    """Invalid grid description (disconnected, bad parameters, duplicate lines)."""


class ScenarioError(InertiaMarketError):
    """Malformed or inconsistent scenario file."""


class InfeasibleError(InertiaMarketError):
    """A performance target cannot be met with the available capacity.

    ``bus`` is the 0-based index of the blocking bus. ``message`` is a
    string, or a function ``message(name)`` that names bus i ``name(i)``.
    The error's text names buses by index; ``describe(name)`` renders it
    with other names, such as a scenario's bus labels.
    """

    def __init__(self, message, bus=None):
        self.describe = message if callable(message) else lambda name: message
        super().__init__(self.describe(str))
        self.bus = bus


class NumericsError(InertiaMarketError):
    """Numerical failure: solver non-convergence or violated stability hypotheses."""


class ContractError(InertiaMarketError):
    """Mismatched inputs passed to an operation that requires consistent ones."""


class AuditError(InertiaMarketError):
    """Incentive audit found a violation; carries the offending instance."""

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance
