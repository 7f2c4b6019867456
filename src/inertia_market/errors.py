"""Exception hierarchy shared across the package.

Input-shaped problems (bad files, bad parameters, infeasible targets) map to
CLI exit code 1, numerical failures (non-convergence, stability violations)
to exit code 2.
"""

import math


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


def reals(xs, what, *, positive=False, error=GridError) -> tuple:
    """``xs`` as a tuple of finite floats, nonnegative (positive with ``positive``), or ``error``.

    A real is anything ``float()`` takes but a bool or a string; -0.0 reads
    as 0.0. The error names the first value that fails, or ``xs``.
    """
    values = []
    x = xs
    try:
        for x in xs:
            v = math.nan if isinstance(x, (bool, str, bytes)) else float(x)
            if not (0.0 < v < math.inf if positive else 0.0 <= v < math.inf):  # NaN fails both
                break
            values.append(v + 0.0)
        else:
            return tuple(values)
    except (TypeError, ValueError):  # xs is not iterable, or float() refuses x
        pass
    raise error(f"{what} must be {'positive' if positive else 'nonnegative'} and finite, got {x!r}")


def real(x, what, *, positive=False, error=GridError) -> float:
    """One value as ``reals`` reads it."""
    return reals((x,), what, positive=positive, error=error)[0]


def count(x, what, *, least, error=GridError) -> int:
    """``x`` as an int of at least ``least``: an integer (numpy's too), not a bool or a float."""
    if not isinstance(x, bool) and hasattr(x, "__index__") and x.__index__() >= least:
        return x.__index__()
    raise error(f"{what} must be an integer of at least {least}, got {x!r}")


def number(raw) -> float:
    """``float(raw)`` for a number read from a file, such as text '1e3'; a bool raises ``TypeError``."""
    if isinstance(raw, bool):
        raise TypeError(f"a bool is not a number: {raw!r}")
    return float(raw)
