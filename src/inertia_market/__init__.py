"""Virtual inertia procurement: worst-case H2 performance, centralized
planning, a sealed-bid auction with externality payments, and a
capacity-proportional regulatory comparator, driven by YAML scenarios.

Each module's ``__all__`` is its public API; the package re-exports exactly
those names."""

from . import auction, errors, grid, h2, planner, report, robust, scenario
from .auction import *  # noqa: F403
from .errors import *  # noqa: F403
from .grid import *  # noqa: F403
from .h2 import *  # noqa: F403
from .planner import *  # noqa: F403
from .report import *  # noqa: F403
from .robust import *  # noqa: F403
from .scenario import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (auction, errors, grid, h2, planner, report, robust, scenario)
    for name in module.__all__
]
