"""Network-reduced grid model and linearized frequency dynamics.

A grid is a connected graph of buses joined by lossless susceptive lines,
with per-bus inertia and damping. The small-signal dynamics in stacked
angle/frequency coordinates x = (theta, omega) are

    d/dt [theta; omega] = A x + B eta,
    A = [[0, I], [-M^-1 L, -M^-1 D]],   B = [[0], [M^-1 Pi^(1/2)]],

where L is the susceptance Laplacian, M = diag(m), D = diag(d) and
Pi = diag(pi) holds the per-bus disturbance strengths. A always has a
single structural zero eigenvalue with right eigenvector [1; 0] (a uniform
shift of all angles), so output matrices must annihilate that direction.

Building and validating a grid is plain Python. numpy is imported inside
the functions that build matrices (``laplacian``, ``drift_mode``,
``assemble_state_space``, ``output_matrix_primary_effort``): importing
numpy costs more than the rest of the package together, and only the H2
commands need these matrices, so parsing a scenario and clearing a market
never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import GridError, label, number, real, reals

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Grid",
    "StateSpace",
    "build_grid",
    "laplacian",
    "assemble_state_space",
    "output_matrix_primary_effort",
]


@dataclass(frozen=True)
class Grid:
    """Validated network description.

    Bus indices are 0-based internally; ``labels`` carries the display
    names used in files and reports. ``m0`` and ``d`` hold one float per
    bus, as tuples.
    """

    n: int
    lines: tuple[tuple[int, int, float], ...]
    m0: tuple[float, ...]
    d: tuple[float, ...]
    labels: tuple[str, ...]


def build_grid(raw: dict) -> Grid:
    """Validate a raw grid description and return a :class:`Grid`.

    ``raw`` is a mapping with a ``buses`` list of ``{label, m0, d}``
    entries and a ``lines`` list of ``{from, to, b}`` entries referring to
    bus labels. A single-bus grid with no lines is accepted (useful as an
    analytically solvable degenerate case); any larger grid must be
    connected.
    """
    if not isinstance(raw, dict):
        raise GridError(f"grid must be a mapping, got {raw!r}")
    buses = raw.get("buses")
    raw_lines = raw.get("lines")
    if not isinstance(buses, list) or not buses:
        raise GridError("grid needs a non-empty 'buses' list")
    if raw_lines is not None and not isinstance(raw_lines, list):
        raise GridError(f"grid 'lines' must be a list, got {raw_lines!r}")
    labels = []
    m0 = []
    d = []
    for k, entry in enumerate(buses):
        try:
            labels.append(label(entry["label"], f"buses[{k}]: label"))
            m0.append(number(entry["m0"]))
            d.append(number(entry["d"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GridError(f"buses[{k}]: expected label/m0/d, got {entry!r}") from exc
    if len(set(labels)) != len(labels):
        raise GridError("duplicate bus labels")
    for name, values in (("inertia m0", m0), ("damping d", d)):
        for lab, x in zip(labels, values):
            real(x, f"bus {lab!r}: {name}", positive=True)
    n = len(labels)

    index = {lab: k for k, lab in enumerate(labels)}
    lines = []
    seen = set()
    for k, entry in enumerate(raw_lines or []):
        try:
            i = index[label(entry["from"], f"lines[{k}]: from")]
            j = index[label(entry["to"], f"lines[{k}]: to")]
            b = number(entry["b"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GridError(
                f"lines[{k}]: unknown bus, missing field or non-numeric b in {entry!r}"
            ) from exc
        if i == j:
            raise GridError(f"lines[{k}]: endpoints must be distinct")
        b = real(b, f"lines[{k}]: susceptance")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise GridError(f"lines[{k}]: duplicate line between {labels[i]!r} and {labels[j]!r}")
        seen.add(pair)
        lines.append((i, j, b))

    if n > 1 and not _connected(n, lines):
        raise GridError("grid graph is not connected")
    return Grid(n=n, lines=tuple(lines), m0=tuple(m0), d=tuple(d), labels=tuple(labels))


def _connected(n: int, lines) -> bool:
    adj = [[] for _ in range(n)]
    for i, j, _ in lines:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def laplacian(grid: Grid) -> np.ndarray:
    """Susceptance Laplacian: L @ 1 = 0, off-diagonal L_ij = -b_ij."""
    import numpy as np

    L = np.zeros((grid.n, grid.n))
    for i, j, b in grid.lines:
        L[i, j] -= b
        L[j, i] -= b
        L[i, i] += b
        L[j, j] += b
    return L


@dataclass(frozen=True)
class StateSpace:
    """Linearized dynamics (A, B, C) with the structural drift mode.

    Both A and C annihilate [1; 0]; the drift mode is neither observable
    nor excited by the performance output.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    n: int


def drift_mode(n: int) -> np.ndarray:
    """The uniform angle-shift direction [1_n; 0_n] in stacked coordinates."""
    import numpy as np

    v = np.zeros(2 * n)
    v[:n] = 1.0
    return v


def assemble_state_space(grid: Grid, m, pi, C) -> StateSpace:
    """Assemble (A, B, C) for inertia vector ``m`` and disturbance strengths ``pi``.

    ``C`` must have 2n columns and annihilate the drift mode [1; 0];
    otherwise the marginally stable mode would leak into the output energy.
    """
    import numpy as np

    m = np.array(reals(m, "inertia entries", positive=True))
    pi = np.array(reals(pi, "disturbance strengths"))
    C = np.asarray(C, dtype=float)
    n = grid.n
    if m.shape != (n,):
        raise GridError(f"inertia vector has shape {m.shape}, expected ({n},)")
    if pi.shape != (n,):
        raise GridError(f"disturbance vector has shape {pi.shape}, expected ({n},)")
    if C.ndim != 2 or C.shape[1] != 2 * n:
        raise GridError(f"output matrix has shape {C.shape}, expected (*, {2 * n})")
    v = drift_mode(n)
    leak = np.linalg.norm(C @ v)
    scale = max(np.linalg.norm(C), 1e-300)
    if leak > 1e-9 * scale:
        raise GridError("output matrix does not annihilate the drift mode [1; 0]")

    L = laplacian(grid)
    A = np.block(
        [
            [np.zeros((n, n)), np.eye(n)],
            [-L / m[:, None], -np.diag(np.asarray(grid.d) / m)],
        ]
    )
    B = np.vstack([np.zeros((n, n)), np.diag(np.sqrt(pi) / m)])
    return StateSpace(A=A, B=B, C=C, n=n)


def output_matrix_primary_effort(d) -> np.ndarray:
    """Output C = [0, D^(1/2)] penalizing droop-control effort d_i * omega_i^2."""
    import numpy as np

    d = np.array(reals(d, "damping entries", positive=True))
    n = d.shape[0]
    return np.hstack([np.zeros((n, n)), np.diag(np.sqrt(d))])
