"""Squared H2 performance metric of the marginally stable grid dynamics.

Three routes are provided and cross-validated against each other:

* ``h2_norm_sq_gramian``: exact value trace(B' P B) for a generic output,
  with P the observability Gramian made unique by the constraint
  P @ [1; 0] = 0 (the drift mode carries no output energy).
* ``h2_primary_effort_closed``: the closed form sum(pi_i / (kappa m_i))
  for the droop-effort output C = [0, D^(1/2)]. Substituting
  P = blkdiag(L/2, M/2) into the Lyapunov equation shows the Gramian value
  is sum(pi_i / (2 m_i)); ``kappa`` selects between that normalization
  (kappa=2) and the convention used by the planning and market layers
  (kappa=1). The factor is a pure rescaling of the disturbance budget and
  never changes allocations.
* ``upper_bound_ub`` / ``upper_bound_worst``: a bound convex in m for
  block-partitioned output weights, finite even where the exact metric is
  non-convex in m.

The closed form is a plain sum. The other routes are dense linear algebra
on numpy, and each of their functions imports numpy when it runs, so
importing this module, the package or the CLI loads none: the numpy import
costs more than the rest of the package together, and the planner, the
auction and the worst-case metric never use it. Of the CLI commands, only
``h2 --method gramian`` and ``h2 --method upper-bound`` load numpy. The
Gramian route solves its Lyapunov equation with numpy alone (Newton's
iteration on the matrix sign function) rather than with scipy, whose
import costs more than numpy's and would dominate that command's run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import GridError, NumericsError, real, reals
from .grid import Grid, StateSpace, drift_mode, laplacian

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GramianSolution",
    "solve_constrained_lyapunov",
    "h2_norm_sq_gramian",
    "h2_primary_effort_closed",
    "upper_bound_ub",
    "upper_bound_worst",
]

# Dense deflated solves stay exact and fast up to this state dimension.
MAX_STATE_DIM = 64
# The Lyapunov sign iteration stops once a step moves the iterate by less
# than this relative amount; random grids of up to 32 buses take at most
# 10 steps.
SIGN_STEP_TOL = 1e-10
SIGN_MAX_STEPS = 100


@dataclass(frozen=True)
class GramianSolution:
    """Constrained observability Gramian with its achieved residuals.

    ``residual`` is the Frobenius norm of P A + A' P + Q, at most
    1e-8 * (||Q|| + ||P|| ||A||); ``constraint_residual`` is
    ||P @ [1; 0]||, at most 1e-8 * ||P||. A solve that misses either
    bound raises :class:`NumericsError` instead.
    """

    P: np.ndarray
    residual: float
    constraint_residual: float


def _check_spectrum(A: np.ndarray, n: int) -> None:
    import numpy as np

    # Solvability needs one structural zero eigenvalue, the rest strictly stable.
    eigs = np.linalg.eigvals(A)
    scale = max(np.linalg.norm(A), 1.0)
    loose = [k for k, lam in enumerate(eigs) if lam.real > -1e-9]
    if len(loose) == 0:
        raise NumericsError("system has no drift mode; expected A @ [1; 0] = 0")
    if len(loose) > 1:
        detail = ", ".join(f"eig[{k}]={eigs[k]:.3e}" for k in loose)
        raise NumericsError(
            f"A has {len(loose)} modes with real part > -1e-9; only the drift "
            f"mode may be marginally stable ({detail})"
        )
    lam0 = eigs[loose[0]]
    if abs(lam0) > 1e-7 * scale:
        raise NumericsError(
            f"the single non-Hurwitz eigenvalue {lam0:.3e} is not a zero mode"
        )


def _lyapunov(a, q):
    """X with a X + X a' + q = 0, for a Hurwitz matrix ``a``.

    Newton's iteration on the matrix sign function (Roberts, 1980) with
    determinantal scaling: sign([[a, q], [0, -a']]) = [[-I, 2X], [0, I]],
    and inverting that block-triangular matrix takes only inv(a), so the
    iteration runs on (a, q). It converges quadratically because no
    eigenvalue of ``a`` is on the imaginary axis.
    """
    import numpy as np

    m = a.shape[0]
    for _ in range(SIGN_MAX_STEPS):
        inv = np.linalg.inv(a)
        c = np.exp(np.linalg.slogdet(a)[1] / m)
        a_next = 0.5 * (a / c + c * inv)
        q = 0.5 * (q / c + c * (inv @ q @ inv.T))
        # The step is the error of the previous iterate, so the new one is
        # accurate to about its square.
        step = np.linalg.norm(a_next - a, 1)
        a = a_next
        if step <= SIGN_STEP_TOL * np.linalg.norm(a, 1):
            return 0.5 * q
    raise NumericsError(f"Lyapunov sign iteration did not converge in {SIGN_MAX_STEPS} steps")


def solve_constrained_lyapunov(A, Q) -> GramianSolution:
    """Solve P A + A' P + Q = 0 subject to P @ [1; 0] = 0.

    The homogeneous equation admits a one-parameter rank-one family, so the
    plain Lyapunov equation is underdetermined here; the constraint picks
    the representative with no energy on the drift mode. The solve deflates
    the drift direction with an orthonormal basis of its complement and
    solves the reduced dense Lyapunov equation, which has a unique solution
    because the reduced matrix is Hurwitz (see ``_lyapunov``). A solution
    whose residuals miss the bounds of :class:`GramianSolution` raises
    :class:`NumericsError`.
    """
    # Loaded here, not at module level: see the module docstring.
    import numpy as np

    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
        raise GridError(f"A must be square with even dimension, got {A.shape}")
    if A.shape[0] > MAX_STATE_DIM:
        raise GridError(f"state dimension {A.shape[0]} exceeds supported {MAX_STATE_DIM}")
    if Q.shape != A.shape:
        raise GridError(f"Q has shape {Q.shape}, expected {A.shape}")
    n = A.shape[0] // 2
    v0 = drift_mode(n)

    q_scale = np.linalg.norm(Q)
    if np.linalg.norm(Q - Q.T) > 1e-10 * max(q_scale, 1e-300):
        raise GridError("Q must be symmetric")
    Q = 0.5 * (Q + Q.T)
    if q_scale > 0:
        if np.min(np.linalg.eigvalsh(Q)) < -1e-10 * q_scale:
            raise GridError("Q must be positive semidefinite")
        if np.linalg.norm(Q @ v0) > 1e-9 * q_scale:
            raise GridError("Q must annihilate the drift mode [1; 0]")

    _check_spectrum(A, n)

    if q_scale == 0.0:
        P = np.zeros_like(A)
        return GramianSolution(P=P, residual=0.0, constraint_residual=0.0)

    # Basis of the complement of span{[1; 0]}: angle directions orthogonal
    # to the uniform shift (the last n - 1 columns of a complete QR factor
    # of the ones vector), plus all frequency directions.
    W = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
    U = np.zeros((2 * n, 2 * n - 1))
    U[:n, : n - 1] = W
    U[n:, n - 1 :] = np.eye(n)

    A_red = U.T @ A @ U
    Q_red = U.T @ Q @ U
    X = _lyapunov(A_red.T, Q_red)
    X = 0.5 * (X + X.T)
    P = U @ X @ U.T
    P = 0.5 * (P + P.T)

    residual = float(np.linalg.norm(P @ A + A.T @ P + Q))
    constraint_residual = float(np.linalg.norm(P @ v0))
    p_scale = np.linalg.norm(P)
    if residual > 1e-8 * (q_scale + p_scale * np.linalg.norm(A)) or constraint_residual > 1e-8 * p_scale:
        raise NumericsError(
            f"Gramian residuals too large: ||PA + A'P + Q|| = {residual:.3e}, "
            f"||P [1; 0]|| = {constraint_residual:.3e}, ||P|| = {p_scale:.3e}"
        )
    return GramianSolution(P=P, residual=residual, constraint_residual=constraint_residual)


def h2_norm_sq_gramian(sys: StateSpace) -> float:
    """Exact squared H2 norm trace(B' P B) via the constrained Gramian."""
    import numpy as np

    Q = sys.C.T @ sys.C
    sol = solve_constrained_lyapunov(sys.A, Q)
    value = float(np.trace(sys.B.T @ sol.P @ sys.B))
    return max(value, 0.0)


def h2_primary_effort_closed(m, pi, kappa=1) -> float:
    """Closed-form droop-effort metric sum_i pi_i / (kappa * m_i).

    Linear in ``pi``, convex and strictly decreasing in each m_i with
    positive pi_i. ``kappa=2`` matches the Gramian value exactly; the
    default ``kappa=1`` is the convention consumed by the planner and the
    market, where the factor folds into the disturbance budget. ``m`` and
    ``pi`` are sequences of reals; the sum is exactly rounded and loads no
    numpy.
    """
    if kappa not in (1, 2):
        raise GridError(f"kappa must be 1 or 2, got {kappa!r}")
    m = reals(m, "inertia entries", positive=True)
    pi = reals(pi, "disturbance strengths")
    if len(pi) != len(m):
        raise GridError(f"pi has shape ({len(pi)},), expected ({len(m)},)")
    what = "closed-form metric sum_i pi_i / (kappa * m_i)"  # 1 / m overflows below 6e-309
    try:
        return real(math.fsum(p * (1.0 / (kappa * x)) for p, x in zip(pi, m)), what)
    except OverflowError:  # fsum's exactly rounded sum of finite terms leaves float range
        raise GridError(f"{what} overflows") from None


def _split_block_weight(Q, n: int):
    import numpy as np

    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2 * n, 2 * n):
        raise GridError(f"Q has shape {Q.shape}, expected ({2 * n}, {2 * n})")
    Q1 = Q[:n, :n]
    Q2_blk = Q[n:, n:]
    scale = max(np.linalg.norm(Q), 1e-300)
    if np.linalg.norm(Q[:n, n:]) > 1e-10 * scale or np.linalg.norm(Q[n:, :n]) > 1e-10 * scale:
        raise GridError("Q must be block-diagonal across the angle/frequency split")
    if np.linalg.norm(Q2_blk - np.diag(np.diag(Q2_blk))) > 1e-10 * scale:
        raise GridError("frequency block of Q must be diagonal")
    Q2 = np.diag(Q2_blk).copy()
    if np.any(Q2 < -1e-12 * scale):
        raise GridError("frequency weights must be nonnegative")
    Q2 = np.clip(Q2, 0.0, None)
    if np.min(np.linalg.eigvalsh(0.5 * (Q1 + Q1.T))) < -1e-10 * scale:
        raise GridError("angle block of Q must be positive semidefinite")
    return Q1, Q2


def upper_bound_ub(m, grid: Grid, Q) -> float:
    """Convex-in-m upper bound for block weights Q = blkdiag(Q1, diag(Q2)).

    Returns (trace(pinv(L) Q1) + sum_i Q2_i / m_i) / (2 min_i d_i). Scaled
    by the largest disturbance strength it dominates the exact metric; it
    is finite and convex in m even when the exact metric is not.
    """
    import numpy as np

    m = np.array(reals(m, "inertia entries", positive=True))
    if m.shape != (grid.n,):
        raise GridError(f"inertia vector has shape {m.shape}, expected ({grid.n},)")
    Q1, Q2 = _split_block_weight(Q, grid.n)
    d_min = float(np.min(grid.d))
    L_pinv = np.linalg.pinv(laplacian(grid))
    angle_term = float(np.trace(L_pinv @ Q1))
    freq_term = float(np.sum(Q2 / m))
    return (angle_term + freq_term) / (2.0 * d_min)


def upper_bound_worst(m, grid: Grid, Q, pi_tot: float) -> float:
    """Worst-case bound over the budget polytope: pi_tot * upper_bound_ub."""
    return real(pi_tot, "disturbance budget pi_tot") * upper_bound_ub(m, grid, Q)
