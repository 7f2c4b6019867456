"""H2 metric: constrained Gramian, closed form, and the convex upper bound."""

import math

import numpy as np
import pytest

from inertia_market import (
    GridError,
    NumericsError,
    assemble_state_space,
    h2_norm_sq_gramian,
    h2_primary_effort_closed,
    laplacian,
    output_matrix_primary_effort,
    solve_constrained_lyapunov,
    upper_bound_ub,
    upper_bound_worst,
    worst_case_metric,
    DisturbanceBudget,
    h2,
)
from inertia_market.grid import drift_mode

from helpers import (
    constrained_lyapunov_oracle,
    gramian_oracle,
    make_grid,
    matrix_sqrt_psd,
    random_connected_grid,
    random_psd_block_weight,
)


def primary_system(grid, m, pi):
    C = output_matrix_primary_effort(grid.d)
    return assemble_state_space(grid, np.asarray(m, float), np.asarray(pi, float), C)


class TestConstrainedLyapunov:
    def test_block_diagonal_solution_for_droop_weight(self):
        # For Q = blkdiag(0, D) direct substitution shows P = blkdiag(L/2, M/2)
        # solves the equation and meets the drift-mode constraint.
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_connected_grid(rng, n_range=(2, 6))
            m = rng.uniform(0.5, 3.0, g.n)
            sys_ = primary_system(g, m, np.ones(g.n))
            sol = solve_constrained_lyapunov(sys_.A, sys_.C.T @ sys_.C)
            L = laplacian(g)
            expected = np.zeros((2 * g.n, 2 * g.n))
            expected[: g.n, : g.n] = L / 2
            expected[g.n :, g.n :] = np.diag(m) / 2
            np.testing.assert_allclose(sol.P, expected, atol=1e-9 * max(np.abs(expected).max(), 1))

    def test_zero_weight_gives_zero_gramian(self):
        g = make_grid([1.0, 2.0], [1.0, 1.0], [(0, 1, 1.0)])
        sys_ = primary_system(g, g.m0, np.ones(2))
        sol = solve_constrained_lyapunov(sys_.A, np.zeros((4, 4)))
        np.testing.assert_array_equal(sol.P, 0.0)
        assert sol.residual == 0.0

    def test_matches_time_domain_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            g = random_connected_grid(rng, n=3)
            m = rng.uniform(0.5, 3.0, 3)
            sys_ = primary_system(g, m, np.ones(3))
            W = rng.normal(size=(6, 6))
            proj = np.eye(6) - np.outer(drift_mode(3), drift_mode(3)) / 3
            Q = proj @ (W @ W.T) @ proj
            Q = 0.5 * (Q + Q.T)
            sol = solve_constrained_lyapunov(sys_.A, Q)
            P_ref = gramian_oracle(sys_.A, Q)
            err = np.linalg.norm(sol.P - P_ref) / np.linalg.norm(P_ref)
            assert err <= 1e-6

    def test_matches_bartels_stewart_oracle(self):
        # Grids up to the largest supported size, droop and random PSD weights.
        rng = np.random.default_rng(29)
        for trial in range(40):
            n = 32 if trial == 0 else int(rng.integers(2, 17))
            g = random_connected_grid(rng, n=n)
            sys_ = primary_system(g, rng.uniform(0.5, 3.0, n), np.ones(n))
            if trial % 2:
                W = rng.normal(size=(2 * n, 2 * n))
                proj = np.eye(2 * n) - np.outer(drift_mode(n), drift_mode(n)) / n
                Q = proj @ (W @ W.T) @ proj
                Q = 0.5 * (Q + Q.T)
            else:
                Q = sys_.C.T @ sys_.C
            sol = solve_constrained_lyapunov(sys_.A, Q)
            P_ref = constrained_lyapunov_oracle(sys_.A, Q)
            assert np.linalg.norm(sol.P - P_ref) <= 1e-12 * np.linalg.norm(P_ref)

    def test_residual_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_connected_grid(rng)
            m = rng.uniform(0.5, 3.0, g.n)
            sys_ = primary_system(g, m, rng.uniform(0.0, 2.0, g.n))
            Q = sys_.C.T @ sys_.C
            sol = solve_constrained_lyapunov(sys_.A, Q)
            p_norm = np.linalg.norm(sol.P)
            np.testing.assert_allclose(sol.P, sol.P.T, rtol=1e-10)
            assert sol.residual <= 1e-8 * (np.linalg.norm(Q) + p_norm * np.linalg.norm(sys_.A))
            assert sol.constraint_residual <= 1e-8 * p_norm
            # PSD on the complement of the drift mode.
            eigs = np.linalg.eigvalsh(sol.P)
            assert eigs.min() >= -1e-8 * p_norm

    def test_uniqueness_constraint_selects_representative(self):
        # The homogeneous part of the equation is spanned by the outer
        # product of A's left null vector [d; m]; adding it still solves the
        # equation but breaks the drift-mode constraint, so the solver must
        # return the constrained representative.
        g = make_grid([1.5, 2.5, 0.8], [0.7, 1.1, 1.3], [(0, 1, 1.0), (1, 2, 0.5)])
        sys_ = primary_system(g, g.m0, np.ones(3))
        Q = sys_.C.T @ sys_.C
        sol = solve_constrained_lyapunov(sys_.A, Q)
        w = np.concatenate([g.d, g.m0])  # left null vector of A
        np.testing.assert_allclose(sys_.A.T @ w, 0.0, atol=1e-12)
        perturbed = sol.P + 0.37 * np.outer(w, w)
        res = np.linalg.norm(perturbed @ sys_.A + sys_.A.T @ perturbed + Q)
        assert res <= 1e-10 * (np.linalg.norm(Q) + np.linalg.norm(perturbed) * np.linalg.norm(sys_.A))
        assert np.linalg.norm(perturbed @ drift_mode(3)) > 1.0  # constraint violated
        assert sol.constraint_residual <= 1e-8 * np.linalg.norm(sol.P)

    def test_rejects_extra_unstable_modes(self):
        # Two disconnected components give a second zero eigenvalue.
        A = np.zeros((4, 4))
        A[0, 2] = A[1, 3] = 1.0
        A[2, 2] = A[3, 3] = -1.0
        with pytest.raises(NumericsError, match="modes"):
            solve_constrained_lyapunov(A, np.zeros((4, 4)))

    def test_rejects_bad_weight(self):
        g = make_grid([1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0)])
        sys_ = primary_system(g, g.m0, np.ones(2))
        Q_indef = np.diag([0.0, 0.0, 1.0, -1.0])
        with pytest.raises(GridError, match="semidefinite"):
            solve_constrained_lyapunov(sys_.A, Q_indef)
        Q_leaky = np.eye(4)  # does not annihilate the drift mode
        with pytest.raises(GridError, match="drift"):
            solve_constrained_lyapunov(sys_.A, Q_leaky)

    def test_inexact_solve_raises(self, monkeypatch):
        # A Gramian 1% off misses the residual bound instead of yielding a wrong metric.
        exact = h2._lyapunov
        monkeypatch.setattr(h2, "_lyapunov", lambda a, q: 1.01 * exact(a, q))
        g = make_grid([1.5, 2.5, 0.8], [0.7, 1.1, 1.3], [(0, 1, 1.0), (1, 2, 0.5)])
        with pytest.raises(NumericsError, match="residuals too large"):
            h2_norm_sq_gramian(primary_system(g, g.m0, np.ones(3)))

    def test_rejects_oversized_systems(self):
        n = 40  # past the 64-state dense-solve cap
        with pytest.raises(GridError, match="exceeds supported"):
            solve_constrained_lyapunov(np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n)))


class TestClosedForm:
    def test_single_machine_value(self):
        g = make_grid([2.0], [1.0], [])
        sys_ = primary_system(g, [2.0], [1.0])
        # scalar system: H2^2 = c^2 b^2 / (-2a) = pi / (2m)
        assert h2_norm_sq_gramian(sys_) == pytest.approx(0.25, rel=1e-12)

    def test_direct_substitution(self):
        assert h2_primary_effort_closed([2.0, 4.0], [1.0, 1.0], kappa=1) == pytest.approx(0.75)
        assert h2_primary_effort_closed([2.0, 4.0], [1.0, 1.0], kappa=2) == pytest.approx(0.375)

    def test_zero_disturbance(self):
        g = make_grid([1.0, 2.0], [1.0, 1.0], [(0, 1, 1.0)])
        sys_ = primary_system(g, g.m0, np.zeros(2))
        assert h2_norm_sq_gramian(sys_) == pytest.approx(0.0, abs=1e-14)
        assert h2_primary_effort_closed(g.m0, np.zeros(2)) == 0.0

    def test_linear_in_strengths(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0.5, 3.0, 4)
        pi = rng.uniform(0.0, 2.0, 4)
        base = h2_primary_effort_closed(m, pi)
        for c in (0.0, 0.25, 3.0):
            assert h2_primary_effort_closed(m, c * pi) == pytest.approx(c * base, rel=1e-12)

    def test_gramian_agreement_two_bus(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = random_connected_grid(rng, n=2)
            m = rng.uniform(0.5, 3.0, 2)
            pi = rng.uniform(0.0, 2.0, 2)
            sys_ = primary_system(g, m, pi)
            gram = h2_norm_sq_gramian(sys_)
            closed = h2_primary_effort_closed(m, pi, kappa=2)
            assert gram == pytest.approx(closed, rel=1e-10, abs=1e-12)

    def test_monotone_decreasing_in_inertia(self):
        m = np.array([1.0, 2.0, 3.0])
        pi = np.array([1.0, 0.5, 2.0])
        base = h2_primary_effort_closed(m, pi)
        for i in range(3):
            bumped = m.copy()
            bumped[i] *= 1.5
            assert h2_primary_effort_closed(bumped, pi) < base

    def test_midpoint_convexity_in_inertia(self):
        rng = np.random.default_rng(31)
        pi = rng.uniform(0.1, 2.0, 5)
        for _ in range(50):
            a = rng.uniform(0.3, 5.0, 5)
            b = rng.uniform(0.3, 5.0, 5)
            mid = h2_primary_effort_closed(0.5 * (a + b), pi)
            avg = 0.5 * (h2_primary_effort_closed(a, pi) + h2_primary_effort_closed(b, pi))
            assert mid <= avg + 1e-12

    def test_kappa_validation(self):
        with pytest.raises(GridError, match="kappa"):
            h2_primary_effort_closed([1.0], [1.0], kappa=3)

    @pytest.mark.parametrize(
        "m, pi, message",
        [
            ([math.nan, 1.0], [1.0, 1.0], "inertia entries must be positive"),
            ([1.0], [math.nan], "disturbance strengths must be nonnegative"),
        ],
        ids=["nan-inertia", "nan-strength"],
    )
    def test_nan_rejected(self, m, pi, message):
        with pytest.raises(GridError, match=message):
            h2_primary_effort_closed(m, pi)


class TestUpperBound:
    def test_cancellation_case(self):
        g = make_grid([1.0, 2.0, 1.5], [0.5, 1.0, 2.0], [(0, 1, 1.0), (1, 2, 1.0)])
        m = np.array([1.0, 2.0, 4.0])
        d_min = 0.5
        Q = np.zeros((6, 6))
        Q[3:, 3:] = d_min * np.eye(3)
        expected = np.sum(1.0 / (2 * m))
        assert upper_bound_ub(m, g, Q) == pytest.approx(expected, rel=1e-12)

    def test_substitution_case(self):
        g = make_grid([1.0, 1.0], [2.0, 3.0], [(0, 1, 1.0)])
        Q = np.zeros((4, 4))
        Q[2:, 2:] = 2 * 2.0 * np.eye(2)  # Q2 = 2 * d_min
        assert upper_bound_worst(np.ones(2), g, Q, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert upper_bound_worst(np.ones(2), g, Q, 0.0) == 0.0

    def test_large_inertia_limit(self):
        rng = np.random.default_rng(13)
        g = random_connected_grid(rng, n=4)
        Q = random_psd_block_weight(rng, 4)
        L_pinv = np.linalg.pinv(laplacian(g))
        limit = np.trace(L_pinv @ Q[:4, :4]) / (2 * np.min(g.d))
        big = upper_bound_ub(np.full(4, 1e12), g, Q)
        assert big == pytest.approx(limit, rel=1e-9)

    def test_dominates_gramian_uniform_strengths(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            g = random_connected_grid(rng, n_range=(3, 6))
            m = rng.uniform(0.5, 3.0, g.n)
            Q = random_psd_block_weight(rng, g.n)
            pi_bar = float(rng.uniform(0.2, 3.0))
            C = matrix_sqrt_psd(Q)
            sys_ = assemble_state_space(g, m, np.full(g.n, pi_bar), C)
            exact = h2_norm_sq_gramian(sys_)
            assert pi_bar * upper_bound_ub(m, g, Q) >= exact - 1e-9 * max(1.0, exact)

    def test_worst_dominates_worst_case_metric(self):
        # Droop weight: the bound at full budget dominates the exact
        # worst-case metric in its Gramian normalization.
        rng = np.random.default_rng(43)
        for _ in range(10):
            g = random_connected_grid(rng, n_range=(2, 5))
            m = rng.uniform(0.5, 3.0, g.n)
            C = output_matrix_primary_effort(g.d)
            Q = C.T @ C
            pi_tot = float(rng.uniform(0.1, 5.0))
            bound = upper_bound_worst(m, g, Q, pi_tot)
            exact_worst = 0.5 * worst_case_metric(m, DisturbanceBudget(pi_tot, g.n)).gamma
            assert bound >= exact_worst - 1e-12

    def test_midpoint_convexity_in_inertia(self):
        rng = np.random.default_rng(47)
        g = random_connected_grid(rng, n=4)
        Q = random_psd_block_weight(rng, 4)
        for _ in range(30):
            a = rng.uniform(0.3, 5.0, 4)
            b = rng.uniform(0.3, 5.0, 4)
            mid = upper_bound_ub(0.5 * (a + b), g, Q)
            avg = 0.5 * (upper_bound_ub(a, g, Q) + upper_bound_ub(b, g, Q))
            assert mid <= avg + 1e-12

    def test_rejects_malformed_weight(self):
        g = make_grid([1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0)])
        Q = np.zeros((4, 4))
        Q[2, 3] = Q[3, 2] = 1.0  # frequency block not diagonal
        with pytest.raises(GridError, match="diagonal"):
            upper_bound_ub(np.ones(2), g, Q)
        Q_neg = np.zeros((4, 4))
        Q_neg[2, 2] = -1.0
        with pytest.raises(GridError, match="nonnegative"):
            upper_bound_ub(np.ones(2), g, Q_neg)
        with pytest.raises(GridError, match="budget"):
            upper_bound_worst(np.ones(2), g, np.zeros((4, 4)), -1.0)
