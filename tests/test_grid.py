"""Grid construction, Laplacian structure, and state-space assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertia_market import (
    GridError,
    assemble_state_space,
    build_grid,
    laplacian,
    output_matrix_primary_effort,
)
from inertia_market.grid import drift_mode

from helpers import make_grid, random_connected_grid


def test_minimal_two_bus_grid():
    g = make_grid([1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0)])
    assert g.n == 2
    np.testing.assert_allclose(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_three_bus_path_laplacian():
    g = make_grid([1.0] * 3, [1.0] * 3, [(0, 1, 1.0), (1, 2, 1.0)])
    np.testing.assert_allclose(
        laplacian(g), [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )


def test_disconnected_grid_rejected():
    with pytest.raises(GridError, match="not connected"):
        make_grid([1.0] * 3, [1.0] * 3, [(0, 1, 1.0)])


def test_single_bus_degenerate_grid_accepted():
    g = make_grid([2.0], [4.0], [])
    assert laplacian(g).shape == (1, 1)
    assert laplacian(g)[0, 0] == 0.0


@pytest.mark.parametrize(
    "m0, d, lines, message",
    [
        ([1.0, -1.0], [1.0, 1.0], [(0, 1, 1.0)], "inertia"),
        ([1.0, 1.0], [1.0, 0.0], [(0, 1, 1.0)], "damping"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 1, -0.5)], "susceptance"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 0, 1.0)], "distinct"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0), (1, 0, 2.0)], "duplicate"),
        ([1.0, np.nan], [1.0, 1.0], [(0, 1, 1.0)], "inertia m0 must be positive and finite"),
        ([1.0, np.inf], [1.0, 1.0], [(0, 1, 1.0)], "inertia m0 must be positive and finite"),
        ([1.0, 1.0], [np.nan, 1.0], [(0, 1, 1.0)], "damping d must be positive and finite"),
        ([1.0, 1.0], [1.0, np.inf], [(0, 1, 1.0)], "damping d must be positive and finite"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 1, np.nan)], "susceptance must be nonnegative and finite"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 1, np.inf)], "susceptance must be nonnegative and finite"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 1, "x")], r"lines\[0\]: .*non-numeric b"),
        ([1.0, 1.0], [1.0, 1.0], [(0, 1, None)], r"lines\[0\]: .*non-numeric b"),
    ],
)
def test_invalid_grids_rejected(m0, d, lines, message):
    with pytest.raises(GridError, match=message):
        make_grid(m0, d, lines)


@pytest.mark.parametrize(
    "buses, message",
    [
        ([], "non-empty 'buses' list"),
        ([{"label": "1", "m0": 1.0}], r"buses\[0\]: expected label/m0/d"),
        ([{"label": "1", "m0": 1.0, "d": 1.0}, {"label": 1, "m0": 2.0, "d": 1.0}], "duplicate bus labels"),
    ],
    ids=["no-buses", "bus-without-d", "duplicate-labels"],
)
def test_invalid_bus_lists_rejected(buses, message):
    with pytest.raises(GridError, match=message):
        build_grid({"buses": buses, "lines": []})


def test_unknown_bus_in_line_rejected():
    with pytest.raises(GridError, match="unknown bus"):
        build_grid(
            {
                "buses": [{"label": "1", "m0": 1.0, "d": 1.0}],
                "lines": [{"from": "1", "to": "9", "b": 1.0}],
            }
        )


def test_laplacian_spectrum_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_grid(rng)
        L = laplacian(g)
        np.testing.assert_allclose(L, L.T)
        np.testing.assert_allclose(L @ np.ones(g.n), 0.0, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(L))
        assert abs(eigs[0]) < 1e-10
        if g.n > 1:
            assert eigs[1] > 1e-8  # connected: exactly one zero eigenvalue


def test_laplacian_permutation_equivariance():
    rng = np.random.default_rng(11)
    g = random_connected_grid(rng, n=5)
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    relabeled = make_grid(
        np.asarray(g.m0)[perm],
        np.asarray(g.d)[perm],
        [(int(inv[i]), int(inv[j]), b) for i, j, b in g.lines],
    )
    P = np.eye(5)[perm]
    np.testing.assert_allclose(laplacian(relabeled), P @ laplacian(g) @ P.T, atol=1e-12)


def test_assemble_single_bus_example():
    g = make_grid([2.0], [4.0], [])
    C = output_matrix_primary_effort(g.d)
    sys_ = assemble_state_space(g, g.m0, np.array([1.0]), C)
    np.testing.assert_allclose(sys_.A, [[0.0, 1.0], [0.0, -2.0]])
    np.testing.assert_allclose(sys_.B, [[0.0], [0.5]])


def test_assemble_identity_inertia_blocks():
    g = make_grid([1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0)])
    C = output_matrix_primary_effort(g.d)
    sys_ = assemble_state_space(g, g.m0, np.ones(2), C)
    L = laplacian(g)
    np.testing.assert_allclose(sys_.A[2:, :2], -L)
    np.testing.assert_allclose(sys_.A[2:, 2:], -np.eye(2))


def test_drift_mode_annihilated_on_random_grids():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_connected_grid(rng)
        C = output_matrix_primary_effort(g.d)
        m = rng.uniform(0.5, 3.0, g.n)
        pi = rng.uniform(0.0, 2.0, g.n)
        sys_ = assemble_state_space(g, m, pi, C)
        v = drift_mode(g.n)
        np.testing.assert_allclose(sys_.A @ v, 0.0, atol=1e-12)
        np.testing.assert_allclose(sys_.C @ v, 0.0, atol=1e-12)


def test_assemble_rejects_bad_inputs():
    g = make_grid([1.0, 1.0], [1.0, 1.0], [(0, 1, 1.0)])
    C = output_matrix_primary_effort(g.d)
    with pytest.raises(GridError, match="positive"):
        assemble_state_space(g, np.array([1.0, 0.0]), np.ones(2), C)
    with pytest.raises(GridError, match="nonnegative"):
        assemble_state_space(g, np.ones(2), np.array([1.0, -1.0]), C)
    with pytest.raises(GridError, match="shape"):
        assemble_state_space(g, np.ones(2), np.ones(2), np.zeros((2, 3)))
    bad_C = np.hstack([np.eye(2), np.zeros((2, 2))])  # observes the drift mode
    with pytest.raises(GridError, match="drift"):
        assemble_state_space(g, np.ones(2), np.ones(2), bad_C)


@given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=6))
@settings(max_examples=60)
def test_primary_effort_output_matrix(d):
    C = output_matrix_primary_effort(d)
    n = len(d)
    assert C.shape == (n, 2 * n)
    np.testing.assert_allclose(C[:, :n], 0.0)
    Q = C.T @ C
    np.testing.assert_allclose(np.diag(Q[n:, n:]), d, rtol=1e-12)
    np.testing.assert_allclose(C @ drift_mode(n), 0.0)
