"""Tests for the ML workloads: factorization and iterative routines."""

import numpy as np
import pytest

from repro import SacSession
from repro.engine import EngineContext, TINY_CLUSTER
from repro.linalg import (
    GAMMA, LAMBDA, mllib_factorization_step, power_iteration,
    reconstruction_error, sac_factorization_step, sac_factorize,
)
from repro.linalg.routines import (
    gradient_descent_linear_regression, pagerank,
)
from repro.mllib import BlockMatrix
from repro.workloads import (
    adjacency_matrix, dense_uniform, factor_matrix, rating_matrix,
    regression_data,
)

N, RANK, TILE = 48, 8, 16


@pytest.fixture()
def session():
    return SacSession(cluster=TINY_CLUSTER, tile_size=TILE)


@pytest.fixture()
def factorization_inputs():
    r = rating_matrix(N, density=0.10, seed=1)
    p = factor_matrix(N, RANK, seed=2)
    q = factor_matrix(N, RANK, seed=3)
    return r, p, q


def reference_step(r, p, q, gamma=GAMMA, lam=LAMBDA):
    e = r - p @ q.T
    p_new = p + gamma * (2 * (e @ q) - lam * p)
    q_new = q + gamma * (2 * (e.T @ p_new) - lam * q)
    return p_new, q_new, e


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------


def test_rating_matrix_density_and_values():
    r = rating_matrix(100, density=0.10, seed=5)
    nonzero = np.count_nonzero(r)
    assert 0.07 < nonzero / r.size < 0.13
    values = r[r != 0]
    assert values.min() >= 1 and values.max() <= 5
    assert np.all(values == np.round(values))


def test_dense_uniform_range():
    a = dense_uniform(50, 60, seed=9)
    assert a.shape == (50, 60)
    assert a.min() >= 0.0 and a.max() < 10.0


def test_generators_are_seeded():
    np.testing.assert_array_equal(
        rating_matrix(20, seed=4), rating_matrix(20, seed=4)
    )
    assert not np.array_equal(rating_matrix(20, seed=4), rating_matrix(20, seed=5))


def test_adjacency_has_empty_diagonal():
    adj = adjacency_matrix(30, seed=0)
    assert np.all(np.diag(adj) == 0)


# ----------------------------------------------------------------------
# Factorization: SAC vs the closed-form recurrence
# ----------------------------------------------------------------------


def test_sac_step_matches_reference(session, factorization_inputs):
    r, p, q = factorization_inputs
    state = sac_factorization_step(
        session, session.tiled(r), session.tiled(p), session.tiled(q)
    )
    p_ref, q_ref, e_ref = reference_step(r, p, q)
    np.testing.assert_allclose(state.error.to_numpy(), e_ref, rtol=1e-10)
    np.testing.assert_allclose(state.p.to_numpy(), p_ref, rtol=1e-10)
    np.testing.assert_allclose(state.q.to_numpy(), q_ref, rtol=1e-10)


def test_mllib_step_matches_reference(factorization_inputs):
    r, p, q = factorization_inputs
    engine = EngineContext(cluster=TINY_CLUSTER)
    p_new, q_new, error = mllib_factorization_step(
        BlockMatrix.from_numpy(engine, r, TILE),
        BlockMatrix.from_numpy(engine, p, TILE),
        BlockMatrix.from_numpy(engine, q, TILE),
    )
    p_ref, q_ref, e_ref = reference_step(r, p, q)
    np.testing.assert_allclose(error.to_numpy(), e_ref, rtol=1e-10)
    np.testing.assert_allclose(p_new.to_numpy(), p_ref, rtol=1e-10)
    np.testing.assert_allclose(q_new.to_numpy(), q_ref, rtol=1e-10)


def test_sac_and_mllib_agree(session, factorization_inputs):
    r, p, q = factorization_inputs
    sac_state = sac_factorization_step(
        session, session.tiled(r), session.tiled(p), session.tiled(q)
    )
    engine = EngineContext(cluster=TINY_CLUSTER)
    p_m, q_m, _ = mllib_factorization_step(
        BlockMatrix.from_numpy(engine, r, TILE),
        BlockMatrix.from_numpy(engine, p, TILE),
        BlockMatrix.from_numpy(engine, q, TILE),
    )
    np.testing.assert_allclose(sac_state.p.to_numpy(), p_m.to_numpy(), rtol=1e-10)
    np.testing.assert_allclose(sac_state.q.to_numpy(), q_m.to_numpy(), rtol=1e-10)


def test_factorization_objective_decreases(session, factorization_inputs):
    r, p, q = factorization_inputs
    r_tiled = session.tiled(r).cache()
    initial = reconstruction_error(
        session, r_tiled, session.tiled(p), session.tiled(q)
    )
    state = sac_factorize(
        session, r_tiled, session.tiled(p), session.tiled(q), iterations=3
    )
    final = reconstruction_error(session, r_tiled, state.p, state.q)
    assert final < initial


def test_custom_hyperparameters(session, factorization_inputs):
    r, p, q = factorization_inputs
    state = sac_factorization_step(
        session, session.tiled(r), session.tiled(p), session.tiled(q),
        gamma=0.01, lam=0.1,
    )
    p_ref, _, _ = reference_step(r, p, q, gamma=0.01, lam=0.1)
    np.testing.assert_allclose(state.p.to_numpy(), p_ref, rtol=1e-10)


# ----------------------------------------------------------------------
# Iterative routines
# ----------------------------------------------------------------------


def test_power_iteration_finds_dominant_eigenvalue(session):
    a = dense_uniform(40, 40, seed=8)
    sym = (a + a.T) / 2
    result = power_iteration(session, session.tiled(sym), max_iterations=200)
    expected = np.max(np.abs(np.linalg.eigvalsh(sym)))
    assert np.isclose(result.eigenvalue, expected, rtol=1e-5)
    # The eigenvector satisfies A x ≈ λ x.
    x = result.eigenvector.to_numpy()
    np.testing.assert_allclose(sym @ x, result.eigenvalue * x, rtol=1e-3)


def test_power_iteration_requires_square(session):
    with pytest.raises(ValueError):
        power_iteration(session, session.tiled(np.ones((3, 4))))


def test_pagerank_is_a_distribution(session):
    adj = adjacency_matrix(25, edge_probability=0.3, seed=10)
    ranks = pagerank(session, session.tiled(adj), iterations=25).to_numpy()
    assert np.isclose(ranks.sum(), 1.0, atol=1e-8)
    assert np.all(ranks > 0)


def test_pagerank_matches_dense_reference(session):
    adj = adjacency_matrix(20, edge_probability=0.3, seed=11)
    out_deg = adj.sum(axis=0)
    n = 20
    transition = np.where(out_deg > 0, adj / np.where(out_deg == 0, 1, out_deg), 1.0 / n)
    rank = np.full(n, 1.0 / n)
    for _ in range(25):
        rank = (1 - 0.85) / n + 0.85 * transition @ rank
    result = pagerank(session, session.tiled(adj), iterations=25).to_numpy()
    np.testing.assert_allclose(result, rank, rtol=1e-8)


def test_linear_regression_recovers_weights(session):
    x, y, w = regression_data(120, 4, noise=0.01, seed=12)
    estimate = gradient_descent_linear_regression(
        session, session.tiled(x), session.tiled_vector(y),
        learning_rate=0.05, iterations=300,
    ).to_numpy()
    np.testing.assert_allclose(estimate, w, atol=0.05)


def test_logistic_regression_separates_classes(session):
    from repro.linalg import logistic_regression

    rng = np.random.default_rng(21)
    positives = rng.normal(loc=(2.0, 2.0), scale=0.6, size=(40, 2))
    negatives = rng.normal(loc=(-2.0, -2.0), scale=0.6, size=(40, 2))
    x = np.vstack([positives, negatives])
    y = np.array([1.0] * 40 + [0.0] * 40)
    perm = rng.permutation(80)
    x, y = x[perm], y[perm]

    w = logistic_regression(
        session, session.tiled(x), session.tiled_vector(y),
        learning_rate=0.5, iterations=120,
    ).to_numpy()

    scores = x @ w
    predictions = (1 / (1 + np.exp(-scores)) > 0.5).astype(float)
    accuracy = (predictions == y).mean()
    assert accuracy >= 0.95


def test_logistic_regression_matches_numpy_steps(session):
    from repro.linalg import logistic_regression

    rng = np.random.default_rng(22)
    x = rng.normal(size=(20, 3))
    y = (rng.random(20) > 0.5).astype(float)
    w = logistic_regression(
        session, session.tiled(x), session.tiled_vector(y),
        learning_rate=0.3, iterations=5,
    ).to_numpy()

    w_ref = np.zeros(3)
    for _ in range(5):
        p = 1 / (1 + np.exp(-(x @ w_ref)))
        w_ref = w_ref + 0.3 / 20 * (x.T @ (y - p))
    np.testing.assert_allclose(w, w_ref, rtol=1e-8)
