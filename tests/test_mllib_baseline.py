"""Tests for the MLlib-workalike BlockMatrix baseline."""

import numpy as np
import pytest

from repro.engine import EngineContext, TINY_CLUSTER
from repro.mllib import PURE_JVM_BREEZE, BlockMatrix, KernelProfile

RNG = np.random.default_rng(31)
A_NP = RNG.uniform(0, 10, size=(45, 37))
B_NP = RNG.uniform(0, 10, size=(45, 37))
C_NP = RNG.uniform(0, 10, size=(37, 26))


@pytest.fixture()
def engine():
    return EngineContext(cluster=TINY_CLUSTER)


def block(engine, array, size=16, profile=PURE_JVM_BREEZE):
    return BlockMatrix.from_numpy(engine, array, size, profile=profile)


def test_from_numpy_roundtrip(engine):
    m = block(engine, A_NP)
    np.testing.assert_allclose(m.to_numpy(), A_NP)
    assert m.num_row_blocks == 3 and m.num_col_blocks == 3


def test_block_shape_ragged_edges(engine):
    m = block(engine, A_NP)
    assert m.block_shape(0, 0) == (16, 16)
    assert m.block_shape(2, 2) == (13, 5)


def test_validate_accepts_well_formed(engine):
    block(engine, A_NP).validate()


def test_validate_rejects_bad_blocks(engine):
    bad = BlockMatrix(
        engine.parallelize([((0, 0), np.zeros((3, 3)))]), 16, 16, 45, 37
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_add(engine):
    result = block(engine, A_NP).add(block(engine, B_NP))
    np.testing.assert_allclose(result.to_numpy(), A_NP + B_NP)


def test_subtract(engine):
    result = block(engine, A_NP).subtract(block(engine, B_NP))
    np.testing.assert_allclose(result.to_numpy(), A_NP - B_NP)


def test_add_dimension_mismatch(engine):
    with pytest.raises(ValueError):
        block(engine, A_NP).add(block(engine, C_NP))


def test_multiply(engine):
    result = block(engine, A_NP).multiply(block(engine, C_NP))
    np.testing.assert_allclose(result.to_numpy(), A_NP @ C_NP)


def test_multiply_dimension_mismatch(engine):
    with pytest.raises(ValueError):
        block(engine, A_NP).multiply(block(engine, B_NP))


def test_multiply_block_size_mismatch(engine):
    with pytest.raises(ValueError):
        block(engine, A_NP, 16).multiply(block(engine, C_NP, 10))


def test_multiply_chain(engine):
    d_np = RNG.uniform(0, 1, size=(26, 11))
    result = (
        block(engine, A_NP)
        .multiply(block(engine, C_NP))
        .multiply(block(engine, d_np))
    )
    np.testing.assert_allclose(result.to_numpy(), A_NP @ C_NP @ d_np)


def test_transpose(engine):
    result = block(engine, A_NP).transpose()
    np.testing.assert_allclose(result.to_numpy(), A_NP.T)
    assert result.num_rows == A_NP.shape[1]


def test_transpose_multiply(engine):
    result = block(engine, A_NP).transpose().multiply(block(engine, B_NP))
    np.testing.assert_allclose(result.to_numpy(), A_NP.T @ B_NP)


def test_map_blocks_scaling(engine):
    result = block(engine, A_NP).map_blocks(lambda b: 0.5 * b)
    np.testing.assert_allclose(result.to_numpy(), 0.5 * A_NP)


def test_simulate_multiply_covers_all_blocks(engine):
    a = block(engine, A_NP)
    c = block(engine, C_NP)
    from repro.engine import GridPartitioner

    partitioner = GridPartitioner(a.num_row_blocks, c.num_col_blocks, 4)
    a_dest, b_dest = a._simulate_multiply(c, partitioner)
    assert set(a_dest) == {(i, k) for i in range(3) for k in range(3)}
    assert set(b_dest) == {(k, j) for k in range(3) for j in range(2)}
    # Every destination list is nonempty and within range.
    for dests in list(a_dest.values()) + list(b_dest.values()):
        assert dests
        assert all(0 <= p < partitioner.num_partitions for p in dests)


def test_jvm_profile_charges_simulated_compute_only(engine):
    """The kernel profile affects simulated time, never correctness."""
    fast_engine = EngineContext(cluster=TINY_CLUSTER)
    slow_engine = EngineContext(cluster=TINY_CLUSTER)
    a, c = A_NP, C_NP
    no_profile = BlockMatrix.from_numpy(fast_engine, a, 16, profile=None)
    with_profile = BlockMatrix.from_numpy(
        slow_engine, a, 16, profile=KernelProfile(gemm_slowdown=50.0)
    )
    r1 = no_profile.multiply(BlockMatrix.from_numpy(fast_engine, c, 16, profile=None))
    r2 = with_profile.multiply(
        BlockMatrix.from_numpy(slow_engine, c, 16, profile=KernelProfile(gemm_slowdown=50.0))
    )
    np.testing.assert_allclose(r1.to_numpy(), r2.to_numpy())
    assert (
        slow_engine.metrics.total.compute_seconds
        > fast_engine.metrics.total.compute_seconds
    )


def test_multiply_shuffles_replicated_inputs(engine):
    a = block(engine, A_NP)
    c = block(engine, C_NP)
    snapshot = engine.metrics.snapshot()
    a.multiply(c).to_numpy()
    delta = engine.metrics.delta_since(snapshot)
    assert delta.shuffles >= 2  # the two cogroup sides at least
    assert delta.shuffle_records > a.num_row_blocks * a.num_col_blocks


def test_cache(engine):
    m = block(engine, A_NP).cache()
    assert m.to_numpy() is not None
