"""Batched closed-form engine vs the scalar oracles (repro.arch.batch).

The batched evaluators must be *identical* to the scalar paths — same
integers, same floats — on every configuration; these tests pin that
with hypothesis-driven random grids plus handcrafted edge shapes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import (
    allreduce_seconds_batch,
    first_bucket_seconds_batch,
    gemm_stats_batch,
    link_bytes_per_chip_batch,
    n_buckets_batch,
    topology_codes,
)
from repro.arch.engine import ArrayConfig
from repro.arch.interconnect import (
    Interconnect,
    InterconnectConfig,
    fabric_named,
)
from repro.arch.systolic import (
    OutputStationaryEngine,
    WeightStationaryEngine,
)
from repro.core import build_accelerator
from repro.core.outer_product import OuterProductEngine
from repro.workloads.gemms import Gemm

ENGINE_KINDS = ("ws", "os", "diva")

#: Edge shapes: exact-fit, remainders in each dimension, unit dims,
#: sub-array dims, multi-count.
EDGE_SHAPES = (
    (1, 1, 1, 1),
    (128, 128, 128, 1),
    (127, 129, 255, 3),
    (256, 256, 256, 2),
    (1, 128, 1, 5),
    (129, 1, 129, 1),
    (64, 700, 31, 7),
)


def _engine(kind: str):
    accel = (build_accelerator("ws") if kind == "ws"
             else build_accelerator(kind))
    return accel.engine


def _assert_batch_equals_scalar(engine, dims):
    m, k, n, c = (np.array(column) for column in zip(*dims))
    batch = gemm_stats_batch(engine, m, k, n, c)
    for i, (mi, ki, ni, ci) in enumerate(dims):
        scalar = engine.gemm_stats_reference(Gemm(mi, ki, ni, ci))
        for field in ("compute_cycles", "macs", "tiles",
                      "sram_read_bytes", "sram_write_bytes"):
            assert int(getattr(batch, field)[i]) == getattr(scalar, field), \
                (engine.name, dims[i], field)


class TestGemmStatsBatch:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_edge_shapes(self, kind):
        _assert_batch_equals_scalar(_engine(kind), EDGE_SHAPES)

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(dims=st.lists(
        st.tuples(st.integers(1, 600), st.integers(1, 600),
                  st.integers(1, 600), st.integers(1, 16)),
        min_size=1, max_size=12))
    def test_random_grids_match_scalar(self, kind, dims):
        _assert_batch_equals_scalar(_engine(kind), dims)

    @pytest.mark.parametrize("engine_cls", [WeightStationaryEngine,
                                            OutputStationaryEngine,
                                            OuterProductEngine])
    def test_without_double_buffering(self, engine_cls):
        engine = engine_cls(ArrayConfig(weight_double_buffer=False,
                                        accum_double_buffer=False))
        _assert_batch_equals_scalar(engine, EDGE_SHAPES)

    def test_utilization_matches_scalar(self):
        engine = _engine("diva")
        batch = gemm_stats_batch(engine, [576, 300], [16, 77],
                                 [512, 128], [32, 1])
        for i, dims in enumerate([(576, 16, 512, 32), (300, 77, 128, 1)]):
            assert batch.utilization[i] == pytest.approx(
                engine.gemm_stats(Gemm(*dims)).utilization)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            gemm_stats_batch(_engine("diva"), [0], [1], [1], [1])

    def test_engine_without_grid_axes_is_rejected(self):
        engine = _engine("diva")

        class NoGrid(type(engine)):
            grid_axes = None

        with pytest.raises(TypeError, match="NoGrid must declare grid_axes"):
            NoGrid(engine.config)


# -- plain-Python collective oracle ------------------------------------------
#
# A loop-free scalar restatement of the allreduce model (bucket split,
# per-topology time on the fabric's link classes, shard-first-rounded
# wire bytes), independent of the NumPy forms in repro.arch.interconnect
# that both the Interconnect methods and the batched step evaluate.

def _oracle_bucket_shape(config, payload):
    if payload <= 0:
        return 0, 0, 0
    size = config.bucket_bytes
    if size is None or size >= payload:
        return 1, payload, 0
    full, rem = divmod(payload, size)
    return full, size, rem


def _oracle_one_allreduce_seconds(config, payload, n_chips):
    fab = config.links
    bw = fab.cross_node.bandwidth_bytes_per_s
    lat = fab.cross_node.latency_s
    if config.topology == "ring":
        return 2 * (n_chips - 1) * (payload / (n_chips * bw) + lat)
    if config.topology == "all_to_all":
        return 2 * (payload / (n_chips * bw) + lat)
    m = config.chips_per_node
    k = n_chips // m
    seconds = 0.0
    if m > 1:
        seconds += 2 * (payload / (m * fab.intra_node.bandwidth_bytes_per_s)
                        + fab.intra_node.latency_s)
    if k > 1:
        seconds += 2 * (k - 1) * (payload / (m * k * bw) + lat)
    return seconds


def _oracle_one_link_bytes(config, payload, n_chips):
    if config.topology != "hierarchical":
        if n_chips <= 1 or payload <= 0:
            return 0
        return 2 * (n_chips - 1) * math.ceil(payload / n_chips)
    m = config.chips_per_node
    k = n_chips // m
    shard = math.ceil(payload / m)
    in_node = 2 * (m - 1) * shard if m > 1 else 0
    cross = 2 * (k - 1) * math.ceil(shard / k) if k > 1 else 0
    return in_node + cross


def _oracle_allreduce_seconds(config, payload, n_chips):
    if n_chips <= 1 or payload <= 0:
        return 0.0
    full, size, rem = _oracle_bucket_shape(config, payload)
    seconds = full * _oracle_one_allreduce_seconds(config, size, n_chips)
    if rem:
        seconds += _oracle_one_allreduce_seconds(config, rem, n_chips)
    return seconds


def _oracle_first_bucket_seconds(config, payload, n_chips):
    if n_chips <= 1 or payload <= 0:
        return 0.0
    return _oracle_one_allreduce_seconds(
        config, _oracle_bucket_shape(config, payload)[1], n_chips)


def _oracle_link_bytes_per_chip(config, payload, n_chips):
    if n_chips <= 1 or payload <= 0:
        return 0
    full, size, rem = _oracle_bucket_shape(config, payload)
    total = full * _oracle_one_link_bytes(config, size, n_chips)
    if rem:
        total += _oracle_one_link_bytes(config, rem, n_chips)
    return total


def _oracle_n_buckets(config, payload):
    full, _, rem = _oracle_bucket_shape(config, payload)
    return full + (1 if rem else 0)


class TestCollectiveBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.integers(0, 10**9),
        n_chips=st.integers(1, 64),
        topology=st.sampled_from(["ring", "all_to_all", "hierarchical"]),
        bucket_mb=st.sampled_from([None, 1, 4, 25]),
        node_pow=st.integers(0, 3),
        fabric=st.sampled_from([None, "two-tier"]),
    )
    def test_matches_scalar_interconnect(self, payload, n_chips, topology,
                                         bucket_mb, node_pow, fabric):
        chips_per_node = 2 ** node_pow if topology == "hierarchical" else 1
        if topology == "hierarchical" and n_chips % chips_per_node:
            n_chips = chips_per_node * max(1, n_chips // chips_per_node)
        bucket = bucket_mb * 2**20 if bucket_mb else None
        config = InterconnectConfig(
            topology=topology, bucket_bytes=bucket,
            chips_per_node=chips_per_node,
            fabric=fabric_named(fabric) if fabric else None)
        adapter = Interconnect(config)
        # The default link operands are the uniform fabric's.
        links = config.links.link_params() if fabric else ()

        p = np.array([payload])
        n = np.array([n_chips])
        topo = topology_codes([topology])
        b = np.array([0 if bucket is None else bucket])
        cpn = np.array([chips_per_node])

        expected_s = _oracle_allreduce_seconds(config, payload, n_chips)
        expected_first = _oracle_first_bucket_seconds(
            config, payload, n_chips)
        expected_bytes = _oracle_link_bytes_per_chip(
            config, payload, n_chips)
        expected_buckets = _oracle_n_buckets(config, payload)
        assert allreduce_seconds_batch(p, n, topo, b, cpn, *links)[0] == \
            expected_s
        assert first_bucket_seconds_batch(p, n, topo, b, cpn, *links)[0] == \
            expected_first
        assert int(link_bytes_per_chip_batch(p, n, topo, b, cpn)[0]) == \
            expected_bytes
        assert int(n_buckets_batch(p, b)[0]) == expected_buckets
        # The Interconnect methods are adapters over the same forms.
        assert adapter.allreduce_seconds(payload, n_chips) == expected_s
        assert adapter.first_bucket_seconds(payload, n_chips) \
            == expected_first
        assert adapter.link_bytes_per_chip(payload, n_chips) \
            == expected_bytes
        assert adapter.n_buckets(payload) == expected_buckets

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            topology_codes(["torus"])
