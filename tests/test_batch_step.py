"""Batched training/sharded-step evaluation vs the scalar simulators.

``training_step_batch`` / ``sharded_step_batch`` must be bitwise
identical to ``simulate_training_step`` / ``simulate_sharded_training_step``
on every grid point — cycles, seconds, link bytes, everything the
``scaling`` and ``design-space`` experiments and the serving
service-time table consume.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.arch.interconnect import InterconnectConfig
from repro.core import ACCELERATOR_KINDS, build_accelerator, build_cluster
from repro.training import (
    Algorithm,
    sharded_step_batch,
    simulate_sharded_training_step,
    simulate_training_step,
    training_step_batch,
)
from repro.training import batch as batch_mod
from repro.training.batch import (
    _PHASE_INDEX,
    LoweredStep,
    clear_lowered_step_cache,
    lowered_step,
)
from repro.training.simulate import step_gemm_ops
from repro.workloads import build_model

MODELS = ("SqueezeNet", "MobileNet")
ALGORITHMS = ("DP-SGD", "DP-SGD(R)", "SGD")


class TestTrainingStepBatch:
    @pytest.mark.parametrize("kind", ("ws", "os", "diva"))
    def test_phase_cycles_match_scalar(self, kind):
        accel = (build_accelerator("ws") if kind == "ws"
                 else build_accelerator(kind))
        specs, refs = [], []
        for model in MODELS:
            network = build_model(model)
            for algorithm in ALGORITHMS:
                for batch in (8, 32):
                    specs.append((accel, network, Algorithm(algorithm),
                                  batch))
                    refs.append((network, Algorithm(algorithm), batch))
        step = training_step_batch(specs)
        for i, (network, algorithm, batch) in enumerate(refs):
            report = simulate_training_step(network, algorithm, accel,
                                            batch)
            assert int(step.total_cycles[i]) == report.total_cycles
            assert float(step.total_seconds[i]) == report.total_seconds
            for phase, run in report.phases.items():
                assert int(step.phase_cycles[i, _PHASE_INDEX[phase]]) \
                    == run.cycles, (kind, network.name, algorithm, phase)

    def test_empty_specs(self):
        assert len(training_step_batch([])) == 0


def _accelerators():
    """One accelerator per kind, plus the PPU-less OS/DiVa variants (the
    only other input the lowering reads is the norm-fusion ability)."""
    accels = [build_accelerator(kind) for kind in ACCELERATOR_KINDS]
    accels += [build_accelerator(kind, with_ppu=False)
               for kind in ACCELERATOR_KINDS if kind != "ws"]
    return accels


_COLUMNS = ("phase", "layer", "m", "k", "n", "count", "write_output",
            "fuse_norm")


def _op_columns(network, ops):
    """The columns of a ``step_gemm_ops`` list, field by field; an op of
    an unnamed layer rides with the previous op's layer."""
    index = {layer.name: i for i, layer in enumerate(network.layers)}
    layers, previous = [], 0
    for op in ops:
        previous = index.get(op.gemm.layer, previous)
        layers.append(previous)
    return {
        "phase": [_PHASE_INDEX[op.phase] for op in ops],
        "layer": layers,
        "m": [op.gemm.m for op in ops],
        "k": [op.gemm.k for op in ops],
        "n": [op.gemm.n for op in ops],
        "count": [op.gemm.count for op in ops],
        "write_output": [op.write_output for op in ops],
        "fuse_norm": [op.fuse_norm for op in ops],
    }


def _assert_columns(entry, network, ops, where=""):
    assert len(entry) == len(ops), where
    want = _op_columns(network, ops)
    got = {column: getattr(entry, column).tolist() for column in _COLUMNS}
    assert [c for c in _COLUMNS if got[c] != want[c]] == [], where


def _column_lists(entry):
    return tuple(getattr(entry, column).tolist() for column in _COLUMNS)


@pytest.fixture
def lowerings(monkeypatch):
    """Record every ``step_gemm_ops`` call the memo makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return step_gemm_ops(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "step_gemm_ops", counting)
    clear_lowered_step_cache()
    yield calls
    clear_lowered_step_cache()


class TestLoweredStepMemo:
    @pytest.mark.parametrize("accel", _accelerators(),
                             ids=lambda a: f"{a.name}-ppu{a.ppu is not None}")
    def test_entries_match_fresh_lowering(self, accel, lowerings):
        network = build_model("SqueezeNet")
        for algorithm, tp, batch in itertools.product(
                ALGORITHMS, (1, 2, 3), (8, 32)):
            algorithm = Algorithm(algorithm)
            entry = lowered_step(network, algorithm, accel, batch, tp)
            fresh = step_gemm_ops(network, algorithm, accel, batch, tp=tp)
            _assert_columns(entry, network, fresh)
            # A repeat is a memo hit: it lowers nothing anew.
            before = len(lowerings)
            again = lowered_step(network, algorithm, accel, batch, tp)
            assert len(lowerings) == before
            assert _column_lists(again) == _column_lists(entry)
        # Every batch and tp of one algorithm shares the lowerings at
        # batch 1 and 2.
        assert len(lowerings) == 2 * len(ALGORITHMS)

    def test_entries_are_immutable(self, lowerings):
        network = build_model("SqueezeNet")
        entry = lowered_step(network, Algorithm.DP_SGD,
                             build_accelerator("diva"), 16, 2)
        for column in _COLUMNS:
            array = getattr(entry, column)
            assert not array.flags.writeable, column
            with pytest.raises(ValueError):
                array[0] = array[0]
        # The memoized lowering every batch derives from is read-only
        # too, so no caller can change another caller's columns.
        (memo,) = batch_mod._LOWERED_STEPS.values()
        for array in (memo.dims, memo.slope,
                      *(getattr(memo.base, c) for c in _COLUMNS)):
            assert not array.flags.writeable

    def test_networks_key_by_identity_not_name(self, lowerings):
        accel = build_accelerator("diva")
        variants = (build_model("MobileNet"),
                    build_model("MobileNet", native_groups=True),
                    build_model("MobileNet", input_size=64))
        assert len({net.name for net in variants}) == 1
        entries = [lowered_step(net, Algorithm.DP_SGD, accel, 8)
                   for net in variants]
        assert len(batch_mod._LOWERED_STEPS) == 3
        assert {id(memo.base.network)
                for memo in batch_mod._LOWERED_STEPS.values()} \
            == {id(net) for net in variants}
        for net, entry in zip(variants, entries):
            assert entry.network is net
            _assert_columns(entry, net,
                            step_gemm_ops(net, Algorithm.DP_SGD, accel, 8))
        assert _column_lists(entries[0]) != _column_lists(entries[1])
        assert _column_lists(entries[0]) != _column_lists(entries[2])

    def test_lru_holds_its_bound(self, monkeypatch, lowerings):
        monkeypatch.setattr(batch_mod, "LOWERED_STEP_CACHE_MAXSIZE", 4)
        network = build_model("SqueezeNet")
        # Five distinct memo keys: (dataflow, algorithm) pairs.
        keys = [(Algorithm(algorithm), build_accelerator(kind))
                for kind in ("ws", "diva") for algorithm in ALGORITHMS][:5]
        for algorithm, accel in keys:
            lowered_step(network, algorithm, accel, 8)
        assert len(batch_mod._LOWERED_STEPS) == 4
        assert len(lowerings) == 2 * 5
        # A live key lowers nothing, whatever the batch and tp.
        lowered_step(network, *keys[-1], 64, 2)
        assert len(lowerings) == 2 * 5
        # The oldest key was evicted: asking again lowers it anew.
        lowered_step(network, *keys[0], 8)
        assert len(lowerings) == 2 * 6
        assert len(batch_mod._LOWERED_STEPS) == 4

    def test_unknown_layer_rides_with_previous_op(self):
        network = build_model("SqueezeNet")
        ops = step_gemm_ops(network, Algorithm.SGD,
                            build_accelerator("diva"), 2)
        named = LoweredStep.from_ops(network, ops).layer
        unnamed = [0, 5, len(ops) - 1]
        ops = [replace(op, gemm=replace(op.gemm, layer="")) if j in unnamed
               else op for j, op in enumerate(ops)]
        layer = LoweredStep.from_ops(network, ops).layer
        assert layer[0] == 0
        for j in unnamed[1:]:
            assert layer[j] == layer[j - 1]
        assert [layer[j] for j in range(len(ops)) if j not in unnamed] \
            == [named[j] for j in range(len(ops)) if j not in unnamed]

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch must be positive"):
            lowered_step(build_model("SqueezeNet"), Algorithm.SGD,
                         build_accelerator("diva"), 0)

    @pytest.mark.parametrize("mutate", [
        lambda ops, batch: ops[:-batch],
        lambda ops, batch: [replace(op, fuse_norm=batch > 1) for op in ops],
        lambda ops, batch: [replace(op, gemm=replace(op.gemm,
                                                     k=op.gemm.k + 2 - batch))
                            for op in ops],
    ], ids=("length", "flags", "negative-slope"))
    def test_non_affine_schedule_raises(self, monkeypatch, lowerings,
                                        mutate):
        def lowering(network, algorithm, accel, batch, tp=1):
            return mutate(step_gemm_ops(network, algorithm, accel, batch,
                                        tp=tp), batch)

        monkeypatch.setattr(batch_mod, "step_gemm_ops", lowering)
        with pytest.raises(ValueError, match="SqueezeNet.*batch-affine"):
            lowered_step(build_model("SqueezeNet"), Algorithm.SGD,
                         build_accelerator("diva"), 4)

    def test_cold_and_warm_memo_price_identically(self):
        accels = [build_accelerator(kind) for kind in ACCELERATOR_KINDS]
        specs = [(accel, build_model(model), Algorithm(algorithm), 16, tp)
                 for accel in accels for model in MODELS
                 for algorithm in ALGORITHMS for tp in (1, 2)]
        clear_lowered_step_cache()
        cold = training_step_batch(specs, collect_ops=True)
        warm = training_step_batch(specs, collect_ops=True)
        np.testing.assert_array_equal(cold.phase_cycles, warm.phase_cycles)
        assert cold.op_cycles.keys() == warm.op_cycles.keys() \
            == set(range(len(specs)))
        for u, (accel, network, algorithm, batch, tp) in enumerate(specs):
            np.testing.assert_array_equal(cold.op_cycles[u],
                                          warm.op_cycles[u])
            assert len(cold.op_cycles[u]) == len(
                lowered_step(network, algorithm, accel, batch, tp))


def _experiment_networks():
    """Every zoo model at every shape option the experiments build."""
    from repro.experiments.sensitivity import IMAGE_SIZES, SEQ_LENS
    from repro.workloads.zoo import CNN_MODELS, MODEL_NAMES

    nets = [build_model("MobileNet", native_groups=True)]
    for name in MODEL_NAMES:
        for size in (IMAGE_SIZES if name in CNN_MODELS else SEQ_LENS):
            nets.append(build_model(name, input_size=size, seq_len=size))
    return nets


class TestAffineLowering:
    """Pin: every experiment network's schedule is batch-affine, so the
    memo's column arithmetic reproduces a fresh ``step_gemm_ops``."""

    @pytest.mark.parametrize("network", _experiment_networks(),
                             ids=lambda net: f"{net.name}-{net.input_elems}"
                             f"x{len(net.layers)}")
    def test_columns_equal_fresh_lowering(self, network):
        accels = _accelerators()
        for algorithm, accel in itertools.product(ALGORITHMS, accels):
            algorithm = Algorithm(algorithm)
            for batch, tp in itertools.product(
                    (1, 2, 3, 64, 257, 8192), (1, 2, 3)):
                _assert_columns(
                    lowered_step(network, algorithm, accel, batch, tp),
                    network,
                    step_gemm_ops(network, algorithm, accel, batch, tp=tp),
                    f"{algorithm.value} {accel.name} b={batch} tp={tp}")


def _grid():
    points = []
    for model, algorithm, chips, topology, bucket, overlap in \
            itertools.product(MODELS, ALGORITHMS, (1, 2, 4),
                              ("ring", "all_to_all", "hierarchical"),
                              (None, 2**20), (True, False)):
        chips_per_node = 2 if (topology == "hierarchical"
                               and chips > 1) else 1
        points.append((model, algorithm, 32 * chips, chips, topology,
                       bucket, chips_per_node, overlap))
    return points


class TestShardedStepBatch:
    def test_grid_matches_scalar_simulator(self):
        points = _grid()
        columns = list(zip(*points))
        result = sharded_step_batch(
            list(columns[0]), list(columns[1]), np.array(columns[2]),
            np.array(columns[3]), topologies=list(columns[4]),
            bucket_bytes=list(columns[5]),
            chips_per_node=np.array(columns[6]),
            overlaps=np.array(columns[7]))
        for i, (model, algorithm, batch, chips, topology, bucket,
                chips_per_node, overlap) in enumerate(points):
            cluster = build_cluster(
                "diva", n_chips=chips,
                interconnect=InterconnectConfig(
                    topology=topology, bucket_bytes=bucket,
                    chips_per_node=chips_per_node))
            report = simulate_sharded_training_step(
                build_model(model), Algorithm(algorithm), cluster,
                batch, overlap=overlap)
            assert int(result.total_cycles[i]) == report.total_cycles
            assert float(result.total_seconds[i]) == report.total_seconds
            assert float(result.compute_seconds[i]) == \
                report.compute_seconds
            assert float(result.comm_seconds[i]) == report.comm_seconds
            assert float(result.comm_total_seconds[i]) == \
                report.comm_total_seconds
            assert float(result.comm_hidden_seconds[i]) == \
                report.comm_hidden_seconds
            assert int(result.link_bytes[i]) == report.comm.link_bytes
            assert int(result.local_batch[i]) == report.local_batch
            assert float(result.comm_fraction[i]) == report.comm_fraction

    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            sharded_step_batch(["SqueezeNet"], "DP-SGD", 33, 2)

    def test_lopsided_hierarchical_rejected(self):
        with pytest.raises(ValueError, match="hierarchical"):
            sharded_step_batch(["SqueezeNet"], "DP-SGD", 32, 4,
                               topologies="hierarchical",
                               chips_per_node=3)

    def test_chips_per_node_needs_hierarchical(self):
        with pytest.raises(ValueError, match="chips_per_node"):
            sharded_step_batch(["SqueezeNet"], "DP-SGD", 32, 4,
                               topologies="ring", chips_per_node=2)


class TestExperimentBatchedPaths:
    def test_scaling_batched_rows_equal_scalar_oracle(self):
        from repro.experiments import scaling

        work = []
        base, clamped = scaling.default_global_batch_info(
            "SqueezeNet", (1, 2, 4))
        for algorithm in ("DP-SGD", "SGD"):
            for chips in (1, 2, 4):
                work.append(("SqueezeNet", chips, algorithm, "strong",
                             "ring", base, True, 2**20, 1, clamped))
        batched = scaling.evaluate_points_batched(work)
        scalar = [scaling.evaluate_point(*point) for point in work]
        assert batched == scalar

    def test_design_space_batched_rows_equal_scalar_oracle(self):
        from repro.experiments import design_space

        work = [("SqueezeNet", h, w) for h, w in
                ((64, 64), (64, 128), (96, 96))]
        batched = design_space.evaluate_points_batched(work)
        scalar = [design_space.evaluate_point(*point) for point in work]
        assert batched == scalar

    def test_weak_scaling_batched(self):
        from repro.experiments import scaling

        work = [("SqueezeNet", chips, "DP-SGD", "weak", "ring", 16,
                 True, None, 1, False) for chips in (1, 2, 4)]
        batched = scaling.evaluate_points_batched(work)
        scalar = [scaling.evaluate_point(*point) for point in work]
        assert batched == scalar
        assert [row["global_batch"] for row in batched] == [16, 32, 64]
