"""Batched training/sharded-step evaluation vs the scalar simulators.

``training_step_batch`` / ``sharded_step_batch`` must be bitwise
identical to ``simulate_training_step`` / ``simulate_sharded_training_step``
on every grid point — cycles, seconds, link bytes, everything the
``scaling`` and ``design-space`` experiments and the serving
service-time table consume.
"""

import itertools

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


_COLUMNS = ("phase", "m", "k", "n", "count", "write_output", "fuse_norm")


class TestLoweredStepMemo:
    @pytest.mark.parametrize("accel", _accelerators(),
                             ids=lambda a: f"{a.name}-ppu{a.ppu is not None}")
    def test_entries_match_fresh_lowering(self, accel):
        network = build_model("SqueezeNet")
        for algorithm, tp, batch in itertools.product(
                ALGORITHMS, (1, 2, 3), (8, 32)):
            algorithm = Algorithm(algorithm)
            entry = lowered_step(network, algorithm, accel, batch, tp)
            fresh = step_gemm_ops(network, algorithm, accel, batch, tp=tp)
            assert entry.ops == tuple(fresh)
            want = {
                "phase": [_PHASE_INDEX[op.phase] for op in fresh],
                "m": [op.gemm.m for op in fresh],
                "k": [op.gemm.k for op in fresh],
                "n": [op.gemm.n for op in fresh],
                "count": [op.gemm.count for op in fresh],
                "write_output": [op.write_output for op in fresh],
                "fuse_norm": [op.fuse_norm for op in fresh],
            }
            for column in _COLUMNS:
                np.testing.assert_array_equal(
                    getattr(entry, column), want[column], err_msg=column)
            assert lowered_step(network, algorithm, accel, batch,
                                tp) is entry

    def test_entries_are_immutable(self):
        entry = lowered_step(build_model("SqueezeNet"), Algorithm.DP_SGD,
                             build_accelerator("diva"), 16)
        assert isinstance(entry.ops, tuple)
        for column in _COLUMNS:
            array = getattr(entry, column)
            assert not array.flags.writeable, column
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_networks_key_by_identity_not_name(self):
        accel = build_accelerator("diva")
        variants = (build_model("MobileNet"),
                    build_model("MobileNet", native_groups=True),
                    build_model("MobileNet", input_size=64))
        assert len({net.name for net in variants}) == 1
        entries = [lowered_step(net, Algorithm.DP_SGD, accel, 8)
                   for net in variants]
        assert len({id(entry) for entry in entries}) == 3
        for net, entry in zip(variants, entries):
            assert entry.network is net
            assert entry.ops == tuple(
                step_gemm_ops(net, Algorithm.DP_SGD, accel, 8))
        assert entries[0].ops != entries[1].ops
        assert entries[0].ops != entries[2].ops

    def test_lru_holds_its_bound(self, monkeypatch):
        monkeypatch.setattr(batch_mod, "LOWERED_STEP_CACHE_MAXSIZE", 4)
        clear_lowered_step_cache()
        network = build_model("SqueezeNet")
        accel = build_accelerator("os")
        entries = [lowered_step(network, Algorithm.SGD, accel, batch)
                   for batch in range(1, 6)]
        assert len(batch_mod._LOWERED_STEPS) == 4
        # The oldest key was evicted: asking again lowers it anew.
        assert lowered_step(network, Algorithm.SGD, accel, 1) \
            is not entries[0]
        assert len(batch_mod._LOWERED_STEPS) == 4
        clear_lowered_step_cache()

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
