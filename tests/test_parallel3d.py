"""3D parallelism: fabrics, pipeline schedules, the placement planner,
and the batched 3D grid engine (DP x PP x TP)."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cluster import ParallelPlan
from repro.arch.interconnect import (
    DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
    DEFAULT_LINK_LATENCY_S,
    FABRICS,
    Fabric,
    Interconnect,
    InterconnectConfig,
    LinkClass,
    fabric_named,
)
from repro.core import build_cluster
from repro.training import Algorithm, simulate_sharded_training_step
from repro.training.batch import sharded_step_batch
from repro.training.memory import max_batch_size, memory_breakdown
from repro.training.parallel import (
    build_pipeline_schedule,
    partition_layers,
    stage_memory_breakdown,
)
from repro.training.plan import plan_placement
from repro.workloads import build_model
from repro.workloads.zoo import MODEL_NAMES

ALGORITHMS = ("SGD", "DP-SGD", "DP-SGD(R)")

#: Every (pp, tp) grid of an 8-chip cluster.
GRIDS_8 = [(pp, tp) for pp in (1, 2, 4, 8) for tp in (1, 2, 4, 8)
           if pp * tp <= 8 and 8 % (pp * tp) == 0]


def _nets():
    return {name: build_model(name) for name in ("SqueezeNet", "VGG-16")}


NETS = _nets()


# -- fabrics ----------------------------------------------------------------

class TestFabric:
    def test_named_presets(self):
        assert set(FABRICS) == {"uniform", "two-tier"}
        assert fabric_named("two-tier").intra_node.bandwidth_bytes_per_s \
            > fabric_named("two-tier").cross_node.bandwidth_bytes_per_s

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown fabric"):
            fabric_named("warp-drive")

    @pytest.mark.parametrize("topology,cpn", [
        ("ring", 1), ("all_to_all", 1), ("hierarchical", 2)])
    def test_uniform_fabric_is_degenerate(self, topology, cpn):
        """A fabric whose tiers equal the homogeneous link changes nothing."""
        net = NETS["SqueezeNet"]
        uniform = Fabric(
            intra_node=LinkClass("link", DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
                                 DEFAULT_LINK_LATENCY_S),
            cross_node=LinkClass("link", DEFAULT_LINK_BANDWIDTH_BYTES_PER_S,
                                 DEFAULT_LINK_LATENCY_S))
        reports = []
        for fabric in (None, uniform, fabric_named("uniform")):
            cluster = build_cluster(
                "diva", n_chips=4,
                interconnect=InterconnectConfig(
                    topology=topology, chips_per_node=cpn, fabric=fabric))
            reports.append(simulate_sharded_training_step(
                net, Algorithm.DP_SGD, cluster, 32))
        base = reports[0]
        for report in reports[1:]:
            assert report.total_cycles == base.total_cycles
            assert report.comm.cycles == base.comm.cycles
            assert report.comm.link_bytes == base.comm.link_bytes

    def test_two_tier_slows_cross_node_collectives(self):
        net = NETS["SqueezeNet"]
        times = {}
        for name in (None, "two-tier"):
            cluster = build_cluster(
                "diva", n_chips=8,
                interconnect=InterconnectConfig(
                    fabric=fabric_named(name) if name else None))
            times[name] = simulate_sharded_training_step(
                net, Algorithm.DP_SGD, cluster, 64).comm.busy_cycles
        # The two-tier NIC (25 GB/s) is 4x slower than the uniform link.
        assert times["two-tier"] > times[None]

    def test_repr_shows_fabric_links(self):
        uniform = Interconnect(InterconnectConfig())
        assert repr(uniform) == "Interconnect(ring, 100 GB/s, 1.0 us)"
        two_tier = Interconnect(InterconnectConfig(fabric=FABRICS["two-tier"]))
        assert repr(two_tier) == (
            "Interconnect(ring, cross nic 25 GB/s, 5.0 us; "
            "intra nvlink 300 GB/s, 0.5 us)")
        cluster = build_cluster("diva", n_chips=2, interconnect=two_tier)
        assert repr(two_tier) in repr(cluster)


# -- pure-DP identity (satellite: plans are strictly additive) --------------

class TestPureDPIdentity:
    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(sorted(NETS)),
           algorithm=st.sampled_from(ALGORITHMS),
           chips=st.sampled_from([2, 4, 8]),
           topology=st.sampled_from(["ring", "all_to_all"]),
           overlap=st.booleans())
    def test_trivial_plan_is_bitwise_identical(
            self, model, algorithm, chips, topology, overlap):
        """``ParallelPlan(dp=N, pp=1, tp=1)`` is the legacy DP path."""
        net = NETS[model]
        cluster = build_cluster(
            "diva", n_chips=chips,
            interconnect=InterconnectConfig(topology=topology))
        legacy = simulate_sharded_training_step(
            net, Algorithm(algorithm), cluster, 32, overlap=overlap)
        planned = simulate_sharded_training_step(
            net, Algorithm(algorithm), cluster, 32, overlap=overlap,
            plan=ParallelPlan(dp=chips, pp=1, tp=1))
        assert planned.total_seconds == legacy.total_seconds  # bitwise
        assert planned.total_cycles == legacy.total_cycles
        assert planned.comm.cycles == legacy.comm.cycles
        assert planned.comm.link_bytes == legacy.comm.link_bytes
        assert planned.shard.phases == legacy.shard.phases
        assert planned.pipeline_cycles == 0
        assert planned.bubble_cycles == 0


# -- pipeline schedules -----------------------------------------------------

class TestPipelineSchedule:
    def test_partition_covers_all_layers(self):
        net = NETS["VGG-16"]
        costs = [max(layer.params, 1) for layer in net.layers]
        for pp in (1, 2, 3, 4, 8):
            bounds = partition_layers(costs, pp)
            assert bounds[0] == 0 and bounds[-1] == len(net.layers)
            assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_pipeline_at_least_bottleneck_stage(self):
        net = NETS["VGG-16"]
        cluster = build_cluster("diva", n_chips=4)
        report = simulate_sharded_training_step(
            net, Algorithm.DP_SGD, cluster, 32,
            plan=ParallelPlan(dp=1, pp=4, tp=1))
        assert report.pipeline_cycles >= max(report.stage_cycles)
        assert report.bubble_cycles >= 0
        assert len(report.stage_cycles) == 4

    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(sorted(NETS)),
           algorithm=st.sampled_from(ALGORITHMS),
           grid=st.sampled_from(GRIDS_8))
    def test_never_beats_perfect_scaling(self, model, algorithm, grid):
        """No valid 3D plan beats the perfect-scaling lower bound."""
        from repro.core import build_accelerator
        from repro.training import simulate_training_step

        pp, tp = grid
        net = NETS[model]
        base = simulate_training_step(
            net, Algorithm(algorithm), build_accelerator("diva"),
            32).total_seconds
        cluster = build_cluster("diva", n_chips=8)
        report = simulate_sharded_training_step(
            net, Algorithm(algorithm), cluster, 32,
            plan=ParallelPlan(dp=8 // (pp * tp), pp=pp, tp=tp))
        assert report.total_seconds >= base / 8


    @pytest.mark.parametrize("model", ("SqueezeNet", "VGG-16", "BERT-base",
                                       "LSTM-small"))
    def test_column_sums_match_loop_reference(self, model):
        """The schedule's int64 column sums equal plain Python loops over
        the scalar op log: per-layer cost (hence the cuts), per-(phase,
        stage) GEMM cycles and the TP-gather payload."""
        from repro.core import build_accelerator
        from repro.training.batch import LoweredStep
        from repro.training.parallel import _ACT_PHASES, _apportion
        from repro.training.phases import PHASE_ORDER, Phase
        from repro.training.simulate import _simulate_chip_step

        net = NETS.get(model) or build_model(model)
        index = {layer.name: i for i, layer in enumerate(net.layers)}
        batch = 8
        for algorithm, pp, tp in itertools.product(ALGORITHMS, (2, 4),
                                                   (1, 2)):
            algorithm = Algorithm(algorithm)
            report, op_log = _simulate_chip_step(
                net, algorithm, build_accelerator("diva"), batch, True, tp)
            layer_of, previous = [], 0
            for op, _ in op_log:
                previous = index.get(op.gemm.layer, previous)
                layer_of.append(previous)
            cost = [0] * len(net.layers)
            for layer, (_, run) in zip(layer_of, op_log):
                cost[layer] += run.cycles
            bounds = partition_layers(cost, pp)
            stage_of = [sum(layer >= b for b in bounds[1:-1])
                        for layer in layer_of]
            gemm = {phase: [0] * pp for phase in report.phases}
            for s, (op, run) in zip(stage_of, op_log):
                gemm[op.phase][s] += run.cycles
            params = [sum(l.params for l in net.layers[a:b])
                      for a, b in zip(bounds, bounds[1:])]
            acts = [sum(l.out_elems for l in net.layers[a:b]
                        if not l.has_weights)
                    for a, b in zip(bounds, bounds[1:])]
            stages = [0] * pp
            for phase in PHASE_ORDER:
                if phase in report.phases:
                    vector = report.phases[phase].cycles - sum(gemm[phase])
                    shares = _apportion(
                        vector, acts if phase in _ACT_PHASES else params)
                    for s in range(pp):
                        stages[s] += gemm[phase][s] + shares[s]
            gathers = [op.gemm for op, _ in op_log if op.phase in (
                Phase.FWD, Phase.BWD_ACT_1, Phase.BWD_ACT_2)]

            sched = build_pipeline_schedule(
                net, algorithm,
                LoweredStep.from_ops(net, [op for op, _ in op_log]),
                [run.cycles for _, run in op_log],
                {p: run.cycles for p, run in report.phases.items()},
                batch, ParallelPlan(dp=1, pp=pp, tp=tp))
            where = (algorithm, pp, tp)
            assert sched.stage_bounds == bounds, where
            assert sched.stage_params == tuple(params), where
            assert sched.stage_cycles == tuple(stages), where
            if tp > 1:
                norm = (batch * 4, 1) if algorithm.is_private else (0, 0)
                assert sched.tp_payload_bytes == sum(
                    g.m * (g.n * tp) * g.count * 2 for g in gathers) \
                    + norm[0], where
                assert sched.tp_collectives == len(gathers) + norm[1], where


# -- placement planner ------------------------------------------------------

class TestPlacementPlanner:
    net = build_model("ResNet-152")

    def test_resnet152_batch_cap_pins_feasibility(self):
        """The paper's ResNet-152 DP-SGD batch cap (32) is the planner's
        pure-DP feasibility edge: 32 fits on one chip, 64 does not."""
        assert max_batch_size(self.net, Algorithm.DP_SGD) == 32
        fits = plan_placement(self.net, Algorithm.DP_SGD, 1, 32)
        assert fits.best == ParallelPlan(dp=1, pp=1, tp=1)
        over = plan_placement(self.net, Algorithm.DP_SGD, 1, 64)
        assert over.best is None
        (candidate,) = over.candidates
        assert candidate.plan == ParallelPlan(dp=1, pp=1, tp=1)
        assert "stage memory" in candidate.reason
        assert "exceeds" in candidate.reason

    def test_memory_refusal_tracks_budget(self):
        """Raising the capacity flips the same candidate to feasible."""
        tight = plan_placement(self.net, Algorithm.DP_SGD, 1, 64)
        roomy = plan_placement(self.net, Algorithm.DP_SGD, 1, 64,
                               capacity_bytes=64 * 2**30)
        assert tight.best is None
        assert roomy.best == ParallelPlan(dp=1, pp=1, tp=1)

    def test_best_prefers_fastest_then_least_invasive(self):
        result = plan_placement(self.net, Algorithm.DP_SGD, 4, 128)
        feasible = [c for c in result.candidates if c.feasible]
        assert len(feasible) > 1
        best = min(feasible, key=lambda c: (
            c.step_seconds, c.plan.pp, c.plan.tp))
        assert result.best == best.plan

    def test_batch_divisibility_refusal(self):
        result = plan_placement(NETS["SqueezeNet"], Algorithm.SGD, 4, 6)
        refused = {c.plan: c.reason for c in result.candidates
                   if not c.feasible}
        assert any("not divisible by dp=4" in reason
                   for reason in refused.values())

    def test_single_stage_breakdown_matches_whole_chip(self):
        """One stage, tp=1: the stage breakdown is the chip breakdown."""
        for model, net in NETS.items():
            for algorithm in ALGORITHMS:
                whole = memory_breakdown(net, Algorithm(algorithm), 16)
                (stage,) = stage_memory_breakdown(
                    net, Algorithm(algorithm), 16, (0, len(net.layers)), 1)
                assert stage == whole, model


# -- batched 3D grid --------------------------------------------------------

class TestBatched3D:
    @settings(max_examples=25, deadline=None)
    @given(model=st.sampled_from(sorted(NETS)),
           algorithm=st.sampled_from(ALGORITHMS),
           grid=st.sampled_from(GRIDS_8),
           topology=st.sampled_from(["ring", "all_to_all", "hierarchical"]),
           fabric=st.sampled_from([None, "uniform", "two-tier"]),
           overlap=st.booleans())
    def test_batched_matches_scalar_bitwise(
            self, model, algorithm, grid, topology, fabric, overlap):
        """The vectorized 3D sweep equals the scalar simulator, bitwise."""
        pp, tp = grid
        cpn = 2 if topology == "hierarchical" else 1
        net = NETS[model]
        cluster = build_cluster(
            "diva", n_chips=8,
            interconnect=InterconnectConfig(
                topology=topology, chips_per_node=cpn, bucket_bytes=2**20,
                fabric=fabric_named(fabric) if fabric else None))
        plan = ParallelPlan(dp=8 // (pp * tp), pp=pp, tp=tp)
        report = simulate_sharded_training_step(
            net, Algorithm(algorithm), cluster, 32,
            plan=None if plan.is_pure_dp else plan, overlap=overlap)
        result = sharded_step_batch(
            [model], [algorithm], np.array([32]), 8,
            topologies=topology, bucket_bytes=2**20, chips_per_node=cpn,
            overlaps=overlap, pps=pp, tps=tp, fabrics=fabric)
        assert float(result.total_seconds[0]) == report.total_seconds
        assert int(result.comm_cycles[0]) == report.comm.cycles
        assert int(result.comm_total_cycles[0]) == report.comm.busy_cycles
        assert int(result.link_bytes[0]) == report.comm.link_bytes
        assert int(result.bubble_cycles[0]) == report.bubble_cycles

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_schedule_from_op_log_equals_lowered_step(self, model):
        """The scalar path splits its own op log's columns; the batched
        path splits ``lowered_step``'s.  The schedules are equal."""
        from repro.core import build_accelerator
        from repro.training.batch import (
            STEP_PHASES,
            LoweredStep,
            lowered_step,
            training_step_batch,
        )
        from repro.training.simulate import _simulate_chip_step

        net = build_model(model)
        accel = build_accelerator("diva")
        batch = 12
        for algorithm, tp in itertools.product(ALGORITHMS, (1, 2)):
            algorithm = Algorithm(algorithm)
            report, op_log = _simulate_chip_step(
                net, algorithm, accel, batch, True, tp)
            step = training_step_batch([(accel, net, algorithm, batch, tp)],
                                       collect_ops=True)
            batched_phases = {
                phase: int(step.phase_cycles[0, STEP_PHASES.index(phase)])
                for phase in report.phases}
            for pp in (2, 4):
                plan = ParallelPlan(dp=1, pp=pp, tp=tp)
                scalar = build_pipeline_schedule(
                    net, algorithm,
                    LoweredStep.from_ops(net, [op for op, _ in op_log]),
                    [run.cycles for _, run in op_log],
                    {p: run.cycles for p, run in report.phases.items()},
                    batch, plan)
                batched = build_pipeline_schedule(
                    net, algorithm,
                    lowered_step(net, algorithm, accel, batch, tp),
                    step.op_cycles[0], batched_phases, batch, plan)
                assert scalar == batched, (algorithm, pp, tp)

    def test_mixed_grid_in_one_call(self):
        """Heterogeneous plans, fabrics and overlap in a single batch."""
        grids = [(1, 1), (2, 2), (8, 1), (1, 8), (4, 2)]
        models = ["SqueezeNet"] * len(grids)
        algorithms = ["DP-SGD"] * len(grids)
        result = sharded_step_batch(
            models, algorithms, np.full(len(grids), 32), 8,
            pps=np.array([g[0] for g in grids]),
            tps=np.array([g[1] for g in grids]),
            fabrics=["two-tier", None, "uniform", None, "two-tier"])
        for i, (pp, tp) in enumerate(grids):
            cluster = build_cluster(
                "diva", n_chips=8,
                interconnect=InterconnectConfig(fabric=fabric_named(
                    ["two-tier", None, "uniform", None, "two-tier"][i])
                    if i in (0, 2, 4) else None))
            plan = ParallelPlan(dp=8 // (pp * tp), pp=pp, tp=tp)
            report = simulate_sharded_training_step(
                NETS["SqueezeNet"], Algorithm.DP_SGD, cluster, 32,
                plan=None if plan.is_pure_dp else plan)
            assert float(result.total_seconds[i]) == report.total_seconds, i

    def test_bad_factorization_message(self):
        with pytest.raises(ValueError, match="do not factor into"):
            sharded_step_batch(["SqueezeNet"], ["SGD"], np.array([32]), 8,
                               pps=3)


# -- validation across layers -----------------------------------------------

class TestValidation:
    def test_build_cluster_hierarchical_divisibility(self):
        with pytest.raises(ValueError, match="do not group into"):
            build_cluster("diva", n_chips=6,
                          interconnect=InterconnectConfig(
                              topology="hierarchical", chips_per_node=4))

    def test_build_cluster_single_chip_exempt(self):
        build_cluster("diva", n_chips=1,
                      interconnect=InterconnectConfig(
                          topology="hierarchical", chips_per_node=4))

    def test_parallel_plan_validate(self):
        with pytest.raises(ValueError, match="uses 8 chips"):
            ParallelPlan(dp=2, pp=2, tp=2).validate(4)
        ParallelPlan(dp=1, pp=2, tp=2).validate(4)

    def test_fleet_config_grid_validation(self):
        from repro.serve import FleetConfig

        with pytest.raises(ValueError, match="factor into pp=3"):
            FleetConfig(chips=8, chips_per_cluster=4, pp=3)
        fleet = FleetConfig(chips=8, chips_per_cluster=4, pp=2, tp=2,
                            fabric="two-tier")
        assert fleet.dp == 1

    def test_fleet_config_unknown_fabric(self):
        from repro.serve import FleetConfig

        with pytest.raises(ValueError, match="unknown fabric"):
            FleetConfig(chips=4, chips_per_cluster=2, fabric="warp-drive")


# -- observability: per-stage pipeline tracks -------------------------------

class TestPipelineTrace:
    def _record(self):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        cluster = build_cluster("diva", n_chips=8)
        simulate_sharded_training_step(
            NETS["VGG-16"], Algorithm.DP_SGD, cluster, 32,
            plan=ParallelPlan(dp=2, pp=2, tp=2), recorder=recorder)
        return recorder

    def test_stage_tracks_and_bubble_slice(self):
        from repro.obs.trace import validate_events

        recorder = self._record()
        assert validate_events(recorder.events) == []
        pipeline = [e for e in recorder.events
                    if e.get("cat") == "pipeline"]
        stage_spans = [e for e in pipeline if e["ph"] == "X"]
        assert [e["name"] for e in stage_spans] \
            == ["stage 0 [L0:41)", "stage 1 [L41:49)"]
        bubble = [e for e in pipeline if e["ph"] in ("b", "e")]
        assert [e["name"] for e in bubble] == ["pipeline bubble"] * 2
        assert bubble[1]["ts"] > bubble[0]["ts"]

    def test_trace_bytes_deterministic(self):
        one = json.dumps(self._record().events, sort_keys=True)
        two = json.dumps(self._record().events, sort_keys=True)
        assert one == two

    def test_pure_dp_trace_has_no_pipeline_track(self):
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        cluster = build_cluster("diva", n_chips=4)
        simulate_sharded_training_step(
            NETS["SqueezeNet"], Algorithm.DP_SGD, cluster, 32,
            recorder=recorder)
        assert not [e for e in recorder.events
                    if e.get("cat") == "pipeline"]
