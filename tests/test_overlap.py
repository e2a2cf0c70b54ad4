"""Tests for the overlap-aware communication subsystem: bucketed
allreduces, the hierarchical topology, exposed-vs-total accounting,
and the cluster cycle-rounding bugfixes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from step_oracle import allreduce_payload_bytes, overlappable_backward_cycles
from repro.arch import Interconnect, InterconnectConfig, OpRun
from repro.arch.interconnect import TOPOLOGIES
from repro.core import build_accelerator, build_cluster
from repro.experiments import scaling
from repro.training import (
    Algorithm,
    Phase,
    simulate_sharded_training_step,
    simulate_training_step,
)
from repro.workloads import build_model

NETWORK = build_model("SqueezeNet")


def fabric(**kwargs) -> Interconnect:
    return Interconnect(InterconnectConfig(**kwargs))


class TestHierarchicalTopology:
    def test_registered(self):
        assert "hierarchical" in TOPOLOGIES

    def test_closed_form(self):
        bw, lat = 100e9, 1e-6
        ic = fabric(topology="hierarchical", chips_per_node=4,
                    link_bandwidth_bytes_per_s=bw, link_latency_s=lat)
        payload, n = 10**8, 8
        m, k = 4, 2
        expected = (2 * (payload / (m * bw) + lat)
                    + 2 * (k - 1) * (payload / (m * k * bw) + lat))
        assert ic.allreduce_seconds(payload, n) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_degenerates_to_ring_at_one_chip_per_node(self, n):
        hier = fabric(topology="hierarchical", chips_per_node=1)
        ring = fabric(topology="ring")
        payload = 7 * 10**6 + 13
        assert hier.allreduce_seconds(payload, n) \
            == ring.allreduce_seconds(payload, n)
        assert hier.link_bytes_per_chip(payload, n) \
            == ring.link_bytes_per_chip(payload, n)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_degenerates_to_all_to_all_at_full_node(self, n):
        hier = fabric(topology="hierarchical", chips_per_node=n)
        a2a = fabric(topology="all_to_all")
        payload = 7 * 10**6 + 13
        assert hier.allreduce_seconds(payload, n) \
            == a2a.allreduce_seconds(payload, n)
        assert hier.link_bytes_per_chip(payload, n) \
            == a2a.link_bytes_per_chip(payload, n)

    def test_between_flat_topologies_on_latency_hops(self):
        # 2 + 2(K-1) latency hops sit between all_to_all's 2 and the
        # flat ring's 2(N-1) — fewer ring steps over fatter shards.
        payload, n = 4096, 16
        ring = fabric(topology="ring").allreduce_seconds(payload, n)
        a2a = fabric(topology="all_to_all").allreduce_seconds(payload, n)
        hier = fabric(topology="hierarchical",
                      chips_per_node=4).allreduce_seconds(payload, n)
        assert a2a < hier < ring

    def test_rejects_indivisible_node_shape(self):
        ic = fabric(topology="hierarchical", chips_per_node=3)
        with pytest.raises(ValueError, match="hierarchical nodes"):
            ic.allreduce_seconds(8 * 10**6, 8)

    def test_chips_per_node_requires_hierarchical(self):
        with pytest.raises(ValueError, match="chips_per_node"):
            InterconnectConfig(topology="ring", chips_per_node=2)

    def test_single_chip_free(self):
        ic = fabric(topology="hierarchical", chips_per_node=1)
        assert ic.allreduce_seconds(10**9, 1) == 0.0
        assert ic.link_bytes_per_chip(10**9, 1) == 0


class TestBucketing:
    def test_bucket_sizes_split_with_remainder(self):
        ic = fabric(bucket_bytes=1000)
        assert ic.bucket_sizes(2500) == [1000, 1000, 500]
        assert ic.bucket_sizes(2000) == [1000, 1000]
        assert ic.bucket_sizes(0) == []
        assert ic.n_buckets(2500) == 3

    def test_monolithic_when_bucket_covers_payload(self):
        for cfg in (dict(bucket_bytes=None), dict(bucket_bytes=10**9)):
            ic = fabric(**cfg)
            assert ic.bucket_sizes(10**6) == [10**6]

    @pytest.mark.parametrize("topology,cpn",
                             [("ring", 1), ("all_to_all", 1),
                              ("hierarchical", 2)])
    def test_bucketed_time_converges_to_unbucketed(self, topology, cpn):
        payload, n = 10**7, 4
        base = fabric(topology=topology, chips_per_node=cpn)
        exact = base.allreduce_seconds(payload, n)
        # At bucket_bytes == payload the schedules are identical.
        whole = fabric(topology=topology, chips_per_node=cpn,
                       bucket_bytes=payload)
        assert whole.allreduce_seconds(payload, n) == exact
        # Total wire time decreases monotonically toward it as the
        # buckets coarsen (fewer repeated latency hops).
        previous = None
        for bucket in (payload // 64, payload // 8, payload // 2, payload):
            total = fabric(topology=topology, chips_per_node=cpn,
                           bucket_bytes=bucket
                           ).allreduce_seconds(payload, n)
            assert total >= exact
            if previous is not None:
                assert total <= previous + 1e-12
            previous = total

    def test_first_bucket_latency(self):
        ic = fabric(bucket_bytes=1000)
        assert ic.first_bucket_seconds(2500, 4) \
            == fabric().allreduce_seconds(1000, 4)
        assert fabric().first_bucket_seconds(2500, 4) \
            == fabric().allreduce_seconds(2500, 4)

    def test_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError, match="bucket_bytes"):
            InterconnectConfig(bucket_bytes=0)


class TestLinkBytes:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_static_lower_bound_rounds_shard_first(self, n):
        payload = 10**6 + 1
        assert Interconnect.allreduce_bytes_per_chip(payload, n) \
            == 2 * (n - 1) * math.ceil(payload / n)

    @settings(max_examples=50, deadline=None)
    @given(payload=st.integers(1, 10**8),
           n=st.sampled_from([2, 3, 4, 6, 8, 12, 16]),
           bucket=st.one_of(st.none(), st.integers(1, 10**7)),
           shape=st.sampled_from([("ring", 1), ("all_to_all", 1),
                                  ("hierarchical", 2),
                                  ("hierarchical", 4)]))
    def test_scheduled_bytes_never_undercount(self, payload, n, bucket,
                                              shape):
        topology, cpn = shape
        if n % cpn:
            n *= cpn
        ic = fabric(topology=topology, chips_per_node=cpn,
                    bucket_bytes=bucket)
        scheduled = ic.link_bytes_per_chip(payload, n)
        # Scheduled transfers can only round *up* from the
        # bandwidth-optimal lower bound, never below it.
        assert scheduled >= 2 * (n - 1) * payload / n


class TestCycleAccounting:
    """Satellite bugfix: fractional seconds accumulate across the
    collectives of a step and quantize to cycles once."""

    def test_comm_cycles_pinned_to_float_sum(self):
        # lat=1.01us makes the two DP-SGD collectives' fractional
        # cycles sum below 1: per-collective ceiling (the old model)
        # overcharges by exactly one cycle here.
        cluster = build_cluster(
            "diva", 4,
            interconnect=InterconnectConfig(link_latency_s=1.01e-6))
        payloads = allreduce_payload_bytes(NETWORK, Algorithm.DP_SGD, 64)
        assert len(payloads) == 2
        seconds = [cluster.interconnect.allreduce_seconds(p, 4)
                   for p in payloads]
        report = simulate_sharded_training_step(
            NETWORK, Algorithm.DP_SGD, cluster, 64, overlap=False)
        assert report.comm.cycles \
            == math.ceil(sum(seconds) * cluster.frequency_hz)
        per_collective = sum(math.ceil(s * cluster.frequency_hz)
                             for s in seconds)
        assert report.comm.cycles == per_collective - 1

    def test_bucketed_step_does_not_pay_per_bucket_rounding(self):
        cluster = build_cluster(
            "diva", 4,
            interconnect=InterconnectConfig(bucket_bytes=100_000))
        payloads = allreduce_payload_bytes(NETWORK, Algorithm.DP_SGD, 64)
        float_sum = sum(cluster.interconnect.allreduce_seconds(p, 4)
                        for p in payloads)
        report = simulate_sharded_training_step(
            NETWORK, Algorithm.DP_SGD, cluster, 64, overlap=False)
        assert report.comm.cycles \
            == math.ceil(float_sum * cluster.frequency_hz)


class TestOverlapModel:
    def test_single_chip_bitwise_identical(self):
        bare = simulate_training_step(
            NETWORK, Algorithm.DP_SGD, build_accelerator("diva"), 32)
        for overlap in (False, True):
            clustered = simulate_sharded_training_step(
                NETWORK, Algorithm.DP_SGD,
                build_cluster("diva", n_chips=1), 32, overlap=overlap)
            assert clustered.comm == OpRun.zero()
            assert clustered.shard.phases == bare.phases
            assert clustered.total_cycles == bare.total_cycles

    def test_monolithic_bucket_cannot_overlap(self):
        # Without bucketing the payload only exists once backward has
        # finished, so overlap on/off must be cycle-identical.
        cluster = build_cluster("diva", 4)
        on = simulate_sharded_training_step(
            NETWORK, Algorithm.DP_SGD, cluster, 64, overlap=True)
        off = simulate_sharded_training_step(
            NETWORK, Algorithm.DP_SGD, cluster, 64, overlap=False)
        assert on.phases == off.phases
        assert on.total_cycles == off.total_cycles
        assert on.comm.hidden_cycles == 0

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_overlap_hides_but_never_lengthens(self, algorithm):
        cluster = build_cluster(
            "diva", 4,
            interconnect=InterconnectConfig(bucket_bytes=64 * 1024))
        on = simulate_sharded_training_step(
            NETWORK, algorithm, cluster, 64, overlap=True)
        off = simulate_sharded_training_step(
            NETWORK, algorithm, cluster, 64, overlap=False)
        assert on.total_cycles <= off.total_cycles
        assert on.comm.cycles <= off.comm.cycles
        # Total wire time (exposed + hidden) is schedule-invariant.
        assert on.comm.busy_cycles == off.comm.busy_cycles
        assert on.comm.link_bytes == off.comm.link_bytes
        assert on.overlap and not off.overlap

    def test_exposed_floor_is_first_bucket(self):
        # Tiny buckets, a fat zero-latency fabric, and a clip phase
        # that dwarfs the wire time: everything hides except one
        # bucket's allreduce (plus the serial norm collective) — the
        # model must bottom out at the first-bucket floor, not at zero.
        cluster = build_cluster(
            "diva", 4,
            interconnect=InterconnectConfig(
                bucket_bytes=16 * 1024,
                link_bandwidth_bytes_per_s=1e12,
                link_latency_s=0.0))
        report = simulate_sharded_training_step(
            NETWORK, Algorithm.DP_SGD, cluster, 64, overlap=True)
        payloads = allreduce_payload_bytes(NETWORK, Algorithm.DP_SGD, 64)
        first_s = cluster.interconnect.first_bucket_seconds(payloads[0], 4)
        window = overlappable_backward_cycles(report.shard)
        comm_total_s = sum(cluster.interconnect.allreduce_seconds(p, 4)
                           for p in payloads)
        assert window / cluster.frequency_hz > comm_total_s
        norm_s = cluster.interconnect.allreduce_seconds(payloads[1], 4)
        expected = math.ceil((first_s + norm_s) * cluster.frequency_hz)
        assert report.comm.cycles == expected
        assert report.comm.hidden_cycles > 0

    def test_overlappable_phase_per_algorithm(self):
        shard_dp = simulate_training_step(
            NETWORK, Algorithm.DP_SGD, build_accelerator("diva"), 16)
        assert overlappable_backward_cycles(shard_dp) \
            == shard_dp.phase_cycles(Phase.BWD_GRAD_CLIP)
        for algorithm in (Algorithm.SGD, Algorithm.DP_SGD_R):
            shard = simulate_training_step(
                NETWORK, algorithm, build_accelerator("diva"), 16)
            assert overlappable_backward_cycles(shard) \
                == shard.phase_cycles(Phase.BWD_BATCH_GRAD)

    def test_report_exposed_total_split(self):
        cluster = build_cluster(
            "diva", 8,
            interconnect=InterconnectConfig(bucket_bytes=32 * 1024))
        report = simulate_sharded_training_step(
            NETWORK, Algorithm.DP_SGD, cluster, 64, overlap=True)
        assert report.comm_exposed_seconds == report.comm_seconds
        assert report.comm_total_seconds == pytest.approx(
            report.comm_exposed_seconds + report.comm_hidden_seconds)
        assert report.comm_total_seconds >= report.comm_exposed_seconds

    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([2, 4, 8]),
           bucket_kb=st.integers(1, 4096),
           shape=st.sampled_from([("ring", 1), ("all_to_all", 1),
                                  ("hierarchical", 2)]),
           algorithm=st.sampled_from(list(Algorithm)),
           latency_us=st.floats(0.0, 20.0))
    def test_property_overlap_never_longer_than_serial(
            self, n, bucket_kb, shape, algorithm, latency_us):
        topology, cpn = shape
        cfg = InterconnectConfig(
            topology=topology, chips_per_node=cpn,
            bucket_bytes=bucket_kb * 1024,
            link_latency_s=latency_us * 1e-6)
        cluster = build_cluster("diva", n, interconnect=cfg)
        on = simulate_sharded_training_step(
            NETWORK, algorithm, cluster, 64, overlap=True)
        off = simulate_sharded_training_step(
            NETWORK, algorithm, cluster, 64, overlap=False)
        assert on.comm.cycles <= off.comm.cycles
        assert on.total_cycles <= off.total_cycles
        assert on.comm.busy_cycles == off.comm.busy_cycles
        assert on.comm.cycles + on.comm.hidden_cycles == off.comm.cycles


class TestScalingExperimentKnobs:
    def test_hierarchical_sweep_runs(self):
        rows = scaling.run(models=("SqueezeNet",), chips=(2, 4),
                           algorithms=("DP-SGD",),
                           topology="hierarchical", chips_per_node=2,
                           bucket_bytes=256 * 1024, jobs=1)
        assert all(row["topology"] == "hierarchical" for row in rows)
        assert all(row["chips_per_node"] == 2 for row in rows)
        assert all(row["comm_ms"] <= row["comm_total_ms"] + 1e-9
                   for row in rows)

    def test_overlap_exposed_leq_serial_per_point(self):
        common = dict(models=("SqueezeNet",), chips=(2, 4, 8),
                      algorithms=("DP-SGD",),
                      bucket_bytes=128 * 1024, jobs=1)
        on = scaling.run(overlap=True, **common)
        off = scaling.run(overlap=False, **common)
        for row_on, row_off in zip(on, off):
            assert row_on["chips"] == row_off["chips"]
            assert row_on["comm_ms"] <= row_off["comm_ms"] + 1e-9
            assert row_on["step_ms"] <= row_off["step_ms"] + 1e-9

    def test_validates_new_knobs(self):
        with pytest.raises(ValueError, match="topology"):
            scaling.run(topology="torus")
        with pytest.raises(ValueError, match="hierarchical nodes"):
            scaling.run(chips=(2, 3), topology="hierarchical",
                        chips_per_node=2)
        with pytest.raises(ValueError, match="chips_per_node"):
            scaling.run(topology="ring", chips_per_node=2)
        with pytest.raises(ValueError, match="bucket_bytes"):
            scaling.run(bucket_bytes=0)

    def test_cache_key_distinguishes_new_dimensions(self, tmp_path,
                                                    cache_table):
        from repro.experiments.runner import ResultCache
        cache = ResultCache(tmp_path)
        common = dict(models=("SqueezeNet",), chips=(2,),
                      algorithms=("DP-SGD",), jobs=1, cache=cache)
        scaling.run(overlap=True, bucket_bytes=64 * 1024, **common)
        scaling.run(overlap=False, bucket_bytes=64 * 1024, **common)
        scaling.run(overlap=True, **common)
        assert len(cache_table(tmp_path).keys()) == 3


class TestBatchClampFlag:
    def test_info_reports_clamp(self):
        # lcm(3, 4096) far exceeds any single-chip batch: the default
        # must clamp up to the LCM and say so.
        batch, clamped = scaling.default_global_batch_info(
            "SqueezeNet", (3, 4096))
        assert clamped
        assert batch == math.lcm(3, 4096)
        assert scaling.default_global_batch("SqueezeNet", (3, 4096)) \
            == batch

    def test_info_no_clamp_for_feasible_sweeps(self):
        batch, clamped = scaling.default_global_batch_info(
            "SqueezeNet", (1, 2, 4, 8))
        assert not clamped
        assert batch % 8 == 0

    def test_flag_flows_into_rows_and_render(self):
        row = scaling.evaluate_point(
            "SqueezeNet", 2, "DP-SGD", "strong", "ring", 64,
            batch_clamped=True)
        assert row["batch_clamped"] is True
        text = scaling.render([row])
        assert "64*" in text
        assert "clamped" in text

    def test_unclamped_rows_render_without_footnote(self):
        row = scaling.evaluate_point(
            "SqueezeNet", 2, "DP-SGD", "strong", "ring", 64)
        assert row["batch_clamped"] is False
        text = scaling.render([row])
        assert "clamped" not in text


class TestServePicksUpOverlapModel:
    def test_fleet_config_validates_new_knobs(self):
        from repro.serve import FleetConfig
        with pytest.raises(ValueError, match="hierarchical nodes"):
            FleetConfig(chips=6, chips_per_cluster=3,
                        topology="hierarchical", chips_per_node=2)
        with pytest.raises(ValueError, match="chips_per_node"):
            FleetConfig(topology="ring", chips_per_node=2)
        with pytest.raises(ValueError, match="bucket_bytes"):
            FleetConfig(bucket_bytes=0)

    def test_service_time_reflects_overlap(self):
        from repro.serve import FleetConfig, predict_step_seconds_batch

        base = dict(chips=4, chips_per_cluster=4,
                    bucket_bytes=128 * 1024)
        fast, slow = (predict_step_seconds_batch(
            FleetConfig(overlap=overlap, **base), ["SqueezeNet"],
            ["DP-SGD"], [64])[0] for overlap in (True, False))
        assert fast <= slow
