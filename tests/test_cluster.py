"""Tests for the multi-chip cluster model: interconnect cost formulas,
the data-parallel sharded training step, and the scaling experiment."""

import math

import pytest

from step_oracle import allreduce_payload_bytes, flat_allreduce_bytes_per_chip
from repro.arch import Cluster, Interconnect, InterconnectConfig, OpRun
from repro.arch.engine import ArrayConfig
from repro.core import build_accelerator, build_cluster
from repro.core.config import DivaConfig
from repro.experiments import scaling
from repro.training import (
    Algorithm,
    Phase,
    simulate_sharded_training_step,
    simulate_training_step,
)
from repro.training.simulate import GRAD_BYTES
from repro.workloads import build_model


class TestInterconnect:
    def test_ring_allreduce_seconds_closed_form(self):
        cfg = InterconnectConfig(topology="ring",
                                 link_bandwidth_bytes_per_s=100e9,
                                 link_latency_s=1e-6)
        payload, n = 10**8, 4
        expected = 2 * (n - 1) * (payload / (n * 100e9) + 1e-6)
        assert Interconnect(cfg).allreduce_seconds(payload, n) \
            == pytest.approx(expected)

    def test_all_to_all_allreduce_seconds_closed_form(self):
        cfg = InterconnectConfig(topology="all_to_all",
                                 link_bandwidth_bytes_per_s=100e9,
                                 link_latency_s=1e-6)
        payload, n = 10**8, 4
        expected = 2 * (payload / (n * 100e9) + 1e-6)
        assert Interconnect(cfg).allreduce_seconds(payload, n) \
            == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_allreduce_bytes_round_shard_first(self, n):
        # The schedule moves 2*(N-1) transfers of a ceil(payload/N)-byte
        # shard; rounding the product instead could undercount them.
        payload = 4 * 10**6
        for topology in ("ring", "all_to_all"):
            fabric = Interconnect(InterconnectConfig(topology=topology))
            assert fabric.link_bytes_per_chip(payload, n) \
                == flat_allreduce_bytes_per_chip(payload, n) \
                == 2 * (n - 1) * math.ceil(payload / n)
        assert flat_allreduce_bytes_per_chip(payload, n) \
            >= math.ceil(2 * (n - 1) * payload / n)

    def test_single_chip_collectives_are_free(self):
        fabric = Interconnect()
        assert fabric.allreduce_seconds(10**9, 1) == 0.0
        assert fabric.link_bytes_per_chip(10**9, 1) == 0

    def test_all_to_all_beats_ring_on_latency(self):
        # Same wire bytes, fewer latency hops: a latency-bound payload
        # finishes faster on the fully connected fabric.
        ring = Interconnect(InterconnectConfig(topology="ring"))
        a2a = Interconnect(InterconnectConfig(topology="all_to_all"))
        assert a2a.allreduce_seconds(4096, 8) < ring.allreduce_seconds(4096, 8)

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="topology"):
            InterconnectConfig(topology="torus")


class TestCluster:
    def test_needs_at_least_one_chip(self):
        with pytest.raises(ValueError, match="at least one chip"):
            Cluster([])

    def test_rejects_mixed_frequencies(self):
        fast = build_accelerator(
            "diva", config=DivaConfig(array=ArrayConfig(frequency_hz=1e9)))
        slow = build_accelerator(
            "diva", config=DivaConfig(array=ArrayConfig(frequency_hz=5e8)))
        with pytest.raises(ValueError, match="frequency"):
            Cluster([fast, slow])

    def test_factory_validates_chip_count(self):
        with pytest.raises(ValueError, match="n_chips"):
            build_cluster("diva", n_chips=0)


class TestShardedStep:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_single_chip_cluster_matches_bare_accelerator(self, algorithm):
        network = build_model("SqueezeNet")
        bare = simulate_training_step(
            network, algorithm, build_accelerator("diva"), 32)
        clustered = simulate_sharded_training_step(
            network, algorithm, build_cluster("diva", n_chips=1), 32)
        assert clustered.comm == OpRun.zero()
        assert clustered.shard.phases == bare.phases
        assert clustered.total_cycles == bare.total_cycles
        assert clustered.total_seconds == bare.total_seconds

    def test_simulate_training_step_dispatches_on_cluster(self):
        network = build_model("SqueezeNet")
        cluster = build_cluster("diva", n_chips=4)
        via_dispatch = simulate_training_step(
            network, Algorithm.DP_SGD, cluster, 64)
        direct = simulate_sharded_training_step(
            network, Algorithm.DP_SGD, cluster, 64)
        assert via_dispatch.phases == direct.phases
        assert via_dispatch.n_chips == 4
        assert via_dispatch.local_batch == 16

    def test_rejects_indivisible_global_batch(self):
        network = build_model("SqueezeNet")
        cluster = build_cluster("diva", n_chips=3)
        with pytest.raises(ValueError, match="divide"):
            simulate_sharded_training_step(
                network, Algorithm.DP_SGD, cluster, 32)
        with pytest.raises(ValueError, match="positive"):
            simulate_sharded_training_step(
                network, Algorithm.DP_SGD, cluster, 0)

    def test_allreduce_payloads(self):
        network = build_model("SqueezeNet")
        grad = network.params * GRAD_BYTES
        assert allreduce_payload_bytes(network, Algorithm.SGD, 64) == [grad]
        assert allreduce_payload_bytes(network, Algorithm.DP_SGD, 64) \
            == [grad, 64 * GRAD_BYTES]
        assert allreduce_payload_bytes(network, Algorithm.DP_SGD_R, 64) \
            == [grad, 64 * GRAD_BYTES]

    def test_comm_phase_only_on_multi_chip(self):
        network = build_model("SqueezeNet")
        r1 = simulate_sharded_training_step(
            network, Algorithm.DP_SGD, build_cluster("diva", 1), 64)
        r4 = simulate_sharded_training_step(
            network, Algorithm.DP_SGD, build_cluster("diva", 4), 64)
        assert r1.phase_cycles(Phase.COMM) == 0
        assert r4.phase_cycles(Phase.COMM) > 0
        assert r4.comm_fraction > 0
        assert str(Phase.COMM) in r4.breakdown()

    def test_cluster_wide_traffic_aggregates(self):
        network = build_model("SqueezeNet")
        report = simulate_sharded_training_step(
            network, Algorithm.DP_SGD, build_cluster("diva", 4), 64)
        assert report.cluster_dram_bytes \
            == report.shard.total.dram_bytes * 4
        assert report.cluster_link_bytes == report.comm.link_bytes * 4

    @pytest.mark.parametrize("algorithm",
                             [Algorithm.DP_SGD, Algorithm.DP_SGD_R])
    def test_strong_scaling_efficiency_monotonically_non_increasing(
            self, algorithm):
        network = build_model("SqueezeNet")
        batch = 64
        base = simulate_sharded_training_step(
            network, algorithm, build_cluster("diva", 1), batch)
        efficiencies = []
        for n in (1, 2, 4, 8):
            report = simulate_sharded_training_step(
                network, algorithm, build_cluster("diva", n), batch)
            efficiencies.append(
                base.total_seconds / (n * report.total_seconds))
        for previous, current in zip(efficiencies, efficiencies[1:]):
            assert current <= previous + 1e-9


class TestScalingExperiment:
    def test_run_annotate_and_render(self):
        rows = scaling.run(models=("SqueezeNet",), chips=(1, 2),
                           algorithms=("DP-SGD",), jobs=1)
        assert len(rows) == 2
        annotated = scaling.annotate(rows)
        baseline = next(r for r in annotated if r["chips"] == 1)
        assert baseline["speedup"] == pytest.approx(1.0)
        assert baseline["efficiency"] == pytest.approx(1.0)
        scaled = next(r for r in annotated if r["chips"] == 2)
        assert 1.0 < scaled["speedup"] <= 2.0
        text = scaling.render(rows)
        assert "Speedup" in text and "Comm" in text

    def test_weak_scaling_grows_global_batch(self):
        rows = scaling.run(models=("SqueezeNet",), chips=(1, 2),
                           algorithms=("DP-SGD",), mode="weak",
                           batch=32, jobs=1)
        by_chips = {row["chips"]: row for row in rows}
        assert by_chips[1]["global_batch"] == 32
        assert by_chips[2]["global_batch"] == 64
        assert by_chips[1]["local_batch"] == by_chips[2]["local_batch"] == 32

    def test_default_global_batch_divisible_by_all_chip_counts(self):
        batch, _ = scaling.default_global_batch_info(
            "BERT-large", (1, 2, 4, 8))
        assert batch >= 8
        for n in (1, 2, 4, 8):
            assert batch % n == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            scaling.run(mode="diagonal")

    def test_validates_inputs_before_fanning_out(self):
        with pytest.raises(ValueError, match=">= 1"):
            scaling.run(chips=(0, 2))
        with pytest.raises(ValueError, match="at least one"):
            scaling.run(chips=())
        with pytest.raises(ValueError, match="batch"):
            scaling.run(chips=(1, 2), batch=0)
        with pytest.raises(ValueError, match="divide"):
            scaling.run(models=("SqueezeNet",), chips=(1, 8), batch=100)
        # Weak scaling shards per chip, so any positive batch is fine.
        rows = scaling.run(models=("SqueezeNet",), chips=(1, 8),
                           algorithms=("SGD",), mode="weak", batch=100,
                           jobs=1)
        assert [row["global_batch"] for row in rows] == [100, 800]

    def test_results_persist_in_json_cache(self, tmp_path, cache_table):
        from repro.experiments.runner import ResultCache
        cache = ResultCache(tmp_path)
        rows = scaling.run(models=("SqueezeNet",), chips=(1, 2),
                           algorithms=("DP-SGD",), jobs=1, cache=cache)
        assert len(cache_table(tmp_path).keys()) == 2
        again = scaling.run(models=("SqueezeNet",), chips=(1, 2),
                            algorithms=("DP-SGD",), jobs=1, cache=cache)
        assert again == rows
