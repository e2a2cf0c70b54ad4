"""The batched placement pricer vs the per-candidate oracle.

``plan_placement`` prices every DP x PP x TP factorization through one
``price_plans`` call, and ``FaultRun._degraded_step_s`` prices exactly
the degraded plans it reads the same way.  Both must equal the
per-candidate search of ``tests/placement_oracle.py``: every
candidate's plan, feasibility, reason, step seconds and peak stage
bytes, the budget, and each degraded lookup's step seconds (or
``None``), including the hierarchical node-grouping refusal.
"""

import itertools
from dataclasses import astuple

import pytest

import placement_oracle
from repro.arch.cluster import ParallelPlan
from repro.serve import (
    FaultConfig,
    FaultModel,
    FaultRun,
    FleetConfig,
    TenantBudget,
)
from repro.training import Algorithm
from repro.training.plan import plan_placement
from repro.workloads import build_model

from admission_oracle import ScalarAdmission

MODELS = ("ResNet-50", "ResNet-152", "BERT-base", "SqueezeNet", "LSTM-small")
NETS = {model: build_model(model) for model in MODELS}
#: Chip counts and their global batches: 8 and 16 chips have ``dp``
#: factors the batch does not divide, 6 chips a ``dp=3`` that does
#: not group into hierarchical nodes of 2.
BATCHES = {1: 64, 4: 64, 6: 48, 8: 36, 16: 24}
#: A 1 GiB HBM budget: it refuses the larger ResNet-152 and BERT-base
#: replicas.
TIGHT = 2**30


def _placement_cases():
    """Every model x algorithm, each on its own chip count, fabric,
    topology, bucket, overlap and budget: every value of each knob
    appears, and the chip counts rotate against the models."""
    cases = []
    chips = tuple(BATCHES)
    for i, (model, algorithm) in enumerate(
            itertools.product(MODELS, Algorithm)):
        n_chips = chips[(i + i // len(chips)) % len(chips)]
        hierarchical = i % 4 in (1, 2)
        cases.append(dict(
            model=model, algorithm=algorithm, n_chips=n_chips,
            global_batch=BATCHES[n_chips],
            topology="hierarchical" if hierarchical else "ring",
            chips_per_node=2 if hierarchical else 1,
            fabric="two-tier" if i % 3 == 1 else None,
            bucket_bytes=2**20 if i % 2 else None,
            overlap=i % 5 != 2,
            capacity_bytes=TIGHT if i % 3 == 2 else None))
    return cases


def _case_id(case):
    return "-".join(str(case[key]) for key in (
        "model", "algorithm", "n_chips", "topology", "fabric",
        "bucket_bytes", "overlap", "capacity_bytes"))


def _place(planner, case):
    kwargs = dict(case)
    model = kwargs.pop("model")
    if kwargs["capacity_bytes"] is None:
        del kwargs["capacity_bytes"]
    return planner(NETS[model], kwargs.pop("algorithm"),
                   kwargs.pop("n_chips"), kwargs.pop("global_batch"),
                   **kwargs)


def _assert_same_placement(got, want):
    assert got.budget_bytes == want.budget_bytes
    assert len(got.candidates) == len(want.candidates)
    for cand, ref in zip(got.candidates, want.candidates):
        assert astuple(cand) == astuple(ref), ref.plan
    assert got == want


class TestPlacementMatchesOracle:
    @pytest.mark.parametrize("case", _placement_cases(), ids=_case_id)
    def test_every_candidate_field(self, case):
        _assert_same_placement(_place(plan_placement, case),
                               _place(placement_oracle.plan_placement, case))

    def test_memory_refusal_reads_the_local_batch(self):
        """ResNet-152 DP-SGD at 128 examples fits as four 32-example
        replicas; the whole batch on one replica would not."""
        case = dict(model="ResNet-152", algorithm=Algorithm.DP_SGD,
                    n_chips=4, global_batch=128, topology="ring",
                    chips_per_node=1, fabric=None, bucket_bytes=None,
                    overlap=True, capacity_bytes=None)
        got = _place(plan_placement, case)
        _assert_same_placement(got, _place(placement_oracle.plan_placement,
                                           case))
        pure_dp = got.candidates[0]
        assert pure_dp.plan == ParallelPlan(dp=4) and pure_dp.feasible

    def test_ungrouped_hierarchical_chip_count_raises_the_same(self):
        case = dict(model="SqueezeNet", algorithm=Algorithm.SGD, n_chips=6,
                    global_batch=48, topology="hierarchical",
                    chips_per_node=4, fabric=None, bucket_bytes=None,
                    overlap=True, capacity_bytes=None)
        with pytest.raises(ValueError) as want:
            _place(placement_oracle.plan_placement, case)
        with pytest.raises(ValueError) as got:
            _place(plan_placement, case)
        assert str(got.value) == str(want.value)
        assert "do not group into hierarchical nodes of 4" in str(got.value)


#: Fleets whose clusters carry pp x tp > 1, a fabric, a bucket, and a
#: hierarchical grid whose degraded chip counts do not all group into
#: nodes: 12 chips as pp=3 x dp=4 over 2-chip nodes, where dp'=3 makes
#: 9 chips and dp'=1 makes 3.
FLEETS = {
    "dp4": FleetConfig(chips=16, chips_per_cluster=4),
    "pp2-tp2": FleetConfig(chips=16, chips_per_cluster=8, pp=2, tp=2),
    "pp2-two-tier": FleetConfig(chips=8, chips_per_cluster=8, pp=2,
                                fabric="two-tier", bucket_bytes=2**20),
    "hier-pp3": FleetConfig(chips=12, chips_per_cluster=12, pp=3,
                            topology="hierarchical", chips_per_node=2),
}

#: (model, algorithm, batch) lookups: batches that dp'=3 does not
#: divide, one of them a ResNet-152 DP-SGD batch whose replicas fit in
#: memory only at dp' >= 3.
LOOKUPS = (("SqueezeNet", "DP-SGD", 32), ("BERT-base", "SGD", 30),
           ("ResNet-152", "DP-SGD", 128))


class TestDegradedMatchesOracle:
    @pytest.mark.parametrize("fleet", FLEETS.values(), ids=FLEETS.keys())
    def test_every_lookup(self, fleet):
        frun = FaultRun(FaultModel(FaultConfig()), fleet,
                        ScalarAdmission(TenantBudget(epsilon=3.0)))
        for (model, algorithm, batch), lost in itertools.product(
                LOOKUPS, range(1, fleet.dp + 1)):
            want = placement_oracle.degraded_step_s(
                fleet, model, algorithm, batch, lost)
            assert frun._degraded_step_s(model, algorithm, batch, lost) \
                == want, (model, algorithm, batch, lost)

    def test_node_grouping_refusal(self):
        """Three lost replicas of the pp=3 grid leave dp'=1 on 3 chips,
        which do not group into 2-chip nodes: no degraded plan."""
        fleet = FLEETS["hier-pp3"]
        frun = FaultRun(FaultModel(FaultConfig()), fleet,
                        ScalarAdmission(TenantBudget(epsilon=3.0)))
        assert placement_oracle.degraded_step_s(
            fleet, "SqueezeNet", "SGD", 32, 3) is None
        assert frun._degraded_step_s("SqueezeNet", "SGD", 32, 3) is None
        assert frun._degraded_step_s("SqueezeNet", "SGD", 32, 2) is not None

    def test_memory_refusal_skips_to_no_plan(self):
        """ResNet-152 DP-SGD at 128 examples: three replicas of 43 fit,
        two of 64 do not, so losing two replicas leaves nothing."""
        fleet = FLEETS["dp4"]
        frun = FaultRun(FaultModel(FaultConfig()), fleet,
                        ScalarAdmission(TenantBudget(epsilon=3.0)))
        assert frun._degraded_step_s("ResNet-152", "DP-SGD", 128, 1) \
            is not None
        assert frun._degraded_step_s("ResNet-152", "DP-SGD", 128, 2) is None
