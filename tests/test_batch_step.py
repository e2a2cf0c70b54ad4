"""Batched training/sharded-step evaluation vs the per-op oracle.

``simulate_training_step`` is one spec of ``training_step_batch``; both
must equal the per-op Python step of ``tests/step_oracle.py`` in every
``OpRun`` field of every phase, and ``run_gemm`` / ``run_vector`` (the
length-1 adapters of the column charges) the oracle's per-op bodies.
``sharded_step_batch`` must be bitwise identical to
``simulate_sharded_training_step`` on every grid point — cycles,
seconds, link bytes, everything the ``scaling`` and ``design-space``
experiments and the serving service-time table consume.
"""

import functools
import itertools
import math
import random
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import step_oracle
from repro.arch.accelerator import Accelerator, OpRun
from repro.arch.cluster import Cluster, ParallelPlan
from repro.arch.engine import ArrayConfig
from repro.arch.interconnect import InterconnectConfig, fabric_named
from repro.arch.memory import MemoryConfig
from repro.arch.vector import VectorUnitConfig
from repro.core import ACCELERATOR_KINDS, build_accelerator, build_cluster
from repro.core.config import DivaConfig
from repro.core.packing import PackedOuterProductEngine
from repro.core.ppu import PostProcessingUnit, PpuConfig
from repro.training import (
    Algorithm,
    Phase,
    sharded_step_batch,
    step_vector_runs,
    simulate_sharded_training_step,
    simulate_training_step,
    training_step_batch,
)
from repro.training import batch as batch_mod
from repro.training.batch import (
    _PHASE_INDEX,
    STEP_PHASES,
    LoweredStep,
    clear_lowered_step_cache,
)
from repro.training.simulate import step_gemm_ops, step_vector_kernels
from repro.workloads import build_model
from repro.workloads.gemms import Gemm, GemmKind
from repro.workloads.model import Network
from repro.workloads.zoo import MODEL_NAMES

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
            report, _ = step_oracle.chip_step(network, algorithm, accel,
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


def _lowered_step(network, algorithm, accel, batch, tp=1):
    """One spec's GEMM op columns as ``training_step_batch`` collects
    them (``StepOps.step``)."""
    return training_step_batch([(accel, network, algorithm, batch, tp)],
                               collect_ops=True).ops[0].step


def _gemm_columns(network, algorithm, accel, batch, tp):
    """One spec's GEMM op columns, unpriced: the pricer's expansion of
    the schedule over its memoized per-kind lowerings."""
    ops = batch_mod._gemm_columns(batch_mod._group_specs(
        [(accel, network, algorithm, batch, tp)]))
    return LoweredStep(network, *(getattr(ops, name) for name in _COLUMNS))


@pytest.fixture
def lowerings(monkeypatch):
    """Record the ``(network id, kind, batch)`` of every
    ``Network.gemms`` call the per-kind lowering makes (the fresh
    ``step_gemm_ops`` oracles are not recorded)."""
    calls, lowering = [], []
    original_gemms = Network.gemms
    original_lower = batch_mod._lower_kind

    def gemms(network, kind, batch):
        if lowering:
            calls.append((id(network), kind, batch))
        return original_gemms(network, kind, batch)

    def lower(network, kind):
        lowering.append(kind)
        try:
            return original_lower(network, kind)
        finally:
            lowering.pop()

    monkeypatch.setattr(Network, "gemms", gemms)
    monkeypatch.setattr(batch_mod, "_lower_kind", lower)
    clear_lowered_step_cache()
    yield calls
    clear_lowered_step_cache()


def _kind_lowerings(network, kinds):
    """The lowering calls of ``kinds``: each at batch 1 and 2, once."""
    return sorted(((id(network), kind, batch)
                   for kind in kinds for batch in (1, 2)), key=repr)


class TestLoweredStepMemo:
    @pytest.mark.parametrize("accel", _accelerators(),
                             ids=lambda a: f"{a.name}-ppu{a.ppu is not None}")
    def test_entries_match_fresh_lowering(self, accel, lowerings):
        network = build_model("SqueezeNet")
        for algorithm, tp, batch in itertools.product(
                ALGORITHMS, (1, 2, 3), (8, 32)):
            algorithm = Algorithm(algorithm)
            entry = _lowered_step(network, algorithm, accel, batch, tp)
            fresh = step_gemm_ops(network, algorithm, accel, batch, tp=tp)
            _assert_columns(entry, network, fresh)
            # A repeat is a memo hit: it lowers nothing anew.
            before = len(lowerings)
            again = _lowered_step(network, algorithm, accel, batch, tp)
            assert len(lowerings) == before
            assert _column_lists(again) == _column_lists(entry)
        # Every algorithm, batch and tp of one network shares one
        # lowering per GEMM kind, at batch 1 and 2.
        assert sorted(lowerings, key=repr) == _kind_lowerings(network,
                                                              GemmKind)

    def test_entries_are_immutable(self, lowerings):
        network = build_model("SqueezeNet")
        entry = _lowered_step(network, Algorithm.DP_SGD,
                             build_accelerator("diva"), 16, 2)
        for column in _COLUMNS:
            array = getattr(entry, column)
            assert not array.flags.writeable, column
            with pytest.raises(ValueError):
                array[0] = array[0]
        # The memoized lowerings every batch derives from are read-only
        # too, so no caller can change another caller's columns.
        memos = list(batch_mod._LOWERED_KINDS.values())
        assert len(memos) == 3
        for memo in memos:
            for array in (memo.layer, memo.dims, memo.slope):
                assert not array.flags.writeable

    def test_networks_key_by_identity_not_name(self, lowerings):
        accel = build_accelerator("diva")
        variants = (build_model("MobileNet"),
                    build_model("MobileNet", native_groups=True),
                    build_model("MobileNet", input_size=64))
        assert len({net.name for net in variants}) == 1
        entries = [_lowered_step(net, Algorithm.DP_SGD, accel, 8)
                   for net in variants]
        # DP-SGD runs three GEMM kinds; each variant lowers its own.
        assert len(batch_mod._LOWERED_KINDS) == 3 * 3
        assert {id(memo.network)
                for memo in batch_mod._LOWERED_KINDS.values()} \
            == {id(net) for net in variants}
        for net, entry in zip(variants, entries):
            assert entry.network is net
            _assert_columns(entry, net,
                            step_gemm_ops(net, Algorithm.DP_SGD, accel, 8))
        assert _column_lists(entries[0]) != _column_lists(entries[1])
        assert _column_lists(entries[0]) != _column_lists(entries[2])

    def test_lru_holds_its_bound(self, monkeypatch, lowerings):
        monkeypatch.setattr(batch_mod, "LOWERED_STEP_CACHE_MAXSIZE", 4)
        accel = build_accelerator("diva")
        squeeze, mobile = build_model("SqueezeNet"), build_model("MobileNet")
        sgd = (GemmKind.FORWARD, GemmKind.ACT_GRAD, GemmKind.WGRAD_BATCH)
        dpsgd = (GemmKind.FORWARD, GemmKind.ACT_GRAD,
                 GemmKind.WGRAD_EXAMPLE)
        # Six distinct memo keys: (network, kind) pairs.
        _lowered_step(squeeze, Algorithm.SGD, accel, 8)
        _lowered_step(mobile, Algorithm.DP_SGD, accel, 8)
        assert len(batch_mod._LOWERED_KINDS) == 4
        assert sorted(lowerings, key=repr) == sorted(
            _kind_lowerings(squeeze, sgd) + _kind_lowerings(mobile, dpsgd),
            key=repr)
        # Live keys lower nothing, whatever the batch and tp.
        _lowered_step(mobile, Algorithm.DP_SGD, accel, 64, 2)
        assert len(lowerings) == 2 * 6
        # The oldest keys were evicted: asking again lowers them anew.
        del lowerings[:]
        _lowered_step(squeeze, Algorithm.SGD, accel, 8)
        assert sorted(lowerings, key=repr) == _kind_lowerings(squeeze, sgd)
        assert len(batch_mod._LOWERED_KINDS) == 4

    def test_unknown_layer_rides_with_previous_op(self):
        network = build_model("SqueezeNet")
        ops = step_gemm_ops(network, Algorithm.SGD,
                            build_accelerator("diva"), 2)
        named = step_oracle.from_ops(network, ops).layer
        unnamed = [0, 5, len(ops) - 1]
        ops = [replace(op, gemm=replace(op.gemm, layer="")) if j in unnamed
               else op for j, op in enumerate(ops)]
        layer = step_oracle.from_ops(network, ops).layer
        assert layer[0] == 0
        for j in unnamed[1:]:
            assert layer[j] == layer[j - 1]
        assert [layer[j] for j in range(len(ops)) if j not in unnamed] \
            == [named[j] for j in range(len(ops)) if j not in unnamed]

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch must be positive"):
            _lowered_step(build_model("SqueezeNet"), Algorithm.SGD,
                         build_accelerator("diva"), 0)

    @pytest.mark.parametrize("mutate", [
        lambda network, gemms, batch: gemms[:-batch],
        lambda network, gemms, batch: [
            replace(g, layer=network.layers[batch].name) for g in gemms],
        lambda network, gemms, batch: [replace(g, k=g.k + 2 - batch)
                                       for g in gemms],
    ], ids=("length", "layer", "negative-slope"))
    def test_non_affine_schedule_raises(self, monkeypatch, lowerings,
                                        mutate):
        original = Network.gemms

        def gemms(network, kind, batch):
            return mutate(network, original(network, kind, batch), batch)

        monkeypatch.setattr(Network, "gemms", gemms)
        with pytest.raises(ValueError, match="SqueezeNet.*batch-affine"):
            _lowered_step(build_model("SqueezeNet"), Algorithm.SGD,
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
        for u, (accel, network, algorithm, batch, tp) in enumerate(specs):
            cold_ops, warm_ops = cold.ops[u], warm.ops[u]
            for name in ("gemm", "vector"):
                for a, b in zip(getattr(cold_ops, name),
                                getattr(warm_ops, name)):
                    np.testing.assert_array_equal(a, b)
                    assert not a.flags.writeable
            fresh = step_gemm_ops(network, algorithm, accel, batch, tp=tp)
            assert len(cold_ops.gemm.cycles) == len(fresh)
            # The collected op columns are a fresh lowering's, read-only.
            for collected in (cold_ops.step, warm_ops.step):
                assert collected.network is network
                _assert_columns(collected, network, fresh)
                assert not any(getattr(collected, column).flags.writeable
                               for column in _COLUMNS)
            # The phase cycles are the collected charges' sums.
            assert {phase: run.cycles for phase, run
                    in cold_ops.phase_runs().items()} == {
                phase: int(cold.phase_cycles[u, _PHASE_INDEX[phase]])
                for phase in cold_ops.phase_runs()}
        assert training_step_batch(specs[:1]).ops is None


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
    memo's column arithmetic reproduces the oracle's ``step_gemm_ops``."""

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
                    _gemm_columns(network, algorithm, accel, batch, tp),
                    network,
                    step_oracle.step_gemm_ops(network, algorithm, accel,
                                              batch, tp=tp),
                    f"{algorithm.value} {accel.name} b={batch} tp={tp}")


def _vector_oracle(specs):
    """``(specs, phases, OpRun fields)`` of the oracle's per-kernel
    ``step_vector_runs`` for every spec, with the phase set it reports."""
    matrix = np.zeros((len(specs), len(STEP_PHASES), len(astuple(OpRun()))),
                      dtype=np.int64)
    touched = np.zeros(matrix.shape[:2], dtype=bool)
    for u, (accel, network, algorithm, batch, tp) in enumerate(specs):
        for phase, run in step_oracle.step_vector_runs(
                network, algorithm, accel, batch, tp).items():
            matrix[u, _PHASE_INDEX[phase]] = astuple(run)
            touched[u, _PHASE_INDEX[phase]] = True
    return matrix, touched


def _batched_vector(specs):
    """The same matrix and phase set from the batched kernel pass."""
    groups = batch_mod._group_specs(specs)
    kernels = batch_mod._vector_kernels(groups)
    spec = groups.index[kernels.position]
    runs = kernels.charges.sum_by(spec * len(STEP_PHASES) + kernels.phase,
                                  len(specs) * len(STEP_PHASES))
    matrix = np.array([astuple(run) for run in runs], dtype=np.int64)
    touched = np.zeros((len(specs), len(STEP_PHASES)), dtype=bool)
    touched[spec, kernels.phase] = True
    return matrix.reshape(len(specs), len(STEP_PHASES), -1), touched


class TestVectorKernels:
    """Pin: the batched vector-kernel columns equal the oracle's
    per-kernel ``run_vector`` sums per phase, in every field, and both
    read the one ``step_vector_kernels`` rule."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_batched_cycles_equal_scalar_runs(self, model):
        network = build_model(model)
        specs = [(accel, network, Algorithm(algorithm), batch, tp)
                 for accel in _accelerators()
                 for algorithm in ALGORITHMS for tp in (1, 2, 3)
                 for batch in (1, 2, 3, 64, 257, 8192, 24576)]
        want, touched = _vector_oracle(specs)
        got, got_touched = _batched_vector(specs)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_touched, touched)
        # Phases outside the step's phase set carry no vector work.
        assert not got[~touched].any()

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(MODEL_NAMES),
        algorithm=st.sampled_from(ALGORITHMS),
        kind=st.sampled_from(("ws", "os", "os-noppu", "diva",
                              "diva-noppu")),
        lanes=st.integers(1, 512),
        reduction=st.floats(1.0, 8.0),
        bandwidth=st.floats(1e9, 2e12),
        latency=st.integers(0, 500),
        batches=st.lists(st.integers(1, 100_000), min_size=1, max_size=4),
        tp=st.integers(1, 8),
    )
    def test_property_custom_units(self, model, algorithm, kind, lanes,
                                   reduction, bandwidth, latency, batches,
                                   tp):
        """Any vector-unit and memory configuration, batch and tp: the
        columns repeat the scalar float order bit for bit."""
        config = DivaConfig(
            memory=MemoryConfig(bandwidth_bytes_per_s=bandwidth,
                                access_latency_cycles=latency),
            vector=VectorUnitConfig(lanes=lanes,
                                    reduction_overhead_factor=reduction))
        name, _, ppu = kind.partition("-")
        accel = build_accelerator(name, with_ppu=None if not ppu else False,
                                  config=config)
        network = build_model(model)
        specs = [(accel, network, Algorithm(algorithm), batch, tp)
                 for batch in batches]
        np.testing.assert_array_equal(_batched_vector(specs)[0],
                                      _vector_oracle(specs)[0])

    def test_float_order_at_a_ceil_boundary(self):
        """A 75-lane unit (600 ops/cycle) prices the DP-SGD(R) per-example
        scale over 4,200 values at exactly 7 cycles; dividing before
        multiplying rounds 1/600 up and charges 8."""
        assert (math.ceil(4200 * 1.0 / 600), math.ceil(4200 * (1.0 / 600))) \
            == (7, 8)
        accel = build_accelerator("diva", config=DivaConfig(
            vector=VectorUnitConfig(lanes=75)))
        specs = [(accel, build_model(model), Algorithm.DP_SGD_R, 4200, 1)
                 for model in MODEL_NAMES]
        np.testing.assert_array_equal(_batched_vector(specs)[0],
                                      _vector_oracle(specs)[0])

    def test_scalar_runs_execute_the_kernel_rows(self):
        """``step_vector_runs`` is the rows of ``step_vector_kernels``
        executed through the oracle's ``run_vector``; GEMM-only phases
        keep a zero run so the phase set is the step's."""
        network = build_model("BERT-base")
        for accel in _accelerators():
            for algorithm in map(Algorithm, ALGORITHMS):
                kernels = step_vector_kernels(network, algorithm, accel, 2)
                runs = step_vector_runs(network, algorithm, accel, 16, 2)
                assert list(runs) == list(dict.fromkeys(
                    kernel.phase for kernel in kernels))
                for phase, run in runs.items():
                    want = OpRun.zero()
                    for kernel in kernels:
                        if kernel.phase is phase and kernel.elems(16):
                            want = want + step_oracle.run_vector(
                                accel, kernel.elems(16), kernel.ops_per_elem,
                                kernel.read_bytes(16),
                                kernel.write_bytes(16), kernel.reduction)
                    assert run == want, (accel.name, algorithm, phase)
                if algorithm is not Algorithm.DP_SGD:
                    assert runs[Phase.BWD_BATCH_GRAD] == OpRun.zero()


def _oracle_accelerators():
    """WS, OS and DiVa with and without the PPU, and DiVa's packed
    outer-product engine (spatial packing makes ``rounds`` differ from
    ``count``)."""
    diva = build_accelerator("diva")
    packed = Accelerator(
        "DiVa-Pack", PackedOuterProductEngine(diva.config, bus_segments=4),
        memory=diva.memory, vector=diva.vector,
        ppu=PostProcessingUnit(DivaConfig().ppu))
    return _accelerators() + [packed]


def _sample_gemms():
    """Every distinct GEMM a small step touches, plus edge shapes."""
    gemms = {op.gemm for op in step_gemm_ops(
        build_model("SqueezeNet"), Algorithm.DP_SGD,
        build_accelerator("diva"), 3)}
    gemms |= {Gemm(1, 1, 1), Gemm(128, 1, 128, count=2000),
              Gemm(576, 16, 512, count=32), Gemm(7, 300, 5, count=9)}
    return sorted(gemms, key=repr)


class TestRunAdapters:
    """Pin: ``run_gemm`` / ``run_vector``, the length-1 adapters of the
    column charges, equal the oracle's per-op bodies field by field."""

    @pytest.mark.parametrize("accel", _oracle_accelerators(),
                             ids=lambda a: f"{a.name}-ppu{a.ppu is not None}")
    def test_run_gemm_equals_per_op_body(self, accel):
        for gemm in _sample_gemms():
            for write_output, fuse_norm in itertools.product(
                    (True, False), (False, accel.can_fuse_norm)):
                got = accel.run_gemm(gemm, write_output=write_output,
                                     fuse_norm=fuse_norm)
                assert got == step_oracle.run_gemm(
                    accel, gemm, write_output=write_output,
                    fuse_norm=fuse_norm), (gemm, write_output, fuse_norm)
        if not accel.can_fuse_norm:
            for run_gemm in (accel.run_gemm, functools.partial(
                    step_oracle.run_gemm, accel)):
                with pytest.raises(ValueError, match="cannot fuse"):
                    run_gemm(Gemm(8, 8, 8), fuse_norm=True)

    @settings(max_examples=200, deadline=None)
    @given(elems=st.integers(0, 10**12),
           ops_per_elem=st.sampled_from((1.0, 2.0, 3.0, 0.5, 1.7)),
           read=st.integers(0, 10**12), write=st.integers(0, 10**12),
           reduction=st.booleans(), lanes=st.integers(1, 512),
           factor=st.floats(1.0, 8.0), latency=st.integers(0, 500))
    def test_run_vector_equals_per_op_body(self, elems, ops_per_elem, read,
                                           write, reduction, lanes, factor,
                                           latency):
        accel = build_accelerator("diva", config=DivaConfig(
            memory=MemoryConfig(access_latency_cycles=latency),
            vector=VectorUnitConfig(lanes=lanes,
                                    reduction_overhead_factor=factor)))
        args = (elems, ops_per_elem, read, write, reduction)
        assert accel.run_vector(*args) == step_oracle.run_vector(accel,
                                                                 *args)


class TestStepOracle:
    """Pin: ``simulate_training_step`` (one spec of
    ``training_step_batch``) equals the per-op Python step in every
    ``OpRun`` field of every phase, with the same phase key set, on
    every zoo model x algorithm x accelerator x tp x batch."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_every_field_of_every_phase(self, model):
        network = build_model(model)
        for accel, algorithm, tp, batch in itertools.product(
                _oracle_accelerators(), map(Algorithm, ALGORITHMS),
                (1, 2, 3), (1, 3, 64, 257)):
            want, _ = step_oracle.chip_step(network, algorithm, accel,
                                            batch, tp)
            if tp == 1:
                got = simulate_training_step(network, algorithm, accel,
                                             batch)
            else:
                got = simulate_sharded_training_step(
                    network, algorithm, Cluster([accel] * tp), batch,
                    plan=ParallelPlan(dp=1, pp=1, tp=tp)).shard
            where = (accel.name, accel.ppu is not None, algorithm.value,
                     tp, batch)
            assert list(got.phases) == list(want.phases), where
            assert got.phases == want.phases, where
            assert got == want, where


def _geometry_accelerators():
    """WS, OS, DiVa and packed DiVa at geometries where every parameter
    the pricer reads differs from the default somewhere: array shape,
    frequency, fill and drain rates, operand widths, double buffering,
    tile and GEMM start-up, PPU trees (one too few for its drain, so
    no fusion), bus segments, DRAM bandwidth and latency, vector lanes
    and reduction factor."""
    def design(kind, with_ppu, array, ppu=None, **units):
        return build_accelerator(kind, with_ppu=with_ppu, config=DivaConfig(
            array=ArrayConfig(**array),
            ppu=ppu or PpuConfig(tree_width=max(array.get("width", 128),
                                                128)), **units))

    packed_array = ArrayConfig(height=64, width=64, acc_bytes=8,
                               accum_double_buffer=False)
    return [
        design("ws", None, dict(height=64, width=32, fill_rows_per_cycle=4,
                                input_bytes=1, weight_double_buffer=False),
               memory=MemoryConfig(bandwidth_bytes_per_s=900e9)),
        design("os", True, dict(height=32, width=64, drain_rows_per_cycle=4,
                                tile_startup_cycles=5, frequency_hz=1.2e9),
               ppu=PpuConfig(num_trees=4, tree_width=64),
               vector=VectorUnitConfig(lanes=64)),
        design("os", True, dict(drain_rows_per_cycle=16)),
        design("diva", True, dict(height=256, width=128,
                                  drain_rows_per_cycle=16,
                                  gemm_startup_cycles=40),
               ppu=PpuConfig(num_trees=16),
               memory=MemoryConfig(access_latency_cycles=40)),
        design("diva", False, dict(height=96, width=160),
               vector=VectorUnitConfig(reduction_overhead_factor=3.0)),
        Accelerator("DiVa-Pack", PackedOuterProductEngine(
            packed_array, bus_segments=8),
            ppu=PostProcessingUnit(PpuConfig(tree_width=64))),
    ]


#: Every engine class at the default geometry and at the others.
MIXED_ACCELERATORS = _oracle_accelerators() + _geometry_accelerators()


class TestMixedGeometry:
    """Pin: ``training_step_batch`` prices every geometry of an engine
    class in one pass, each op on its own accelerator's parameters, and
    the grouping does not change a bit."""

    def test_every_op_equals_the_oracle(self):
        """One shuffled spec list over every engine class and geometry:
        every collected op equals the per-op oracle's, field by field,
        and so does every phase."""
        specs = [(accel, build_model(model), Algorithm(algorithm), batch, tp)
                 for model in ("SqueezeNet", "BERT-base")
                 for accel in MIXED_ACCELERATORS
                 for algorithm in ALGORITHMS
                 for tp, batch in itertools.product((1, 2), (3, 64))]
        random.Random(31).shuffle(specs)
        step = training_step_batch(specs, collect_ops=True)
        # A grid call prices each distinct GEMM of a block once, weighted
        # by its ops: the same phase cycles.
        np.testing.assert_array_equal(training_step_batch(specs).phase_cycles,
                                      step.phase_cycles)
        for u, (accel, network, algorithm, batch, tp) in enumerate(specs):
            want, want_log = step_oracle.chip_step(network, algorithm, accel,
                                                   batch, tp)
            where = (accel.name, accel.config.height, accel.config.width,
                     network.name, algorithm.value, batch, tp)
            assert step.ops[u].op_log(algorithm, accel) == want_log, where
            phases = step.ops[u].phase_runs()
            assert list(phases) == list(want.phases), where
            assert phases == want.phases, where
            assert step.frequency_hz[u] == accel.frequency_hz, where
            assert {phase: int(step.phase_cycles[u, _PHASE_INDEX[phase]])
                    for phase in want.phases} == {
                phase: run.cycles for phase, run in want.phases.items()}

    @settings(max_examples=30, deadline=None)
    @given(picks=st.lists(st.tuples(
        st.integers(0, len(MIXED_ACCELERATORS) - 1),
        st.sampled_from(("SqueezeNet", "MobileNet", "LSTM-small")),
        st.sampled_from(ALGORITHMS), st.integers(1, 300),
        st.integers(1, 3)), min_size=1, max_size=12),
        order=st.randoms(use_true_random=False))
    def test_grouping_changes_no_bit(self, picks, order):
        """A shuffled mixed spec list prices bit for bit as one call per
        accelerator: phase cycles, frequency and every collected
        column; and a grid call (each distinct GEMM priced once,
        weighted) as a collecting one."""
        specs = [(MIXED_ACCELERATORS[a], build_model(model),
                  Algorithm(algorithm), batch, tp)
                 for a, model, algorithm, batch, tp in picks]
        order.shuffle(specs)
        whole = training_step_batch(specs, collect_ops=True)
        np.testing.assert_array_equal(training_step_batch(specs).phase_cycles,
                                      whole.phase_cycles)
        for accel in {id(spec[0]): spec[0] for spec in specs}.values():
            mine = [u for u, spec in enumerate(specs) if spec[0] is accel]
            part = training_step_batch([specs[u] for u in mine],
                                       collect_ops=True)
            np.testing.assert_array_equal(whole.phase_cycles[mine],
                                          part.phase_cycles)
            np.testing.assert_array_equal(whole.frequency_hz[mine],
                                          part.frequency_hz)
            for j, u in enumerate(mine):
                got, want = whole.ops[u], part.ops[j]
                for a, b in zip((*_column_lists(got.step), *got.gemm,
                                 got.kernel_phase, *got.vector),
                                (*_column_lists(want.step), *want.gemm,
                                 want.kernel_phase, *want.vector)):
                    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(key=st.lists(st.integers(0, 5000), min_size=1, max_size=300),
       spread=st.sampled_from((1, 10**6)))
def test_instance_numbering_equals_np_unique(key, spread):
    """The pricer numbers GEMM instances by a table of flags, or by
    ``np.unique``'s sort when the key space is sparse (``spread``): both
    give ``np.unique``'s values, in its order, with its inverse."""
    key = np.array(key, dtype=np.int64) * spread
    first, inverse = batch_mod._dense_unique(key, int(key.max()) + 1)
    values, want = np.unique(key, return_inverse=True)
    np.testing.assert_array_equal(key[first], values)
    np.testing.assert_array_equal(inverse, want)


#: The plans of the sharded oracle pin on 8 chips: pure DP, pp {2, 4} x
#: tp {1, 2}, and a fixed microbatch count.
SHARDED_PLANS = (None, ParallelPlan(dp=4, pp=2),
                 ParallelPlan(dp=2, pp=2, tp=2), ParallelPlan(dp=2, pp=4),
                 ParallelPlan(dp=1, pp=4, tp=2),
                 ParallelPlan(dp=2, pp=2, tp=2, microbatches=3))


class TestShardedStepOracle:
    """Pin: ``simulate_sharded_training_step`` (the sharded-step
    composition of ``training_step_batch`` on one point) equals the
    oracle's point-by-point composition in every
    ``ClusterTrainingReport`` field — the shard's phases, ``comm``, the
    pipeline schedule — on every algorithm x topology x bucket x
    overlap x plan x fabric, for a CNN, a Transformer and an RNN."""

    @pytest.mark.parametrize("model",
                             ("SqueezeNet", "BERT-base", "LSTM-small"))
    def test_every_report_field(self, model):
        # The oracle prices each distinct shard once (its step memo):
        # every cluster shares one chip.
        network = build_model(model)
        chip = build_accelerator("diva")
        for algorithm, topology, bucket, fabric in itertools.product(
                Algorithm, ("ring", "all_to_all", "hierarchical"),
                (None, 2**20), (None, "two-tier")):
            cluster = Cluster([chip] * 8, InterconnectConfig(
                topology=topology, bucket_bytes=bucket,
                chips_per_node=2 if topology == "hierarchical" else 1,
                fabric=fabric and fabric_named(fabric)))
            for plan, overlap in itertools.product(SHARDED_PLANS,
                                                   (True, False)):
                got = simulate_sharded_training_step(
                    network, algorithm, cluster, 32, plan=plan,
                    overlap=overlap)
                want, _ = step_oracle.sharded_step(
                    network, algorithm, cluster, 32, plan=plan,
                    overlap=overlap)
                where = (algorithm.value, topology, bucket, fabric, plan,
                         overlap)
                assert list(got.phases) == list(want.phases), where
                assert got.comm == want.comm, where
                assert got == want, where


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

    def test_short_work_tuples_take_evaluate_point_defaults(self):
        from repro.experiments import scaling

        full = ("SqueezeNet", 2, "DP-SGD", "strong", "ring", 32, True,
                None, 1, False, 1, 1, None)
        points = [full[:size] for size in range(6, len(full) + 1)]
        rows = scaling.evaluate_points_batched(points)
        assert rows == [scaling.evaluate_point(*point) for point in points]
        assert rows == [scaling.evaluate_point(*full)] * len(points)

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
