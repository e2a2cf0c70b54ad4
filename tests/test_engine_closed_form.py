"""Closed-form GEMM cycle engine vs the per-tile reference oracle.

The closed form (:func:`gemm_stats_batch` and its cached length-1
adapter :meth:`GemmEngine.gemm_stats`) derives phase counts
analytically from the chunk decomposition; these tests pin it to the
per-tile reference (:meth:`GemmEngine.gemm_stats_reference`) across
all three dataflows, remainder tile shapes, batched GEMMs and packing
factors — plus hand-computed pipelines that lock in the corrected
overlapped-regime formula (each tile's fill/drain phase pairs with the
*neighbouring* tile's main phase, one boundary instance exposed).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.batch import gemm_stats_batch
from repro.arch.engine import (
    ArrayConfig,
    GEMM_STATS_CACHE_MAXSIZE,
    clear_gemm_stats_cache,
    engine_columns,
    gemm_stats_cache_len,
    take_rows,
)
from repro.arch.systolic import OutputStationaryEngine, WeightStationaryEngine
from repro.core.outer_product import OuterProductEngine
from repro.core.packing import PackedOuterProductEngine
from repro.workloads.gemms import Gemm, GemmKind

ENGINES = (
    WeightStationaryEngine,
    OutputStationaryEngine,
    OuterProductEngine,
    PackedOuterProductEngine,
)

#: Exact-multiple, single-remainder and double-remainder shapes.
SHAPES = (
    (1, 1, 1),
    (128, 128, 128),
    (256, 384, 512),
    (300, 77, 128),      # m and k remainders
    (128, 300, 500),     # k and n remainders
    (5, 1000, 3),        # sub-array tiles
    (257, 129, 131),     # remainder in every dimension
    (64, 16, 512),       # the per-example wgrad regime
    (2048, 4, 300),      # tiny K, many M tiles (drain-dominated)
)

CONFIGS = (
    ArrayConfig(),
    ArrayConfig(weight_double_buffer=False, accum_double_buffer=False),
    ArrayConfig(height=32, width=64, fill_rows_per_cycle=1,
                drain_rows_per_cycle=1),
    ArrayConfig(tile_startup_cycles=0, gemm_startup_cycles=0),
)


def assert_stats_equal(fast, oracle):
    assert fast.compute_cycles == oracle.compute_cycles
    assert fast.tiles == oracle.tiles
    assert fast.sram_read_bytes == oracle.sram_read_bytes
    assert fast.sram_write_bytes == oracle.sram_write_bytes
    assert fast.macs == oracle.macs
    assert fast.engine == oracle.engine


class TestEquivalenceSweep:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("count", (1, 3, 32))
    def test_matches_reference(self, engine_cls, config, count):
        engine = engine_cls(config)
        for m, k, n in SHAPES:
            gemm = Gemm(m, k, n, count=count)
            assert_stats_equal(engine.gemm_stats(gemm),
                               engine.gemm_stats_reference(gemm))

    @pytest.mark.parametrize("bus_segments", (1, 2, 4, 16))
    def test_packed_factors_match_reference(self, bus_segments):
        engine = PackedOuterProductEngine(bus_segments=bus_segments)
        for gemm in (Gemm(64, 16, 512, count=32),   # packs (fits 2x along M)
                     Gemm(16, 8, 16, count=64),     # packs heavily
                     Gemm(300, 20, 300, count=8)):  # too big to pack
            assert_stats_equal(engine.gemm_stats(gemm),
                               engine.gemm_stats_reference(gemm))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 300), k=st.integers(1, 700),
           n=st.integers(1, 300), count=st.integers(1, 40))
    def test_property_equivalence(self, m, k, n, count):
        """Batched = adapter = per-tile reference on every engine; the
        m/n range straddles the array so packed shapes occur."""
        gemm = Gemm(m, k, n, count=count)
        engines = [WeightStationaryEngine(), OutputStationaryEngine(),
                   OuterProductEngine()] + [
            PackedOuterProductEngine(bus_segments=segments)
            for segments in (1, 4, 8)]
        for engine in engines:
            oracle = engine.gemm_stats_reference(gemm)
            adapter = engine.gemm_stats(gemm)
            assert_stats_equal(adapter, oracle)
            batch = gemm_stats_batch(engine, m, k, n, count)
            for field in ("compute_cycles", "macs", "tiles",
                          "sram_read_bytes", "sram_write_bytes"):
                assert int(getattr(batch, field)[0]) \
                    == getattr(oracle, field), (engine.name, field)


    @settings(max_examples=40, deadline=None)
    @given(engine_cls=st.sampled_from(ENGINES),
           rows=st.lists(st.tuples(
               st.integers(0, len(CONFIGS) - 1), st.integers(1, 300),
               st.integers(1, 700), st.integers(1, 300),
               st.integers(1, 40)), min_size=1, max_size=12))
    def test_geometry_columns_price_each_row_on_its_engine(self, engine_cls,
                                                           rows):
        """One call over engines of every ``CONFIGS`` geometry (array
        shape, fill and drain rates, double buffering, start-up cycles;
        bus segments on the packed class), each row on its own engine's
        parameters, equals that engine's per-tile reference."""
        if engine_cls is PackedOuterProductEngine:
            engines = [engine_cls(config, bus_segments=segments)
                       for config, segments in zip(CONFIGS, (1, 4, 8, 2))]
        else:
            engines = [engine_cls(config) for config in CONFIGS]
        unit, m, k, n, count = (list(column) for column in zip(*rows))
        batch = gemm_stats_batch(engines[0], m, k, n, count, take_rows(
            engine_columns(engines), unit))
        for i, (u, *dims) in enumerate(rows):
            oracle = engines[u].gemm_stats_reference(Gemm(*dims))
            for field in ("compute_cycles", "macs", "tiles",
                          "sram_read_bytes", "sram_write_bytes"):
                assert int(getattr(batch, field)[i]) \
                    == getattr(oracle, field), (u, dims, field)
            assert int(batch.peak_macs_per_cycle[i]) \
                == oracle.peak_macs_per_cycle


class TestOverlapFormulaHandComputed:
    """Satellite bugfix: the boundary phase was counted twice."""

    def test_two_uniform_diva_tiles(self):
        """DiVa, drain (16) > main (K=4): the old formula added the
        exposed drain *and* max(drain, main) per tile."""
        engine = OuterProductEngine()          # 128x128, drain 8 rows/clk
        gemm = Gemm(256, 4, 64)                # two (128, 4, 64) M-tiles
        # Phases per tile: drain = ceil(128/8) = 16, main = K = 4.
        # Pipeline: main0 | max(drain0, main1) | drain1 exposed
        #         = 4 + max(16, 4) + 16 = 36
        # Fixed: gemm startup 16 + 2 tiles * 2 = 20.  Total 56.
        stats = engine.gemm_stats(gemm)
        assert (stats.compute_cycles, stats.tiles) == (56, 2)
        assert engine.single_gemm_cycles_reference(gemm) == (56, 2)
        # The pre-fix formula charged 16 + 16 + 2*(max(16,4)+2) = 68.

    def test_two_heterogeneous_diva_tiles(self):
        engine = OuterProductEngine()
        gemm = Gemm(200, 4, 64)                # M-tiles of 128 and 72
        # Tile 0: drain ceil(128/8)=16, main 4; tile 1: drain 9, main 4.
        # 4 + max(16, 4) + 9 = 29, plus 16 startup + 2*2 = 49.
        stats = engine.gemm_stats(gemm)
        assert (stats.compute_cycles, stats.tiles) == (49, 2)
        assert engine.single_gemm_cycles_reference(gemm) == (49, 2)

    def test_two_ws_tiles(self):
        """WS, remainder K chunk: fill0 exposed, fill1 hides in stream0."""
        engine = WeightStationaryEngine(ArrayConfig(width=4))
        gemm = Gemm(10, 192, 4)                # K-tiles of 128 and 64
        # Tile 0: fill ceil(128/8)=16, stream 10+128+3=141;
        # tile 1: fill 8, stream 10+64+3=77.
        # 16 + max(141, 8) + 77 = 234, plus 16 startup + 2*2 = 254.
        stats = engine.gemm_stats(gemm)
        assert (stats.compute_cycles, stats.tiles) == (254, 2)
        assert engine.single_gemm_cycles_reference(gemm) == (254, 2)

    def test_single_tile_has_no_overlap_benefit(self):
        """With one tile both phases are exposed, double-buffer or not."""
        overlapped = OuterProductEngine()
        serial = OuterProductEngine(ArrayConfig(accum_double_buffer=False))
        gemm = Gemm(64, 32, 64)
        assert (overlapped.gemm_stats(gemm).compute_cycles
                == serial.gemm_stats(gemm).compute_cycles)
        assert overlapped.gemm_stats(gemm).tiles == 1


class TestStatsCache:
    def setup_method(self):
        clear_gemm_stats_cache()

    def test_cache_hits_are_equal(self):
        engine = OuterProductEngine()
        gemm = Gemm(300, 77, 128, count=3)
        first = engine.gemm_stats(gemm)
        assert engine.gemm_stats(gemm) == first

    def test_shared_across_instances(self):
        a = OuterProductEngine()
        b = OuterProductEngine()
        a.gemm_stats(Gemm(128, 128, 128))
        before = gemm_stats_cache_len()
        b.gemm_stats(Gemm(128, 128, 128))
        assert gemm_stats_cache_len() == before

    def test_hit_retags_kind_and_layer(self):
        engine = OuterProductEngine()
        plain = engine.gemm_stats(Gemm(64, 16, 512))
        tagged = engine.gemm_stats(
            Gemm(64, 16, 512, kind=GemmKind.WGRAD_EXAMPLE, layer="conv3"))
        assert tagged.gemm.layer == "conv3"
        assert tagged.compute_cycles == plain.compute_cycles

    def test_distinct_configs_do_not_collide(self):
        small = OuterProductEngine(ArrayConfig(height=32, width=32))
        large = OuterProductEngine()
        gemm = Gemm(128, 128, 128)
        assert (small.gemm_stats(gemm).compute_cycles
                != large.gemm_stats(gemm).compute_cycles)

    def test_packed_segments_do_not_collide(self):
        wide = PackedOuterProductEngine(bus_segments=8)
        narrow = PackedOuterProductEngine(bus_segments=1)
        gemm = Gemm(16, 8, 16, count=64)
        assert (wide.gemm_stats(gemm).compute_cycles
                != narrow.gemm_stats(gemm).compute_cycles)

    def test_bounded(self):
        engine = OuterProductEngine()
        for m in range(1, GEMM_STATS_CACHE_MAXSIZE + 50):
            engine.gemm_stats(Gemm(m, 1, 1))
        assert gemm_stats_cache_len() <= GEMM_STATS_CACHE_MAXSIZE
