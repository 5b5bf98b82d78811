"""Tests for the cooperative parallel-tempering placer.

The tempering driver must honor every contract the SA stitcher and GA
evolver do — the shared :class:`StitchResult` shape, seeded bitwise
determinism, fast/reference kernel equivalence, phase spans that tile
the run — plus its own: the result is bitwise identical for *any*
``n_workers`` value (rounds are the synchronization unit), and the
chains together spend exactly ``PTParams.max_iters`` kernel operations
so tempering costs are directly comparable to ``stitch``/``evolve`` at
an equal budget.
"""

import numpy as np
import pytest

from repro.device.column import ColumnKind
from repro.flow.blockdesign import BlockDesign
from repro.flow.placers import TemperedSAPlacer, default_portfolio
from repro.flow.restarts import best_of
from repro.flow.tempering import PTParams, temper
from repro.obs.tracer import Tracer
from repro.place.shapes import Footprint
from repro.place_kernel import StitchResult
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

_PARAMS = PTParams(max_iters=2000, n_chains=4, steps_per_round=100, seed=0)


@pytest.fixture()
def chain():
    d = BlockDesign(name="temper-chain")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    fp = Footprint((_LL, _LM), (12, 12))
    for i in range(12):
        d.add_instance(f"i{i}", "m")
    for i in range(11):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    return d, {"m": fp}


def _key(res: StitchResult):
    """Everything that must be bitwise identical between two runs."""
    return (
        res.placements,
        res.final_cost,
        res.wirelength,
        res.history,
        res.iterations,
        res.converged_at,
        res.stats.move_attempts,
        res.stats.place_attempts,
        res.stats.swap_attempts,
        res.stats.illegal_moves,
    )


class TestTemper:
    def test_result_shape(self, chain, z020):
        d, fps = chain
        res = temper(d, fps, z020, _PARAMS)
        assert isinstance(res, StitchResult)
        assert res.n_placed + res.n_unplaced == 12
        assert set(res.placements) == {f"i{i}" for i in range(12)}
        assert res.final_cost >= 0
        assert res.occupancy.max(initial=0) <= 1
        assert res.history[0][0] == 0
        assert res.stats is not None

    def test_budget_contract(self, chain, z020):
        """The chains together spend exactly max_iters kernel operations."""
        d, fps = chain
        for budget in (37, 500, 2000):
            res = temper(
                d, fps, z020,
                PTParams(max_iters=budget, n_chains=3, steps_per_round=50,
                         seed=0),
            )
            assert res.iterations == budget
            attempts = (
                res.stats.move_attempts
                + res.stats.place_attempts
                + res.stats.swap_attempts
            )
            assert attempts == budget

    def test_deterministic(self, chain, z020):
        d, fps = chain
        a = temper(d, fps, z020, _PARAMS)
        b = temper(d, fps, z020, _PARAMS)
        assert _key(a) == _key(b)

    def test_worker_count_independent(self, chain, z020):
        """Bitwise-identical results for any n_workers (rounds sync)."""
        d, fps = chain
        runs = [
            temper(d, fps, z020, _PARAMS, n_workers=w)
            for w in (None, 1, 2, 4)
        ]
        for other in runs[1:]:
            assert _key(other) == _key(runs[0])
            assert np.array_equal(other.occupancy, runs[0].occupancy)

    def test_kernel_equivalence(self, chain, z020):
        """Bitwise-identical tempering on the fast and reference kernels."""
        d, fps = chain
        fast = temper(d, fps, z020, _PARAMS, kernel="fast")
        ref = temper(d, fps, z020, _PARAMS, kernel="reference")
        assert _key(fast) == _key(ref)
        assert np.array_equal(fast.occupancy, ref.occupancy)

    def test_seed_changes_outcome_stream(self, chain, z020):
        d, fps = chain
        a = temper(d, fps, z020, _PARAMS)
        b = temper(d, fps, z020,
                   PTParams(max_iters=2000, n_chains=4, steps_per_round=100,
                            seed=1))
        # Different seeds must consume different streams; the move-mix
        # counters are astronomically unlikely to match exactly.
        assert (
            a.stats.move_attempts, a.stats.move_accepts,
            a.stats.illegal_moves,
        ) != (
            b.stats.move_attempts, b.stats.move_accepts,
            b.stats.illegal_moves,
        )

    def test_single_chain_degenerates_gracefully(self, chain, z020):
        """n_chains=1 is plain SA-like annealing: no exchange partners."""
        d, fps = chain
        tr = Tracer()
        res = temper(
            d, fps, z020,
            PTParams(max_iters=1000, n_chains=1, steps_per_round=100, seed=0),
            tracer=tr,
        )
        assert res.n_placed + res.n_unplaced == 12
        assert tr.roots[0].attrs["n_exchange_accepts"] == 0

    def test_unknown_kernel_rejected(self, chain, z020):
        d, fps = chain
        with pytest.raises(ValueError, match="unknown kernel"):
            temper(d, fps, z020, _PARAMS, kernel="turbo")

    @pytest.mark.parametrize(
        "bad, match",
        [
            (PTParams(max_iters=0), "max_iters"),
            (PTParams(n_chains=0), "n_chains"),
            (PTParams(steps_per_round=0), "steps_per_round"),
            (PTParams(swap_period=0), "swap_period"),
            (PTParams(migrate_every=-1), "migrate_every"),
            (PTParams(hot_ratio=0.0), "hot_ratio"),
        ],
    )
    def test_invalid_params_rejected(self, chain, z020, bad, match):
        d, fps = chain
        with pytest.raises(ValueError, match=match):
            temper(d, fps, z020, bad)


class TestTemperSpans:
    def test_phase_timings_tile_wall_time(self, chain, z020):
        """init + rounds + exchange spans tile the tempering span."""
        d, fps = chain
        tr = Tracer()
        temper(d, fps, z020, _PARAMS, tracer=tr)
        root = tr.roots[0]
        assert root.name == "tempering"
        names = [c.name for c in root.children]
        assert names[0] == "tempering.init"
        assert set(names) == {
            "tempering.init", "tempering.rounds", "tempering.exchange"
        }
        # Rounds and exchange events alternate; the terminal exchange
        # (restore + fill + extraction) closes the run.
        assert names[-1] == "tempering.exchange"
        assert sum(c.dur_s for c in root.children) == pytest.approx(
            root.dur_s, rel=0.05
        )

    def test_stats_map_phases(self, chain, z020):
        d, fps = chain
        tr = Tracer()
        res = temper(d, fps, z020, _PARAMS, tracer=tr)
        root = tr.roots[0]
        st = res.stats
        assert st.kernel == "fast" and st.seed == 0
        assert st.setup_s == 0.0
        init = [c for c in root.children if c.name == "tempering.init"]
        rounds = [c for c in root.children if c.name == "tempering.rounds"]
        exch = [c for c in root.children if c.name == "tempering.exchange"]
        assert st.initial_s == init[0].dur_s
        assert st.anneal_s == pytest.approx(sum(c.dur_s for c in rounds))
        assert st.fill_s == pytest.approx(sum(c.dur_s for c in exch))
        # The temperature trace is the coldest chain's cooling curve.
        ops = [op for op, _t in st.temperature_trace]
        temps = [t for _op, t in st.temperature_trace]
        assert ops == sorted(ops) and ops[-1] == _PARAMS.max_iters
        assert temps == sorted(temps, reverse=True)

    def test_exchange_schedule_recorded(self, chain, z020):
        """Exchange events happen every swap_period rounds, outcomes on
        the root span."""
        d, fps = chain
        tr = Tracer()
        p = PTParams(max_iters=4000, n_chains=4, steps_per_round=100,
                     swap_period=2, seed=0)
        temper(d, fps, z020, p, tracer=tr)
        root = tr.roots[0]
        # 4000 ops / (4 chains * 100 steps) = 10 rounds = 5 blocks of 2;
        # 4 exchange events between blocks + the terminal finalization.
        assert root.attrs["n_exchanges"] == 4
        assert 0 <= root.attrs["n_exchange_accepts"]
        assert root.attrs["n_migrations"] >= 0
        exch = [c for c in root.children if c.name == "tempering.exchange"]
        assert len(exch) == 5


class TestTemperBest:
    def test_beats_or_matches_every_seed(self, chain, z020):
        d, fps = chain
        best = best_of(TemperedSAPlacer(_PARAMS), d, fps, z020, n_seeds=3)
        for k in range(3):
            single = temper(
                d, fps, z020,
                PTParams(max_iters=2000, n_chains=4, steps_per_round=100,
                         seed=k),
            )
            assert (best.n_unplaced, best.final_cost) <= (
                single.n_unplaced, single.final_cost
            )

    def test_winner_seed_recorded(self, chain, z020):
        d, fps = chain
        best = best_of(TemperedSAPlacer(_PARAMS), d, fps, z020, seeds=[5, 6])
        assert best.stats.seed in (5, 6)

    def test_worker_independent(self, chain, z020):
        d, fps = chain
        placer = TemperedSAPlacer(_PARAMS)
        serial = best_of(placer, d, fps, z020, n_seeds=3, n_workers=None)
        parallel = best_of(placer, d, fps, z020, n_seeds=3, n_workers=2)
        assert _key(serial) == _key(parallel)
        assert serial.stats.seed == parallel.stats.seed

    def test_restart_span_tree(self, chain, z020):
        d, fps = chain
        tr = Tracer()
        best_of(TemperedSAPlacer(_PARAMS), d, fps, z020, n_seeds=2, tracer=tr)
        root = tr.roots[0]
        assert root.name == "placer.restarts"
        assert root.attrs["placer"] == "pt"
        assert [c.name for c in root.children] == ["tempering", "tempering"]

    def test_empty_seeds_rejected(self, chain, z020):
        d, fps = chain
        with pytest.raises(ValueError, match="seeds"):
            best_of(TemperedSAPlacer(_PARAMS), d, fps, z020, seeds=[])


class TestTemperedSAPlacer:
    def test_placer_equals_temper(self, chain, z020):
        d, fps = chain
        direct = temper(d, fps, z020, _PARAMS)
        via = TemperedSAPlacer(params=_PARAMS).place(d, fps, z020)
        assert via.placements == direct.placements
        assert via.final_cost == direct.final_cost

    def test_in_portfolio(self):
        names = [p.name for p in default_portfolio()]
        assert "pt" in names


class TestFlowIntegration:
    def test_rw_flow_pt_placer(self, z020):
        from repro.flow.policy import FixedCF
        from repro.flow.rwflow import run_rw_flow

        d = BlockDesign(name="flow-pt")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        for i in range(3):
            d.add_instance(f"i{i}", "m")
        for i in range(2):
            d.connect(f"i{i}", f"i{i + 1}")
        res = run_rw_flow(
            d, z020, FixedCF(1.6),
            placer=TemperedSAPlacer(PTParams(max_iters=1000, n_chains=2,
                                             steps_per_round=100, seed=0)),
        )
        assert res.stitch.n_unplaced == 0
        assert res.stitch.iterations == 1000

    def test_rw_flow_pt_restarts(self, z020):
        from repro.flow.policy import FixedCF
        from repro.flow.rwflow import run_rw_flow

        d = BlockDesign(name="flow-pt-restarts")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=120)]))
        for i in range(3):
            d.add_instance(f"i{i}", "m")
        res = run_rw_flow(
            d, z020, FixedCF(1.6), n_seeds=2,
            placer=TemperedSAPlacer(PTParams(max_iters=600, n_chains=2,
                                             steps_per_round=50, seed=0)),
        )
        assert res.stitch.stats.seed in (0, 1)
