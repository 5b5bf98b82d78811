"""Integration tests: traces recorded by the instrumented hot paths.

Covers the span naming convention end to end (``stitch`` phases,
``preimpl`` / ``dataset`` nesting, the ``flow`` root), the exactly-once
cross-process merge of worker spans, and the CLI's ``--trace-out`` /
``--profile`` / ``trace summarize`` surface.
"""

import json

import pytest

from repro.cli import main
from repro.device.column import ColumnKind
from repro.dse.explorer import DSEExplorer
from repro.flow.blockdesign import BlockDesign
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_design
from repro.flow.placers import SAPlacer
from repro.flow.restarts import best_of
from repro.flow.rwflow import run_rw_flow
from repro.flow.stitcher import SAParams, stitch
from repro.obs.export import load_trace
from repro.obs.tracer import Tracer, use_tracer
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

_STITCH_PHASES = ["stitch.setup", "stitch.initial", "stitch.anneal", "stitch.fill"]


def _stitch_case(n_instances=8):
    d = BlockDesign(name="trace-test")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    for i in range(n_instances):
        d.add_instance(f"i{i}", "m")
    for i in range(n_instances - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    return d, {"m": Footprint((_LL, _LM), (10, 10))}


def _flow_design() -> BlockDesign:
    d = BlockDesign(name="trace-flow")
    for name, n in (("a", 150), ("b", 80), ("c", 60)):
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=n)]))
    d.add_instance("a0", "a")
    d.add_instance("a1", "a")
    d.add_instance("b0", "b")
    d.add_instance("c0", "c")
    d.connect("a0", "b0", width=8)
    d.connect("a1", "c0", width=8)
    return d


class TestStitchTrace:
    def test_phase_spans_tile_root(self, z020):
        d, fps = _stitch_case()
        tr = Tracer()
        stitch(d, fps, z020, SAParams(max_iters=3000, seed=0), tracer=tr)
        root = tr.roots[0]
        assert root.name == "stitch"
        assert [c.name for c in root.children] == _STITCH_PHASES
        covered = sum(c.dur_s for c in root.children)
        assert covered <= root.dur_s
        assert covered >= 0.99 * root.dur_s

    def test_counters_match_stitch_stats(self, z020):
        d, fps = _stitch_case()
        tr = Tracer()
        res = stitch(d, fps, z020, SAParams(max_iters=3000, seed=0), tracer=tr)
        st = res.stats
        anneal = tr.find("stitch.anneal")
        assert anneal.counters["move_attempts"] == st.move_attempts
        assert anneal.counters["place_attempts"] == st.place_attempts
        assert anneal.counters["swap_attempts"] == st.swap_attempts
        assert anneal.counters["move_accepts"] == st.move_accepts
        assert anneal.counters["place_accepts"] == st.place_accepts
        assert anneal.counters["swap_accepts"] == st.swap_accepts
        assert anneal.counters["illegal_moves"] == st.illegal_moves
        assert anneal.counters["iterations"] == res.iterations

    def test_stats_durations_are_span_durations(self, z020):
        d, fps = _stitch_case()
        tr = Tracer()
        res = stitch(d, fps, z020, SAParams(max_iters=2000, seed=0), tracer=tr)
        st = res.stats
        by_name = {c.name: c.dur_s for c in tr.roots[0].children}
        assert st.setup_s == by_name["stitch.setup"]
        assert st.initial_s == by_name["stitch.initial"]
        assert st.anneal_s == by_name["stitch.anneal"]
        assert st.fill_s == by_name["stitch.fill"]

    def test_ambient_tracer_used_when_no_explicit(self, z020):
        d, fps = _stitch_case()
        tr = Tracer()
        with use_tracer(tr):
            stitch(d, fps, z020, SAParams(max_iters=1000, seed=0))
        assert tr.find("stitch") is not None

    def test_disabled_ambient_records_nothing(self, z020):
        d, fps = _stitch_case()
        res = stitch(d, fps, z020, SAParams(max_iters=1000, seed=0))
        assert res.stats is not None  # private trace still feeds the stats

    def test_result_identical_with_and_without_tracing(self, z020):
        d, fps = _stitch_case()
        params = SAParams(max_iters=2000, seed=5)
        plain = stitch(d, fps, z020, params)
        traced = stitch(d, fps, z020, params, tracer=Tracer())
        assert plain.placements == traced.placements
        assert plain.final_cost == traced.final_cost
        assert plain.stats.move_attempts == traced.stats.move_attempts


class TestRestartsTrace:
    def test_one_child_stitch_per_seed(self, z020):
        d, fps = _stitch_case()
        tr = Tracer()
        best = best_of(
            SAPlacer(SAParams(max_iters=1000, seed=0)), d, fps, z020,
            n_seeds=3, tracer=tr,
        )
        root = tr.roots[0]
        assert root.name == "placer.restarts"
        assert root.attrs["placer"] == "sa"
        seeds = [c.attrs["seed"] for c in root.find_all("stitch")]
        assert seeds == [0, 1, 2]
        assert root.attrs["winner_seed"] == best.stats.seed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seed_spans_merge_exactly_once(self, z020, workers):
        d, fps = _stitch_case()
        tr = Tracer()
        best_of(
            SAPlacer(SAParams(max_iters=500, seed=0)), d, fps, z020,
            n_seeds=4, n_workers=workers, tracer=tr,
        )
        assert len(tr.roots[0].find_all("stitch")) == 4


class TestPreimplTrace:
    def test_nesting_and_counters(self, z020):
        design = _flow_design()
        tr = Tracer()
        result = implement_design(design, z020, FixedCF(1.5), tracer=tr)
        root = tr.roots[0]
        assert root.name == "preimpl"
        assert [c.name for c in root.children] == [
            "preimpl.cache",
            "preimpl.implement",
        ]
        modules = root.find_all("preimpl.module")
        assert sorted(s.attrs["module"] for s in modules) == ["a", "b", "c"]
        st = result.stats
        assert root.counters["total_tool_runs"] == st.total_tool_runs
        assert sum(s.counters["n_runs"] for s in modules) == st.new_tool_runs
        assert tr.metrics.counter("preimpl.cache.misses").value == st.cache_misses

    # One worker span per cache miss regardless of worker count — the
    # ISSUE's cross-process merge requirement (exactly once, any pool size).
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_module_spans_appear_exactly_once(self, z020, workers):
        design = _flow_design()
        tr = Tracer()
        implement_design(
            design, z020, FixedCF(1.5), n_workers=workers, tracer=tr
        )
        modules = tr.roots[0].find_all("preimpl.module")
        assert sorted(s.attrs["module"] for s in modules) == ["a", "b", "c"]

    def test_warm_cache_has_no_module_spans(self, z020, tmp_path):
        design = _flow_design()
        implement_design(design, z020, FixedCF(1.5), cache_dir=str(tmp_path))
        tr = Tracer()
        result = implement_design(
            design, z020, FixedCF(1.5), cache_dir=str(tmp_path), tracer=tr
        )
        assert result.stats.cache_hits == 3
        assert tr.roots[0].find_all("preimpl.module") == []
        cache = tr.find("preimpl.cache")
        assert cache.counters == {"hits": 3, "misses": 0}


class TestDatasetTrace:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_module_spans_merge_exactly_once(self, workers):
        from repro.dataset.generate import generate_dataset

        tr = Tracer()
        records, report = generate_dataset(
            6, seed=0, workers=workers, tracer=tr
        )
        root = tr.roots[0]
        assert root.name == "dataset"
        assert [c.name for c in root.children[:3]] == [
            "dataset.cache",
            "dataset.sweep",
            "dataset.label",
        ]
        label = tr.find("dataset.label")
        modules = label.find_all("dataset.module")
        # one span per non-trivial module attempt, pool or not
        assert len(modules) == report.n_labeled + report.n_infeasible
        assert sum(s.counters["n_runs"] for s in modules) == report.n_runs
        assert label.counters["n_labeled"] == report.n_labeled


class TestFlowTrace:
    def test_flow_root_contains_stages(self, z020):
        design = _flow_design()
        tr = Tracer()
        res = run_rw_flow(
            design, z020, FixedCF(1.5),
            sa_params=SAParams(max_iters=1000, seed=0), tracer=tr,
        )
        root = tr.roots[0]
        assert root.name == "flow"
        assert root.find("preimpl") is not None
        assert root.find("stitch") is not None
        assert root.counters["total_tool_runs"] == res.total_tool_runs

    def test_dse_evaluate_span(self, z020):
        design = _flow_design()
        tr = Tracer()
        ex = DSEExplorer(
            design, z020, FixedCF(1.5),
            sa_params=SAParams(max_iters=500, seed=0), tracer=tr,
        )
        point = ex.evaluate("base")
        root = tr.roots[0]
        assert root.name == "dse.evaluate"
        assert root.attrs["label"] == "base"
        assert root.counters["cache_hits"] == point.cache_hits
        assert root.find("stitch") is not None


@pytest.fixture(scope="module")
def design_json(tmp_path_factory):
    from repro.flow.design_io import save_design

    path = tmp_path_factory.mktemp("trace-cli") / "design.json"
    save_design(_flow_design(), str(path))
    return str(path)


class TestCLITracing:
    def test_trace_flags_parse(self):
        from repro.cli import build_parser

        for cmd in (["place", "d.json"], ["preimpl", "d.json"], ["dataset"]):
            args = build_parser().parse_args(
                cmd + ["--trace-out", "t.json", "--profile"]
            )
            assert args.trace_out == "t.json"
            assert args.profile

    def test_stitch_trace_out_and_profile(self, design_json, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(
            ["place", design_json, "--budget", "500",
             "--trace-out", str(out), "--profile"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Trace breakdown" in printed
        doc = load_trace(out)
        names = [s["name"] for s in doc["spans"]]
        assert names == ["flow"]
        flat = json.dumps(doc)
        for phase in _STITCH_PHASES:
            assert phase in flat

    def test_preimpl_trace_out(self, design_json, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["preimpl", design_json, "--trace-out", str(out)]) == 0
        doc = load_trace(out)
        assert [s["name"] for s in doc["spans"]] == ["preimpl"]

    def test_trace_summarize_command(self, design_json, tmp_path, capsys):
        out = tmp_path / "trace.json"
        main(["place", design_json, "--budget", "500",
              "--trace-out", str(out)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Trace breakdown" in printed
        assert "stitch.anneal" in printed

    def test_no_flags_no_trace(self, design_json, capsys):
        assert main(["place", design_json, "--budget", "500"]) == 0
        assert "Trace breakdown" not in capsys.readouterr().out
