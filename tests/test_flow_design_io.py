"""Tests for block-design serialization and graph analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.analysis_graph import DesignGraphStats, analyze_design, edge_weights
from repro.flow.blockdesign import BlockDesign
from repro.flow.design_io import (
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
)
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import (
    DistributedMemory,
    RandomLogicCloud,
    ShiftRegisterBank,
    SumOfSquares,
)


def _design() -> BlockDesign:
    d = BlockDesign(name="io-test")
    d.add_module(
        RTLModule.make(
            "a",
            [
                RandomLogicCloud(n_luts=60, avg_inputs=4.5),
                SumOfSquares(width=8, n_terms=2, registered=True),
            ],
            family="custom",
            params={"k": 1},
        )
    )
    d.add_module(
        RTLModule.make(
            "b",
            [DistributedMemory(width=16, depth=128),
             ShiftRegisterBank(n_regs=8, depth=4, n_control_sets=2)],
        )
    )
    d.add_instance("a0", "a")
    d.add_instance("a1", "a")
    d.add_instance("b0", "b")
    d.connect("a0", "b0", width=16)
    d.connect("a1", "b0", width=16)
    return d


class TestDesignIO:
    def test_roundtrip_equality(self):
        d = _design()
        clone = design_from_dict(design_to_dict(d))
        assert clone.name == d.name
        assert clone.modules == d.modules
        assert clone.instances == d.instances
        assert clone.edges == d.edges

    def test_file_roundtrip(self, tmp_path):
        d = _design()
        path = tmp_path / "design.json"
        save_design(d, path)
        clone = load_design(path)
        assert clone.modules["a"] == d.modules["a"]

    def test_roundtrip_synthesizes_identically(self, tmp_path):
        from repro.netlist.stats import compute_stats
        from repro.synth.mapper import synthesize

        d = _design()
        path = tmp_path / "design.json"
        save_design(d, path)
        clone = load_design(path)
        for name in d.modules:
            assert compute_stats(synthesize(d.modules[name])) == compute_stats(
                synthesize(clone.modules[name])
            )

    def test_unknown_construct_rejected(self):
        data = design_to_dict(_design())
        data["modules"][0]["constructs"][0]["type"] = "EvilConstruct"
        with pytest.raises(ValueError, match="unknown construct"):
            design_from_dict(data)

    def test_cnv_design_roundtrips(self, cnv, tmp_path):
        path = tmp_path / "cnv.json"
        save_design(cnv, path)
        clone = load_design(path)
        assert clone.n_instances == 175
        assert clone.n_unique == 74
        assert len(clone.edges) == len(cnv.edges)


class TestGraphAnalysis:
    def test_basic_stats(self):
        stats = analyze_design(_design())
        assert stats.n_components == 1
        assert stats.is_dag
        assert stats.depth == 1
        assert stats.reuse_ratio == pytest.approx(3 / 2)
        assert stats.max_cut_width == 32

    def test_cnv_structure(self, cnv):
        stats = analyze_design(cnv)
        assert stats.n_components == 1  # a fully wired pipeline
        assert stats.is_dag
        assert stats.depth > 10  # deep streaming pipeline
        assert stats.reuse_ratio == pytest.approx(175 / 74)

    def test_edge_weights_merge(self):
        d = _design()
        d.connect("a0", "b0", width=8)  # parallel edge merges
        assert edge_weights(d)[("a0", "b0")] == 24
        # The merged bus is what crosses the layer boundary.
        assert analyze_design(d).max_cut_width == 24 + 16

    def test_disconnected_detected(self):
        d = BlockDesign(name="disc")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        stats = analyze_design(d)
        assert stats.n_components == 2

    def test_cycle_reported(self):
        d = BlockDesign(name="cyc")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        d.add_instance("i0", "m")
        d.add_instance("i1", "m")
        d.connect("i0", "i1")
        d.connect("i1", "i0")
        stats = analyze_design(d)
        assert not stats.is_dag
        assert stats.depth == -1


def _networkx_stats(design: BlockDesign) -> DesignGraphStats:
    """The graph statistics computed with networkx (test oracle only)."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    for inst in design.instances:
        g.add_node(inst.name)
    for e in design.edges:
        if g.has_edge(e.src, e.dst):
            g[e.src][e.dst]["weight"] += e.width
        else:
            g.add_edge(e.src, e.dst, weight=e.width)
    is_dag = nx.is_directed_acyclic_graph(g)
    depth, max_cut = -1, 0
    if is_dag and len(g):
        depth = nx.dag_longest_path_length(g, weight=None)
        layer_of = {
            node: i
            for i, layer in enumerate(nx.topological_generations(g))
            for node in layer
        }
        cuts = [0] * (max(layer_of.values()) + 1)
        for u, v, data in g.edges(data=True):
            for boundary in range(layer_of[u], layer_of[v]):
                cuts[boundary] += data["weight"]
        max_cut = max(cuts)
    return DesignGraphStats(
        n_components=nx.number_weakly_connected_components(g) if len(g) else 0,
        is_dag=is_dag,
        depth=depth,
        max_fan_out=max((d for _, d in g.out_degree()), default=0),
        reuse_ratio=(design.n_instances / design.n_unique
                     if design.n_unique else 0.0),
        max_cut_width=max_cut,
    )


def _random_design(n: int, edges: list[tuple[int, int, int]]) -> BlockDesign:
    d = BlockDesign(name="random")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    for i in range(n):
        d.add_instance(f"i{i}", "m")
    for a, b, width in edges:
        d.connect(f"i{a % n}", f"i{b % n}", width=width)
    return d


_edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(1, 9)),
    max_size=30,
)


class TestGraphAnalysisMatchesNetworkx:
    """``analyze_design`` agrees with networkx on every statistic."""

    @given(st.integers(1, 12), _edge_lists)
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, n, edges):
        d = _random_design(n, edges)
        assert analyze_design(d) == _networkx_stats(d)

    @given(st.integers(1, 12), _edge_lists)
    @settings(max_examples=150, deadline=None)
    def test_random_dags(self, n, edges):
        # Orient every edge forward so the graph is acyclic.
        dag = [(min(a % n, b % n), max(a % n, b % n), w)
               for a, b, w in edges if a % n != b % n]
        d = _random_design(n, dag)
        stats = analyze_design(d)
        assert stats.is_dag
        assert stats == _networkx_stats(d)

    def test_empty_design(self):
        d = _random_design(0, [])
        assert analyze_design(d) == _networkx_stats(d)

    def test_cnv(self, cnv):
        assert analyze_design(cnv) == _networkx_stats(cnv)
