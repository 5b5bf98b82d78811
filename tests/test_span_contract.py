"""The span contract, checked on recorded traces.

``docs/span_contract.json`` names every span that may open as a trace
root and, for each span, the children it may have.  Trace consumers
(``repro trace summarize``, the CI trace artifacts, the stats that read
phase spans) rely on that tree, so a span opened under the wrong parent
breaks them silently.  These tests run every instrumented entry point
on a small input, serially and over worker processes where it fans
out, and assert that each root and each parent -> child edge of the
recorded trace is in the contract file.
"""

import json
from pathlib import Path

import pytest

from repro.device.column import ColumnKind
from repro.dse.explorer import DSEExplorer
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.placers import GAPlacer, SAPlacer
from repro.flow.policy import FixedCF
from repro.flow.preimpl import implement_design
from repro.flow.restarts import best_of
from repro.flow.rwflow import run_rw_flow
from repro.flow.stitcher import SAParams, stitch
from repro.obs.tracer import Tracer
from repro.place.shapes import Footprint
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

CONTRACT_PATH = Path(__file__).resolve().parent.parent / "docs" / "span_contract.json"


def _contract() -> tuple[set[str], set[tuple[str, str]]]:
    data = json.loads(CONTRACT_PATH.read_text(encoding="utf-8"))
    assert data["version"] == 1
    edges = {
        (parent, child)
        for parent, children in data["tree"].items()
        for child in children
    }
    return set(data["roots"]), edges


def _observed(tr: Tracer) -> tuple[set[str], set[tuple[str, str]]]:
    edges = {
        (span.name, child.name)
        for _depth, span in tr.walk()
        for child in span.children
    }
    return {root.name for root in tr.roots}, edges


def _assert_in_contract(tr: Tracer) -> None:
    assert tr.roots, "the entry point recorded no span"
    roots, edges = _observed(tr)
    allowed_roots, allowed_edges = _contract()
    assert roots <= allowed_roots, f"roots not in the contract: {roots - allowed_roots}"
    assert edges <= allowed_edges, (
        f"parent -> child edges not in the contract: {sorted(edges - allowed_edges)}"
    )


def _chain(n: int = 6) -> tuple[BlockDesign, dict[str, Footprint]]:
    d = BlockDesign(name="contract-chain")
    d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
    for i in range(n):
        d.add_instance(f"i{i}", "m")
    for i in range(n - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=4)
    fp = Footprint((ColumnKind.CLBLL, ColumnKind.CLBLM), (10, 10))
    return d, {"m": fp}


def _flow_design() -> BlockDesign:
    d = BlockDesign(name="contract-flow")
    for name, n in (("a", 150), ("b", 80)):
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=n)]))
    d.add_instance("a0", "a")
    d.add_instance("a1", "a")
    d.add_instance("b0", "b")
    d.connect("a0", "b0", width=8)
    d.connect("a1", "b0", width=8)
    return d


def test_contract_file_is_well_formed():
    roots, edges = _contract()
    assert roots
    named = roots | {p for p, _c in edges} | {c for _p, c in edges}
    # Every span the tree mentions is reachable from some root.
    reachable = set(roots)
    frontier = list(roots)
    while frontier:
        parent = frontier.pop()
        for p, c in sorted(edges):
            if p == parent and c not in reachable:
                reachable.add(c)
                frontier.append(c)
    assert named == reachable


def test_stitch(z020):
    d, fps = _chain()
    tr = Tracer()
    stitch(d, fps, z020, SAParams(max_iters=500, seed=0), tracer=tr)
    _assert_in_contract(tr)


def test_evolve(z020):
    d, fps = _chain()
    tr = Tracer()
    evolve(d, fps, z020, GAParams(move_budget=500, seed=0), tracer=tr)
    _assert_in_contract(tr)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "placer",
    [SAPlacer(SAParams(max_iters=300, seed=0)), GAPlacer(GAParams(move_budget=300, seed=0))],
    ids=["sa", "ga"],
)
def test_best_of(z020, placer, workers):
    d, fps = _chain()
    tr = Tracer()
    best_of(placer, d, fps, z020, n_seeds=2, n_workers=workers, tracer=tr)
    _assert_in_contract(tr)


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_run_rw_flow(z020, n_seeds):
    tr = Tracer()
    run_rw_flow(
        _flow_design(), z020, FixedCF(1.5),
        sa_params=SAParams(max_iters=300, seed=0), n_seeds=n_seeds, tracer=tr,
    )
    _assert_in_contract(tr)


@pytest.mark.parametrize("workers", [1, 2])
def test_implement_design(z020, workers):
    tr = Tracer()
    implement_design(_flow_design(), z020, FixedCF(1.5), n_workers=workers, tracer=tr)
    _assert_in_contract(tr)


@pytest.mark.parametrize("workers", [1, 2])
def test_generate_dataset(workers):
    from repro.dataset.generate import generate_dataset

    tr = Tracer()
    generate_dataset(6, seed=0, workers=workers, tracer=tr)
    _assert_in_contract(tr)


def test_dse_evaluate(z020):
    tr = Tracer()
    ex = DSEExplorer(
        _flow_design(), z020, FixedCF(1.5),
        sa_params=SAParams(max_iters=300, seed=0), placers="portfolio", tracer=tr,
    )
    ex.evaluate("base")
    _assert_in_contract(tr)
