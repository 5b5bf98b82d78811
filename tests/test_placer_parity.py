"""Flow-level parity pins for every placer and restart configuration.

``run_rw_flow`` is hashed on a small synthetic design for each placer in
{sa, ga, pt, gp, gp+sa} x ``n_seeds`` in {1, 3} x ``n_workers`` in
{None, 2}.  The hash covers the placements, ``final_cost``,
``n_unplaced`` and the winning ``stats.seed``, so any drift in how the
flow runs a placer, fans its restarts out or picks the winner shows up
as an exact mismatch.  The expected hashes were captured before the
placement paths were unified behind the ``Placer`` protocol.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.flow.blockdesign import BlockDesign
from repro.flow.cache import ModuleCache
from repro.flow.evolve import GAParams
from repro.flow.global_place import GPParams
from repro.flow.placers import (
    AnalyticPlacer,
    GAPlacer,
    SAPlacer,
    TemperedSAPlacer,
    WarmStartedSAPlacer,
)
from repro.flow.policy import FixedCF
from repro.flow.rwflow import run_rw_flow
from repro.flow.stitcher import SAParams
from repro.flow.tempering import PTParams
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud

#: sha256 per (placer, n_seeds); the same for every n_workers.
_EXPECTED = {
    ("sa", 1): "761d727a09c0ad452b6c23e978f572c2bed7c20e6c1fc255f71730b1bf4fa3c1",
    ("sa", 3): "eadba52febe473fe6a8857c10d842cc3bc9fc9ada1a3f6ccdb473eb7190047dd",
    ("ga", 1): "b56bf4be354cff423f0549938540a13f822287fd985f990f53fbee13076852ab",
    ("ga", 3): "b56bf4be354cff423f0549938540a13f822287fd985f990f53fbee13076852ab",
    ("pt", 1): "11deed3c4443934c811b5d8af0655740fc57ebb477672b873042b3514cb344d8",
    ("pt", 3): "17565e0904843fa7b9904aa2ff2f2557515ccfa61e49242656e5d3024d80e1d7",
    ("gp", 1): "4d888ebeaeb5abf1cc400e30182ed940c09416d110e89d4a99078e334ac847fc",
    ("gp", 3): "4d888ebeaeb5abf1cc400e30182ed940c09416d110e89d4a99078e334ac847fc",
    ("gp+sa", 1): "cc9c07836bfff996e657a37570957eab6554f7cd1ba6bc445c5b34becc613562",
    ("gp+sa", 3): "50910209a242fab8017c805a35f799842030919e6caafc7fd0c906cea6ef5f7f",
}


@pytest.fixture(scope="module")
def design() -> BlockDesign:
    d = BlockDesign(name="parity")
    d.add_module(RTLModule.make("a", [RandomLogicCloud(n_luts=120)]))
    d.add_module(RTLModule.make("b", [RandomLogicCloud(n_luts=260)]))
    for i in range(7):
        d.add_instance(f"i{i}", "ab"[i % 2])
    for i in range(6):
        d.connect(f"i{i}", f"i{i + 1}", width=1 + i % 3)
    d.connect("i0", "i5", width=2)
    return d


@pytest.fixture(scope="module")
def cache() -> ModuleCache:
    return ModuleCache()


def _flow(design, grid, cache, placer, n_seeds, n_workers):
    sa = SAParams(max_iters=600, seed=1)
    placer = {
        "sa": lambda: SAPlacer(sa),
        "ga": lambda: GAPlacer(GAParams(move_budget=600, seed=1)),
        "pt": lambda: TemperedSAPlacer(PTParams(max_iters=600, n_chains=2,
                                                steps_per_round=50, seed=1)),
        "gp": lambda: AnalyticPlacer(GPParams(seed=1)),
        "gp+sa": lambda: WarmStartedSAPlacer(sa, warm="gp",
                                             gp_params=GPParams(seed=1)),
    }[placer]()
    return run_rw_flow(
        design, grid, FixedCF(1.6), placer=placer,
        n_seeds=n_seeds, n_workers=n_workers, cache=cache,
    )


def _digest(result) -> str:
    s = result.stitch
    payload = json.dumps([
        sorted(s.placements.items()), s.final_cost, s.n_unplaced,
        s.stats.seed if s.stats is not None else None,
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("n_workers", [None, 2])
@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("placer", ["sa", "ga", "pt", "gp", "gp+sa"])
def test_flow_parity(design, cache, z020, placer, n_seeds, n_workers):
    res = _flow(design, z020, cache, placer, n_seeds, n_workers)
    assert _digest(res) == _EXPECTED[placer, n_seeds]
