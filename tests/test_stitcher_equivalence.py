"""Kernel-vs-reference equivalence.

The library's move kernel must behave exactly like the straightforward
oracle in ``tests/kernel_reference.py``: for a fixed seed it produces
bitwise-identical placements, costs and history on designs of several
sizes.  This holds exactly (not approximately) because both kernels
share the driver's batched random stream and, with integer edge widths,
every HPWL term is a dyadic rational that float64 evaluates exactly in
any summation order.
"""

import importlib
import inspect

import numpy as np
import pytest

from repro.device.column import ColumnKind
from repro.device.grid import DeviceGrid
from repro.flow.blockdesign import BlockDesign
from repro.flow.evolve import GAParams, evolve
from repro.flow.stitcher import SAParams, stitch
from repro.place.shapes import Footprint
from repro.place_kernel.uniform import UniformBuffer
from repro.rtlgen.base import RTLModule
from repro.rtlgen.constructs import RandomLogicCloud
from tests.kernel_reference import reference_kernel

_LL = ColumnKind.CLBLL
_LM = ColumnKind.CLBLM

#: Degenerate fabrics the z020-only suite never exercised: a grid so
#: narrow that footprints have a single anchor column, and a grid built
#: from one site type only (every anchor run overlaps every other).
_GRID_CASES = {
    "narrow": (
        DeviceGrid.from_kinds("narrow", [_LL, _LM, _LL], n_regions=1),
        {
            "pair": Footprint((_LL, _LM), (10, 10)),
            "tall": Footprint((_LM,), (22,)),
        },
    ),
    "single-type": (
        DeviceGrid.from_kinds("single", [_LL] * 6, n_regions=1),
        {
            "pair": Footprint((_LL, _LL), (8, 8)),
            "tall": Footprint((_LL,), (18,)),
        },
    ),
    "hub": (
        DeviceGrid.from_kinds("hub", [_LL, _LM] * 10 + [_LL], n_regions=1),
        {
            "hub": Footprint((_LL, _LM), (5, 5)),
            "spoke": Footprint((_LM,), (6,)),
            "pair": Footprint((_LM, _LL), (8, 5)),
        },
    ),
}


def _case_design(fps: dict[str, Footprint], n: int = 10) -> BlockDesign:
    d = BlockDesign(name="gridcase")
    for name in fps:
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=4)]))
    mods = list(fps)
    for i in range(n):
        d.add_instance(f"i{i}", mods[i % len(mods)])
    for i in range(n - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=1 + i % 3)
    return d


def _hub_design(fps: dict[str, Footprint], n_spokes: int = 40) -> BlockDesign:
    """One hub wired to ``n_spokes`` spokes, plus edge-list corner cases.

    The hub's degree is far above the handful of neighbours a cnvW1A1
    block has, so a kernel that switches cost strategy by degree is
    exercised on both sides, and its edges are wide enough to overflow
    the channels around it.  The hub and ``i42`` carry self-loops and
    the ``pair`` instances ``i41``/``i42`` are joined by a duplicate
    edge, so neighbour lists hold repeated and self-referencing
    entries; the pair is the only member of its module, so every swap
    of that group exchanges two neighbours.
    """
    d = BlockDesign(name="hubcase")
    for name in fps:
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=4)]))
    d.add_instance("i0", "hub")
    for k in range(1, n_spokes + 1):
        d.add_instance(f"i{k}", "spoke")
        d.connect("i0", f"i{k}", width=8 + k % 8)
    d.add_instance(f"i{n_spokes + 1}", "pair")
    d.add_instance(f"i{n_spokes + 2}", "pair")
    p0, p1 = f"i{n_spokes + 1}", f"i{n_spokes + 2}"
    d.connect("i0", "i0", width=5)
    d.connect(p0, p1, width=2)
    d.connect(p1, p0, width=2)
    d.connect(p1, p1, width=1)
    d.connect("i0", p0, width=3)
    d.connect(p1, "i1", width=1)
    d.connect("i1", "i2", width=2)
    return d


def _grid_case(case: str) -> tuple[DeviceGrid, BlockDesign, dict[str, Footprint]]:
    grid, fps = _GRID_CASES[case]
    design = _hub_design(fps) if case == "hub" else _case_design(fps)
    return grid, design, fps


def _mixed_design(n_instances: int) -> tuple[BlockDesign, dict[str, Footprint]]:
    """A design mixing soft, hard-block and ragged footprints."""
    fps = {
        "soft": Footprint((_LL, _LM), (12, 12)),
        "ragged": Footprint((_LM, _LL, _LL), (18, 9, 4)),
        "hard": Footprint((_LL, _LM, ColumnKind.BRAM), (10, 10, 10)),
    }
    d = BlockDesign(name=f"equiv{n_instances}")
    for name in fps:
        d.add_module(RTLModule.make(name, [RandomLogicCloud(n_luts=4)]))
    mods = list(fps)
    for i in range(n_instances):
        d.add_instance(f"i{i}", mods[i % len(mods)])
    for i in range(n_instances - 1):
        d.connect(f"i{i}", f"i{i + 1}", width=1 + i % 7)
    # A few chords so some nodes have degree > 2.
    for i in range(0, n_instances - 4, 5):
        d.connect(f"i{i}", f"i{i + 4}", width=3)
    return d, fps


#: Runs that pin the random stream a kernel draws from: a temperature
#: step of 7 moves, which does not divide the 256-draw buffer block (so
#: refills land mid-move), both route-aware cost terms, and the GA, whose
#: repair phase runs the move loop at temperature 0.
_VARIANTS = {
    "steps7": lambda d, fps, grid, seed: stitch(
        d, fps, grid, SAParams(max_iters=1500, steps_per_temp=7, seed=seed),
    ),
    "route": lambda d, fps, grid, seed: stitch(
        d, fps, grid,
        SAParams(
            max_iters=1500, seed=seed, congestion_weight=0.5, timing_weight=0.25
        ),
    ),
    "evolve": lambda d, fps, grid, seed: evolve(
        d, fps, grid, GAParams(move_budget=1500, seed=seed)
    ),
}


@pytest.fixture
def buffers(monkeypatch) -> list[UniformBuffer]:
    """Every :class:`UniformBuffer` the stitcher and the GA create, in order."""
    made: list[UniformBuffer] = []

    def record(rng, block):
        u = UniformBuffer(rng, block)
        made.append(u)
        return u

    # ``repro.flow`` re-exports the functions under the module names.
    for name in ("repro.flow.stitcher", "repro.flow.evolve"):
        monkeypatch.setattr(importlib.import_module(name), "UniformBuffer", record)
    return made


def _assert_variant_agrees(variant, d, fps, grid, seed, buffers) -> None:
    """Both kernels give the same result and leave the stream in one place."""
    fast = _VARIANTS[variant](d, fps, grid, seed)
    with reference_kernel():
        ref = _VARIANTS[variant](d, fps, grid, seed)
    assert fast == ref
    assert fast.history == ref.history
    assert fast.congestion_cost == ref.congestion_cost
    assert fast.timing_cost == ref.timing_cost
    assert np.array_equal(fast.occupancy, ref.occupancy)
    for name in (
        "move_attempts",
        "place_attempts",
        "swap_attempts",
        "move_accepts",
        "place_accepts",
        "swap_accepts",
        "illegal_moves",
        "temperature_trace",
    ):
        assert getattr(fast.stats, name) == getattr(ref.stats, name), name
    u_fast, u_ref = buffers
    assert [u_fast.next() for _ in range(3)] == [u_ref.next() for _ in range(3)]


@pytest.mark.parametrize("n_instances", [4, 12, 30])
@pytest.mark.parametrize("seed", [0, 3])
class TestKernelEquivalence:
    def test_identical_results(self, z020, n_instances, seed):
        d, fps = _mixed_design(n_instances)
        params = SAParams(max_iters=3000, seed=seed)
        fast = stitch(d, fps, z020, params)
        with reference_kernel():
            ref = stitch(d, fps, z020, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.wirelength == ref.wirelength
        assert fast.history == ref.history
        assert fast.n_placed == ref.n_placed
        assert fast.n_unplaced == ref.n_unplaced
        assert fast.iterations == ref.iterations
        assert fast.converged_at == ref.converged_at
        assert fast.illegal_moves == ref.illegal_moves
        assert np.array_equal(fast.occupancy, ref.occupancy)

    def test_counters_agree(self, z020, n_instances, seed):
        """Move/accept counters are part of the shared driver contract."""
        d, fps = _mixed_design(n_instances)
        params = SAParams(max_iters=1500, seed=seed)
        fast = stitch(d, fps, z020, params).stats
        with reference_kernel() as built:
            ref = stitch(d, fps, z020, params).stats
        assert len(built) == 1
        for name in (
            "move_attempts",
            "place_attempts",
            "swap_attempts",
            "move_accepts",
            "place_accepts",
            "swap_accepts",
            "illegal_moves",
        ):
            assert getattr(fast, name) == getattr(ref, name), name
        assert fast.temperature_trace == ref.temperature_trace

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_stream_pinned(self, z020, n_instances, seed, variant, buffers):
        d, fps = _mixed_design(n_instances)
        _assert_variant_agrees(variant, d, fps, z020, seed, buffers)


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
@pytest.mark.parametrize("seed", [0, 3])
class TestGridShapeEquivalence:
    """Equivalence on degenerate fabrics and a degenerate edge list.

    These shapes stress the fast kernel differently from the z020: a
    narrow grid leaves one compatible anchor per footprint (every move
    is a same-column shuffle), a single-site-type grid makes every
    anchor run overlap, maximizing bitmask aliasing between columns, and
    the hub case gives one instance 40+ neighbours, self-loops,
    duplicate edges and swaps between neighbours.
    """

    def test_identical_results(self, case, seed):
        grid, d, fps = _grid_case(case)
        params = SAParams(max_iters=2000, seed=seed)
        fast = stitch(d, fps, grid, params)
        with reference_kernel():
            ref = stitch(d, fps, grid, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.wirelength == ref.wirelength
        assert fast.history == ref.history
        assert fast.illegal_moves == ref.illegal_moves
        assert np.array_equal(fast.occupancy, ref.occupancy)

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_stream_pinned(self, case, seed, variant, buffers):
        grid, d, fps = _grid_case(case)
        _assert_variant_agrees(variant, d, fps, grid, seed, buffers)

    def test_placements_legal(self, case, seed):
        """Both kernels respect the degenerate grid's geometry."""
        grid, d, fps = _grid_case(case)
        res = stitch(d, fps, grid, SAParams(max_iters=2000, seed=seed))
        assert res.occupancy.max(initial=0) <= 1
        kinds = grid.kinds()
        for k in range(len(d.instances)):
            pos = res.placements[f"i{k}"]
            if pos is None:
                continue
            fp = fps[d.instances[k].module].trimmed()
            x, y = pos
            assert kinds[x : x + fp.width] == fp.col_kinds
            assert 0 <= y <= grid.height_clbs - fp.max_height


class TestKernelSelection:
    def test_unknown_kernel_rejected(self, z020):
        """``"fast"`` is the only kernel; the reference is a test fixture."""
        d, fps = _mixed_design(2)
        for kernel in ("turbo", "reference"):
            with pytest.raises(ValueError, match="unknown kernel"):
                stitch(d, fps, z020, SAParams(max_iters=100), kernel=kernel)

    def test_only_stitch_takes_a_kernel(self):
        """No other entry point selects a kernel, and the package exports
        no kernel registry: the reference lives in the test suite."""
        import repro.place_kernel as pk
        from repro.dse.explorer import DSEExplorer
        from repro.flow.placers import (
            GAPlacer,
            SAPlacer,
            WarmStartedSAPlacer,
            default_portfolio,
        )
        from repro.flow.prflow import refloorplan
        from repro.place_kernel import PlacementProblem

        for fn in (evolve, SAPlacer, GAPlacer, WarmStartedSAPlacer,
                   default_portfolio, refloorplan, DSEExplorer,
                   PlacementProblem.make_kernel):
            assert "kernel" not in inspect.signature(fn).parameters, fn
        assert inspect.signature(stitch).parameters["kernel"].default == "fast"
        for name in ("KERNELS", "make_kernel", "FastKernel", "ReferenceKernel"):
            assert not hasattr(pk, name), name

    def test_crowded_device_equivalence(self, tiny_grid):
        """Equivalence holds when most moves are illegal (full device)."""
        fps = {"m": Footprint((_LL,), (40,))}
        d = BlockDesign(name="crowded")
        d.add_module(RTLModule.make("m", [RandomLogicCloud(n_luts=4)]))
        for i in range(8):
            d.add_instance(f"i{i}", "m")
        for i in range(7):
            d.connect(f"i{i}", f"i{i + 1}", width=2)
        params = SAParams(max_iters=2000, seed=1)
        fast = stitch(d, fps, tiny_grid, params)
        with reference_kernel():
            ref = stitch(d, fps, tiny_grid, params)
        assert fast.placements == ref.placements
        assert fast.final_cost == ref.final_cost
        assert fast.history == ref.history
        assert fast.illegal_moves == ref.illegal_moves
