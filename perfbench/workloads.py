"""The three workloads: inputs drawn from a seed, a timed round, checks.

Each workload runs sequentially in one process (``workers=1`` /
``n_workers=1``).  A round is a fixed amount of work for a given seed,
split into named units, so every count it produces must repeat exactly;
the timed part of a run repeats rounds and reports per-unit medians.

``label_sweep``
    ``generate_dataset`` on the xc7z020 with the paper's 0.9/0.02 sweep,
    as eight 30-module sweeps: synthesis, grid queries, PBlock sizing and
    packing, no ML and no stitching.  No module repeats, so a synthesis
    content cache has nothing to reuse here.
``estimator_train``
    Set-up labels and balances a sweep; the timed round fits the
    Table II grid (DT and RF on four feature sets, NN on ``all``,
    linear regression on ``linreg9``) and predicts the 20 % held-out
    split.  The forest does nearly all timed work.
``cnv_flow``
    The paper's own design: a cold ``cnv_design()`` calibration, the
    minimal-CF pre-implementation into a fresh ``ModuleCache``, an ECO
    re-implementation of one changed module against that cache, the
    constant-CF pre-implementation, and SA stitching of both footprint
    sets on the xc7z020 (Fig. 5) and the xc7z045 (§VIII).  The only
    workload where the placement kernel and the module cache work.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

from checks import (
    Checks,
    eco_mismatches,
    estimator_problems,
    label_is_minimal,
    relative_errors_pct,
)
from shims import Layer, Span, layer_stats, percentile_ms

__all__ = ["WORKLOADS", "UnitTimer", "per_layer_metrics"]


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


class Round:
    """What one round produced: exact counts plus objects for checks."""

    def __init__(self, counts: dict, data: dict, layer: dict | None = None) -> None:
        self.counts = counts
        self.data = data
        #: Per-layer values read from the program's own results.
        self.layer = layer or {}


class UnitTimer:
    """Time of each named unit of a round, over all rounds.

    Units are timed in process CPU time: the rounds are sequential and do
    no I/O, so on an idle machine it equals wall time, and on a shared
    virtual machine it leaves out the time the host runs other guests.
    A round's time is estimated as the sum over its units of each unit's
    median across rounds: a slow-down that hits one repetition of a
    short unit is filtered out, while every unit still counts.
    """

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {}

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        t0 = time.process_time()
        try:
            yield
        finally:
            self.times.setdefault(name, []).append(time.process_time() - t0)

    def median(self, name: str) -> float:
        return statistics.median(self.times[name])

    def total(self) -> float:
        return sum(self.median(name) for name in self.times)


class LabelSweep:
    name = "label_sweep"
    #: The sweep is labeled as ``n_parts`` sub-sweeps of ``n_modules``
    #: modules each, one timed unit apiece (see ``UnitTimer``).
    n_parts, n_modules = 8, 30
    #: Fresh-interpreter set-ups per untraced run, the timed one included.
    setups = 5
    expected_layers = (
        "dataset.generate_dataset", "rtlgen.generate_sweep",
        "synth.synthesize", "synth.opt_design", "netlist.compute_stats",
        "place.quick_place", "pblock.minimal_cf", "pblock.build_pblock",
        "place.pack", "device.find_window", "device.caps_in_rect",
        "features.make_record",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, rec) -> dict:
        # Set-up pays for every import a round needs.
        import repro.dataset.generate  # noqa: F401
        from repro.device.parts import xc7z020

        self.grid = xc7z020()
        return {"counts": {"grid": self.grid.summary()}}

    def run_round(self, rec, unit: UnitTimer) -> Round:
        from repro.dataset.generate import generate_dataset

        records, reports = [], []
        for part in range(self.n_parts):
            # Distinct sweeps per part: seed * 100 + part never collides
            # across seeds for fewer than 100 parts.
            with unit(f"sweep{part}"), rec.span("dataset.generate_dataset"):
                part_records, report = generate_dataset(
                    self.n_modules, self.seed * 100 + part, self.grid,
                    start=0.9, step=0.02, workers=1,
                )
            records += part_records
            reports.append(report)
        counts = {
            "tool_runs": sum(r.n_runs for r in reports),
            "n_labeled": len(records),
            "n_trivial": sum(r.n_trivial for r in reports),
            "n_infeasible": sum(r.n_infeasible for r in reports),
            "labels": _digest((r.name, r.min_cf) for r in records),
        }
        return Round(counts, {"records": records})

    def check(self, out: Round, checks: Checks) -> None:
        for record in out.data["records"]:
            checks.check(
                "label is minimal",
                label_is_minimal(record, self.grid),
                f"{record.name} min_cf={record.min_cf}",
            )

    def end_to_end(self, unit: UnitTimer, out: Round, setups: list[dict]) -> dict:
        run_s = unit.total()
        return {
            "run_s": run_s,
            "tool_runs": out.counts["tool_runs"],
            "modules_per_s": out.counts["n_labeled"] / run_s,
        }


#: Feature sets of Table II, in column order.
TABLE2_SETS = ("classical", "classical_placement", "additional", "all")


class EstimatorTrain:
    name = "estimator_train"
    n_modules = 400
    rf_trees = 60
    #: Set-up labels a whole sweep, so fewer fresh-interpreter set-ups.
    setups = 2
    expected_layers = (
        "dataset.generate_dataset", "dataset.balance_dataset",
        "synth.synthesize", "pblock.minimal_cf", "place.pack",
        "features.matrix",
        "ml.fit.dt", "ml.fit.rf", "ml.fit.nn", "ml.fit.linreg",
        "ml.predict.dt", "ml.predict.rf", "ml.predict.nn", "ml.predict.linreg",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, rec) -> dict:
        from repro.dataset.balance import balance_dataset
        from repro.dataset.generate import generate_dataset
        from repro.device.parts import xc7z020
        from repro.ml.split import train_test_split

        grid = xc7z020()
        t0 = time.process_time()
        with rec.span("dataset.generate_dataset"):
            records, report = generate_dataset(
                self.n_modules, self.seed, grid, start=0.9, step=0.02, workers=1
            )
        label_s = time.process_time() - t0
        with rec.span("dataset.balance_dataset"):
            balanced = balance_dataset(records, seed=self.seed)
        train, test = train_test_split(len(balanced), test_fraction=0.2, seed=self.seed)
        self.train = [balanced[i] for i in train]
        self.test = [balanced[i] for i in test]
        return {
            "counts": {
                "tool_runs": report.n_runs,
                "n_labeled": report.n_labeled,
                "n_balanced": len(balanced),
                "labels": _digest((r.name, r.min_cf) for r in balanced),
            },
            "label_s": label_s,
        }

    def run_round(self, rec, unit: UnitTimer) -> Round:
        from repro.estimator.cf_estimator import CFEstimator

        grid = [(kind, fs) for fs in TABLE2_SETS for kind in ("dt", "rf")]
        grid += [("nn", "all"), ("linreg", "linreg9")]
        y_test = [r.min_cf for r in self.test]
        errors: dict[str, float] = {}
        samples: dict[str, list[float]] = {}
        for kind, feature_set in grid:
            with unit(f"{kind}/{feature_set}"):
                est = CFEstimator(
                    kind=kind, feature_set=feature_set, seed=self.seed,
                    rf_trees=self.rf_trees,
                )
                with rec.span(f"ml.fit.{kind}"):
                    est.fit(self.train)
                with rec.span(f"ml.predict.{kind}"):
                    pred = est.predict_many(self.test)
            key = f"{kind}/{feature_set}"
            samples[key] = relative_errors_pct(y_test, pred)
            errors[key] = statistics.fmean(samples[key])
        counts = {f"error.{k}": v for k, v in errors.items()}
        layer = {"result.estimator_error_pct": errors["rf/additional"]}
        return Round(counts, {"errors": errors, "samples": samples}, layer)

    def check(self, out: Round, checks: Checks) -> None:
        samples = out.data["samples"]
        problems = estimator_problems(
            out.data["errors"], samples["rf/additional"], samples["rf/classical"]
        )
        checks.check("Table II errors", not problems, "; ".join(problems))

    def end_to_end(self, unit: UnitTimer, out: Round, setups: list[dict]) -> dict:
        label_s = statistics.median(s["label_s"] for s in setups)
        counts = setups[0]["counts"]
        return {
            "run_s": unit.total(),
            "tool_runs": counts["tool_runs"],
            "modules_per_s": counts["n_labeled"] / label_s,
        }


#: cnvW1A1 has 74 unique modules and 175 instances (Table I, Fig. 5).
CNV_MODULES, CNV_INSTANCES = 74, 175
#: The ECO step: a new folding of the layer-5 MVAU.
ECO_MODULE, ECO_SCALE = "mvau_12", 2.4


class CnvFlow:
    name = "cnv_flow"
    setups = 5
    expected_layers = (
        "cnv.calibrate", "cnv.calibrate_scale", "synth.synthesize",
        "synth.opt_design", "netlist.compute_stats", "place.quick_place",
        "pblock.minimal_cf", "pblock.build_pblock", "place.pack",
        "device.find_window",
        "flow.implement_design.min", "flow.implement_design.eco",
        "flow.implement_design.const", "flow.stitch.z020", "flow.stitch.z045",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, rec) -> dict:
        # Set-up pays for every import a round needs.
        import repro.analysis.exp_incremental  # noqa: F401
        import repro.cnv.design  # noqa: F401
        import repro.flow.preimpl  # noqa: F401
        import repro.flow.stitcher  # noqa: F401
        from repro.device.parts import xc7z020, xc7z045

        self.z020, self.z045 = xc7z020(), xc7z045()
        return {"counts": {"grids": self.z020.summary() + self.z045.summary()}}

    def _sa(self, grid):
        from repro.flow.stitcher import SAParams

        if grid is self.z020:
            return SAParams(seed=self.seed)
        return SAParams(max_iters=200000, seed=self.seed)

    def run_round(self, rec, unit: UnitTimer) -> Round:
        from repro.analysis.exp_incremental import modify_module
        from repro.cnv import design as cnv
        from repro.flow.cache import ModuleCache
        from repro.flow.policy import FixedCF, MinimalCFPolicy
        from repro.flow.preimpl import implement_design
        from repro.flow.stitcher import stitch

        # Every `repro report` session pays the calibration once: start
        # each round with the design's process-wide memos empty.
        for memo in (cnv.cnv_design, cnv.cnv_module_stats, cnv._calibrated_modules):
            memo.cache_clear()
        with unit("calibrate"), rec.span("cnv.calibrate"):
            design = cnv.cnv_design()
        cache = ModuleCache()
        with unit("min"), rec.span("flow.implement_design.min"):
            pre = implement_design(
                design, self.z020, MinimalCFPolicy(), cache=cache, n_workers=1
            )
        with unit("eco"), rec.span("flow.implement_design.eco"):
            eco_design = modify_module(design, ECO_MODULE, ECO_SCALE)
            eco = implement_design(
                eco_design, self.z020, MinimalCFPolicy(), cache=cache, n_workers=1
            )
        with unit("const"), rec.span("flow.implement_design.const"):
            const_cf = round(max(m.outcome.cf for m in pre.values()) + 1e-9, 2)
            const = implement_design(
                design, self.z020, FixedCF(const_cf), cache=cache, n_workers=1
            )

        stitched = {}
        for grid_name, grid in (("z020", self.z020), ("z045", self.z045)):
            with unit(f"stitch.{grid_name}"), rec.span(f"flow.stitch.{grid_name}"):
                for policy, impl in (("min", pre), ("const", const)):
                    stitched[grid_name, policy] = self._stitch(
                        stitch, design, impl, grid
                    )

        counts = {
            "tool_runs.min": pre.stats.new_tool_runs,
            "tool_runs.eco": eco.stats.new_tool_runs,
            "tool_runs.const": const.stats.new_tool_runs,
            "eco.cache_hits": eco.stats.cache_hits,
            "const_cf": const_cf,
            "cfs": _digest((n, m.outcome.cf) for n, m in pre.items()),
        }
        for (grid_name, policy), res in stitched.items():
            key = f"sa.{grid_name}.{policy}"
            counts[key + ".iterations"] = res.iterations
            counts[key + ".n_unplaced"] = res.n_unplaced
            counts[key + ".final_cost"] = res.final_cost
            counts[key + ".illegal_moves"] = res.illegal_moves
        data = {
            "pre": pre, "eco": eco, "eco_design": eco_design, "const": const,
            "stitched": stitched,
        }
        return Round(counts, data, self._layer(cache, stitched))

    def _stitch(self, stitch, design, impl, grid):
        footprints = {
            name: m.outcome.result.footprint
            for name, m in impl.items()
            if m.outcome.result.footprint is not None
        }
        if len(footprints) < len(design.modules):
            design = design.subset(set(footprints))
        return stitch(design, footprints, grid, self._sa(grid), kernel="fast")

    def _layer(self, cache, stitched) -> dict:
        runs = list(stitched.values())
        stats = [r.stats for r in runs]
        attempts = sum(s.move_attempts + s.place_attempts + s.swap_attempts for s in stats)
        accepts = sum(s.move_accepts + s.place_accepts + s.swap_accepts for s in stats)
        place_attempts = sum(s.place_attempts for s in stats)
        return {
            "flow.cache.hits": cache.stats.hits,
            "flow.cache.misses": cache.stats.misses,
            "flow.cache.writes": cache.stats.stores,
            "place_kernel.iters_per_s": (
                sum(r.iterations for r in runs) / sum(s.anneal_s for s in stats)
            ),
            "place_kernel.accept_rate": accepts / attempts if attempts else 0.0,
            "place_kernel.place_accept_share": (
                sum(s.place_accepts for s in stats) / place_attempts
                if place_attempts else 0.0
            ),
            "place_kernel.illegal_moves": sum(s.illegal_moves for s in stats),
            "result.unplaced_min_cf": stitched["z020", "min"].n_unplaced,
            "result.unplaced_const_cf": stitched["z020", "const"].n_unplaced,
            "result.stitch_cost": stitched["z045", "min"].final_cost,
        }

    def check(self, out: Round, checks: Checks) -> None:
        from repro.flow.policy import MinimalCFPolicy
        from repro.flow.preimpl import implement_design

        d = out.data
        for label in ("pre", "const"):
            impl = d[label]
            checks.check(
                f"{label} implements all {CNV_MODULES} modules",
                len(impl) == CNV_MODULES and not impl.report,
                f"{len(impl)} implemented, infeasible: {impl.report.modules}",
            )
        for (grid_name, policy), res in d["stitched"].items():
            checks.check(
                f"{grid_name}/{policy} placed + unplaced = {CNV_INSTANCES}",
                res.n_placed + res.n_unplaced == CNV_INSTANCES,
                f"{res.n_placed} + {res.n_unplaced}",
            )
        lo, hi = d["stitched"]["z020", "min"], d["stitched"]["z020", "const"]
        checks.check(
            "z020 minimal CF leaves fewer blocks unplaced than constant CF",
            lo.n_unplaced < hi.n_unplaced,
            f"{lo.n_unplaced} vs {hi.n_unplaced}",
        )
        eco = d["eco"]
        checks.check(
            "ECO reuses every unchanged module",
            eco.stats.cache_hits == CNV_MODULES - 1,
            f"{eco.stats.cache_hits} hits",
        )
        reference = implement_design(
            d["eco_design"], self.z020, MinimalCFPolicy(), n_workers=1
        )
        bad = eco_mismatches(eco, reference)
        checks.check(
            "ECO result equals a cache-less implementation", not bad, ", ".join(bad)
        )

    def end_to_end(self, unit: UnitTimer, out: Round, setups: list[dict]) -> dict:
        c = out.counts
        to_min_s = unit.median("calibrate") + unit.median("min")
        return {
            "run_s": unit.total(),
            "tool_runs": c["tool_runs.min"] + c["tool_runs.eco"] + c["tool_runs.const"],
            "modules_per_s": CNV_MODULES / to_min_s,
        }


WORKLOADS = {w.name: w for w in (LabelSweep, EstimatorTrain, CnvFlow)}


# ---------------------------------------------------------------- per layer


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(spans: list[Span], out: Round) -> dict:
    """Every per-layer metric of one traced set-up plus round.

    Layers that do no work on a workload read 0.
    """
    layers = layer_stats(spans)

    def get(name: str) -> Layer:
        return layers.get(name) or Layer()

    m: dict[str, float] = {}
    syn = get("synth.synthesize")
    seen: set[str] = set()
    repeats = 0
    for module in syn.tags:
        key = repr(module)
        repeats += key in seen
        seen.add(key)
    m["synth.synthesize.calls"] = syn.calls
    m["synth.synthesize.self_s"] = syn.self_s
    m["synth.synthesize.repeat_share"] = _share(repeats, syn.calls)
    m["synth.opt_design.self_s"] = get("synth.opt_design").self_s
    m["netlist.compute_stats.calls"] = get("netlist.compute_stats").calls
    m["netlist.compute_stats.self_s"] = get("netlist.compute_stats").self_s

    fw = get("device.find_window")
    m["device.find_window.calls"] = fw.calls
    m["device.find_window.self_s"] = fw.self_s
    m["device.find_window.distinct_share"] = _share(len(set(fw.tags)), fw.calls)
    m["device.caps_in_rect.calls"] = get("device.caps_in_rect").calls
    m["device.caps_in_rect.self_s"] = get("device.caps_in_rect").self_s

    bp = get("pblock.build_pblock")
    m["pblock.build_pblock.calls"] = bp.calls
    m["pblock.build_pblock.self_s"] = bp.self_s
    m["pblock.build_pblock.failed"] = sum(
        1 for t in bp.tags if isinstance(t, tuple) and t[0] == "raised"
    )
    mc = get("pblock.minimal_cf")
    runs = sum(t[1] if isinstance(t, tuple) else t for t in mc.tags)
    m["pblock.minimal_cf.calls"] = mc.calls
    m["pblock.minimal_cf.self_s"] = mc.self_s
    m["pblock.minimal_cf.p50_ms"] = percentile_ms(mc.durations, 50)
    m["pblock.minimal_cf.p95_ms"] = percentile_ms(mc.durations, 95)
    m["pblock.minimal_cf.runs_per_label"] = _share(runs, mc.calls)
    pk = get("place.pack")
    m["place.pack.calls"] = pk.calls
    m["place.pack.self_s"] = pk.self_s
    m["place.pack.feasible_share"] = _share(sum(1 for t in pk.tags if t is True), pk.calls)
    m["place.quick_place.self_s"] = get("place.quick_place").self_s

    m["rtlgen.generate_sweep.self_s"] = get("rtlgen.generate_sweep").self_s
    m["features.make_record.self_s"] = get("features.make_record").self_s
    m["dataset.generate_dataset.s"] = get("dataset.generate_dataset").total_s
    m["dataset.balance_dataset.s"] = get("dataset.balance_dataset").total_s

    m["features.matrix.self_s"] = get("features.matrix").self_s
    for kind in ("rf", "dt", "nn", "linreg"):
        m[f"ml.fit.{kind}.self_s"] = get(f"ml.fit.{kind}").self_s
        m[f"ml.predict.{kind}.self_s"] = get(f"ml.predict.{kind}").self_s

    calibrations = [s for s in spans if s.name == "cnv.calibrate"]
    m["cnv.calibrate.s"] = get("cnv.calibrate").total_s
    m["cnv.calibrate.synth_calls"] = sum(
        1
        for s in spans
        if s.name == "synth.synthesize"
        and any(c.start <= s.start and s.end <= c.end for c in calibrations)
    )
    for step in ("min", "eco", "const"):
        m[f"flow.implement_design.{step}.s"] = get(f"flow.implement_design.{step}").total_s
        m[f"flow.implement_design.{step}.tool_runs"] = out.counts.get(f"tool_runs.{step}", 0)
    for key in ("hits", "misses", "writes"):
        m[f"flow.cache.{key}"] = out.layer.get(f"flow.cache.{key}", 0)
    for grid_name in ("z020", "z045"):
        m[f"flow.stitch.{grid_name}.s"] = get(f"flow.stitch.{grid_name}").total_s
    for key in ("iters_per_s", "accept_rate", "place_accept_share", "illegal_moves"):
        m[f"place_kernel.{key}"] = out.layer.get(f"place_kernel.{key}", 0)

    # Root time that no layer span covers.
    roots = {s.index: s for s in spans if s.parent < 0}
    m["trace.other_s"] = sum(r.end - r.start for r in roots.values()) - sum(
        s.end - s.start for s in spans if s.parent in roots
    )
    for key in ("estimator_error_pct", "unplaced_min_cf", "unplaced_const_cf", "stitch_cost"):
        m[f"result.{key}"] = out.layer.get(f"result.{key}", 0)
    return m
