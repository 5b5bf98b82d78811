"""Measure every estimator kind on every feature set and decide which kinds earn their place.

Fits each kind of :data:`repro.estimator.cf_estimator.MODEL_KINDS` on
each feature set of :data:`repro.features.registry.FEATURE_SETS`, for
five seeds, and writes one row per fit to ``docs/model_zoo_table.json``:
kind, feature set, seed, relative error on the held-out 20 % and fit
seconds.  The dataset is the benchmark suite's default labeled sweep
(800 modules, balanced at 75 per bin, 120 forest trees); the seed picks
the train/test split and the model's own seed.  Rows of kinds the
estimator no longer has are carried over from the existing table.

The deletion rule (:func:`verdicts`): an extension kind (one the paper
does not evaluate, see :data:`PAPER_KINDS`) stays only if it beats the
random forest on some feature set: a lower relative error than RF's on
most seeds (both fitted on the same split) and a lower median.

Usage (a full run takes about two minutes on a 2-vCPU machine)::

    PYTHONPATH=src python benchmarks/model_zoo_table.py
    PYTHONPATH=src python benchmarks/model_zoo_table.py --decide  # rule only
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.analysis.context import ExperimentContext
from repro.estimator.cf_estimator import MODEL_KINDS, CFEstimator
from repro.features.registry import FEATURE_SETS
from repro.ml.metrics import mean_relative_error
from repro.ml.split import train_test_split

TABLE = Path(__file__).resolve().parent.parent / "docs" / "model_zoo_table.json"

#: The paper's four estimators (§VI-B); every other kind must beat RF.
PAPER_KINDS = ("linreg", "dt", "rf", "nn")
N_MODULES = 800
RF_TREES = 120
SEEDS = range(5)


def measure() -> list[dict]:
    """Every (kind, feature set, seed) fit."""
    ctx = ExperimentContext(seed=0, n_modules=N_MODULES, cap_per_bin=75,
                            rf_trees=RF_TREES)
    balanced = ctx.balanced()
    rows = []
    for seed in SEEDS:
        tr, te = train_test_split(len(balanced), 0.2, seed=seed)
        train = [balanced[i] for i in tr]
        test = [balanced[i] for i in te]
        y = np.array([r.min_cf for r in test])
        for fs in FEATURE_SETS:
            for kind in MODEL_KINDS:
                est = CFEstimator(kind=kind, feature_set=fs, seed=seed,
                                  rf_trees=RF_TREES)
                t0 = time.perf_counter()
                est.fit(train)
                fit_s = time.perf_counter() - t0
                err = mean_relative_error(y, est.predict_many(test))
                rows.append({
                    "kind": kind, "feature_set": fs, "seed": seed,
                    "rel_error": round(float(err), 6), "fit_s": round(fit_s, 4),
                })
            print(f"seed={seed} {fs}: " + ", ".join(
                f"{r['kind']}={100 * r['rel_error']:.2f}%/{r['fit_s']:.2f}s"
                for r in rows[-len(MODEL_KINDS):]), flush=True)
    return rows


def errors(rows: list[dict]) -> dict[tuple[str, str], dict[int, float]]:
    """(kind, feature set) -> {seed: relative error}."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for r in rows:
        out.setdefault((r["kind"], r["feature_set"]), {})[r["seed"]] = r["rel_error"]
    return out


def beats(mine: dict[int, float], rf: dict[int, float]) -> bool:
    """Lower error than RF on most seeds (same split each) and in the median."""
    seeds = sorted(mine.keys() & rf.keys())
    wins = sum(mine[s] < rf[s] for s in seeds)
    return 2 * wins > len(seeds) and statistics.median(
        mine[s] for s in seeds) < statistics.median(rf[s] for s in seeds)


def verdicts(rows: list[dict]) -> dict[str, list[str]]:
    """extension kind -> the feature sets on which it beats RF."""
    err = errors(rows)
    return {
        kind: [fs for k, fs in err if k == kind and ("rf", fs) in err
               and beats(err[(k, fs)], err[("rf", fs)])]
        for kind in sorted({k for k, _fs in err} - set(PAPER_KINDS))
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", type=Path, default=TABLE)
    ap.add_argument("--decide", action="store_true",
                    help="apply the rule to the existing table; measure nothing")
    args = ap.parse_args(argv)
    if args.decide:
        rows = json.loads(args.out.read_text())["rows"]
    else:
        rows = measure()
        if args.out.exists():
            old = json.loads(args.out.read_text())["rows"]
            rows += [r for r in old if r["kind"] not in MODEL_KINDS]
        args.out.write_text(json.dumps({
            "n_modules": N_MODULES, "rf_trees": RF_TREES, "rows": rows,
        }, indent=1) + "\n")
    err = errors(rows)
    for fs in FEATURE_SETS:
        print(f"{fs} median: " + ", ".join(
            f"{k}={100 * statistics.median(err[(k, f)].values()):.2f}%"
            for k, f in sorted(err) if f == fs))
    for kind, sets in verdicts(rows).items():
        print(f"{kind}: " + (f"beats rf on {', '.join(sets)} -> keep" if sets
                             else "does not beat rf -> delete"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
