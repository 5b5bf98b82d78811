"""Output checks whose reference is not the code under test.

Each check is one operation: a failed check counts in ``failed`` and in
``ok_ops_pct``, and makes the run report ``correct: false``.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "Checks",
    "compare_counts",
    "eco_mismatches",
    "estimator_problems",
    "label_is_minimal",
    "relative_errors_pct",
]

#: The paper's CF sweep: start, step (§VI-C).
SWEEP_START = 0.9
SWEEP_STEP = 0.02


class Checks:
    """Tally of attempted and failed checks, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def label_is_minimal(record, grid) -> bool:
    """Re-derive one minimal-CF label with ``build_pblock`` + ``pack``.

    The label must be feasible, and one sweep step below it must be
    infeasible unless the label sits at the sweep start.
    """
    from repro.pblock.generator import PBlockGenerationError, build_pblock
    from repro.place.packer import pack

    def feasible(cf: float) -> bool:
        try:
            pblock = build_pblock(record.stats, record.report, cf, grid)
        except PBlockGenerationError:
            return False
        return pack(record.stats, pblock).feasible

    cf = record.min_cf
    if not cf >= SWEEP_START - 1e-9 or not feasible(cf):
        return False
    if abs(cf - SWEEP_START) < 1e-9:
        return True
    return not feasible(round(cf - SWEEP_STEP, 10))


def relative_errors_pct(y_true, y_pred) -> list[float]:
    """Per-sample ``|pred - true| / true`` in percent, computed here in
    plain Python rather than with the package's own metric."""
    return [
        100.0 * abs(float(p) - float(t)) / abs(float(t))
        for t, p in zip(y_true, y_pred)
    ]


def estimator_problems(
    errors: dict[str, float], additional: list[float], classical: list[float]
) -> list[str]:
    """Problems with a Table II error grid (``kind/feature_set`` -> %).

    Every error must be finite, and the random forest on the
    ``additional`` features must not be worse than on the ``classical``
    ones.  ``additional`` and ``classical`` are its per-sample errors on
    the same held-out modules.  With ~80 held-out modules the paired
    difference has a standard error of about half a point, the size of
    the paper's gap, so "worse" means worse by more than twice that
    standard error: an exact comparison fails on some sweeps of the
    genuine program.
    """
    problems = [
        f"{key} error is {value!r}"
        for key, value in errors.items()
        if not math.isfinite(value)
    ]
    diffs = [a - c for a, c in zip(additional, classical)]
    mean = statistics.fmean(diffs)
    se = statistics.stdev(diffs) / math.sqrt(len(diffs))
    if not mean <= 2 * se:
        problems.append(
            f"rf/additional is worse than rf/classical by {mean:.2f} points "
            f"(paired standard error {se:.2f})"
        )
    return problems


def eco_mismatches(eco, reference) -> list[str]:
    """Modules whose ECO implementation (served through a warm
    ``ModuleCache``) differs from a cache-less implementation."""
    names = sorted(set(eco.modules) | set(reference.modules))
    bad = [n for n in names if eco.modules.get(n) != reference.modules.get(n)]
    if eco.report.modules != reference.report.modules:
        bad.append("infeasible set " + repr(eco.report.modules))
    return bad


def compare_counts(
    checks: Checks, label: str, expected: dict, got: dict
) -> None:
    """One check per count both sides have: it must repeat exactly."""
    for key in sorted(set(expected) & set(got)):
        checks.check(
            f"determinism {label} {key}",
            expected[key] == got[key],
            f"{expected[key]!r} != {got[key]!r}",
        )
