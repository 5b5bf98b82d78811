"""Show that the output checks catch corrupted results.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs each check of the benchmark once on a genuine result and once on a
deliberately corrupted copy: a label moved off its minimum, a NaN
Table II error or a forest that does worse on the paper's features, and
an ECO module with a changed CF.  Exits 0 when every genuine result
passes and every corrupted one is counted as a failed operation.
"""

from __future__ import annotations

import dataclasses
import sys

from checks import Checks, eco_mismatches, estimator_problems, label_is_minimal


def _label_cases(checks: Checks) -> int:
    from repro.dataset.generate import generate_dataset
    from repro.device.parts import xc7z020

    grid = xc7z020()
    records, _ = generate_dataset(12, 0, grid, workers=1)
    record = next(r for r in records if r.min_cf > 0.95)
    checks.check("genuine label", label_is_minimal(record, grid))
    corrupted = 0
    for delta in (0.02, -0.02):
        bad = dataclasses.replace(record, min_cf=round(record.min_cf + delta, 10))
        checks.check(f"label moved by {delta:+}", label_is_minimal(bad, grid))
        corrupted += 1
    return corrupted


def _error_cases(checks: Checks) -> int:
    classical = [6.0, 7.5, 5.0, 8.0, 6.5, 7.0, 5.5, 6.0]
    additional = [c - 1.2 for c in classical]
    genuine = {"rf/additional": 5.3, "rf/classical": 6.5, "dt/all": 5.5}
    checks.check(
        "genuine errors", not estimator_problems(genuine, additional, classical)
    )
    worse = [c + 3.0 for c in classical]
    cases = (
        ({**genuine, "dt/all": float("nan")}, additional),
        ({**genuine, "rf/additional": 9.5}, worse),
    )
    for errors, add in cases:
        checks.check(f"errors {errors}", not estimator_problems(errors, add, classical))
    return len(cases)


def _eco_cases(checks: Checks) -> int:
    from repro.device.parts import xc7z020
    from repro.flow.blockdesign import BlockDesign
    from repro.flow.cache import ModuleCache
    from repro.flow.policy import MinimalCFPolicy
    from repro.flow.preimpl import PreImplResult, implement_design
    from repro.rtlgen.sweep import generate_sweep

    grid = xc7z020()
    design = BlockDesign(name="selftest")
    for module in generate_sweep(3, seed=0):
        design.add_module(module)
        design.add_instance(module.name + "_i", module.name)
    cache = ModuleCache()
    implement_design(design, grid, MinimalCFPolicy(), cache=cache)
    warm = implement_design(design, grid, MinimalCFPolicy(), cache=cache)
    reference = implement_design(design, grid, MinimalCFPolicy())
    checks.check("genuine ECO", not eco_mismatches(warm, reference))
    name, impl = next(iter(warm.items()))
    outcome = dataclasses.replace(impl.outcome, cf=round(impl.outcome.cf + 0.02, 10))
    modules = {**warm.modules, name: dataclasses.replace(impl, outcome=outcome)}
    bad = PreImplResult(modules=modules, report=warm.report, stats=warm.stats)
    checks.check("ECO module with a changed CF", not eco_mismatches(bad, reference))
    return 1


def main() -> int:
    checks = Checks()
    corrupted = _label_cases(checks) + _error_cases(checks) + _eco_cases(checks)
    genuine = checks.attempted - corrupted
    failed_genuine = [f for f in checks.failures if f.startswith("genuine")]
    print(f"{checks.attempted} checks: {genuine} genuine, {corrupted} corrupted")
    for failure in checks.failures:
        print("  counted as failed:", failure)
    ok = not failed_genuine and checks.failed == corrupted
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
