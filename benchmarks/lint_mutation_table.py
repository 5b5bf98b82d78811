"""Which check catches which determinism hazard: the lint mutation table.

Each hazard below is one bug class the determinism checks exist for,
written as exact-match edits to a throwaway copy of the repository
(``src/``, ``tests/``, ``benchmarks/``, ``docs/``, ``examples/`` and the top-level
docs).  For every hazard the script records, in
``docs/lint_mutation_table.json``:

* ``full`` — the rule ids ``repro lint src benchmarks`` reports with
  every rule the linter has;
* ``per_file`` — the same with ``--select DET,PAR,OBS,SUP,LNT``, the
  per-file rules and the engine's own diagnostics;
* ``tests`` — the tier-1 tests that fail (``pytest tests``).  The
  linter's own tests (``tests/test_lint_*.py``) are left out: they test
  the linter, and its zero-violation gate is what the two lint columns
  show;
* ``tools`` — only while the linter has them: whether ``--fix --diff
  --check-clean`` fails, and the rules a warm ``--cache-dir`` run
  reports (the clean tree's cache reused on the hazard's tree).

A clean row (no edits) comes first; every column of it must be empty.

The deletion rule (:func:`decide`): a whole-program rule, or a lint
tool, goes when no row has it as its sole catcher.  A row's catchers
are the rules of its ``full`` column plus ``tests`` when any tier-1 test
fails; the tools catch nothing on their own by construction
(``--check-clean`` only fails on fixable findings, which fail the gate
too, and a cached run reports what a full run reports) and are checked
against the recorded columns as well.

Usage (a full run takes about fifteen minutes on a 2-vCPU machine,
most of it the tier-1 suite once per hazard)::

    PYTHONPATH=src python benchmarks/lint_mutation_table.py
    PYTHONPATH=src python benchmarks/lint_mutation_table.py --decide  # rule only
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "docs" / "lint_mutation_table.json"

#: What is copied into each scratch tree (everything the tier-1 suite reads).
COPY_DIRS = ("src", "tests", "benchmarks", "docs", "examples")
COPY_FILES = (
    "pyproject.toml", "README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md",
)
#: The per-file rules and the engine diagnostics.
PER_FILE_SELECT = "DET,PAR,OBS,SUP,LNT"
LINT_TARGETS = ("src", "benchmarks")

_FUTURE = "from __future__ import annotations\n"
_RESTARTS = "src/repro/flow/restarts.py"
_CACHE = "src/repro/flow/cache.py"
_RWFLOW = "src/repro/flow/rwflow.py"
_EVOLVE = "src/repro/flow/evolve.py"

_NUMPY_IMPORT = (_RESTARTS, _FUTURE, _FUTURE + "\nimport numpy as np\n")
_TIME_IMPORT = (_CACHE, _FUTURE, _FUTURE + "\nimport time\n")
_KEY_PARTS = (
    "        module_fingerprint(module),\n"
    "        grid_fingerprint(grid),\n"
    "        policy_fingerprint(policy),\n"
)
_WORKER_UNPACK = "    placer, design, footprints, grid, delays, want_trace = args\n"
_WORKER_DRAWS = (
    "    placer, design, footprints, grid, delays, want_trace, rng = args\n"
    "    placer = replace(placer, params=replace(placer.params,\n"
    "                                            seed=int(rng.integers(2**31))))\n"
)
_JOB_TAIL = "         footprints, grid, module_delays, want_trace)\n"
_GRAFT = (
    "            graft_traces(ambient, [t for _res, traces in outcomes for t in traces])\n"
)
_MEAN_CF = (
    "        cfs = [m.outcome.cf for m in self.implemented.values()]\n"
    "        return sum(cfs) / len(cfs) if cfs else 0.0\n"
)


@dataclass(frozen=True)
class Hazard:
    """One bug class as exact-match ``(path, old, new)`` edits."""

    id: str
    description: str
    edits: tuple[tuple[str, str, str], ...]


HAZARDS = (
    Hazard(
        "ambient-rng-seed-family",
        "best_of draws its restart seeds from an unseeded default_rng()",
        (
            _NUMPY_IMPORT,
            (
                _RESTARTS,
                "        return [base_seed + k for k in range(n_seeds)]\n",
                "        return [int(s) for s in\n"
                "                np.random.default_rng().integers(0, 2**31, n_seeds)]\n",
            ),
        ),
    ),
    Hazard(
        "ambient-rng-into-jobs",
        "every best_of job carries its own unseeded default_rng(); the worker "
        "draws its seed from it",
        (
            _NUMPY_IMPORT,
            (_RESTARTS, _WORKER_UNPACK, _WORKER_DRAWS),
            (
                _RESTARTS,
                _JOB_TAIL,
                "         footprints, grid, module_delays, want_trace,\n"
                "         np.random.default_rng())\n",
            ),
        ),
    ),
    Hazard(
        "shared-rng-across-jobs",
        "one seeded Generator is baked into every best_of job; the worker "
        "draws its seed from it",
        (
            _NUMPY_IMPORT,
            (_RESTARTS, _WORKER_UNPACK, _WORKER_DRAWS),
            (
                _RESTARTS,
                "    want_trace = ambient.enabled\n",
                "    want_trace = ambient.enabled\n"
                "    rng = np.random.default_rng(placer.params.seed)\n",
            ),
            (_RESTARTS, _JOB_TAIL, "         footprints, grid, module_delays, want_trace, rng)\n"),
        ),
    ),
    Hazard(
        "time-in-cache-key",
        "ModuleCache's cache_key hashes time.time()",
        (_TIME_IMPORT, (_CACHE, _KEY_PARTS, "        time.time(),\n" + _KEY_PARTS)),
    ),
    Hazard(
        "perf-counter-helper-in-cache-key",
        "cache_key hashes time.perf_counter() returned by a helper",
        (
            _TIME_IMPORT,
            (
                _CACHE,
                "def cache_key(",
                "def _stamp() -> float:\n    return time.perf_counter()\n\n\ndef cache_key(",
            ),
            (_CACHE, _KEY_PARTS, "        _stamp(),\n" + _KEY_PARTS),
        ),
    ),
    Hazard(
        "double-graft",
        "best_of grafts its workers' traces twice",
        ((_RESTARTS, _GRAFT, _GRAFT + _GRAFT),),
    ),
    Hazard(
        "set-float-sum-local",
        "RWFlowResult.mean_cf sums CFs in the iteration order of a set of "
        "module names",
        (
            (
                _RWFLOW,
                _MEAN_CF,
                "        total = 0.0\n"
                "        for name in set(self.implemented):\n"
                "            total += self.implemented[name].outcome.cf\n"
                "        return total / len(self.implemented) if self.implemented else 0.0\n",
            ),
        ),
    ),
    Hazard(
        "set-float-sum-across-call",
        "RWFlowResult.mean_cf sums CFs over a set of module names returned "
        "by a module-level helper",
        (
            (
                _RWFLOW,
                "def run_rw_flow(",
                "def _module_names(implemented) -> set:\n"
                "    return set(implemented)\n\n\ndef run_rw_flow(",
            ),
            (
                _RWFLOW,
                _MEAN_CF,
                "        total = 0.0\n"
                "        for name in _module_names(self.implemented):\n"
                "            total += self.implemented[name].outcome.cf\n"
                "        return total / len(self.implemented) if self.implemented else 0.0\n",
            ),
        ),
    ),
    Hazard(
        "unsorted-glob",
        "ModuleCache.clear walks an unsorted glob of the cache directory "
        "(its reasoned suppression removed)",
        (
            (
                _CACHE,
                '            for path in self.cache_dir.glob("*.pkl"):  # repro: noqa[DET005] '
                "unconditional delete of every entry; order is irrelevant\n",
                '            for path in self.cache_dir.glob("*.pkl"):\n',
            ),
        ),
    ),
    Hazard(
        "wrong-span-parent",
        "evolve's repair phase opens its span as stitch.anneal",
        (
            (
                _EVOLVE,
                '        with tr.span("evolve.repair") as sp_repair:\n',
                '        with tr.span("stitch.anneal") as sp_repair:\n',
            ),
        ),
    ),
)


# ------------------------------------------------------------------ measuring


def _copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPY_DIRS:
        shutil.copytree(REPO / name, dst / name, ignore=ignore)
    for name in COPY_FILES:
        if (REPO / name).exists():
            shutil.copy2(REPO / name, dst / name)


def _apply(root: Path, hazard: Hazard) -> None:
    for rel, old, new in hazard.edits:
        path = root / rel
        text = path.read_text(encoding="utf-8")
        n = text.count(old)
        if n != 1:
            raise SystemExit(f"{hazard.id}: edit anchor found {n} times in {rel}: {old!r}")
        path.write_text(text.replace(old, new), encoding="utf-8")


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _repro_lint(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *LINT_TARGETS, *args],
        cwd=root, env=_env(root), capture_output=True, text=True,
    )


def _rules(root: Path, *args: str) -> list[str]:
    """Sorted rule ids (with repeats) one lint run reports."""
    out = _repro_lint(root, "--format", "json", *args)
    if out.returncode not in (0, 1):
        raise SystemExit(f"repro lint failed in {root}:\n{out.stderr}")
    return sorted(v["rule"] for v in json.loads(out.stdout)["violations"])


def _lint_flags(root: Path) -> set[str]:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--help"],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    )
    return set(re.findall(r"--[a-z][a-z-]*", out.stdout))


def _failing_tests(root: Path) -> list[str]:
    out = subprocess.run(
        [
            sys.executable, "-m", "pytest", "tests", "-q", "-rfE", "-p", "no:cacheprovider",
            "--ignore-glob=tests/test_lint_*.py",
        ],
        cwd=root, env=_env(root), capture_output=True, text=True,
    )
    failed = sorted(
        line.split()[1]
        for line in out.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    )
    if out.returncode not in (0, 1) or (out.returncode == 1 and not failed):
        raise SystemExit(f"pytest did not run in {root}:\n{out.stdout[-2000:]}")
    return failed


def _measure_row(hazard: Hazard | None, clean_cache: Path | None) -> dict:
    with tempfile.TemporaryDirectory(prefix="lint-mutation-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        if hazard is not None:
            _apply(root, hazard)
        flags = _lint_flags(root)
        row: dict = {
            "hazard": hazard.id if hazard else "clean",
            "description": hazard.description if hazard else "no edits",
            "full": _rules(root),
            "per_file": _rules(root, "--select", PER_FILE_SELECT),
        }
        tools: dict = {}
        if "--check-clean" in flags:
            out = _repro_lint(root, "--fix", "--diff", "--check-clean")
            tools["check_clean_fails"] = out.returncode != 0
        if "--cache-dir" in flags and clean_cache is not None:
            cache = root / ".lint-cache"
            shutil.copytree(clean_cache, cache)
            tools["cached"] = _rules(root, "--cache-dir", str(cache))
        if tools:
            row["tools"] = tools
        row["tests"] = _failing_tests(root)
        return row


def _timings(clean_cache: Path) -> dict[str, float]:
    """Wall seconds of one full, one per-file and one warm cached run."""
    with tempfile.TemporaryDirectory(prefix="lint-mutation-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        runs = {"full_s": (), "per_file_s": ("--select", PER_FILE_SELECT)}
        if "--cache-dir" in _lint_flags(root):
            cache = root / ".lint-cache"
            _repro_lint(root, "--cache-dir", str(cache))  # populate
            shutil.copytree(cache, clean_cache)
            runs["cached_warm_s"] = ("--cache-dir", str(cache))
        out = {}
        for name, args in runs.items():
            t0 = time.perf_counter()
            _repro_lint(root, *args)
            out[name] = round(time.perf_counter() - t0, 2)
        return out


def measure() -> dict:
    with tempfile.TemporaryDirectory(prefix="lint-mutation-cache-") as tmp:
        clean_cache = Path(tmp) / "cache"
        timings = _timings(clean_cache)
        cache = clean_cache if clean_cache.exists() else None
        rows = []
        for hazard in (None, *HAZARDS):
            row = _measure_row(hazard, cache)
            print(
                f"{row['hazard']:<34} full={row['full']} per_file={row['per_file']} "
                f"tests={len(row['tests'])}",
                flush=True,
            )
            rows.append(row)
    families = tuple(PER_FILE_SELECT.split(","))
    return {
        "version": 1,
        "per_file_select": PER_FILE_SELECT,
        "whole_program_rules": [r for r in _listed_rules() if not r.startswith(families)],
        "lint_timings": timings,
        "rows": rows,
    }


def _listed_rules() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO, env=_env(REPO), capture_output=True, text=True, check=True,
    )
    return sorted(line.split()[0] for line in out.stdout.splitlines() if line.strip())


# ------------------------------------------------------------------- deciding


def catchers(row: dict) -> set[str]:
    """Everything that catches one row's hazard: its rules, plus ``tests``."""
    found = set(row["full"])
    if row["tests"]:
        found.add("tests")
    return found


def decide(table: dict) -> dict[str, str]:
    """Verdict per whole-program rule and lint tool: ``keep`` or ``delete``."""
    rows = [r for r in table["rows"] if r["hazard"] != "clean"]
    verdict = {}
    for rid in table["whole_program_rules"]:
        sole = [r["hazard"] for r in rows if catchers(r) == {rid}]
        verdict[rid] = f"keep (sole catcher of {', '.join(sole)})" if sole else "delete"
    tooled = [r for r in rows if "tools" in r]
    if tooled:
        # --check-clean fails only on fixable findings; those fail the gate.
        extra = [r["hazard"] for r in tooled if r["tools"]["check_clean_fails"] and not r["full"]]
        verdict["--fix/--check-clean"] = (
            f"keep (sole catcher of {', '.join(extra)})" if extra else "delete"
        )
        # A warm cached run must report exactly what a full run reports.
        differ = [r["hazard"] for r in tooled if sorted(r["tools"]["cached"]) != r["full"]]
        verdict["--cache-dir"] = (
            f"keep (reports differ on {', '.join(differ)})" if differ else "delete"
        )
    return verdict


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--decide", action="store_true",
        help="re-apply the deletion rule to the committed table without re-measuring",
    )
    ap.add_argument(
        "--out", type=Path, default=TABLE,
        help="where a measurement is written (default: %(default)s)",
    )
    args = ap.parse_args(argv)
    if args.decide:
        table = json.loads(TABLE.read_text(encoding="utf-8"))
    else:
        table = measure()
        args.out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    clean = table["rows"][0]
    assert clean["hazard"] == "clean" and not (clean["full"] or clean["tests"]), clean
    for row in table["rows"][1:]:
        print(f"{row['hazard']:<34} caught by: {', '.join(sorted(catchers(row))) or 'nothing'}")
    for name, verdict in decide(table).items():
        print(f"{name:<22} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
