"""Determinism & parallel-safety static analysis (``repro lint``).

An AST-based rule engine enforcing, at the source level, the invariants
the repo's equivalence and worker-count-invariance tests sample at
runtime: no ambient RNG, no wall-clock reads in library code, no
unordered iteration feeding numeric accumulation, pool-safe worker
functions, submission-order merges, and tracer spans/grafts kept inside
their sanctioned shapes.

Every rule is per-file: the families ``DET`` / ``PAR`` / ``OBS`` /
``RED`` visit one module at a time.  Hazards that cross functions or
files (an RNG shared by every fan-out job, a double graft, a span under
the wrong parent) are left to the tier-1 runtime tests, which catch them
(see ``docs/lint_mutation_table.json`` and
``tests/test_span_contract.py``).

* :mod:`repro.lint.rules` — the visitor framework, rule metadata and
  the registry; :mod:`repro.lint.rules_det`, :mod:`~repro.lint.rules_par`,
  :mod:`~repro.lint.rules_obs` and :mod:`~repro.lint.rules_red` hold the
  rules;
* :mod:`repro.lint.engine` — file discovery, rule execution and
  suppression filtering (:func:`lint_paths` / :func:`lint_sources`);
* :mod:`repro.lint.suppressions` — tokenizer-based
  ``# repro: noqa[RULE-ID] reason`` parsing (reasons are mandatory,
  markers apply per logical statement);
* :mod:`repro.lint.report` — text / json / github reporters and the
  statistics artifact.

The rule pack and suppression syntax are documented in ``docs/api.md``
("Static analysis"); the CI gate requires ``repro lint src/
benchmarks/`` to exit zero.
"""

from repro.lint.engine import (
    LintResult,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.rules import (
    Rule,
    RuleMeta,
    Violation,
    all_rules,
    rule_ids,
)
from repro.lint.report import (
    FORMATS,
    render,
    render_rule_table,
    render_statistics,
    statistics_json,
)
from repro.lint.suppressions import Suppression, SuppressionScan, scan_suppressions

__all__ = [
    "FORMATS",
    "LintResult",
    "Rule",
    "RuleMeta",
    "Suppression",
    "SuppressionScan",
    "Violation",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "render",
    "render_rule_table",
    "render_statistics",
    "rule_ids",
    "scan_suppressions",
    "statistics_json",
]
