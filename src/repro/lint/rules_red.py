"""RED rule: an order-free iterable returned by a call feeding a float sum.

DET004 catches a loop over a set written in the loop's own function.
RED001 follows the set through a call: a function of the same module
that returns a set (or a completion-ordered stream) whose result a
float accumulation loop iterates.  ``docs/lint_mutation_table.json``
records the hazard only this rule catches (``set-float-sum-across-call``).
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.rules import Rule, RuleMeta, register

__all__ = ["UnorderedFloatReductionRule"]

_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "AbstractSet"})
_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _assigned_values(scope: ast.AST, name: str) -> list[ast.expr]:
    """Every expression assigned to ``name`` in ``scope``, in source order."""
    out: list[ast.expr] = []
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
                out.append(node.value)
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            out.append(node.value)
    return out


def _float_names(scope: ast.AST) -> set[str]:
    """Names assigned a float literal (accumulator seeds) in ``scope``."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, float)
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _set_annotation(ann: ast.expr | None) -> bool:
    base = ann.value if isinstance(ann, ast.Subscript) else ann
    if isinstance(base, ast.Name):
        return base.id in _SET_ANNOTATIONS
    if isinstance(base, ast.Constant) and isinstance(base.value, str):
        return base.value.split("[", 1)[0] in _SET_ANNOTATIONS
    return False


@register
class UnorderedFloatReductionRule(Rule):
    """RED001: float accumulation over an order-free iterable from a call."""

    meta = RuleMeta(
        id="RED001",
        name="unordered-float-reduction",
        family="RED",
        severity="error",
        summary=(
            "float accumulation over a set-valued or completion-ordered "
            "iterable returned by a call"
        ),
        rationale=(
            "Float addition is not associative: summing the same values in "
            "a different order changes the last ULP, which is enough to "
            "fail every bitwise-equality gate in the repo. DET004 catches "
            "a set iterated where it is written; this rule follows it "
            "through a call — a helper that returns a set (or an "
            "`imap_unordered`/`as_completed` stream) feeding a float "
            "accumulation in another function."
        ),
        fix_hint=(
            "iterate `sorted(...)` (or merge in submission order) before "
            "accumulating floats"
        ),
        example_bad=(
            "def pending():\n"
            "    return {'b', 'a'}\n\n"
            "def total(costs):\n"
            "    acc = 0.0\n"
            "    for name in pending():\n"
            "        acc += costs[name]\n"
            "    return acc"
        ),
        example_good=(
            "def pending():\n"
            "    return {'b', 'a'}\n\n"
            "def total(costs):\n"
            "    acc = 0.0\n"
            "    for name in sorted(pending()):\n"
            "        acc += costs[name]\n"
            "    return acc"
        ),
    )

    def prepare(self, ctx: ModuleContext) -> None:
        # Module-level functions whose result iterates in hash or
        # completion order, closed over calls between them.
        functions = {n.name: n for n in ctx.tree.body if isinstance(n, _FunctionNode)}
        self._unordered_fns: set[str] = set()
        grew = True
        while grew:
            grew = False
            for name, fn in functions.items():
                if name not in self._unordered_fns and self._returns_unordered(fn):
                    self._unordered_fns.add(name)
                    grew = True

    def _returns_unordered(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        if _set_annotation(fn.returns):
            return True
        return any(
            isinstance(node, ast.Return)
            and node.value is not None
            and self.ctx.enclosing_function(node) is fn
            and self._unordered(node.value, fn)
            for node in ast.walk(fn)
        )

    def _unordered(self, expr: ast.expr, scope: ast.AST) -> bool:
        """``expr`` iterates in hash or completion order."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.IfExp):
            return self._unordered(expr.body, scope) or self._unordered(expr.orelse, scope)
        if isinstance(expr, ast.Name):
            return any(
                not isinstance(value, ast.Name) and self._unordered(value, scope)
                for value in _assigned_values(scope, expr.id)
            )
        if not isinstance(expr, ast.Call):
            return False
        ctx = self.ctx
        if ctx.is_builtin_call(expr, "set") or ctx.is_builtin_call(expr, "frozenset"):
            return True
        if ctx.call_name(expr) == "concurrent.futures.as_completed":
            return True
        if isinstance(expr.func, ast.Attribute):
            return expr.func.attr == "imap_unordered"
        return isinstance(expr.func, ast.Name) and expr.func.id in self._unordered_fns

    def visit_For(self, node: ast.For) -> None:
        scope = self.ctx.enclosing_function(node) or self.ctx.tree
        it = node.iter
        if isinstance(it, ast.Name):
            values = _assigned_values(scope, it.id)
            from_call = bool(values) and isinstance(values[-1], ast.Call)
        else:
            from_call = isinstance(it, ast.Call)
        if from_call and self._unordered(it, scope):
            floats = _float_names(scope)
            for stmt in node.body:
                acc = next(
                    (
                        sub.target.id
                        for sub in ast.walk(stmt)
                        if isinstance(sub, ast.AugAssign)
                        and isinstance(sub.op, (ast.Add, ast.Sub, ast.Mult))
                        and isinstance(sub.target, ast.Name)
                        and sub.target.id in floats
                    ),
                    None,
                )
                if acc is not None:
                    self.report(
                        it,
                        f"float accumulator `{acc}` summed over a set-valued or "
                        "completion-ordered iterable; the order — and therefore "
                        "the rounding — is not reproducible",
                    )
                    break
        self.generic_visit(node)
