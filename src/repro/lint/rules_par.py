"""PAR rules: process-pool safety.

The flow's pools (`implement_design`, `generate_dataset`, `best_of`,
`RandomForestRegressor`) promise worker-count invariance: any `workers=`
value produces bitwise-identical results.  That only holds when worker
functions are picklable module-level functions of their arguments, and
when results are merged in submission order.  These rules flag the three
ways new pool code usually breaks the contract.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.rules import Rule, RuleMeta, register

__all__ = [
    "WorkerMutatesGlobalRule",
    "NonPicklableTaskRule",
    "CompletionOrderRule",
]

#: Constructors whose instances hand work to other processes/threads.
_POOL_FACTORIES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "multiprocessing.get_context",
    }
)

#: Pool methods whose first argument is the task callable.
_SUBMIT_METHODS = frozenset({"submit", "map", "imap", "imap_unordered", "apply_async"})


def _pool_names(tree: ast.Module, ctx: ModuleContext) -> frozenset[str]:
    """Local names bound to pool/executor instances anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        value: ast.AST | None = None
        target: ast.AST | None = None
        if isinstance(node, ast.withitem):
            value, target = node.context_expr, node.optional_vars
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
        if (
            isinstance(value, ast.Call)
            and isinstance(target, ast.Name)
            and ctx.call_name(value) in _POOL_FACTORIES
        ):
            names.add(target.id)
    return frozenset(names)


def _submitted_callables(
    tree: ast.Module, ctx: ModuleContext, pools: frozenset[str]
) -> list[tuple[ast.Call, ast.expr]]:
    """``(submit_call, task_callable)`` pairs for every pool dispatch."""
    out: list[tuple[ast.Call, ast.expr]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in _SUBMIT_METHODS or not node.args:
            continue
        recv = node.func.value
        if isinstance(recv, ast.Name) and recv.id in pools:
            out.append((node, node.args[0]))
    return out


class _PoolRule(Rule):
    """Shared scaffolding: locate pools and their dispatched callables."""

    def prepare(self, ctx: ModuleContext) -> None:
        self._pools = _pool_names(ctx.tree, ctx)
        self._dispatches = _submitted_callables(ctx.tree, ctx, self._pools)
        self._module_defs: dict[str, ast.FunctionDef] = {
            n.name: n
            for n in ctx.tree.body
            if isinstance(n, ast.FunctionDef)
        }
        self._nested_defs: set[str] = {
            n.name
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and ctx.enclosing_function(n) is not None
        }


@register
class WorkerMutatesGlobalRule(_PoolRule):
    """PAR001: pool workers that mutate module-global state."""

    meta = RuleMeta(
        id="PAR001",
        name="worker-mutates-global",
        family="PAR",
        severity="error",
        summary="pool worker function mutates a module-level global",
        rationale=(
            "Each pool worker runs in a forked/spawned process with its own "
            "copy of the module — writes to globals are silently lost (or, "
            "with threads, race). Workers must be pure functions of their "
            "arguments that *return* their results."
        ),
        fix_hint=(
            "return the data from the worker and merge it in the parent, in "
            "submission order"
        ),
        example_bad=(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "RESULTS = []\n\ndef work(x):\n    RESULTS.append(x * 2)\n\n"
            "with ProcessPoolExecutor() as pool:\n    pool.map(work, items)"
        ),
        example_good=(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def work(x):\n    return x * 2\n\n"
            "with ProcessPoolExecutor() as pool:\n"
            "    results = list(pool.map(work, items))"
        ),
    )

    _MUTATORS = frozenset(
        {
            "append",
            "extend",
            "insert",
            "add",
            "update",
            "setdefault",
            "pop",
            "popitem",
            "remove",
            "discard",
            "clear",
        }
    )

    def _module_globals(self) -> frozenset[str]:
        names: set[str] = set()
        for node in self.ctx.tree.body:
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
        return frozenset(names)

    def _mutated_global(self, fn: ast.FunctionDef) -> str | None:
        module_globals = self._module_globals()
        declared_global: set[str] = set()
        local_names = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        if fn.args.vararg:
            local_names.add(fn.args.vararg.arg)
        if fn.args.kwarg:
            local_names.add(fn.args.kwarg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Name):
                        if tgt.id in declared_global:
                            return tgt.id
                        local_names.add(tgt.id)
                    elif isinstance(tgt, (ast.Attribute, ast.Subscript)):
                        base = tgt.value
                        if (
                            isinstance(base, ast.Name)
                            and base.id in module_globals
                            and base.id not in local_names
                        ):
                            return base.id
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                base = node.func.value
                if (
                    node.func.attr in self._MUTATORS
                    and isinstance(base, ast.Name)
                    and base.id in module_globals
                    and base.id not in local_names
                ):
                    return base.id
        return None

    def visit_Module(self, node: ast.Module) -> None:
        for call, task in self._dispatches:
            if isinstance(task, ast.Name) and task.id in self._module_defs:
                mutated = self._mutated_global(self._module_defs[task.id])
                if mutated is not None:
                    self.report(
                        call,
                        f"pool worker `{task.id}` mutates module global "
                        f"`{mutated}`",
                    )
        # No generic_visit: this rule works from the module-level indexes.


@register
class NonPicklableTaskRule(_PoolRule):
    """PAR002: lambdas / locally-defined functions handed to a pool."""

    meta = RuleMeta(
        id="PAR002",
        name="nonpicklable-task",
        family="PAR",
        severity="error",
        summary="lambda or nested function submitted to a process pool",
        rationale=(
            "Process pools pickle the task callable; lambdas and functions "
            "defined inside another function cannot be pickled, so the "
            "submission fails at runtime — typically only on the parallel "
            "path that CI seldom exercises."
        ),
        fix_hint=(
            "hoist the worker to a module-level function taking explicit "
            "arguments (bundle them in a tuple if needed)"
        ),
        example_bad=(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "with ProcessPoolExecutor() as pool:\n"
            "    out = list(pool.map(lambda x: x + 1, items))"
        ),
        example_good=(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def _bump(x):\n    return x + 1\n\n"
            "with ProcessPoolExecutor() as pool:\n"
            "    out = list(pool.map(_bump, items))"
        ),
    )

    def visit_Module(self, node: ast.Module) -> None:
        for call, task in self._dispatches:
            if isinstance(task, ast.Lambda):
                self.report(call, "lambda submitted to a pool is not picklable")
            elif (
                isinstance(task, ast.Name)
                and task.id in self._nested_defs
                and task.id not in self._module_defs
            ):
                self.report(
                    call,
                    f"locally-defined function `{task.id}` submitted to a "
                    "pool is not picklable",
                )


@register
class CompletionOrderRule(_PoolRule):
    """PAR003: merging pool results in completion order."""

    meta = RuleMeta(
        id="PAR003",
        name="completion-order-merge",
        family="PAR",
        severity="error",
        summary="results consumed via `as_completed` (completion order)",
        rationale=(
            "`as_completed` yields futures in finish order, which depends on "
            "scheduling and worker count — any list, dict or accumulation "
            "built from it differs run to run. The repo's invariance tests "
            "require merges in submission order."
        ),
        fix_hint=(
            "iterate the futures list in submission order (or `pool.map`, "
            "which preserves it); if latency matters, collect then reorder "
            "by a stable key before merging"
        ),
        example_bad=(
            "from concurrent.futures import as_completed\n\n"
            "futs = [pool.submit(f, x) for x in items]\n"
            "out = [f.result() for f in as_completed(futs)]"
        ),
        example_good=(
            "futs = [pool.submit(f, x) for x in items]\n"
            "out = [f.result() for f in futs]"
        ),
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.call_name(node)
        if name == "concurrent.futures.as_completed":
            self.report(
                node, "results iterated in completion order via `as_completed`"
            )
        self.generic_visit(node)
