"""Forward value-flow over the project call graph, and the rules on it.

The abstract domain is tiny and purpose-built: a value is interesting
only if it is an **RNG stream** (``rng``, with the refinement
``rng.ambient`` for OS-entropy/unseeded generators), a **wall-clock
reading** (``clock``), a **set-valued or completion-ordered iterable**
(``set`` / ``unordered``), a **kernel object** (``kernel``) or a
tracer/span handle.  Tags are produced at syntactic sources
(``np.random.default_rng()`` with no seed, ``time.time()``, a set
display, ``as_completed``), propagated through local assignments, and
carried across function boundaries by per-function summaries:

* which parameters the function *draws* randomness from,
* which parameters it *grafts* (tracer merge) or forwards into a
  pool/:class:`~repro.flow.fanout.FanOut` dispatch or a cache-key sink,
* which tags its return value carries.

Summaries are closed under a fixpoint over the
:class:`~repro.lint.callgraph.ProjectIndex`, so a hazard two calls away
— precisely what a per-module pass cannot see — still reaches its sink.

Three rule families consume the analysis:

* ``FLOW`` — RNG / wall-clock values crossing the wrong boundary;
* ``SPAN`` — tracer spans opened under contract-violating parents and
  worker traces grafted more than once (contract:
  ``docs/span_contract.json``, mirrored in :data:`DEFAULT_SPAN_CONTRACT`);
* ``RED`` — float reductions over iterables with no reproducible order
  (the non-associativity hazard behind every bitwise-equality claim).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.callgraph import CallSite, FunctionInfo, ModuleInfo, ProjectIndex
from repro.lint.rules import ProjectRule, RuleMeta, register_project

__all__ = [
    "DEFAULT_SPAN_CONTRACT",
    "DataflowAnalysis",
    "SpanContract",
    "load_contract",
]

# ------------------------------------------------------------------ tags

TAG_RNG = "rng"
TAG_AMBIENT = "rng.ambient"
TAG_CLOCK = "clock"
TAG_SET = "set"
TAG_UNORDERED = "unordered"
TAG_KERNEL = "kernel"

#: Generator methods that consume the stream's state.
_DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "randint",
        "normal",
        "standard_normal",
        "uniform",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "exponential",
        "poisson",
        "binomial",
        "bytes",
        "bit_generator",
    }
)

#: Ambient-RNG constructors: nondeterministic unless seeded.
_RNG_CONSTRUCTORS = frozenset(
    {"numpy.random.default_rng", "random.Random", "numpy.random.RandomState"}
)

_CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_POOL_FACTORIES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

_SUBMIT_METHODS = frozenset({"submit", "map", "imap", "apply_async"})
_UNORDERED_METHODS = frozenset({"imap_unordered"})

#: Methods that look like cache-key/value insertion or lookup when the
#: receiver's name says "cache".
_CACHE_METHODS = frozenset({"get", "put", "add", "set", "store", "insert", "lookup"})

#: Builtins whose result forgets the argument's iteration-order hazard.
_ORDER_RESTORING = frozenset({"sorted", "list", "tuple", "min", "max", "len", "sum"})


# ------------------------------------------------------------- span contract


@dataclass(frozen=True)
class SpanContract:
    """The machine-readable form of the docs span-naming table.

    ``tree`` maps a parent span name to the child names it may directly
    contain; ``roots`` are the spans that may be opened with no parent
    (CLI entry points drive placers standalone).  A span name absent
    from the table is outside the contract and never checked.
    """

    roots: frozenset[str]
    tree: dict[str, frozenset[str]]

    @property
    def known(self) -> frozenset[str]:
        names = set(self.roots) | set(self.tree)
        for children in self.tree.values():
            names |= children
        return frozenset(names)

    def allowed_parents(self, child: str) -> frozenset[str]:
        return frozenset(
            parent for parent, kids in self.tree.items() if child in kids
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SpanContract":
        return cls(
            roots=frozenset(data.get("roots", ())),
            tree={
                parent: frozenset(children)
                for parent, children in data.get("tree", {}).items()
            },
        )

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "roots": sorted(self.roots),
            "tree": {p: sorted(c) for p, c in sorted(self.tree.items())},
        }


#: The repo's own contract — the docs/api.md span table, kept in sync
#: with ``docs/span_contract.json`` by a pinned test.
DEFAULT_SPAN_CONTRACT = SpanContract.from_dict(
    {
        "roots": [
            "flow",
            "stitch",
            "evolve",
            "tempering",
            "gplace",
            "preimpl",
            "dataset",
            "dse.evaluate",
            "placer.restarts",
        ],
        "tree": {
            "flow": [
                "preimpl",
                "stitch",
                "evolve",
                "tempering",
                "gplace",
                "placer.restarts",
            ],
            "stitch": ["stitch.setup", "stitch.initial", "stitch.anneal", "stitch.fill"],
            "placer.restarts": ["stitch", "evolve", "tempering"],
            "evolve": ["evolve.init", "evolve.generations", "evolve.repair"],
            "tempering": [
                "tempering.init",
                "tempering.rounds",
                "tempering.exchange",
            ],
            "gplace": ["gplace.init", "gplace.descent", "gplace.legalize"],
            "preimpl": ["preimpl.cache", "preimpl.implement"],
            "preimpl.implement": ["preimpl.module"],
            "dataset": [
                "dataset.cache",
                "dataset.sweep",
                "dataset.label",
                "dataset.store",
            ],
            "dataset.label": ["dataset.module"],
            "dse.evaluate": [
                "stitch",
                "evolve",
                "tempering",
                "gplace",
                "placer.restarts",
            ],
        },
    }
)


def load_contract(path: str | Path) -> SpanContract:
    """Load a span contract from its JSON file (``docs/span_contract.json``)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return SpanContract.from_dict(data)


# ---------------------------------------------------------------- summaries


@dataclass
class Summary:
    """Interprocedural facts about one function, closed by the fixpoint."""

    fn: FunctionInfo
    draws_from: set[int] = field(default_factory=set)
    grafts: set[int] = field(default_factory=set)
    dispatches: set[int] = field(default_factory=set)
    sinks: set[int] = field(default_factory=set)
    returns: set[str] = field(default_factory=set)
    return_calls: set[str] = field(default_factory=set)


@dataclass
class DispatchSite:
    """One fan-out boundary: a pool submit/map or ``FanOut.run``."""

    call: ast.Call
    kind: str  # "submit" | "map" | "run"
    worker: ast.expr | None
    jobs: list[ast.expr]
    caller: str


class _FunctionFlow:
    """Local, flow-light dataflow over one function (or module) body."""

    def __init__(
        self,
        analysis: "DataflowAnalysis",
        mod: ModuleInfo,
        fn: FunctionInfo | None,
    ) -> None:
        self.analysis = analysis
        self.mod = mod
        self.fn = fn
        self.body: list[ast.stmt] = (
            list(fn.node.body) if fn is not None else list(mod.ctx.tree.body)
        )
        self.params: tuple[str, ...] = fn.params if fn is not None else ()
        #: name -> union of tags over every assignment to it.
        self.tags: dict[str, set[str]] = {}
        #: name -> constructor leaf ("FanOut", "ProcessPoolExecutor", ...).
        self.ctor_of: dict[str, str] = {}
        #: names assigned a float-literal zero-ish accumulator seed.
        self.float_names: set[str] = set()
        self._collect_bindings()

    # ------------------------------------------------------------ bindings

    def _collect_bindings(self) -> None:
        scope_root: ast.AST = self.fn.node if self.fn is not None else self.mod.ctx.tree
        for node in ast.walk(scope_root):
            value: ast.expr | None = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                value, targets = node.context_expr, [node.optional_vars]
            if value is None:
                continue
            tags = self.tags_of(value)
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    self.tags.setdefault(tgt.id, set()).update(tags)
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, float
                    ):
                        self.float_names.add(tgt.id)
                    leaf = self._ctor_leaf(value)
                    if leaf is not None:
                        self.ctor_of[tgt.id] = leaf

    def _ctor_leaf(self, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        resolved = self.analysis.project.resolve_call(
            self.mod.ctx, self.mod.name, value
        )
        if resolved is None:
            return None
        if resolved in _POOL_FACTORIES:
            return "Pool"
        leaf = resolved.rpartition(".")[2]
        return leaf if leaf in {"FanOut"} or leaf.endswith("Kernel") else None

    # ----------------------------------------------------------------- tags

    def tags_of(self, expr: ast.expr) -> set[str]:
        """Abstract tags of ``expr`` (conservative union)."""
        if isinstance(expr, ast.Name):
            out = set(self.tags.get(expr.id, ()))
            return out
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = set()
            for elt in expr.elts:
                out |= self.tags_of(elt)
            return out
        if isinstance(expr, ast.Set):
            return {TAG_SET}
        if isinstance(expr, ast.SetComp):
            return {TAG_SET}
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return self.tags_of(expr.elt)
        if isinstance(expr, ast.IfExp):
            return self.tags_of(expr.body) | self.tags_of(expr.orelse)
        if isinstance(expr, ast.Starred):
            return self.tags_of(expr.value)
        if isinstance(expr, ast.Await):
            return self.tags_of(expr.value)
        if isinstance(expr, ast.NamedExpr):
            return self.tags_of(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_tags(expr)
        return set()

    def _call_tags(self, call: ast.Call) -> set[str]:
        ctx = self.mod.ctx
        resolved = self.analysis.project.resolve_call(ctx, self.mod.name, call)
        if resolved is not None:
            if resolved in _RNG_CONSTRUCTORS:
                seeded = bool(call.args or call.keywords)
                return {TAG_RNG} if seeded else {TAG_RNG, TAG_AMBIENT}
            if resolved == "random.SystemRandom":
                return {TAG_RNG, TAG_AMBIENT}
            if resolved in _CLOCK_SOURCES:
                return {TAG_CLOCK}
            if resolved == "concurrent.futures.as_completed":
                return {TAG_UNORDERED}
            leaf = resolved.rpartition(".")[2]
            if leaf.endswith("Kernel"):
                return {TAG_KERNEL}
            summary = self.analysis.summaries.get(resolved)
            if summary is not None:
                return set(summary.returns)
        if isinstance(call.func, ast.Name):
            name = call.func.id
            if ctx.is_builtin_call(call, "set") or ctx.is_builtin_call(
                call, "frozenset"
            ):
                return {TAG_SET}
            if name in _ORDER_RESTORING and ctx.is_builtin_call(call, name):
                # sorted()/list()/... restore or erase iteration order but
                # keep value-tags like rng/clock of the elements.
                inner = set()
                for arg in call.args:
                    inner |= self.tags_of(arg)
                return inner - {TAG_SET, TAG_UNORDERED}
        if isinstance(call.func, ast.Attribute):
            attr = call.func.attr
            recv = call.func.value
            recv_tags = self.tags_of(recv) if isinstance(recv, ast.Name) else set()
            if attr == "spawn" and TAG_RNG in recv_tags:
                return {TAG_RNG}
            if attr in _UNORDERED_METHODS:
                return {TAG_UNORDERED}
        return set()

    # ------------------------------------------------------------- queries

    def param_index(self, expr: ast.expr) -> int | None:
        if isinstance(expr, ast.Name) and self.fn is not None:
            return self.fn.param_index(expr.id)
        return None

    def assignment_value(self, name: str) -> ast.expr | None:
        """The (last) expression assigned to ``name`` in this scope."""
        found: ast.expr | None = None
        scope_root: ast.AST = self.fn.node if self.fn is not None else self.mod.ctx.tree
        for node in ast.walk(scope_root):
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id == name:
                        found = node.value
            elif (
                isinstance(node, ast.AnnAssign)
                and node.value is not None
                and isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                found = node.value
        return found


class DataflowAnalysis:
    """Whole-program analysis shared by every FLOW/SPAN/RED rule."""

    #: Fixpoint iteration cap; summaries grow monotonically, so this is
    #: a depth bound on call chains, not a correctness knob.
    MAX_ROUNDS = 12

    def __init__(
        self, project: ProjectIndex, contract: SpanContract | None = None
    ) -> None:
        self.project = project
        self.contract = contract if contract is not None else DEFAULT_SPAN_CONTRACT
        self.summaries: dict[str, Summary] = {}
        self.flows: dict[tuple[str, str], _FunctionFlow] = {}
        self.dispatches: dict[str, list[DispatchSite]] = {}
        for mod in project.modules.values():
            self.flows[(mod.name, "")] = _FunctionFlow(self, mod, None)
            for fn in mod.functions.values():
                self.flows[(mod.name, fn.qname)] = _FunctionFlow(self, mod, fn)
                self.summaries[fn.qname] = Summary(fn=fn)
        for mod in project.modules.values():
            self.dispatches[mod.name] = self._find_dispatches(mod)
        self._seed_summaries()
        self._fixpoint()

    # ------------------------------------------------------------ dispatch

    def flow_of(self, mod: ModuleInfo, caller: str) -> _FunctionFlow:
        return self.flows[(mod.name, caller)]

    def _find_dispatches(self, mod: ModuleInfo) -> list[DispatchSite]:
        out: list[DispatchSite] = []
        for fn_qname, sites in self._site_groups(mod):
            flow = self.flow_of(mod, fn_qname)
            for site in sites:
                call = site.node
                if not isinstance(call.func, ast.Attribute):
                    continue
                attr = call.func.attr
                recv = call.func.value
                if not isinstance(recv, ast.Name):
                    continue
                ctor = flow.ctor_of.get(recv.id)
                if ctor == "Pool" and attr in (
                    _SUBMIT_METHODS | _UNORDERED_METHODS
                ):
                    if not call.args:
                        continue
                    if attr == "submit":
                        out.append(
                            DispatchSite(
                                call, "submit", call.args[0],
                                list(call.args[1:]), fn_qname,
                            )
                        )
                    else:
                        out.append(
                            DispatchSite(
                                call, "map", call.args[0],
                                list(call.args[1:]), fn_qname,
                            )
                        )
                elif ctor == "FanOut" and attr == "run" and len(call.args) >= 2:
                    out.append(
                        DispatchSite(
                            call, "run", call.args[0], [call.args[1]], fn_qname
                        )
                    )
        return out

    def _site_groups(self, mod: ModuleInfo) -> list[tuple[str, list[CallSite]]]:
        groups: list[tuple[str, list[CallSite]]] = [("", mod.toplevel_calls)]
        groups.extend(
            (fn.qname, fn.calls) for fn in mod.functions.values()
        )
        return groups

    # ----------------------------------------------------------- summaries

    def _seed_summaries(self) -> None:
        for mod in self.project.modules.values():
            for fn in mod.functions.values():
                summary = self.summaries[fn.qname]
                flow = self.flow_of(mod, fn.qname)
                self._seed_one(mod, fn, flow, summary)

    def _seed_one(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        flow: _FunctionFlow,
        summary: Summary,
    ) -> None:
        # Draw sites: `p.random()` on a parameter.
        for site in fn.calls:
            call = site.node
            if isinstance(call.func, ast.Attribute) and isinstance(
                call.func.value, ast.Name
            ):
                idx = fn.param_index(call.func.value.id)
                if idx is not None and call.func.attr in _DRAW_METHODS:
                    summary.draws_from.add(idx)
            # graft(arg) / graft of loop variable over a parameter.
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "graft"
                and call.args
            ):
                src = self._graft_source(mod, fn, call.args[0])
                if src is not None:
                    idx = fn.param_index(src)
                    if idx is not None:
                        summary.grafts.add(idx)
        # Dispatch/job params: parameters appearing in job expressions.
        for disp in self.dispatches[mod.name]:
            if disp.caller != fn.qname:
                continue
            for job in disp.jobs:
                for name_node in ast.walk(job):
                    if isinstance(name_node, ast.Name):
                        idx = fn.param_index(name_node.id)
                        if idx is not None:
                            summary.dispatches.add(idx)
        # Cache sinks: parameters inside sink-call arguments.
        for call, args in self.cache_sinks(mod, fn.qname):
            for arg in args:
                for name_node in ast.walk(arg):
                    if isinstance(name_node, ast.Name):
                        idx = fn.param_index(name_node.id)
                        if idx is not None:
                            summary.sinks.add(idx)
        # Returns: tags of returned expressions, plus returned call targets.
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if mod.ctx.enclosing_function(node) is not fn.node:
                    continue
                summary.returns |= flow.tags_of(node.value)
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Call):
                        resolved = self.project.resolve_call(
                            mod.ctx, mod.name, sub
                        )
                        if resolved in self.summaries:
                            summary.return_calls.add(resolved)
        ann = fn.node.returns
        if ann is not None and self._annotation_is_set(ann):
            summary.returns.add(TAG_SET)

    @staticmethod
    def _annotation_is_set(ann: ast.expr) -> bool:
        base = ann.value if isinstance(ann, ast.Subscript) else ann
        if isinstance(base, ast.Name):
            return base.id in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}
        if isinstance(base, ast.Constant) and isinstance(base.value, str):
            return base.value.split("[", 1)[0] in {"set", "frozenset"}
        return False

    def _graft_source(
        self, mod: ModuleInfo, fn: FunctionInfo, arg: ast.expr
    ) -> str | None:
        """The name a grafted value is drawn from (loop-aware)."""
        if not isinstance(arg, ast.Name):
            return None
        # Grafting the target of `for t in xs:` counts as grafting `xs`.
        for anc in mod.ctx.ancestors(arg):
            if isinstance(anc, ast.For) and isinstance(anc.target, ast.Name):
                if anc.target.id == arg.id and isinstance(anc.iter, ast.Name):
                    return anc.iter.id
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
        return arg.id

    def _fixpoint(self) -> None:
        for _ in range(self.MAX_ROUNDS):
            changed = False
            for mod in self.project.modules.values():
                for fn in mod.functions.values():
                    changed |= self._propagate_one(mod, fn)
            if not changed:
                break

    def _propagate_one(self, mod: ModuleInfo, fn: FunctionInfo) -> bool:
        summary = self.summaries[fn.qname]
        changed = False
        for site in fn.calls:
            callee = self.summaries.get(site.callee or "")
            if callee is None:
                continue
            for pos, arg in enumerate(site.node.args):
                idx = fn.param_index(arg.id) if isinstance(arg, ast.Name) else None
                if idx is None:
                    continue
                for prop in ("draws_from", "grafts", "dispatches", "sinks"):
                    if pos in getattr(callee, prop) and idx not in getattr(
                        summary, prop
                    ):
                        getattr(summary, prop).add(idx)
                        changed = True
        for qname in summary.return_calls:
            callee = self.summaries.get(qname)
            if callee is None:
                continue
            fresh = callee.returns - summary.returns
            if fresh:
                summary.returns |= fresh
                changed = True
        return changed

    # --------------------------------------------------------------- sinks

    def cache_sinks(
        self, mod: ModuleInfo, caller: str
    ) -> list[tuple[ast.Call, list[ast.expr]]]:
        """Cache-key sink calls in ``caller``: ``(call, key_args)``."""
        out: list[tuple[ast.Call, list[ast.expr]]] = []
        sites = (
            mod.functions[caller].calls if caller else mod.toplevel_calls
        )
        for site in sites:
            call = site.node
            args = [*call.args, *(kw.value for kw in call.keywords)]
            if not args:
                continue
            if isinstance(call.func, ast.Attribute):
                recv = call.func.value
                recv_name = ""
                if isinstance(recv, ast.Name):
                    recv_name = recv.id
                elif isinstance(recv, ast.Attribute):
                    recv_name = recv.attr
                if (
                    call.func.attr in _CACHE_METHODS
                    and "cache" in recv_name.lower()
                ):
                    out.append((call, args))
            elif site.callee is not None:
                leaf = site.callee.rpartition(".")[2]
                if "cache_key" in leaf or leaf == "make_key":
                    out.append((call, args))
        return out

    # ----------------------------------------------------------- span data

    def span_opens(
        self, mod: ModuleInfo, caller: str
    ) -> list[tuple[CallSite, str]]:
        """``.span("const")`` sites in ``caller`` with their names."""
        out: list[tuple[CallSite, str]] = []
        sites = mod.functions[caller].calls if caller else mod.toplevel_calls
        for site in sites:
            call = site.node
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "span"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                out.append((site, call.args[0].value))
        return out

    def span_parents_of(
        self, qname: str, _seen: frozenset[str] = frozenset()
    ) -> set[tuple[str, str]]:
        """Known span contexts a call to ``qname`` may execute under.

        Returns ``(parent_span_name, "path:line caller")`` pairs; the
        chain walks the reverse call graph until a ``with span(...)`` is
        found.  Unresolvable contexts (no callers, module-level calls)
        contribute nothing — the rules only fire on *proven* parents.
        """
        if qname in _seen:
            return set()
        out: set[tuple[str, str]] = set()
        for mod, site in self.project.callers_of(qname):
            where = f"{mod.ctx.path}:{site.node.lineno} {site.caller or '<module>'}"
            if site.span_parent is not None:
                out.add((site.span_parent, where))
            elif site.caller:
                out |= self.span_parents_of(site.caller, _seen | {qname})
        return out


# -------------------------------------------------------------- FLOW rules


@register_project
class AmbientRngIntoFanOutRule(ProjectRule):
    """FLOW001: an unseeded RNG value crossing a fan-out boundary."""

    meta = RuleMeta(
        id="FLOW001",
        name="ambient-rng-into-fanout",
        family="FLOW",
        severity="error",
        summary="unseeded RNG reaches a pool/FanOut dispatch through the call graph",
        rationale=(
            "`default_rng()` with no seed draws its state from the OS; a "
            "worker receiving it produces different results every run and "
            "every worker count, which silently breaks the bitwise "
            "worker-count-invariance the placement flows are gated on. The "
            "leak is usually indirect — the generator is created in one "
            "function and dispatched from another — which is exactly what "
            "the call-graph pass traces."
        ),
        fix_hint=(
            "seed the generator (repro.utils.rng.stream / default_rng(seed)) "
            "before it crosses the fan-out boundary"
        ),
        example_bad=(
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def work(rng):\n    return rng.random()\n\n"
            "def launch():\n"
            "    rng = np.random.default_rng()\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        fut = pool.submit(work, rng)\n"
            "    return fut.result()"
        ),
        example_good=(
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def work(rng):\n    return rng.random()\n\n"
            "def launch(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        fut = pool.submit(work, rng)\n"
            "    return fut.result()"
        ),
    )

    def check(self, analysis: DataflowAnalysis) -> None:  # type: ignore[override]
        for mod in analysis.project.modules.values():
            for disp in analysis.dispatches[mod.name]:
                flow = analysis.flow_of(mod, disp.caller)
                for job in disp.jobs:
                    if TAG_AMBIENT in flow.tags_of(job):
                        self.report(
                            mod.ctx.path,
                            disp.call,
                            "unseeded (ambient-entropy) RNG value dispatched "
                            "to pool workers",
                        )
                        break
            # A caller handing an ambient RNG to a function that fans it out.
            self._check_forwarding(analysis, mod)

    def _check_forwarding(
        self, analysis: DataflowAnalysis, mod: ModuleInfo
    ) -> None:
        for qname, sites in analysis._site_groups(mod):
            flow = analysis.flow_of(mod, qname)
            for site in sites:
                callee = analysis.summaries.get(site.callee or "")
                if callee is None or not callee.dispatches:
                    continue
                for pos, arg in enumerate(site.node.args):
                    if pos in callee.dispatches and TAG_AMBIENT in flow.tags_of(
                        arg
                    ):
                        target = callee.fn
                        self.report(
                            mod.ctx.path,
                            site.node,
                            f"unseeded RNG passed to `{target.name}`, which "
                            "fans it out to pool workers "
                            f"(parameter `{target.params[pos]}`)",
                            trace=(
                                f"{mod.ctx.path}:{site.node.lineno} "
                                f"{qname or '<module>'}",
                                f"{analysis.project.modules[target.module].ctx.path}"
                                f":{target.node.lineno} {target.qname} "
                                f"fans out `{target.params[pos]}`",
                            ),
                        )


@register_project
class SharedRngAcrossJobsRule(ProjectRule):
    """FLOW002: one RNG shared by every fanned-out job."""

    meta = RuleMeta(
        id="FLOW002",
        name="shared-rng-across-jobs",
        family="FLOW",
        severity="error",
        summary=(
            "worker draws from a caller-supplied RNG but every job gets the "
            "same stream"
        ),
        rationale=(
            "A generator baked identically into every job either makes the "
            "workers draw identical sequences (spawn) or race on one state "
            "(fork/threads); either way results depend on worker count. "
            "Each job needs its own substream — `rng.spawn(n)`, "
            "`stream(seed, job_index)` or a per-job `default_rng(derived)`."
        ),
        fix_hint=(
            "derive one substream per job (rng.spawn / repro.utils.rng.stream "
            "keyed by the job index) instead of sharing the parent generator"
        ),
        example_bad=(
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def work(rng):\n    return rng.random()\n\n"
            "def launch(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, [rng for _ in range(n)]))"
        ),
        example_good=(
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def work(rng):\n    return rng.random()\n\n"
            "def launch(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(work, rng.spawn(n)))"
        ),
    )

    def check(self, analysis: DataflowAnalysis) -> None:  # type: ignore[override]
        for mod in analysis.project.modules.values():
            for disp in analysis.dispatches[mod.name]:
                worker = self._worker_summary(analysis, mod, disp)
                if worker is None or not worker.draws_from:
                    continue
                flow = analysis.flow_of(mod, disp.caller)
                shared = self._shared_rng_name(flow, disp)
                if shared is not None:
                    wmod = analysis.project.modules[worker.fn.module]
                    self.report(
                        mod.ctx.path,
                        disp.call,
                        f"RNG `{shared}` is shared by every job, but worker "
                        f"`{worker.fn.name}` draws from it; derive a per-job "
                        "substream",
                        trace=(
                            f"{mod.ctx.path}:{disp.call.lineno} "
                            f"{disp.caller or '<module>'}",
                            f"{wmod.ctx.path}:{worker.fn.node.lineno} "
                            f"{worker.fn.qname} draws from "
                            f"`{worker.fn.params[min(worker.draws_from)]}`",
                        ),
                    )

    def _worker_summary(
        self, analysis: DataflowAnalysis, mod: ModuleInfo, disp: DispatchSite
    ) -> Summary | None:
        if disp.worker is None:
            return None
        dummy = ast.Call(func=disp.worker, args=[], keywords=[])
        resolved = analysis.project.resolve_call(mod.ctx, mod.name, dummy)
        return analysis.summaries.get(resolved or "")

    def _shared_rng_name(
        self, flow: _FunctionFlow, disp: DispatchSite
    ) -> str | None:
        """A non-per-job RNG name baked into the dispatch's jobs, if any."""
        exprs: list[ast.expr] = []
        for job in disp.jobs:
            expr: ast.expr | None = job
            if isinstance(job, ast.Name):
                expr = flow.assignment_value(job.id)
                if expr is None:
                    # Opaque name: only flag when it *is* a shared rng
                    # being submitted directly (submit kind).
                    if disp.kind == "submit" and TAG_RNG in flow.tags_of(job):
                        return job.id
                    continue
            exprs.append(expr)
        for expr in exprs:
            if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
                bound = {
                    t.id
                    for gen in expr.generators
                    for t in ast.walk(gen.target)
                    if isinstance(t, ast.Name)
                }
                if self._per_job_stream(expr.elt):
                    continue
                for node in ast.walk(expr.elt):
                    if (
                        isinstance(node, ast.Name)
                        and node.id not in bound
                        and TAG_RNG in flow.tags.get(node.id, set())
                    ):
                        return node.id
            elif isinstance(expr, (ast.List, ast.Tuple)):
                for elt in expr.elts:
                    for node in ast.walk(elt):
                        if isinstance(node, ast.Name) and TAG_RNG in flow.tags.get(
                            node.id, set()
                        ):
                            return node.id
            elif disp.kind == "submit":
                for node in ast.walk(expr):
                    if isinstance(node, ast.Name) and TAG_RNG in flow.tags.get(
                        node.id, set()
                    ):
                        return node.id
        return None

    @staticmethod
    def _per_job_stream(elt: ast.expr) -> bool:
        """Does the per-job expression construct its own stream?"""
        for node in ast.walk(elt):
            if isinstance(node, ast.Call):
                func = node.func
                leaf = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else ""
                )
                if leaf in {"default_rng", "stream", "spawn", "SeedSequence"}:
                    return True
        return False


@register_project
class ClockIntoCacheKeyRule(ProjectRule):
    """FLOW003: a wall-clock value flowing into a cache key or entry."""

    meta = RuleMeta(
        id="FLOW003",
        name="clock-into-cache-key",
        family="FLOW",
        severity="error",
        summary="wall-clock value flows into a cache key or cached result",
        rationale=(
            "A key or payload derived from `time.time()` is unique per run, "
            "so the cache never hits (or worse, hits across runs that should "
            "differ). Content hashes and injected timestamps keep cache "
            "behaviour reproducible; the wall clock never belongs in them — "
            "even when it arrives laundered through a helper's return value."
        ),
        fix_hint=(
            "key caches on content hashes/config digests; inject timestamps "
            "at the CLI boundary if a result must carry one"
        ),
        example_bad=(
            "import time\n\n"
            "def store(cache, module, value):\n"
            "    cache.put((module, time.time()), value)"
        ),
        example_good=(
            "def store(cache, module, digest, value):\n"
            "    cache.put((module, digest), value)"
        ),
    )

    def check(self, analysis: DataflowAnalysis) -> None:  # type: ignore[override]
        for mod in analysis.project.modules.values():
            for qname, _sites in analysis._site_groups(mod):
                flow = analysis.flow_of(mod, qname)
                for call, args in analysis.cache_sinks(mod, qname):
                    for arg in args:
                        if TAG_CLOCK in flow.tags_of(arg):
                            self.report(
                                mod.ctx.path,
                                call,
                                "wall-clock value used in a cache "
                                "key/entry",
                            )
                            break
            self._check_forwarding(analysis, mod)

    def _check_forwarding(
        self, analysis: DataflowAnalysis, mod: ModuleInfo
    ) -> None:
        for qname, sites in analysis._site_groups(mod):
            flow = analysis.flow_of(mod, qname)
            for site in sites:
                callee = analysis.summaries.get(site.callee or "")
                if callee is None or not callee.sinks:
                    continue
                for pos, arg in enumerate(site.node.args):
                    if pos in callee.sinks and TAG_CLOCK in flow.tags_of(arg):
                        target = callee.fn
                        self.report(
                            mod.ctx.path,
                            site.node,
                            f"wall-clock value passed to `{target.name}`, "
                            "which feeds it into a cache key "
                            f"(parameter `{target.params[pos]}`)",
                            trace=(
                                f"{mod.ctx.path}:{site.node.lineno} "
                                f"{qname or '<module>'}",
                                f"{analysis.project.modules[target.module].ctx.path}"
                                f":{target.node.lineno} {target.qname} keys a "
                                f"cache on `{target.params[pos]}`",
                            ),
                        )


# -------------------------------------------------------------- SPAN rules


@register_project
class SpanContractRule(ProjectRule):
    """SPAN001: a span opened under a contract-violating parent."""

    meta = RuleMeta(
        id="SPAN001",
        name="span-contract-parent",
        family="SPAN",
        severity="error",
        summary=(
            "span opened under a parent the span-naming contract forbids"
        ),
        rationale=(
            "The docs span table (docs/span_contract.json) is what makes "
            "traces comparable across runs and what the phase-tiling checks "
            "assume. A span grafted under the wrong parent — often via a "
            "helper called from an unexpected stage — breaks every consumer "
            "of the trace, silently. The call-graph pass proves the parent "
            "even when the `with span(...)` sits in another file."
        ),
        fix_hint=(
            "open the span under a parent the contract allows (see "
            "docs/span_contract.json), or extend the contract deliberately"
        ),
        example_bad=(
            "def polish(tracer):\n"
            "    with tracer.span('evolve'):\n"
            "        with tracer.span('stitch.anneal'):\n"
            "            pass"
        ),
        example_good=(
            "def polish(tracer):\n"
            "    with tracer.span('stitch'):\n"
            "        with tracer.span('stitch.anneal'):\n"
            "            pass"
        ),
    )

    def check(self, analysis: DataflowAnalysis) -> None:  # type: ignore[override]
        contract = analysis.contract
        for mod in analysis.project.modules.values():
            for qname, _sites in analysis._site_groups(mod):
                for site, name in analysis.span_opens(mod, qname):
                    if name not in contract.known:
                        continue
                    allowed = contract.allowed_parents(name)
                    if site.span_parent is not None:
                        if site.span_parent not in allowed:
                            self.report(
                                mod.ctx.path,
                                site.node,
                                f"span `{name}` opened under `"
                                f"{site.span_parent}`; the contract allows "
                                f"parents {sorted(allowed) or ['<root>']}",
                            )
                        continue
                    if not qname:
                        continue
                    for parent, where in sorted(
                        analysis.span_parents_of(qname)
                    ):
                        if parent in contract.known and parent not in allowed:
                            self.report(
                                mod.ctx.path,
                                site.node,
                                f"span `{name}` is reached under span "
                                f"`{parent}` via {where}; the contract "
                                f"allows parents {sorted(allowed) or ['<root>']}",
                                trace=(
                                    where,
                                    f"{mod.ctx.path}:{site.node.lineno} "
                                    f"{qname} opens `{name}`",
                                ),
                            )


@register_project
class DoubleGraftRule(ProjectRule):
    """SPAN002: a worker trace grafted more than once."""

    meta = RuleMeta(
        id="SPAN002",
        name="double-graft",
        family="SPAN",
        severity="error",
        summary="the same worker trace can reach `graft()` twice",
        rationale=(
            "`Tracer.graft` is an exactly-once merge: grafting a worker's "
            "span tree twice duplicates every span under the open parent "
            "and double-counts its durations. The duplicate path is "
            "typically split across functions — a helper grafts its "
            "argument and the caller grafts the same list again — so only "
            "a call-graph view can count reachability per value."
        ),
        fix_hint=(
            "graft each worker trace exactly once, at the fan-out site that "
            "shipped it; drop the redundant graft"
        ),
        example_bad=(
            "def merge(tracer, traces):\n"
            "    for t in traces:\n"
            "        tracer.graft(t)\n"
            "    for t in traces:\n"
            "        tracer.graft(t)"
        ),
        example_good=(
            "def merge(tracer, traces):\n"
            "    for t in traces:\n"
            "        tracer.graft(t)"
        ),
    )

    def check(self, analysis: DataflowAnalysis) -> None:  # type: ignore[override]
        for mod in analysis.project.modules.values():
            for qname, sites in analysis._site_groups(mod):
                fn = mod.functions.get(qname)
                events: dict[str, list[ast.Call]] = {}
                for site in sites:
                    call = site.node
                    source: str | None = None
                    if (
                        isinstance(call.func, ast.Attribute)
                        and call.func.attr == "graft"
                        and call.args
                    ):
                        if fn is not None:
                            source = analysis._graft_source(
                                mod, fn, call.args[0]
                            )
                        elif isinstance(call.args[0], ast.Name):
                            source = call.args[0].id
                    else:
                        callee = analysis.summaries.get(site.callee or "")
                        if callee is not None and callee.grafts:
                            for pos, arg in enumerate(call.args):
                                if pos in callee.grafts and isinstance(
                                    arg, ast.Name
                                ):
                                    source = arg.id
                                    break
                    if source is not None:
                        events.setdefault(source, []).append(call)
                for name, calls in sorted(events.items()):
                    if len(calls) > 1:
                        first = min(calls, key=lambda c: (c.lineno, c.col_offset))
                        second = sorted(
                            calls, key=lambda c: (c.lineno, c.col_offset)
                        )[1]
                        self.report(
                            mod.ctx.path,
                            second,
                            f"worker trace(s) `{name}` already grafted at "
                            f"line {first.lineno}; grafting again duplicates "
                            "their spans",
                        )


# --------------------------------------------------------------- RED rules


@register_project
class UnorderedFloatReductionRule(ProjectRule):
    """RED001: float accumulation over an order-free iterable."""

    meta = RuleMeta(
        id="RED001",
        name="unordered-float-reduction",
        family="RED",
        severity="error",
        summary=(
            "float accumulation over a set-valued or completion-ordered "
            "iterable returned across a call boundary"
        ),
        rationale=(
            "Float addition is not associative: summing the same values in "
            "a different order changes the last ULP, which is enough to "
            "fail every bitwise-equality gate in the repo. DET004 catches "
            "local set iteration; this rule chases the provenance through "
            "returns — a helper that returns a set (or an "
            "`imap_unordered`/`as_completed` stream) feeding a float "
            "accumulation in another function or file."
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

    def check(self, analysis: DataflowAnalysis) -> None:  # type: ignore[override]
        for mod in analysis.project.modules.values():
            for qname, _sites in analysis._site_groups(mod):
                flow = analysis.flow_of(mod, qname)
                scope: ast.AST = (
                    mod.functions[qname].node if qname else mod.ctx.tree
                )
                for node in ast.walk(scope):
                    if not isinstance(node, ast.For):
                        continue
                    # Module-level group: skip loops that live inside a
                    # function (their own group walks them).
                    if not qname and mod.ctx.enclosing_function(node) is not None:
                        continue
                    if not self._call_derived(flow, node.iter):
                        continue
                    tags = flow.tags_of(node.iter)
                    if not tags & {TAG_SET, TAG_UNORDERED}:
                        continue
                    acc = self._float_accumulation(flow, node.body)
                    if acc is not None:
                        kind = (
                            "completion-ordered"
                            if TAG_UNORDERED in tags
                            else "set-valued"
                        )
                        self.report(
                            mod.ctx.path,
                            node.iter,
                            f"float accumulator `{acc}` summed over a "
                            f"{kind} iterable; the order — and therefore "
                            "the rounding — is not reproducible",
                        )

    @staticmethod
    def _call_derived(flow: _FunctionFlow, expr: ast.expr) -> bool:
        """Provenance crosses a call boundary (not a local literal)."""
        if isinstance(expr, ast.Call):
            return True
        if isinstance(expr, ast.Name):
            value = flow.assignment_value(expr.id)
            return isinstance(value, ast.Call)
        return False

    @staticmethod
    def _float_accumulation(
        flow: _FunctionFlow, body: list[ast.stmt]
    ) -> str | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
                    and isinstance(node.target, ast.Name)
                    and node.target.id in flow.float_names
                ):
                    return node.target.id
        return None
