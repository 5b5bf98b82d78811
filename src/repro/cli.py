"""Command-line interface.

Usage::

    python -m repro device [part]              # fabric summary
    python -m repro cnv                        # cnvW1A1 design summary
    python -m repro mincf <family> [opts]      # minimal CF of one module
    python -m repro dataset -n 500 -o ds.npz --workers 4 --cache-dir .dscache
    python -m repro train -d ds.npz -o est.json  # train a CF estimator
    python -m repro preimpl design.json --cache-dir .cache --workers 4  # warm the cache
    python -m repro place design.json --cf 1.5 --restarts 4  # SA placement
    python -m repro place design.json --profile --trace-out trace.json
    python -m repro place design.json --placer ga --budget 20000  # GA placer
    python -m repro place design.json --placer pt --chains 4  # parallel tempering
    python -m repro place design.json --placer gp+sa  # analytic warm start + SA
    python -m repro route design.json --congestion-weight 0.5  # congestion/timing report
    python -m repro trace summarize trace.json  # render a saved trace
    python -m repro lint src benchmarks --format github  # static analysis
    python -m repro report [-n 2000] [-o EXPERIMENTS.md]  # all experiments
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

__all__ = ["main", "build_parser"]

#: ``repro place --placer`` choices (kept literal so parser construction
#: stays import-light); :func:`_build_placer` maps each to its placer.
_PLACERS = ("sa", "ga", "pt", "gp", "gp+sa")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    """Tracing flags shared by the long-running commands."""
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the span trace as JSON (or JSONL for *.jsonl)")
    p.add_argument("--profile", action="store_true",
                   help="print the per-stage trace breakdown after the run")


def _add_route_args(p: argparse.ArgumentParser) -> None:
    """Routing/timing-aware cost knobs shared by the placer commands."""
    p.add_argument("--congestion-weight", type=float, default=0.0,
                   help="weight of the channel-overflow congestion cost "
                   "term (0 = pure HPWL, the default)")
    p.add_argument("--timing-weight", type=float, default=0.0,
                   help="weight of the block-level critical-path cost "
                   "term (0 = off, the default)")


def _add_placement_args(p: argparse.ArgumentParser) -> None:
    """Design, CF, placer and restart flags shared by ``place`` and ``route``."""
    p.add_argument("design", help="design JSON (see export-design)")
    p.add_argument("--part", default="xc7z020")
    cf_group = p.add_mutually_exclusive_group()
    cf_group.add_argument("--cf", type=float, default=1.5,
                          help="constant correction factor")
    cf_group.add_argument("--minimal", action="store_true",
                          help="use the ground-truth minimal CF per module")
    p.add_argument("--placer", choices=_PLACERS, default="sa",
                   help="placement optimizer: simulated annealing, genetic "
                   "algorithm, parallel tempering, analytic global "
                   "placement, or analytic warm start + SA")
    p.add_argument("--budget", type=int, default=20000,
                   help="kernel-move budget cap (gp+sa polishes at half "
                   "of it; gp spends none)")
    p.add_argument("--restarts", type=int, default=1,
                   help="independent seeds; the best run wins")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (seeds with --restarts > 1, "
                   "pt chains for a single run; 0 = serial)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=16,
                   help="GA population (--placer ga)")
    p.add_argument("--polish-frac", type=float, default=0.5,
                   help="trailing GA budget fraction spent hill-climbing")
    p.add_argument("--chains", type=int, default=4,
                   help="replica chains on the temperature ladder (pt)")
    p.add_argument("--steps-per-round", type=int, default=250,
                   help="moves per chain per synchronization round (pt)")
    p.add_argument("--swap-period", type=int, default=4,
                   help="rounds between replica-exchange events (pt)")
    p.add_argument("--iters", type=int, default=100,
                   help="analytic gradient-descent iterations (gp, gp+sa; "
                   "uncharged)")
    p.add_argument("--render", action="store_true",
                   help="print the ASCII map (occupancy for place, "
                   "congestion heat map for route)")
    _add_route_args(p)
    _add_trace_args(p)


def _make_tracer(args: argparse.Namespace):
    """An enabled tracer when the run should be traced, else None."""
    if not (args.trace_out or args.profile):
        return None
    from repro.obs.tracer import Tracer

    return Tracer()


def _emit_trace(tracer, args: argparse.Namespace) -> None:
    """Honor ``--trace-out`` / ``--profile`` for a finished run."""
    if tracer is None:
        return
    from repro.obs.export import save_trace, summarize_trace

    if args.trace_out:
        save_trace(tracer, args.trace_out)
        print(f"trace written to {args.trace_out}")
    if args.profile:
        print(summarize_trace(tracer))


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tailored PBlock sizes for CNN-to-FPGA macro flows "
        "(IPPS 2025 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dev = sub.add_parser("device", help="print a part's fabric summary")
    p_dev.add_argument("part", nargs="?", default="xc7z020")

    sub.add_parser("cnv", help="print the cnvW1A1 block-design summary")

    p_exp = sub.add_parser(
        "export-design", help="save the cnvW1A1 block design as JSON"
    )
    p_exp.add_argument("-o", "--output", default="cnvW1A1.json")

    p_min = sub.add_parser("mincf", help="minimal CF of one generated module")
    p_min.add_argument("family", choices=["shiftreg", "lutram", "carry", "lfsr", "mixed"])
    p_min.add_argument("--seed", type=int, default=0)
    p_min.add_argument("--part", default="xc7z020")

    p_ds = sub.add_parser(
        "dataset",
        help="generate and save a labeled dataset (cached, parallel)",
    )
    p_ds.add_argument("-n", "--n-modules", type=int, default=500)
    p_ds.add_argument("--seed", type=int, default=0)
    p_ds.add_argument("--cap", type=int, default=75, help="balance cap per CF bin")
    p_ds.add_argument("--step", type=float, default=0.02,
                      help="CF sweep resolution (paper: 0.02)")
    p_ds.add_argument("--adaptive-step", action="store_true",
                      help="per-module sweep resolution (§VI-C rule)")
    p_ds.add_argument("--workers", type=int, default=0,
                      help="worker processes for the labeling sweep (0 = serial)")
    p_ds.add_argument("--cache-dir", default=None,
                      help="persistent dataset cache directory")
    p_ds.add_argument("--report-out", default=None,
                      help="write the GenerationReport JSON here")
    p_ds.add_argument("--json", action="store_true",
                      help="emit the GenerationReport as JSON on stdout")
    p_ds.add_argument("-o", "--output", default="cf_dataset.npz")
    _add_trace_args(p_ds)

    p_tr = sub.add_parser("train", help="train a CF estimator on a saved dataset")
    p_tr.add_argument("-d", "--dataset", required=True)
    p_tr.add_argument("--kind", choices=["linreg", "dt", "rf", "nn"], default="rf")
    p_tr.add_argument("--features", default="additional")
    p_tr.add_argument("--rf-trees", type=int, default=200)
    p_tr.add_argument("-o", "--output", default="cf_estimator.json")

    p_pi = sub.add_parser(
        "preimpl",
        help="pre-implement a saved block design (cached, parallel)",
    )
    p_pi.add_argument("design", help="design JSON (see export-design)")
    p_pi.add_argument("--part", default="xc7z020")
    p_pi.add_argument("--policy", choices=["fixed", "sweep", "minimal"],
                      default="fixed", help="CF selection policy")
    p_pi.add_argument("--cf", type=float, default=1.5,
                      help="constant CF for --policy fixed")
    p_pi.add_argument("--cache-dir", default=None,
                      help="persistent module cache directory")
    p_pi.add_argument("--workers", type=int, default=0,
                      help="worker processes for cache misses (0 = serial)")
    p_pi.add_argument("--json", action="store_true",
                      help="emit the FlowStats as JSON on stdout")
    _add_trace_args(p_pi)

    p_pl = sub.add_parser(
        "place", help="pre-implement and place a saved block design"
    )
    _add_placement_args(p_pl)

    p_rt = sub.add_parser(
        "route",
        help="place a saved block design and report channel congestion "
        "and the block-level critical path",
    )
    _add_placement_args(p_rt)

    p_lint = sub.add_parser(
        "lint",
        help="determinism & parallel-safety static analysis",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    p_lint.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule ids or family prefixes to run "
        "(e.g. DET003 or DET,PAR)",
    )
    p_lint.add_argument(
        "--ignore", default=None, metavar="IDS",
        help="comma-separated rule ids or family prefixes to skip",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json", "github"], default="text",
        dest="fmt", help="report format",
    )
    p_lint.add_argument(
        "--statistics", nargs="?", const="-", default=None, metavar="PATH",
        help="print the per-rule count table, or write it as JSON to PATH",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule pack and exit",
    )
    p_lint.add_argument(
        "--exclude", action="append", default=None, metavar="GLOB",
        help="glob of paths/directories to skip (repeatable; matches "
        "whole paths and single path components, e.g. '.venv')",
    )
    p_lint.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the incremental cache: only changed files and their "
        "call-graph dependents are re-analyzed",
    )
    p_lint.add_argument(
        "--fix", action="store_true",
        help="apply the mechanically safe autofixes (DET003, DET005, "
        "stale suppressions)",
    )
    p_lint.add_argument(
        "--diff", action="store_true",
        help="with --fix: print the unified diff instead of writing files",
    )
    p_lint.add_argument(
        "--check-clean", action="store_true",
        help="with --fix --diff: exit non-zero when the autofixer would "
        "change anything (the CI guard)",
    )
    p_lint.add_argument(
        "--contract", default=None, metavar="PATH",
        help="span-contract JSON to check SPAN rules against "
        "(default: the built-in docs/span_contract.json table)",
    )

    p_trace = sub.add_parser("trace", help="inspect a saved span trace")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsum = trace_sub.add_parser(
        "summarize", help="render a trace's per-stage breakdown table"
    )
    p_tsum.add_argument("path", help="trace file (JSON or JSONL)")

    p_rep = sub.add_parser("report", help="run every experiment, emit Markdown")
    p_rep.add_argument("-n", "--n-modules", type=int, default=800)
    p_rep.add_argument("--rf-trees", type=int, default=120)
    p_rep.add_argument("--sa-iters", type=int, default=40000)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("-o", "--output", default=None, help="write to file")
    return parser


def _cmd_device(args: argparse.Namespace) -> int:
    from repro.device import make_part

    grid = make_part(args.part)
    print(grid.summary())
    caps = grid.device_caps()
    print(f"  LUT sites: {caps.luts}, FF sites: {caps.ffs}")
    print(f"  clock spine at x = {grid.clock_column_xs()}")
    return 0


def _cmd_cnv(_args: argparse.Namespace) -> int:
    from repro.cnv import cnv_design
    from repro.cnv.partition import block_inventory
    from repro.flow.analysis_graph import analyze_design

    design = cnv_design()
    print(design.summary())
    counts = design.instance_counts().most_common(5)
    print("  top reuse:", ", ".join(f"{m}x{n}" for m, n in counts))
    largest = max(block_inventory(), key=lambda b: b.target_slices)
    print(f"  largest block: {largest.module} (~{largest.target_slices} slices)")
    print("  graph:", analyze_design(design).render())
    return 0


def _cmd_export_design(args: argparse.Namespace) -> int:
    from repro.cnv import cnv_design
    from repro.flow.design_io import save_design

    save_design(cnv_design(), args.output)
    print(f"cnvW1A1 design written to {args.output}")
    return 0


def _cmd_mincf(args: argparse.Namespace) -> int:
    from repro.device import make_part
    from repro.netlist import compute_stats
    from repro.pblock import minimal_cf
    from repro.rtlgen import all_generators
    from repro.synth import synthesize
    from repro.utils.rng import stream

    gen = all_generators()[args.family]
    module = gen.sample(stream(args.seed, "cli", args.family), args.seed)
    stats = compute_stats(synthesize(module))
    found = minimal_cf(stats, make_part(args.part), search_down=True)
    print(f"module {module.name}: minimal CF = {found.cf:.2f} "
          f"({found.n_runs} tool runs)")
    print(f"  {found.pblock.describe()}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    import json

    from repro.dataset import (
        balance_dataset,
        generate_dataset,
        save_dataset_arrays,
        save_generation_report,
    )

    tracer = _make_tracer(args)
    records, report = generate_dataset(
        args.n_modules,
        seed=args.seed,
        step=args.step,
        adaptive_step=args.adaptive_step,
        workers=args.workers or None,
        cache_dir=args.cache_dir,
        tracer=tracer,
    )
    balanced = balance_dataset(records, cap_per_bin=args.cap, seed=args.seed)
    save_dataset_arrays(balanced, args.output)
    if args.report_out:
        save_generation_report(report, args.report_out)
    _emit_trace(tracer, args)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        return 0
    source = "cache" if report.cache_hit else f"{report.n_workers} worker(s)"
    print(
        f"{report.n_labeled} labeled ({report.n_trivial} trivial, "
        f"{report.n_infeasible} infeasible, {report.n_runs} tool runs) "
        f"-> {len(balanced)} balanced -> {args.output} "
        f"[{source}, {report.wall_s:.2f}s]"
    )
    if args.cache_dir:
        print(f"  cache: {args.cache_dir}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.dataset.io import load_dataset_arrays
    from repro.estimator.cf_estimator import CFEstimator
    from repro.ml.metrics import mean_relative_error
    from repro.ml.split import train_test_split

    X, y, _names, _fams = load_dataset_arrays(args.dataset, args.features)
    tr, te = train_test_split(len(y), 0.2, seed=0)
    est = CFEstimator(kind=args.kind, feature_set=args.features,
                      rf_trees=args.rf_trees)
    est.model.fit(X[tr], y[tr])
    est._fitted = True
    err = mean_relative_error(y[te], est.model.predict(X[te]))
    est.save(args.output)
    print(
        f"{args.kind}({args.features}): test relative error "
        f"{err * 100:.1f}% on {len(te)} samples -> {args.output}"
    )
    return 0


def _cmd_preimpl(args: argparse.Namespace) -> int:
    import json

    from repro.device import make_part
    from repro.flow.design_io import load_design
    from repro.flow.policy import FixedCF, MinimalCFPolicy, SweepCF
    from repro.flow.preimpl import implement_design

    design = load_design(args.design)
    grid = make_part(args.part)
    policy = {
        "fixed": lambda: FixedCF(args.cf),
        "sweep": SweepCF,
        "minimal": MinimalCFPolicy,
    }[args.policy]()
    tracer = _make_tracer(args)
    result = implement_design(
        design,
        grid,
        policy,
        n_workers=args.workers or None,
        cache_dir=args.cache_dir,
        tracer=tracer,
    )
    st = result.stats
    _emit_trace(tracer, args)
    if args.json:
        print(json.dumps(st.to_json_dict(), indent=2, sort_keys=True))
        return 0 if result.ok else 1
    print(
        f"{design.name} on {grid.name}: {len(result)}/{st.n_modules} modules "
        f"implemented, {st.cache_hits} cache hits ({st.hit_rate * 100:.0f}%), "
        f"{st.new_tool_runs} new tool runs "
        f"({st.total_tool_runs} total), {st.wall_s:.2f}s"
    )
    if args.cache_dir:
        print(f"  cache: {args.cache_dir}")
    if not result.ok:
        print(result.report.describe())
        return 1
    return 0


def _build_placer(args: argparse.Namespace):
    """The ``--placer`` optimizer configured from the command line."""
    from repro.flow.evolve import GAParams
    from repro.flow.global_place import GPParams
    from repro.flow.placers import (
        AnalyticPlacer,
        GAPlacer,
        SAPlacer,
        TemperedSAPlacer,
        WarmStartedSAPlacer,
    )
    from repro.flow.stitcher import SAParams
    from repro.flow.tempering import PTParams

    common = dict(
        seed=args.seed,
        congestion_weight=args.congestion_weight,
        timing_weight=args.timing_weight,
    )
    sa = SAParams(max_iters=args.budget, **common)
    gp = GPParams(n_iters=args.iters, **common)
    # Restarts already fan out over processes; only a single tempering
    # run spends --workers on its chains.
    chain_workers = (args.workers or None) if args.restarts == 1 else None
    return {
        "sa": lambda: SAPlacer(sa),
        "ga": lambda: GAPlacer(GAParams(
            move_budget=args.budget, population=args.population,
            polish_frac=args.polish_frac, **common,
        )),
        "pt": lambda: TemperedSAPlacer(PTParams(
            max_iters=args.budget, n_chains=args.chains,
            steps_per_round=args.steps_per_round,
            swap_period=args.swap_period, **common,
        ), n_workers=chain_workers),
        "gp": lambda: AnalyticPlacer(gp),
        "gp+sa": lambda: WarmStartedSAPlacer(
            sa, warm="gp", gp_params=gp, name="gp+sa"
        ),
    }[args.placer]()


def _place_design(args: argparse.Namespace):
    """Load, pre-implement and place ``args.design``; print the summary.

    Returns ``(design, grid, flow_result)``; the trace is already
    emitted.
    """
    from repro.device import make_part
    from repro.flow.design_io import load_design
    from repro.flow.policy import FixedCF, MinimalCFPolicy
    from repro.flow.rwflow import run_rw_flow

    design = load_design(args.design)
    grid = make_part(args.part)
    policy = MinimalCFPolicy() if args.minimal else FixedCF(args.cf)
    tracer = _make_tracer(args)
    res = run_rw_flow(
        design,
        grid,
        policy,
        placer=_build_placer(args),
        n_seeds=args.restarts,
        n_workers=args.workers or None,
        tracer=tracer,
    )
    s = res.stitch
    _emit_trace(tracer, args)
    print(
        f"{design.name} on {grid.name}: {s.n_placed} placed, "
        f"{s.n_unplaced} unplaced, wirelength {s.wirelength:.1f}, "
        f"cost {s.final_cost:.1f}"
    )
    return design, grid, res


def _finish(res) -> int:
    """Report infeasible modules; the command's exit code."""
    if not res.ok:
        print(res.infeasible.describe())
        return 1
    return 0


def _cmd_place(args: argparse.Namespace) -> int:
    res = _place_design(args)[2]
    s = res.stitch
    if args.congestion_weight or args.timing_weight:
        print(
            f"  congestion cost {s.congestion_cost:.2f}, "
            f"timing cost {s.timing_cost:.2f}"
        )
    print(
        f"  {args.placer}: converged at move {s.converged_at}/{s.iterations}, "
        f"{s.illegal_moves} illegal moves, {res.total_tool_runs} tool runs"
    )
    if s.stats is not None:
        st = s.stats
        print(
            f"  kernel={st.kernel} seed={st.seed} "
            f"accept rate {st.accept_rate * 100:.1f}%, "
            f"{st.total_s:.2f}s ({st.breakdown()})"
        )
    if args.render:
        print(s.render())
    return _finish(res)


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.route import block_critical_path, congestion_map

    design, grid, res = _place_design(args)
    s = res.stitch
    footprints = {
        name: impl.outcome.result.footprint
        for name, impl in res.implemented.items()
        if impl.outcome.result.footprint is not None
    }
    module_delays = {
        name: impl.timing.total_ns for name, impl in res.implemented.items()
    }
    cmap = congestion_map(design, footprints, s, grid)
    timing = block_critical_path(design, footprints, s, module_delays)
    print(
        f"  congestion: peak {cmap.peak_column_demand} "
        f"(mean {cmap.mean_column_demand:.1f}) wires/channel, "
        f"{cmap.overflowed_channels} overflowed channels, "
        f"total overflow {cmap.total_overflow}, "
        f"{cmap.n_routed_edges} routed / {cmap.n_unrouted_edges} unrouted edges"
    )
    print(
        f"  critical path {timing.critical_path_ns:.2f} ns over "
        f"{len(timing.path)} blocks "
        f"({timing.n_cyclic_edges} cyclic, "
        f"{timing.n_unplaced_edges} unplaced edges)"
    )
    if timing.path:
        print("    " + " -> ".join(timing.path))
    if args.render:
        print(cmap.render())
    return _finish(res)


def _find_git_root(start: Path) -> Path | None:
    """Nearest ancestor (inclusive) containing ``.git``, or None."""
    for candidate in [start, *start.parents]:
        if (candidate / ".git").exists():
            return candidate
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    import difflib

    from repro.lint import (
        apply_fixes,
        lint_paths,
        render,
        render_rule_table,
        render_statistics,
    )
    from repro.lint.report import statistics_json

    if args.list_rules:
        print(render_rule_table())
        return 0

    def split(s: str | None) -> list[str] | None:
        return [p.strip() for p in s.split(",") if p.strip()] if s else None

    contract = None
    if args.contract:
        from repro.lint.dataflow import load_contract

        contract = load_contract(args.contract)

    result = lint_paths(
        args.paths,
        select=split(args.select),
        ignore=split(args.ignore),
        exclude=args.exclude,
        cache_dir=args.cache_dir,
        contract=contract,
    )

    if args.fix:
        by_path: dict[str, list] = {}
        for v in result.violations:
            if v.fixable:
                by_path.setdefault(v.path, []).append(v)
        changed = 0
        fixed = 0
        for path in sorted(by_path):
            try:
                original = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            outcome = apply_fixes(original, by_path[path])
            if not outcome.changed:
                continue
            changed += 1
            fixed += len(outcome.fixed)
            if args.diff:
                print(
                    "".join(
                        difflib.unified_diff(
                            original.splitlines(keepends=True),
                            outcome.source.splitlines(keepends=True),
                            fromfile=f"a/{path}",
                            tofile=f"b/{path}",
                        )
                    ),
                    end="",
                )
            else:
                Path(path).write_text(outcome.source, encoding="utf-8")
        if args.diff:
            if args.check_clean and changed:
                print(
                    f"--check-clean: {fixed} fixable violation(s) in "
                    f"{changed} file(s); run `repro lint --fix`"
                )
                return 1
            print(f"{fixed} fixable violation(s) in {changed} file(s) (dry run)")
            return 0
        print(f"fixed {fixed} violation(s) in {changed} file(s)")
        # Re-lint so the report and exit code reflect the fixed tree.
        result = lint_paths(
            args.paths,
            select=split(args.select),
            ignore=split(args.ignore),
            exclude=args.exclude,
            cache_dir=args.cache_dir,
            contract=contract,
        )

    root = _find_git_root(Path.cwd()) if args.fmt == "github" else None
    print(render(result, args.fmt, root=root))
    if args.statistics == "-":
        print(render_statistics(result))
    elif args.statistics:
        Path(args.statistics).write_text(statistics_json(result) + "\n")
        print(f"statistics written to {args.statistics}")
    return 0 if result.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import load_trace, summarize_trace

    print(summarize_trace(load_trace(args.path)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.context import ExperimentContext
    from repro.analysis.report import generate_report
    from repro.flow.stitcher import SAParams

    ctx = ExperimentContext(
        seed=args.seed, n_modules=args.n_modules, rf_trees=args.rf_trees
    )
    text = generate_report(ctx, SAParams(max_iters=args.sa_iters, seed=args.seed))
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


_COMMANDS = {
    "device": _cmd_device,
    "cnv": _cmd_cnv,
    "export-design": _cmd_export_design,
    "mincf": _cmd_mincf,
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "preimpl": _cmd_preimpl,
    "place": _cmd_place,
    "route": _cmd_route,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
