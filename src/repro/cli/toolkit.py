"""The single-shot commands: ``figures``, ``taxonomy``, ``corpus``,
``run-dsl``, ``run-workload`` and ``cycle``."""

from __future__ import annotations

from repro.cli import common


def register(sub) -> None:
    p = sub.add_parser("figures", help="render the paper's figures")
    p.add_argument("figure", nargs="?", default="all", choices=["1", "2", "3", "4", "all"])
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("taxonomy", help="print the evaluation taxonomy")
    p.add_argument("--modules", action="store_true", help="show implementing modules")
    p.set_defaults(fn=_cmd_taxonomy)

    p = sub.add_parser("corpus", help="survey-corpus distributions")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("run-dsl", help="run a DSL workload description")
    p.add_argument("file", help="path to the .wdsl file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_run_dsl)

    p = sub.add_parser(
        "run-workload", help="run a preset workload on a simulated cluster"
    )
    p.add_argument("name", help="preset name, or 'list' to enumerate presets")
    p.add_argument("--ranks", type=common.positive_int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_run_workload)

    p = sub.add_parser("cycle", help="run evaluation-cycle iterations")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_cycle)


def _cmd_figures(args) -> int:
    from repro.cluster import medium_cluster
    from repro.survey.figures import (
        fig1_platform,
        fig2_stack,
        fig3_distribution,
        fig4_cycle,
    )

    renders = {
        "1": lambda: fig1_platform(medium_cluster()),
        "2": fig2_stack,
        "3": fig3_distribution,
        "4": fig4_cycle,
    }
    which = [args.figure] if args.figure != "all" else ["1", "2", "3", "4"]
    for key in which:
        print(renders[key]())
        print()
    return 0


def _cmd_taxonomy(args) -> int:
    from repro.core.taxonomy import render_tree

    print(render_tree(show_modules=args.modules))
    return 0


def _cmd_corpus(args) -> int:
    from repro.survey.analysis import (
        distribution_by_publisher,
        distribution_by_type,
        distribution_by_year,
        taxonomy_coverage,
    )

    print("by type   :", {k: f"{v:.1f}%" for k, v in distribution_by_type().items()})
    print("by pub    :", {k: f"{v:.1f}%" for k, v in distribution_by_publisher().items()})
    print("by year   :", distribution_by_year())
    print("by category:")
    for cat, n in taxonomy_coverage().items():
        print(f"  {cat:<35} {n}")
    return 0


def _profile_on_tiny_cluster(workload, seed: int, setup=()) -> None:
    """Run ``setup`` then ``workload`` on ``tiny_cluster(seed)`` and print
    the result summary and the workload's Darshan-style report."""
    from repro.cluster import tiny_cluster
    from repro.monitoring import DarshanProfiler
    from repro.pfs import build_pfs
    from repro.simulate import run_workload

    platform = tiny_cluster(seed=seed)
    pfs = build_pfs(platform)
    for w in setup:
        run_workload(platform, pfs, w)
    profiler = DarshanProfiler(job_name=workload.name)
    result = run_workload(platform, pfs, workload, observers=[profiler])
    print(result.summary())
    print()
    print(profiler.profile(n_ranks=workload.n_ranks).report())


def _cmd_run_dsl(args) -> int:
    from repro.wgen import DSLError, parse_workload

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise common.CommandError(f"cannot read {args.file}: {exc}") from exc
    try:
        workload = parse_workload(text)
    except DSLError as exc:
        raise common.CommandError(f"DSL error: {exc}") from exc
    _profile_on_tiny_cluster(workload, args.seed)
    return 0


def _cmd_run_workload(args) -> int:
    from repro.workloads.registry import PRESETS, make_preset

    if args.name == "list":
        for name in sorted(PRESETS):
            _, main = make_preset(name, n_ranks=args.ranks)
            print(f"{name:<12} {main.describe()}")
        return 0
    try:
        setup, main = make_preset(args.name, n_ranks=args.ranks)
    except KeyError as exc:
        raise common.CommandError(exc.args[0]) from exc
    except ValueError as exc:
        raise common.CommandError(f"bad configuration: {exc}") from exc
    print(main.describe())
    _profile_on_tiny_cluster(main, args.seed, setup)
    return 0


def _cmd_cycle(args) -> int:
    from repro.cluster import tiny_cluster
    from repro.core.cycle import EvaluationCycle
    from repro.workloads import IORConfig, IORWorkload

    MiB = 1024 * 1024
    cycle = EvaluationCycle(
        platform_factory=lambda: tiny_cluster(seed=args.seed),
        workload_factory=lambda: IORWorkload(
            IORConfig(block_size=4 * MiB, transfer_size=MiB, read=True), 4
        ),
        seed=args.seed,
    )
    for report in cycle.run(iterations=args.iterations):
        print(report.summary())
    return 0
