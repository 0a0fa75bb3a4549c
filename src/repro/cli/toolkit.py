"""The single-shot commands: ``figures`` and ``taxonomy``."""

from __future__ import annotations


def register(sub) -> None:
    p = sub.add_parser("figures", help="render the paper's figures")
    p.add_argument("figure", nargs="?", default="all", choices=["1", "2", "3", "4", "all"])
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("taxonomy", help="print the evaluation taxonomy")
    p.add_argument("--modules", action="store_true", help="show implementing modules")
    p.set_defaults(fn=_cmd_taxonomy)


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

