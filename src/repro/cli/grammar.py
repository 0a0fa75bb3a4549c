"""``repro-io grammar``: sample and expand the I/O-pattern grammar, and
synthesize scenarios back from traces."""

from __future__ import annotations

import json

from repro.cli import common


def register(sub) -> None:
    p = sub.add_parser(
        "grammar",
        help="generated workloads: sample/expand the I/O-pattern grammar, "
        "synthesize scenarios back from traces",
    )
    grammar_sub = p.add_subparsers(dest="action", required=True)

    sp = grammar_sub.add_parser("show", help="print the grammar's rules")
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--json", action="store_true",
                    help="dump the grammar document instead")
    sp.set_defaults(fn=_with_grammar(_grammar_show))

    sp = grammar_sub.add_parser(
        "sample", help="draw deterministic derivations (seeded)"
    )
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--seed", type=int, default=0, help="first sample seed")
    sp.add_argument("--count", type=common.positive_int, default=1,
                    help="number of consecutive seeds to sample")
    sp.add_argument("--ranks", type=common.positive_int, default=4)
    sp.add_argument("--max-steps", type=int, default=256,
                    help="derivation depth bound")
    sp.add_argument("--text", action="store_true",
                    help="print each generated DSL program")
    sp.add_argument("--json", action="store_true",
                    help="print derivation documents as JSON lines")
    sp.add_argument("--run", action="store_true",
                    help="also run each sampled scenario")
    sp.set_defaults(fn=_with_grammar(_grammar_sample))

    sp = grammar_sub.add_parser(
        "expand", help="replay an explicit derivation (choice list)"
    )
    sp.add_argument("choices", help="comma-separated production indices")
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--ranks", type=common.positive_int, default=4)
    sp.add_argument("--complete", action="store_true",
                    help="finish a partial derivation greedily")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_with_grammar(_grammar_expand))

    sp = grammar_sub.add_parser(
        "synth",
        help="search the grammar for the smallest derivation reproducing "
        "a trace or scenario's access pattern",
    )
    sp.add_argument(
        "target",
        help="trace file (save_trace .jsonl.gz), scenario JSON, or preset",
    )
    sp.add_argument("--grammar", help="grammar JSON file (default: built-in)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for running a scenario target")
    sp.add_argument("--beam", type=int, default=8, help="beam width")
    sp.add_argument("--max-steps", type=int, default=64,
                    help="search depth bound")
    sp.add_argument("--threshold", type=float,
                    default=None, help="acceptance distance (default: the "
                    "documented DISTANCE_THRESHOLD)")
    sp.add_argument("--text", action="store_true",
                    help="print the synthesized DSL program")
    sp.add_argument("--rerun", action="store_true",
                    help="re-simulate the synthesized scenario and report "
                    "its trace distance to the target")
    sp.add_argument("--store-dir",
                    help="persist grammar + synthesis artifacts to this store")
    sp.add_argument("--check", action="store_true",
                    help="exit nonzero when the distance exceeds the "
                    "threshold (CI gate)")
    sp.set_defaults(fn=_with_grammar(_grammar_synth))


def _with_grammar(action):
    """Load ``--grammar`` (a JSON file, or the built-in default when unset
    or ``default``) for a ``grammar`` action."""

    def run(args) -> int:
        from repro.wgen import GrammarError, GrammarSpec, default_grammar

        try:
            if args.grammar in (None, "default"):
                grammar = default_grammar()
            else:
                with open(args.grammar, "r", encoding="utf-8") as fh:
                    grammar = GrammarSpec.from_json(fh.read()).validate()
        except (OSError, GrammarError) as exc:
            raise common.CommandError(f"grammar error: {exc}") from exc
        return action(grammar, args)

    return run


def _grammar_target(ref: str, seed: int):
    """Resolve a synthesis target into (ops, n_ranks, label).

    ``ref`` is a trace file (``.jsonl.gz`` from ``save_trace``), a scenario
    JSON file, or a preset name; scenarios are run under a tracer and the
    posix-layer records become the target.
    """
    from pathlib import Path

    from repro.monitoring import RecorderTracer, load_trace
    from repro.wgen import target_ops

    if Path(ref).is_file() and not ref.endswith(".json"):
        records = load_trace(ref)
        posix = [r for r in records if r.layer == "posix"]
        records = posix or records
        ops = target_ops(records)
        label = f"trace {ref}"
    else:
        from repro.scenario import run_scenario

        spec = common.scenario_spec(ref, seed)
        tracer = RecorderTracer()
        run_scenario(spec, observers=[tracer])
        ops = target_ops(tracer.archive.at_layer("posix"))
        label = f"scenario {spec.name} (digest {spec.digest()[:12]})"
    if not ops:
        raise ValueError(f"no operations in target {ref!r}")
    n_ranks = max(op.rank for op in ops) + 1
    return ops, n_ranks, label


def _grammar_show(grammar, args) -> int:
    if args.json:
        print(grammar.to_json())
        return 0
    print(grammar.describe())
    for rule in grammar.rules:
        print(f"  <{rule.lhs}> ::=")
        for p in rule.productions:
            weight = f"  (w={p.weight:g})" if p.weight != 1.0 else ""
            print(f"    | {' '.join(p.symbols)}{weight}")
    return 0


def _grammar_sample(grammar, args) -> int:
    from repro.scenario import run_scenario
    from repro.wgen import sample

    for seed in range(args.seed, args.seed + args.count):
        derivation = sample(grammar, seed=seed, n_ranks=args.ranks,
                            max_steps=args.max_steps)
        spec = derivation.scenario_spec(seed=seed)
        if args.json:
            print(json.dumps(derivation.to_dict()))
        else:
            print(f"seed={seed} choices={len(derivation.choices)} "
                  f"scenario {spec.digest()}")
        if args.text:
            print(derivation.text)
        if args.run:
            run = run_scenario(spec).to_dict()
            print(f"  ran: {run['duration']:.4f}s sim, "
                  f"{run['bytes_written']} B written, "
                  f"{run['bytes_read']} B read, "
                  f"{run['meta_ops']} metadata op(s)")
    return 0


def _grammar_expand(grammar, args) -> int:
    from repro.wgen import GrammarError, expand

    try:
        choices = [int(c) for c in args.choices.split(",") if c != ""]
        derivation = expand(grammar, choices, n_ranks=args.ranks,
                            complete=args.complete)
    except (ValueError, GrammarError) as exc:
        raise common.CommandError(f"expand error: {exc}") from exc
    if args.json:
        print(json.dumps(derivation.to_dict()))
    else:
        print(f"choices={list(derivation.choices)} "
              f"scenario {derivation.scenario_spec().digest()}")
        print(derivation.text)
    return 0


def _grammar_synth(grammar, args) -> int:
    from repro.modeling import DISTANCE_THRESHOLD
    from repro.scenario import ScenarioError
    from repro.wgen import synthesize

    try:
        ops, n_ranks, label = _grammar_target(args.target, args.seed)
    except (OSError, ValueError, ScenarioError) as exc:
        raise common.CommandError(f"cannot resolve target: {exc}") from exc
    print(f"target: {label}, {len(ops)} op(s), {n_ranks} rank(s)")
    threshold = (DISTANCE_THRESHOLD if args.threshold is None
                 else args.threshold)
    result = synthesize(
        ops, grammar=grammar, n_ranks=n_ranks,
        beam_width=args.beam, max_steps=args.max_steps,
        threshold=threshold,
    )
    spec = result.scenario_spec(seed=args.seed)
    print(f"best derivation: {len(result.derivation.choices)} choice(s), "
          f"distance {result.distance:.4f} "
          f"(threshold {result.threshold:.4f}) "
          f"[{'ok' if result.ok else 'ABOVE THRESHOLD'}]")
    print(f"synthesized scenario digest {spec.digest()}")
    if args.text:
        print(result.derivation.text)
    if args.store_dir:
        from repro.store import RunStore
        from repro.wgen import store_synthesis

        digests = store_synthesis(RunStore(args.store_dir), result,
                                  grammar=grammar)
        for kind, digest in sorted(digests.items()):
            print(f"stored {kind}: {digest}")
    rerun_ok = True
    if args.rerun:
        from repro.modeling import trace_distance
        from repro.monitoring import RecorderTracer
        from repro.scenario import run_scenario
        from repro.wgen import target_ops

        tracer = RecorderTracer()
        run_scenario(spec, observers=[tracer])
        rerun_dist = trace_distance(
            ops, target_ops(tracer.archive.at_layer("posix"))
        )
        rerun_ok = rerun_dist <= result.threshold
        print(f"re-simulated trace distance {rerun_dist:.4f} "
              f"[{'ok' if rerun_ok else 'ABOVE THRESHOLD'}]")
    if args.check and not (result.ok and rerun_ok):
        return 1
    return 0
