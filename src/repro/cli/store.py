"""``repro-io store``: inspect and maintain the content-addressed run store."""

from __future__ import annotations

import json
import sys

from repro.cli import common


def register(sub) -> None:
    p = sub.add_parser(
        "store",
        help="inspect and maintain the content-addressed run store",
    )
    common.add_store_dir(p, "store root")
    store_sub = p.add_subparsers(dest="action", required=True)

    sp = store_sub.add_parser("ls", help="list runs, refs and objects")
    sp.add_argument("pattern", nargs="?", default="*",
                    help="fnmatch pattern over ref names (default *)")
    sp.add_argument("--kind",
                    help="list objects of this artifact kind instead of refs")
    sp.set_defaults(fn=_on_store(_store_ls))

    sp = store_sub.add_parser(
        "show", help="show one run or artifact (run id, ref, digest, latest)"
    )
    sp.add_argument("token")
    sp.add_argument("--json", action="store_true",
                    help="also dump the artifact payload as JSON")
    sp.set_defaults(fn=_on_store(_store_show))

    sp = store_sub.add_parser(
        "diff",
        help="content-diff two runs (by artifact set) or two artifacts "
        "(by payload); exits 0 when identical",
    )
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--json", action="store_true",
                    help="print the structured diff report")
    sp.add_argument("--top", type=int, default=10,
                    help="changes to show per artifact (default 10)")
    sp.set_defaults(fn=_on_store(_store_diff))

    sp = store_sub.add_parser(
        "gc", help="delete objects unreachable from any ref or run"
    )
    sp.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    sp.set_defaults(fn=_on_store(_store_gc))

    sp = store_sub.add_parser(
        "verify", help="integrity sweep: corrupt objects, dangling refs"
    )
    sp.set_defaults(fn=_on_store(_store_verify))

    sp = store_sub.add_parser(
        "scrub",
        help="patrol read: digest-verify every object, heal non-canonical "
        "bytes, quarantine unrecoverable ones",
    )
    sp.add_argument("--dry-run", action="store_true",
                    help="classify problems without touching disk")
    sp.add_argument("--no-heal", action="store_true",
                    help="quarantine instead of rewriting healable objects")
    sp.add_argument("--json", help="write the scrub report here")
    sp.set_defaults(fn=_on_store(_store_scrub))

    sp = store_sub.add_parser(
        "export", help="bundle runs/refs/objects into one JSON document"
    )
    sp.add_argument("tokens", nargs="*",
                    help="limit to these runs/artifacts (default: whole store)")
    sp.add_argument("-o", "--output", help="write the bundle here")
    sp.set_defaults(fn=_on_store(_store_export))

    sp = store_sub.add_parser(
        "table",
        help="regenerate the EXPERIMENTS records table from stored "
        "records, no re-run",
    )
    sp.add_argument("--run", help="run id to read records from "
                    "(default: the latest experiment run)")
    sp.set_defaults(fn=_on_store(_store_table))


def _on_store(action):
    """Open ``--store-dir`` for a ``store`` action; a store error exits 2."""

    def run(args) -> int:
        from repro.store import RunStore, StoreError

        try:
            return action(RunStore(args.store_dir), args)
        except StoreError as exc:
            raise common.CommandError(f"store error: {exc}") from exc

    return run


def _fmt_when(ts) -> str:
    import datetime

    try:
        return datetime.datetime.fromtimestamp(float(ts)).strftime(
            "%Y-%m-%d %H:%M:%S")
    except (TypeError, ValueError, OSError, OverflowError):
        return "?"


def _store_ls(store, args) -> int:
    runs = store.runs()
    refs = store.refs(args.pattern or "*")
    print(f"store at {store.root}: {len(store)} object(s), "
          f"{len(refs)} ref(s), {len(runs)} run(s)")
    if runs:
        print("runs (oldest first):")
        for run in runs:
            print(f"  {run['run_id']:<28} {_fmt_when(run.get('created'))}  "
                  f"{len(run.get('artifacts', {}))} artifact(s)")
    if args.kind:
        print(f"objects of kind {args.kind!r}:")
        for digest, artifact in store.query(args.kind):
            print(f"  {digest[:16]}  {artifact.describe()}")
    elif refs:
        print("refs:")
        for name, entry in refs:
            print(f"  {name:<44} -> {entry['digest'][:16]}")
    return 0


def _store_show(store, args) -> int:
    run = store._maybe_run(args.token)
    if run is not None:
        print(f"run {run['run_id']} ({run.get('kind', '?')}), "
              f"created {_fmt_when(run.get('created'))}")
        print(f"manifest {run['manifest'][:16]}")
        for label in sorted(run.get("artifacts", {})):
            digest = run["artifacts"][label]
            try:
                desc = store.get(digest).describe()
            except Exception as exc:  # corrupt/missing: show, don't die
                desc = f"UNREADABLE: {exc}"
            print(f"  {label:<24} {digest[:16]}  {desc}")
        return 0
    digest = store.resolve(args.token)
    artifact = store.get(digest)
    print(f"{digest}  kind={artifact.kind}")
    print(artifact.describe())
    if args.json:
        print(json.dumps(dict(artifact.payload), indent=1, sort_keys=True))
    return 0


def _store_diff(store, args) -> int:
    report = store.diff(args.a, args.b)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0 if report["identical"] else 1
    if report["identical"]:
        print(f"{report['a']} and {report['b']} are identical "
              f"({report['mode']} diff: 0 difference(s))")
        return 0
    if report["mode"] == "runs":
        for label in report["only_a"]:
            print(f"only in {report['a']}: {label}")
        for label in report["only_b"]:
            print(f"only in {report['b']}: {label}")
        for label, changes in report["changed"].items():
            print(f"{label}: {len(changes)} change(s)")
            for ch in changes[:args.top]:
                print(f"  {ch['path']}: {ch['a']!r} -> {ch['b']!r}")
    else:
        for ch in report["changed"][:args.top]:
            print(f"{ch['path']}: {ch['a']!r} -> {ch['b']!r}")
    return 1


def _store_gc(store, args) -> int:
    report = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"gc: {report['kept']} object(s) kept, "
          f"{verb} {len(report['removed'])} "
          f"({report['bytes_freed']} bytes)")
    for digest in report["removed"][:20]:
        print(f"  {digest[:16]}")
    return 0


def _store_verify(store, args) -> int:
    problems = store.verify()
    if not problems:
        print(f"store at {store.root}: no problems found "
              f"({len(store)} object(s))")
        return 0
    for p in problems:
        where = p.get("digest") or p.get("ref") or p.get("run")
        print(f"{str(where)[:40]:<40} {p['problem']}")
    print(f"{len(problems)} problem(s)", file=sys.stderr)
    return 1


def _store_scrub(store, args) -> int:
    from repro.store import scrub_store

    report = scrub_store(store, heal=not args.no_heal, dry_run=args.dry_run)
    verb = "would " if args.dry_run else ""
    print(f"scrub of {store.root}: {report['scanned']} object(s) "
          f"scanned, {report['ok']} ok, "
          f"{verb}healed {report['healed']}, "
          f"{verb}quarantined {report['quarantined']}, "
          f"{len(report['dangling_refs'])} dangling ref(s)")
    for problem in report["problems"][:20]:
        print(f"  {problem['digest'][:16]:<16} {problem['action']}: "
              f"{problem['problem']}")
    for name in report["dangling_refs"][:20]:
        print(f"  dangling ref {name}")
    if args.json:
        common.write_json(args.json, report, "scrub report")
    return 0 if not (report["quarantined"] or report["healed"]) else 1


def _store_export(store, args) -> int:
    bundle = store.export(args.tokens or None)
    text = json.dumps(bundle, indent=1, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"{len(bundle['objects'])} object(s), "
              f"{len(bundle['runs'])} run(s) exported to {args.output}")
    else:
        print(text)
    return 0


def _store_table(store, args) -> int:
    """Regenerate the EXPERIMENTS records table from stored artifacts."""
    from repro.core.experiment import ResultsCollector

    if args.run:
        docs = [store.get_run(args.run)]
    else:
        docs = [r for r in store.runs() if r.get("kind") == "experiment"][-1:]
    pairs = []  # (label, record)
    if docs:
        for label in sorted(docs[0].get("artifacts", {})):
            artifact = store.get(docs[0]["artifacts"][label])
            if artifact.kind == "experiment_record":
                pairs.append((label, artifact.to_record()))
    if not pairs:  # no usable run document: fall back to record refs
        for name, entry in store.refs("records/*"):
            artifact = store.get(entry["digest"])
            if artifact.kind == "experiment_record":
                meta = entry.get("meta", {})
                label = f"{artifact.payload.get('id', name)}" \
                        f"#s{meta.get('seed', '?')}"
                pairs.append((label, artifact.to_record()))
    if not pairs:
        raise common.CommandError("store holds no experiment records yet "
                                  "(run `repro-io experiment all` first)")
    collector = ResultsCollector()
    ids = [rec.id for _, rec in pairs]
    unique = len(set(ids)) == len(ids)
    for label, rec in pairs:
        collector.records[rec.id if unique else label] = rec
    print(collector.table())
    return 0
