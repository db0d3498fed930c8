"""Command-line driver for injection campaigns.

Subcommands cover the whole workflow: ``locate`` finds injection sites,
``inject`` writes buggy contracts plus bug logs, ``oracle`` fabricates
analyzer reports with planted truth, and ``evaluate`` scores reports
against bug logs. The driver only reads files, writes files and renders;
``injector.inject_file`` injects and ``evaluator.evaluate_campaign`` scores.
Each file is checked where it is loaded, against the name it is read under
or the buggy file it is for: ``buglog.load_buglog(text, file)``,
``evaluator.load_truth_extras(text, tool)``, ``oracle.uninjected_lines``.
Each stage runs as its own process, so each subcommand imports only the
modules it runs: ``oracle`` and ``evaluate`` never load the front end, the
locator, the pool or the injector, ``inject`` never loads the oracle or the
evaluator, and ``oracle`` never loads the evaluator.

Exit codes: 0 all ok, 1 usage or configuration error, 2 at least one
per-file failure (processing continues and a summary is printed).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from importlib import import_module, resources
from pathlib import Path
from typing import TYPE_CHECKING

from .buglog import (BugLogEntry, emit_buglog_csv, emit_buglog_json,
                     load_buglog)
from .errors import (DomainError, MalformedDocument, PoolError,
                     SolBugSmithError, shown)
from .model import BugType, load_capabilities

if TYPE_CHECKING:
    from .pool import BugPool

# perfbench/tracing.py reads and rebinds these names in this module, though
# the subcommands import them where they run; ``__getattr__`` serves each
# from its module when it is asked for, so that importing this module loads
# none of them. This goes when the tracer wraps each function once, in its
# defining module (ROADMAP item 2).
_TRACED = {"parse": "front", "validate": "front",
           "find_all_potential_locations": "locator", "inject_all": "injector",
           "load_pool": "pool", "generate_tool_report": "oracle",
           "dump_report": "oracle", "ingest_report": "evaluator",
           "score_false_negatives": "evaluator",
           "filter_by_majority": "evaluator", "render_fn_table": "evaluator",
           "render_fp_table": "evaluator"}


def __getattr__(name: str):
    if name not in _TRACED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_TRACED[name]}", __package__), name)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here reserves 2
    for per-file failures, so usage errors map to 1 instead. The error is
    one line; ``--help`` shows the usage."""

    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _ConfigError(Exception):
    pass


def _int_at_least(low: int):
    """argparse ``type`` for an integer flag with a lower bound."""

    def convert(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {raw!r}")
        return value
    return convert


def _build_parser() -> _Parser:
    parser = _Parser(prog="solbugsmith",
                     description="Inject seeded bugs into Solidity sources "
                                 "and score analyzer reports against them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--pool", metavar="FILE",
                       help="bug pool JSON (bundled pool if omitted)")
        p.add_argument("--bug-types", metavar="LIST",
                       help="comma-separated bug type names (default: all)")

    p = sub.add_parser("locate", help="write injection profiles")
    p.add_argument("--corpus", required=True, metavar="PATH")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--dump-bip", action="store_true",
                   help="print each profile as JSON to stdout")
    p.add_argument("--dump-ast", action="store_true",
                   help="print each source AST as JSON and skip site search")
    common(p)

    p = sub.add_parser("inject", help="write buggy contracts and bug logs")
    p.add_argument("--corpus", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--counter-start", type=_int_at_least(0), default=0)
    common(p)

    p = sub.add_parser("oracle", help="fabricate analyzer reports with truth")
    p.add_argument("--buglogs", required=True, metavar="DIR",
                   help="directory holding *.buglog.json and the buggy .sol files")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--capabilities", metavar="FILE")
    p.add_argument("--miss-rate", type=float, default=0.0)
    p.add_argument("--mistype-rate", type=float, default=0.0)
    p.add_argument("--extra-per-file", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate", help="score reports against bug logs")
    p.add_argument("--buglogs", required=True, metavar="DIR")
    p.add_argument("--reports", required=True, metavar="DIR")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--capabilities", metavar="FILE")
    p.add_argument("--line-slack", type=_int_at_least(0), default=0)
    p.add_argument("--sample-size", type=_int_at_least(1), default=20)
    p.add_argument("--confirmed", metavar="FILE",
                   help="JSON {tool: {bugType: confirmed count}} from manual "
                        "inspection; truth files win when present")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _resolve_bug_types(raw: str | None) -> list[BugType]:
    if raw is None:
        return list(BugType)
    names = [part.strip() for part in raw.split(",")]
    if not any(names):
        raise _ConfigError("--bug-types must name at least one bug type")
    types = []
    for name in names:
        if not name:
            continue
        try:
            types.append(BugType(name))
        except ValueError:
            raise _ConfigError(f"unknown bug type: {name!r}")
    return list(dict.fromkeys(types))


def _load_config(path: str, load):
    """``load`` applied to the text of a configuration file; any failure to
    read or decode it becomes a one-line error naming the file."""
    try:
        return load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, PoolError) as exc:
        raise _ConfigError(f"{path}: {exc}")


def _resolve_pool(path: str | None) -> BugPool:
    from .pool import default_pool, load_pool
    if path is None:
        return default_pool()
    return _load_config(path, load_pool)


def _resolve_capabilities(path: str | None) -> dict[str, frozenset[BugType]]:
    if path is None:
        bundled = resources.files("solbugsmith") / "data" / "capabilities.json"
        return load_capabilities(bundled.read_text(encoding="utf-8"))
    return _load_config(path, load_capabilities)


def _corpus_files(raw: str) -> list[Path]:
    path = Path(raw)
    if path.is_dir():
        if files := sorted(path.glob("*.sol")):
            return files
        raise _ConfigError(f"no *.sol files in {raw}")
    if path.is_file():
        return [path]
    raise _ConfigError(f"corpus path does not exist: {raw}")


def _out_dir(raw: str) -> Path:
    """The output directory ``raw``, made with its parents if missing."""
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _ConfigError(f"cannot make directory {raw}: {exc.strerror}")
    return path


def _write(out_dir: Path, name: str, text: str,
           failures: list[tuple[str, str]]) -> bool:
    """Write ``text`` to ``out_dir / name``, or record why it cannot be
    written as a failure of ``name``; True if it was written."""
    try:
        (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        failures.append((name, f"cannot write: {exc.strerror}"))
        return False
    return True


def _label(name: str | Path) -> str:
    """A file name or path as it is, or as ``shown`` puts it if it holds an
    unprintable character (a newline or a bare \\r, say)."""
    name = str(name)
    return name if name.isprintable() else shown(name)


def _sources(files: list[Path], failures: list[tuple[str, str]]):
    """``(path, text)`` for each corpus file that reads as UTF-8; the others
    are recorded as per-file failures."""
    for path in files:
        try:
            yield path, path.read_text(encoding="utf-8")
        except OSError as exc:
            failures.append((path.name, f"cannot read: {exc.strerror}"))
        except UnicodeDecodeError as exc:
            failures.append((path.name, f"cannot read source: {exc}"))


def _read_documents(root: Path, suffix: str, load, ext: str = "") -> dict:
    """``load(text, name)`` of each ``*suffix`` file in ``root``, keyed by
    ``name``, the file name with ``ext`` in place of ``suffix``; a file
    that cannot be read or loaded is a ``MalformedDocument`` naming it."""
    docs = {}
    for path in sorted(root.glob(f"*{suffix}")):
        name = path.name[:-len(suffix)] + ext
        try:
            docs[name] = load(path.read_text(encoding="utf-8"), name)
        except OSError as exc:
            raise MalformedDocument(f"{_label(path)}: cannot read: "
                                    f"{exc.strerror}") from None
        except (UnicodeDecodeError, MalformedDocument) as exc:
            raise MalformedDocument(f"{_label(path)}: {exc}") from None
    return docs


def _read_buglogs(raw: str) -> dict[str, list[BugLogEntry]]:
    """Bug-log entries by the buggy file ``<stem>.sol`` that each log
    ``<stem>.buglog.json`` is for."""
    root = Path(raw)
    if not root.is_dir():
        raise _ConfigError(f"buglog directory does not exist: {raw}")
    # perfbench/tracing.py rebinds load_buglog here, so look it up as it runs
    logs = _read_documents(root, ".buglog.json", load_buglog, ".sol")
    if not logs:
        raise _ConfigError(f"no *.buglog.json files in {raw}")
    return logs


def _summarize(failures: list[tuple[str, str]]) -> int:
    if not failures:
        return 0
    print(f"{len(failures)} failure(s):", file=sys.stderr)
    for name, reason in failures:
        print(f"  {_label(name)}: {reason}", file=sys.stderr)
    return 2


def _cmd_locate(args: argparse.Namespace) -> int:
    from .front import parse
    from .locator import dump_profile, find_all_potential_locations

    pool = _resolve_pool(args.pool)
    bug_types = _resolve_bug_types(args.bug_types)
    files = _corpus_files(args.corpus)
    out_dir = _out_dir(args.out) if args.out else None
    failures: list[tuple[str, str]] = []

    for path, source in _sources(files, failures):
        label = _label(path.name)
        try:
            unit = parse(source)
        except SolBugSmithError as exc:
            names = [label] if args.dump_ast else \
                [f"{label} ({bug_type})" for bug_type in bug_types]
            failures.extend((name, str(exc)) for name in names)
            continue
        if args.dump_ast:
            doc = json.dumps(unit.to_json(), indent=2)
            if out_dir is not None:
                _write(out_dir, f"{path.stem}.ast.json", doc + "\n", failures)
            else:
                print(doc)
            continue
        for bug_type in bug_types:
            profile = find_all_potential_locations(unit, bug_type, pool,
                                                   source_id=path.name)
            doc = dump_profile(profile) if args.dump_bip or out_dir else None
            if args.dump_bip:
                print(doc, end="")
            if out_dir is not None:
                _write(out_dir, f"{path.stem}.{bug_type.value}.bip.json",
                       doc, failures)
            elif not args.dump_bip:
                print(f"{label} {bug_type.value}: "
                      f"{len(profile.sites)} site(s)")
    return _summarize(failures)


def _cmd_inject(args: argparse.Namespace) -> int:
    from .front import parse
    from .injector import inject_file

    pool = _resolve_pool(args.pool)
    bug_types = _resolve_bug_types(args.bug_types)
    files = _corpus_files(args.corpus)
    out_dir = _out_dir(args.out)

    # a file name goes into every bug log, whose CSV rows stay one line of
    # printable text each
    failures: list[tuple[str, str]] = [
        (path.name, "a file name with an unprintable character cannot go "
                    "into a bug log")
        for path in files if not path.name.isprintable()]
    written = 0
    total_bugs = 0
    for path, source in _sources([path for path in files
                                  if path.name.isprintable()], failures):
        try:
            unit = parse(source)
        except SolBugSmithError as exc:
            failures.extend((f"{path.stem}.{bug_type.value}.sol", str(exc))
                            for bug_type in bug_types)
            continue
        for bug_type in bug_types:
            out_name = f"{path.stem}.{bug_type.value}.sol"
            try:
                result = inject_file(unit, bug_type, pool, out_name,
                                     args.counter_start)
            except SolBugSmithError as exc:
                failures.append((out_name, str(exc)))
                continue
            stem = out_name[:-len(".sol")]
            outputs = {out_name: result.text,
                       f"{stem}.buglog.json": emit_buglog_json(result.entries),
                       f"{stem}.buglog.csv": emit_buglog_csv(result.entries)}
            done: list[str] = []
            for name, text in outputs.items():
                if not _write(out_dir, name, text, failures):
                    # leave no buggy file without both of its logs
                    for gone in done:
                        (out_dir / gone).unlink()
                    break
                done.append(name)
            else:
                written += 1
                total_bugs += len(result.entries)
    print(f"wrote {written} buggy file(s), {total_bugs} bug(s) total")
    return _summarize(failures)


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import (OracleSpec, dump_report, generate_tool_report,
                         uninjected_lines)

    try:
        spec = OracleSpec(miss_rate=args.miss_rate,
                          mistype_rate=args.mistype_rate,
                          extra_per_file=args.extra_per_file, seed=args.seed)
    except DomainError as exc:
        raise _ConfigError(str(exc))
    capabilities = _resolve_capabilities(args.capabilities)
    buglogs = _read_buglogs(args.buglogs)
    root = Path(args.buglogs)
    out_dir = _out_dir(args.out)

    open_lines: dict[str, list[int]] = {}
    failures: list[tuple[str, str]] = []
    for sol_name in sorted(buglogs):
        sol_path = root / sol_name
        if not sol_path.is_file():
            failures.append((sol_name, "buggy source missing next to its log"))
            continue
        for _, text in _sources([sol_path], failures):
            try:
                open_lines[sol_name] = uninjected_lines(buglogs[sol_name],
                                                        text)
            except MalformedDocument as exc:
                failures.append((sol_name, str(exc)))
    usable = {name: buglogs[name] for name in open_lines}

    written = 0
    for tool in sorted(capabilities):
        report, truth = generate_tool_report(tool, capabilities[tool], usable,
                                             open_lines, spec)
        # a tool counts as written once its truth file is
        if (_write(out_dir, f"{tool}.report.json", dump_report(report),
                   failures)
                and _write(out_dir, f"{tool}.truth.json", dump_report(truth),
                           failures)):
            written += 1
    print(f"wrote reports for {written} tool(s) "
          f"over {len(usable)} file(s)")
    return _summarize(failures)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluator import (Finding, evaluate_campaign, fn_csv, fp_csv,
                            ingest_report, load_confirmed, load_truth_extras,
                            render_fn_table, render_fp_table, report_tool)

    capabilities = _resolve_capabilities(args.capabilities)
    confirmed = _load_config(args.confirmed, load_confirmed) \
        if args.confirmed else {}
    out_dir = _out_dir(args.out) if args.out else None
    buglogs = _read_buglogs(args.buglogs)
    reports_dir = Path(args.reports)
    if not reports_dir.is_dir():
        raise _ConfigError(f"reports directory does not exist: {args.reports}")
    report_paths = sorted(reports_dir.glob("*.report.json"))
    if not report_paths:
        expected = ", ".join(sorted(capabilities))
        raise _ConfigError(f"no *.report.json files in {args.reports}; "
                           f"expected reports for: {expected}")

    failures: list[tuple[str, str]] = []
    findings_by_tool: dict[str, list[Finding]] = {}
    for path in report_paths:
        stem = path.name[:-len(".report.json")]
        try:
            text = path.read_text(encoding="utf-8")
            findings = ingest_report(text, tool=stem)
            if not findings:  # a tool that reports nothing is still scored
                findings_by_tool.setdefault(report_tool(text, stem), [])
        except OSError as exc:
            failures.append((path.name, f"cannot read: {exc.strerror}"))
            continue
        except (UnicodeDecodeError, SolBugSmithError) as exc:
            failures.append((path.name, str(exc)))
            continue
        for finding in findings:
            findings_by_tool.setdefault(finding.tool, []).append(finding)

    truth_extras = _read_documents(reports_dir, ".truth.json",
                                   load_truth_extras)
    entries = [e for name in sorted(buglogs) for e in buglogs[name]]
    try:
        result = evaluate_campaign(entries, findings_by_tool, capabilities,
                                   truth_extras, confirmed, args.line_slack,
                                   args.sample_size, args.seed)
    except DomainError as exc:  # --confirmed names a tool or count amiss
        raise _ConfigError(f"{args.confirmed}: {exc}")
    failures += [(tool, "tool missing from the capabilities file")
                 for tool in result.missing_tools]
    # the thresholds still count these tools, so their silence is a failure;
    # a report that did not ingest is already named
    skipped = {name for name, _ in failures}
    unreported = [tool for tool in sorted(capabilities)
                  if tool not in findings_by_tool
                  and f"{tool}.report.json" not in skipped]
    if unreported:
        names = ", ".join(map(shown, unreported))
        failures.append((args.reports, "no report for tool(s) in the "
                         f"capabilities file: {names}"))

    documents = {
        "fn_report.md": render_fn_table(result.scores, capabilities),
        "fp_report.md": render_fp_table(result.cells, result.thresholds,
                                        result.misc_counts),
        "fn_scores.csv": fn_csv(result.scores, capabilities),
        "fp_cells.csv": fp_csv(result.cells, result.thresholds,
                               result.misc_counts),
    }
    if failures:
        print("partial results: some reports or tools were skipped",
              file=sys.stderr)
    if out_dir is not None:
        if all([_write(out_dir, name, text, failures)
                for name, text in documents.items()]):
            print(f"wrote evaluation documents to {out_dir}")
    else:
        print(documents["fn_report.md"])
        print(documents["fp_report.md"], end="")
    return _summarize(failures)


_COMMANDS = {
    "locate": _cmd_locate,
    "inject": _cmd_inject,
    "oracle": _cmd_oracle,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _ConfigError as exc:
        print(f"solbugsmith {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except SolBugSmithError as exc:
        print(f"solbugsmith {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """``main`` on the command line, as a process of its own runs it (``python
    -m solbugsmith.cli`` and the ``solbugsmith`` script): the objects made
    up to here, the interpreter's and this module's, are frozen first, so
    that no collection while the subcommand runs scans them again."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
