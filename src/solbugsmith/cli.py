"""Command-line driver for injection campaigns.

Subcommands cover the whole workflow: ``locate`` finds injection sites,
``inject`` writes buggy contracts plus bug logs, ``oracle`` fabricates
analyzer reports with planted truth, and ``evaluate`` scores reports
against bug logs.

Exit codes: 0 all ok, 1 usage or configuration error, 2 at least one
per-file failure (processing continues and a summary is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import (DomainError, MalformedDocument, MissingBugLog, PoolError,
                     SolBugSmithError)
from .evaluator import (ADAPTERS, FNScore, FPCell, Finding, derive_thresholds,
                        estimate_false_positives, filter_by_majority, fn_cell,
                        ingest_report, load_capabilities, render_fn_table,
                        render_fp_table, restrict_to_scope,
                        sample_for_inspection, score_false_negatives,
                        MISCELLANEOUS)
from .front import parse, validate
from .injector import (BugLogEntry, emit_buglog_csv, emit_buglog_json,
                       inject_all, load_buglog)
from .locator import dump_profile, find_all_potential_locations
from .model import BugType
from .oracle import OracleSpec, child_seed, dump_report, generate_tool_report
from .pool import BugPool, default_pool, load_pool


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
        p.add_argument("--seed", type=int, default=None,
                       help="campaign seed (fallback: $SOLBUGSMITH_SEED, then 0)")

    p = sub.add_parser("locate", parents=[], help="write injection profiles")
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
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("evaluate", help="score reports against bug logs")
    p.add_argument("--buglogs", required=True, metavar="DIR")
    p.add_argument("--reports", required=True, metavar="DIR")
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--adapter", default="synthetic-oracle", choices=ADAPTERS)
    p.add_argument("--capabilities", metavar="FILE")
    p.add_argument("--line-slack", type=_int_at_least(0), default=0)
    p.add_argument("--sample-size", type=_int_at_least(1), default=20)
    p.add_argument("--confirmed", metavar="FILE",
                   help="JSON {tool: {bugType: confirmed count}} from manual "
                        "inspection; truth files win when present")
    p.add_argument("--seed", type=int, default=None)

    return parser


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("SOLBUGSMITH_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _ConfigError(f"SOLBUGSMITH_SEED is not an integer: {raw!r}")


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
    seen: set[BugType] = set()
    unique = [bt for bt in types if not (bt in seen or seen.add(bt))]
    return unique


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
    if path is None:
        return default_pool()
    return _load_config(path, load_pool)


def _resolve_capabilities(path: str | None) -> dict[str, frozenset[BugType]]:
    if path is None:
        bundled = resources.files("solbugsmith") / "data" / "capabilities.json"
        return load_capabilities(bundled.read_text(encoding="utf-8"))
    return _load_config(path, load_capabilities)


def _load_confirmed(text: str) -> dict[str, dict[str, int]]:
    doc = json.loads(text)
    if not isinstance(doc, dict) or not all(
            isinstance(counts, dict)
            and all(type(n) is int and n >= 0 for n in counts.values())
            for counts in doc.values()):
        raise ValueError("expected a JSON object mapping each tool to "
                         "{bug type: count >= 0}")
    return doc


def _corpus_files(raw: str) -> list[Path]:
    path = Path(raw)
    if path.is_dir():
        return sorted(path.glob("*.sol"))
    if path.is_file():
        return [path]
    raise _ConfigError(f"corpus path does not exist: {raw}")


def _sources(files: list[Path], failures: list[tuple[str, str]]):
    """``(path, text)`` for each corpus file that reads as UTF-8; the others
    are recorded as per-file failures."""
    for path in files:
        try:
            yield path, path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            failures.append((path.name, f"cannot read source: {exc}"))


def _read_buglogs(raw: str) -> dict[str, list[BugLogEntry]]:
    root = Path(raw)
    if not root.is_dir():
        raise _ConfigError(f"buglog directory does not exist: {raw}")
    logs: dict[str, list[BugLogEntry]] = {}
    for path in sorted(root.glob("*.buglog.json")):
        sol_name = path.name[:-len(".buglog.json")] + ".sol"
        try:
            logs[sol_name] = load_buglog(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, MalformedDocument) as exc:
            raise MalformedDocument(f"{path}: {exc}") from None
    if not logs:
        raise MissingBugLog(f"no *.buglog.json files in {raw}")
    return logs


def _summarize(failures: list[tuple[str, str]]) -> int:
    if not failures:
        return 0
    print(f"{len(failures)} failure(s):", file=sys.stderr)
    for name, reason in failures:
        print(f"  {name}: {reason}", file=sys.stderr)
    return 2


def _cmd_locate(args: argparse.Namespace) -> int:
    pool = _resolve_pool(args.pool)
    bug_types = _resolve_bug_types(args.bug_types)
    files = _corpus_files(args.corpus)
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[tuple[str, str]] = []

    for path, source in _sources(files, failures):
        if args.dump_ast:
            try:
                doc = json.dumps(parse(source).to_json(), indent=2)
            except SolBugSmithError as exc:
                failures.append((path.name, str(exc)))
                continue
            if out_dir is not None:
                (out_dir / f"{path.stem}.ast.json").write_text(doc + "\n",
                                                               encoding="utf-8")
            else:
                print(doc)
            continue
        for bug_type in bug_types:
            try:
                profile = find_all_potential_locations(source, bug_type, pool,
                                                       source_id=path.name)
            except SolBugSmithError as exc:
                failures.append((f"{path.name} ({bug_type})", str(exc)))
                continue
            if args.dump_bip:
                print(dump_profile(profile), end="")
            if out_dir is not None:
                name = f"{path.stem}.{bug_type.value}.bip.json"
                (out_dir / name).write_text(dump_profile(profile),
                                            encoding="utf-8")
            elif not args.dump_bip:
                print(f"{path.name} {bug_type.value}: "
                      f"{len(profile.sites)} site(s)")
    return _summarize(failures)


def _inject_one(source: str, bug_type: BugType, pool: BugPool,
                out_name: str, counter_start: int):
    profile = find_all_potential_locations(source, bug_type, pool,
                                           source_id=out_name)
    result = inject_all(source, profile, pool, counter_start=counter_start,
                        file_name=out_name)
    diagnostics = validate(result.text)
    if diagnostics:
        first = diagnostics[0]
        raise SolBugSmithError(
            f"output failed validation ({len(diagnostics)} diagnostic(s); "
            f"first at line {first.line}: {first.message})")
    return result


def _cmd_inject(args: argparse.Namespace) -> int:
    pool = _resolve_pool(args.pool)
    bug_types = _resolve_bug_types(args.bug_types)
    files = _corpus_files(args.corpus)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures: list[tuple[str, str]] = []
    written = 0
    total_bugs = 0
    for path, source in _sources(files, failures):
        for bug_type in bug_types:
            out_name = f"{path.stem}.{bug_type.value}.sol"
            try:
                result = _inject_one(source, bug_type, pool, out_name,
                                     args.counter_start)
            except SolBugSmithError as exc:
                failures.append((out_name, str(exc)))
                continue
            (out_dir / out_name).write_text(result.text, encoding="utf-8")
            stem = out_name[:-len(".sol")]
            (out_dir / f"{stem}.buglog.json").write_text(
                emit_buglog_json(result.entries), encoding="utf-8")
            (out_dir / f"{stem}.buglog.csv").write_text(
                emit_buglog_csv(result.entries), encoding="utf-8")
            written += 1
            total_bugs += len(result.entries)
    print(f"wrote {written} buggy file(s), {total_bugs} bug(s) total")
    return _summarize(failures)


def _cmd_oracle(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    try:
        spec = OracleSpec(miss_rate=args.miss_rate,
                          mistype_rate=args.mistype_rate,
                          extra_per_file=args.extra_per_file, seed=seed)
    except DomainError as exc:
        raise _ConfigError(str(exc))
    capabilities = _resolve_capabilities(args.capabilities)
    buglogs = _read_buglogs(args.buglogs)
    root = Path(args.buglogs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    line_counts: dict[str, int] = {}
    failures: list[tuple[str, str]] = []
    for sol_name in sorted(buglogs):
        sol_path = root / sol_name
        if not sol_path.is_file():
            failures.append((sol_name, "buggy source missing next to its log"))
            continue
        for _, text in _sources([sol_path], failures):
            line_counts[sol_name] = text.count("\n") + (
                0 if text.endswith("\n") else 1)
    usable = {name: entries for name, entries in buglogs.items()
              if name in line_counts}

    for tool in sorted(capabilities):
        report, truth = generate_tool_report(tool, capabilities[tool], usable,
                                             line_counts, spec)
        (out_dir / f"{tool}.report.json").write_text(dump_report(report),
                                                     encoding="utf-8")
        (out_dir / f"{tool}.truth.json").write_text(dump_report(truth),
                                                    encoding="utf-8")
    print(f"wrote reports for {len(capabilities)} tool(s) "
          f"over {len(usable)} file(s)")
    return _summarize(failures)


def _partition_scores(entries: list[BugLogEntry], findings: list[Finding],
                      line_slack: int) -> dict[BugType, FNScore]:
    score = score_false_negatives(entries, findings, line_slack=line_slack)
    by_id = {e.bug_id: e for e in entries}
    per_type: dict[BugType, FNScore] = {}
    groups: dict[BugType, list[BugLogEntry]] = {}
    for entry in entries:
        groups.setdefault(entry.bug_type, []).append(entry)
    for bug_type, members in groups.items():
        detected = tuple(i for i in score.detected_bug_ids
                         if by_id[i].bug_type is bug_type)
        misid = tuple(i for i in score.misidentified_bug_ids
                      if by_id[i].bug_type is bug_type)
        unreported = tuple(i for i in score.unreported_bug_ids
                           if by_id[i].bug_type is bug_type)
        per_type[bug_type] = FNScore(
            injected=len(members), detected=len(detected),
            misidentified=len(misid), unreported=len(unreported),
            detected_bug_ids=detected, misidentified_bug_ids=misid,
            unreported_bug_ids=unreported)
    return per_type


def _load_truth_extras(reports_dir: Path) -> dict[str, set[tuple[str, int, str]]]:
    extras: dict[str, set[tuple[str, int, str]]] = {}
    for path in sorted(reports_dir.glob("*.truth.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise TypeError("expected a JSON object")
            extras[doc["tool"]] = {(e["file"], e["line"], e["type"])
                                   for e in doc.get("extras", ())}
        except (OSError, KeyError, TypeError, ValueError) as exc:
            reason = f"no {exc} field" if isinstance(exc, KeyError) else exc
            raise MalformedDocument(
                f"{path}: malformed truth file: {reason}") from None
    return extras


def _cmd_evaluate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    capabilities = _resolve_capabilities(args.capabilities)
    confirmed_doc = _load_config(args.confirmed, _load_confirmed) \
        if args.confirmed else {}
    buglogs = _read_buglogs(args.buglogs)
    all_entries = [e for name in sorted(buglogs) for e in buglogs[name]]
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
        fallback_tool = path.name[:-len(".report.json")]
        try:
            findings = ingest_report(path.read_text(encoding="utf-8"),
                                     args.adapter, tool=fallback_tool)
        except SolBugSmithError as exc:
            failures.append((path.name, str(exc)))
            continue
        for finding in findings:
            findings_by_tool.setdefault(finding.tool, []).append(finding)

    scores: dict[str, dict[BugType, FNScore]] = {}
    scoped_by_tool: dict[str, list[BugLogEntry]] = {}
    for tool in sorted(findings_by_tool):
        caps = capabilities.get(tool)
        if caps is None:
            failures.append((tool, "tool missing from the capabilities file"))
            continue
        scoped = restrict_to_scope(all_entries, caps)
        scoped_by_tool[tool] = scoped
        scores[tool] = _partition_scores(scoped, findings_by_tool[tool],
                                         args.line_slack)

    thresholds = derive_thresholds(capabilities)
    pooled = [f for tool in sorted(scores) for f in findings_by_tool[tool]]
    majority = filter_by_majority(pooled, all_entries, thresholds)
    truth_extras = _load_truth_extras(reports_dir)

    cells: dict[str, dict[BugType, FPCell]] = {}
    misc_counts: dict[str, int] = {}
    for tool in sorted(scores):
        cells[tool] = {}
        misc_counts[tool] = sum(1 for f in majority.miscellaneous
                                if f.tool == tool)
        for bug_type in sorted(capabilities[tool], key=lambda b: b.value):
            reported = [f for f in majority.candidates
                        if f.tool == tool and f.reported_type is bug_type]
            filtered = [f for f in majority.filtered
                        if f.tool == tool and f.reported_type is bug_type]
            sample = sample_for_inspection(
                filtered, size=args.sample_size,
                seed=child_seed(seed, "sample", tool, bug_type.value))
            if tool in truth_extras:
                confirmed = sum(1 for f in sample
                                if (f.file, f.line, f.type_label)
                                in truth_extras[tool])
            elif confirmed_doc:
                confirmed = confirmed_doc.get(tool, {}).get(bug_type.value,
                                                            len(sample))
                if confirmed > len(sample):
                    raise _ConfigError(
                        f"{args.confirmed}: {tool} {bug_type.value}: "
                        f"confirmed count {confirmed} exceeds the "
                        f"{len(sample)} sampled finding(s)")
            else:
                confirmed = len(sample)
            estimated = estimate_false_positives(len(filtered), len(sample),
                                                 confirmed)
            cells[tool][bug_type] = FPCell(reported=len(reported),
                                           filtered=len(filtered),
                                           estimated=estimated)

    fn_doc = render_fn_table(scores, capabilities)
    fp_doc = render_fp_table(cells, thresholds, misc_counts)
    fn_csv = _fn_csv(scores, capabilities)
    fp_csv = _fp_csv(cells, thresholds, misc_counts)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "fn_report.md").write_text(fn_doc, encoding="utf-8")
        (out_dir / "fp_report.md").write_text(fp_doc, encoding="utf-8")
        (out_dir / "fn_scores.csv").write_text(fn_csv, encoding="utf-8")
        (out_dir / "fp_cells.csv").write_text(fp_csv, encoding="utf-8")
        print(f"wrote evaluation documents to {out_dir}")
    else:
        print(fn_doc)
        print(fp_doc, end="")
    if failures:
        print("partial results: some reports or tools were skipped",
              file=sys.stderr)
    return _summarize(failures)


def _fn_csv(scores: dict[str, dict[BugType, FNScore]],
            capabilities: dict[str, frozenset[BugType]]) -> str:
    lines = ["tool,bugType,injected,detected,misidentified,unreported,cell"]
    for tool in sorted(scores):
        for bug_type in BugType:
            capable = bug_type in capabilities.get(tool, frozenset())
            score = scores[tool].get(bug_type)
            if score is None:
                cell = fn_cell(0, 0, 0, capable=capable)
                lines.append(f"{tool},{bug_type.value},0,0,0,0,{cell}")
            else:
                cell = fn_cell(score.injected, score.misidentified,
                               score.unreported, capable=capable)
                lines.append(f"{tool},{bug_type.value},{score.injected},"
                             f"{score.detected},{score.misidentified},"
                             f"{score.unreported},{cell}")
    return "\n".join(lines) + "\n"


def _fp_csv(cells: dict[str, dict[BugType, FPCell]],
            thresholds: dict[BugType, int],
            misc_counts: dict[str, int]) -> str:
    lines = ["tool,bugType,threshold,reported,filtered,estimated"]
    for tool in sorted(cells):
        for bug_type in BugType:
            cell = cells[tool].get(bug_type)
            if cell is None:
                continue
            lines.append(f"{tool},{bug_type.value},{thresholds[bug_type]},"
                         f"{cell.reported},{cell.filtered},{cell.estimated}")
        lines.append(f"{tool},{MISCELLANEOUS},,{misc_counts.get(tool, 0)},,")
    return "\n".join(lines) + "\n"


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
    except (_ConfigError, MissingBugLog) as exc:
        print(f"solbugsmith {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except SolBugSmithError as exc:
        print(f"solbugsmith {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
