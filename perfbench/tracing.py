"""In-process span tracing of the solbugsmith layers, from outside the package.

``Tracer.install`` replaces the public functions of each module with timing
wrappers. Callers import these functions by name, so every importing
module's binding is replaced, not just the defining one; ``uninstall`` puts
the originals back. Spans (name, start, end, parent, run id) are kept in
memory and written out once, at the end of the run. A span's self time is
its duration minus the time its child spans cover; calls are nested and
never concurrent (the stages run with ``--jobs 1``), so that is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import time
from collections import Counter, defaultdict
from pathlib import Path

STAGES = ("inject", "oracle", "evaluate")

# span name -> (defining module, function, modules that import it by name)
_TARGETS = {
    "front.tokenize": ("front.lexer", "tokenize",
                       ("front", "front.parser", "front.validate", "locator",
                        "pool")),
    "front.parse": ("front.parser", "parse",
                    ("front", "front.validate", "locator", "injector", "cli")),
    "front.validate": ("front.validate", "validate", ("front", "cli")),
    "locator.locate": ("locator", "find_all_potential_locations", ("cli",)),
    "injector.inject_all": ("injector", "inject_all", ("cli",)),
    "injector.emit_json": ("injector", "emit_buglog_json", ("cli",)),
    "injector.emit_csv": ("injector", "emit_buglog_csv", ("cli",)),
    "injector.load_buglog": ("injector", "load_buglog", ("cli",)),
    "pool.load": ("pool", "load_pool", ("cli",)),
    "oracle.generate": ("oracle", "generate_tool_report", ("cli",)),
    "oracle.dump": ("oracle", "dump_report", ("cli",)),
    "evaluator.ingest": ("evaluator", "ingest_report", ("cli",)),
    "evaluator.fn_match": ("evaluator", "score_false_negatives", ("cli",)),
    "evaluator.majority": ("evaluator", "filter_by_majority", ("cli",)),
    "evaluator.render_fn": ("evaluator", "render_fn_table", ("cli",)),
    "evaluator.render_fp": ("evaluator", "render_fp_table", ("cli",)),
}

# per-layer self-time metric -> the span names it sums
SELF_TIMES = {
    "front.tokenize.self_s": ("front.tokenize",),
    "front.parse.self_s": ("front.parse",),
    "front.validate.self_s": ("front.validate",),
    "locator.self_s": ("locator.locate",),
    "injector.inject_all.self_s": ("injector.inject_all",),
    "injector.emit.self_s": ("injector.emit_json", "injector.emit_csv"),
    "injector.load_buglog.self_s": ("injector.load_buglog",),
    "pool.load.self_s": ("pool.load",),
    "oracle.generate.self_s": ("oracle.generate",),
    "oracle.dump.self_s": ("oracle.dump",),
    "evaluator.ingest.self_s": ("evaluator.ingest",),
    "evaluator.fn_match.self_s": ("evaluator.fn_match",),
    "evaluator.majority.self_s": ("evaluator.majority",),
    "evaluator.render.self_s": ("evaluator.render_fn", "evaluator.render_fp"),
    "cli.self_s": tuple(f"cli.{stage}" for stage in STAGES),
    "cli.read.self_s": ("cli.read",),
    "cli.write.self_s": ("cli.write",),
}


class Tracer:
    """Records spans and counts at the layer boundaries of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        # corpus texts, so that parses of a source can be told from others
        self.sources: frozenset[str] = frozenset()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time per (run id, span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for index, (name, start, end, _, run) in enumerate(self.spans):
            totals[(run, name)] += end - start - child[index]
        return totals

    def count_under(self, name: str, ancestor: str) -> Counter:
        """Per run id, the ``name`` spans with an ``ancestor`` span above them."""
        totals: Counter = Counter()
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent is not None:
                totals[span[4]] += 1
        return totals

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = "solbugsmith"
        for name, (home, attr, importers) in _TARGETS.items():
            module = importlib.import_module(f"{package}.{home}")
            traced = self.wrap(name, getattr(module, attr), _COUNTERS.get(name))
            for owner in (home, *importers):
                self._replace(importlib.import_module(f"{package}.{owner}"),
                              attr, traced)
        # main() dispatches through this table, not the module attributes
        cli = importlib.import_module(f"{package}.cli")
        commands = dict(cli._COMMANDS)
        for stage in STAGES:
            commands[stage] = self.wrap(f"cli.{stage}", commands[stage])
        self._replace(cli, "_COMMANDS", commands)
        path_cls = pathlib.Path
        self._replace(path_cls, "read_text",
                      self.wrap("cli.read", path_cls.read_text))
        self._replace(path_cls, "write_text",
                      self.wrap("cli.write", path_cls.write_text, _count_write))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# -- counters taken at the boundaries ----------------------------------------


def _count_tokenize(tracer: Tracer, args, tokens) -> None:
    source = args[0]
    tracer.counts[(tracer.run_id, "front.tokenize.calls")] += 1
    tracer.counts[(tracer.run_id, "front.tokens")] += len(tokens)
    tracer.counts[(tracer.run_id, "front.bytes_lexed")] += len(source.encode("utf-8"))


def _count_parse(tracer: Tracer, args, unit) -> None:
    tracer.counts[(tracer.run_id, "front.parse.calls")] += 1
    if args[0] in tracer.sources:
        tracer.counts[(tracer.run_id, "source_parses")] += 1


def _count_validate(tracer: Tracer, args, diagnostics) -> None:
    tracer.counts[(tracer.run_id, "validated_outputs")] += 1


def _count_locate(tracer: Tracer, args, profile) -> None:
    tracer.counts[(tracer.run_id, "locator.calls")] += 1
    for site in profile.sites:
        tracer.counts[(tracer.run_id, f"locator.sites.{site.kind}")] += 1


def _count_inject(tracer: Tracer, args, result) -> None:
    for entry in result.entries:
        approach = entry.approach.name.lower()  # e.g. FULL_SNIPPET
        tracer.counts[(tracer.run_id, f"injector.bugs.{approach}")] += 1


def _count_report(tracer: Tracer, args, result) -> None:
    report, _truth = result
    tracer.counts[(tracer.run_id, "oracle.findings")] += len(report["findings"])


def _count_ingest(tracer: Tracer, args, findings) -> None:
    tracer.counts[(tracer.run_id, "evaluator.findings")] += len(findings)


def _count_fn_match(tracer: Tracer, args, score) -> None:
    entries, findings = args[0], args[1]
    per_file = Counter(entry.file for entry in entries)
    pairs = sum(per_file[finding.file] for finding in findings)
    tracer.counts[(tracer.run_id, "evaluator.fn_candidate_pairs")] += pairs
    tracer.counts[(tracer.run_id, "fn_matched")] += \
        score.detected + score.misidentified


def _count_majority(tracer: Tracer, args, result) -> None:
    for key, part in (("candidates", result.candidates),
                      ("excluded", result.excluded),
                      ("filtered", result.filtered),
                      ("misc", result.miscellaneous)):
        tracer.counts[(tracer.run_id, f"evaluator.majority.{key}")] += len(part)


def _count_write(tracer: Tracer, args, _result) -> None:
    tracer.counts[(tracer.run_id, "cli.files_written")] += 1
    tracer.counts[(tracer.run_id, "cli.bytes_written")] += \
        len(args[1].encode("utf-8"))


_COUNTERS = {
    "front.tokenize": _count_tokenize,
    "front.parse": _count_parse,
    "front.validate": _count_validate,
    "locator.locate": _count_locate,
    "injector.inject_all": _count_inject,
    "oracle.generate": _count_report,
    "evaluator.ingest": _count_ingest,
    "evaluator.fn_match": _count_fn_match,
    "evaluator.majority": _count_majority,
}
