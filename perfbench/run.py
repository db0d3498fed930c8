#!/usr/bin/env python3
"""Campaign benchmark for solbugsmith: time the CLI stages end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload bundled --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json. ``--workload
all`` runs every workload in turn. Each run generates its inputs from the
seed (see ``workloads.py``) and runs the campaign, ``inject → oracle →
evaluate``, round after round while another round fits in ``--seconds``;
each stage runs in a fresh ``python -m solbugsmith.cli`` process with the
default ``--jobs 1``. Interpreter set-up is sampled before every stage.
Outside the timed region, every execution of a stage must write the same
bytes as its first, and the final outputs are checked against the bug
counts recorded in ``expected_bugs.json`` and the planted oracle truth
(``checks.py``).

With ``--trace 0`` the end-to-end metrics are medians over the rounds of
the run. With ``--trace 1`` each stage runs in this process through
``solbugsmith.cli.main``, once untraced and once traced, round after round,
and the per-layer metrics come from the spans (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when an operation or check failed, and 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracing import SELF_TIMES, STAGES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "solbugsmith"
CORPUS = PACKAGE / "data" / "corpus"
CAPABILITIES = PACKAGE / "data" / "capabilities.json"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

# the README campaign
ORACLE_FLAGS = ("--miss-rate", "0.3", "--mistype-rate", "0.2",
                "--extra-per-file", "5")

# interpreter start, CLI import, bundled pool and capabilities loaded
SETUP_CODE = ("import solbugsmith.cli\n"
              "from importlib import resources\n"
              "from solbugsmith.evaluator import load_capabilities\n"
              "from solbugsmith.pool import default_pool\n"
              "default_pool()\n"
              "load_capabilities((resources.files('solbugsmith') / 'data' /"
              " 'capabilities.json').read_text(encoding='utf-8'))\n")

STAGE_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "inject_s": "s", "oracle_s": "s", "evaluate_s": "s",
    "pipeline_s": "s", "bugs_per_s": "1/s", "peak_rss_mb": "MB",
}

_COUNTS = ("front.tokenize.calls", "front.tokens", "front.bytes_lexed",
           "front.parse.calls", "locator.calls", "locator.sites.snippet",
           "locator.sites.transform", "locator.sites.weaken",
           "injector.bugs.full_snippet", "injector.bugs.code_transformation",
           "injector.bugs.weaken_security", "oracle.findings",
           "evaluator.findings", "evaluator.fn_candidate_pairs",
           "evaluator.majority.candidates", "evaluator.majority.excluded",
           "evaluator.majority.filtered", "evaluator.majority.misc",
           "cli.files_written", "cli.bytes_written")

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in _COUNTS},
    "front.bytes_lexed": "B", "cli.bytes_written": "B",
    "front.parses_per_source": "ratio", "front.lexes_per_output": "ratio",
    "pool.parse.calls": "count", "evaluator.fn_matched_ratio": "ratio",
    **{f"trace.overhead_s.{stage}": "s" for stage in STAGES},
}


class MissingProgram(Exception):
    pass


@dataclass
class Run:
    """Samples, checks and outcome of one workload run."""

    workload: workloads.Workload
    seed: int
    trace: bool
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # stage -> SHA-256 of its first outputs; every later execution must match
    digests: dict[str, str] = field(default_factory=dict)
    planted: int = 0
    rounds: int = 0
    elapsed: float = 0.0
    rankings: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def operation(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append("; ".join(failures))

    @property
    def work(self) -> Path:
        return WORK / self.workload.name

    def out(self, part: str) -> Path:
        return self.work / "out" / part

    def stage_argv(self, stage: str) -> list[str]:
        seed = str(self.seed)
        if stage == "inject":
            return ["inject", "--corpus", str(self.workload.corpus),
                    "--out", str(self.out("buggy"))]
        if stage == "oracle":
            return ["oracle", "--buglogs", str(self.out("buggy")),
                    "--out", str(self.out("reports")), *ORACLE_FLAGS,
                    "--seed", seed]
        return ["evaluate", "--buglogs", str(self.out("buggy")),
                "--reports", str(self.out("reports")),
                "--out", str(self.out("scored")), "--seed", seed]

    def stage_out(self, stage: str) -> Path:
        return self.out({"inject": "buggy", "oracle": "reports",
                         "evaluate": "scored"}[stage])

    def outputs_digest(self) -> str:
        """One SHA-256 over all outputs, to compare commits for byte-identity."""
        joined = "".join(self.digests.get(stage, "-") for stage in STAGES)
        return hashlib.sha256(joined.encode("ascii")).hexdigest()


# -- processes -----------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SOLBUGSMITH_SEED", None)
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, float, int, str]:
    """Run one process to its end: wall s, user+sys CPU s, max RSS MB, exit
    code, and its standard error."""
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            proc.returncode, stderr)


def run_stage(run: Run, stage: str) -> tuple[float, float, float, list[str]]:
    shutil.rmtree(run.stage_out(stage), ignore_errors=True)
    argv = [sys.executable, "-m", "solbugsmith.cli", *run.stage_argv(stage)]
    wall, cpu, rss, code, stderr = spawn(argv, run.work / f"{stage}.stderr")
    failures = [] if code == 0 and not stderr.strip() else \
        [f"{stage}: exit {code}: {stderr.strip()[:300]}"]
    return wall, cpu, rss, failures


def sample_setup(run: Run) -> None:
    wall, _, _, code, stderr = spawn([sys.executable, "-c", SETUP_CODE],
                                     run.work / "setup.stderr")
    run.operation([] if code == 0 else [f"setup: exit {code}: {stderr[:300]}"])
    run.add("setup_s", wall)


# -- checks --------------------------------------------------------------------


def same_outputs(run: Run, stage: str) -> list[str]:
    """Every execution of a stage on the same inputs writes the same bytes."""
    digest = checks.digest(run.stage_out(stage))
    if run.digests.setdefault(stage, digest) != digest:
        return [f"{stage}: outputs differ from its first execution"]
    return []


def check_outputs(run: Run, expected, capabilities) -> None:
    """Check the outputs of the latest execution of every stage."""
    failures, run.planted = checks.check_buglogs(
        run.out("buggy"), run.workload.origins, expected)
    if not failures:
        failures = checks.check_closure(run.out("reports"), run.out("scored"),
                                        capabilities)
    run.operation(failures[:5])


# -- untraced run: every stage in its own process -------------------------------


def timed_stage(run: Run, stage: str) -> float:
    sample_setup(run)
    wall, cpu, rss, failures = run_stage(run, stage)
    run.add(f"{stage}_s", wall)
    run.add(f"{stage}_cpu_s", cpu)
    run.add("rss_mb", rss)
    run.operation(failures + same_outputs(run, stage))
    return wall


def timed_round(run: Run) -> None:
    """One campaign, each stage in its own process with set-up sampled
    before it; the stages' wall times add up to the round's ``pipeline_s``."""
    run.add("pipeline_s", sum(timed_stage(run, stage) for stage in STAGES))


# -- traced run: every stage in this process ----------------------------------


def in_process(run: Run, stage: str, tracer: Tracer | None) -> float:
    from solbugsmith import cli
    from solbugsmith.pool import default_pool

    shutil.rmtree(run.stage_out(stage), ignore_errors=True)
    default_pool.cache_clear()  # each CLI process loads the pool afresh
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(run.stage_argv(stage))
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = [] if code == 0 and not err.getvalue().strip() else \
        [f"{stage}: exit {code}: {err.getvalue().strip()[:300]}"]
    run.operation(failures + same_outputs(run, stage))
    return wall


def traced_round(run: Run, tracer: Tracer, expected, capabilities) -> None:
    tracer.sources = frozenset(
        p.read_text(encoding="utf-8") for p in run.workload.corpus.glob("*.sol"))
    for stage in STAGES:
        untraced = in_process(run, stage, None)
        tracer.run_id = f"{run.rounds}:{stage}"
        traced = in_process(run, stage, tracer)
        run.add(f"trace.overhead_s.{stage}", traced - untraced)
    check_outputs(run, expected, capabilities)
    layer_metrics(run, tracer, str(run.rounds))


def layer_metrics(run: Run, tracer: Tracer, round_id: str) -> None:
    runs = [f"{round_id}:{stage}" for stage in STAGES]
    selfs = tracer.self_times()
    for metric, names in SELF_TIMES.items():
        run.add(metric, sum(selfs.get((r, n), 0.0) for r in runs for n in names))
    counts = {key: sum(tracer.counts[(r, key)] for r in runs)
              for key in (*_COUNTS, "fn_matched")}
    for key in _COUNTS:
        run.add(key, counts[key])
    inject = f"{round_id}:inject"
    run.add("front.parses_per_source",
            tracer.counts[(inject, "source_parses")] / len(tracer.sources))
    run.add("front.lexes_per_output",
            tracer.count_under("front.tokenize", "front.validate")[inject]
            / max(1, tracer.counts[(inject, "validated_outputs")]))
    pool_parses = tracer.count_under("front.parse", "pool.load")
    run.add("pool.parse.calls", sum(pool_parses[r] for r in runs))
    run.add("evaluator.fn_matched_ratio",
            counts["fn_matched"] / max(1, counts["evaluator.fn_candidate_pairs"]))
    for stage, r in zip(STAGES, runs):
        ranked = sorted(((n, t) for (rid, n), t in selfs.items() if rid == r),
                        key=lambda item: -item[1])
        run.rankings[stage] = ranked[:5]


def execute(name: str, seed: int, seconds: float, trace: bool,
            only: tuple[str, ...] | None = None) -> Run:
    """Generate the inputs of workload ``name`` and measure it."""
    _check_program()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed, CORPUS, work / "inputs", only=only)
    run = Run(workload, seed, trace)
    expected = checks.expected_bugs()
    capabilities = json.loads(CAPABILITIES.read_text(encoding="utf-8"))

    if not trace:
        sample_setup(run)  # warm-up: compiles bytecode, fills file caches
        run.samples.clear()
    tracer = Tracer()
    start = time.perf_counter()
    deadline = start + seconds
    longest = 0.0
    # every round runs whole; the next starts only if the slowest so far fits
    while True:
        round_start = time.perf_counter()
        if trace:
            traced_round(run, tracer, expected, capabilities)
        else:
            timed_round(run)
        run.rounds += 1
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now + longest > deadline:
            break
    run.elapsed = time.perf_counter() - start
    if trace:
        tracer.dump(work / "spans.jsonl")
    else:
        check_outputs(run, expected, capabilities)
    return run


# -- reporting -----------------------------------------------------------------


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def spread(samples: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2 or statistics.median(samples) == 0:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(samples))


def metrics_of(run: Run) -> dict[str, dict]:
    if run.trace:
        return {name: {"value": statistics.median(run.samples[name]), "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}
    values = {name: statistics.median(_samples_of(run, name))
              for name in END_TO_END}
    values["peak_rss_mb"] = max(run.samples["rss_mb"])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _samples_of(run: Run, name: str) -> list[float]:
    if name == "peak_rss_mb":
        return run.samples["rss_mb"]
    if name == "bugs_per_s":
        return [run.planted / wall for wall in run.samples["pipeline_s"]]
    return run.samples[name]


def _cpu_of(run: Run, name: str) -> float | None:
    parts = STAGES if name == "pipeline_s" else (name[:-len("_s")],)
    cpu = [run.samples.get(f"{part}_cpu_s") for part in parts]
    return sum(map(statistics.median, cpu)) if all(cpu) else None


def report(run: Run, metrics: dict[str, dict]) -> str:
    wl = run.workload
    lines = [f"== workload {wl.name}  seed {run.seed}  "
             f"{'traced' if run.trace else 'untraced'}  rounds {run.rounds}  "
             f"measured {run.elapsed:.1f} s",
             f"{'metric':34} {'unit':6} {'median':>12} {'tail pct':>18} "
             f"{'n':>4} {'iqr/med':>8}  {'cpu median':>10}"]
    for name, metric in metrics.items():
        samples = _samples_of(run, name)
        pct = tail(samples)
        if pct is None:
            pct_text = "- (n<11)"
        else:
            pct_text = f"p{pct[0]}={pct[1]:.4g}"
        sp = spread(samples)
        cpu = _cpu_of(run, name)
        lines.append(f"{name:34} {metric['unit']:6} {metric['value']:12.5g} "
                     f"{pct_text:>18} {len(samples):4} "
                     f"{'-' if sp is None else f'{sp:.3f}':>8}  "
                     f"{'' if cpu is None else f'{cpu:.4f}':>10}")
    lines.append(f"fail_ratio {len(run.failures)}/{run.attempted} = "
                 f"{len(run.failures) / max(1, run.attempted):.4f}")
    for stage, ranked in run.rankings.items():
        lines.append(f"self time, {stage}: " + ", ".join(
            f"{name} {secs:.3f}s" for name, secs in ranked))
    lines.append(f"outputs sha256: {run.outputs_digest()}")
    lines.extend(f"FAILED: {failure}" for failure in run.failures)
    return "\n".join(lines)


def _check_program() -> None:
    for path in (PACKAGE / "cli.py", CORPUS, CAPABILITIES):
        if not path.exists():
            raise MissingProgram(f"program under test not found: {path}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import solbugsmith
    if Path(solbugsmith.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingProgram(f"imported solbugsmith from {solbugsmith.__file__}, "
                             f"not from {PACKAGE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        SPEC.read_text(encoding="utf-8"))["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = execute(name, args.seed, args.seconds, bool(args.trace))
        metrics = metrics_of(run)
        print(report(run, metrics), flush=True)
        (run.work / "result.json").write_text(json.dumps({
            "workload": name, "seed": args.seed, "trace": args.trace,
            "metrics": metrics, "samples": run.samples,
            "outputs_sha256": run.outputs_digest(), "stage_sha256": run.digests,
            "failures": run.failures,
        }, indent=1) + "\n", encoding="utf-8")
        runs.append((run, metrics))

    attempted = sum(run.attempted for run, _ in runs)
    failed = sum(len(run.failures) for run, _ in runs)
    if len(runs) == 1:
        metrics = runs[0][1]
    else:
        metrics = {f"{run.workload.name}/{name}": value
                   for run, m in runs for name, value in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
