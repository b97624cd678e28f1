#!/usr/bin/env python3
"""One-command benchmark for rothman: seeded workloads, metrics, a correctness gate.

Run from the repository root:

    python3 benchmarks/run.py --workload analyze_k2 --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client in this one process: the
next operation starts when the previous one has returned. The inputs come
from `inputs.make_inputs(seed, workload)`, and every run replays the same
fixed number of them in order (see `op_count`). With ``--trace 0`` the
last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from spans recorded around calls into rothman's
public functions (see tracing.py). Either way every output is checked
(see gate.py) and the exit status is 1 if any check fails, 2 if the
program cannot be found or run.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported, here and in the
# interpreters spawned to time `import rothman`.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("analyze_k2", "analyze_k20", "cli_mix")
# About the ops per second of the first baseline (benchmarks/baseline.json).
# They fix how many ops a run replays, so a run of the baseline code lasts
# about --seconds and every later commit replays exactly the same ops.
NOMINAL_OPS_PER_S = {"analyze_k2": 3.4, "analyze_k20": 0.6, "cli_mix": 1.25}
# A run stops early, and says so, once its ops have taken this many times
# --seconds; the process then still ends well within its time limit.
CAP_FACTOR = 2.5
SETUP_SPAWNS = 30
TAIL_BEYOND = 10


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * NOMINAL_OPS_PER_S[workload]))


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile of the
    durations with at least `TAIL_BEYOND` samples above it."""
    ordered = sorted(durations)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - index - 1)


class SetupProbe:
    """Times a freshly spawned interpreter finishing `import rothman`.

    The `SETUP_SPAWNS` spawns are spread evenly over the run's ops, between
    ops and outside their timing, so their median samples the machine over
    the whole run rather than over a few seconds of it. One uncounted spawn
    comes first, so every counted one finds compiled bytecode.
    """

    def __init__(self, ops: int) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ops = ops
        self.times: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import rothman"], env=self.env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    def after_op(self, i: int) -> None:
        due = ((i + 1) * SETUP_SPAWNS // self.ops
               - i * SETUP_SPAWNS // self.ops)
        self.times += [self._spawn() for _ in range(due)]

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:  # the loop stopped early
            self.times.append(self._spawn())
        return statistics.median(self.times)


class AnalyzeWorkload:
    """`analyze(table).to_json()`; an attempt is one of the report's 4
    measure and 4 collapsibility entries."""

    ATTEMPTS_PER_OP = 8

    def __init__(self, tables) -> None:
        self.tables = tables
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.crashes: list[str] = []
        self._last: tuple[int, str] | None = None

    def op(self, i: int) -> None:
        # Looked up on every call, so an installed tracer's wrapper is used.
        from rothman.diagnostics import analyze
        index = i % len(self.tables)
        self.attempted += self.ATTEMPTS_PER_OP
        try:
            report = analyze(self.tables[index])
            text = report.to_json()
        except Exception:  # the op fails as a whole; the run goes on
            self.failed += self.ATTEMPTS_PER_OP
            self.crashes.append(traceback.format_exc())
            return
        self.failed += (sum(m.error is not None for m in report.measures)
                        + sum(err is not None
                              for _, _, err in report.collapsibility))
        self._last = (index, text)

    def settle(self) -> None:
        """Check the last op's output, outside its timing, and drop it."""
        import gate
        if self._last is not None:
            index, text = self._last
            self.problems += [f"table {index}: {p}" for p in
                              gate.check_report(self.tables[index], text)]
            self._last = None

    def close(self) -> None:
        pass


class CliWorkload:
    """In-process `cli.run` calls: simulate, collapse, and plot --figure 1..7.

    An attempt is one `cli.run` call; a nonzero exit fails it. The sampled
    table goes from the simulate output to a CSV file by way of
    `tables.parse_table` and `tables.serialize_table`. Each op writes its
    files to a scratch directory under `.bench_out/`, which `settle`
    checks and removes.
    """

    def __init__(self, items) -> None:
        import inputs
        self.items = items
        self.n = inputs.CLI_N
        self.figures = inputs.FIGURES
        self.attempts_per_op = 2 + len(self.figures)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.crashes: list[str] = []
        self.exits: list[str] = []
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        self.specs = []
        for j, item in enumerate(items):
            path = self.work / f"spec{j}.json"
            path.write_text(item.spec_json, encoding="utf-8")
            self.specs.append(path)
        self._last: Path | None = None

    def _call(self, argv: list[str]) -> int:
        from rothman import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        if code != 0:
            self.exits.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return code

    def op(self, i: int) -> None:
        from rothman.tables import parse_table, serialize_table
        index = i % len(self.items)
        d = self.work / f"op{i}"
        d.mkdir()
        self._last = d
        self.attempted += self.attempts_per_op
        counted = 0  # calls whose outcome is already in self.failed
        try:
            sim = d / "simulate.json"
            if self._call(["simulate", str(self.specs[index]), "--n",
                           str(self.n), "--seed",
                           str(self.items[index].sample_seed), "-o", str(sim)]):
                self.failed += self.attempts_per_op
                return
            counted = 1
            doc = json.loads(sim.read_text(encoding="utf-8"))
            table = parse_table(json.dumps(doc["table"]), format="json")
            csv = d / "table.csv"
            csv.write_text(serialize_table(table, "csv"), encoding="utf-8")
            self.failed += self._call(["collapse", str(csv), "-o",
                                       str(d / "collapse.json")]) != 0
            counted += 1
            for f in self.figures:
                self.failed += self._call(["plot", str(csv), "--figure", str(f),
                                           "-o", str(d / f"fig{f}.svg")]) != 0
                counted += 1
        except Exception:  # the rest of the op fails; the run goes on
            self.failed += self.attempts_per_op - counted
            self.crashes.append(traceback.format_exc())

    def settle(self) -> None:
        """Check the last op's files, outside its timing, and remove them."""
        import gate
        d, self._last = self._last, None
        if d is None:
            return
        sim = d / "simulate.json"
        if sim.exists():
            self.problems += [f"{d.name}: {p}" for p in gate.check_simulated(
                sim.read_text(encoding="utf-8"), self.n)]
        for svg in sorted(d.glob("*.svg")):
            self.problems += [f"{d.name}/{svg.name}: {p}" for p in
                              gate.check_svg(svg.read_text(encoding="utf-8"))]
        shutil.rmtree(d)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def make_workload(name: str, seed: int):
    import inputs
    items = inputs.make_inputs(seed, name)
    if name == "cli_mix":
        return CliWorkload(items)
    return AnalyzeWorkload(items)


def timed_loop(workload, count: int, cap_s: float | None = None, tracer=None,
               after_op=None) -> list[float]:
    """Run ops 0..count-1, each checked right after its timing ends.

    Stops early once the ops have taken ``cap_s`` seconds. Returns the
    per-op wall times.
    """
    durations = []
    for i in range(count):
        if cap_s is not None and sum(durations) > cap_s:
            break
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        workload.op(i)
        durations.append(perf_counter() - t0)
        workload.settle()
        if after_op is not None:
            after_op(i)
    return durations


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, count: int, seconds: float) -> tuple[dict, str]:
    probe = SetupProbe(count)
    durations = timed_loop(workload, count, CAP_FACTOR * seconds,
                           after_op=probe.after_op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, pct, beyond = tail(durations)
    metrics = {
        "ops_per_s": metric(len(durations) / sum(durations), "1/s"),
        "op_p50_ms": metric(statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "ok_share": metric(1.0 - workload.failed / workload.attempted, "ratio"),
        "setup_s": metric(probe.median(), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    note = (f"{len(durations)} of {count} ops"
            + ("" if len(durations) == count else
               f" (stopped at the {CAP_FACTOR:g} x --seconds cap)")
            + f"; failed_share = {workload.failed} / {workload.attempted}"
            f" = {workload.failed / workload.attempted}"
            f"; op_tail_ms is p{pct:.1f}, {beyond} ops beyond it")
    return metrics, note


def run_traced(workload, count: int, seconds: float,
               spans_path: Path) -> tuple[dict, str]:
    """Half the ops untraced, then the same ops again under the tracer."""
    import tracing
    half = max(1, count // 2)
    durations = timed_loop(workload, half, CAP_FACTOR * seconds / 2.0)
    ops = len(durations)
    before = (workload.attempted, workload.failed)
    with tracing.Tracer() as tracer:
        traced = timed_loop(workload, ops, tracer=tracer)
    layers = tracing.layer_metrics(tracer, ops)
    attempted = workload.attempted - before[0]
    failed = workload.failed - before[1]
    spans_path.parent.mkdir(exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span._asdict()) + "\n")
    metrics = {name: metric(value, tracing.unit(name))
               for name, value in layers.items()}
    # Deterministic work counts on the bundled Whickham table.
    from rothman.diagnostics import analyze
    from rothman.whickham import whickham_table
    with tracing.Tracer() as whickham:
        analyze(whickham_table()).to_json()
    counts = tracing.layer_metrics(whickham, 1)
    for name in ("glm.irls_fits", "glm.irls_iterations"):
        metrics[f"{name}.whickham"] = metric(counts[name], "count")
    metrics["failed_share"] = metric(failed / attempted, "ratio")
    # Traced ops_per_s over untraced ops_per_s, on the same ops.
    metrics["trace_overhead"] = metric(sum(durations) / sum(traced), "ratio")
    missing = sorted(name for name, value in layers.items() if value is None)
    note = (f"{ops} ops traced, {len(tracer.spans)} spans written to "
            f"{spans_path.relative_to(ROOT)}"
            + (f"; missing: {', '.join(missing)}" if missing else ""))
    return metrics, note


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "rothman" / "__init__.py").is_file():
        print(f"rothman sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rothman
    if Path(rothman.__file__).resolve().parent != SRC / "rothman":
        print(f"imported rothman from {rothman.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import gate

    workload = make_workload(args.workload, args.seed)
    count = op_count(args.workload, args.seconds)
    try:
        workload.op(0)  # warm-up, not counted
        workload.settle()
        workload.attempted = workload.failed = 0
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, note = run_traced(workload, count, args.seconds, spans)
        else:
            metrics, note = run_untraced(workload, count, args.seconds)
        problems = workload.problems + gate.check_goldens(ROOT)
    finally:
        workload.close()

    for crash in workload.crashes[:3]:
        print(crash, file=sys.stderr)
    for line in getattr(workload, "exits", [])[:3]:
        print(line, file=sys.stderr)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}",
              file=sys.stderr)
    print(f"{args.workload}: {note}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
