"""Benchmark runner for exosir: runs one workload through `exosir.cli.main`.

    python3 perfbench/run.py --workload ode_cli --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. The run is split over WORKERS fresh worker processes, one
after another, each driving `exosir.cli.main` in-process for an equal share
of `--seconds`: how fast numpy-heavy code runs differs from one process to
the next, and the median over several processes does not depend on one
process's luck. Times are each worker's fastest call of each command, then
the median over workers. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones, from
workers that alternate untraced and traced passes. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import CheckFailed, all_workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKERS = 5
SETUP_CODE = "import exosir.cli; exosir.cli.build_parser()"
MIN_PASSES = 3


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def setup_once() -> float:
    """Wall seconds for a fresh interpreter to import the CLI and build its parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - start


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs passes of one workload and tallies latencies, failures and digests."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.latencies: list[tuple[str, float]] = []  # (command label, seconds)
        self.digests: dict[str, str] | None = None
        self.counts: dict[str, int] | None = None
        self.problems: list[str] = []

    def _problem(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_pass(self, commands, measured: bool = True) -> tuple[float, dict[str, int]]:
        """Run each command once; returns (seconds in main, counts from the checks)."""
        elapsed = 0.0
        counts: dict[str, int] = {}
        digests = {}
        for command in commands:
            out = self.out / command.label
            argv = list(command.argv) + ["--out", str(out)]
            sink = io.StringIO()
            self.attempted += 1
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:  # the CLI promises exit codes, not tracebacks
                    code = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
            elapsed += seconds
            if measured:
                self.latencies.append((command.label, seconds))
            wrote = sorted(line[len("wrote "):] for line in sink.getvalue().splitlines()
                           if line.startswith("wrote "))
            expected = sorted(str(out / name) for name in command.artifacts)
            if code != 0 or wrote != expected:
                self._problem(f"{command.label}: exit {code}, wrote {wrote}")
                continue
            try:
                counts.update(command.check(out))
            except (OSError, ValueError, KeyError, TypeError, CheckFailed) as exc:
                self._problem(f"{command.label}: {type(exc).__name__}: {exc}")
                continue
            for name in command.artifacts:
                digests[f"{command.label}/{name}"] = digest(out / name)
        if measured:
            self.expect_repeat("digests", digests)
        return elapsed, counts

    def expect_repeat(self, kind: str, values: dict) -> None:
        """Artifacts and counts of every measured pass must equal the first pass's."""
        first = getattr(self, kind)
        if first is None:
            setattr(self, kind, values)
        elif values != first:
            changed = sorted(k for k in first.keys() | values.keys()
                             if first.get(k) != values.get(k))
            self._problem(f"{kind} differ from the first pass: {changed}")


def run_worker(workload, seed: int, seconds: float, traced: bool, runner: Runner,
               data: Path) -> dict:
    """Warm up, then run passes for about `seconds` (at least MIN_PASSES).

    A pass starts only if, at the mean pass length so far, at least half of
    it fits in `seconds`. Traced runs alternate untraced and traced passes.
    """
    from spans import Tracer, pass_layers, span_table

    runner.run_pass(workload.warmup(seed, data), measured=False)
    commands = workload.commands(seed, data)
    tracer = Tracer()
    plain, traced_passes, layers = [], [], []
    begin = time.perf_counter()
    index = 0
    while True:
        now = time.perf_counter() - begin
        if index >= MIN_PASSES and now + now / index / 2 > seconds:
            break
        if traced and index % 2 == 1:
            tracer.reset()
            with tracer.installed():
                elapsed, counts = runner.run_pass(commands)
            times, exact = pass_layers(tracer, counts)
            runner.expect_repeat("counts", exact)
            traced_passes.append(elapsed)
            layers.append(times)
        else:
            elapsed, _ = runner.run_pass(commands)
            plain.append(elapsed)
        index += 1
    latencies: dict[str, list[float]] = {}
    for label, s in runner.latencies:
        latencies.setdefault(label, []).append(s)
    result = {"attempted": runner.attempted, "failed": runner.failed,
              "problems": runner.problems, "digests": runner.digests,
              "counts": runner.counts, "latencies": latencies, "plain": plain,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        result.update(traced=traced_passes, layers=layers, spans=tracer.spans,
                      table=span_table(tracer))
    return result


def worker_main(args, workload, seed: int, cli) -> int:
    """Measure in this process and write the raw results to `args.worker_out`."""
    scratch = OUT / f"artifacts-{os.getpid()}"
    runner = Runner(cli, scratch)
    try:
        result = run_worker(workload, seed, args.seconds, bool(args.trace), runner,
                            ROOT / "data")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.worker_out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_workers(args, seed: int) -> tuple[list[dict], list[float]]:
    """Run WORKERS worker processes one after another; returns their results and,
    untraced, one set-up sample taken after each worker."""
    results, setup = [], []
    for index in range(WORKERS):
        out = OUT / f"worker-{os.getpid()}-{index}.json"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(seed), "--seconds", repr(args.seconds / WORKERS),
                "--trace", str(args.trace), "--worker-out", str(out)]
        try:
            subprocess.run(argv, cwd=ROOT, check=True)
            results.append(json.loads(out.read_text(encoding="utf-8")))
        finally:
            out.unlink(missing_ok=True)
        if not args.trace:
            setup.append(setup_once())
    return results, setup


def merge(results: list[dict]) -> dict:
    """Sum the workers' tallies; digests and counts must agree across workers."""
    merged = {"attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "problems": [p for r in results for p in r["problems"]][:20],
              "digests": results[0]["digests"], "counts": results[0]["counts"]}
    for kind in ("digests", "counts"):
        for index, result in enumerate(results[1:], start=1):
            if result[kind] != merged[kind]:
                merged["failed"] += 1
                merged["problems"].append(f"{kind} of worker {index} differ from worker 0's")
    return merged


def quantile(values: list[float], q: int) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's paper seed)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "exosir" / "cli.py").is_file():
        return fail(f"no exosir sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import exosir.cli
    if Path(exosir.cli.__file__).resolve().parent != SRC / "exosir":
        return fail(f"imported exosir from {exosir.cli.__file__}, not from {SRC}")
    workloads = all_workloads(ROOT / "data")
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    if args.worker_out:
        return worker_main(args, workload, seed, exosir.cli)

    results, setup = run_workers(args, seed)
    merged = merge(results)
    record = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "workers": WORKERS, "env": environment(), **merged}
    if args.trace:
        from spans import UNITS, useful_integrate_ratio
        layers = [times for r in results for times in r["layers"]]
        values = {name: statistics.median(t[name] for t in layers) for name in layers[0]}
        values.update(merged["counts"])
        values["fitting.useful_integrate_ratio"] = useful_integrate_ratio(merged["counts"])
        values["trace.pass_s"] = statistics.median(min(r["traced"]) for r in results)
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(
            min(r["plain"]) for r in results)
        metrics = {name: (value, UNITS[name]) for name, value in values.items()}
        record["spans_file"] = str(OUT / f"spans-{workload.name}-seed{seed}.jsonl")
        with open(record["spans_file"], "w", encoding="utf-8") as fh:
            for span in results[-1]["spans"]:
                fh.write(json.dumps(span) + "\n")
        print(f"{'span':44} {'busy_s':>10} {'self_s':>10} {'calls':>8}")
        for name, busy, own, calls in results[-1]["table"]:
            print(f"{name:44} {busy:10.4f} {own:10.4f} {calls:8d}")
    else:
        labels = list(results[0]["latencies"])
        command_min = {label: 1000.0 * statistics.median(min(r["latencies"][label])
                                                         for r in results)
                       for label in labels}
        latencies_ms = [1000.0 * s for r in results for label in labels
                        for s in r["latencies"][label]]
        passes = [s for r in results for s in r["plain"]]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_min_s": (sum(command_min.values()) / 1000.0, "s"),
            "cmd_min_geomean_ms": (statistics.geometric_mean(command_min.values()), "ms"),
            "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
        }
        record.update(pass_samples=passes, commands=len(latencies_ms),
                      pass_median_s=statistics.median(passes),
                      cmd_ms_p50=quantile(latencies_ms, 50), cmd_ms_p99=quantile(latencies_ms, 99),
                      setup_samples=setup, cmd_min_ms_by_command=command_min,
                      cmd_min_ms_by_worker=[{label: 1000.0 * min(r["latencies"][label])
                                             for label in labels} for r in results],
                      cmd_ms_p50_by_command={
                          label: 1000.0 * statistics.median(
                              s for r in results for s in r["latencies"][label])
                          for label in labels})
        print(f"diagnostic pass_median_s {record['pass_median_s']}, cmd_ms_p50 "
              f"{record['cmd_ms_p50']}, cmd_ms_p99 {record['cmd_ms_p99']} over "
              f"{len(latencies_ms)} commands")
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    record["fail_frac"] = record["failed"] / record["attempted"]
    record_file = OUT / f"record-{workload.name}-seed{seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"env {json.dumps(record['env'])}")
    print(f"fail_frac {record['fail_frac']} ({record['failed']}/{record['attempted']}); "
          f"record {record_file}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
