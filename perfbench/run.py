"""Benchmark of kumfib: end-to-end and per-layer timings of three workloads.

Run from the root of a kumfib checkout:

    python3 perfbench/run.py --workload paper|catalog|reports --seed N --seconds S --trace 0|1

The program is imported from `src/`.  A run repeats whole rounds of its
workload's operations until S seconds have passed, checks every output
against values the benchmark recomputes itself (`oracle.py`), and prints one
JSON object as its last line: `correct`, `attempted`, `failed` and the
metrics, end-to-end ones with --trace 0, per-layer ones with --trace 1.
Set-up (interpreter start, import, input generation) is timed in separate
child processes.  End-to-end times are CPU times scaled to the reference
speed measured alongside them (`calibrate.py`).  Results and traces go to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
SETUP_KERNEL_SAMPLES = 5


def load_kumfib():
    src = ROOT / "src"
    if not (src / "kumfib" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kumfib package under {src}")
    sys.path.insert(0, str(src))
    import kumfib
    import kumfib.cli
    import kumfib.verification

    return kumfib


def setup_only(args) -> int:
    """Child process: import and generate inputs, print the CPU times and the kernel's.

    The reference kernel samples this process's own speed while it sets up,
    and a burst of kernel runs at the end adds samples when set-up is short.
    """
    calibrator = calibrate.Calibrator()

    def cpu_ms():
        return (time.process_time_ns() - calibrator.spent_ns) / 1e6

    calibrator.start()
    try:
        t0 = cpu_ms()
        kumfib = load_kumfib()
        t1 = cpu_ms()
        workdir = OUT / f"work-{os.getpid()}"
        try:
            workloads.generate(kumfib, args.workload, args.seed, workdir)
            t2 = cpu_ms()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        calibrator.stop()
    calibrator.burst(SETUP_KERNEL_SAMPLES)
    print(json.dumps({
        "import_ms": t1 - t0,
        "generate_ms": t2 - t1,
        "kernel_s": calibrator.spent_ns / 1e9,
        "kernel_median_ms": statistics.median(calibrator.kernel_ms),
    }))
    return 0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args, samples: int) -> tuple[list[float], list[float], list[dict]]:
    """CPU time of fresh set-up processes, scaled and as measured, and their split.

    Each child's CPU time, less its reference kernel's, is scaled by the
    median kernel time the child measured on itself.
    """
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    scaled, raw, splits = [], [], []
    for _ in range(samples):
        start = children_cpu_s()
        child = subprocess.run(command, capture_output=True, text=True, timeout=150, cwd=ROOT)
        cpu_s = children_cpu_s() - start
        if child.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{child.stderr}")
        splits.append(json.loads(child.stdout.strip().splitlines()[-1]))
        raw.append(cpu_s - splits[-1]["kernel_s"])
        scaled.append(raw[-1] * calibrate.NOMINAL_MS / splits[-1]["kernel_median_ms"])
    return scaled, raw, splits


class Stats:
    """Operation times of whole rounds, grouped by operation.

    Every timing metric comes from each operation's median over its repeats
    in the run, so that a few seconds in which the host runs the process
    slowly move no metric unless they cover half of the run.
    """

    def __init__(self):
        # op key -> (CPU ms, wall ms, start ns, end ns) of each time it ran
        self.samples: dict = {}
        self.round_keys: list = []  # the op keys of one round, in order
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.rounds = 0

    def add(self, other: "Stats") -> None:
        for key, values in other.samples.items():
            self.samples.setdefault(key, []).extend(values)
        self.round_keys = self.round_keys or other.round_keys
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.problems += other.problems
        self.rounds += other.rounds

    def typical_ms(self, calibrator=None, wall: bool = False) -> list[float]:
        """One round's operations, each at its median time over the run.

        With a calibrator, each time is first scaled to the reference speed
        measured around it.
        """

        def ms(sample):
            value = sample[1] if wall else sample[0]
            return value * calibrator.scale(sample[2], sample[3]) if calibrator else value

        median = {key: statistics.median(map(ms, values)) for key, values in self.samples.items()}
        return [median[key] for key in self.round_keys]

    def ops_per_s(self, calibrator=None, wall: bool = False) -> float:
        typical = self.typical_ms(calibrator, wall)
        return len(typical) / (sum(typical) / 1e3)


def run_round(kumfib, workload, stats: Stats, tracer=None, calibrator=None) -> None:
    """One round of the workload's operations, timed and checked, into stats.

    The reference kernel's time inside an operation is taken out of it.
    """
    workloads.reset_caches(kumfib)
    keys = [i if op.key is None else op.key for i, op in enumerate(workload.ops)]
    stats.round_keys = stats.round_keys or keys
    for key, op in zip(keys, workload.ops):
        if op.prepare is not None:
            op.prepare()
        span = tracer.begin_op(op.name) if tracer else None
        error = None
        spent = calibrator.spent_ns if calibrator else 0
        w0, t0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            output = op.call()
        except Exception as exc:  # a crash is a failed operation, counted by kind
            error = exc
        t1, w1 = time.process_time_ns(), time.perf_counter_ns()
        if tracer:
            tracer.close(span)
        spent = calibrator.spent_ns - spent if calibrator else 0
        sample = ((t1 - t0 - spent) / 1e6, (w1 - w0 - spent) / 1e6, w0, w1)
        stats.samples.setdefault(key, []).append(sample)
        stats.attempted += 1
        if error is not None:
            stats.failed += 1
            stats.failures[f"{op.tag}: {type(error).__name__}"] += 1
            continue
        try:
            if op.check(output):
                stats.failed += 1
                stats.failures[f"{op.tag}: truncated"] += 1
        except workloads.Incorrect as exc:
            stats.problems.append(str(exc))
    try:
        workload.finish_round()
    except workloads.Incorrect as exc:
        stats.problems.append(str(exc))
    stats.rounds += 1


def run_untraced(kumfib, workload, seconds: float, calibrator) -> Stats:
    """Whole rounds until `seconds` have passed, with the reference kernel sampling."""
    stats = Stats()
    start = time.perf_counter()
    calibrator.start()
    try:
        while not stats.rounds or time.perf_counter() - start < seconds:
            run_round(kumfib, workload, stats, calibrator=calibrator)
    finally:
        calibrator.stop()
    return stats


def run_traced(kumfib, workload, seconds: float, tracer, calibrator) -> tuple[Stats, Stats, Stats]:
    """Pairs of a traced and an untraced round until `seconds` have passed.

    The first round runs in a cold process, as an untraced run's does, so
    the per-layer figures describe the same work.  The overhead compares
    the untraced rounds with the traced rounds after the first; a run with
    a single pair has only the cold traced round to compare.
    Returns all traced rounds, the traced rounds after the first, and the
    untraced rounds.
    """
    traced, warm, plain = Stats(), Stats(), Stats()
    start = time.perf_counter()
    calibrator.start()
    try:
        while not traced.rounds or time.perf_counter() - start < seconds:
            one = Stats()
            tracing.install(tracer, kumfib)
            try:
                run_round(kumfib, workload, one, tracer, calibrator)
            finally:
                tracer.uninstall()
            traced.add(one)
            if traced.rounds > 1:
                warm.add(one)
            run_round(kumfib, workload, plain, calibrator=calibrator)
    finally:
        calibrator.stop()
    return traced, warm, plain


def end_to_end(stats: Stats, setup_times: list[float], calibrator=None) -> dict:
    typical = stats.typical_ms(calibrator)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(typical) / (sum(typical) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(typical), "ms"),
        "op_p95_ms": (statistics.quantiles(typical, n=20)[18], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "catalog", "reports"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_only:
            return setup_only(args)
        kumfib = load_kumfib()
        calibrator = calibrate.Calibrator()
        # Half the set-up samples now and half after the measurement, so that
        # the median spans the run.
        setup_times, setup_raw, setup_splits = measure_setup(args, SETUP_SAMPLES // 2)
    except (FileNotFoundError, ImportError, RuntimeError) as exc:
        sys.stderr.write(f"perfbench: cannot set up the program: {exc}\n")
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    problems = []
    try:
        workload = workloads.generate(kumfib, args.workload, args.seed, workdir)
        if args.workload == "catalog":
            try:
                workloads.check_catalog(kumfib)
            except workloads.Incorrect as exc:
                problems.append(str(exc))
        if not args.trace:
            stats = run_untraced(kumfib, workload, args.seconds, calibrator)
        else:
            # spans leave out the reference kernel's time, as operations do
            tracer = tracing.Tracer(clock=lambda: time.process_time_ns() - calibrator.spent_ns)
            stats, warm, plain = run_traced(kumfib, workload, args.seconds, tracer, calibrator)
            stats.problems += plain.problems
        more_times, more_raw, more_splits = measure_setup(args, SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setup_times += more_times
        setup_raw += more_raw
        setup_splits += more_splits
        if not args.trace:
            metrics = end_to_end(stats, setup_times, calibrator)
        else:
            metrics = tracing.layer_metrics(tracer, stats.rounds, list(workloads.PAPER_CHECKS))
            metrics["setup.import_ms"] = (statistics.median(s["import_ms"] for s in setup_splits), "ms")
            metrics["setup.generate_inputs_ms"] = (
                statistics.median(s["generate_ms"] for s in setup_splits), "ms"
            )
            traced = stats.ops_per_s(calibrator)
            untraced = plain.ops_per_s(calibrator)
            compared = warm.ops_per_s(calibrator) if warm.rounds else traced
            metrics["trace.ops_per_s"] = (traced, "1/s")
            metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
            metrics["trace.overhead_pct"] = (100 * (untraced - compared) / untraced, "%")
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.as_json()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += stats.problems
    result = {
        "correct": not problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": stats.rounds,
        "setup_scaled_s": setup_times,
        "setup_cpu_s": setup_raw,
        # as measured, before scaling to the reference speed
        "unscaled": {name: value for name, (value, _) in end_to_end(stats, setup_raw).items()},
        "wall_ops_per_s": stats.ops_per_s(wall=True),
        "wall_op_p50_ms": statistics.median(stats.typical_ms(wall=True)),
        "kernel_ms": {
            "samples": len(calibrator.kernel_ms),
            "quartiles": statistics.quantiles(calibrator.kernel_ms, n=4),
            "nominal": calibrate.NOMINAL_MS,
        },
        "failures": dict(sorted(stats.failures.items())),
        "problems": problems[:20],
        **workload.notes,
        **result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print(f"workload {args.workload}, seed {args.seed}: {stats.rounds} round(s), "
          f"{stats.attempted} operations attempted, {stats.failed} failed")
    for tag, count in sorted(stats.failures.items()):
        print(f"  failed  {count:6d}  {tag}")
    for problem in problems[:20]:
        print(f"  WRONG   {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
