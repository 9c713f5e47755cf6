"""binbasis benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; binbasis is imported from ./src.  The run
sets up the workload, runs the untimed oracle pre-check (a mismatch aborts
with exit code 1 and no result), replays the fixed count check set, then
times a closed loop of calls until the timed calls add up to S seconds,
checking every output outside the timed region.

stdout carries informational JSON lines ("env", "info") and, as its last
line, the result: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the loop
alternates traced and untraced blocks of calls, spans are written to
.perfbench_out/, and the metrics are the per-layer ones.

setup_s is the median over several fresh interpreter processes of the time
from the first binbasis import to a ready workload, so that work moved into
set-up (caches, compiled plans) shows there.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 7
PROBE_REPS = 5
UNTUNED = ("Only the benchmark's own process and its set-up child processes are "
           "measured. The machine was not tuned: no CPU pinning, no cache drops, "
           "no frequency-governor changes.")


def import_binbasis():
    """Put ./src first on the path and make sure binbasis comes from there."""
    sys.path.insert(0, str(SRC))
    import binbasis
    if Path(binbasis.__file__).resolve().parent != SRC / "binbasis":
        raise ImportError(f"binbasis imported from {binbasis.__file__}, not {SRC}")


def set_up(name, seed):
    """Import binbasis, build the fields and the workload.

    Returns (workload, set-up seconds, field construction seconds).
    """
    t0 = perf_counter()
    import_binbasis()
    from binbasis.field import get_field
    from workloads import WORKLOADS
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[name]
    t1 = perf_counter()
    for degree in cls.DEGREES:
        get_field(degree)
    t2 = perf_counter()
    workload = cls(seed)
    return workload, perf_counter() - t0, t2 - t1


def setup_in_fresh_processes(name, seed, reps):
    """Median (set-up s, field build s) over reps fresh interpreters."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(s["setup_s"] for s in samples),
            statistics.median(s["field_build_s"] for s in samples))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of ./.git when present; the benchmark runs fine without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "git_commit": git_commit(), "measurement": UNTUNED,
    }


def timed_loop(workload, rng, seconds, tracer=None):
    """Closed loop, one caller, until the timed calls add up to `seconds`.

    Every result is checked outside the timed region.  With a tracer,
    blocks of workload.CYCLE calls alternate untraced and traced, so both
    halves see the same mix of calls.
    Returns (untraced ns list, traced ns list, attempted, failed).
    """
    from tracing import NullTracer
    durations = {False: [], True: []}
    spent = attempted = failed = 0
    budget = seconds * 1e9
    wall_deadline = perf_counter() + 2 * seconds + 30  # ends a loop of failing calls
    calls = workload.calls(rng)
    while spent < budget and perf_counter() < wall_deadline:
        call = next(calls)
        traced = tracer is not None and (attempted // workload.CYCLE) % 2 == 1
        workload.tracer = tracer if traced else NullTracer
        attempted += 1
        t0 = perf_counter_ns()
        try:
            if traced:
                tracer.new_call()
                result = tracer.call("call", call.run)
            else:
                result = call.run()
        except Exception:  # a call that raises is a failed call; keep measuring
            if failed == 0:
                traceback.print_exc()
            failed += 1
            continue
        elapsed = perf_counter_ns() - t0
        spent += elapsed
        durations[traced].append(elapsed)
        call.result = result
        try:
            ok = call.check(result)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    workload.tracer = NullTracer
    return durations[False], durations[True], attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def band_quantile(values, q, width=0.05):
    """Mean of the values ranked within q +- width.

    Call times form clusters, one per call shape.  A plain quantile jumps
    across the gap between two clusters when the mix shifts slightly; the
    band mean moves smoothly instead.
    """
    ordered = sorted(values)
    lo = math.floor((q - width) * len(ordered))
    hi = math.ceil((q + width) * len(ordered))
    return statistics.fmean(ordered[max(lo, 0):min(hi, len(ordered))])


def end_to_end(durations, setup_s, counts):
    adds, muls, _ = counts
    return {
        "setup_s": metric(setup_s, "s"),
        "call_ms_p50": metric(band_quantile(durations, 0.5) / 1e6, "ms"),
        "call_ms_p90": metric(band_quantile(durations, 0.9) / 1e6, "ms"),
        "calls_per_s": metric(len(durations) / (sum(durations) / 1e9), "1/s"),
        "field_adds": metric(adds, "count"),
        "field_muls": metric(muls, "count"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, untraced, traced, field_build_s, counts, reps):
    from layers import layer_metrics
    values = layer_metrics(workload, reps)
    values["field.build_s"] = field_build_s
    values["transforms.twist_muls"] = counts[2]
    values["trace.overhead_frac"] = statistics.fmean(traced) / statistics.fmean(untraced) - 1
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    return {name: metric(values[name], unit) for name, unit in units.items()}


def write_spans(tracer, name, seed):
    from tracing import self_times
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    fields = ("call_id", "name", "start_ns", "end_ns", "parent")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([dict(zip(fields, span)) for span in tracer.spans], handle)
    calls = max(tracer.call_id, 1)
    return {name: ns / calls / 1e6 for name, ns in sorted(self_times(tracer.spans).items())}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one set-up process and one probe sample (self-tests)")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before its check (self-tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.setup_only:
        _, setup_s, field_s = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "field_build_s": field_s}))
        return 0
    try:
        workload, _, _ = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import binbasis from {SRC}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import CheckFailed
    print(json.dumps({"env": environment(args)}), flush=True)
    reps = 1 if args.quick else SETUP_REPS
    setup_s, field_build_s = setup_in_fresh_processes(args.workload, args.seed, reps)
    workload.corrupt = args.corrupt
    try:
        workload.precheck()
    except CheckFailed as exc:
        print(f"perfbench: oracle pre-check failed: {exc}", file=sys.stderr)
        return 1
    *counts, check_attempted, check_failed = workload.check_set()
    rng = random.Random(f"{args.workload}:{args.seed}")
    tracer = Tracer() if args.trace else None
    untraced, traced, attempted, failed = timed_loop(workload, rng, args.seconds, tracer)
    if len(untraced) < 10 or (args.trace and not traced):
        print("perfbench: too few successful calls to report timings", file=sys.stderr)
        return 1
    attempted += check_attempted
    failed += check_failed
    info = {"samples": len(untraced), "traced_samples": len(traced),
            "counts": dict(zip(("field_adds", "field_muls", "twist_muls"), counts))}
    if args.trace:
        info["span_self_ms_per_call"] = write_spans(tracer, args.workload, args.seed)
        metrics = per_layer(workload, untraced, traced, field_build_s, counts,
                            1 if args.quick else PROBE_REPS)
    else:
        metrics = end_to_end(untraced, setup_s, counts)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
