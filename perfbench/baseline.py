"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --out perfbench/BASELINE.json
    python3 perfbench/baseline.py --compare OLD.json NEW.json

The first form runs every workload (or those named with --workloads) once
per seed with tracing off, and --trace-runs times with tracing on, from the
repository root.  For each metric it records the values, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
The second form checks that no end-to-end median in NEW is worse than in
OLD by more than the metric's bound, and that the count metrics are equal.
It exits 1 if any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("field_adds", "field_muls")


def load_definition():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = json.loads(lines[0])["env"]
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed calls")
    return env, result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def record(args):
    definition = load_definition()
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in definition["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"seeds": seeds, "run_seconds": definition["run_seconds"], "workloads": {}}
    for workload in workloads:
        e2e, layer = {}, {}
        for seed in seeds:
            env, result = run_once(workload, seed, definition["run_seconds"], 0)
            for name, m in result["metrics"].items():
                e2e.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in e2e.items()), flush=True)
        for seed in seeds[:args.trace_runs]:
            _, result = run_once(workload, seed, definition["run_seconds"], 1)
            for name, m in result["metrics"].items():
                layer.setdefault(name, []).append(m["value"])
        out["env"] = env
        summary = {name: summarise(v) for name, v in e2e.items()}
        for name, s in summary.items():
            s["bound"] = bounds[name]
            print(f"  {workload:13s} {name:12s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f} (bound/3 {bounds[name] / 3:.4f})")
        out["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {name: summarise(v) if len(v) > 1 else {"median": v[0], "values": v}
                          for name, v in layer.items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


def compare(old_path, new_path):
    definition = load_definition()
    better = {m["name"]: (m["better"], m["bound"]) for m in definition["end_to_end"]}
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    ok = True
    for workload in sorted(set(old) & set(new)):
        for name, (direction, bound) in better.items():
            a = old[workload]["end_to_end"][name]["median"]
            b = new[workload]["end_to_end"][name]["median"]
            change = (b - a) / a if direction == "lower" else (a - b) / a
            fine = b == a if name in COUNTS else change <= bound
            ok &= fine
            print(f"{workload:13s} {name:12s} {a:.5g} -> {b:.5g} worse by {change:+.4f} "
                  f"(bound {bound}) {'ok' if fine else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    record(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
