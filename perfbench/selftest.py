"""Self-tests of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

Checks, each on every workload in quick mode (a few seconds a run):
  - a run with tracing off reports exactly the end-to-end metrics of
    BENCHMARK.json, a traced run exactly the per-layer ones, every name
    matches [A-Za-z0-9_.-]+, every end-to-end value is nonzero, and no
    call fails;
  - --corrupt, which damages every output before its check, makes the
    failed count (fail_frac) positive;
  - two runs with different seeds report identical exact counts;
  - per-depth self times of every transform sum to the root inclusive time;
  - in a directory holding only BENCHMARK.json and perfbench/, the run
    exits nonzero without printing a result.
Exits 1 on the first failed check.
"""

import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
QUICK_SECONDS = 6


def run(workload, seed, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(QUICK_SECONDS), "--trace", str(trace), "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print("ok  ", message, flush=True)


def check_workload(workload, definition):
    e2e_names = {m["name"] for m in definition["end_to_end"]}
    layer_names = {m["name"] for m in definition["per_layer"]}
    result, info = result_of(run(workload, 1))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{workload}: quick run has no failed calls")
    check(set(result["metrics"]) == e2e_names,
          f"{workload}: untraced run reports exactly the end-to-end metrics")
    check(all(m["value"] != 0 for m in result["metrics"].values()),
          f"{workload}: every end-to-end value is nonzero")
    again, info2 = result_of(run(workload, 2))
    check(info["counts"] == info2["counts"] and all(
        result["metrics"][k]["value"] == again["metrics"][k]["value"]
        for k in ("field_adds", "field_muls")),
          f"{workload}: exact counts repeat across seeds")
    traced, _ = result_of(run(workload, 1, 1))
    check(traced["correct"] and set(traced["metrics"]) == layer_names,
          f"{workload}: traced run reports exactly the per-layer metrics")
    names = set(result["metrics"]) | set(traced["metrics"])
    check(all(NAME.fullmatch(n) and len(n) <= 64 for n in names),
          f"{workload}: every metric name matches [A-Za-z0-9_.-]+")
    corrupted, _ = result_of(run(workload, 1, 0, "--corrupt"))
    check(corrupted["failed"] > 0 and not corrupted["correct"],
          f"{workload}: corrupted outputs give fail_frac "
          f"{corrupted['failed'] / corrupted['attempted']:.2f} > 0")


def check_depth_sums():
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from binbasis import transforms
    from layers import depth_profile, root_calls
    from workloads import Config, build
    from binbasis.precomp import initial_phi_vector
    for cfg in (Config(16, "cantor", "cantor", 7), Config(32, "random:5", "trivial", 7)):
        ctx = build(cfg)
        rng = random.Random(4)
        phi = initial_phi_vector(ctx.field, ctx.tree, ctx.table.bases, 3)
        size = 1 << cfg.n
        for name, kwargs in root_calls(ctx, phi, size // 2).items():
            data = [rng.randrange(ctx.field.order) for _ in range(kwargs["ell"])]
            data += [0] * (size - len(data))
            root_ns, buckets, _ = depth_profile(getattr(transforms, name), kwargs,
                                                data, ctx.table, 1)
            check(math.isclose(sum(buckets.values()), root_ns, rel_tol=1e-9),
                  f"{cfg.basis} {name}: per-depth self times sum to the root time")


def check_bare_directory():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("convert_gf16", 1, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the run exits nonzero and prints no result")


def main():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_depth_sums()
        check_bare_directory()
        for workload in (w["name"] for w in definition["workloads"]):
            check_workload(workload, definition)
    except AssertionError as exc:
        print("FAIL", exc)
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
