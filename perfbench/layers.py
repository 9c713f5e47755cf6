"""Per-layer probes for the traced run.

Each probe times one public binbasis function directly on the workload's
own configuration, with seeded operands, and reports the median of several
samples.  Small calls are repeated inside a sample so that one sample lasts
at least SAMPLE_NS.

Per-depth self times: one untimed run of a transform under sys.setprofile
records every distinct recursive call (vertex v plus its scalar arguments),
how often it occurs, and which distinct calls it makes itself.  Each
distinct call is then timed directly through the public `v` argument, and
its self time is its inclusive time minus its children's inclusive times
weighted by how often it calls them.  Summed over all calls, weighted by
occurrence, the self times telescope to the root's inclusive time.
"""

import random
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

from binbasis import cli, transforms
from binbasis.field import get_field
from binbasis.oracle import oracle_convert
from binbasis.precomp import build_tables, initial_phi_vector
from binbasis.redtree import validate
from binbasis.transforms import CoeffBuffer, CountModel

from workloads import PAIRS, VERIFY_N, WINDOW, Config, build, run_cli

DEPTH_BUCKETS = ("d0", "d1", "d2", "d3", "d4up")
SAMPLE_NS = 200_000


def median_ns_many(jobs, reps):
    """{key: median ns of one fn(x)} for jobs {key: (fn, make)}.

    Inputs x = make() are made outside the timed region, one per call.
    Samples are taken round-robin over the jobs, so slow drift in the
    machine's speed affects every job alike.
    """
    inner = {}
    for key, (fn, make) in jobs.items():
        t0 = perf_counter_ns()
        fn(make())
        inner[key] = max(1, SAMPLE_NS // max(perf_counter_ns() - t0, 1))
    samples = {key: [] for key in jobs}
    for _ in range(reps):
        for key, (fn, make) in jobs.items():
            inputs = [make() for _ in range(inner[key])]
            t0 = perf_counter_ns()
            for x in inputs:
                fn(x)
            samples[key].append((perf_counter_ns() - t0) / inner[key])
    return {key: statistics.median(s) for key, s in samples.items()}


def median_ns(fn, make, reps):
    return median_ns_many({0: (fn, make)}, reps)[0]


def field_op_ns(field, reps):
    """(mul ns, inv ns) on seeded nonzero operands, call overhead subtracted."""
    rng = random.Random(1)
    mul, inv = field.mul, field.inv

    def operands():
        return rng.randrange(1, field.order), rng.randrange(1, field.order)

    base = median_ns(lambda p: None, operands, reps)
    return (median_ns(lambda p: mul(p[0], p[1]), operands, reps) - base,
            median_ns(lambda p: inv(p[0]), operands, reps) - base)


def root_calls(ctx, phi, x2l_ell):
    """Keyword arguments of each transform's root call at full length."""
    size = 1 << ctx.tree.n
    return {
        "n2x": dict(v=0, phi_vec=phi, ell=size),
        "x2n": dict(v=0, phi_vec=phi, ell=size),
        "l2x": dict(v=0, phi_vec=phi, c=size, ell=size, b=0),
        "x2l": dict(v=0, phi_vec=phi, c=size, ell=x2l_ell),
        "x2m": dict(v=0, ell=size),
        "m2x": dict(v=0, ell=size),
    }


def discover(fn, kwargs, data, table):
    """Distinct recursive calls of fn from one root call.

    Returns (root key, nodes): nodes[key] = [kwargs, view data, occurrences,
    Counter of child keys made by one call].
    """
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    nodes = {}
    stack = []

    def prof(frame, event, arg):
        if frame.f_code is not code:
            return
        if event == "return":
            stack.pop()
            return
        if event != "call":
            return
        loc = frame.f_locals
        view = loc["view"]
        key = tuple(loc[nm] for nm in names if isinstance(loc[nm], int)) + (len(view),)
        node = nodes.get(key)
        first = node is None
        if first:
            args = {nm: list(loc[nm]) for nm in names if nm == "phi_vec"}
            args.update((nm, loc[nm]) for nm in names if isinstance(loc[nm], int))
            node = nodes[key] = [args, [view[i] for i in range(len(view))], 0, Counter()]
        node[2] += 1
        if stack and stack[-1][1]:
            nodes[stack[-1][0]][3][key] += 1
        stack.append((key, first))

    buf = CoeffBuffer(list(data))
    sys.setprofile(prof)
    try:
        fn(view=buf.view(), table=table, **kwargs)
    finally:
        sys.setprofile(None)
    return next(iter(nodes)), nodes


def depth_profile(fn, kwargs, data, table, reps):
    """(root inclusive ns, {bucket: self ns}, root counter totals)."""
    root, nodes = discover(fn, kwargs, data, table)
    tree = table.tree
    depth = [0] * len(tree.size)
    for v in tree.vertices():
        if not tree.is_leaf(v):
            depth[tree.alpha[v]] = depth[tree.delta[v]] = depth[v] + 1
    def job(args, view_data):
        def make():
            call = dict(args)
            if "phi_vec" in call:
                call["phi_vec"] = list(call["phi_vec"])
            call["view"] = CoeffBuffer(list(view_data)).view()
            return call
        return lambda call: fn(table=table, **call), make

    incl = median_ns_many({key: job(node[0], node[1]) for key, node in nodes.items()}, reps)
    buckets = dict.fromkeys(DEPTH_BUCKETS, 0.0)
    for key, (args, _, count, children) in nodes.items():
        own = incl[key] - sum(m * incl[child] for child, m in children.items())
        k = depth[args["v"]]
        buckets[DEPTH_BUCKETS[min(k, len(DEPTH_BUCKETS) - 1)]] += count * own
    buf = CoeffBuffer(list(data))
    fn(view=buf.view(), table=table, **kwargs)
    return incl[root], buckets, buf.counter.totals()


def transform_metrics(ctx, x2l_ell, reps):
    """Root, per-depth and Taylor/scaling timings on one context, plus counts."""
    rng = random.Random(2)
    field, table = ctx.field, ctx.table
    size = 1 << ctx.tree.n
    phi = initial_phi_vector(field, ctx.tree, table.bases, rng.randrange(1, field.order))
    out = {}
    total_ns = total_ops = total_muls = 0
    for name, kwargs in root_calls(ctx, phi, x2l_ell).items():
        ell = kwargs["ell"]
        data = [rng.randrange(field.order) for _ in range(ell)]
        if name in ("l2x", "x2l"):
            data += [0] * (size - ell)
        root_ns, buckets, (adds, muls, _) = depth_profile(
            getattr(transforms, name), kwargs, data, table, reps)
        out[f"transforms.{name}_ms"] = root_ns / 1e6
        out[f"transforms.{name}.adds"] = adds
        out[f"transforms.{name}.muls"] = muls
        for bucket, ns in buckets.items():
            out[f"transforms.{name}.{bucket}_self_ms"] = ns / 1e6
        total_ns += root_ns
        total_ops += adds + muls
        total_muls += muls

    def vector():
        return CoeffBuffer([rng.randrange(field.order) for _ in range(size)]).view()

    w = 1 << ctx.tree.d_of(0)
    out["transforms.taylor_expand_ms"] = median_ns(
        lambda view: transforms.taylor_expand(w, size, view), vector, reps) / 1e6
    out["transforms.taylor_inverse_ms"] = median_ns(
        lambda view: transforms.taylor_inverse(w, size, view), vector, reps) / 1e6
    out["transforms.scale_by_powers_ms"] = median_ns(
        lambda view: transforms.scale_by_powers(field, view, ctx.beta[0]), vector, reps) / 1e6
    out["transforms.ns_per_op"] = total_ns / total_ops
    return out, total_ns, total_muls


def module_metrics(cfg, reps):
    """Set-up stage, CountModel, oracle and CLI timings on one config."""
    rng = random.Random(3)
    ctx = build(cfg)
    field = ctx.field
    size = 1 << cfg.n
    spec = ["--field", str(cfg.degree), "--basis", cfg.basis, "--tree", cfg.tree]
    out = {
        "basisgen.construct_ms": median_ns(
            lambda _: cli.build_basis(field, cfg.basis, cfg.n), lambda: None, reps) / 1e6,
        "redtree.build_ms": median_ns(
            lambda _: cli.build_tree(cfg.tree, cfg.n), lambda: None, reps) / 1e6,
        "redtree.validate_ms": median_ns(
            lambda _: validate(field, ctx.tree, ctx.beta), lambda: None, reps) / 1e6,
        "precomp.build_tables_ms": median_ns(
            lambda _: build_tables(field, ctx.tree, ctx.beta), lambda: None, reps) / 1e6,
        "precomp.phi_entries": ctx.table.phi_entry_count(),
        "precomp.phi_vector_ms": median_ns(
            lambda lam: initial_phi_vector(field, ctx.tree, ctx.table.bases, lam),
            lambda: rng.randrange(1, field.order), reps) / 1e6,
    }
    ells = [rng.randint(1, size) for _ in range(16)]

    def replay(model):
        for a, b in PAIRS:
            for ell in ells:
                model.convert(a, b, ell)

    out["transforms.countmodel_us"] = median_ns(
        replay, lambda: CountModel(ctx.table), reps) / 1e3 / (len(PAIRS) * len(ells))
    small = build(Config(cfg.degree, cfg.basis, cfg.tree, 4))
    oracle_ns = 0
    for a, b in PAIRS:
        oracle_ns += median_ns(
            lambda x: oracle_convert(field, a, b, small.beta, 1, 16, x),
            lambda: [rng.randrange(field.order) for _ in range(16)], reps)
    out["oracle.convert_ms"] = oracle_ns / len(PAIRS) / 1e6
    out["cli.verify_s"] = median_ns(
        lambda _: run_cli(["verify", *spec, "--n", str(VERIFY_N)]), lambda: None, reps) / 1e9
    out["cli.counts_calc_s"] = median_ns(
        lambda _: run_cli(["counts", *spec, "--n", str(cfg.n), "--calc",
                           "--transform", "convert:lagrange-monomial",
                           "--ell", f"1:{WINDOW}"]), lambda: None, reps) / 1e9
    return out


def layer_metrics(workload, reps):
    """Every per-layer metric except field.build_s and trace.overhead_frac."""
    configs = workload.probe_configs()
    per_config = [module_metrics(cfg, reps) for cfg in configs]
    out = {key: statistics.fmean(m[key] for m in per_config) for key in per_config[0]}
    ctx = build(configs[0])
    tmetrics, total_ns, total_muls = transform_metrics(ctx, workload.x2l_ell(1 << ctx.tree.n), reps)
    out.update(tmetrics)
    out["field.mul_ns"], out["field.inv_ns"] = field_op_ns(get_field(configs[0].degree), reps)
    out["transforms.mul_share"] = out["field.mul_ns"] * total_muls / total_ns
    return out
