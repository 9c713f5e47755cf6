"""The benchmark workloads: set-up, oracle pre-check, count check set, calls.

Every workload is a closed loop with one caller.  Its inputs come from the
run seed; its count check set uses a fixed seed so the count metrics repeat
exactly.  Each timed call returns its raw output, and a separate check,
run outside the timed region, decides whether the call failed.

Why these three (see also README.md):
  convert_gf16   full and ragged-length conversions over GF(2^16) on the
                 Cantor tree, where recursion and view overhead dominate.
  lch_mul_gf32   LCH polynomial products over GF(2^32) on the 9-level comb
                 tree, where the carry-less Field.mul dominates.
  count_sweep    the count-table pipeline: basis, tree, tables, CountModel
                 and the CLI, with almost no data transforms.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from functools import partial

from binbasis import cli
from binbasis.field import get_field
from binbasis.oracle import oracle_convert, poly_mul, poly_trim
from binbasis.precomp import build_tables, initial_phi_vector
from binbasis.redtree import validate
from binbasis.transforms import BASIS_KINDS, CoeffBuffer, CountModel, convert, l2x, x2l

from tracing import NullTracer

PAIRS = tuple((a, b) for a in BASIS_KINDS for b in BASIS_KINDS if a != b)
COUPLES = tuple((a, b) for i, a in enumerate(BASIS_KINDS) for b in BASIS_KINDS[i + 1:])
CHECK_SEED = 20180720  # fixed: the count check set must not depend on --seed


class CheckFailed(Exception):
    """The oracle pre-check found a wrong result; the run is aborted."""


@dataclass(frozen=True)
class Config:
    """One (field, basis, tree, n) choice in the CLI's spec strings."""

    degree: int
    basis: str
    tree: str
    n: int


@dataclass(frozen=True)
class Context:
    field: object
    beta: tuple
    tree: object
    table: object
    config: Config


def build(cfg):
    """Field, basis, tree and tables for a config."""
    field = get_field(cfg.degree)
    beta = cli.build_basis(field, cfg.basis, cfg.n)
    tree = cli.build_tree(cfg.tree, cfg.n)
    return Context(field, beta, tree, build_tables(field, tree, beta), cfg)


def run_cli(argv):
    """In-process cli.main with stdout captured: (exit code, output text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def oracle_check(ctx, rng, ells):
    """Every pair at each ell against the dense oracle, counts against CountModel."""
    field = ctx.field
    model = CountModel(ctx.table)
    for a, b in PAIRS:
        for ell in ells:
            lam = rng.randrange(field.order)
            x = [rng.randrange(field.order) for _ in range(ell)]
            out, ctr = convert(field, a, b, ctx.beta, ctx.tree, lam, ell, x, ctx.table)
            if out != oracle_convert(field, a, b, ctx.beta, lam, ell, x):
                raise CheckFailed(f"{ctx.config} {a}->{b} ell={ell} differs from the oracle")
            if ctr.totals() != model.convert(a, b, ell):
                raise CheckFailed(f"{ctx.config} {a}->{b} ell={ell} counts differ from CountModel")


class Call:
    """One timed call and the untimed check of its result."""

    __slots__ = ("run", "check", "result")

    def __init__(self, run, check):
        self.run = run
        self.check = check
        self.result = None


class Workload:
    """Shared workload state; subclasses define set-up, checks and calls."""

    name = ""
    DEGREES = ()  # fields built during set-up
    CYCLE = 12  # calls per balanced block of the call sequence
    corrupt = False  # self-test switch: damage every output before its check

    def __init__(self, seed):
        self.seed = seed
        self.tracer = NullTracer

    def precheck(self):
        raise NotImplementedError

    def check_set(self):
        """(adds, muls, twists, attempted, failed) over the fixed check set."""
        raise NotImplementedError

    def calls(self, rng):
        raise NotImplementedError

    def probe_configs(self):
        """Configs on which the per-layer probes run; the first one also
        gets the per-transform and per-depth timings."""
        raise NotImplementedError

    def x2l_ell(self, size):
        """Input length of the probed root x2l call (c = size)."""
        return size


class ConvertGF16(Workload):
    """Single-vector convert calls over GF(2^16), Cantor basis and tree, n=12."""

    name = "convert_gf16"
    DEGREES = (16,)
    CONFIG = Config(16, "cantor", "cantor", 12)

    def __init__(self, seed):
        super().__init__(seed)
        self.ctx = build(self.CONFIG)
        self.model = CountModel(self.ctx.table)

    def _convert(self, a, b, lam, ell, coeffs):
        c = self.ctx
        return self.tracer.call("transforms.convert", convert, c.field, a, b, c.beta,
                                c.tree, lam, ell, coeffs, c.table)

    def _check(self, a, b, ell, original, result):
        out, ctr = result
        if self.corrupt:
            out = [out[0] ^ 1] + out[1:]
        if ctr.totals() != self.model.convert(a, b, ell):
            return False
        return original is None or out == original

    def precheck(self):
        rng = random.Random(f"precheck:{self.seed}")
        ctx = build(Config(16, "cantor", "cantor", 6))
        oracle_check(ctx, rng, (64, rng.randint(33, 63)))

    def check_set(self):
        rng = random.Random(CHECK_SEED)
        size = 1 << self.CONFIG.n
        field = self.ctx.field
        total = [0, 0, 0]
        failed = 0
        for i, (a, b) in enumerate(PAIRS):
            ell = size if i % 2 == 0 else rng.randint(size // 2 + 1, size - 1)
            x = [rng.randrange(field.order) for _ in range(ell)]
            result = self._convert(a, b, rng.randrange(field.order), ell, x)
            failed += not self._check(a, b, ell, None, result)
            total = [s + t for s, t in zip(total, result[1].totals())]
        return (*total, len(PAIRS), failed)

    def calls(self, rng):
        size = 1 << self.CONFIG.n
        order = self.ctx.field.order
        while True:
            # One cycle: all 12 ordered pairs as 6 forward/inverse couples,
            # half at full length and half at a ragged length.
            couples = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in COUPLES]
            rng.shuffle(couples)
            full = [True, False] * (len(couples) // 2)
            rng.shuffle(full)
            for (a, b), is_full in zip(couples, full):
                ell = size if is_full else rng.randint(size // 2 + 1, size - 1)
                lam = rng.randrange(order)
                x = [rng.randrange(order) for _ in range(ell)]
                fwd = Call(partial(self._convert, a, b, lam, ell, x),
                           partial(self._check, a, b, ell, None))
                yield fwd
                if fwd.result is None:
                    continue
                yield Call(partial(self._convert, b, a, lam, ell, fwd.result[0]),
                           partial(self._check, b, a, ell, x))

    def probe_configs(self):
        return [self.CONFIG]


def lch_multiply(ctx, phi, f, g, tracer=NullTracer):
    """Product of two LCH polynomials of length size/2 by evaluation.

    Returns (product LCH coefficients, pointwise values, counters of the
    two evaluations and the interpolation).
    """
    size = 1 << ctx.tree.n
    table = ctx.table
    evals = []
    for coeffs in (f, g):
        buf = CoeffBuffer(list(coeffs) + [0] * (size - len(coeffs)))
        tracer.call("transforms.x2l", x2l, 0, phi, size, len(coeffs), buf.view(), table)
        evals.append(buf)
    mul = ctx.field.mul
    values = tracer.call("field.mul", lambda: [mul(p, q) for p, q in
                                               zip(evals[0].data, evals[1].data)])
    buf = CoeffBuffer(values)
    tracer.call("transforms.l2x", l2x, 0, phi, size, size, 0, buf.view(), table)
    return buf.data, values, (evals[0].counter, evals[1].counter, buf.counter)


class LchMulGF32(Workload):
    """LCH products over GF(2^32), seeded random basis, comb tree, n=10."""

    name = "lch_mul_gf32"
    DEGREES = (32,)
    N = 10
    BATCH = CYCLE = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.config = Config(32, f"random:{seed}", "trivial", self.N)
        self.ctx = build(self.config)
        model = CountModel(self.ctx.table)
        size = 1 << self.N
        self.want_counts = (model.x2l(0, size, size // 2), model.x2l(0, size, size // 2),
                            model.l2x(0, size, size, 0))
        self._phi = None

    def _multiply(self, lam, f, g):
        c = self.ctx
        if lam is not None:
            self._phi = self.tracer.call("precomp.initial_phi_vector", initial_phi_vector,
                                         c.field, c.tree, c.table.bases, lam)
        return self._phi, lch_multiply(c, self._phi, f, g, self.tracer)

    def _check(self, result):
        phi, (product, values, counters) = result
        size = 1 << self.N
        if self.corrupt:
            product = product[:-1] + [product[-1] ^ 1]
        if product[-1] != 0:
            return False
        if tuple(ctr.totals()[:2] for ctr in counters) != self.want_counts:
            return False
        # The product has degree < size - 1: re-evaluate its first size-1
        # coefficients at all size points (c > ell) and compare.
        buf = CoeffBuffer(product[:-1] + [0])
        x2l(0, phi, size, size - 1, buf.view(), self.ctx.table)
        return buf.data == values

    def precheck(self):
        rng = random.Random(f"precheck:{self.seed}")
        ctx = build(Config(32, f"random:{self.seed}", "trivial", 6))
        oracle_check(ctx, rng, (64, 32))
        field = ctx.field
        half = 32
        f = [rng.randrange(field.order) for _ in range(half)]
        g = [rng.randrange(field.order) for _ in range(half)]
        phi = initial_phi_vector(field, ctx.tree, ctx.table.bases, rng.randrange(1, field.order))
        product = lch_multiply(ctx, phi, f, g)[0]

        def monomial(coeffs):
            out, _ = convert(field, "lch", "monomial", ctx.beta, ctx.tree, 0, len(coeffs),
                             coeffs, ctx.table)
            return poly_trim(out)

        if monomial(product) != poly_mul(field, monomial(f), monomial(g)):
            raise CheckFailed("LCH product differs from oracle.poly_mul")

    def check_set(self):
        rng = random.Random(CHECK_SEED)
        field = self.ctx.field
        size = 1 << self.N
        total = [0, 0, 0]
        failed = 0
        calls = 2
        for i in range(calls):
            f = [rng.randrange(field.order) for _ in range(size // 2)]
            g = [rng.randrange(field.order) for _ in range(size // 2)]
            result = self._multiply(rng.randrange(1, field.order), f, g)
            failed += not self._check(result)
            for ctr in result[1][2]:
                total = [s + t for s, t in zip(total, ctr.totals())]
            total[1] += size  # the pointwise products
        return (*total, calls, failed)

    def calls(self, rng):
        order = self.ctx.field.order
        half = 1 << (self.N - 1)
        while True:
            lam = rng.randrange(1, order)
            for i in range(self.BATCH):
                f = [rng.randrange(order) for _ in range(half)]
                g = [rng.randrange(order) for _ in range(half)]
                # The first call of a batch pays for the batch's phi vector.
                yield Call(partial(self._multiply, lam if i == 0 else None, f, g),
                           self._check)

    def probe_configs(self):
        return [self.config]

    def x2l_ell(self, size):
        return size // 2


FAMILIES = (
    ("cantor", "cantor"),
    ("gencantor:2", "graft:2"),
    ("tower:1-2!-4!-8!-16", "max:1-2-4-8-16"),
    ("random", "trivial"),
)
VERIFY_N = 3
WINDOW = 32


def family_config(degree, family, n, basis_seed):
    basis, tree = family
    if basis == "random":
        basis = f"random:{basis_seed}"
    return Config(degree, basis, tree, n)


class CountSweep(Workload):
    """One (family, n) entry per call, on both fields: build, validate,
    replay, CLI.  Pairing the fields keeps the call-time distribution
    unimodal; one field per call splits it into a GF(2^16) and a GF(2^32)
    mode with the median between them."""

    name = "count_sweep"
    DEGREES = (16, 32)
    CYCLE = len(FAMILIES)

    def _sweep(self, cfg, ells, pair, lo):
        tr = self.tracer
        field = get_field(cfg.degree)
        beta = tr.call("basisgen.construct", cli.build_basis, field, cfg.basis, cfg.n)
        tree = tr.call("redtree.build", cli.build_tree, cfg.tree, cfg.n)
        if not tr.call("redtree.validate", validate, field, tree, beta):
            raise ValueError(f"{cfg} does not validate")
        table = tr.call("precomp.build_tables", build_tables, field, tree, beta)
        model = CountModel(table)
        replay = tr.call("transforms.CountModel", lambda: {
            (a, b, ell): model.convert(a, b, ell) for a, b in PAIRS for ell in ells})
        spec = ["--field", str(cfg.degree), "--basis", cfg.basis, "--tree", cfg.tree]
        counts = tr.call("cli.counts_calc", run_cli, ["counts", *spec, "--n", str(cfg.n),
                         "--transform", "convert:%s-%s" % pair, "--calc",
                         "--ell", f"{lo}:{lo + WINDOW - 1}"])
        verify = tr.call("cli.verify", run_cli, ["verify", *spec, "--n", str(VERIFY_N)])
        return replay, counts, verify

    def _sweep_fields(self, cfgs, ells, pair, lo):
        return [self._sweep(cfg, ells, pair, lo) for cfg in cfgs]

    def _check(self, pair, lo, results):
        # The CLI builds its own table from the same spec strings; its CSV
        # rows must equal this call's replay over the window.
        for replay, (code, text), (vcode, vtext) in results:
            lines = text.splitlines()
            if self.corrupt and len(lines) > 2:
                lines[2] += "1"
            if code != 0 or vcode != 0:
                return False
            header = lines[0].removeprefix("# config: ")
            if cli.RunConfig.from_string(header).to_string() != header:
                return False
            want = [",".join(map(str, (ell, *replay[(*pair, ell)])))
                    for ell in range(lo, lo + WINDOW)]
            if lines[2:] != want or not vtext.splitlines()[-1].endswith(", 0 failures"):
                return False
        return True

    def precheck(self):
        rng = random.Random(f"precheck:{self.seed}")
        for degree in (16, 32):
            for family in FAMILIES:
                ctx = build(family_config(degree, family, 5, rng.randrange(1 << 30)))
                oracle_check(ctx, rng, (32, rng.randint(17, 31)))

    def check_set(self):
        rng = random.Random(CHECK_SEED)
        total = [0, 0, 0]
        attempted = failed = 0
        for degree, family, n in ((d, f, n) for d in self.DEGREES for f in FAMILIES
                                  for n in (8, 12, 16)):
            attempted += 1
            try:
                model = CountModel(build(family_config(degree, family, n, CHECK_SEED)).table)
            except ValueError:
                failed += 1
                continue
            size = 1 << n
            ells = (size, rng.randint(1, size), rng.randint(1, size), rng.randint(1, size))
            for a, b in PAIRS:
                for ell in ells:
                    total = [s + t for s, t in zip(total, model.convert(a, b, ell))]
        return (*total, attempted, failed)

    def calls(self, rng):
        # The run's fixed list: every family at n = 8..16, a random basis
        # keeping one seed per entry.  Each pass over the list is 9 blocks
        # of CYCLE calls, and every block holds each family once.
        entries = {}
        for family in FAMILIES:
            seeds = [rng.randrange(1 << 30) for _ in range(9)]
            entries[family] = [[family_config(degree, family, n, seed) for degree in self.DEGREES]
                               for n, seed in zip(range(8, 17), seeds)]
        families = list(FAMILIES)
        while True:
            for column in entries.values():
                rng.shuffle(column)
            for block in range(9):
                rng.shuffle(families)
                for family in families:
                    cfgs = entries[family][block]
                    size = 1 << cfgs[0].n
                    pair = rng.choice(PAIRS)
                    lo = rng.randint(1, size - WINDOW + 1)
                    ells = sorted({size, *range(lo, lo + WINDOW),
                                   *(rng.randint(1, size) for _ in range(WINDOW))})
                    yield Call(partial(self._sweep_fields, cfgs, ells, pair, lo),
                               partial(self._check, pair, lo))

    def probe_configs(self):
        return [family_config(degree, family, 10, CHECK_SEED)
                for family in FAMILIES for degree in (16, 32)]


WORKLOADS = {w.name: w for w in (ConvertGF16, LchMulGF32, CountSweep)}
