"""Command-line driver: construct bases, inspect trees, verify, count, bound.

Subcommands: construct (print a basis), trees (list or validate tree
strategies), verify (dense-oracle equivalence for every ell, small n),
counts (operation-count CSV over an ell range), bounds (compare counts
against the closed forms).  All failures exit nonzero with a single
ERROR: line on stderr.
"""

import argparse
import random
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

from binbasis.basisgen import (
    basis_from_string,
    construct_cantor,
    construct_gen_cantor,
    construct_tower_basis,
    is_independent,
    random_basis,
    subfield_basis_powers,
    tower_from_string,
)
from binbasis.field import Field, element_to_hex, get_field
from binbasis.oracle import bound, oracle_convert
from binbasis.precomp import build_tables, phi_vector
from binbasis.redtree import (
    ReductionTree,
    build_balanced_tree,
    build_cantor_tree,
    build_max_tree,
    build_trivial,
    graft_cantor_tree,
    validate,
)
from binbasis.transforms import BASIS_KINDS, CountModel, convert, run_transform

# Raw transforms: the bases verify checks each one between, and the family
# of its default bounds, <family>_add/_mul.
RAW_TRANSFORMS = {
    "n2x": ("newton", "lch", "newton"),
    "x2n": ("lch", "newton", "newton"),
    "l2x": ("lagrange", "lch", "l2x"),
    "x2l": ("lch", "lagrange", "x2l"),
    "x2m": ("lch_twisted", "monomial", "monomial"),
    "m2x": ("monomial", "lch_twisted", "monomial"),
}

STRATEGY_FORMS = ("trivial", "cantor", "max:<tower>", "balanced:<tower>",
                  "graft:<t>", "explicit:<serialized>")

# The options that have a default; every other one defaults to None, so
# that trees can tell which flags were given.
DEFAULTS = {"basis": "cantor", "tree": "trivial", "transform": "n2x", "lam": "0",
            "calc": False}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; round-trips through its string form,
    the `# config:` header, whose keys are these fields in order."""

    field: str
    basis: str
    tree: str
    n: int
    transform: str
    ell: tuple[int, int]
    lam: str
    c: int | None
    b: int | None
    calc: bool
    out: str | None

    def to_string(self):
        return " ".join(f"{key.name}={_show(getattr(self, key.name))}"
                        for key in fields(self))

    @classmethod
    def from_string(cls, text):
        """The config that to_string printed as text; ValueError for text it
        would not print, such as an unknown, repeated or missing key, keys
        out of order, calc=7 or n=04."""
        try:
            vals = dict(token.split("=", 1) for token in text.split())
            cfg = cls(**{key.name: _READERS.get(key.name, str)(vals[key.name])
                         for key in fields(cls)})
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad config string: {exc}")
        if cfg.to_string() != text:
            raise ValueError(f"bad config string {text!r}; it prints as {cfg.to_string()!r}")
        return cfg


def _show(value):
    """A header value: - for None, 0/1 for the flag, lo:hi for the pair."""
    if value is None:
        return "-"
    if isinstance(value, tuple):
        return "{}:{}".format(*value)
    return str(int(value) if isinstance(value, bool) else value)


def _dashed(read):
    """read, with - for None."""
    return lambda text: None if text == "-" else read(text)


def _pair(text):
    lo, hi = text.split(":")
    return int(lo), int(hi)


# The reader of each header value not kept as text.
_READERS = {"n": int, "ell": _pair, "c": _dashed(int), "b": _dashed(int),
            "calc": lambda text: text == "1", "out": _dashed(str)}


def resolve_field(spec):
    """The shared field instance for a degree or a `<m>:0x<modulus>` spec."""
    if ":" in spec:
        return get_field(*Field.parse_spec(spec))
    return get_field(int(spec))


def _kind_arg(spec):
    """(kind, arg) of a spec; the kind keeps its colon, so that `cantor:x`
    and a bare `graft` match no kind."""
    head, sep, arg = spec.partition(":")
    return head + sep, arg


def _block_size(arg, spec):
    """The block size t of a `gencantor:<t>` or `graft:<t>` spec."""
    t = int(arg)
    if t < 1:
        raise ValueError(f"block size in {spec!r} must be at least 1")
    return t


def build_basis(field, source, n):
    kind, arg = _kind_arg(source)
    if kind == "cantor":
        return construct_cantor(field, n)
    if kind == "gencantor:":
        t = _block_size(arg, source)
        m_levels = max(((n - 1) // t).bit_length(), 1)
        theta = subfield_basis_powers(field, 1, t)
        return construct_gen_cantor(field, m_levels, t, theta)[:n]
    if kind == "tower:":
        return construct_tower_basis(field, tower_from_string(field, arg), n)
    if kind == "random:":
        return random_basis(field, n, random.Random(int(arg)))
    if kind == "explicit:":
        beta = basis_from_string(arg)
        if len(beta) != n:
            raise ValueError(f"explicit basis has {len(beta)} entries, expected {n}")
        if max(beta) >= field.order:
            raise ValueError(f"explicit basis entry outside GF(2^{field.degree})")
        if not is_independent(beta):
            raise ValueError("explicit basis entries are dependent")
        return beta
    raise ValueError(f"unknown basis source {source!r}")


def _strategy_degrees(text):
    return set(int(token.rstrip("!")) for token in text.split("-"))


def build_tree(strategy, n):
    kind, arg = _kind_arg(strategy)
    if kind == "trivial":
        return build_trivial(n)
    if kind == "cantor":
        return build_cantor_tree(n)
    if kind == "max:":
        return build_max_tree(n, _strategy_degrees(arg))
    if kind == "balanced:":
        return build_balanced_tree(n, _strategy_degrees(arg))
    if kind == "graft:":
        t = _block_size(arg, strategy)
        return graft_cantor_tree(t, n, [build_trivial(min(t, n - i)) for i in range(0, n, t)])
    if kind == "explicit:":
        tree = ReductionTree.parse(arg)
        if tree.n != n:
            raise ValueError(f"explicit tree has {tree.n} leaves, expected {n}")
        return tree
    raise ValueError(f"unknown tree strategy {strategy!r}")


def config_from_args(args):
    """The RunConfig of parsed arguments, each option read with its default."""
    opts = {**DEFAULTS, **{k: v for k, v in vars(args).items() if v is not None}}
    field = resolve_field(opts["field"])
    n = opts["n"]
    if not 1 <= n <= field.degree:
        raise ValueError(f"dimension {n} out of range for GF(2^{field.degree})")
    size = 1 << n
    ell_text = opts.get("ell") or f"1:{size}"
    try:
        lo, _, hi = ell_text.partition(":")
        ell = int(lo), int(hi) if hi else int(lo)
    except ValueError:
        raise ValueError(f"bad ell range {ell_text!r}; expected 'lo:hi'")
    if not 1 <= ell[0] <= ell[1] <= size:
        raise ValueError(f"ell range {ell[0]}:{ell[1]} out of 1..{size}")
    try:
        lam = int(opts["lam"], 16)
    except ValueError:
        raise ValueError(f"bad lambda {opts['lam']!r}; expected hex")
    if not 0 <= lam < field.order:
        raise ValueError("lambda outside the field")
    transform = opts["transform"]
    if transform not in RAW_TRANSFORMS and not _convert_kinds(transform):
        raise ValueError(f"unknown transform {transform!r}")
    c, b = opts.get("c"), opts.get("b")
    if c is not None and transform not in ("l2x", "x2l"):
        raise ValueError(f"--c applies to l2x and x2l only, not {transform}")
    if b is not None and transform != "l2x":
        raise ValueError(f"--b applies to l2x only, not {transform}")
    return RunConfig(field=field.spec_string(), basis=opts["basis"], tree=opts["tree"],
                     n=n, transform=transform, ell=ell, lam=f"{lam:x}", c=c, b=b,
                     calc=opts["calc"], out=opts.get("out"))


def _convert_kinds(transform):
    if not transform.startswith("convert:"):
        return None
    pair = transform.split(":", 1)[1].split("-")
    if len(pair) == 2 and all(kind in BASIS_KINDS for kind in pair):
        return tuple(pair)
    return None


def field_basis_tree(cfg):
    """(field, basis, tree) of a config."""
    field = resolve_field(cfg.field)
    return field, build_basis(field, cfg.basis, cfg.n), build_tree(cfg.tree, cfg.n)


def emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _mixed_params(cfg, ell):
    """(c, b) of a transform at ell: the configured ones, by default (ell, 0)."""
    return (ell if cfg.c is None else cfg.c), (0 if cfg.b is None else cfg.b)


def measurer(cfg):
    """ell -> (adds, muls, twists) of the configured transform, replayed by
    CountModel under --calc and executed on seeded random data otherwise."""
    field, beta, tree = field_basis_tree(cfg)
    table = build_tables(field, tree, beta)
    lam = int(cfg.lam, 16)
    kinds = _convert_kinds(cfg.transform)
    model = CountModel(table) if cfg.calc else None
    phi = None if cfg.calc else phi_vector(table, lam)
    rng = random.Random(0)

    def measure(ell):
        if kinds:
            if model is not None:
                return model.convert(kinds[0], kinds[1], ell)
            coeffs = [rng.randrange(field.order) for _ in range(ell)]
            return convert(field, kinds[0], kinds[1], beta, tree, lam, ell, coeffs,
                           table)[1].totals()
        c, b = _mixed_params(cfg, ell)
        if model is not None:
            return model.transform(cfg.transform, 0, c, ell, b)
        data = [rng.randrange(field.order) for _ in range(ell)]
        return run_transform(cfg.transform, 0, phi, c, ell, b, data, table)[1].totals()

    return measure


def cmd_construct(args):
    cfg = config_from_args(args)
    emit([element_to_hex(b) for b in field_basis_tree(cfg)[1]], cfg.out)
    return 0


def cmd_trees(args):
    if args.tree is None:
        given = [f"--{name}" for name in ("field", "basis", "n")
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"trees without --strategy does not read {', '.join(given)}")
        emit(list(STRATEGY_FORMS), args.out)
        return 0
    if args.field is None or args.n is None:
        raise ValueError("validating a strategy requires --field and --n")
    cfg = config_from_args(args)
    field, beta, tree = field_basis_tree(cfg)
    ok = validate(field, tree, beta)
    degrees = ",".join(str(d) for d in sorted(tree.degree_image()))
    emit([tree.serialize(), f"degrees: {degrees}", "valid" if ok else "invalid"],
         cfg.out)
    return 0 if ok else 1


def cmd_verify(args):
    cfg = config_from_args(args)
    if cfg.n > 6:
        raise ValueError("verify is capped at n = 6 (dense oracle cost)")
    field, beta, tree = field_basis_tree(cfg)
    lines = [f"# config: {cfg.to_string()}"]
    if not validate(field, tree, beta):
        lines.append("FAIL validate tree incompatible with basis")
        emit(lines, cfg.out)
        return 1
    table = build_tables(field, tree, beta)
    size = 1 << cfg.n
    shift = int(cfg.lam, 16) or random.Random(1).randrange(1, field.order)
    rng = random.Random(2)
    failures = 0
    for lam in (0, shift):
        phi = phi_vector(table, lam)
        for ell in range(1, size + 1):
            for name, (kind_from, kind_to, _) in RAW_TRANSFORMS.items():
                data = [rng.randrange(field.order) for _ in range(ell)]
                got, _ = run_transform(name, 0, phi, ell, ell, 0, data, table)
                want = oracle_convert(field, kind_from, kind_to, beta,
                                      lam, ell, data)
                ok = got == want
                failures += not ok
                lines.append(
                    f"{'PASS' if ok else 'FAIL'} {name} ell={ell} lam={lam:x}")
    lines.append(f"verify: {len(lines) - 1} checks, {failures} failures")
    emit(lines, cfg.out)
    return 0 if failures == 0 else 1


def cmd_counts(args):
    cfg = config_from_args(args)
    measure = measurer(cfg)
    # Only convert pairs have the twist multiplication column.
    width = 4 if _convert_kinds(cfg.transform) else 3
    columns = ("ell", "additions", "multiplications", "twist_multiplications")
    lines = [f"# config: {cfg.to_string()}", ",".join(columns[:width])]
    for ell in range(cfg.ell[0], cfg.ell[1] + 1):
        lines.append(",".join(map(str, (ell, *measure(ell))[:width])))
    emit(lines, cfg.out)
    return 0


def cmd_bounds(args):
    cfg = config_from_args(args)
    if _convert_kinds(cfg.transform):
        raise ValueError("bounds supports the raw transforms only")
    measure = measurer(cfg)
    family = RAW_TRANSFORMS[cfg.transform][2]
    add_id = args.bound_add or f"{family}_add"
    mul_id = args.bound_mul or f"{family}_mul"
    worst = None
    for ell in range(cfg.ell[0], cfg.ell[1] + 1):
        adds, muls, _ = measure(ell)
        c, b = _mixed_params(cfg, ell)
        for column, count, formula_id in (("additions", adds, add_id),
                                          ("multiplications", muls, mul_id)):
            limit = bound(formula_id, ell=ell, c=c, b=b, n=cfg.n)
            if count > limit:
                raise ValueError(
                    f"{cfg.transform} {column} exceed {formula_id} at "
                    f"ell={ell}: {count} > {limit}")
            slack = limit - count
            if worst is None or slack < worst[0]:
                worst = (slack, column, ell)
    emit([f"# config: {cfg.to_string()}",
          f"worst slack {worst[0]} for {worst[1]} at ell={worst[2]}"],
         cfg.out)
    return 0


# Built once per process: a parse reads the parser and leaves it as it was,
# and in-process callers run main many times.
@lru_cache(maxsize=None)
def build_parser():
    parser = _Parser(prog="binbasis",
                     description="Polynomial basis conversions over GF(2^m) "
                                 "with exact operation counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tree=True):
        sp.add_argument("--field", required=True,
                        help="field degree m, or spec m:0x<modulus-hex>")
        sp.add_argument("--basis",
                        help="cantor | gencantor:<t> | tower:<spec> | "
                             "random:<seed> | explicit:<hex,...>")
        sp.add_argument("--n", type=int, required=True, help="basis dimension")
        if tree:
            sp.add_argument("--tree", help=" | ".join(STRATEGY_FORMS))
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("construct", help="print the configured basis")
    common(sp, tree=False)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("trees", help="list strategies, or validate one")
    sp.add_argument("--strategy", dest="tree", metavar="STRATEGY")
    sp.add_argument("--field")
    sp.add_argument("--basis")
    sp.add_argument("--n", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_trees)

    sp = sub.add_parser("verify", help="dense-oracle equivalence, n <= 6")
    common(sp)
    sp.add_argument("--lam", help="shift, lowercase hex")
    sp.set_defaults(func=cmd_verify)

    for name, func in (("counts", cmd_counts), ("bounds", cmd_bounds)):
        sp = sub.add_parser(name, help=f"operation-count {name} over an ell range")
        common(sp)
        sp.add_argument("--transform",
                        help=" | ".join([*RAW_TRANSFORMS, "convert:<from>-<to>"]))
        sp.add_argument("--ell", help="range lo:hi (default full)")
        sp.add_argument("--lam", help="shift, lowercase hex")
        sp.add_argument("--c", type=int, help="fixed value count for l2x/x2l")
        sp.add_argument("--b", type=int, help="extra-evaluation flag for l2x")
        sp.add_argument("--calc", action="store_true",
                        help="replay counts from the model instead of executing")
        if name == "bounds":
            sp.add_argument("--bound-add", help="override the additions bound id")
            sp.add_argument("--bound-mul", help="override the multiplications bound id")
        sp.set_defaults(func=func)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
