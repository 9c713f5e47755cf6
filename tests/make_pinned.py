"""Rebuild the pinned exact counts and output digests in tests/pinned/.

    PYTHONPATH=src python tests/make_pinned.py

Every file is computed from src/ with fixed seeds:
  counts.csv            CountModel.convert for all 12 pairs over nine
                        (field, basis, tree) configurations, at every even n
                        from 2 to 16 and 4-8 lengths each
  outputs.csv           one sha256 per configuration of 48 executed converts
                        (12 pairs, 2 lengths, 2 shifts): outputs and totals
  perfbench_totals.csv  the (adds, muls, twists) of each perfbench workload's
                        count check set

tests/test_pinned.py recomputes every file and compares.  A change that sets
out to move a count or an output regenerates the files and lists each row
that moved; no other change edits them.
"""

import csv
import hashlib
import io
import random
import sys
from pathlib import Path

from binbasis.cli import build_basis, build_tree
from binbasis.field import get_field
from binbasis.precomp import build_tables
from binbasis.transforms import BASIS_KINDS, CountModel, convert

PINNED = Path(__file__).resolve().parent / "pinned"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PAIRS = tuple((a, b) for a in BASIS_KINDS for b in BASIS_KINDS if a != b)

COUNT_CONFIGS = (
    (16, "cantor", "cantor"),
    (16, "cantor", "trivial"),
    (16, "random:1", "trivial"),
    (16, "gencantor:2", "graft:2"),
    (16, "tower:1-2-4-8-16", "max:1-2-4-8-16"),
    (20, "gencantor:5", "graft:5"),
    (24, "gencantor:3", "graft:3"),
    (32, "cantor", "cantor"),
    (32, "random:5", "trivial"),
)
OUTPUT_CONFIGS = (
    (16, "cantor", "cantor", 12),
    (32, "random:7", "trivial", 10),
    (16, "gencantor:2", "graft:2", 10),
    (12, "random:3", "trivial", 10),
)


def _table(degree, basis, tree, n):
    field = get_field(degree)
    return build_tables(field, build_tree(tree, n), build_basis(field, basis, n))


def _csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def counts_csv():
    rows = []
    for degree, basis, tree in COUNT_CONFIGS:
        for n in range(2, 17, 2):
            model = CountModel(_table(degree, basis, tree, n))
            size = 1 << n
            rng = random.Random(f"counts:{degree}:{basis}:{tree}:{n}")
            half = size // 2
            ells = sorted({1, 2, half - 1, half, half + 1, rng.randint(1, size), size - 1, size} - {0})
            for a, b in PAIRS:
                for ell in ells:
                    rows.append((degree, basis, tree, n, a, b, ell, *model.convert(a, b, ell)))
    return _csv(("field", "basis", "tree", "n", "from", "to", "ell", "adds", "muls", "twists"),
                rows)


def outputs_csv():
    rows = []
    for degree, basis, tree, n in OUTPUT_CONFIGS:
        table = _table(degree, basis, tree, n)
        field = table.field
        size = 1 << n
        rng = random.Random(f"outputs:{degree}:{basis}:{tree}:{n}")
        digest = hashlib.sha256()
        converts = 0
        for lam in (0, rng.randrange(1, field.order)):
            for ell in (size, rng.randint(size // 2 + 1, size - 1)):
                for a, b in PAIRS:
                    coeffs = [rng.randrange(field.order) for _ in range(ell)]
                    out, counter = convert(field, a, b, table.beta, table.tree, lam, ell,
                                           coeffs, table)
                    digest.update(repr((a, b, lam, ell, out, counter.totals())).encode())
                    converts += 1
        rows.append((degree, basis, tree, n, converts, digest.hexdigest()))
    return _csv(("field", "basis", "tree", "n", "converts", "sha256"), rows)


def perfbench_totals_csv():
    """The workloads' check sets use a fixed seed of their own; the seed
    given to each workload only picks lch_mul_gf32's random basis, which
    leaves its x2l/l2x counts unchanged."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    rows = [(name, *cls(1).check_set()) for name, cls in WORKLOADS.items()]
    return _csv(("workload", "adds", "muls", "twists", "attempted", "failed"), rows)


FILES = {
    "counts.csv": counts_csv,
    "outputs.csv": outputs_csv,
    "perfbench_totals.csv": perfbench_totals_csv,
}


def main():
    PINNED.mkdir(exist_ok=True)
    for name, make in FILES.items():
        (PINNED / name).write_text(make(), encoding="utf-8")
        print(f"wrote {PINNED / name}")


if __name__ == "__main__":
    main()
