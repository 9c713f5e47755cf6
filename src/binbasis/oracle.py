"""Brute-force ground truth for the fast conversions.

Everything here is dense and quadratic-or-worse on purpose: basis
polynomials are built from their defining products, conversions go through
explicit monomial coefficient vectors, and mixed systems fall back to exact
interpolation or Gaussian elimination.  The recursive transforms are tested
against these results with zero tolerance.

Polynomials are tuples of field elements, lowest degree first, with no
trailing zeros (the zero polynomial is the empty tuple).
"""

from functools import lru_cache
from math import comb

from binbasis.basisgen import enumerate_point


def poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] ^= c
    return poly_trim(out)


def poly_mul(field, p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] ^= field.mul(a, b)
    return poly_trim(out)


def poly_eval(field, p, x0):
    acc = 0
    for c in reversed(p):
        acc = field.mul(acc, x0) ^ c
    return acc


def poly_shift(field, p, lam):
    """p(x + lam), by Horner-style recomposition; self-inverse over GF(2^m)."""
    acc = ()
    for c in reversed(p):
        # acc <- acc*(x + lam) + c
        shifted = (0,) + acc
        scaled = tuple(field.mul(lam, a) for a in acc)
        acc = poly_add(poly_add(shifted, scaled), (c,))
    return acc


def poly_compose(field, p, q):
    """p(q(x)) by Horner in q."""
    acc = ()
    for c in reversed(p):
        acc = poly_add(poly_mul(field, acc, q), (c,))
    return acc


def _interpolate(field, points, values):
    """Unique polynomial of degree < len(points) through the given values.

    Newton's scheme with divided differences; exact over the field.
    """
    coeffs = []
    for i, (p_i, v_i) in enumerate(zip(points, values)):
        acc = 0
        prod = 1
        for k in range(i):
            acc ^= field.mul(coeffs[k], prod)
            prod = field.mul(prod, p_i ^ points[k])
        coeffs.append(field.mul(v_i ^ acc, field.inv(prod)))
    poly = ()
    for i in range(len(points) - 1, -1, -1):
        poly = poly_add(poly_mul(field, poly, (points[i], 1)), (coeffs[i],))
    return poly


class BasisOracle:
    """Cached dense basis polynomials for one (field, basis) pair.

    Supports conversion of length-ell coefficient vectors between the
    monomial basis, the shifted interpolation bases, and the degree-graded
    product basis (plain or twisted by the head basis entry).
    """

    GRADED = ("newton", "lch", "lch_twisted")
    KINDS = ("monomial", "newton", "lagrange", "lch", "lch_twisted")

    def __init__(self, field, beta):
        self.field = field
        self.beta = tuple(beta)
        n = len(beta)
        size = 1 << n
        self.size = size
        self.omega = [enumerate_point(beta, i) for i in range(size)]

        # Newton polynomials: numerator prod_{j<i}(x + w_j), normalized to
        # take value 1 at w_i.
        newton = []
        num = (1,)
        for i in range(size):
            den = poly_eval(field, num, self.omega[i])
            inv = field.inv(den)
            newton.append(tuple(field.mul(inv, c) for c in num))
            if i + 1 < size:
                num = poly_mul(field, num, (self.omega[i], 1))
        self.newton = newton

        # Degree-graded products of the power-of-two-index Newton
        # polynomials: index i multiplies one factor per set bit of i.
        lch = [(1,)]
        for i in range(1, size):
            low = i & -i
            lch.append(poly_mul(field, lch[i & (i - 1)], newton[low]))
        self.lch = lch

        head = beta[0]
        self.head_powers = [1]
        for _ in range(size - 1):
            self.head_powers.append(field.mul(self.head_powers[-1], head))

        self._tables = {
            "newton": newton,
            "lch": lch,
            "lch_twisted": [self._twist(p) for p in lch],
        }
        self._lagrange = None

    def _twist(self, p):
        return tuple(self.field.mul(c, self.head_powers[j]) for j, c in enumerate(p))

    @property
    def lagrange(self):
        """Dense interpolation basis; built on first use only."""
        if self._lagrange is None:
            field = self.field
            full = (1,)
            for w in self.omega:
                full = poly_mul(field, full, (w, 1))
            polys = []
            for w in self.omega:
                quotient = self._divide_linear(full, w)
                scale = field.inv(poly_eval(field, quotient, w))
                polys.append(tuple(field.mul(scale, c) for c in quotient))
            self._lagrange = polys
        return self._lagrange

    def _divide_linear(self, p, root):
        """p / (x + root), exact when root is a zero of p."""
        field = self.field
        out = [0] * (len(p) - 1)
        carry = p[-1]
        for i in range(len(p) - 2, -1, -1):
            out[i] = carry
            carry = p[i] ^ field.mul(root, carry)
        if carry:
            raise ValueError("not a root")
        return poly_trim(out)

    def points(self, lam):
        return [lam ^ w for w in self.omega]

    def combine(self, kind, coeffs):
        """Dense polynomial sum coeffs[i] * basis_poly(kind, i)."""
        table = self._tables[kind]
        out = [0] * max((len(table[i]) for i, c in enumerate(coeffs) if c), default=0)
        field = self.field
        for i, c in enumerate(coeffs):
            if not c:
                continue
            for j, bc in enumerate(table[i]):
                if bc:
                    out[j] ^= field.mul(c, bc)
        return poly_trim(out)

    def graded_solve(self, kind, ell, poly):
        """Coefficients on the first ell degree-graded basis polynomials."""
        if len(poly) > ell:
            raise ValueError("polynomial degree too high for the truncation")
        field = self.field
        table = self._tables[kind]
        rest = list(poly) + [0] * (ell - len(poly))
        out = [0] * ell
        for i in range(ell - 1, -1, -1):
            basis_i = table[i]
            lead = basis_i[-1] if len(basis_i) == i + 1 else 0
            c = field.mul(rest[i], field.inv(lead))
            out[i] = c
            if c:
                for j, bc in enumerate(basis_i):
                    if bc:
                        rest[j] ^= field.mul(c, bc)
        return out

    def to_monomial(self, kind, lam, ell, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != ell:
            raise ValueError(f"expected {ell} coefficients")
        if kind == "monomial":
            return poly_trim(coeffs)
        if kind in self.GRADED:
            poly = self.combine(kind, coeffs)
            if kind == "newton" and lam:
                poly = poly_shift(self.field, poly, lam)
            return poly
        if kind == "lagrange":
            points = self.points(lam)[:ell]
            return _interpolate(self.field, points, coeffs)
        raise ValueError(f"unknown basis kind {kind!r}")

    def from_monomial(self, kind, lam, ell, poly):
        if kind == "monomial":
            if len(poly) > ell:
                raise ValueError("polynomial degree too high for the truncation")
            return list(poly) + [0] * (ell - len(poly))
        if kind in self.GRADED:
            if kind == "newton" and lam:
                poly = poly_shift(self.field, poly, lam)
            return self.graded_solve(kind, ell, poly)
        if kind == "lagrange":
            return [poly_eval(self.field, poly, p) for p in self.points(lam)[:ell]]
        raise ValueError(f"unknown basis kind {kind!r}")


@lru_cache(maxsize=None)
def get_oracle(field, beta):
    return BasisOracle(field, beta)


def basis_poly(field, kind, beta, i):
    """Dense basis polynomial: interpolation (lagrange), graded product
    family (lch/lch_twisted), or normalized falling products (newton)."""
    beta = tuple(beta)
    if len(beta) > 8:
        raise ValueError("dense basis polynomials are capped at 8 dimensions")
    if not 0 <= i < (1 << len(beta)):
        raise ValueError(f"basis index {i} out of range")
    ora = get_oracle(field, beta)
    if kind == "lagrange":
        return ora.lagrange[i]
    if kind in BasisOracle.GRADED:
        return ora._tables[kind][i]
    raise ValueError(f"unknown basis kind {kind!r}")


def solve(field, mat, rhs):
    """Exact Gaussian elimination; raises on singular systems."""
    size = len(mat)
    aug = [list(row) + [val] for row, val in zip(mat, rhs)]
    if any(len(row) != size + 1 for row in aug):
        raise ValueError("matrix must be square and match the right-hand side")
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(inv, x) for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a ^ field.mul(factor, b) for a, b in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def oracle_convert(field, kind_from, kind_to, beta, lam, ell, coeffs):
    """Dense change of basis; all kinds describe the same polynomial.

    newton and lagrange coefficients refer to the lam-shifted families; the
    graded kinds ignore lam.  lch_twisted composes the graded family with
    multiplication of the variable by the head basis entry.
    """
    if kind_from not in BasisOracle.KINDS or kind_to not in BasisOracle.KINDS:
        raise ValueError(f"unknown conversion {kind_from!r} -> {kind_to!r}")
    if kind_from == kind_to:
        return list(coeffs)
    ora = get_oracle(field, tuple(beta))
    poly = ora.to_monomial(kind_from, lam, ell, coeffs)
    return ora.from_monomial(kind_to, lam, ell, poly)


def oracle_l2x_mixed(field, beta, lam, c, ell, b, inputs):
    """Solve the mixed interpolation system of the truncated transform.

    inputs holds f_0..f_{c-1} (values at the first c shifted points) followed
    by h_c..h_{ell-1} (graded coefficients).  Returns h_0..h_{c-1}, followed
    by the value f_c when b = 1.
    """
    beta = tuple(beta)
    size = 1 << len(beta)
    if not (0 <= c <= ell <= size and b in (0, 1) and 1 <= b + c <= size):
        raise ValueError("parameter ranges violated")
    if len(inputs) != ell:
        raise ValueError(f"expected {ell} inputs")
    ora = get_oracle(field, beta)
    known = [0] * c + list(inputs[c:ell])
    known_poly = ora.combine("lch", known)
    points = ora.points(lam)
    targets = [inputs[j] ^ poly_eval(field, known_poly, points[j]) for j in range(c)]
    head_poly = _interpolate(field, points[:c], targets)
    out = ora.graded_solve("lch", c, head_poly)
    if b:
        full = poly_add(known_poly, head_poly)
        out.append(poly_eval(field, full, points[c]))
    return out


def _clog2(x):
    """Ceiling of log2 for positive integers."""
    if x < 1:
        raise ValueError("log of a nonpositive value")
    return (x - 1).bit_length()


def _require(params, *names):
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"missing bound parameters: {', '.join(missing)}")
    return [params[name] for name in names]


def bound(formula_id, **params):
    """Exact integer value of a closed-form operation-count bound.

    Fractional closed forms are floored, which is safe for comparing
    integer-valued counters against a real-valued upper bound.
    """
    if formula_id in ("newton_add", "newton_mul", "lagrange_add", "lagrange_mul",
                      "monomial_add", "monomial_mul", "cantor_newton_add",
                      "cantor_monomial_add"):
        (ell,) = _require(params, "ell")
        k = _clog2(ell)
        half = ell // 2
        if formula_id == "newton_add":
            return ell * (k - 1) + 1
        if formula_id == "newton_mul":
            return half * k
        if formula_id == "lagrange_add":
            return half * (3 * k + 1)
        if formula_id == "lagrange_mul":
            return half * (k + 1)
        if formula_id == "monomial_add":
            return half * comb(k, 2)
        if formula_id == "monomial_mul":
            return half * (3 * k - 4) + 1
        if formula_id == "cantor_newton_add":
            return (3 * ell - 2) * k // 4
        return half * k * _clog2(max(k, 1))
    if formula_id == "taylor_add":
        ell, t = _require(params, "ell", "t")
        return (ell // 2) * _clog2(-(-ell // t))
    if formula_id in ("l2x_add", "l2x_mul"):
        c, b, ell, n = _require(params, "c", "b", "ell", "n")
        k = _clog2(max(c + b, 1))
        if formula_id == "l2x_add":
            return min((c + b - 1) * (3 * k - 1) // 2 + ell - 1,
                       (1 << (n - 1)) * (3 * n - 2) + 1)
        return min((c + b - 1) * (k - 1) // 2 + ell - 1, (1 << (n - 1)) * n)
    if formula_id in ("x2l_add", "x2l_mul"):
        c, ell, n = _require(params, "c", "ell", "n")
        k = _clog2(c)
        if formula_id == "x2l_add":
            return min((c - 1) * (3 * k - 1) // 2 + ell - 1,
                       (1 << (n - 1)) * (3 * n - 2) + 1)
        return min((c - 1) * (k - 1) // 2 + ell - 1, (1 << (n - 1)) * n)
    raise ValueError(f"unknown bound id {formula_id!r}")
