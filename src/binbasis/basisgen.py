"""Ordered GF(2)-linear bases of binary-field subspaces.

A basis is an immutable tuple of nonzero field elements (b_0, ..., b_{n-1})
that are linearly independent over GF(2).  Point i of the spanned subspace is
the XOR of the entries selected by the bits of i.  Besides enumeration and
the prefix/image maps used by reduction trees, this module constructs the
special bases for which those trees become shallow: Cantor bases and their
generalization over a GF(2^t) coefficient field, product bases over subfield
towers, and trace-one quadratic pairs.
"""

from dataclasses import dataclass

from binbasis.field import _integers, element_from_hex


def enumerate_point(beta, i):
    """XOR of the basis entries selected by the bits of i."""
    if not 0 <= i < (1 << len(beta)):
        raise ValueError(f"point index {i} out of range for a {len(beta)}-dim basis")
    acc = 0
    for k, b in enumerate(beta):
        if (i >> k) & 1:
            acc ^= b
    return acc


def alpha_of(beta, d):
    """Prefix (b_0, ..., b_{d-1}) of the basis."""
    _check_split(len(beta), d)
    return tuple(beta[:d])


def delta_of(field, beta, d):
    """Image of the length-(n-d) suffix under q -> q^(2^d) - q with q = b_i/b_0.

    The entries are again independent provided b_i/b_0 lies in GF(2^d) for
    i < d, which is the caller's obligation (it is exactly the condition a
    reduction tree certifies).
    """
    _check_split(len(beta), d)
    inv0 = field.inv(beta[0])
    out = []
    for b in beta[d:]:
        q = field.mul(b, inv0)
        out.append(field.pow2k(q, d) ^ q)
    return tuple(out)


def _check_split(n, d):
    if not 1 <= d < n:
        raise ValueError(f"split degree {d} out of range for dimension {n}")


def gf2_rank(vectors):
    """Rank over GF(2) of integers viewed as bit vectors."""
    pivots = {}
    rank = 0
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                rank += 1
                break
            v ^= pivots[top]
    return rank


def is_independent(beta):
    """True iff the entries are linearly independent over GF(2)."""
    return gf2_rank(beta) == len(beta)


def construct_gen_cantor(field, m_levels, t, theta):
    """Extend a basis theta of GF(2^t)/GF(2) to one of GF(2^(2^m_levels * t)).

    The top block of t entries is chosen with prescribed traces down to
    GF(2^t) (entry i traces to theta[i]); every earlier entry is the image of
    the entry t positions later under b -> b^(2^t) - b.  The result satisfies
    b_i = theta[i] for i < t and b_0, ..., b_{2^k t - 1} in GF(2^(2^k t)).
    """
    (m_levels,) = _integers("doubling levels", m_levels)
    if m_levels < 1:
        raise ValueError("at least one doubling level is required")
    t = field.subfield_degree(t)
    if len(theta) != t:
        raise ValueError(f"expected {t} coefficient-field basis entries")
    size = (1 << m_levels) * t
    if field.degree % size:
        raise ValueError(
            f"construction needs GF(2^{size}) inside GF(2^{field.degree}): "
            f"{size} does not divide {field.degree}"
        )
    for th in theta:
        if not field.in_subfield(th, t):
            raise ValueError("coefficient-field basis entry outside GF(2^t)")
    if not is_independent(theta):
        raise ValueError("coefficient-field basis entries are dependent")

    # GF(2^t)-linearity of the trace prescribes the whole top block from one
    # element of trace 1.
    z = _trace_one(field, t, size)

    beta = [0] * size
    for i in range(t):
        beta[size - t + i] = field.mul(theta[i], z)
    for i in range(size - t - 1, -1, -1):
        b = beta[i + t]
        beta[i] = field.pow2k(b, t) ^ b
    return tuple(beta)


def construct_cantor(field, n):
    """First n entries of the classic chain b_0 = 1, b_i = b_{i+1}^2 - b_{i+1}."""
    (n,) = _integers("dimension", n)
    if n < 1:
        raise ValueError("dimension must be positive")
    if n == 1:
        return (1,)
    m_levels = (n - 1).bit_length()
    return construct_gen_cantor(field, m_levels, 1, (1,))[:n]


@dataclass(frozen=True)
class TowerSpec:
    """Subfield tower 1 = n_0 | n_1 | ... | n_m with one basis per level.

    level_bases[k] spans GF(2^degrees[k+1]) over GF(2^degrees[k]) and has
    degrees[k+1] // degrees[k] entries.
    """

    degrees: tuple
    level_bases: tuple

    @property
    def top_degree(self):
        return self.degrees[-1]


def make_tower(field, degrees, trace_one_levels=()):
    """Build a TowerSpec with power bases, or trace-one pairs where requested.

    trace_one_levels lists indices k such that the step degrees[k] ->
    degrees[k+1] should use the trace-one quadratic pair; that step must
    double the degree.
    """
    degrees = tuple(degrees)
    if not degrees or degrees[0] != 1:
        raise ValueError("tower must start at degree 1")
    for lo, hi in zip(degrees, degrees[1:]):
        if hi <= lo or hi % lo:
            raise ValueError(f"tower step {lo} -> {hi} is not a proper extension")
    if field.degree % degrees[-1]:
        raise ValueError(
            f"tower top degree {degrees[-1]} does not divide {field.degree}"
        )
    levels = []
    for k, (lo, hi) in enumerate(zip(degrees, degrees[1:])):
        if k in trace_one_levels:
            if hi != 2 * lo:
                raise ValueError(
                    f"trace-one pair requested for non-quadratic step {lo} -> {hi}"
                )
            levels.append(make_quadratic_trace_basis(field, lo))
        else:
            levels.append(subfield_basis_powers(field, lo, hi))
    return TowerSpec(degrees, tuple(levels))


def tower_from_string(field, text):
    """Parse a tower such as `1-2-4-12`; a `!` suffix on a degree requests the
    trace-one pair for the step leading up to it (the step must double)."""
    degrees = []
    trace_one = []
    for pos, token in enumerate(text.split("-")):
        token = token.strip()
        if token.endswith("!"):
            if pos == 0:
                raise ValueError("the base level has no incoming extension step")
            trace_one.append(pos - 1)
            token = token[:-1]
        if not token.isdigit():
            raise ValueError(f"bad tower degree {token!r}")
        degrees.append(int(token))
    return make_tower(field, degrees, trace_one)


def construct_tower_basis(field, tower, n):
    """Product basis: entry i multiplies one element per level, picked by the
    mixed-radix digits of i with place values the tower degrees."""
    if not 1 <= n <= tower.top_degree:
        raise ValueError(f"dimension {n} exceeds tower top degree {tower.top_degree}")
    out = []
    for i in range(n):
        prod = 1
        for k in range(len(tower.degrees) - 1):
            lo, hi = tower.degrees[k], tower.degrees[k + 1]
            digit = (i % hi) // lo
            prod = field.mul(prod, tower.level_bases[k][digit])
        out.append(prod)
    return tuple(out)


def make_quadratic_trace_basis(field, s):
    """Pair (1, theta) with theta in GF(2^2s) of relative trace 1 over GF(2^s).

    Trace 1 forces theta outside GF(2^s) (subfield elements trace to 0 under
    a quadratic extension), so the pair is a basis of GF(2^2s)/GF(2^s).
    """
    s = field.subfield_degree(s)
    e = field.subfield_degree(2 * s)
    return (1, _trace_one(field, s, e))


def _trace_one(field, sub, sup):
    """An element of GF(2^sup) whose trace down to GF(2^sub) is 1: the first
    power of the subfield generator with nonzero trace, divided by it."""
    xi = field.subfield_generator(sup)
    z = 1
    while True:
        tr = field.trace_rel(z, sub, sup)
        if tr:
            return field.mul(z, field.inv(tr))
        z = field.mul(z, xi)


def subfield_basis_powers(field, d_sub, d_sup):
    """Power basis (1, xi, ..., xi^(e/s - 1)) of GF(2^d_sup) over GF(2^d_sub).

    xi generates the multiplicative group of GF(2^d_sup), hence has degree
    exactly d_sup/d_sub over the smaller field.
    """
    d_sub, d_sup = field.subfield_degree(d_sub), field.subfield_degree(d_sup)
    if d_sup % d_sub:
        raise ValueError(f"{d_sub} does not divide {d_sup}")
    count = d_sup // d_sub
    xi = field.subfield_generator(d_sup)
    out = [1]
    for _ in range(count - 1):
        out.append(field.mul(out[-1], xi))
    return tuple(out)


def random_basis(field, n, rng):
    """Seeded rejection sampling: redraw the whole tuple until independent."""
    (n,) = _integers("dimension", n)
    if not 1 <= n <= field.degree:
        raise ValueError(f"dimension {n} out of range for GF(2^{field.degree})")
    while True:
        beta = tuple(rng.randrange(field.order) for _ in range(n))
        if is_independent(beta):
            return beta


def basis_from_string(text):
    return tuple(element_from_hex(token.strip()) for token in text.split(","))
