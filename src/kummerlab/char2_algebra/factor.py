"""Univariate factorization over a field object of characteristic 2.

Squarefree decomposition (with the descent through square roots), then
distinct-degree splitting, then trace-based equal-degree splitting.
`ring_factors` raises PolyError on a field of odd characteristic.  The
random generator is seeded with the fixed tag "kummerlab.factor.0" at its
first use, so runs are reproducible.  A linear polynomial is returned as
it stands, and a polynomial coprime to its derivative is its own
squarefree part; neither shortcut draws from the generator.

Distinct-degree splitting steps h = x^(q^d) mod a to h^q by one
`ring.combine` of h's coefficients with the Frobenius rows x^(q i) mod a,
i < deg a, as c^q = c on F_q (von zur Gathen and Shoup, Comput.
Complexity 2, 1992).  `frobenius_rows` builds them once per squarefree
part a, so h stays reduced mod a and the gcd with what is left of a
reduces it further.

The split of a product of irreducibles of degree d over F_q, q = 2^e,
reads the absolute trace of a random element of F_q[x]/(a), which lies
in F_2 in every factor, so its gcd with a splits a about half the time
(Berlekamp, Math. Comp. 24, 1970).  The trace reads the rows of
the squarefree part a, unreduced by every factor of a, since the gcd with
a part reduces the trial mod that part:

- d > 1: the Frobenius rows.  The trace r + r^q + ... + r^(q^(d-1)) down
  to F_q costs d - 1 combinations and the trace from F_q down to F_2
  e - 1 squarings, where a squaring per step would cost e d - 1
  squarings.
- d = 1: the square rows x^(2^j) mod a, j < e, the squaring chain that
  ends in x^q.  A trial is c x for a random c != 0, whose trace is one
  combination of the e rows with (c, c^2, ..., c^(2^(e-1))) and then one
  gcd.

Each step is written once over the field's univariate ring `field.ring`,
so a byte-table field and coefficient lists run the same steps on the
same draws.  On a byte-table field (q <= 256) a polynomial stays one
packed int from entry to exit: the derivative is a byte mask, the square
root one `translate`, each modulus and each row is packed once.  Other
fields (q > 256, towers) use coefficient lists.  `ring_factors` factors
a ring element and returns coefficient keys, for callers that stay in
the ring; `factor_univariate` is it on an FqPoly.
"""

import random

from .poly import FqPoly, PolyError


def _squarefree(a, ring):
    """[(monic squarefree factor, multiplicity)] of a in the ring, the
    multiplicities distinct."""
    a = ring.monic(a)
    if ring.deg(a) < 1:
        return []
    out = {}

    def add(g, m):
        g = ring.monic(g)
        if ring.deg(g) > 0:
            out.setdefault(ring.key(g), [g, 0])[1] += m

    def recurse(poly, mult):
        poly = ring.monic(poly)
        d = ring.deriv(poly)
        if not d:
            recurse(ring.proot(poly), mult * 2)
            return
        c = ring.gcd(poly, d)
        if ring.deg(c) == 0:               # poly is squarefree
            add(poly, mult)
            return
        w, _ = ring.divmod(poly, c)
        i = 1
        while ring.deg(w) > 0:
            y = ring.gcd(w, c)
            z, _ = ring.divmod(w, y)
            if ring.deg(z) > 0:
                add(z, i * mult)
            w = y
            c, _ = ring.divmod(c, y)
            i += 1
        if ring.deg(c) > 0:
            recurse(ring.proot(c), mult * 2)

    recurse(a, 1)
    return [tuple(gm) for _key, gm in sorted(out.items())]


def frobenius_rows(a, ring):
    """(square rows, Frobenius rows) of a monic a of degree >= 2, packed as
    `ring.modrow`.  The square rows are x^(2^j) mod a for j < e, q = 2^e,
    and their chain of squarings ends in x^q.  The Frobenius rows are
    x^(q i) mod a for i < deg a: r^q mod a is `ring.combine` of r's
    coefficients with them, as c^q = c in F_q.  Row 2i is the square of
    row i, row 2i + 1 that times x^q."""
    f = ring.field
    row = ring.modrow(a)
    xq = ring.pack([f.zero, f.one])
    squares = []
    for _ in range(f.degree):
        squares.append(xq)
        xq = ring.mulmod(xq, xq, row)
    rows = [ring.one, xq]
    for i in range(2, ring.deg(a)):
        half = rows[i >> 1]
        rows.append(ring.mulmod(half, half, row) if i % 2 == 0
                    else ring.mulmod(rows[i - 1], xq, row))
    return [ring.modrow(r) for r in squares], [ring.modrow(r) for r in rows]


def distinct_degree(a, frob, ring):
    """[(product of irreducible factors of degree d, d)] for squarefree monic
    a of degree >= 2, with `frob` its Frobenius rows."""
    f = ring.field
    out = []
    x = ring.pack([f.zero, f.one])
    h = x
    rest = a
    d = 0
    while ring.deg(rest) >= 2 * (d + 1):
        d += 1
        h = ring.combine(ring.key(h), frob)          # x^(q^d) mod a
        g = ring.gcd(rest, ring.sub(h, x))
        if ring.deg(g) > 0:
            out.append((g, d))
            rest, _ = ring.divmod(rest, g)
    if ring.deg(rest) > 0:
        out.append((rest, ring.deg(rest)))
    return out


def _trace_trial(poly, d, rows, ring, rng):
    """One splitting trial for a factor poly of the rows' modulus: a
    random element mapped to F_2 in every degree-d factor by the absolute
    trace.  For d = 1 it is the trace of c x, one combination of the square
    rows; otherwise the trace of a random r, down to F_q by d - 1
    combinations of the Frobenius rows and on to F_2 by e - 1 squarings
    mod poly.  The gcd with poly reduces what is left mod the modulus."""
    f = ring.field
    if d == 1:
        c = f.rand_nonzero(rng)
        coeffs = [c]
        for _ in range(f.degree - 1):
            coeffs.append(f.mul(coeffs[-1], coeffs[-1]))
        return ring.combine(coeffs, rows)
    t = acc = ring.pack([f.rand(rng) for _ in range(ring.deg(poly))])
    for _ in range(d - 1):
        acc = ring.combine(ring.key(acc), rows)
        t = ring.sub(t, acc)
    row = ring.modrow(poly)
    t = acc = ring.rem(t, poly)
    for _ in range(f.degree - 1):
        acc = ring.mulmod(acc, acc, row)
        t = ring.sub(t, acc)
    return t


def equal_degree_split(a, d, rows, ring, rng):
    """All monic irreducible factors of a (product of degree-d irreducibles).

    `rows` are the (square, Frobenius) rows of a multiple of a, the
    squarefree part a came from; the square rows for d = 1 and the
    Frobenius rows otherwise serve the trials of every part of a."""
    a = ring.monic(a)
    if ring.deg(a) == d:
        return [a]
    squares, frob = rows
    trial_rows = frob if d > 1 else squares
    out = []
    stack = [a]
    while stack:
        poly = stack.pop()
        n = ring.deg(poly)
        if n == d:
            out.append(poly)
            continue
        while True:
            g = ring.gcd(poly, _trace_trial(poly, d, trial_rows, ring, rng))
            if 0 < ring.deg(g) < n:
                break
        stack.append(g)
        stack.append(ring.divmod(poly, g)[0])
    return out


def ring_factors(a, ring):
    """The monic irreducible factors of a nonzero element a of `ring` (none
    for a constant), as coefficient keys with multiplicities, sorted by
    degree, multiplicity and the `str` forms of the coefficients.  The rows
    of each squarefree part of degree >= 2 are built once and serve its
    distinct-degree and equal-degree steps.  Raises PolyError outside
    characteristic 2."""
    if ring.field.char != 2:
        raise PolyError("factorization runs in characteristic 2 only")
    if ring.deg(a) == 1:                   # linear: irreducible as it stands
        return [(ring.key(ring.monic(a)), 1)]
    rng, result = None, []
    for sqf, mult in _squarefree(a, ring):
        if ring.deg(sqf) == 1:
            result.append((ring.key(sqf), mult))
            continue
        rows = frobenius_rows(sqf, ring)
        for prod, d in distinct_degree(sqf, rows[1], ring):
            if rng is None and ring.deg(prod) > d:     # seeded at its first use
                rng = random.Random("kummerlab.factor.0")
            for irr in equal_degree_split(prod, d, rows, ring, rng):
                result.append((ring.key(irr), mult))
    result.sort(key=lambda t: (len(t[0]), t[1], [str(c) for c in t[0]]))
    return result


def factor_univariate(poly):
    """Complete factorization into monic irreducibles with multiplicities.

    Accepts a univariate FqPoly; returns (unit, [(FqPoly factor, mult)]),
    factors sorted deterministically.
    """
    f = poly.field
    var = poly.vars[0]
    dense = poly.dense_univariate()
    if not dense:
        raise PolyError("cannot factor the zero polynomial")
    return dense[-1], [(FqPoly.from_dense(f, var, irr), m) for irr, m
                       in ring_factors(f.ring.pack(dense), f.ring)]


def poly_roots(poly):
    """Roots in the coefficient field with multiplicities."""
    unit, factors = factor_univariate(poly)
    del unit
    out = []
    f = poly.field
    for fac, mult in factors:
        dense = fac.dense_univariate()
        if len(dense) == 2:
            root = f.neg(f.mul(dense[0], f.inv(dense[1])))
            out.append((root, mult))
    return out
