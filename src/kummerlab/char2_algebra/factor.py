"""Univariate factorization over a finite field object.

Squarefree decomposition (with the char-p perfect-power descent), then
distinct-degree splitting, then equal-degree splitting: trace-based for
characteristic 2, exponent-based Cantor-Zassenhaus for odd p.  The random
generator is supplied by the caller so runs are reproducible.  A linear
polynomial is returned as it stands, and a polynomial coprime to its
derivative is its own squarefree part; neither shortcut draws from the
generator.

Each step is written once over the field's univariate ring `field.ring`.
On a byte-table field (characteristic 2, q <= 256) a polynomial stays one
packed int from entry to exit: the derivative is a byte mask, the square
root one `translate`, each modulus is packed into its row once.  Other
fields (odd p, q > 256, towers) use coefficient lists.
"""

import random

from .poly import FqPoly, PolyError, power


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
            recurse(ring.proot(poly), mult * ring.field.char)
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
            recurse(ring.proot(c), mult * ring.field.char)

    recurse(a, 1)
    return [tuple(gm) for _key, gm in sorted(out.items())]


def _pow_mod(base, n, mod, ring):
    """base^n modulo the monic `mod`."""
    row = ring.modrow(mod)
    return power(ring.rem(base, mod), n,
                 lambda a, b: ring.mulmod(a, b, row), ring.one)


def distinct_degree(a, ring):
    """[(product of irreducible factors of degree d, d)] for squarefree monic a."""
    f = ring.field
    out = []
    x = ring.pack([f.zero, f.one])
    h = x
    rest = a
    d = 0
    while ring.deg(rest) >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, f.order, rest, ring)
        g = ring.gcd(rest, ring.sub(h, x))
        if ring.deg(g) > 0:
            out.append((g, d))
            rest, _ = ring.divmod(rest, g)
            h = ring.rem(h, rest)
    if ring.deg(rest) > 0:
        out.append((rest, ring.deg(rest)))
    return out


def equal_degree_split(a, d, ring, rng):
    """All monic irreducible factors of a (product of degree-d irreducibles)."""
    f = ring.field
    if ring.deg(a) == d:
        return [ring.monic(a)]
    out = []
    stack = [ring.monic(a)]
    while stack:
        poly = stack.pop()
        n = ring.deg(poly)
        if n == d:
            out.append(poly)
            continue
        row = ring.modrow(poly)
        while True:
            r = ring.pack([f.rand(rng) for _ in range(n)])
            if ring.deg(r) < 0:
                continue
            if f.char == 2:
                # t = r + r^2 + r^4 + ... (+ is - in characteristic 2)
                t = acc = r
                for _ in range(f.degree * d - 1):
                    acc = ring.mulmod(acc, acc, row)
                    t = ring.sub(t, acc)
            else:
                t = _pow_mod(r, (f.order ** d - 1) // 2, poly, ring)
                t = ring.sub(t, ring.one)
            g = ring.gcd(poly, t)
            if 0 < ring.deg(g) < n:
                rest, _ = ring.divmod(poly, g)
                stack.append(g)
                stack.append(rest)
                break
    return out


def factor_univariate(poly, seed=0):
    """Complete factorization into monic irreducibles with multiplicities.

    Accepts a univariate FqPoly; returns (unit, [(FqPoly factor, mult)]),
    factors sorted deterministically.
    """
    f = poly.field
    var = poly.vars[0]
    dense = poly.dense_univariate()
    if not dense:
        raise PolyError("cannot factor the zero polynomial")
    unit = dense[-1]
    ring = f.ring
    a = ring.pack(dense)
    if len(dense) == 2:                    # linear: irreducible as it stands
        return unit, [(FqPoly.from_dense(f, var, ring.key(ring.monic(a))), 1)]
    rng, result = None, []
    for sqf, mult in _squarefree(a, ring):
        for prod, d in distinct_degree(sqf, ring):
            if rng is None and ring.deg(prod) > d:     # seeded at its first use
                rng = random.Random(f"kummerlab.factor.{seed}")
            for irr in equal_degree_split(prod, d, ring, rng):
                result.append((ring.key(irr), mult))
    result.sort(key=lambda t: (len(t[0]), t[1], [str(c) for c in t[0]]))
    return unit, [(FqPoly.from_dense(f, var, irr), m) for irr, m in result]


def poly_roots(poly, seed=0):
    """Roots in the coefficient field with multiplicities."""
    unit, factors = factor_univariate(poly, seed)
    del unit
    out = []
    f = poly.field
    for fac, mult in factors:
        dense = fac.dense_univariate()
        if len(dense) == 2:
            root = f.neg(f.mul(dense[0], f.inv(dense[1])))
            out.append((root, mult))
    return out
