"""Univariate factorization over a finite field object.

Squarefree decomposition (with the char-p perfect-power descent), then
distinct-degree splitting, then equal-degree splitting: trace-based for
characteristic 2, exponent-based Cantor-Zassenhaus for odd p.  The random
generator is supplied by the caller so runs are reproducible.  A linear
polynomial is returned as it stands, and a polynomial coprime to its
derivative is its own squarefree part; neither shortcut draws from the
generator.
"""

import random

from .poly import (FqPoly, PolyError, dense_divmod, dense_gcd, dense_mulmod,
                   dense_sub, dense_trim, power)


def _derivative(a, f):
    out = []
    for i in range(1, len(a)):
        c = a[i]
        k = i % f.char
        if k == 0 or c == f.zero:
            out.append(f.zero)
        else:
            s = f.scalar(k)
            out.append(f.mul(c, s))
    return dense_trim(out, f)


def _pth_root_dense(a, f):
    p = f.char
    out = []
    for i in range(0, len(a), p):
        out.append(f.proot(a[i]))
    for i, c in enumerate(a):
        if i % p and c != f.zero:
            raise PolyError("polynomial is not a p-th power")
    return dense_trim(out, f)


def _monic(a, f):
    a = dense_trim(list(a), f)
    if not a:
        return a
    inv = f.inv(a[-1])
    return [f.mul(inv, x) for x in a]


def squarefree_decomposition(a, f):
    """List of (monic squarefree factor, multiplicity), multiplicities distinct."""
    a = _monic(a, f)
    if len(a) <= 1:
        return []
    out = {}

    def add(g, m):
        g = tuple(_monic(g, f))
        if len(g) > 1:
            out[g] = out.get(g, 0) + m

    def recurse(poly, mult):
        poly = _monic(poly, f)
        d = _derivative(poly, f)
        if not d:
            recurse(_pth_root_dense(poly, f), mult * f.char)
            return
        c = dense_gcd(poly, d, f)
        if len(c) == 1:                    # poly is squarefree
            add(poly, mult)
            return
        w, _ = dense_divmod(poly, c, f)
        i = 1
        while len(w) > 1:
            y = dense_gcd(w, c, f)
            z, _ = dense_divmod(w, y, f)
            if len(z) > 1:
                add(z, i * mult)
            w = y
            c, _ = dense_divmod(c, y, f)
            i += 1
        if len(c) > 1:
            recurse(_pth_root_dense(c, f), mult * f.char)

    recurse(a, 1)
    return [(list(g), m) for g, m in sorted(out.items())]


def _pow_mod(base, n, mod, f):
    """base^n modulo the monic `mod`."""
    return power(dense_divmod(base, mod, f)[1], n,
                 lambda a, b: dense_mulmod(a, b, mod, f), [f.one])


def distinct_degree(a, f):
    """[(product of irreducible factors of degree d, d)] for squarefree monic a."""
    out = []
    x = [f.zero, f.one]
    h = x[:]
    rest = list(a)
    d = 0
    q = f.order
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, q, rest, f)
        diff = dense_sub(h, x, f)
        g = dense_gcd(rest, diff, f)
        if len(g) > 1:
            out.append((g, d))
            rest, _ = dense_divmod(rest, g, f)
            h = dense_divmod(h, rest, f)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def equal_degree_split(a, d, f, rng):
    """All monic irreducible factors of a (product of degree-d irreducibles)."""
    n = len(a) - 1
    if n == d:
        return [_monic(a, f)]
    out = []
    stack = [_monic(a, f)]
    q = f.order
    while stack:
        poly = stack.pop()
        if len(poly) - 1 == d:
            out.append(poly)
            continue
        while True:
            r = [f.rand(rng) for _ in range(len(poly) - 1)]
            r = dense_trim(r, f)
            if len(r) <= 0:
                continue
            if f.char == 2:
                e_total = f.degree * d
                # t = r + r^2 + r^4 + ..., padded to deg poly for the row hook
                t = r + [f.zero] * (len(poly) - 1 - len(r))
                acc = r[:]
                for _ in range(e_total - 1):
                    acc = dense_mulmod(acc, acc, poly, f)
                    f.addmul_row(t, 0, f.one, acc)
                g = dense_gcd(poly, t, f)
            else:
                e = (q ** d - 1) // 2
                t = _pow_mod(r, e, poly, f)
                t = dense_sub(t, [f.one], f)
                g = dense_gcd(poly, t, f)
            if 1 < len(g) < len(poly):
                rest, _ = dense_divmod(poly, g, f)
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
    dense = dense_trim(list(dense), f)
    if not dense:
        raise PolyError("cannot factor the zero polynomial")
    unit = dense[-1]
    if len(dense) == 2:                    # linear: irreducible as it stands
        return unit, [(FqPoly.from_dense(f, var, _monic(dense, f)), 1)]
    rng = random.Random(f"kummerlab.factor.{seed}")
    result = []
    for sqf, mult in squarefree_decomposition(dense, f):
        for prod, d in distinct_degree(sqf, f):
            for irr in equal_degree_split(prod, d, f, rng):
                result.append((irr, mult))
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
