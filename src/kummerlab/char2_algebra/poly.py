"""Sparse multivariate polynomials over a finite field object.

Terms are a dict from exponent tuples to nonzero field elements.  The
variable list is fixed per polynomial; binary operations require equal
variable tuples.  Printing and hashing use graded lexicographic term
order.  `shift` translates variables by a dense Taylor shift per
variable.  The dense univariate helpers live here too: division, gcd,
the product modulo a monic polynomial that every quotient ring
F_p[x]/(m) and tower K[u]/(h) multiplies with, and `power`, the
package's one square-and-multiply.  `dense_mul`, `dense_mulmod` and
`dense_divmod` have two inner loops, picked by the field: on a field
with byte tables (characteristic 2, q <= 256; see field.py) a packed
polynomial takes one `bytes.translate` row per step, and on every other
field the row hook `addmul_row(dst, off, c, src)` (dst[off + j] +=
c * src[j]) runs once per row.  So do the multivariate gcd and the
resultant with respect to one variable: both come from one subresultant
pseudo-remainder sequence over the other variables.
"""


class PolyError(ValueError):
    pass


class FqPoly:
    __slots__ = ("field", "vars", "terms")

    def __init__(self, field, variables, terms=None):
        self.field = field
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for expo, coef in terms.items():
                if len(expo) != len(self.vars):
                    raise PolyError("exponent arity mismatch")
                if coef != field.zero:
                    clean[tuple(int(x) for x in expo)] = coef
        self.terms = clean

    @classmethod
    def _clean(cls, field, variables, terms):
        """A polynomial on clean terms: int-tuple exponents of the arity of
        the variable tuple and nonzero coefficients, taken as they are."""
        poly = object.__new__(cls)
        poly.field = field
        poly.vars = variables
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field, variables):
        return cls(field, variables, {})

    @classmethod
    def const(cls, field, variables, c):
        return cls(field, variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, field, variables, name):
        i = tuple(variables).index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(field, variables, {tuple(e): field.one})

    # -- basics --------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self.field == other.field
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def _check(self, other):
        if not isinstance(other, FqPoly) or other.vars != self.vars \
                or other.field != self.field:
            raise PolyError("operands live in different polynomial rings")

    def __add__(self, other):
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(terms.get(e, f.zero), c)
            if s == f.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return FqPoly._clean(f, self.vars, terms)

    def __neg__(self):
        f = self.field
        return FqPoly._clean(f, self.vars,
                             {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = f.mul(c1, c2)
                s = f.add(out.get(e, f.zero), prod)
                if s == f.zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return FqPoly._clean(f, self.vars, out)

    def scale(self, c):
        f = self.field
        if c == f.zero:
            return FqPoly.zero(f, self.vars)
        return FqPoly._clean(f, self.vars,
                             {e: f.mul(c, v) for e, v in self.terms.items()})

    def pow_int(self, n):
        return power(self, n, FqPoly.__mul__,
                     FqPoly.const(self.field, self.vars, self.field.one))

    def degree(self, var=None):
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), self.field.zero)

    def partial(self, var):
        f = self.field
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            coef = f.mul(c, f.scalar(e[i]))
            if coef == f.zero:
                continue
            # e -> e - unit_i is injective, so no two terms meet
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = coef
        return FqPoly._clean(f, self.vars, out)

    def evaluate(self, assignment):
        """Evaluate at a full point {varname: field element}."""
        f = self.field
        total = f.zero
        for e, c in self.terms.items():
            val = c
            for name, exp in zip(self.vars, e):
                if exp:
                    val = f.mul(val, f.pow_elem(assignment[name], exp))
            total = f.add(total, val)
        return total

    def substitute(self, name, repl):
        """Substitute a polynomial for one variable (same ring)."""
        self._check(repl)
        f = self.field
        i = self.vars.index(name)
        out = FqPoly.zero(f, self.vars)
        powers = {0: FqPoly.const(f, self.vars, f.one)}
        maxe = max((e[i] for e in self.terms), default=0)
        for k in range(1, maxe + 1):
            powers[k] = powers[k - 1] * repl
        for e, c in self.terms.items():
            rest = list(e)
            rest[i] = 0
            mono = FqPoly(f, self.vars, {tuple(rest): c})
            out = out + mono * powers[e[i]]
        return out

    def shift(self, offsets):
        """Translate variables: x_i -> x_i + offsets[name] (field constants).

        One variable at a time, the terms are grouped by their other
        exponents and each group's dense coefficient list in x_i gets the
        Taylor shift by Horner's rule, a[k] += c * a[k + 1], O(d^2)."""
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        terms = self.terms
        for name, c in offsets.items():
            if c == zero:
                continue
            i = self.vars.index(name)
            groups = {}
            for e, v in terms.items():
                groups.setdefault(e[:i] + (0,) + e[i + 1:], {})[e[i]] = v
            terms = {}
            for rest, by_deg in groups.items():
                d = max(by_deg)
                a = [by_deg.get(k, zero) for k in range(d + 1)]
                for low in range(d):
                    for k in range(d - 1, low - 1, -1):
                        a[k] = add(a[k], mul(c, a[k + 1]))
                for k, v in enumerate(a):
                    if v != zero:
                        terms[rest[:i] + (k,) + rest[i + 1:]] = v
        return FqPoly._clean(f, self.vars, terms)

    def map_field(self, new_field, conv):
        """The image under a field embedding `conv`, which keeps every
        coefficient nonzero."""
        return FqPoly._clean(new_field, self.vars,
                             {e: conv(c) for e, c in self.terms.items()})

    def restrict_vars(self, variables):
        """Reinterpret over a sub/super tuple of variables."""
        old_index = {v: i for i, v in enumerate(self.vars)}
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(variables)
            for v, i in old_index.items():
                if e[i]:
                    if v not in variables:
                        raise PolyError(f"variable {v} has positive degree")
                    ne[list(variables).index(v)] = e[i]
            out[tuple(ne)] = c
        return FqPoly(self.field, tuple(variables), out)

    # -- univariate views ----------------------------------------------------
    def dense_univariate(self):
        if len(self.vars) != 1:
            raise PolyError("polynomial is not univariate")
        d = self.degree()
        f = self.field
        out = [f.zero] * (d + 1) if d >= 0 else []
        for (e,), c in self.terms.items():
            out[e] = c
        return out

    @classmethod
    def from_dense(cls, field, var, coeffs):
        return cls._clean(field, (var,), {(i,): c for i, c in enumerate(coeffs)
                                          if c != field.zero})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def leading(self):
        if not self.terms:
            raise PolyError("zero polynomial has no leading term")
        return max(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def monic(self):
        if self.is_zero():
            return self
        _, c = self.leading()
        return self.scale(self.field.inv(c))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars, e) if k)
            cs = _coef_str(self.field, c)
            if mono and c == self.field.one:
                bits.append(mono)
            elif mono:
                bits.append(f"{cs}*{mono}")
            else:
                bits.append(cs)
        return " + ".join(bits)

    def to_json(self):
        enc = getattr(self.field, "encode", None)
        return [[list(e), enc(c) if enc else str(c)] for e, c in
                sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))]


def _coef_str(field, c):
    enc = getattr(field, "encode", None)
    return enc(c) if enc else str(c)


# ---------------------------------------------------------------------------
# dense univariate helpers over a field object: the package's only copy of
# coefficient-list arithmetic, used by the factorization and by ExtField
# (products through dense_mulmod, inverses through dense_divmod).  On a
# field with byte tables (characteristic 2, q <= 256) the running
# polynomial is one Python int with a coefficient per byte: a row
# c * b[j] is one `bytes.translate` XORed in at a byte offset, a leading
# coefficient is the top byte, and a square spreads the squared
# coefficients onto the even bytes.  Every other field runs its row
# operation f.addmul_row(dst, off, c, src), dst[off + j] += c * src[j],
# once per row.


def power(a, n, mul, one):
    """a^n for an integer n >= 0 by square-and-multiply over `mul`.

    Squares are mul(a, a) on one object, which dense_mulmod (and so
    ExtField.mul) turns into a Frobenius square on byte-table fields."""
    r = one
    while n:
        if n & 1:
            r = mul(r, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return r


def dense_trim(a, f):
    while a and a[-1] == f.zero:
        a.pop()
    return a


def _packed_mul(a, b, mul):
    """a * b as a packed int, one translated row of the longer factor per
    nonzero coefficient of the shorter."""
    if len(a) > len(b):
        a, b = b, a
    row = bytes(b)
    acc = 0
    for i, c in enumerate(a):
        if c:
            acc ^= int.from_bytes(row.translate(mul[c]), "little") << (i << 3)
    return acc


def _packed_reduce(acc, b, mul, scale, quot=None):
    """acc modulo the trimmed b, packed: each step cancels the top byte of
    acc with (top * scale) * b, where scale = 1 / lc(b); the multipliers go
    to quot[shift] when a quotient list is given."""
    nb = len(b)
    row = bytes(b)
    n = (acc.bit_length() + 7) >> 3
    while n >= nb:
        shift = n - nb
        c = mul[acc >> ((n - 1) << 3)][scale]
        if quot is not None:
            quot[shift] = c
        acc ^= int.from_bytes(row.translate(mul[c]), "little") << (shift << 3)
        n = (acc.bit_length() + 7) >> 3
    return acc


def _unpacked(acc):
    """The trimmed coefficient list of a packed polynomial."""
    return list(acc.to_bytes((acc.bit_length() + 7) >> 3, "little"))


def dense_divmod(a, b, f):
    b = dense_trim(list(b), f)
    if not b:
        raise PolyError("polynomial division by zero")
    inv = f.inv(b[-1])
    q = [f.zero] * max(len(a) - len(b) + 1, 0)
    if f.byte_tables is not None:
        acc = int.from_bytes(bytes(a), "little")
        return q, _unpacked(_packed_reduce(acc, b, f.byte_tables[0], inv, q))
    a = dense_trim(list(a), f)
    while len(a) >= len(b):
        c = f.mul(a[-1], inv)
        shift = len(a) - len(b)
        q[shift] = c
        f.addmul_row(a, shift, f.neg(c), b)
        dense_trim(a, f)
    return q, a


def dense_sub(a, b, f):
    n = max(len(a), len(b))
    a = list(a) + [f.zero] * (n - len(a))
    b = list(b) + [f.zero] * (n - len(b))
    return dense_trim([f.sub(x, y) for x, y in zip(a, b)], f)


def dense_mul(a, b, f):
    if not a or not b:
        return []
    if f.byte_tables is not None:
        return list(_packed_mul(a, b, f.byte_tables[0])
                    .to_bytes(len(a) + len(b) - 1, "little"))
    out = [f.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        f.addmul_row(out, i, ai, b)
    return out


def dense_mulmod(a, b, mod, f):
    """a * b reduced modulo the monic `mod`, trimmed.

    Monic means no field inverse is needed, so a tower over a tower never
    inverts in its base.  With a and b one object on a byte-table field the
    product is a Frobenius square: (sum a_i x^i)^2 = sum a_i^2 x^(2i).
    """
    if not a or not b:
        return []
    if f.byte_tables is not None:
        mul, square = f.byte_tables
        if a is b:
            spread = bytearray(2 * len(a) - 1)
            spread[::2] = bytes(a).translate(square)
            acc = int.from_bytes(spread, "little")
        else:
            acc = _packed_mul(a, b, mul)
        return _unpacked(_packed_reduce(acc, mod, mul, 1))
    res = dense_mul(a, b, f)
    d = len(mod) - 1
    low = mod[:d]
    for i in range(len(res) - 1, d - 1, -1):
        f.addmul_row(res, i - d, f.neg(res[i]), low)
    return dense_trim(res[:d], f)


def dense_gcd(a, b, f):
    a, b = dense_trim(list(a), f), dense_trim(list(b), f)
    while b:
        _, r = dense_divmod(a, b, f)
        a, b = b, dense_trim(r, f)
    if a:
        inv = f.inv(a[-1])
        a = [f.mul(inv, x) for x in a]
    return a


# ---------------------------------------------------------------------------
# exact division; multivariate gcd and resultant from one subresultant PRS


def poly_divexact(f_poly, g_poly):
    """Exact division of multivariate polynomials; raises if not divisible."""
    f = f_poly.field
    if g_poly.is_zero():
        raise PolyError("division by zero polynomial")
    ge, gc = g_poly.leading()
    ginv = f.inv(gc)
    if len(g_poly.terms) == 1 and not any(ge):  # a constant divisor
        return f_poly.scale(ginv)
    rem = f_poly
    out = {}
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 10000:
            raise PolyError("exact division does not terminate")
        re, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            raise PolyError("not divisible")
        qc = f.mul(rc, ginv)
        out[qe] = qc
        rem = rem - FqPoly(f, f_poly.vars, {qe: qc}) * g_poly
    return FqPoly(f, f_poly.vars, out)


def _coeffs_in_var(poly, var):
    """Map degree -> coefficient polynomial (with `var` degree zero)."""
    i = poly.vars.index(var)
    out = {}
    for e, c in poly.terms.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return {k: FqPoly._clean(poly.field, poly.vars, terms) for k, terms in out.items()}


def poly_gcd_multivariate(a, b):
    """Monic-normalized gcd of multivariate polynomials (same ring)."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    a._check(b)
    nvars = len(a.vars)
    if nvars == 1:
        f = a.field
        g = dense_gcd(a.dense_univariate(), b.dense_univariate(), f)
        return FqPoly.from_dense(f, a.vars[0], g)
    # effective variables
    used = [i for i in range(nvars)
            if any(e[i] for e in a.terms) or any(e[i] for e in b.terms)]
    if not used:
        return FqPoly.const(a.field, a.vars, a.field.one)
    var = a.vars[used[-1]]
    if a.degree(var) == 0 and b.degree(var) == 0:
        # recurse in the remaining variables by restriction
        rest = tuple(v for v in a.vars if v != var)
        g = poly_gcd_multivariate(a.restrict_vars(rest), b.restrict_vars(rest))
        return g.restrict_vars(a.vars)
    ca = _content_wrt(a, var)
    cb = _content_wrt(b, var)
    cg = poly_gcd_multivariate(ca, cb)
    last, _res = _subresultant_prs(poly_divexact(a, ca), poly_divexact(b, cb), var)
    prim = poly_divexact(last, _content_wrt(last, var))
    return (cg * prim).monic()


def _content_wrt(poly, var):
    coeffs = list(_coeffs_in_var(poly, var).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd_multivariate(g, c)
    return g


def _prem(a, b, var):
    """lc(b)^(da-db+1) * a mod b with respect to var, for da >= db >= 0."""
    f = a.field
    db = b.degree(var)
    lcb = _coeffs_in_var(b, var)[db]
    i = a.vars.index(var)
    rem, steps = a, a.degree(var) - db + 1
    while rem.degree(var) >= db:
        dr = rem.degree(var)
        shift = [0] * len(a.vars)
        shift[i] = dr - db
        mono = FqPoly(f, a.vars, {tuple(shift): f.one})
        rem = rem * lcb - b * mono * _coeffs_in_var(rem, var)[dr]
        steps -= 1
    return rem * lcb.pow_int(steps)


def _subresultant_prs(a, b, var):
    """(last nonzero remainder, Res_var(a, b)) for nonzero a, b in k[others][var].

    The subresultant PRS (Brown-Traub, J. ACM 18, 1971; Cohen, GTM 138,
    Alg. 3.3.7): every division below is exact, and the last nonzero
    remainder is an associate of gcd(a, b) over k(others)[var].  The
    resultant follows the Sylvester-matrix sign convention.
    """
    sign = 1
    if a.degree(var) < b.degree(var):
        a, b = b, a
        if a.degree(var) % 2 and b.degree(var) % 2:
            sign = -1
    g = h = FqPoly.const(a.field, a.vars, a.field.one)
    while b.degree(var) > 0:
        da, db = a.degree(var), b.degree(var)
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _prem(a, b, var)
        a, b = b, poly_divexact(r, g * h.pow_int(delta))
        g = _coeffs_in_var(a, var)[db]
        if delta:
            h = poly_divexact(g.pow_int(delta), h.pow_int(delta - 1))
    if b.is_zero():
        return a, b
    da = a.degree(var)
    res = poly_divexact(b.pow_int(da), h.pow_int(da - 1))
    return b, (-res if sign < 0 else res)


def resultant(a, b, var):
    """Res_var(a, b) over the other variables; result has var-degree 0."""
    a._check(b)
    da, db = a.degree(var), b.degree(var)
    if da < 0 or db < 0:
        return FqPoly.zero(a.field, a.vars)
    if da == 0 and db == 0:
        raise PolyError("resultant needs positive degree in the variable")
    return _subresultant_prs(a, b, var)[1]
