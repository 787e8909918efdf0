"""Sparse multivariate polynomials over a finite field object, and the
dense univariate rings beneath them.

Terms are a dict from exponent tuples to nonzero field elements.  The
variable list is fixed per polynomial; binary operations require equal
variable tuples.  Printing and hashing use graded lexicographic term
order.  `shift` translates variables by a dense Taylor shift per
variable.  `power` is the package's one square-and-multiply.

Dense polynomials in one variable come in two rings with one interface,
and every field object builds its own once, as `field.ring`.  On a field
with byte tables (characteristic 2, q <= 256; see field.py) it is a
`PackedRing`, which holds a polynomial as an int with a coefficient per
byte and steps with `bytes.translate`.  Every other field gets a
`_ListRing` on coefficient lists, whose product, division and reduction
run the field's row hook `addmul_row(dst, off, c, src)` (dst[off + j] +=
c * src[j]) once per row.  Both rings have `combine(coeffs, rows)`, the
sum of c * row over rows packed by `modrow`, which factor.py reads the
q-th power and the trace through, `split`, a polynomial in two variables
as its dense list in one of ring elements in the other, `join`, its
inverse, and `constant`, the field element of a constant.  Their `deriv`
and `proot`, which only factorization reads, take the characteristic-2
form: the odd coefficients moved down, the square roots of the even ones.
The gcd and the resultant of two polynomials in two variables come from
one subresultant PRS with its coefficients in `field.ring`, and the gcd
takes its contents with that ring's gcd.
"""

import operator
from functools import reduce
from itertools import zip_longest

from .. import KummerlabError


class PolyError(KummerlabError):
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
        add, mul, zero = f.add, f.mul, f.zero
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                out[e] = add(get(e, zero), mul(c1, c2))
        return FqPoly._clean(f, self.vars,
                             {e: c for e, c in out.items() if c != zero})

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
            k = e[i] % f.char
            if not k:
                continue
            if k != 1:
                c = f.mul(c, f.scalar(k))
            # e -> e - unit_i is injective, so no two terms meet
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
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
# dense univariate rings.  Packed, a row c * b[j] is one `bytes.translate`
# XORed in at a byte offset, a leading coefficient is the top byte, and a
# square spreads the squared coefficients onto the even bytes.


def power(a, n, mul, one):
    """a^n for an integer n >= 0 by square-and-multiply over `mul`.

    Squares are mul(a, a) on one object, which `PackedRing.mul` and
    ExtField.mul over a byte-table field turn into a Frobenius square."""
    if n < 0:
        raise ValueError(f"power needs an exponent n >= 0, got {n}")
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
    """a * b as a packed int for byte sequences a, b (bytes, or ints below
    256): one translated row of the longer per nonzero byte of the shorter."""
    if len(a) > len(b):
        a, b = b, a
    row = bytes(b)
    acc = 0
    for i, c in enumerate(a):
        if c:
            acc ^= int.from_bytes(row.translate(mul[c]), "little") << (i << 3)
    return acc


def _packed_square(a, square):
    """a * a as a packed int: (sum a_i x^i)^2 = sum a_i^2 x^(2i)."""
    spread = bytearray(2 * len(a))
    spread[::2] = bytes(a).translate(square)
    return int.from_bytes(spread, "little")


def _packed_reduce(acc, row, mul, scale, quot=None):
    """acc modulo the divisor with trimmed coefficient bytes `row` and
    scale = 1 / lc: from the top down, byte shift + len(row) - 1 of acc is
    cancelled by (byte * scale) * row, the multiplier going to quot[shift]
    when a quotient buffer is given."""
    nb = len(row)
    for shift in range(((acc.bit_length() + 7) >> 3) - nb, -1, -1):
        c = acc >> ((shift + nb - 1) << 3)
        if c:
            c = mul[c][scale]
            if quot is not None:
                quot[shift] = c
            acc ^= int.from_bytes(row.translate(mul[c]), "little") << (shift << 3)
    return acc


class _Ring:
    """What the two univariate rings share: `rem` from divmod, and `join`,
    which takes the dense list of `split` back to an FqPoly."""

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def join(self, coeffs, variables, var):
        i, zero = variables.index(var), self.field.zero
        return FqPoly._clean(self.field, variables, {
            (k, j) if i == 0 else (j, k): b for k, c in enumerate(coeffs)
            for j, b in enumerate(self.key(c)) if b != zero})


class PackedRing(_Ring):
    """F_q[x] on packed ints, the `ring` of a byte-table field, with its
    translate, inverse and square-root tables.  `split` takes an
    FqPoly in k[u, v] to its dense list in v of packed polynomials in u."""

    zero, one = 0, 1
    sub = operator.xor                # characteristic 2
    # a constant is one coefficient byte, the field element itself
    constant = operator.pos

    def __init__(self, field):
        self.field = field
        self.mul_t, self.square_t = field.byte_tables
        self.inv_t = b"\0" + bytes(map(field.inv, range(1, field.order)))
        self.sqrt_t = bytes(field.proot_table).ljust(256, b"\0")

    @staticmethod
    def pack(coeffs):
        return int.from_bytes(bytes(coeffs), "little")

    @staticmethod
    def key(a):
        """The coefficient bytes, which sort as the coefficient tuples do."""
        return a.to_bytes((a.bit_length() + 7) >> 3, "little")

    @staticmethod
    def deg(a):
        """The degree, -1 for zero: a polynomial has one byte per coefficient."""
        return ((a.bit_length() + 7) >> 3) - 1

    def monic(self, a):
        c = self.inv_t[a >> (self.deg(a) << 3)] if a else 1
        return a if c == 1 else self.pack(self.key(a).translate(self.mul_t[c]))

    def mul(self, a, b):
        """a * b, a Frobenius square when a is b."""
        if a is b:
            return _packed_square(self.key(a), self.square_t)
        return _packed_mul(self.key(a), self.key(b), self.mul_t)

    def divmod(self, a, b):
        if not b:
            raise PolyError("polynomial division by zero")
        row = self.key(b)
        quot = bytearray(max(self.deg(a) + 2 - len(row), 0))
        rem = _packed_reduce(a, row, self.mul_t, self.inv_t[row[-1]], quot)
        return self.pack(quot), rem

    def rem(self, a, b):
        if not b:
            raise PolyError("polynomial division by zero")
        row = self.key(b)
        return _packed_reduce(a, row, self.mul_t, self.inv_t[row[-1]])

    def gcd(self, a, b):
        """The monic gcd; gcd(a, 0) is a made monic.  An inverse is one
        table read here, so a divisor is not made monic first, as
        `_ListRing.gcd` does."""
        while b:
            if self.deg(b) == 0:           # a nonzero constant: coprime
                return self.one
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def divexact(self, a, b):
        if b == 1:
            return a
        q, r = self.divmod(a, b)
        if r:
            raise PolyError("not divisible")
        return q

    # a monic modulus reduces through its coefficient bytes, packed once
    modrow = key

    def mulmod(self, a, b, row):
        return _packed_reduce(self.mul(a, b), row, self.mul_t, 1)

    def combine(self, coeffs, rows):
        """sum c * row over the pairs of a coefficient sequence and rows
        packed by `modrow`, one translated row per nonzero coefficient."""
        mul = self.mul_t
        acc = 0
        for c, row in zip(coeffs, rows):
            if c:
                acc ^= int.from_bytes(row.translate(mul[c]), "little")
        return acc

    def deriv(self, a):
        """The derivative: the odd coefficients, moved one byte down."""
        return (a >> 8) & self.pack(b"\xff\0" * ((self.deg(a) + 1) >> 1))

    def proot(self, a):
        """The square root of a square: its even coefficients, each through
        the square-root table."""
        raw = self.key(a)
        if any(raw[1::2]):
            raise PolyError("polynomial is not a p-th power")
        return self.pack(raw[::2].translate(self.sqrt_t))

    @staticmethod
    def split(poly, var):
        i = poly.vars.index(var)
        out = [0] * (poly.degree(var) + 1)
        for e, c in poly.terms.items():
            out[e[i]] |= c << (e[1 - i] << 3)
        return out


class _ListRing(_Ring):
    """F[x] on trimmed coefficient lists, the `ring` of every field object
    without byte tables.  Each row of a product or a division is one
    `addmul_row` of the field, and a modulus is its own row."""

    key = tuple

    def __init__(self, field):
        self.field, self.zero, self.one = field, [], [field.one]

    def pack(self, coeffs):
        return dense_trim(list(coeffs), self.field)

    @staticmethod
    def deg(a):
        return len(a) - 1

    @staticmethod
    def modrow(m):
        return m

    def constant(self, a):
        """The field element of a constant."""
        return a[0] if a else self.field.zero

    def monic(self, a):
        f = self.field
        if not a or a[-1] == f.one:
            return list(a)
        inv = f.inv(a[-1])
        return [f.mul(inv, x) for x in a]

    def gcd(self, a, b):
        """The monic gcd; gcd(a, 0) is a made monic.  Each divisor is made
        monic before it divides, so a Euclid step takes one field inverse,
        which on a tower costs several products, and the last divisor is
        not inverted a second time for the result."""
        while b:
            if self.deg(b) == 0:           # a nonzero constant: coprime
                return self.one
            b = self.monic(b)
            a, b = b, self.rem(a, b)
        return self.monic(a)

    def sub(self, a, b):
        f = self.field
        return dense_trim([f.sub(x, y) for x, y in
                           zip_longest(a, b, fillvalue=f.zero)], f)

    def mul(self, a, b):
        if not a or not b:
            return []
        f = self.field
        out = [f.zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            f.addmul_row(out, i, ai, b)
        return out

    def divmod(self, a, b):
        f = self.field
        b = dense_trim(list(b), f)
        if not b:
            raise PolyError("polynomial division by zero")
        # a monic divisor needs no inverse
        inv = None if b[-1] == f.one else f.inv(b[-1])
        q = [f.zero] * max(len(a) - len(b) + 1, 0)
        a = dense_trim(list(a), f)
        # one pass from the top down, as mulmod: each step cancels one
        # coefficient, so the loop ends whatever the field does
        nb = len(b)
        for shift in range(len(a) - nb, -1, -1):
            lead = a[shift + nb - 1]
            if lead != f.zero:
                c = lead if inv is None else f.mul(lead, inv)
                q[shift] = c
                f.addmul_row(a, shift, f.neg(c), b)
        return q, dense_trim(a[:nb - 1], f)

    def divexact(self, a, b):
        q, r = self.divmod(a, b)
        if r:
            raise PolyError("not divisible")
        return dense_trim(q, self.field)

    def mulmod(self, a, b, mod):
        """a * b reduced modulo the monic `mod`, trimmed.  Monic means no
        field inverse is needed, so a tower over a tower never inverts in
        its base."""
        f = self.field
        res = self.mul(a, b)
        d = len(mod) - 1
        low = mod[:d]
        for i in range(len(res) - 1, d - 1, -1):
            f.addmul_row(res, i - d, f.neg(res[i]), low)
        return dense_trim(res[:d], f)

    def combine(self, coeffs, rows):
        """sum c * row over the pairs of a coefficient sequence and rows
        packed by `modrow`."""
        f = self.field
        acc = [f.zero] * max(map(len, rows), default=0)
        for c, row in zip(coeffs, rows):
            f.addmul_row(acc, 0, c, row)
        return dense_trim(acc, f)

    def deriv(self, a):
        """The derivative in characteristic 2: the odd coefficients, moved
        one place down."""
        zero = self.field.zero
        return dense_trim([c if i % 2 else zero for i, c in enumerate(a[1:], 1)],
                          self.field)

    def proot(self, a):
        """The square root of a square in characteristic 2: its even
        coefficients, each through the field's square root."""
        f = self.field
        if any(c != f.zero for c in a[1::2]):
            raise PolyError("polynomial is not a p-th power")
        return dense_trim([f.proot(c) for c in a[::2]], f)

    def split(self, poly, var):
        """An FqPoly in k[u, v] as its dense list in var of trimmed lists in
        the other variable, as `PackedRing.split`."""
        i = poly.vars.index(var)
        zero = self.field.zero
        out = [[] for _ in range(poly.degree(var) + 1)]
        for e, c in poly.terms.items():
            row, k = out[e[i]], e[1 - i]
            row.extend([zero] * (k + 1 - len(row)))
            row[k] = c
        return out


# ---------------------------------------------------------------------------
# gcd and resultant in two variables from one subresultant PRS


def _primitive(coeffs, ring):
    """(content, primitive part) of a dense list over a coefficient ring;
    the content is the gcd of the coefficients."""
    content = reduce(ring.gcd, coeffs, ring.zero)
    return content, [ring.divexact(c, content) for c in coeffs]


def poly_gcd_multivariate(a, b):
    """Monic-normalized gcd of polynomials in one or two variables (same ring).

    One variable is Euclid in the field's univariate ring.  In two, with
    var the last variable in use: the gcd of the two contents in var times
    the primitive part of the last subresultant remainder of the two
    primitive parts, all over `field.ring` in the other variable."""
    a._check(b)
    if len(a.vars) > 2:
        raise PolyError("gcd takes polynomials in at most two variables")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    f = a.field
    ring = f.ring
    if len(a.vars) == 1:
        g = ring.gcd(ring.pack(a.dense_univariate()), ring.pack(b.dense_univariate()))
        return FqPoly.from_dense(f, a.vars[0], ring.key(g))
    used = [v for v in a.vars if a.degree(v) > 0 or b.degree(v) > 0]
    if not used:
        return FqPoly.const(f, a.vars, f.one)
    var = used[-1]
    ca, pa = _primitive(ring.split(a, var), ring)
    cb, pb = _primitive(ring.split(b, var), ring)
    _cl, last = _primitive(_subresultant_prs(pa, pb, ring)[0], ring)
    cg = ring.gcd(ca, cb)
    return ring.join([ring.mul(cg, c) for c in last], a.vars, var).monic()


def _prem(a, b, ring):
    """lc(b)^(da-db+1) * a mod b for dense lists in one variable over the
    coefficient ring, da >= db >= 1."""
    lcb, db = b[-1], len(b) - 1
    rem, steps = a, len(a) - db
    while len(rem) > db:
        lead, shift = rem[-1], len(rem) - 1 - db
        # lcb * rem - lead * var^shift * b; the top terms cancel
        rem = [ring.mul(c, lcb) for c in rem[:-1]]
        for j in range(db):
            rem[shift + j] = ring.sub(rem[shift + j], ring.mul(lead, b[j]))
        dense_trim(rem, ring)
        steps -= 1
    scale = power(lcb, steps, ring.mul, ring.one)
    return [ring.mul(c, scale) for c in rem]


def _subresultant_prs(a, b, ring):
    """(last nonzero remainder, Res(a, b)) for nonzero dense lists a, b in
    one variable whose coefficients are polynomials in the other, elements
    of a field's `ring` (`PackedRing` or `_ListRing`).

    The subresultant PRS (Brown-Traub, J. ACM 18, 1971; Cohen, GTM 138,
    Alg. 3.3.7): every division below is exact, and the last nonzero
    remainder is an associate of gcd(a, b) over the fraction field of the
    coefficient ring.  The resultant follows the Sylvester-matrix sign
    convention.
    """
    def pw(x, n):
        return power(x, n, ring.mul, ring.one)

    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if len(a) % 2 == 0 and len(b) % 2 == 0:    # both degrees odd
            sign = -1
    g = h = ring.one
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        div = ring.mul(g, pw(h, delta))
        a, b = b, [ring.divexact(c, div) for c in _prem(a, b, ring)]
        g = a[-1]
        if delta:
            h = ring.divexact(pw(g, delta), pw(h, delta - 1))
    if not b:
        return a, ring.zero
    da = len(a) - 1
    res = ring.divexact(pw(b[0], da), pw(h, da - 1))
    return b, (ring.sub(ring.zero, res) if sign < 0 else res)


def resultant(a, b, var):
    """Res_var(a, b) for a, b in two variables, as a polynomial in the
    other one (var-degree 0)."""
    a._check(b)
    if len(a.vars) != 2:
        raise PolyError("resultant takes polynomials in exactly two variables")
    da, db = a.degree(var), b.degree(var)
    if da < 0 or db < 0:
        return FqPoly.zero(a.field, a.vars)
    if da == 0 and db == 0:
        raise PolyError("resultant needs positive degree in the variable")
    ring = a.field.ring
    res = _subresultant_prs(ring.split(a, var), ring.split(b, var), ring)[1]
    return ring.join([res], a.vars, var)
