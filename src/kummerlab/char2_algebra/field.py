"""Finite fields F_{p^e} with explicit moduli, plus quotient-ring towers.

Base fields encode elements as integers 0..p^e-1 (digit vectors of the
modulus-basis coordinates, base p; for p = 2 plain bitmasks).  Arithmetic
uses exp/log tables over a precomputed generator, so p^e is capped at
2^16; the tables are computed on residues mod the modulus in the ring of
F_p (`ring.mulmod`).  The p-th root is one read of a table built next to
them.  Base fields of odd characteristic (F_9, F_5 and the rest) serve
the Cartier checks over F_3 and F_5; towers are characteristic 2 only.
Towers K[u]/(h) over a base field or another tower host algebraic points
found during factorization; they are never serialized.  `row_reduce` is
the Gaussian elimination over any of these field objects.

Every field object has one row operation, `addmul_row(dst, off, c, src)`:
dst[off + j] += c * src[j] in place.  `row_reduce`, the Cartier-module
reductions, the Ore reduction in k{tau} and the list kernels of poly.py
call it.  A characteristic-2 base field runs it on its log tables: log c
once per row, a doubled exp table indexed by log c + log s without a
reduction, zeros of src skipped, XOR to accumulate.  Odd-p base fields
and towers run it on their own add and mul.  In characteristic 2 a base
field also binds add and sub to XOR and neg to the identity at
construction, so no call tests the characteristic.

Every field object builds its univariate ring F[x] once, as `ring`.  A
characteristic-2 base field with q <= 256 carries `byte_tables`: one
256-byte `bytes.translate` table per constant c (s -> c*s) and one
squaring table, cut from the exp/log tables; its ring is the
`poly.PackedRing` on ints with a coefficient per byte.  Every other field
object has `byte_tables = None` and a `poly._ListRing` on coefficient
lists.  A tower element is its residue mod h in the base's ring, in one
of two forms:

- over a byte-table base, the packed int itself, a coefficient per byte:
  zero is 0, one is 1, the embedding is the identity, + and - are XOR,
  and `ExtField.mul` is one packed product and one reduction by the
  modulus's bytes, with no conversion;
- over any other base (q > 256, a tower), the tuple of its deg h
  coefficients, where + and - are coefficientwise and -a = a.

`ExtField.from_residue` takes a residue in the base's ring to its
element, so no caller reads which form a tower element takes.
`ExtField.inv` runs Euclid in the base's ring on the residue.

Moduli come from a fixed built-in table; construction proves each one
irreducible by finding an element of multiplicative order p^e - 1.
"""

import operator
from dataclasses import dataclass
from functools import partial

from .. import KummerlabError
from .poly import PackedRing, _ListRing, power


class FieldError(KummerlabError):
    pass


# minimal-weight irreducible polynomials, coefficient bitmask/digit lists
# (ascending degree, monic).  Proved irreducible at construction.
_MODULI = {
    2: {
        1: [1, 1],
        2: [1, 1, 1],
        3: [1, 1, 0, 1],
        4: [1, 1, 0, 0, 1],
        5: [1, 0, 1, 0, 0, 1],
        6: [1, 1, 0, 0, 0, 0, 1],
        7: [1, 1, 0, 0, 0, 0, 0, 1],
        8: [1, 1, 1, 0, 0, 0, 0, 1, 1],
        9: [1, 1, 0, 0, 0, 0, 0, 0, 0, 1],
        10: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
        11: [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        12: [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        13: [1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1],
        14: [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        15: [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        16: [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    },
    3: {
        1: [1, 1],
        2: [1, 0, 1],
        3: [1, 2, 0, 1],
        4: [2, 1, 0, 0, 1],
    },
    5: {
        1: [1, 1],
        2: [2, 0, 1],
        3: [1, 1, 0, 1],
    },
}


@dataclass(frozen=True)
class FieldSpec:
    p: int
    e: int
    modulus: tuple

    @staticmethod
    def standard(p, e):
        try:
            mod = _MODULI[p][e]
        except KeyError:
            raise FieldError(f"no built-in modulus for p={p}, e={e}") from None
        return FieldSpec(p, e, tuple(mod))


def _addmul_row(field, dst, off, c, src):
    """dst[off + j] += c * src[j] for every j, in place, on the field's own
    add and mul; zeros of c and src are skipped."""
    zero = field.zero
    if c == zero:
        return
    add, mul = field.add, field.mul
    for j, s in enumerate(src, off):
        if s != zero:
            dst[j] = add(dst[j], mul(c, s))


class BaseField:
    """F_{p^e} with exp/log multiplication tables."""

    def __init__(self, spec):
        p, e = spec.p, spec.e
        if p not in (2, 3, 5):
            raise FieldError("characteristic must be 2, 3 or 5")
        if len(spec.modulus) != e + 1 or spec.modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree e")
        self.spec = spec
        self.char = p
        self.degree = e
        self.order = p ** e
        if self.order > 1 << 16:
            raise FieldError("field too large for table arithmetic")
        self._build_tables()
        if p == 2:
            # + and - are XOR and -a = a; the class methods serve odd p
            self.add = self.sub = operator.xor
            self.neg = operator.pos
            self.addmul_row = self._addmul_row_log
            if self.order <= 256:
                self.byte_tables = self._build_byte_tables()
        self.ring = _ListRing(self) if self.byte_tables is None else PackedRing(self)

    # -- encoding ---------------------------------------------------------
    def _digits(self, a):
        p, e = self.char, self.degree
        out = []
        for _ in range(e):
            out.append(a % p)
            a //= p
        return out

    def _undigits(self, ds):
        p = self.char
        val = 0
        for d in reversed(ds):
            val = val * p + (d % p)
        return val

    def _build_tables(self):
        p, q = self.char, self.order
        # the exp table is computed in F_p[x]/(modulus): an element is the
        # residue of its digit list in the ring of F_p, which multiplies
        # ints mod p
        if self.degree == 1:
            one, mul, to_int = 1, lambda a, b: a * b % p, int
            elements = range(1, q)
        else:
            ring = get_field(p, 1).ring
            row = ring.modrow(ring.pack(self.spec.modulus))
            one = ring.one

            def mul(a, b):
                return ring.mulmod(a, b, row)

            def to_int(a):
                return self._undigits(ring.key(a))

            elements = (ring.pack(self._digits(a)) for a in range(1, q))
        # a reducible modulus leaves fewer than q - 1 units, so no element
        # has order q - 1: the generator search doubles as the proof
        fact = _prime_factors(q - 1)
        gen = next((a for a in elements
                    if all(power(a, (q - 1) // f, mul, one) != one for f in fact)
                    and power(a, q - 1, mul, one) == one), None)
        if gen is None:
            raise FieldError(f"modulus {self.spec.modulus} is reducible "
                             f"over F_{p}")
        self.generator = to_int(gen)
        exp = [1] * (q - 1)
        cur = one
        for i in range(1, q - 1):
            cur = mul(gen, cur)
            exp[i] = to_int(cur)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        # doubled, so log a + log b < 2(q - 1) indexes it with no reduction
        self._exp = exp + exp
        self._log = log
        # the p-th root of exp[i] is exp[i * p^(e-1)], as (g^i)^(p^e) = g^i
        root = [0] * q
        step = p ** (self.degree - 1)
        for i, v in enumerate(exp):
            root[v] = exp[i * step % (q - 1)]
        self.proot_table = root
        if p != 2:
            digits = [self._digits(a) for a in range(q)]
            self._add_table = [[self._undigits([x + y for x, y in zip(da, db)])
                                for db in digits] for da in digits]
            self._neg_table = [self._undigits([-x for x in da]) for da in digits]

    def _build_byte_tables(self):
        """(mul, square) for the packed dense kernels of poly.py: mul[c] is
        the 256-byte `bytes.translate` table s -> c*s and square the table
        s -> s*s.  Each row is a slice of the doubled exp table, read
        through the log table by one translate."""
        q = self.order
        exp = bytes(self._exp)
        logs = bytes(self._log[1:])

        def table(by_log):
            """s -> by_log[log s] for s != 0, and 0 -> 0."""
            return (b"\0" + logs.translate(by_log + bytes(257 - q))
                    + bytes(256 - q))

        mul = (bytes(256),) + tuple(table(exp[self._log[c]:self._log[c] + q - 1])
                                    for c in range(1, q))
        return mul, table(exp[::2])

    # -- arithmetic --------------------------------------------------------
    zero = 0
    one = 1
    # (mul, square) byte tables, on characteristic-2 fields with q <= 256
    byte_tables = None

    def add(self, a, b):
        return self._add_table[a][b]

    def neg(self, a):
        return self._neg_table[a]

    def sub(self, a, b):
        return self._add_table[a][self._neg_table[b]]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    addmul_row = _addmul_row

    def _addmul_row_log(self, dst, off, c, src):
        """addmul_row in characteristic 2, on the log tables."""
        if c == 0:
            return
        exp, log = self._exp, self._log
        lc = log[c]
        for j, s in enumerate(src, off):
            if s:
                dst[j] ^= exp[lc + log[s]]

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow_elem(self, a, n):
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise FieldError("division by zero")
            return 0
        return self._exp[(self._log[a] * n) % (self.order - 1)]

    def scalar(self, n):
        """Image of the integer n in the prime field."""
        return n % self.char

    def proot(self, a):
        """The unique p-th root (inverse Frobenius), one table read."""
        return self.proot_table[a]

    def rand(self, rng):
        return rng.randrange(self.order)

    def rand_nonzero(self, rng):
        return rng.randrange(1, self.order)

    def elements(self):
        return range(self.order)

    # -- encoding for reports ----------------------------------------------
    def encode(self, a):
        """Little-endian digit string of the modulus-basis coordinates."""
        return "".join(str(d) for d in self._digits(a))

    def decode(self, s):
        if not all(c.isdigit() and int(c) < self.char for c in s):
            raise FieldError(f"bad element encoding {s!r}")
        if len(s) > self.degree:
            raise FieldError(f"element encoding {s!r} too long")
        return self._undigits([int(c) for c in s] + [0] * (self.degree - len(s)))

    def __repr__(self):
        return f"F_{self.char}^{self.degree}"

    def __eq__(self, other):
        return isinstance(other, BaseField) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


_FIELD_CACHE = {}


def get_field(p, e):
    """The standard F_{p^e} (cached)."""
    key = (p, e)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = BaseField(FieldSpec.standard(p, e))
    return _FIELD_CACHE[key]


def _identity(a):
    return a


class ExtField:
    """Quotient ring base[u]/(h) for monic irreducible h over a base of
    characteristic 2; hosts closed points.

    An element is its residue mod h in `base.ring`, of degree < deg h:
    over a byte-table base the packed int itself, whose arithmetic is bound
    at construction (XOR for + and -, the identity for the embedding and
    -a, `PackedRing.mulmod` by the modulus for *); over any other base the
    tuple of its deg h coefficients, + and - coefficientwise and -a = a.
    `from_residue` takes a residue in the base's ring to its element.  `u`
    is the class of u.  Irreducibility of h is the caller's responsibility
    (factor output); zero divisors surface as division-by-zero errors
    during inversion.
    """

    def __init__(self, base, modulus):
        if base.char != 2:
            raise FieldError("towers are built in characteristic 2 only")
        if modulus[-1] != base.one:
            raise FieldError("tower modulus must be monic")
        self.base = base
        self.modulus = tuple(modulus)
        self.rel_degree = len(modulus) - 1
        self.degree = base.degree * self.rel_degree  # over F_2, as BaseField
        self.char = 2
        self.order = base.order ** self.rel_degree
        ring = base.ring
        self._mod = ring.pack(self.modulus)
        if base.byte_tables is None:
            self.zero = (base.zero,) * self.rel_degree
            self.one = self.from_residue(ring.one)
        else:
            self.zero, self.one = 0, 1
            self.add = self.sub = operator.xor
            self.neg = self.embed = self.from_residue = self._residue = operator.pos
            self.mul = partial(ring.mulmod, row=ring.modrow(self._mod))
        self.u = self.from_residue(ring.rem(ring.pack([base.zero, base.one]), self._mod))
        self.ring = _ListRing(self)

    # -- the tuple form; a byte-table base rebinds these in __init__ --------
    def from_residue(self, r):
        """The element whose residue in the base's ring is r."""
        return tuple(r) + self.zero[len(r):]

    def _residue(self, a):
        return self.base.ring.pack(a)

    def embed(self, a):
        return (a,) + self.zero[1:]

    def add(self, a, b):
        return tuple(map(self.base.add, a, b))

    sub = add
    neg = staticmethod(_identity)

    def mul(self, a, b):
        return self.from_residue(self.base.ring.mulmod(a, b, self._mod))

    # -- both forms -----------------------------------------------------------
    addmul_row = _addmul_row
    byte_tables = None
    # the square root of u, on the first `proot`
    _root_of_u = None

    def inv(self, a):
        if a == self.zero:
            raise FieldError("division by zero")
        ring = self.base.ring
        # extended Euclid in base[u]
        r0, r1 = self._mod, self._residue(a)
        s0, s1 = ring.zero, ring.one
        while r1:
            q, r = ring.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, ring.sub(s0, ring.mul(q, s1))
        if ring.deg(r0) != 0:
            raise FieldError("tower modulus is not irreducible (zero divisor hit)")
        return self.from_residue(ring.divmod(s0, r0)[0])

    def pow_elem(self, a, n):
        if n < 0:
            return self.pow_elem(self.inv(a), -n)
        return power(a, n, self.mul, self.one)

    def proot(self, a):
        """The square root.  With A_0 and A_1 the square roots of the even
        and the odd coefficients of a, a = A_0(u)^2 + u A_1(u)^2, so its
        root is A_0 + r A_1 for r the square root of u, found once per
        field."""
        base, ring = self.base, self.base.ring
        if self._root_of_u is None:
            self._root_of_u = self.pow_elem(self.u, 1 << (self.degree - 1))
        coeffs = ring.key(self._residue(a))
        even, odd = (self.from_residue(ring.pack([base.proot(c) for c in coeffs[j::2]]))
                     for j in (0, 1))
        return self.add(self.mul(odd, self._root_of_u), even)

    def rand(self, rng):
        return self.from_residue(self.base.ring.pack(
            [self.base.rand(rng) for _ in range(self.rel_degree)]))

    def rand_nonzero(self, rng):
        while True:
            a = self.rand(rng)
            if a != self.zero:
                return a

    def __repr__(self):
        return f"{self.base!r}[u]/deg{self.rel_degree}"

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.base == self.base
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash((self.base, self.modulus))


# ---------------------------------------------------------------------------
# linear algebra over a field object (small dense systems)


def row_reduce(rows, field):
    """Gaussian elimination; returns (echelon rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                field.addmul_row(rows[i], 0, field.neg(rows[i][c]), rows[r])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots
