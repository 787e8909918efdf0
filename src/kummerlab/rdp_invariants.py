"""Closed-form invariants of rational double points in characteristic 2.

Encodes the coindex bookkeeping (half-integers stored doubled), the
stabilized dimension tables for the iterated-image filtration at each
singularity, the per-type quantities (i, m, b) entering the global
dimension counts, and the exhaustive check that f(m) + b - n_B is at
most 5 over all configurations of total index at most 16, with equality
exactly at the five Kummer-type configurations.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import KummerlabError
from .binary_codes import f_bound


class RdpError(KummerlabError):
    pass


@dataclass(frozen=True)
class RdpType:
    family: str       # 'A', 'D' or 'E'
    index: int        # the N of A_N / D_N / E_N
    coindex2: int = None   # twice the coindex r (exact half-integers); None for A

    def __post_init__(self):
        if self.family == "A":
            if self.index < 1 or self.coindex2 is not None:
                raise RdpError(f"illegal type {self}")
        elif self.family == "D":
            n, r2 = self.index, self.coindex2
            if n < 4 or r2 is None or r2 < 0:
                raise RdpError(f"illegal type {self}")
            if n % 2 == 0:
                if r2 % 2 or r2 // 2 > n // 2 - 1:
                    raise RdpError(f"illegal coindex for D_{n}")
            else:
                if r2 % 2 == 0 or r2 > n - 2:
                    raise RdpError(f"illegal coindex for D_{n}")
        elif self.family == "E":
            n, r2 = self.index, self.coindex2
            rmax = {6: 1, 7: 3, 8: 4}
            if n not in rmax or r2 is None or r2 % 2 or r2 // 2 > rmax[n]:
                raise RdpError(f"illegal type {self}")
        else:
            raise RdpError(f"unknown family {self.family!r}")

    @property
    def coindex(self):
        return None if self.coindex2 is None else Fraction(self.coindex2, 2)

    def symbol(self):
        r2 = self.coindex2
        if r2 is None:             # type A, or a D/E type missing its coindex
            return f"{self.family}{self.index}"
        rs = str(r2 // 2) if r2 % 2 == 0 else f"{r2}/2"
        return f"{self.family}{self.index}r{rs}"

    @staticmethod
    def parse(text):
        text = text.strip()
        fam = text[0].upper()
        rest = text[1:]
        if "r" in rest:
            npart, rpart = rest.split("r", 1)
            n = int(npart)
            if "/" in rpart:
                num, den = rpart.split("/")
                if int(den) != 2:
                    raise RdpError(f"bad coindex in {text!r}")
                r2 = int(num)
            else:
                r2 = 2 * int(rpart)
            return RdpType(fam, n, r2)
        return RdpType(fam, int(rest))

    def __str__(self):
        return self.symbol()


# the five Kummer-type configurations, as sorted symbol multisets
KUMMER_CONFIGS = (
    tuple(["A1"] * 16),
    tuple(["D4r0"] * 4),
    tuple(["D8r0"] * 2),
    tuple(["D16r0"]),
    tuple(["E8r0"] * 2),
)

_E_DIM_SEQ = {
    ("E", 8, 0): (2, 3, 4),
    ("E", 8, 2): (1, 2, 3),
    ("E", 7, 0): (1, 2, 3),
    ("E", 8, 4): (1, 2),
    ("E", 7, 2): (1, 2),
    ("E", 8, 6): (1,),
    ("E", 7, 4): (1,),
    ("E", 6, 0): (1,),
}


def b_index(t):
    """Smallest n from which the local dimension table stabilizes."""
    if t.family == "A":
        return 0
    if t.family == "D":
        m2 = t.index - t.coindex2  # 2*(N/2 - r), an integer
        if m2 % 2:
            raise RdpError(f"illegal type {t}")
        m = m2 // 2
        if m <= 1:
            return 0
        return (m - 1).bit_length()
    seq = _E_DIM_SEQ.get((t.family, t.index, t.coindex2))
    return len(seq) if seq else 0


def dim_b_bar(t, n):
    """Local dimension at level n; constant from the stabilization index on."""
    if n < 0:
        raise RdpError("level must be non-negative")
    if n == 0 or t.family == "A":
        return 0
    if t.family == "D":
        m2 = t.index - t.coindex2 - 2   # 2*(N/2 - r - 1)
        if m2 % 2:
            raise RdpError(f"illegal type {t}")
        m = m2 // 2
        if m <= 0:
            return 0
        # ceil((1 - 2^-n) * m)
        num = ((1 << n) - 1) * m
        return -((-num) >> n)
    seq = _E_DIM_SEQ.get((t.family, t.index, t.coindex2))
    if seq is None:
        return 0   # F-injective
    return seq[min(n, len(seq)) - 1]


def mzbz(t):
    """(i, m, b) for the type; b requires the supersingular coindex."""
    n = t.index
    if t.family == "A":
        m = (n + 1) // 2 if n % 2 else 0
        return n, m, 0
    if t.family == "D":
        if n % 2 == 0:
            m = n // 2 + 1
            if t.coindex2 != 0:
                raise RdpError(f"b is tabulated only for D_even^0, not {t}")
            b = n // 2 - 1
        else:
            m = 2
            if t.coindex2 != 1:
                raise RdpError(f"b is tabulated only for D_odd^(1/2), not {t}")
            b = (n - 1) // 2 - 1
        return n, m, b
    if t.coindex2 != 0:
        raise RdpError(f"b is tabulated only for E_N^0, not {t}")
    m = {6: 0, 7: 3, 8: 0}[n]
    b = {6: 1, 7: 3, 8: 4}[n]
    return n, m, b


@dataclass
class RdpCollection:
    types: tuple

    @classmethod
    def of(cls, *symbols):
        out = []
        for s in symbols:
            if isinstance(s, RdpType):
                out.append(s)
            else:
                out.append(RdpType.parse(s))
        return cls(tuple(sorted(out, key=lambda t: t.symbol())))

    @property
    def i(self):
        return sum(t.index for t in self.types)

    @property
    def m(self):
        return sum(mzbz(t)[1] for t in self.types)

    @property
    def b(self):
        return sum(mzbz(t)[2] for t in self.types)

    @property
    def n_b(self):
        return max((b_index(t) for t in self.types), default=0)

    def symbols(self):
        return tuple(t.symbol() for t in self.types)

    def __str__(self):
        return "+".join(self.symbols()) if self.types else "(empty)"


def h0_bn_dim(coll, n):
    """Global dimension at level n: sum of local dimensions minus min(n, n_B)."""
    if n < 0:
        raise RdpError("level must be non-negative")
    ncap = min(n, coll.n_b)
    val = sum(dim_b_bar(t, ncap) for t in coll.types) - ncap
    if val < 0:
        raise RdpError("collection not realizable on an RDP K3 surface")
    return val


def z_infty_upper_bound(coll):
    """(bound, caveat flag): f(m) + b - n_B, flagged when possibly unsharp.

    The combinatorial part f(m) ignores which singular point each curve
    sits over, so collections outside the five Kummer configurations that
    still reach the maximum carry a sharpness caveat.
    """
    m = coll.m
    if m > 24:
        raise RdpError("m exceeds the tabulated range of f")
    bound = f_bound(m) + coll.b - coll.n_b
    caveat = bound >= 5 and coll.symbols() not in KUMMER_CONFIGS
    return bound, caveat


def _allowed_types(max_index):
    out = []
    for n in range(1, max_index + 1):
        out.append(RdpType("A", n))
    for n in range(4, max_index + 1, 2):
        out.append(RdpType("D", n, 0))
    for n in range(5, max_index + 1, 2):
        out.append(RdpType("D", n, 1))
    for n, r in ((6, 0), (7, 0), (8, 0)):
        if n <= max_index:
            out.append(RdpType("E", n, r))
    out.sort(key=lambda t: (-t.index, t.family))
    return out


def verify_leq5(max_index=16):
    """Exhaustively bound f(m) + b - n_B over all admissible collections.

    Enumerates every multiset from {A_N, D_even^0, D_odd^(1/2), E_6^0,
    E_7^0, E_8^0} with total index <= max_index and returns
    (max value, list of collections attaining it, number enumerated).
    """
    types = _allowed_types(max_index)
    best = None
    best_cases = []
    count = 0

    stack = [(0, max_index, [])]
    while stack:
        pos, budget, chosen = stack.pop()
        coll = RdpCollection(tuple(sorted(chosen, key=lambda t: t.symbol())))
        val = z_infty_upper_bound(coll)[0]
        count += 1
        if best is None or val > best:
            best = val
            best_cases = [coll]
        elif val == best:
            best_cases.append(coll)
        for k in range(pos, len(types)):
            t = types[k]
            if t.index <= budget:
                stack.append((k, budget - t.index, chosen + [t]))
    best_cases.sort(key=lambda c: c.symbols())
    return best, best_cases, count
