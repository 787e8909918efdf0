"""Coefficient data for the two families and the coefficient classification."""

from dataclasses import dataclass, field as dc_field

from .. import KummerlabError
from ..char2_algebra.cartier import pth_root_poly
from ..char2_algebra.poly import FqPoly


class SurfaceError(KummerlabError):
    pass


# variable names and coefficient-name -> exponent maps per family
_FAMILY_VARS = {"class4": ("x", "y"), "class2": ("x", "t")}
_FIXED_TERMS = {"class4": ((4, 1), (1, 4)), "class2": ((3, 0), (0, 9))}
_COEFF_SLOTS = {
    "class4": {"h30": (3, 0), "h21": (2, 1), "h12": (1, 2), "h03": (0, 3),
               "h11": (1, 1), "h10": (1, 0), "h01": (0, 1)},
    "class2": {"h11": (1, 1), "h12": (1, 2), "h03": (0, 3), "h05": (0, 5),
               "h07": (0, 7), "h21": (2, 1), "h14": (1, 4),
               "h10": (1, 0), "h01": (0, 1)},
}
# coefficients that must vanish for the normalized (translated) form
_EXTENDED = {"class4": ("h10", "h01"), "class2": ("h21", "h14", "h10", "h01")}

BRANCHES = ("16A1", "4D4", "2D8", "1D16", "2E8", "nonRDP")

# (number of geometric singular points, plane colength at each)
BRANCH_PROFILES = {
    "16A1": (16, 1),
    "4D4": (4, 4),
    "2D8": (2, 8),
    "1D16": (1, 16),
    "2E8": (2, 8),
    "nonRDP": (1, 16),
}


@dataclass
class SurfaceSpec:
    family: str
    field: object
    coeffs: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.family not in _FAMILY_VARS:
            raise SurfaceError(f"unknown family {self.family!r}")
        if self.field.char != 2:
            raise SurfaceError("the surface families are defined over F_2^e, "
                               f"not over {self.field!r}")
        slots = _COEFF_SLOTS[self.family]
        clean = {}
        for name, value in self.coeffs.items():
            if name not in slots:
                raise SurfaceError(f"unknown coefficient {name!r} for {self.family}")
            if value != self.field.zero:
                clean[name] = value
        self.coeffs = clean

    @property
    def vars(self):
        return _FAMILY_VARS[self.family]

    @property
    def normalized(self):
        return all(self.coeff(n) == self.field.zero for n in _EXTENDED[self.family])

    def coeff(self, name):
        return self.coeffs.get(name, self.field.zero)

    def H(self):
        f = self.field
        terms = {e: f.one for e in _FIXED_TERMS[self.family]}
        for name, value in self.coeffs.items():
            terms[_COEFF_SLOTS[self.family][name]] = value
        return FqPoly(f, self.vars, terms)

    def map_field(self, new_field, conv):
        return SurfaceSpec(self.family, new_field,
                           {n: conv(v) for n, v in self.coeffs.items()})

    def to_json(self):
        enc = getattr(self.field, "encode", str)
        return {"family": self.family,
                "coeffs": {n: enc(v) for n, v in sorted(self.coeffs.items())}}

    def __repr__(self):
        enc = getattr(self.field, "encode", str)
        cs = ",".join(f"{n}={enc(v)}" for n, v in sorted(self.coeffs.items()))
        return f"SurfaceSpec({self.family}, {self.field!r}, {cs})"


def _branch_equations(f, u):
    """The five branch equations at u = (u0, u1, u2, u3): the first cuts
    out W, the next two add Z1 and the last two add Z2."""
    u0, u1, u2, u3 = u
    return (
        f.sub(f.mul(u1, u2), f.mul(u0, u3)),
        f.sub(f.mul(u1, u1), f.mul(u0, u2)),
        f.sub(f.mul(u2, u2), f.mul(u1, u3)),
        f.sub(f.mul(u2, u2), f.mul(u0, u1)),
        f.sub(f.mul(u1, u1), f.mul(u2, u3)),
    )


def _cubic(f, a, b, c):
    """The point (c a^3, c a^2 b, c a b^2, c b^3) of the cubic curve."""
    return (f.mul(c, f.pow_elem(a, 3)),
            f.mul(c, f.mul(f.mul(a, a), b)),
            f.mul(c, f.mul(a, f.mul(b, b))),
            f.mul(c, f.pow_elem(b, 3)))


_CUBIC_SLOTS = ("h30", "h21", "h12", "h03")


def classify_by_coefficients(spec):
    """The singular-configuration branch determined by the coefficients."""
    if not spec.normalized:
        raise SurfaceError("classification requires a normalized spec")
    f = spec.field
    if spec.family == "class4":
        if spec.coeff("h11") != f.zero:
            return "16A1"
        w, *z = (v == f.zero for v in
                 _branch_equations(f, [spec.coeff(n) for n in _CUBIC_SLOTS]))
        if not w:
            return "4D4"
        z1, z2 = z[0] and z[1], z[2] and z[3]
        if not z1 and not z2:
            return "2D8"
        if z2 and not z1:
            return "1D16"
        if z1 and not z2:
            return "2E8"
        return "nonRDP"
    # class 2 decision table
    if spec.coeff("h07") != f.zero:
        raise SurfaceError("the class-2 decision table assumes h07 = 0")
    h11, h03 = spec.coeff("h11"), spec.coeff("h03")
    h12, h05 = spec.coeff("h12"), spec.coeff("h05")
    if h11 != f.zero:
        return "16A1"
    if h03 != f.zero:
        return "4D4"
    if h12 != f.zero and h05 != f.zero:
        return "2D8"
    if h12 != f.zero:
        return "1D16"
    if h05 != f.zero:
        return "2E8"
    return "nonRDP"


def _f4_elements(f):
    """The elements a of f with a^4 = a: all of F_4 on even degrees, only
    0 and 1 on odd ones."""
    return [a for a in f.elements() if f.pow_elem(a, 4) == a]


def z1z2_parametrization_check():
    """Verify the cubic-curve parametrization of the branch intersection.

    Every (c a^3, c a^2 b, c a b^2, c b^3) with a, b in F_4 satisfies all
    five defining equations, and (exhaustively over F_16) every solution of
    the five equations arises this way.
    """
    from ..char2_algebra.field import get_field
    f = get_field(2, 4)
    f4 = _f4_elements(f)

    param = set()
    for a in f4:
        for b in f4:
            for c in f.elements():
                u = _cubic(f, a, b, c)
                if any(v != f.zero for v in _branch_equations(f, u)):
                    return False
                param.add(u)
    if f.order ** 4 <= 1 << 17:
        for u0 in f.elements():
            for u1 in f.elements():
                for u2 in f.elements():
                    for u3 in f.elements():
                        u = (u0, u1, u2, u3)
                        if (all(v == f.zero for v in _branch_equations(f, u))
                                and u not in param):
                            return False
    return True


def _split_even_even(poly):
    """(family part, even-even part) of a bivariate polynomial."""
    f = poly.field
    ee, rest = {}, {}
    for e, c in poly.terms.items():
        if e[0] % 2 == 0 and e[1] % 2 == 0:
            ee[e] = c
        else:
            rest[e] = c
    return FqPoly(f, poly.vars, rest), FqPoly(f, poly.vars, ee)


def _spec_from_H(family, field, h_poly):
    slots = _COEFF_SLOTS[family]
    by_expo = {e: n for n, e in slots.items()}
    coeffs = {}
    for e, c in h_poly.terms.items():
        if e in _FIXED_TERMS[family]:
            if c != field.one:
                raise SurfaceError("leading family terms are not normalized to 1")
            continue
        name = by_expo.get(e)
        if name is None:
            raise SurfaceError(f"residual term {e} outside the family support")
        coeffs[name] = c
    for e in _FIXED_TERMS[family]:
        if h_poly.coefficient(e) != field.one:
            raise SurfaceError("missing leading family term")
    return SurfaceSpec(family, field, coeffs)


def translate_to_origin(spec, point):
    """Move a singular point to the origin, splitting off the square part.

    point is a pair of elements of spec.field (or of an extension, with
    the spec mapped there first).  Returns (translated spec, correction f)
    with H_old(v + point) = H_new(v) + f(v)^2.  Raises if the point is not
    singular (a linear term survives) or the result leaves the family.
    """
    f = spec.field
    v1, v2 = spec.vars
    alpha, beta = point
    shifted = spec.H().shift({v1: alpha, v2: beta})
    fam_part, ee_part = _split_even_even(shifted)
    corr = pth_root_poly(ee_part)
    if fam_part.coefficient((1, 0)) != f.zero or fam_part.coefficient((0, 1)) != f.zero:
        raise SurfaceError("translation target is not a singular point")
    new_spec = _spec_from_H(spec.family, f, fam_part)
    return new_spec, corr


def normalize_spec(spec):
    """Apply the coordinate simplifications removing the extended coefficients.

    Class 4 translates a singular point to the origin.  Class 2 first
    eliminates h21 by x -> x + h21*t and h14 by x -> x + sqrt(h14')*t^2,
    then translates.  May extend the base field to reach a singular point;
    the caller sees the new spec's field.
    """
    from .points import singular_points
    if spec.normalized:
        return spec, FqPoly.zero(spec.field, spec.vars)
    f = spec.field
    work = spec
    if spec.family == "class2":
        x = FqPoly.variable(f, spec.vars, "x")
        t = FqPoly.variable(f, spec.vars, "t")
        for expo, shift in (((2, 1), lambda c: t.scale(c)),
                            ((1, 4), lambda c: (t * t).scale(f.proot(c)))):
            h_poly = work.H()
            c = h_poly.coefficient(expo)
            if c != f.zero:
                fam, _ee = _split_even_even(h_poly.substitute("x", x + shift(c)))
                work = _spec_from_H("class2", f, fam)
    if work.coeff("h10") == f.zero and work.coeff("h01") == f.zero:
        return work, FqPoly.zero(f, work.vars)
    pts = singular_points(work)
    if not pts:
        raise SurfaceError("no singular point available for normalization")
    rec = pts[0]
    spec_k = work.map_field(rec.field, rec.embed)
    return translate_to_origin(spec_k, (rec.x, rec.y))


# ---------------------------------------------------------------------------
# deterministic branch sampling for cross-validation sweeps


def sample_branch_spec(family, branch, field, rng):
    """A random spec of the family whose coefficients land in the branch."""
    f = field
    for _ in range(1000):
        if family == "class4":
            spec = _sample_class4(branch, f, rng)
        else:
            spec = _sample_class2(branch, f, rng)
        if spec is not None and classify_by_coefficients(spec) == branch:
            return spec
    raise SurfaceError(f"could not sample branch {branch} over {field!r}")


def _sample_class4(branch, f, rng):
    if branch == "16A1":
        return SurfaceSpec("class4", f, {
            "h11": f.rand_nonzero(rng), "h30": f.rand(rng), "h21": f.rand(rng),
            "h12": f.rand(rng), "h03": f.rand(rng)})
    if branch == "4D4":
        u = [f.rand(rng) for _ in range(4)]
    elif branch == "2D8":
        # generic point of the determinantal hypersurface u1 u2 = u0 u3
        a = f.rand_nonzero(rng)
        b, c = f.rand(rng), f.rand(rng)
        u = (a, b, c, f.mul(f.inv(a), f.mul(b, c)))
    elif branch in ("1D16", "2E8", "nonRDP"):
        if branch == "nonRDP":
            f4 = _f4_elements(f)
            a = f4[rng.randrange(len(f4))]
            b = f4[rng.randrange(len(f4))]
        else:
            a, b = f.rand_nonzero(rng), f.rand_nonzero(rng)
        u = _cubic(f, a, b, f.rand_nonzero(rng))
        if branch == "1D16":
            u = (u[0], u[2], u[1], u[3])
    else:
        raise SurfaceError(f"unknown branch {branch}")
    return SurfaceSpec("class4", f, dict(zip(_CUBIC_SLOTS, u)))


def _sample_class2(branch, f, rng):
    coeffs = {}
    if branch == "16A1":
        coeffs = {"h11": f.rand_nonzero(rng), "h12": f.rand(rng),
                  "h03": f.rand(rng), "h05": f.rand(rng)}
    elif branch == "4D4":
        coeffs = {"h03": f.rand_nonzero(rng), "h12": f.rand(rng),
                  "h05": f.rand(rng)}
    elif branch == "2D8":
        coeffs = {"h12": f.rand_nonzero(rng), "h05": f.rand_nonzero(rng)}
    elif branch == "1D16":
        coeffs = {"h12": f.rand_nonzero(rng)}
    elif branch == "2E8":
        coeffs = {"h05": f.rand_nonzero(rng)}
    elif branch == "nonRDP":
        coeffs = {}
    else:
        raise SurfaceError(f"unknown branch {branch}")
    return SurfaceSpec("class2", f, coeffs)
