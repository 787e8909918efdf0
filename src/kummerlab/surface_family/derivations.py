"""Covering derivations, fixed-locus subgroup checks, and the
derivation-classification conditions on the normalized plane.

The covering of a family member has smooth locus Spec k[s, t] with
s, t the square roots of the base coordinates.  The covering derivation is
D(s) = c1 * sqrt(H_y)(s^2, t^2), D(t) = c1 * sqrt(H_x)(s^2, t^2) (second
coordinate t standing for the class-2 parameter as well), where c1
normalizes D^2 = D in the multiplicative case h11 != 0 and is 1 in the
additive case.  Its fixed locus is cut out by additive polynomials
exactly when every generator monomial is a single variable raised to a
power of 2.  Such a pair is a 2x2 matrix over the twisted polynomial ring
k{tau} (tau a = a^2 tau, c v^(2^k) read as c tau^k), and the group-scheme
order is 2 to the degree of its Dieudonne determinant: `additive_order`
triangularizes the matrix by Ore's left Euclid (Ore, Trans. AMS 35,
1933; Goss, Basic Structures of Function Field Arithmetic, ch. 1).
Non-additive generators cut out no subgroup scheme, so no order is
computed for them; their fixed locus is zero-dimensional exactly when the
two generators are nonzero and coprime, which `_condition_iii` reads off
their gcd (`poly.poly_gcd_multivariate`).  `_system_order`, the total
colength of the generator ideal over its closed points, serves the
callers that read a non-additive order or cross-check the Ore order; it
takes each colength from `points._colength_at`, the share of the
resultant's multiplicity or else Fulton's algorithm.

Condition (iv) of `classify_derivations` asks for additive generators
once a rational fixed point p is moved to the origin.  No translation is
needed: an additive A has A(v + p) = A(v) + A(p), so moving any rational
zero to the origin changes only the constant terms.  (iv) therefore holds
iff f - f(0, 0) and g - g(0, 0) are additive and the fixed locus has a
rational point: the origin when both constant terms vanish, otherwise,
when (iii) makes the locus zero-dimensional, a point of residue degree 1
among `points.closed_points`.  (iv) reads only residue degrees, never a
colength, so it holds on a locus whose colength passes COLENGTH_CAP, where
`_system_order` raises.
"""

from dataclasses import dataclass

from ..char2_algebra.poly import FqPoly, dense_trim, poly_gcd_multivariate
from .spec import SurfaceError, _FIXED_TERMS, _f4_elements, _spec_from_H
from .points import _NonIsolated, _colength_at, closed_points


@dataclass
class DerivationSpec:
    family: str
    field: object
    vars: tuple            # coordinates of the covering plane
    f: object              # D(first var)
    g: object              # D(second var)
    c: object              # closure scalar: D^2 = c D

    def apply(self, poly):
        v1, v2 = self.vars
        return poly.partial(v1) * self.f + poly.partial(v2) * self.g


def _half_pullback(poly, new_vars):
    """sqrt of poly(s^2, t^2): the same exponents with each coefficient's
    square root, as doubling the exponents and halving them cancel."""
    proot = poly.field.proot
    return FqPoly._clean(poly.field, new_vars,
                         {e: proot(c) for e, c in poly.terms.items()})


def covering_derivation(spec):
    """The derivation generating the covering group action, on k[s, t]."""
    if not spec.normalized:
        raise SurfaceError("covering derivation requires a normalized spec")
    f = spec.field
    h_poly = spec.H()
    v1, v2 = spec.vars
    h1 = h_poly.partial(v1)     # H_x
    h2 = h_poly.partial(v2)     # H_y (class 4) or H_t (class 2)
    new_vars = ("s", "t")
    gen_f = _half_pullback(h2, new_vars)   # D(s) before scaling
    gen_g = _half_pullback(h1, new_vars)   # D(t) before scaling
    h11 = spec.coeff("h11")
    if h11 != f.zero:
        c1 = f.inv(f.proot(h11))
        c = f.one
    else:
        c1 = f.one
        c = f.zero
    d = DerivationSpec(spec.family, f, new_vars,
                       gen_f.scale(c1), gen_g.scale(c1), c)
    # verify D^2 = c D on the coordinate generators
    for gen in (d.f, d.g):
        if d.apply(gen) != gen.scale(c):
            raise SurfaceError("covering derivation fails D^2 = cD")
    return d


_TWO_POWERS = {1 << k for k in range(16)}


def _additive_witness(poly):
    """None if every monomial is a single variable to a 2-power, else one."""
    for e in poly.terms:
        nz = [k for k in e if k]
        if len(nz) != 1 or nz[0] not in _TWO_POWERS:
            return e
    return None


def fixed_locus_subgroup_check(d):
    """(generators, additive flag, group-scheme order, witness monomial).

    The fixed locus of D is cut out by the two generators; it is a
    subgroup scheme of the coordinate plane iff both are additive
    polynomials.  The order is then `additive_order`, the Ore reduction
    in k{tau}; non-additive generators get order None and the first
    non-additive monomial as witness.  Raises SurfaceError when the fixed
    locus is not zero-dimensional: for additive generators when the Ore
    reduction leaves a zero diagonal entry, otherwise when a generator is
    zero or the two share a factor of positive degree (`_condition_iii`).
    """
    gens = (d.f, d.g)
    witness = None
    for gen in gens:
        w = _additive_witness(gen)
        if w is not None:
            witness = w
            break
    if witness is None:
        return gens, True, additive_order(gens, d.field), None
    if not _condition_iii(*gens):
        raise SurfaceError("fixed locus is not zero-dimensional")
    return gens, False, None, witness


def _tau_parts(poly, field):
    """(first-variable part, second-variable part) of an additive poly, each
    the dense coefficient list in tau of sum c_k v^(2^k)."""
    parts = ([], [])
    for e, c in poly.terms.items():
        i = 0 if e[0] else 1
        k = e[i].bit_length() - 1
        part = parts[i]
        part.extend([field.zero] * (k + 1 - len(part)))
        part[k] = c
    return parts


def _tau_submul(a, c, j, b, field):
    """a - (c tau^j) b in k{tau}, trimmed (characteristic 2: minus is plus)."""
    out = a + [field.zero] * (len(b) + j - len(a))
    field.addmul_row(out, j, c, [field.pow_elem(bk, 1 << j) for bk in b])
    return dense_trim(out, field)


def additive_order(gens, field):
    """Order of the group scheme cut out by two additive generators.

    The rows (A_i, B_i) of g_i = A_i(s) + B_i(t) are reduced by Euclid on
    the first column with left quotients c tau^j, c = lead(A_1) /
    lead(A_2)^(2^j); left composition keeps the ideal (g1, g2), and no
    p-th root is taken.  The result [[d1, *], [0, d2]] has order
    2^(deg d1 + deg d2); a zero diagonal entry raises SurfaceError.
    """
    (a1, b1), (a2, b2) = (_tau_parts(g, field) for g in gens)
    while a2:
        while len(a1) >= len(a2):
            j = len(a1) - len(a2)
            c = field.mul(a1[-1], field.inv(field.pow_elem(a2[-1], 1 << j)))
            a1 = _tau_submul(a1, c, j, a2, field)
            b1 = _tau_submul(b1, c, j, b2, field)
        (a1, b1), (a2, b2) = (a2, b2), (a1, b1)
    if not a1 or not b2:
        raise SurfaceError("fixed locus is not zero-dimensional")
    return 1 << (len(a1) + len(b2) - 2)


def _system_order(gens, variables):
    """Total colength of a zero-dimensional ideal (g1, g2) in the plane:
    deg * `_colength_at` summed over the orbits of `closed_points`.
    Raises SurfaceError when the locus is not isolated or a colength
    passes COLENGTH_CAP."""
    g1, g2 = gens
    total = 0
    try:
        for pt_field, emb, point, deg, share in closed_points(g1, g2, *variables):
            total += deg * _colength_at(g1, g2, pt_field, emb, point, share)
    except _NonIsolated:
        raise SurfaceError("fixed locus is not zero-dimensional") from None
    return total


# ---------------------------------------------------------------------------
# the classification conditions on candidate derivations


_CANDIDATE_BOUNDS = {"class4": ((4, 2), (2, 4))}
# class-2 candidates are checked through the reconstructed potential only;
# the proof's displayed bounds exist for class 4.


def _within(poly, bound):
    bx, by = bound
    return all(e[0] <= bx and e[1] <= by for e in poly.terms)


def _condition_i(f_poly, g_poly, variables):
    v1, v2 = variables
    fx, fy = f_poly.partial(v1), f_poly.partial(v2)
    gx, gy = g_poly.partial(v1), g_poly.partial(v2)
    if not fy.is_zero() or not gx.is_zero():
        return False, None
    if fx.degree() > 0 or gy.degree() > 0 or fx != gy:
        return False, None
    c = fx.coefficient((0, 0))
    return True, c


def _condition_ii_class4(f_poly, g_poly, field, variables):
    """Degree bounds, stable under y -> y + a x for every a in F_4."""
    fb, gb = _CANDIDATE_BOUNDS["class4"]
    v1, v2 = variables
    x_var = FqPoly.variable(field, variables, v1)
    y_var = FqPoly.variable(field, variables, v2)
    f4 = _f4_elements(field)
    if len(f4) != 4:
        raise SurfaceError("condition (ii) needs F_4 in the field (even degree)")
    for a in f4:
        repl = y_var + x_var.scale(a)
        f_new = f_poly.substitute(v2, repl)
        g_new = (g_poly + f_poly.scale(a)).substitute(v2, repl)
        if not (_within(f_new, fb) and _within(g_new, gb)):
            return False
    return True


def _condition_iii(f_poly, g_poly):
    """Coprimality of the coefficient pair: both are nonzero and their gcd
    is a constant."""
    return (not f_poly.is_zero() and not g_poly.is_zero()
            and poly_gcd_multivariate(f_poly, g_poly).degree() == 0)


def _reconstruct_potential(f_poly, g_poly, field, variables):
    """H with H_{v2} = f and H_{v1} = g, no even-even monomials; None if
    the pair is not such a pair of partials."""
    v1, v2 = variables
    terms = {}
    for (a, b), c in f_poly.terms.items():
        if b % 2:
            return None
        terms[(a, b + 1)] = c
    for (a, b), c in g_poly.terms.items():
        if a % 2:
            return None
        e = (a + 1, b)
        if e in terms:
            if terms[e] != c:
                return None
        else:
            terms[e] = c
    h_poly = FqPoly(field, variables, terms)
    if h_poly.partial(v2) != f_poly or h_poly.partial(v1) != g_poly:
        return None
    return h_poly


def _potential_in_family(h_poly, family, field):
    """(scalar, coefficient dict) if h is a scalar multiple of a family
    potential, else None."""
    lam = h_poly.coefficient(_FIXED_TERMS[family][0])
    if lam == field.zero:
        return None
    try:
        spec = _spec_from_H(family, field, h_poly.scale(field.inv(lam)))
    except SurfaceError:
        return None
    return lam, spec.coeffs


def classify_derivations(family, f_poly, g_poly):
    """Verdict on the classification conditions for D = f d/dx + g d/dy.

    Returns a dict with keys "i", "ii", "iii", "iv" (booleans), "c" (the
    closure scalar when (i) holds), and "hamiltonian" (the reconstructed
    potential data when D is a scalar multiple of H_y d/dx + H_x d/dy for
    an admissible H).  (iv) holds iff f and g are additive up to their
    constant terms and D has a rational fixed point: the origin when both
    constant terms vanish, else a point of residue degree 1 among
    `closed_points`, which is asked only under (iii); translating to the
    point would change only the constants, so it is not carried out.
    """
    field = f_poly.field
    variables = f_poly.vars
    verdict = {"i": False, "ii": False, "iii": False, "iv": False,
               "c": None, "hamiltonian": None}
    ok_i, c = _condition_i(f_poly, g_poly, variables)
    verdict["i"] = ok_i
    if ok_i:
        verdict["c"] = c
    h_poly = _reconstruct_potential(f_poly, g_poly, field, variables)
    fam = None if h_poly is None else _potential_in_family(h_poly, family, field)
    if family == "class4":
        verdict["ii"] = _condition_ii_class4(f_poly, g_poly, field, variables)
    else:
        verdict["ii"] = fam is not None
    verdict["iii"] = _condition_iii(f_poly, g_poly)
    if fam is not None:
        lam, coeffs = fam
        enc = getattr(field, "encode", str)
        verdict["hamiltonian"] = {
            "scalar": enc(lam),
            "coeffs": {n: enc(v) for n, v in sorted(coeffs.items())},
        }
    # (iv); under (iii) the locus is zero-dimensional, so closed_points
    # cannot raise _NonIsolated
    consts = (f_poly.coefficient((0, 0)), g_poly.coefficient((0, 0)))
    additive = all(
        _additive_witness(p - FqPoly.const(field, variables, c)) is None
        for p, c in zip((f_poly, g_poly), consts))
    verdict["iv"] = additive and (
        consts == (field.zero, field.zero)
        or verdict["iii"] and any(
            deg == 1
            for *_, deg, _share in closed_points(f_poly, g_poly, *variables)))
    return verdict
