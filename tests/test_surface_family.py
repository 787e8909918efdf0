import functools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kummerlab.char2_algebra import (ExtField, FqPoly, factor_univariate, get_field,
                                    poly_gcd_multivariate, resultant)
from kummerlab.char2_algebra.poly import _subresultant_prs
from kummerlab.surface_family import (
    BRANCHES,
    BRANCH_PROFILES,
    DerivationSpec,
    SurfaceError,
    SurfaceSpec,
    classify_by_coefficients,
    classify_derivations,
    classify_full,
    covering_derivation,
    fixed_locus_subgroup_check,
    normalize_spec,
    sample_branch_spec,
    singular_points,
    translate_to_origin,
    z1z2_parametrization_check,
)
from kummerlab.surface_family import derivations, points
from kummerlab.surface_family.derivations import (
    _additive_witness,
    _condition_iii,
    _system_order,
    additive_order,
)
from kummerlab.surface_family.points import (
    COLENGTH_CAP,
    _NonIsolated,
    _colength_at,
    closed_points,
    local_colength,
    matrix_rank,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_classify_by_coefficients_class4():
    f = get_field(2, 4)
    rng = random.Random(1)
    s = SurfaceSpec("class4", f, {"h11": f.rand_nonzero(rng),
                                  "h30": f.rand(rng)})
    assert classify_by_coefficients(s) == "16A1"
    # u = (1, 0, 0, 1): u1 u2 - u0 u3 = 1 != 0 -> off the hypersurface
    s = SurfaceSpec("class4", f, {"h30": f.one, "h03": f.one})
    assert classify_by_coefficients(s) == "4D4"
    s = SurfaceSpec("class4", f, {})  # u = 0 is on every stratum
    assert classify_by_coefficients(s) == "nonRDP"


def test_classify_by_coefficients_class2():
    f = get_field(2, 4)
    cases = [
        ({"h11": 1}, "16A1"),
        ({"h03": 1, "h12": 3}, "4D4"),
        ({"h12": 1, "h05": 1}, "2D8"),
        ({"h12": 1}, "1D16"),
        ({"h05": 1}, "2E8"),
        ({}, "nonRDP"),
    ]
    for coeffs, expect in cases:
        s = SurfaceSpec("class2", f, coeffs)
        assert classify_by_coefficients(s) == expect


def test_classification_needs_normalized():
    f = get_field(2, 4)
    s = SurfaceSpec("class4", f, {"h10": f.one})
    with pytest.raises(SurfaceError):
        classify_by_coefficients(s)


def test_z1z2_parametrization():
    assert z1z2_parametrization_check()


@pytest.mark.parametrize("family", ["class4", "class2"])
@pytest.mark.parametrize("branch", BRANCHES)
def test_branch_profiles(family, branch):
    rng = random.Random(f"profile|{family}|{branch}")
    for e in (4, 5):
        f = get_field(2, e)
        spec = sample_branch_spec(family, branch, f, rng)
        report = classify_full(spec)
        assert report.branch == branch
        n, c = BRANCH_PROFILES[branch]
        assert sum(r.residue_degree for r in report.points) == n
        assert all(r.colength == c for r in report.points)
        assert report.total_colength == 16
        # the double-cover invariant doubles the plane colength
        assert report.to_json()["double_cover_tyurina_total"] == 32


def test_sixteen_a1_points_are_transverse():
    f = get_field(2, 6)
    rng = random.Random(3)
    spec = sample_branch_spec("class4", "16A1", f, rng)
    pts = singular_points(spec)
    assert sum(r.residue_degree for r in pts) == 16
    assert all(r.colength == 1 for r in pts)


def test_nonisolated_detected():
    f = get_field(2, 4)
    # a degenerate H with H_x, H_y sharing the factor x: use the raw
    # machinery through a handmade spec-like object is overkill; instead
    # check that resultant-zero inputs raise through classify on a fake
    # family member is impossible, so drive local_colength directly
    x = FqPoly.variable(f, ("x", "y"), "x")
    with pytest.raises(_NonIsolated):
        local_colength([x, x * x], f)


def test_closed_points_orbits_over_tower():
    # x^4 + x = x (x + 1)(x^2 + x + 1) and y^2 + y = y (y + 1) over F_8;
    # F_4 is not inside F_8, so x^2 + x + 1 is one orbit of degree 2
    f = get_field(2, 3)
    v = ("x", "y")
    x, y = (FqPoly.variable(f, v, n) for n in v)
    g1, g2 = x.pow_int(4) + x, y * y + y
    found = []
    for pt_field, emb, point, deg, share in closed_points(g1, g2, "x", "y"):
        for g in (g1, g2):
            assert g.map_field(pt_field, emb).evaluate(point) == pt_field.zero
        assert isinstance(pt_field, ExtField) == (deg == 2)
        found.append((deg, _colength_at(g1, g2, pt_field, emb, point, share)))
    assert found == [(1, 1)] * 4 + [(2, 1)] * 2
    assert sum(d * c for d, c in found) == 8


def _specialize(poly, key, value, field, embed):
    """poly(key = value) in the other variable, as a dense list over field:
    the powers of value, term by term."""
    other = [v for v in poly.vars if v != key][0]
    ki, oi = poly.vars.index(key), poly.vars.index(other)
    out = [field.zero] * (poly.degree(other) + 1)
    for e, c in poly.terms.items():
        out[e[oi]] = field.add(out[e[oi]],
                               field.mul(embed(c), field.pow_elem(value, e[ki])))
    return field.ring.pack(out)


def element(ext, cs):
    """The tower element with coefficient tuple cs: its residue packed a
    coefficient per byte over a byte-table base, the tuple otherwise."""
    if ext.base.byte_tables is None:
        return tuple(cs)
    return int.from_bytes(bytes(cs), "little")


def _reference_root(fac, field):
    dense = fac.dense_univariate()
    if len(dense) == 2:
        return field, (lambda c: c), field.neg(field.mul(dense[0], field.inv(dense[1])))
    ext = ExtField(field, dense)
    root = element(ext, [field.zero, field.one] + [field.zero] * (len(dense) - 3))
    return ext, ext.embed, root


def _reference_colength(g1, g2, field, embed, point):
    v1, v2 = g1.vars
    a1, a2, b1, b2 = (g.partial(v).map_field(field, embed).evaluate(point)
                      for g in (g1, g2) for v in (v1, v2))
    if field.sub(field.mul(a1, b2), field.mul(a2, b1)) != field.zero:
        return 1
    return local_colength([g.map_field(field, embed).shift(point) for g in (g1, g2)],
                          field)


def _reference_points(g1, g2, key, elim):
    """Reference: the solver's route before specialization by reduction.
    Each factor of the resultant gets a root field, both generators are
    specialized there term by term, and every gcd is factored, linear or
    not.  [(residue degree, coordinates, colength)], or None when the
    locus is not isolated."""
    try:
        if g1.is_zero() or g2.is_zero():
            raise _NonIsolated()
        if g1.degree(elim) > 0 and g2.degree(elim) > 0:
            res = resultant(g1, g2, elim)
        else:
            res = g1 if g1.degree(elim) == 0 else g2
        if res.is_zero():
            raise _NonIsolated()
        out = []
        for fac, _m in factor_univariate(res.restrict_vars((key,)))[1]:
            k_field, embed1, xbar = _reference_root(fac, g1.field)
            s1, s2 = (_specialize(g, key, xbar, k_field, embed1) for g in (g1, g2))
            if not s1 and not s2:
                raise _NonIsolated()
            ring = k_field.ring
            g = ring.gcd(s1, s2)
            if ring.deg(g) < 1:
                continue
            gpoly = FqPoly.from_dense(k_field, elim, ring.key(g))
            for yfac, _m in factor_univariate(gpoly)[1]:
                pt_field, embed2, ybar = _reference_root(yfac, k_field)
                emb = lambda c, e1=embed1, e2=embed2: e2(e1(c))
                point = {key: embed2(xbar), elim: ybar}
                out.append((fac.degree() * yfac.degree(), point,
                            _reference_colength(g1, g2, pt_field, emb, point)))
        return out
    except _NonIsolated:
        return None


def _solver_points(g1, g2, key, elim):
    try:
        return [(deg, point, _colength_at(g1, g2, pt_field, emb, point, share))
                for pt_field, emb, point, deg, share
                in closed_points(g1, g2, key, elim)]
    except _NonIsolated:
        return None


def _quadratic_tower(f):
    """F_q[u]/(u^2 + u + c) for a c that is no value of a^2 + a."""
    values = {f.add(f.mul(a, a), a) for a in f.elements()}
    return ExtField(f, [next(c for c in f.elements() if c not in values), f.one, f.one])


# F_4, F_16 and F_256 solve on the packed ring, F_2^10 and the tower on lists
SOLVER_FIELDS = [get_field(2, 2), get_field(2, 4), get_field(2, 8), get_field(2, 10),
                 _quadratic_tower(get_field(2, 4))]


@st.composite
def solver_systems(draw):
    """(g1, g2) in k[x, y] of degree <= 3 in each variable (4 in y for
    "leads_vanish") over a SOLVER_FIELDS field, half of them through a
    shared rational point.

    Each route of the fibre shares occurs: "free_of_y" keeps g1 in x alone,
    so g1 stands for the resultant and its multiplicities are scaled;
    "leads_vanish" adds (x - a) y^4 to both (times a nonzero scalar), so
    both leading coefficients in y vanish at x = a, the x of the shared
    point; and small fields give fibres of two or more orbits."""
    f = draw(st.sampled_from(SOLVER_FIELDS))
    if isinstance(f, ExtField):
        nonzero = st.tuples(*[st.integers(0, f.base.order - 1)] * 2).map(
            lambda cs: element(f, cs)).filter(lambda c: c != f.zero)
    else:
        nonzero = st.integers(1, f.order - 1)
    kind = draw(st.sampled_from(["random", "free_of_y", "leads_vanish"]))
    v = ("x", "y")

    def poly(y_max):
        expo = st.tuples(st.integers(0, 3), st.integers(0, y_max))
        return FqPoly(f, v, draw(st.dictionaries(expo, nonzero, min_size=1,
                                                 max_size=4)))

    g1, g2 = poly(0 if kind == "free_of_y" else 3), poly(3)
    a = draw(nonzero)
    if kind == "leads_vanish":
        top = FqPoly(f, v, {(1, 4): f.one, (0, 4): f.neg(a)})
        g1, g2 = g1 + top, g2 + top.scale(draw(nonzero))
    if draw(st.booleans()):
        # both through a shared rational point: subtract their values there
        point = {"x": a, "y": draw(nonzero)}
        g1, g2 = (g - FqPoly.const(f, v, g.evaluate(point)) for g in (g1, g2))
    return g1, g2


def _system(e, g1_terms, g2_terms):
    f = get_field(2, e)
    return tuple(FqPoly(f, ("x", "y"), t) for t in (g1_terms, g2_terms))


@settings(PROPERTY, max_examples=120)
@given(solver_systems())
# over F_4: y + x and x^2 + x meet where the gcd at each root is linear;
# at x = 0 the gcd of y^2 + 1 and x is the square (y + 1)^2; at x = 1 it is
# y^2 + y + w, irreducible as Tr(w) = w + w^2 = 1, a point of degree 2
@example(_system(2, {(0, 1): 1, (1, 0): 1}, {(2, 0): 1, (1, 0): 1}))
@example(_system(2, {(0, 2): 1, (0, 0): 1}, {(1, 0): 1}))
@example(_system(2, {(0, 2): 1, (0, 1): 1, (0, 0): 2}, {(1, 0): 1, (0, 0): 1}))
# x^2 + x is free of y, so Res = (x^2 + x)^2: each root has share 1 * 2,
# the colength at (0, 0) and at (1, 1)
@example(_system(2, {(2, 0): 1, (1, 0): 1}, {(0, 2): 1, (1, 0): 1}))
# x y^2 + y and x y^2 + y + x have leading coefficient x: the resultant has
# x^4, while (0, 0) has colength 1, so Fulton's algorithm gives it
@example(_system(2, {(1, 2): 1, (0, 1): 1}, {(1, 2): 1, (0, 1): 1, (1, 0): 1}))
# y^2 + y + x and x y + x meet over x = 0 in two orbits, (0, 0) of colength
# 1 and (0, 1) of colength 2, so no share of the multiplicity 3 is read
@example(_system(2, {(0, 2): 1, (0, 1): 1, (1, 0): 1}, {(1, 1): 1, (1, 0): 1}))
# over F_4, g1 = 2x^3 + 3x^2 + 1 is free of y with a quadratic factor, so
# its root lies in a width-2 tower, where g2 has an irreducible cubic in
# y: an orbit with r = 3 whose share is read off the resultant
@example(_system(2, {(3, 0): 2, (2, 0): 3, (0, 0): 1}, {(3, 3): 2, (3, 0): 1, (0, 0): 3}))
# y (x^3 + 2x^2 + 2) and 2xy^3 + x^2y + 3x^3 over F_4: a fibre over a
# width-2 root holds two orbits, one of them quadratic over that tower, so
# Fulton's algorithm runs at a point in a tower over a tower
@example(_system(2, {(3, 1): 1, (2, 1): 2, (0, 1): 2}, {(1, 3): 2, (2, 1): 1, (3, 0): 3}))
def test_closed_points_match_the_specialize_reference(system):
    g1, g2 = system
    got, want = _solver_points(g1, g2, "x", "y"), _reference_points(g1, g2, "x", "y")
    assert (got is None) == (want is None)
    if got is not None:
        assert sorted(map(repr, got)) == sorted(map(repr, want))


def _no_fulton(polys, field):
    raise AssertionError("local_colength ran")


@pytest.mark.parametrize("e", [4, 8])
def test_class2_colengths_come_from_the_resultant(e):
    # lc_x(H_x) = 1, and every fibre holds one orbit: a linear gcd when
    # h11 != 0, and the square of a linear factor when H_t is free of x
    f = get_field(2, e)
    rng = random.Random(f"shares|{e}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "local_colength", _no_fulton)
        for branch in BRANCHES:
            for _ in range(4):
                spec = sample_branch_spec("class2", branch, f, rng)
                assert classify_full(spec).branch == branch


def test_split_fibres_run_fultons_algorithm():
    # h03 = 0 leaves H_y = x^4 + x free of y, and over F_16 each of its
    # roots carries 4 rational points, whose fibre share is not read
    f = get_field(2, 4)
    spec = SurfaceSpec("class4", f, {"h11": f.one})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(points, "local_colength", _no_fulton)
        with pytest.raises(AssertionError, match="local_colength ran"):
            singular_points(spec)
    assert [r.colength for r in singular_points(spec)] == [1] * 16


def test_condition_iv_computes_no_colength():
    # s^32 + 1 and t^32 + 1 meet only at (1, 1), with colength 32 * 32 = 1024
    f = get_field(2, 2)
    v = ("s", "t")
    s_var, t_var = (FqPoly.variable(f, v, n) for n in v)
    one = FqPoly.const(f, v, f.one)
    gens = s_var.pow_int(32) + one, t_var.pow_int(32) + one
    assert classify_derivations("class4", *gens)["iv"]
    with pytest.raises(SurfaceError, match="fixed locus is not zero-dimensional"):
        _system_order(gens, v)


def _truncated_colength(f_poly, g_poly, field, max_cut):
    """dim field[[x,y]]/(f, g) by truncation below degree N, or None.

    The dimension modulo (f, g) + m^N grows with N until m^N lies in
    (f, g) (Nakayama), so two consecutive equal values are the colength.
    """
    prev = None
    for n_cut in range(1, max_cut + 1):
        monos = [(i, d - i) for d in range(n_cut) for i in range(d + 1)]
        index = {m: k for k, m in enumerate(monos)}
        rows = []
        for poly in (f_poly, g_poly):
            for i, j in monos:
                row = [field.zero] * len(monos)
                for (a, b), c in poly.terms.items():
                    if a + i + b + j < n_cut:
                        row[index[(a + i, b + j)]] = c
                rows.append(row)
        cur = len(monos) - matrix_rank(rows, field)
        if cur == prev:
            return cur
        prev = cur
    return None


F4 = get_field(2, 2)
COLENGTH_FIELDS = [get_field(2, e) for e in (1, 2, 3, 4)] + [
    get_field(3, 1),
    ExtField(F4, [F4.one, F4.one, F4.zero, F4.one]),  # u^3 + u + 1, gcd(3, 2) = 1
]


@st.composite
def plane_cubic_pairs(draw):
    """Two polynomials of degree <= 3 through the origin."""
    field = draw(st.sampled_from(COLENGTH_FIELDS))
    if isinstance(field, ExtField):
        coef = st.tuples(*[st.integers(0, field.base.order - 1)] * field.rel_degree).map(
            lambda cs: element(field, cs))
    else:
        coef = st.integers(0, field.order - 1)
    expo = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: 0 < sum(e) <= 3)
    pair = []
    for axis in ((1, 0), (0, 1)):
        terms = draw(st.dictionaries(expo, coef, min_size=1, max_size=5))
        if draw(st.booleans()):
            # a pure power of x in f and of y in g makes most pairs isolated
            k = draw(st.integers(1, 3))
            terms[(axis[0] * k, axis[1] * k)] = field.one
        pair.append(FqPoly(field, ("x", "y"), terms))
    return (field, *pair)


@settings(PROPERTY, max_examples=300)
@given(plane_cubic_pairs())
def test_colength_matches_truncated_count(pair):
    field, f_poly, g_poly = pair
    common = poly_gcd_multivariate(f_poly, g_poly)
    if common.coefficient((0, 0)) == field.zero:
        # a common curve through the origin
        with pytest.raises(_NonIsolated):
            local_colength([f_poly, g_poly], field)
        return
    # Bezout: cubics without a common component meet with multiplicity <= 9,
    # so the truncated count settles by N = 11
    expected = _truncated_colength(f_poly, g_poly, field, 11)
    assert expected is not None
    assert local_colength([f_poly, g_poly], field) == expected


def test_colength_cap():
    f = get_field(2, 4)
    x, y = (FqPoly.variable(f, ("x", "y"), v) for v in ("x", "y"))
    assert local_colength([y, x.pow_int(COLENGTH_CAP)], f) == COLENGTH_CAP
    with pytest.raises(_NonIsolated):
        local_colength([y, x.pow_int(COLENGTH_CAP + 1)], f)
    with pytest.raises(_NonIsolated):
        local_colength([x * y, y * (x + y)], f)


def test_translate_to_origin_roundtrip():
    f = get_field(2, 4)
    rng = random.Random(5)
    spec = sample_branch_spec("class4", "16A1", f, rng)
    for rec in singular_points(spec):
        spec_k = spec.map_field(rec.field, rec.embed)
        moved, corr = translate_to_origin(spec_k, (rec.x, rec.y))
        lhs = spec_k.H().shift({"x": rec.x, "y": rec.y})
        assert lhs == moved.H() + corr * corr
    # class 2 as well
    spec2 = sample_branch_spec("class2", "4D4", f, rng)
    for rec in singular_points(spec2):
        spec_k = spec2.map_field(rec.field, rec.embed)
        moved, corr = translate_to_origin(spec_k, (rec.x, rec.y))
        lhs = spec_k.H().shift({"x": rec.x, "t": rec.y})
        assert lhs == moved.H() + corr * corr


def test_translate_rejects_smooth_point():
    f = get_field(2, 4)
    rng = random.Random(7)
    spec = sample_branch_spec("class4", "16A1", f, rng)
    h = spec.H()
    hx, hy = h.partial("x"), h.partial("y")
    for a in f.elements():
        for b in f.elements():
            pt = {"x": a, "y": b}
            if hx.evaluate(pt) != f.zero or hy.evaluate(pt) != f.zero:
                with pytest.raises(SurfaceError):
                    translate_to_origin(spec, (a, b))
                return
    raise AssertionError("no smooth point found")


def test_normalize_extended_specs():
    f = get_field(2, 4)
    rng = random.Random(9)
    maps = []
    for family in ("class4", "class2"):
        extras = {"h10": f.rand_nonzero(rng), "h01": f.rand(rng)}
        if family == "class2":
            extras.update({"h21": f.rand_nonzero(rng),
                           "h14": f.rand_nonzero(rng)})
        base = sample_branch_spec(family, "16A1", f, rng)
        spec = SurfaceSpec(family, f, dict(base.coeffs, **extras))
        assert not spec.normalized
        moved, _corr = normalize_spec(spec)
        assert moved.normalized
        maps.append(classify_by_coefficients(moved))
    assert maps == ["16A1", "16A1"]


@pytest.mark.parametrize("family", ["class4", "class2"])
def test_covering_derivation_closure(family):
    f = get_field(2, 5)
    rng = random.Random(11)
    for branch in ("16A1", "4D4", "1D16"):
        spec = sample_branch_spec(family, branch, f, rng)
        d = covering_derivation(spec)
        expect_c = f.one if branch == "16A1" else f.zero
        assert d.c == expect_c
        # D^2 = cD holds on random polynomials, not only on generators
        for _ in range(10):
            poly = FqPoly(f, d.vars, {(rng.randrange(4), rng.randrange(4)):
                                      f.rand(rng) for _ in range(3)})
            assert d.apply(d.apply(poly)) == d.apply(poly).scale(d.c)


def test_fixed_locus_generators_class4():
    # generators are sqrt(H_y), sqrt(H_x) in the half coordinates
    f = get_field(2, 6)
    rng = random.Random(13)
    spec = sample_branch_spec("class4", "16A1", f, rng)
    d = covering_derivation(spec)
    gens, additive, order, witness = fixed_locus_subgroup_check(d)
    assert additive and order == 16 and witness is None
    c1 = f.inv(f.proot(spec.coeff("h11")))
    expect_ds = FqPoly(f, ("s", "t"), {
        (4, 0): f.one, (2, 0): f.proot(spec.coeff("h21")),
        (0, 2): f.proot(spec.coeff("h03")),
        (1, 0): f.proot(spec.coeff("h11"))}).scale(c1)
    assert d.f == expect_ds


def test_fixed_locus_h07_dichotomy():
    f = get_field(2, 6)
    rng = random.Random(15)
    for _ in range(25):
        base = sample_branch_spec("class2", "16A1", f, rng)
        good = covering_derivation(base)
        _g, additive, order, witness = fixed_locus_subgroup_check(good)
        assert additive and order == 16 and witness is None
        bad_spec = SurfaceSpec("class2", f,
                               dict(base.coeffs, h07=f.rand_nonzero(rng)))
        bad = covering_derivation(bad_spec)
        _g, additive, _o, witness = fixed_locus_subgroup_check(bad)
        assert not additive and witness is not None


@pytest.mark.parametrize("shared", ["s", "t"])
def test_fixed_locus_with_common_factor_rejected(shared):
    # D(s) and D(t) share the factor (shared + 1): a curve of fixed points.
    # With shared = "t" the resultant in t vanishes; with shared = "s" it
    # does not, and both specializations vanish at s = 1 instead.
    f = get_field(2, 4)
    v = ("s", "t")
    s_var, t_var = (FqPoly.variable(f, v, n) for n in v)
    one = FqPoly.const(f, v, f.one)
    common = FqPoly.variable(f, v, shared) + one
    d = DerivationSpec("class4", f, v, common * s_var, common * (t_var + one),
                       f.zero)
    with pytest.raises(SurfaceError, match="fixed locus is not zero-dimensional"):
        fixed_locus_subgroup_check(d)


def test_fixed_points_closed_under_addition():
    # for H = x^4 y + x y^4 + xy the fixed locus is F_4 x F_4 inside F_16;
    # enumerate it and check coordinate-wise sums stay inside
    f = get_field(2, 4)
    spec = SurfaceSpec("class4", f, {"h11": f.one})
    d = covering_derivation(spec)
    pts = [(a, b) for a in f.elements() for b in f.elements()
           if d.f.evaluate({"s": a, "t": b}) == f.zero
           and d.g.evaluate({"s": a, "t": b}) == f.zero]
    assert len(pts) == 16
    ptset = set(pts)
    for (a1, b1) in pts:
        for (a2, b2) in pts:
            assert (f.add(a1, a2), f.add(b1, b2)) in ptset


def _no_system_order(gens, variables):
    raise AssertionError("fixed_locus_subgroup_check ran the closed-point solver")


def test_fixed_locus_h07_nonzero_has_no_order():
    # the check never runs the closed-point solver, which still finds
    # colength 16 on the non-additive generators
    f = get_field(2, 6)
    rng = random.Random(17)
    for _ in range(25):
        base = sample_branch_spec("class2", "16A1", f, rng)
        spec = SurfaceSpec("class2", f, dict(base.coeffs, h07=f.rand_nonzero(rng)))
        d = covering_derivation(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(derivations, "_system_order", _no_system_order)
            gens, additive, order, witness = fixed_locus_subgroup_check(d)
        assert not additive and order is None and witness is not None
        assert _system_order(gens, d.vars) == 16


@st.composite
def non_additive_pairs(draw):
    """(field, g1, g2) of total degree <= 4 in (s, t), not both additive.

    "common" multiplies both by one factor of positive degree and "free_of_t"
    keeps both in s alone, so common factors occur often."""
    f = get_field(2, draw(st.sampled_from([4, 6])))
    kind = draw(st.sampled_from(["random", "common", "free_of_t"]))
    coef = st.integers(1, f.order - 1)

    def poly(max_deg, max_t):
        expo = st.tuples(st.integers(0, max_deg), st.integers(0, max_t)).filter(
            lambda e: sum(e) <= max_deg)
        return FqPoly(f, ("s", "t"),
                      draw(st.dictionaries(expo, coef, min_size=1, max_size=5)))

    max_t = 0 if kind == "free_of_t" else 4
    if kind == "common":
        k = draw(st.integers(1, 2))
        common = poly(k, k)
        assume(common.degree() > 0)
        g1, g2 = common * poly(4 - k, 4 - k), common * poly(4 - k, 4 - k)
    else:
        g1, g2 = poly(4, max_t), poly(4, max_t)
    assume(_additive_witness(g1) is not None or _additive_witness(g2) is not None)
    return f, g1, g2


@PROPERTY
@given(non_additive_pairs())
def test_coprime_generators_iff_the_closed_points_are_isolated(case):
    # Bezout bounds every colength by 4 * 4 = 16 < COLENGTH_CAP, so the
    # closed-point solver raises exactly on a common factor or a zero
    # generator, and the coprimality test must agree with it
    f, g1, g2 = case
    d = DerivationSpec("class4", f, ("s", "t"), g1, g2, f.zero)
    checked = _order_or_none(lambda: fixed_locus_subgroup_check(d))
    closed = _order_or_none(lambda: _system_order((g1, g2), ("s", "t")))
    assert (checked is None) == (closed is None)
    if checked is not None:
        _gens, additive, order, witness = checked
        assert not additive and order is None and witness is not None


@st.composite
def coprimality_pairs(draw):
    """(g1, g2) in k[s, t] over F_2^1..F_2^8: random, with a common factor,
    with a common factor free of t, both free of t, or one of them zero."""
    f = get_field(2, draw(st.integers(1, 8)))
    coef = st.integers(1, f.order - 1)

    def poly(max_s, max_t):
        expo = st.tuples(st.integers(0, max_s), st.integers(0, max_t))
        return FqPoly(f, ("s", "t"),
                      draw(st.dictionaries(expo, coef, min_size=1, max_size=4)))

    kind = draw(st.sampled_from(["random", "common", "common_free_of_t",
                                 "free_of_t", "zero"]))
    max_t = 0 if kind == "free_of_t" else 3
    g1, g2 = poly(3, max_t), poly(3, max_t)
    if kind.startswith("common"):
        common = poly(2, 0 if kind == "common_free_of_t" else 2)
        g1, g2 = g1 * common, g2 * common
    if kind == "zero":
        g1 = FqPoly.zero(f, ("s", "t"))
    return (g1, g2) if draw(st.booleans()) else (g2, g1)


def _resultant_certificate(g1, g2):
    """Reference: the coprimality certificate `_condition_iii` ran on
    byte-table fields before it took the gcd.  Nonzero g1, g2 are coprime
    iff their t-contents are (packed gcds in k[s]) and, when both have
    positive t-degree, Res_t(g1, g2) != 0."""
    if g1.is_zero() or g2.is_zero():
        return False
    ring = g1.field.ring
    fs, gs = (ring.split(p, "t") for p in (g1, g2))
    if functools.reduce(ring.gcd, fs + gs, 0) != 1:
        return False
    return len(fs) == 1 or len(gs) == 1 or _subresultant_prs(fs, gs, ring)[1] != 0


@settings(PROPERTY, max_examples=150)
@given(coprimality_pairs())
def test_resultant_certificate_is_coprimality(pair):
    g1, g2 = pair
    assert _condition_iii(g1, g2) == _resultant_certificate(g1, g2)


def _additive_poly(f, s_coeffs, t_coeffs):
    """sum a_k s^(2^k) + sum b_k t^(2^k)."""
    terms = {(1 << k, 0): c for k, c in enumerate(s_coeffs)}
    terms.update({(0, 1 << k): c for k, c in enumerate(t_coeffs)})
    return FqPoly(f, ("s", "t"), terms)


def _order_or_none(order_fn):
    try:
        return order_fn()
    except SurfaceError as exc:
        assert "fixed locus is not zero-dimensional" in str(exc)
        return None


ADDITIVE_KINDS = ["random", "triangular", "composed", "equal", "free_of_s"]
DEGENERATE_KINDS = {"composed", "equal", "free_of_s"}


@PROPERTY
@given(e=st.sampled_from([4, 6]), kind=st.sampled_from(ADDITIVE_KINDS),
       digits=st.lists(st.integers(-21, 63), min_size=14, max_size=14))
def test_additive_order_matches_the_closed_point_order(e, kind, digits):
    # tau-degree <= 2 in each entry keeps the order <= 16 <= COLENGTH_CAP,
    # where the closed-point total colength is exact; a draw d <= 0 is a
    # zero coefficient, so every tau-degree from 0 to 2 occurs
    f = get_field(2, e)
    els = f.elements()
    c = [els[d % len(els)] if d > 0 else f.zero for d in digits]
    a1, b1, a2, b2, q = c[0:3], c[3:6], c[6:9], c[9:12], c[12:14]
    if kind == "triangular":
        b1 = []                    # g1 free of t
    if kind == "free_of_s":
        a1 = a2 = []
    g1 = _additive_poly(f, a1, b1)
    if kind == "composed":         # g2 = Q(g1) with Q = q0 tau^0 + q1 tau^1
        g2 = g1.scale(q[0]) + (g1 * g1).scale(q[1])
    elif kind == "equal":
        g2 = g1
    else:
        g2 = _additive_poly(f, a2, b2)
    ore = _order_or_none(lambda: additive_order((g1, g2), f))
    closed = _order_or_none(lambda: _system_order((g1, g2), ("s", "t")))
    assert ore == closed
    if kind in DEGENERATE_KINDS:
        assert ore is None


def test_additive_order_above_the_colength_cap():
    # (s^8, t^4) has order 2^(3 + 2) = 32: the Ore reduction has no cap,
    # while the closed-point path counts a local colength above
    # COLENGTH_CAP as non-isolated, so the two methods part here
    f = get_field(2, 4)
    s_var, t_var = (FqPoly.variable(f, ("s", "t"), v) for v in ("s", "t"))
    gens = (s_var.pow_int(8), t_var.pow_int(4))
    assert additive_order(gens, f) == 32 > COLENGTH_CAP
    with pytest.raises(SurfaceError, match="fixed locus is not zero-dimensional"):
        _system_order(gens, ("s", "t"))


def test_classify_derivations_examples():
    f = get_field(2, 6)
    rng = random.Random(19)
    # covering derivations pass everything
    for family in ("class4", "class2"):
        spec = sample_branch_spec(family, "2D8", f, rng)
        d = covering_derivation(spec)
        v = classify_derivations(family, d.f, d.g)
        assert v["i"] and v["ii"] and v["iii"] and v["iv"]
        assert v["hamiltonian"] is not None
    # class 2 Hamiltonian pair with h07 != 0: (i)-(iii) hold, (iv) fails
    base = sample_branch_spec("class2", "4D4", f, rng)
    spec = SurfaceSpec("class2", f, dict(base.coeffs, h07=f.rand_nonzero(rng)))
    h = spec.H()
    v = classify_derivations("class2", h.partial("t"), h.partial("x"))
    assert v["i"] and v["ii"] and v["iii"]
    assert not v["iv"]
    # injecting f_22 breaks the stability part of (ii)
    spec = sample_branch_spec("class4", "16A1", f, rng)
    d = covering_derivation(spec)
    bad = d.f + FqPoly(f, d.vars, {(2, 2): f.rand_nonzero(rng)})
    v = classify_derivations("class4", bad, d.g)
    assert not v["ii"]


def test_classify_derivations_common_factor_in_first_variable():
    # f and g share x + 1 only, so the whole line x = 1 is fixed
    f = get_field(2, 4)
    V = ("x", "y")
    x, y = FqPoly.variable(f, V, "x"), FqPoly.variable(f, V, "y")
    one = FqPoly.const(f, V, f.one)
    f_poly, g_poly = (x + one) * (y + one), (x + one) * (y * y + x)
    v = classify_derivations("class4", f_poly, g_poly)
    assert not (v["i"] or v["ii"] or v["iii"] or v["iv"])


def _st_polys(f, *spec):
    """FqPolys in (s, t) from (s-exponent, t-exponent, coefficient) triples."""
    return FqPoly(f, ("s", "t"), {(a, b): c for a, b, c in spec})


def test_condition_iv_off_the_origin():
    # coprime pairs with nonzero constants: (iv) asks for additive
    # generators up to constants and a rational point of the fixed locus
    f = get_field(2, 2)
    w = 2                                       # a root of s^2 + s + 1
    cases = [
        # s + 1, t + 1: additive, rational fixed point (1, 1)
        ([(1, 0, 1), (0, 0, 1)], [(0, 1, 1), (0, 0, 1)], True),
        # s^2 + s + w has no root in F_4 (trace of w is 1): the fixed
        # points have residue degree 2
        ([(2, 0, 1), (1, 0, 1), (0, 0, w)], [(0, 1, 1), (0, 0, 1)], False),
        # s^3 + 1, t + 1: rational fixed point (1, 1), s^3 not additive
        ([(3, 0, 1), (0, 0, 1)], [(0, 1, 1), (0, 0, 1)], False),
        # s^2 + s + 1 and s + t^4 + t + w: additive up to constants, with
        # the rational fixed point (w, 0)
        ([(2, 0, 1), (1, 0, 1), (0, 0, 1)],
         [(1, 0, 1), (0, 4, 1), (0, 1, 1), (0, 0, w)], True),
    ]
    for f_terms, g_terms, iv in cases:
        f_poly, g_poly = _st_polys(f, *f_terms), _st_polys(f, *g_terms)
        v = classify_derivations("class4", f_poly, g_poly)
        assert v["iii"] and v["iv"] == iv, (f_poly, g_poly)
        assert _brute_force_iv(f_poly, g_poly) == iv


def test_condition_iv_does_not_depend_on_the_variable_order():
    # f = g = v^2 + v + 1 fixes the lines v = w, w^2 over F_4, in the s or
    # the t direction; without (iii) and off the origin (iv) fails both ways
    f = get_field(2, 2)
    for h in (_st_polys(f, (2, 0, 1), (1, 0, 1), (0, 0, 1)),
              _st_polys(f, (0, 2, 1), (0, 1, 1), (0, 0, 1))):
        v = classify_derivations("class4", h, h)
        assert not v["iii"] and not v["iv"]


def _swap_st(poly):
    return FqPoly(poly.field, poly.vars,
                  {(b, a): c for (a, b), c in poly.terms.items()})


def _brute_force_iv(f_poly, g_poly):
    """Reference for (iv): some rational common zero p of f and g at which
    f(v + p) and g(v + p) are additive."""
    f = f_poly.field
    for a in f.elements():
        for b in f.elements():
            p = {"s": a, "t": b}
            if f_poly.evaluate(p) == f.zero and g_poly.evaluate(p) == f.zero \
                    and _additive_witness(f_poly.shift(p)) is None \
                    and _additive_witness(g_poly.shift(p)) is None:
                return True
    return False


@st.composite
def condition_iv_pairs(draw):
    """(f, g) over F_4, F_8 or F_16: additive plus a constant (often zero),
    or random of degree <= 4."""
    f = get_field(2, draw(st.sampled_from([2, 3, 4])))
    coef = st.integers(0, f.order - 1)

    def poly():
        if draw(st.integers(0, 9)) < 7:
            s_part = draw(st.lists(coef, max_size=3))
            t_part = draw(st.lists(coef, max_size=3))
            const = draw(st.one_of(st.just(f.zero), coef))
            return _additive_poly(f, s_part, t_part) + \
                FqPoly.const(f, ("s", "t"), const)
        expo = st.tuples(st.integers(0, 4), st.integers(0, 4))
        return FqPoly(f, ("s", "t"),
                      draw(st.dictionaries(expo, coef, min_size=1, max_size=4)))

    return poly(), poly()


@settings(PROPERTY, max_examples=150)
@given(condition_iv_pairs())
def test_condition_iv_matches_the_brute_force_oracle(pair):
    f_poly, g_poly = pair
    f = f_poly.field
    v = classify_derivations("class2", f_poly, g_poly)
    swapped = classify_derivations("class2", _swap_st(f_poly), _swap_st(g_poly))
    assert swapped["iv"] == v["iv"]
    origin = f_poly.coefficient((0, 0)) == f.zero == g_poly.coefficient((0, 0))
    if v["iii"] or origin:
        assert v["iv"] == _brute_force_iv(f_poly, g_poly)
    else:
        assert not v["iv"]


def test_surface_spec_validation():
    f = get_field(2, 4)
    with pytest.raises(SurfaceError):
        SurfaceSpec("class3", f, {})
    with pytest.raises(SurfaceError):
        SurfaceSpec("class4", f, {"h99": f.one})
