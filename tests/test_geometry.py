import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from spohncurves import (
    DomainError,
    MultiPoly,
    PayoffTables,
    ProjPoint,
    build_cubic,
    build_quadrics,
    classify_cases,
    cubic_from_poly,
    decompose_cubic,
    reducibility_verdict,
    smooth_rational_point,
    spohn_determinants,
    variety_membership,
    w_membership,
    zero_cubic_classify,
)
from spohncurves.geometry import _candidate_lines, _integer_terms, _vanishes_on_line
from spohncurves.polynomials import cross_product
from caselib import case_equations, cases_by_equations, game_for_case, random_game

F = Fraction
P4 = ("p11", "p12", "p21", "p22")
P3 = ("x", "y", "z")


def q4(terms):
    return MultiPoly(P4, terms)


def q3(terms):
    return MultiPoly(P3, terms)


# --- the two quadrics -----------------------------------------------------------------

def test_quadrics_pd_display(pd):
    quad = build_quadrics(pd)
    assert quad.q1 == q4({(1, 0, 1, 0): 1, (1, 0, 0, 1): -1,
                          (0, 1, 1, 0): 3, (0, 1, 0, 1): 1})
    assert quad.q2 == q4({(1, 1, 0, 0): 1, (1, 0, 0, 1): -1,
                          (0, 1, 1, 0): 3, (0, 0, 1, 1): 1})


def test_quadrics_worked_example_display(g44):
    # -xz + 2xt - 2yz + yt and -5xy - 6xt - 3yz - 4zt in (x,y,z,t) = (p11,p12,p21,p22)
    quad = build_quadrics(g44)
    assert quad.q1 == q4({(1, 0, 1, 0): -1, (1, 0, 0, 1): 2,
                          (0, 1, 1, 0): -2, (0, 1, 0, 1): 1})
    assert quad.q2 == q4({(1, 1, 0, 0): -5, (1, 0, 0, 1): -6,
                          (0, 1, 1, 0): -3, (0, 0, 1, 1): -4})


def test_quadric_monomial_support_and_coordinate_points():
    rng = random.Random(4001)
    corners = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    q1_support = {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}
    q2_support = {(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)}
    for _ in range(40):
        quad = build_quadrics(random_game(rng))
        assert set(quad.q1.terms) <= q1_support
        assert set(quad.q2.terms) <= q2_support
        for pt in corners:
            assert quad.evaluate(pt) == (0, 0)


def test_quadrics_agree_with_determinant_route():
    # same forms through two very different computations
    rng = random.Random(4002)
    for _ in range(60):
        g = random_game(rng)
        quad = build_quadrics(g)
        p = tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4))
        assert spohn_determinants(g, p) == quad.evaluate(p)


def test_variety_and_w_membership(pd):
    quad = build_quadrics(pd)
    assert variety_membership(quad, ProjPoint((0, 0, 0, 1)))
    # points of the line component y = z, lifted back through det M1 = 0
    assert variety_membership(quad, (0, 1, 1, -3))
    assert variety_membership(quad, (2, 1, 1, 5))
    assert not variety_membership(quad, (1, 1, 1, 1))
    assert w_membership((1, -1, 2, 3))        # p11 + p12 == 0
    assert not w_membership((F(1, 4),) * 4)


# --- the cubic ------------------------------------------------------------------------

def test_cubic_pd(pd):
    assert build_cubic(pd).c == (-1, 1, 1, -1, 3, -3, 0)


def test_cubic_with_linear_factor_game():
    g = PayoffTables([[1, 1], [2, 0]], [[3, -2], [-1, 4]])
    assert build_cubic(g).c == (5, -1, 5, -5, 1, -5, 0)


def test_cubic_worked_example(g44):
    cubic = build_cubic(g44)
    assert cubic.c == (-10, -6, -5, -4, -3, -8, -18)
    # (-10y - 6z)x^2 + (-5y^2 - 18zy - 4z^2)x + (-3zy^2 - 8z^2y)
    assert cubic.f == q3({(2, 1, 0): -10, (2, 0, 1): -6, (1, 2, 0): -5,
                          (1, 1, 1): -18, (1, 0, 2): -4, (0, 2, 1): -3,
                          (0, 1, 2): -8})


def test_cubic_coordination_family(bos):
    expected = [
        (1, 3, -2, 9, 2, 0, -1),
        (2, 3, -2, 9, 0, 3, 1),
        (2, 3, -4, 6, -2, 0, 1),
        (2, 2, -4, 6, 0, -3, -1),
    ]
    assert [build_cubic(g).c for g in bos] == expected


def test_cubic_has_no_pure_cubes():
    rng = random.Random(4003)
    cubes = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    corners = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(50):
        f = build_cubic(random_game(rng)).f
        for e in cubes:
            assert f.coefficient(e) == 0
        for pt in corners:
            assert f.evaluate(pt) == 0


def test_cubic_affine_rescaling_scales_coefficients():
    rng = random.Random(4004)
    for _ in range(30):
        g = random_game(rng)
        lam1 = F(rng.randint(1, 9), rng.randint(1, 5))
        lam2 = -F(rng.randint(1, 9), rng.randint(1, 5))
        al, be = F(rng.randint(-6, 6)), F(rng.randint(-6, 6))
        h = PayoffTables([[lam1 * x + al for x in row] for row in g.A],
                         [[lam2 * x + be for x in row] for row in g.B])
        assert build_cubic(h).c == tuple(lam1 * lam2 * c for c in build_cubic(g).c)


def test_cubic_from_poly_round_trip():
    rng = random.Random(4005)
    for _ in range(25):
        cubic = build_cubic(random_game(rng))
        if cubic.is_zero():
            continue
        assert cubic_from_poly(cubic.f).c == cubic.c
    with pytest.raises(DomainError):
        cubic_from_poly(q3({(3, 0, 0): 1, (2, 1, 0): 1}))


# --- zero cubic -----------------------------------------------------------------------

def test_zero_cubic_conditions(pd):
    crafted = [
        (PayoffTables([[5, 5], [5, 5]], [[1, 2], [3, 4]]), 1),
        (PayoffTables([[1, 2], [1, 2]], [[3, 3], [7, 7]]), 2),
        (PayoffTables([[2, 2], [5, 2]], [[3, 9], [3, 3]]), 3),
        (PayoffTables([[1, 1], [1, 4]], [[2, 2], [2, 6]]), 4),
    ]
    for g, cond in crafted:
        assert build_cubic(g).is_zero()
        assert zero_cubic_classify(g) == cond
        verdict = reducibility_verdict(g)
        assert verdict.kind == "ZeroCubic" and verdict.zero_condition == cond
        with pytest.raises(DomainError):
            decompose_cubic(build_cubic(g))
    assert zero_cubic_classify(pd) is None


# --- the twelve cases -----------------------------------------------------------------

def test_classifier_matches_equation_oracle():
    rng = random.Random(4006)
    for _ in range(300):
        g = random_game(rng)
        assert classify_cases(g) == cases_by_equations(g)


def test_per_case_games_are_recognized():
    rng = random.Random(4007)
    for case in range(1, 13):
        for _ in range(3):
            g = game_for_case(case, rng)
            assert case in classify_cases(g)
            for val in case_equations(case, g.A, g.B):
                assert val == 0


def test_pd_matches_both_bilinear_triples(pd):
    assert classify_cases(pd) == frozenset({9, 10})


# --- decomposition --------------------------------------------------------------------

def test_pd_decomposition(pd):
    verdict = reducibility_verdict(pd)
    assert verdict.kind == "Reducible"
    assert sorted(verdict.cases) == [9, 10]
    kinds = sorted(c.kind for c in verdict.components)
    assert kinds == ["conic", "line"]
    line = next(c for c in verdict.components if c.kind == "line")
    conic = next(c for c in verdict.components if c.kind == "conic")
    assert line.poly == q3({(0, 1, 0): 1, (0, 0, 1): -1})          # y - z
    assert conic.poly == q3({(2, 0, 0): 1, (1, 1, 0): -1,
                             (1, 0, 1): -1, (0, 1, 1): -3})        # x^2 - xy - xz - 3yz
    assert verdict.scalar == -1
    assert verdict.scalar * line.poly * conic.poly == build_cubic(pd).f
    assert line.point.canonical() == (0, 1, 1)
    assert conic.point.canonical() == (0, 1, 0)


def test_case_one_game_decomposes_with_a_line():
    g = PayoffTables([[1, 1], [2, 0]], [[3, -2], [-1, 4]])
    verdict = reducibility_verdict(g)
    assert verdict.kind == "Reducible"
    assert sorted(verdict.cases) == [1]
    assert any(c.kind == "line" for c in verdict.components)


def test_worked_example_is_irreducible(g44):
    verdict = reducibility_verdict(g44)
    assert verdict.kind == "Irreducible"
    assert verdict.cases == frozenset()
    assert verdict.components == []


def test_decompose_coordinate_monomials():
    verdict = decompose_cubic(q3({(1, 1, 1): 1}))               # xyz
    assert verdict.kind == "Reducible"
    assert sorted(str(c.poly) for c in verdict.components) == ["x", "y", "z"]
    assert all(c.multiplicity == 1 for c in verdict.components)
    assert verdict.scalar == 1

    verdict = decompose_cubic(q3({(2, 1, 0): 1}))               # x^2 y
    by_poly = {str(c.poly): c.multiplicity for c in verdict.components}
    assert by_poly == {"x": 2, "y": 1}


def test_decompose_reconstructs_every_reducible_cubic():
    rng = random.Random(4008)
    seen = 0
    for _ in range(120):
        cubic = build_cubic(random_game(rng))
        if cubic.is_zero():
            continue
        verdict = decompose_cubic(cubic)
        if verdict.kind != "Reducible":
            continue
        seen += 1
        prod = MultiPoly.constant(P3, verdict.scalar)
        for comp in verdict.components:
            prod = prod * comp.poly ** comp.multiplicity
        assert prod == cubic.f
    assert seen >= 10


def test_reducible_iff_some_case_matches():
    rng = random.Random(4009)
    for _ in range(150):
        g = random_game(rng)
        cubic = build_cubic(g)
        if cubic.is_zero():
            continue
        verdict = decompose_cubic(cubic)
        has_line = any(c.kind == "line" for c in verdict.components)
        assert has_line == bool(classify_cases(g))


def test_components_carry_smooth_points():
    rng = random.Random(4010)
    for case in range(1, 13):
        for _ in range(2):
            g = game_for_case(case, rng)
            verdict = reducibility_verdict(g)
            assert verdict.kind == "Reducible"
            for comp in verdict.components:
                assert comp.point is not None
                coords = comp.point.coords
                assert comp.poly.evaluate(coords) == 0
                assert any(v != 0 for v in comp.poly.gradient_at(coords))


def test_smooth_point_search_on_conic_without_coordinate_points():
    from spohncurves.geometry import CurveComponent
    conic = CurveComponent("conic", q3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -2}))
    pt = smooth_rational_point(conic)
    assert conic.poly.evaluate(pt.coords) == 0
    assert any(v != 0 for v in conic.poly.gradient_at(pt.coords))


def test_conic_with_no_rational_points_is_reported():
    from spohncurves.geometry import CurveComponent
    # x^2 + y^2 = 3 z^2 has no rational solutions
    conic = CurveComponent("conic", q3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3}))
    with pytest.raises(DomainError):
        smooth_rational_point(conic)


def test_verdict_json_shape(pd):
    data = reducibility_verdict(pd).to_json()
    assert data["kind"] == "Reducible"
    assert data["cases"] == [9, 10]
    assert data["scalar"] == "-1"
    assert data["zero_condition"] is None
    assert {c["kind"] for c in data["components"]} == {"line", "conic"}
    for c in data["components"]:
        assert c["point"] is not None


# --- the four-point line test against the symbolic restriction ------------------------

def _entries(draw):
    """Payoff entries: small integers, heights near 10^12, or non-integers."""
    return draw(st.one_of(
        st.integers(-9, 9),
        st.integers(-10**12, 10**12),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)))


@st.composite
def line_test_games(draw):
    """Random games (almost never reducible), and case games under an
    affine change of each table, which keeps the case and its linear
    component: a -> lam a + mu, b -> kap b + nu."""
    if draw(st.booleans()):
        return PayoffTables([[_entries(draw) for _ in range(2)] for _ in range(2)],
                            [[_entries(draw) for _ in range(2)] for _ in range(2)])
    g = game_for_case(draw(st.integers(1, 12)),
                      random.Random(draw(st.integers(0, 10**6))))
    lam, kap = (draw(st.fractions(max_denominator=10**6).filter(bool)) * 10**6
                for _ in range(2))
    mu, nu = _entries(draw), _entries(draw)
    return PayoffTables([[lam * x + mu for x in row] for row in g.A],
                        [[kap * x + nu for x in row] for row in g.B])


def _restriction_vanishes(p, line):
    """Oracle: expand p on the line through two distinct points of it."""
    pts = []
    for k in range(3):
        v = cross_product(line, tuple(1 if i == k else 0 for i in range(3)))
        if any(v) and ProjPoint(v) not in pts:
            pts.append(ProjPoint(v))
    return p.restrict_to_line(pts[0], pts[1]).is_zero()


@settings(max_examples=80, deadline=None)
@given(line_test_games())
def test_four_point_line_test_matches_restriction(game):
    cubic = build_cubic(game)
    assume(not cubic.is_zero())
    hits = 0
    work = cubic.f
    for line in _candidate_lines(cubic.c):
        assert all(isinstance(x, int) for x in line)
        while work.degree() >= 1:
            hit = _vanishes_on_line(_integer_terms(work), line)
            assert hit == _restriction_vanishes(work, line)
            if not hit:
                break
            hits += 1
            work = work.divide_by_linear(q3({(1, 0, 0): line[0], (0, 1, 0): line[1],
                                             (0, 0, 1): line[2]}))
    assert (hits > 0) == bool(classify_cases(game))
