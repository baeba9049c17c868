import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from spohncurves import (
    CurveComponent,
    DomainError,
    MultiPoly,
    PayoffTables,
    build_cubic,
    build_quadrics,
    classify,
    classify_cases,
    cubic_from_poly,
    decompose_cubic,
    reducibility_verdict,
    spohn_determinants,
    w_membership,
    zero_cubic_classify,
)
from spohncurves import cli, geometry
from spohncurves.geometry import _HORNER, _MONOS, _candidate_lines, _vanishes_on_line
from spohncurves.polynomials import (
    clear_denominators, cross_product, primitive_vector, rat_str)
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
    assert quad.evaluate((0, 0, 0, 1)) == (0, 0)
    # points of the line component y = z, lifted back through det M1 = 0
    assert quad.evaluate((0, 1, 1, -3)) == (0, 0)
    assert quad.evaluate((2, 1, 1, 5)) == (0, 0)
    assert quad.evaluate((1, 1, 1, 1)) != (0, 0)
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
    assert line.point == (0, 1, 1)
    assert conic.point == (0, 1, 0)


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
    verdict = decompose_cubic(cubic_from_poly(q3({(1, 1, 1): 1})))  # xyz
    assert verdict.kind == "Reducible"
    assert sorted(str(c.poly) for c in verdict.components) == ["x", "y", "z"]
    assert all(c.multiplicity == 1 for c in verdict.components)
    assert verdict.scalar == 1

    verdict = decompose_cubic(cubic_from_poly(q3({(2, 1, 0): 1})))  # x^2 y
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
                assert comp.poly.evaluate(comp.point) == 0
                assert any(v != 0 for v in comp.poly.gradient_at(comp.point))


def test_cases_come_from_classify_not_from_the_cubic():
    """A cubic knows no payoffs: `decompose_cubic` reports no cases, and
    `reducibility_verdict` attaches the ones `classify` decided."""
    rng = random.Random(4015)
    for case in range(1, 13):
        g = game_for_case(case, rng)
        assert decompose_cubic(build_cubic(g)).cases is None
        verdict = reducibility_verdict(g)
        assert verdict.cases == classify_cases(g)
        assert case in verdict.cases


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


# the stored denominator is 12 * 12 = 144, but no reduced c_k needs more than 48
@settings(max_examples=150, deadline=None)
@given(line_test_games())
@example(PayoffTables([[F(1, 2), F(3, 4)], [0, F(5, 6)]], [[F(2, 3), 1], [F(-1, 4), 0]]))
def test_spohn_cubic_stores_integers_over_the_table_scales(game):
    """build_cubic stores the integer products over la lb, the scales that
    clear the two tables; `c` gives the Fractions the division by la lb
    gives, and a round trip through `f` gives them back."""
    la, (a11, a12, a21, a22) = clear_denominators(game.A[0] + game.A[1])
    lb, (b11, b12, b21, b22) = clear_denominators(game.B[0] + game.B[1])
    expected = tuple(F(x, la * lb) for x in (
        (a11 - a22) * (b11 - b12), (a11 - a21) * (b22 - b11), (a12 - a22) * (b11 - b12),
        (a11 - a21) * (b22 - b21), (a12 - a22) * (b21 - b12), (a12 - a21) * (b22 - b21),
        (a12 - a21) * (b22 - b11) + (a11 - a22) * (b21 - b12)))
    cubic = build_cubic(game)
    assert cubic.den == la * lb
    assert all(type(x) is int for x in cubic.ints)
    assert cubic.c == expected
    assert cubic_from_poly(cubic.f).c == expected
    assert cubic.is_zero() == (not any(expected))


def _monomials(d):
    """The exponents of the ternary monomials of degree d, lex-descending."""
    return sorted(((i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)),
                  reverse=True)


def _integer_vector(p: MultiPoly) -> list:
    """p's coefficient vector over `_monomials(p.degree())`, scaled by the
    lcm of its coefficient denominators, which has the same zeros."""
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    return [p.coefficient(e).numerator * (lcm // p.coefficient(e).denominator)
            for e in _monomials(p.degree())]


def _restriction_vanishes(p, line):
    """Oracle: expand p on the line through two distinct points of it."""
    pts = []
    for k in range(3):
        v = cross_product(line, tuple(1 if i == k else 0 for i in range(3)))
        if any(v) and primitive_vector(v) not in pts:
            pts.append(primitive_vector(v))
    return p.restrict_to_line(pts[0], pts[1]).is_zero()


@settings(max_examples=80, deadline=None)
@given(line_test_games())
def test_four_point_line_test_matches_restriction(game):
    cubic = build_cubic(game)
    assume(not cubic.is_zero())
    hits = 0
    work = cubic.f
    for line in _candidate_lines(cubic.ints):
        assert all(isinstance(x, int) for x in line)
        while work.degree() >= 1:
            hit = _vanishes_on_line(_integer_vector(work), line)
            assert hit == _restriction_vanishes(work, line)
            if not hit:
                break
            hits += 1
            work = work.divide_by_linear(q3({(1, 0, 0): line[0], (0, 1, 0): line[1],
                                             (0, 0, 1): line[2]}))
    assert (hits > 0) == bool(classify_cases(game))


_BIG = st.integers(-10**12 - 7, 10**12 + 7)
_COORD = st.one_of(st.just(0), st.integers(-9, 9), _BIG)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.data())
def test_horner_evaluation_is_the_sum_over_the_monomials(d, data):
    """Each degree's fixed Horner expression is the plain sum of its
    coefficients times the monomials of `_MONOS[d]`, which are the
    lex-descending ones; entries up to ~10^12, points with zero coordinates."""
    assert list(_MONOS[d]) == _monomials(d)
    form = data.draw(st.lists(st.one_of(st.just(0), _BIG), min_size=len(_MONOS[d]),
                              max_size=len(_MONOS[d])))
    x, y, z = data.draw(st.tuples(_COORD, _COORD, _COORD))
    plain = sum(k * x ** e[0] * y ** e[1] * z ** e[2] for e, k in zip(_MONOS[d], form))
    assert _HORNER[len(form)](form, x, y, z) == plain


def _cleared_primitive(v):
    """The primitive vector by clearing denominators first, for every input."""
    ints = clear_denominators(v)[1]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-9, 9), _BIG), min_size=1, max_size=10),
       st.booleans())
def test_primitive_vector_of_integers_and_of_fractions(v, fractions):
    """On ints `primitive_vector` goes straight to the gcd, and on Fractions
    it clears denominators; both give the cleared route's vector, of ints
    with content 1 and first nonzero entry positive."""
    assume(any(v))
    if fractions:
        v = [Fraction(x, 1 + abs(x) % 7) for x in v]
    got = primitive_vector(v)
    assert got == _cleared_primitive(v)
    assert all(type(x) is int for x in got)
    assert math.gcd(*got) == 1 and next(x for x in got if x) > 0
    assert primitive_vector(tuple(Fraction(x) for x in v)) == got


# --- irrational line pairs and the sympy oracle for the decomposition ------------------

def test_irrational_line_pair_gets_a_null_point_at_once():
    """x (y^2 - 2 z^2): the conic's only rational point is its singular
    vertex [1:0:0], so the split reports it null at once."""
    start = time.perf_counter()
    verdict = decompose_cubic(cubic_from_poly(q3({(1, 2, 0): 1, (1, 0, 2): -2})))
    assert time.perf_counter() - start < 0.5
    line, conic = verdict.components
    assert (line.kind, line.poly, line.multiplicity) == ("line", q3({(1, 0, 0): 1}), 1)
    assert line.point == (0, 0, 1)
    assert (conic.kind, conic.poly, conic.point) == (
        "conic", q3({(0, 2, 0): 1, (0, 0, 2): -2}), None)


# the coordinate points e_k a factor passes through: a line through e_k has
# coefficient k zero (at most two of them), a quadric its x_k^2 coefficient
_LINE_ZEROS = [set(z) for r in range(3) for z in itertools.combinations(range(3), r)]
_QUADRIC_ZEROS = _LINE_ZEROS + [{0, 1, 2}]
_SHAPES = [  # (factor degrees, multiplicities, zero-set choices covering e_0, e_1, e_2)
    ((1, 2), (1, 1), itertools.product(_LINE_ZEROS, _QUADRIC_ZEROS)),
    ((1, 1), (1, 2), itertools.product(_LINE_ZEROS, repeat=2)),
    ((1, 1, 1), (1, 1, 1), itertools.product(_LINE_ZEROS, repeat=3)),
]
_SHAPES = [(degrees, mults, [zs for zs in choices if set().union(*zs) == {0, 1, 2}])
           for degrees, mults, choices in _SHAPES]


def _mono(*ks):
    """The exponent of x_k1 x_k2 ..."""
    return tuple(ks.count(i) for i in range(3))


def _nonzero(draw):
    return _entries(draw) or 1


def _factor(draw, degree, zeros):
    if degree == 1:
        return q3({_mono(k): 0 if k in zeros else _nonzero(draw) for k in range(3)})
    terms = {_mono(k, k): 0 if k in zeros else _nonzero(draw) for k in range(3)}
    terms.update({_mono(i, j): _entries(draw) for i, j in ((0, 1), (0, 2), (1, 2))})
    if not any(terms.values()):
        terms[_mono(0, 1)] = 1
    return q3(terms)


@st.composite
def split_cubics(draw):
    """Factors (form, multiplicity) of a cubic that vanishes at each
    coordinate point because one factor does: line x quadric,
    line x line^2, line x line x line, or a coordinate line x a binary
    quadric in the other two variables."""
    shape = draw(st.integers(0, 3))
    if shape == 3:
        k = draw(st.integers(0, 2))
        u, v = (i for i in range(3) if i != k)
        binary = q3({_mono(u, u): _entries(draw), _mono(u, v): _entries(draw),
                     _mono(v, v): _nonzero(draw)})
        return [(q3({_mono(k): 1}), 1), (binary, 1)]
    degrees, mults, choices = _SHAPES[shape]
    zero_sets = draw(st.sampled_from(choices))
    return [(_factor(draw, d, z), m) for d, m, z in zip(degrees, mults, zero_sets)]


_SX = sympy.symbols("x y z")


def _monic(terms):
    """Scale a form so that its lex-largest coefficient is 1."""
    lead = terms[max(terms)]
    return tuple(sorted((e, c / lead) for e, c in terms.items()))


def _sympy_factors(f):
    expr = sum(sympy.Rational(c.numerator, c.denominator)
               * _SX[0] ** e[0] * _SX[1] ** e[1] * _SX[2] ** e[2]
               for e, c in f.terms.items())
    _, factors = sympy.factor_list(expr, *_SX, domain="QQ")
    out = []
    for fac, mult in factors:
        poly = sympy.Poly(fac, *_SX)
        if poly.total_degree() > 0:
            out.append((poly.total_degree(), _monic(
                {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}), mult))
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(split_cubics())
@example([(q3({(1, 0, 0): 1}), 1), (q3({(0, 1, 0): 2, (0, 0, 1): 3}), 2)])  # double line
@example([(q3({(1, 0, 0): 1}), 1), (q3({(0, 2, 0): 1, (0, 0, 2): -2}), 1)])  # irrational
@example([(q3({(1, 0, 0): 1}), 1), (q3({(0, 1, 0): 1}), 1),                   # residual line
          (q3({(1, 0, 0): 1, (0, 1, 0): F(-1, 2), (0, 0, 1): 10**12}), 1)])
def test_decomposition_matches_sympy_factorization(factors):
    """The components, with multiplicity, are sympy's factors over Q; null
    points only on conics; every call is fast (no exhausted search)."""
    f = q3({(0, 0, 0): 1})
    for form, mult in factors:
        f = f * form ** mult
    start = time.perf_counter()
    verdict = decompose_cubic(cubic_from_poly(f))
    assert time.perf_counter() - start < 0.5
    expected = _sympy_factors(f)
    irreducible = len(expected) == 1 and expected[0][0] == 3
    assert (verdict.kind == "Irreducible") == irreducible
    if irreducible:
        assert verdict.components == []
        return
    got = []
    for comp in verdict.components:
        coeffs = list(comp.poly.terms.values())
        assert all(c.denominator == 1 for c in coeffs)
        assert math.gcd(*(c.numerator for c in coeffs)) == 1
        assert comp.poly.terms[max(comp.poly.terms)] > 0
        got.append((comp.poly.degree(), _monic(comp.poly.terms), comp.multiplicity))
        if comp.point is None:
            assert comp.kind == "conic"
        else:
            assert comp.poly.evaluate(comp.point) == 0
            assert any(comp.poly.gradient_at(comp.point))
    assert sorted(got) == expected


# --- the MultiPoly decomposition, kept as the reference route ---------------------------

def _ref_conic_matrix(g):
    """Symmetric 3x3 matrix of a ternary quadratic form."""
    M = [[Fraction(0)] * 3 for _ in range(3)]
    for exp, c in g.terms.items():
        i, j = [k for k in range(3) for _ in range(exp[k])]
        if i == j:
            M[i][i] += c
        else:
            M[i][j] += c / 2
            M[j][i] += c / 2
    return M


def _ref_matrix_rank(M):
    """Rank of a small rational matrix by fraction Gaussian elimination."""
    rows = [list(r) for r in M]
    rank, col = 0, 0
    while rank < 3 and col < 3:
        piv = next((r for r in range(rank, 3) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(3):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _ref_sqrt(q):
    """The rational r >= 0 with r^2 = q, or None if q is not a rational square."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None


def _ref_split_conic(g):
    """("irreducible",), ("irrational",) or ("lines", v1, v2, ratio) with
    g == ratio (v1 . x)(v2 . x), on the rational matrix of g."""
    M = _ref_conic_matrix(g)
    if sum(x * y for x, y in zip(M[0], cross_product(M[1], M[2]))) != 0:  # det M
        return ("irreducible",)
    k = next(k for k in range(3) if M[k][k] != 0)
    if _ref_matrix_rank(M) == 1:
        v1 = v2 = primitive_vector(M[k])
    else:
        u, v = (i for i in range(3) if i != k)
        alpha = M[k][k]
        beta = [2 * M[k][u], 2 * M[k][v]]
        d_uu = beta[0] ** 2 - 4 * alpha * M[u][u]
        d_uv = 2 * beta[0] * beta[1] - 8 * alpha * M[u][v]
        d_vv = beta[1] ** 2 - 4 * alpha * M[v][v]
        ru, rv = _ref_sqrt(d_uu), _ref_sqrt(d_vv)
        if ru is None or rv is None:
            return ("irrational",)
        root = next(((ru, s * rv) for s in (1, -1) if 2 * ru * s * rv == d_uv), None)
        if root is None:
            return ("irrational",)
        pair = []
        for s in (1, -1):
            coeffs = [Fraction(0)] * 3
            coeffs[k] = 2 * alpha
            coeffs[u] = beta[0] - s * root[0]
            coeffs[v] = beta[1] - s * root[1]
            pair.append(primitive_vector(coeffs))
        v1, v2 = pair
    prod = [[Fraction(v1[i] * v2[j] + v1[j] * v2[i], 2) for j in range(3)] for i in range(3)]
    i, j = next((i, j) for i in range(3) for j in range(3) if prod[i][j])
    ratio = M[i][j] / prod[i][j]
    assert all(M[i][j] == ratio * prod[i][j] for i in range(3) for j in range(3))
    return ("lines", v1, v2, ratio)


def _ref_point(kind, g):
    """A smooth rational point of a component, or None for a pair of
    conjugate irrational lines; a conic gets a coordinate point or fails."""
    if kind == "line":
        coeffs = [g.coefficient(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        return next(v for v in (cross_product(coeffs, e) for e in
                                ((1, 0, 0), (0, 1, 0), (0, 0, 1))) if any(v))
    for coords in ((0, 1, 0), (1, 0, 0), (0, 0, 1)):
        if g.evaluate(coords) == 0 and any(g.gradient_at(coords)):
            return coords
    if _ref_split_conic(g)[0] == "irrational":
        return None
    raise AssertionError("every residual conic holds a coordinate point, but "
                         f"none is a smooth point of the conic {g}")


def _primitive_poly(p):
    """(q, s) with q integral, content 1, lex-first coefficient > 0 and s q == p."""
    exps = sorted(p.terms, reverse=True)
    ints = primitive_vector([p.terms[e] for e in exps])
    return MultiPoly(p.vars, dict(zip(exps, ints))), p.terms[exps[0]] / ints[0]


def _linear(v):
    return q3({(1, 0, 0): v[0], (0, 1, 0): v[1], (0, 0, 1): v[2]})


def _verdict_json(kind, components=(), scalar=1, cases=None, zero_condition=None):
    """The JSON of a verdict, built here: `components` are (kind, poly,
    multiplicity, point) records, with MultiPoly bytes and each point's
    coordinates over its first nonzero one."""
    return {"kind": kind, "cases": None if cases is None else sorted(cases),
            "zero_condition": zero_condition, "scalar": rat_str(scalar),
            "components": [{"kind": k, "multiplicity": m, "poly": g.to_json(),
                            "point": None if pt is None else _scaled_point(pt)}
                           for k, g, m, pt in components]}


def _scaled_point(v):
    """Rational coordinates over the first nonzero one, printed by `rat_str`."""
    lead = Fraction(next(c for c in v if c))
    return [rat_str(c / lead) for c in v]


def _reference_decompose(cubic):
    """The decomposition on MultiPoly arithmetic, as verdict JSON:
    `divide_by_linear` peels each candidate line that the four-point test
    accepts, the residual conic is split on its rational matrix, and the
    product is multiplied back."""
    if isinstance(cubic, MultiPoly):
        cubic = cubic_from_poly(cubic)
    work = f = cubic.f
    found = {}
    for v in _candidate_lines(cubic.c):
        while work.degree() >= 1 and _vanishes_on_line(_integer_vector(work), v):
            work = work.divide_by_linear(_linear(v))
            found[v] = found.get(v, 0) + 1
    conics, scalar = [], Fraction(1)
    if work.degree() == 3:
        return _verdict_json("Irreducible")
    if work.degree() == 2:
        split = _ref_split_conic(work)
        if split[0] == "lines":
            scalar *= split[3]
            for v in split[1:3]:
                found[v] = found.get(v, 0) + 1
        else:
            prim, s = _primitive_poly(work)
            scalar *= s
            conics.append(("conic", prim, 1))
    elif work.degree() == 1:
        v = primitive_vector([work.coefficient(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])
        prim, s = _primitive_poly(work)
        assert prim == _linear(v)
        scalar *= s
        found[v] = 1
    else:
        scalar *= work.terms[(0, 0, 0)]
    components = [(kind, g, m, _ref_point(kind, g)) for kind, g, m in
                  [("line", _linear(v), m) for v, m in found.items()] + conics]
    prod = MultiPoly.constant(P3, scalar)
    for _, g, m, _ in components:
        prod = prod * g ** m
    assert prod == f
    return _verdict_json("Reducible", components, scalar)


def _reference_verdict(game):
    """`_reference_decompose`'s JSON with the game's cases, or the zero
    cubic's verdict JSON."""
    cubic = build_cubic(game)
    if cubic.is_zero():
        return _verdict_json("ZeroCubic", cases=classify_cases(game),
                             zero_condition=zero_cubic_classify(game))
    return {**_reference_decompose(cubic), "cases": sorted(classify_cases(game))}


def _product(factors):
    f = q3({(0, 0, 0): 1})
    for form, mult in factors:
        f = f * form ** mult
    return f


@settings(max_examples=150, deadline=None)
@given(st.one_of(split_cubics().map(_product), line_test_games()))
@example(_product([(q3({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), 1),    # no zero entry
                   (q3({(1, 1, 0): 1, (1, 0, 1): 2, (0, 1, 1): 3}), 1)]))
@example(_product([(q3({(1, 0, 0): 2, (0, 1, 0): -3, (0, 0, 1): 5}), 1),  # three lines
                   (q3({(1, 0, 0): 1, (0, 1, 0): 1}), 1), (q3({(0, 0, 1): 1}), 1)]))
@example(q3({(1, 1, 1): 1}))                                     # x, y and z
@example(PayoffTables([[4, 0], [3, 3]], [[-3, -3], [1, 4]]))    # z | f, and (7, 4, 3)
@example(PayoffTables([[0, -2], [0, -1]], [[-4, 3], [-4, 1]]))  # y | f, and (7, -7, 10)
def test_candidate_lines_hold_every_rational_line(source):
    """The theorem behind `_candidate_lines`, with sympy's factorization over
    Q as the oracle: a coordinate line is listed iff it divides f, and those
    come first; when none divides f, every linear factor of f, made
    primitive, is listed.  At most eight lines, without repeats."""
    cubic = cubic_from_poly(source) if isinstance(source, MultiPoly) else build_cubic(source)
    assume(not cubic.is_zero())
    lines = _candidate_lines(cubic.ints)
    assert len(lines) <= 8 and len(set(lines)) == len(lines)
    factors = [primitive_vector([dict(terms).get(e, 0) for e in _MONOS[1]])
               for degree, terms, _ in _sympy_factors(cubic.f) if degree == 1]
    coordinate = [v for v in factors if v in _MONOS[1]]
    assert lines[:len(coordinate)] == sorted(coordinate, reverse=True)
    assert not any(v in _MONOS[1] for v in lines[len(coordinate):])
    if not coordinate:
        assert all(v in lines for v in factors)


@settings(max_examples=250, deadline=None)
@given(st.one_of(split_cubics().map(_product), line_test_games()))
@example(_product([(q3({(1, 0, 0): 1}), 1), (q3({(0, 2, 0): 1, (0, 0, 2): -2}), 1)]))
@example(_product([(q3({(1, 0, 0): 1}), 1), (q3({(0, 1, 0): 2, (0, 0, 1): 3}), 2)]))
@example(q3({(1, 1, 1): F(1, 3)}))
@example(q3({(2, 1, 0): -5}))
def test_decomposition_matches_the_reference_route(source):
    """Integer vectors and MultiPoly arithmetic give the same bytes: raw
    cubics of the four split shapes, and random and case games, with small,
    ~10^12 and non-integer entries."""
    if isinstance(source, MultiPoly):
        expected = _reference_decompose(source)
        assert decompose_cubic(cubic_from_poly(source)).to_json() == expected
        return
    expected = _reference_verdict(source)
    assert reducibility_verdict(source).to_json() == expected
    if expected["kind"] != "ZeroCubic":
        assert decompose_cubic(build_cubic(source)).to_json() == {**expected, "cases": None}


@settings(max_examples=120, deadline=None)
@given(st.one_of(line_test_games(), split_cubics().map(_product)))
@example(_product([(q3({(1, 0, 0): 1}), 1), (q3({(0, 2, 0): 1, (0, 0, 2): -2}), 1)]))
@example(_product([(q3({(1, 0, 0): 1}), 1), (q3({(0, 1, 0): 2, (0, 0, 1): 3}), 2)]))
def test_components_build_poly_and_point_on_request(source):
    """A component stores integers: `point` is a primitive integer vector,
    `poly` the MultiPoly of `ints`, and `to_json` prints their bytes."""
    cubic = source if isinstance(source, MultiPoly) else build_cubic(source).f
    assume(not cubic.is_zero())
    for comp in decompose_cubic(cubic_from_poly(cubic)).components:
        d = {"line": 1, "conic": 2}[comp.kind]
        assert len(comp.ints) == len(_MONOS[d])
        assert all(type(k) is int for k in comp.ints)
        assert comp.poly == MultiPoly(P3, dict(zip(_MONOS[d], comp.ints)))
        data = comp.to_json()
        assert json.dumps(data["poly"]) == json.dumps(comp.poly.to_json())
        if comp.point is None:
            assert data["point"] is None
        else:
            assert all(type(c) is int for c in comp.point)
            assert comp.point == primitive_vector(comp.point)
            assert json.dumps(data["point"]) == json.dumps(_scaled_point(comp.point))
        assert data == {"kind": comp.kind, "multiplicity": comp.multiplicity,
                        "poly": comp.poly.to_json(),
                        "point": None if comp.point is None else _scaled_point(comp.point)}


def test_curve_component_constructor():
    """`CurveComponent(kind, ints, multiplicity=1, point=None)` keeps the
    integers and builds nothing until asked."""
    line = CurveComponent("line", (4, 7, -3), point=(0, 3, 7))
    assert (line.multiplicity, line.point) == (1, (0, 3, 7))
    assert line.poly == q3({(1, 0, 0): 4, (0, 1, 0): 7, (0, 0, 1): -3})
    assert line.to_json()["point"] == ["0", "1", "7/3"]
    conic = CurveComponent("conic", (0, 1, 0, 0, 0, -2), 1)
    assert conic.point is None and conic.to_json()["point"] is None
    assert conic.to_json()["poly"] == q3({(1, 1, 0): 1, (0, 0, 2): -2}).to_json()


# --- the twelve-case theorem against sympy's factorization ------------------------------

@settings(max_examples=60, deadline=None)
@given(line_test_games())
@example(game_for_case(1, random.Random(0)))
@example(game_for_case(2, random.Random(0)))
@example(game_for_case(3, random.Random(0)))
@example(game_for_case(4, random.Random(0)))
@example(game_for_case(5, random.Random(0)))
@example(game_for_case(6, random.Random(0)))
@example(game_for_case(7, random.Random(0)))
@example(game_for_case(8, random.Random(0)))
@example(game_for_case(9, random.Random(0)))
@example(game_for_case(10, random.Random(0)))
@example(game_for_case(11, random.Random(0)))
@example(game_for_case(12, random.Random(0)))
def test_twelve_case_theorem_matches_sympy(game):
    """A nonzero cubic has a linear factor over Q iff some case holds.

    Transposing the players swaps p12 and p21 and fixes p22, the centre of
    the projection that gives the plane cubic, so the kind stays.  Swapping
    rows or columns moves the centre, and the plane cubic's kind can change
    (see the test below); the theorem holds for the relabelled game too."""
    kind, cases = classify(game)
    assume(kind != "ZeroCubic")
    for moved in (game, game.swap_rows(), game.swap_cols()):
        cubic = build_cubic(moved)
        if cubic.is_zero():
            continue
        has_line = any(deg == 1 for deg, _, _ in _sympy_factors(cubic.f))
        assert bool(classify_cases(moved)) == has_line
        assert classify(moved)[0] == ("Reducible" if has_line else "Irreducible")
    assert classify(game.transpose_players())[0] == kind


def test_row_and_column_swaps_can_change_the_kind():
    """The plane cubic is the Spohn curve projected from [0:0:0:1].  Here
    the column swap moves that centre: y divides the first cubic (case 2,
    a11 = a21), while the swapped game's cubic is irreducible over Q."""
    g = PayoffTables([[3, 4], [3, -1]], [[7, 6], [3, 0]])
    assert classify(g) == ("Reducible", frozenset({2}))
    assert _sympy_factors(build_cubic(g).f)[0][0] == 1
    assert classify(g.swap_cols()) == ("Irreducible", frozenset())
    assert [deg for deg, _, _ in _sympy_factors(build_cubic(g.swap_cols()).f)] == [3]
    assert classify(g.transpose_players())[0] == "Reducible"


def test_classify_never_decomposes(monkeypatch, pd, g44, capsys):
    """`classify` and an irreducible verdict run no decomposition."""
    def fail(cubic):
        raise AssertionError("decompose_cubic called")
    monkeypatch.setattr(geometry, "decompose_cubic", fail)
    rng = random.Random(4011)
    zero = PayoffTables([[5, 5], [5, 5]], [[1, 2], [3, 4]])
    for g in [pd, g44, zero] + [game_for_case(c, rng) for c in range(1, 13)]:
        kind, cases = classify(g)
        assert kind == _reference_verdict(g)["kind"]
        assert cases == classify_cases(g)
    assert reducibility_verdict(g44).kind == "Irreducible"
    assert cli.run(["classify", "--bimatrix", "2,2 0,3; 3,0 1,1"]) == 0
    assert capsys.readouterr().out == '{"cases": [9, 10], "kind": "Reducible"}\n'


def test_a_case_without_a_rational_line_is_an_internal_error(monkeypatch, g44):
    """A case holding on a cubic that no rational line divides would
    contradict the theorem: the verdict raises rather than report it."""
    monkeypatch.setattr(geometry, "classify", lambda game: ("Reducible", frozenset({1})))
    with pytest.raises(AssertionError, match="twelve-case theorem"):
        reducibility_verdict(g44)
