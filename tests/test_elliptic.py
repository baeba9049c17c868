import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st
import sympy
from sympy import integer_nthroot

from spohncurves import (
    DomainError,
    MultiPoly,
    PayoffTables,
    PlaneCubic,
    QuadricPair,
    SpohnCubic,
    WeierstrassCurve,
    aronhold,
    build_cubic,
    build_quadrics,
    cubic_from_quadrics,
    game_equivalence,
    j_invariant,
    jacobian,
    q_isomorphic,
    rat,
    rat_str,
    spohn_pair,
    weierstrass_from_cubic,
)
from spohncurves.elliptic import _aronhold_st, _polar
from spohncurves.polynomials import cross_product, primitive_vector, terms_from_json
from caselib import random_game

F = Fraction


def poly3(terms):
    return MultiPoly(("x", "y", "z"), {e: rat(c) for e, c in terms.items()})


def poly4(terms):
    return MultiPoly(("x", "y", "z", "t"), {e: rat(c) for e, c in terms.items()})


def random_ten_coeffs(rng):
    while True:
        co = [F(rng.randint(-5, 5)) for _ in range(10)]
        try:
            return PlaneCubic.from_coeffs(*co)
        except (DomainError, ValueError):
            continue


NON_SPOHN_P1 = poly4({(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                      (0, 0, 2, 0): -1, (0, 0, 0, 2): -1})
NON_SPOHN_P2 = poly4({(1, 0, 1, 0): 1, (0, 1, 1, 0): -1,
                      (0, 1, 0, 1): 1, (0, 0, 1, 1): -1})


# --- Aronhold invariants ----------------------------------------------------------------

def test_fermat_cubic_invariants():
    fermat = PlaneCubic.from_poly(poly3({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}))
    ar = aronhold(fermat)
    assert (ar.S, ar.T) == (0, 1)
    assert ar.disc == F(-1, 1728)
    assert j_invariant(fermat).value == 0


def test_aronhold_scaling_degrees_and_unimodular_invariance():
    rng = random.Random(4474)
    for _ in range(40):
        cbc = random_ten_coeffs(rng)
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = PlaneCubic.from_poly(cbc.poly * lam)
        a0, a1 = aronhold(cbc), aronhold(scaled)
        assert a1.S == lam ** 4 * a0.S
        assert a1.T == lam ** 6 * a0.T
        if a0.disc != 0:
            assert j_invariant(scaled).value == j_invariant(cbc).value
        while True:
            M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            d = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                 - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                 + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
            if d in (1, -1):
                break
        a2 = aronhold(PlaneCubic.from_poly(cbc.poly.substitute_matrix(M)))
        assert (a2.S, a2.T) == (a0.S, a0.T)


TEN_MONOMIALS = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (0, 2, 1),
                 (1, 0, 2), (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1))
coefficients = st.one_of(
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))


def flat_aronhold_st(a, b, c, d, e, f, g, h, i, m) -> tuple:
    """The independent oracle: S and T as the flat 25- and 103-term
    polynomials in the classical labels (the xyz coefficient is m), one
    term per monomial, as `elliptic._aronhold_st` evaluated them before
    it grouped its terms."""
    S = (a*g*e*c - a*g*h**2 - a*m*b*c + a*m*e*h + a*f*b*h - a*f*e**2
         - d**2*e*c + d**2*h**2 + d*i*b*c - d*i*e*h + d*g*m*c - d*g*f*h
         - 2*d*m**2*h + 3*d*m*f*e - d*f**2*b - i**2*b*h + i**2*e**2
         - i*g**2*c + 3*i*g*m*h - i*g*f*e - 2*i*m**2*e + i*m*f*b
         + g**2*f**2 - 2*g*m**2*f + m**4)

    T = (a**2*b**2*c**2 - 3*a**2*e**2*h**2 - 6*a**2*b*e*h*c + 4*a**2*b*h**3
         + 4*a**2*e**3*c - 6*a*d*g*b*c**2 + 18*a*d*g*e*h*c - 12*a*d*g*h**3
         + 12*a*d*m*b*h*c - 24*a*d*m*e**2*c + 12*a*d*m*e*h**2
         - 12*a*d*f*b*h**2 + 6*a*d*f*b*e*c + 6*a*d*f*e**2*h
         + 6*a*i*g*b*h*c - 12*a*i*g*e**2*c + 6*a*i*g*e*h**2
         + 12*a*i*m*b*e*c + 12*a*i*m*e**2*h - 6*a*i*f*b**2*c
         + 18*a*i*f*b*e*h - 24*a*g**2*m*h*c - 24*a*i*m*b*h**2
         - 12*a*i*f*e**3 + 4*a*g**3*c**2 - 12*a*g**2*f*e*c
         + 24*a*g**2*f*h**2 + 36*a*g*m**2*e*c + 12*a*g*m**2*h**2
         + 12*a*g*m*f*b*c - 60*a*g*m*f*e*h - 12*a*g*f**2*b*h
         + 24*a*g*f**2*e**2 - 20*a*m**3*b*c - 12*a*m**3*e*h
         + 36*a*m**2*f*b*h + 12*a*m**2*f*e**2 - 24*a*m*f**2*b*e
         + 4*a*f**3*b**2 + 4*d**3*b*c**2 - 12*d**3*e*h*c + 8*d**3*h**3
         + 24*d**2*i*e**2*c - 12*d**2*i*e*h**2 + 12*d**2*g*m*h*c
         + 6*d**2*g*f*e*c - 24*d**2*m**2*h**2 - 12*d**2*i*b*h*c
         - 3*d**2*g**2*c**2 - 24*g**2*m**2*f**2 + 24*g*m**4*f
         - 12*d**2*g*f*h**2 + 12*d**2*m**2*e*c - 24*d**2*m*f*b*c
         - 27*d**2*f**2*e**2 + 36*d**2*m*f*e*h + 24*d**2*f**2*b*h
         + 24*d*i**2*b*h**2 - 12*d*i**2*b*e*c - 12*d*i**2*e**2*h
         + 6*d*i*g**2*h*c - 60*d*i*g*m*e*c + 36*d*i*g*m*h**2
         + 18*d*i*g*f*b*c - 6*d*i*g*f*e*h + 36*d*i*m**2*b*c
         - 12*d*i*m**2*e*h - 60*d*i*m*f*b*h + 36*d*i*m*f*e**2
         + 6*d*i*f**2*b*e + 12*d*g**2*m*f*c - 12*d*g*m**3*c
         - 12*d*g*m**2*f*h + 36*d*g*m*f**2*e - 12*d*g*f**3*b
         + 24*d*m**4*h + 12*d*m**2*f**2*b + 4*i**3*b**2*c
         + 24*i**2*g**2*e*c - 27*i**2*g**2*h**2 - 36*d*m**3*f*e
         - 12*i**3*b*e*h + 8*i**3*e**3 - 24*i**2*g*m*b*c
         + 36*i**2*g*m*e*h + 6*i**2*g*f*b*h + 12*i**2*m**2*b*h
         - 3*i**2*f**2*b**2 - 12*d*g**2*f**2*h - 12*i**2*g*f*e**2
         - 24*i**2*m**2*e**2 + 12*i**2*m*f*b*e - 12*i*g**3*f*c
         + 12*i*g**2*m**2*c + 36*i*g**2*m*f*h - 12*i*g**2*f**2*e
         - 36*i*g*m**3*h - 12*i*g*m**2*f*e + 12*i*g*m*f**2*b
         + 24*i*m**4*e - 12*i*m**3*f*b + 8*g**3*f**3 - 8*m**6)
    return S, T


def test_grouped_aronhold_is_the_flat_polynomial():
    """The closed form plus the a/b/c group is the flat S and T as
    polynomials, and the closed form alone is their value at a = b = c = 0."""
    a, b, c, *rest = labels = sympy.symbols("a b c d e f g h i m")
    for new, old in zip(_aronhold_st(*labels), flat_aronhold_st(*labels)):
        assert sympy.expand(new - old) == 0
    for new, old in zip(_aronhold_st(0, 0, 0, *rest), flat_aronhold_st(0, 0, 0, *rest)):
        assert sympy.expand(new - old) == 0


label_values = st.one_of(st.integers(-9, 9), coefficients)


@settings(max_examples=300, deadline=None)
@given(st.lists(label_values, min_size=10, max_size=10), st.booleans())
@example([0, 0, 0, 1, 1, 1, 1, 1, 1, 1], True)
@example([1, 0, 0, 2, -3, 5, 7, -11, 13, 6], False)
@example([0, 0, F(1, 3), 10**12, -10**12, 7, 0, F(-2, 9), 1, -3], False)
def test_grouped_aronhold_matches_the_flat_oracle(ten, spohn_shaped):
    """On small, ~10^12 and Fraction labels, with a = b = c = 0 (the shape
    of every Spohn cubic) or not, the grouped S and T equal the flat ones."""
    if spohn_shaped:
        ten[:3] = 0, 0, 0
    assert _aronhold_st(*ten) == flat_aronhold_st(*ten)


def spohn_st(c1, c2, c3, c4, c5, c6, c7) -> tuple:
    """The README's S and T of c1 x^2 y + c2 x^2 z + c3 x y^2 + c4 x z^2
    + c5 y^2 z + c6 y z^2 + c7 x y z, on the labels 2 (c1, ..., c6) and c7,
    with e1, e2 and s taken over u, v, w, p, q; both of its forms."""
    u, v, w, p, q = c1 * c6, c2 * c5, c3 * c4, c1 * c4 * c5, c2 * c3 * c6
    assert p * q == u * v * w
    e1, e2, s = u + v + w, u * v + u * w + v * w, p + q
    S = 16 * (e1**2 - 3 * e2) - 8 * c7**2 * e1 + 24 * c7 * s + c7**4
    T = 8 * (64 * e1**3 - 288 * e1 * e2 - 216 * s**2 + 864 * p * q + 144 * c7 * e1 * s
             - 48 * c7**2 * e1**2 + 72 * c7**2 * e2 - 36 * c7**3 * s + 12 * c7**4 * e1
             - c7**6)
    X, Y = 4 * e1 - c7**2, 8 * (c7 * s - 2 * e2)
    assert (S, T) == (X**2 + 3 * Y, 4 * X * (2 * X**2 + 9 * Y) - 1728 * (p - q)**2)
    return S, T


@settings(max_examples=200, deadline=None)
@given(st.lists(label_values, min_size=8, max_size=8))
@example([1, 2, 0, 3, 6, 1, 4, 0])
@example([F(1, 2), F(3, 4), 0, F(5, 6), F(2, 3), 1, F(-1, 4), 0])
def test_spohn_st_on_the_seven_coefficients(e):
    """S and T on c1...c7, as the README prints them, are the Aronhold
    invariants of `PlaneCubic.from_spohn`: its labels are 2 (c1, c5, c4, c3,
    c6, c2) and c7 over 6 den, so S and T carry (6 den)^4 and (6 den)^6."""
    spohn = build_cubic(PayoffTables([e[0:2], e[2:4]], [e[4:6], e[6:8]]))
    assume(not spohn.is_zero())
    S, T = spohn_st(*spohn.ints)
    inv, n = aronhold(PlaneCubic.from_spohn(spohn)), 6 * spohn.den
    assert (inv.S, inv.T) == (F(S, n**4), F(T, n**6))


@settings(max_examples=150, deadline=None)
@given(st.lists(coefficients, min_size=10, max_size=10))
@example([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
@example([F(1, 2), F(-5, 3), F(7, 11), 0, 0, 0, 0, 0, 0, 0])
@example([0, 0, 0, F(1, 3), F(2, 7), F(-1, 5), F(4, 9), F(1, 2), F(3, 8), F(5, 6)])
def test_integer_aronhold_matches_fraction_formula(ten):
    """The cleared-denominator evaluation equals the flat S/T polynomials
    taken on the Fraction labels, for every ternary cubic, pure cubes
    included."""
    poly = poly3(dict(zip(TEN_MONOMIALS, ten)))
    assume(not poly.is_zero())
    cubic = PlaneCubic.from_poly(poly)
    S, T = flat_aronhold_st(*cubic.coeffs)
    assert all(isinstance(x, Fraction) for x in cubic.coeffs)
    assert aronhold(cubic) == (S, T, (64 * S**3 - T**2) / 1728)


def test_singular_cubic_reports_singular():
    g = PayoffTables([[1, 1], [2, 0]], [[3, -2], [-1, 4]])
    res = j_invariant(PlaneCubic.from_poly(build_cubic(g).f))
    assert res.is_singular and res.value is None
    assert res.to_json() == {"j": "singular"}


# --- quadric pair -> plane cubic ------------------------------------------------------

# The MultiPoly route that `cubic_from_quadrics` replaced, kept as the tests'
# reference: move the common point to [0:0:0:1] by a coordinate swap and a
# substitution, split each quadric as L t + M along powers of t, and expand
# L1 M2 - L2 M1.

def translate_to_infinity(pair: QuadricPair):
    """Send the common point to [0:0:0:1] by permutation + translation.

    If the point's t-coordinate is zero, a recorded coordinate swap brings a
    nonzero coordinate into the last slot first.  Then with the point scaled
    to (x0, y0, z0, 1), substitute (x, y, z, t) -> (x + x0 t, y + y0 t,
    z + z0 t, t).  Returns (new pair, record) where record documents the
    swap and the translation vector.
    """
    coords = [F(c) for c in pair.P]
    swap = None
    if coords[3] == 0:
        k = next(i for i in range(4) if coords[i] != 0)
        swap = k
        coords[k], coords[3] = coords[3], coords[k]

    def permute(p: MultiPoly) -> MultiPoly:
        if swap is None:
            return p
        out = {}
        for exp, c in p.terms.items():
            e = list(exp)
            e[swap], e[3] = e[3], e[swap]
            out[tuple(e)] = c
        return MultiPoly(p.vars, out)

    t0 = coords[3]
    x0, y0, z0 = (coords[0] / t0, coords[1] / t0, coords[2] / t0)
    Q = [
        [1, 0, 0, x0],
        [0, 1, 0, y0],
        [0, 0, 1, z0],
        [0, 0, 0, 1],
    ]
    new1 = permute(pair.P1).substitute_matrix(Q)
    new2 = permute(pair.P2).substitute_matrix(Q)
    assert new1.evaluate((0, 0, 0, 1)) == new2.evaluate((0, 0, 0, 1)) == 0
    record = {
        "swap": swap,
        "translation": [rat_str(x0), rat_str(y0), rat_str(z0)],
    }
    return QuadricPair(new1, new2, (0, 0, 0, 1)), record


class SplitKLM(NamedTuple):
    """P_i = L_i * t + M_i for a pair vanishing at [0:0:0:1] (K_i = 0)."""

    L1: MultiPoly
    M1: MultiPoly
    L2: MultiPoly
    M2: MultiPoly


def split_klm(pair: QuadricPair) -> SplitKLM:
    """Split both quadrics along powers of t; DomainError if the two
    t-linear forms are proportional (the pencil has genus 0)."""
    def split(p: MultiPoly):
        assert p.coefficient((0, 0, 0, 2)) == 0
        L = {exp[:3]: c for exp, c in p.terms.items() if exp[3] == 1}
        M = {exp[:3]: c for exp, c in p.terms.items() if exp[3] == 0}
        return MultiPoly(("x", "y", "z"), L), MultiPoly(("x", "y", "z"), M)

    L1, M1 = split(pair.P1)
    L2, M2 = split(pair.P2)
    v1 = [L1.coefficient(tuple(1 if i == k else 0 for i in range(3))) for k in range(3)]
    v2 = [L2.coefficient(tuple(1 if i == k else 0 for i in range(3))) for k in range(3)]
    if all(x == 0 for x in cross_product(v1, v2)):
        raise DomainError("the t-linear forms are proportional: the pencil "
                          "degenerates to a genus-0 configuration")
    return SplitKLM(L1, M1, L2, M2)


def _reference_cubic_from_quadrics(pair: QuadricPair) -> PlaneCubic:
    moved, _ = translate_to_infinity(pair)
    s = split_klm(moved)
    C = s.L1 * s.M2 - s.L2 * s.M1
    if C.is_zero():
        raise DomainError("the pencil degenerates: the eliminant cubic "
                          "vanishes identically")
    return PlaneCubic.from_poly(C)


def _outcome(route, pair):
    """The cubic's JSON bytes, or the DomainError text."""
    try:
        return json.dumps(route(pair).to_json(), sort_keys=True)
    except DomainError as exc:
        return f"DomainError: {exc}"


def test_spohn_pair_split_golden(g44):
    pair = spohn_pair(g44)
    moved, rec = translate_to_infinity(pair)
    assert rec == {"swap": None, "translation": ["0", "0", "0"]}
    s = split_klm(moved)
    assert s.L1 == poly3({(1, 0, 0): 2, (0, 1, 0): 1})
    assert s.M1 == poly3({(1, 0, 1): -1, (0, 1, 1): -2})
    assert s.L2 == poly3({(1, 0, 0): -6, (0, 0, 1): -4})
    assert s.M2 == poly3({(1, 1, 0): -5, (0, 1, 1): -3})
    cub = cubic_from_quadrics(pair)
    assert cub.poly == poly3(dict(build_cubic(g44).f.terms))
    assert cub.poly == _reference_cubic_from_quadrics(pair).poly
    assert j_invariant(cub).value == F(2810381476, 227025)


def test_cubic_from_quadrics_matches_direct_spohn_cubic():
    rng = random.Random(8181)
    checked = 0
    while checked < 20:
        g = random_game(rng)
        direct = build_cubic(g)
        if direct.is_zero():
            continue
        checked += 1
        cub = cubic_from_quadrics(spohn_pair(g))
        assert cub.poly == poly3(dict(direct.f.terms))


def test_non_spohn_pair_pipeline():
    pr = QuadricPair(NON_SPOHN_P1, NON_SPOHN_P2, (1, 1, 1, 1))
    mv, rec = translate_to_infinity(pr)
    assert rec["swap"] is None and rec["translation"] == ["1", "1", "1"]
    sp = split_klm(mv)
    assert sp.L1 == poly3({(1, 0, 0): 2, (0, 1, 0): 2, (0, 0, 1): -2})
    assert sp.M1 == poly3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    assert sp.L2 == poly3({(1, 0, 0): 1, (0, 0, 1): -1})
    assert sp.M2 == poly3({(1, 0, 1): 1, (0, 1, 1): -1})
    cub = cubic_from_quadrics(pr)
    assert cub.poly == poly3({(3, 0, 0): -1, (1, 2, 0): -1, (2, 0, 1): 3,
                              (0, 2, 1): -1, (1, 0, 2): -1, (0, 1, 2): 2,
                              (0, 0, 3): -1})
    assert cub.poly == _reference_cubic_from_quadrics(pr).poly
    tc = cub.coeffs
    assert (tc.a, tc.b, tc.c, tc.d, tc.e, tc.f, tc.g, tc.h, tc.i, tc.m) == \
        (F(-1), F(0), F(-1), F(0), F(-1, 3), F(-1, 3), F(-1, 3), F(2, 3), F(1), F(0))
    assert j_invariant(cub).value == F(65536, 37)


def test_quadric_pair_from_symmetric_matrices():
    mpair = QuadricPair.from_json({
        "A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        "B": [[0, 0, "1/2", 0], [0, 0, "-1/2", "1/2"],
              ["1/2", "-1/2", 0, "-1/2"], [0, "1/2", "-1/2", 0]],
        "point": [1, 1, 1, 1],
    })
    assert mpair.P1 == NON_SPOHN_P1 and mpair.P2 == NON_SPOHN_P2
    assert j_invariant(cubic_from_quadrics(mpair)).value == F(65536, 37)
    # v^T A v reads only the symmetrization (A + A^T)/2: an antisymmetric
    # part changes nothing, and an antisymmetric A is the zero form
    skew = [[0, 2, 0, "1/3"], [-2, 0, 5, 0], [0, -5, 0, -1], ["-1/3", 0, 1, 0]]
    upper_b = [[0, 0, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1], [0, 0, 0, 0]]
    unsym = QuadricPair.from_json({
        "A": [[rat(a) + rat(k) for a, k in zip(ra, rk)] for ra, rk in zip(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], skew)],
        "B": upper_b,
        "point": [1, 1, 1, 1],
    })
    assert unsym.P1 == NON_SPOHN_P1 and unsym.P2 == NON_SPOHN_P2
    assert unsym.to_json() == mpair.to_json()
    with pytest.raises(DomainError, match="^expected nonzero homogeneous quadrics$"):
        QuadricPair.from_json({"A": skew, "B": upper_b, "point": [1, 1, 1, 1]})


def test_translate_swaps_when_last_coordinate_vanishes(g44):
    base = spohn_pair(g44)
    pair = QuadricPair(base.P1, base.P2, (1, 0, 0, 0))
    moved, rec = translate_to_infinity(pair)
    assert rec["swap"] == 0
    assert moved.P == (0, 0, 0, 1)
    # same curve, so the reduction lands at the same j
    assert j_invariant(cubic_from_quadrics(pair)).value == F(2810381476, 227025)
    assert cubic_from_quadrics(pair).poly == _reference_cubic_from_quadrics(pair).poly


# t x + y^2 and t x + z^2 share the linear-in-t part: the pencil drops genus
PROPORTIONAL_L = QuadricPair(poly4({(1, 0, 0, 1): 1, (0, 2, 0, 0): 1}),
                             poly4({(1, 0, 0, 1): 1, (0, 0, 2, 0): 1}), (0, 0, 0, 1))
# x (t + z) and y (t + z) share a plane: L1 M2 - L2 M1 = x yz - y xz = 0
ZERO_ELIMINANT = QuadricPair(poly4({(1, 0, 0, 1): 1, (1, 0, 1, 0): 1}),
                             poly4({(0, 1, 0, 1): 1, (0, 1, 1, 0): 1}), (0, 0, 0, 1))


def test_split_rejects_proportional_linear_parts():
    moved, _ = translate_to_infinity(PROPORTIONAL_L)
    with pytest.raises(DomainError):
        split_klm(moved)
    with pytest.raises(DomainError, match="proportional"):
        cubic_from_quadrics(PROPORTIONAL_L)


CORNERS = ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
pair_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-50, max_value=50, max_denominator=50))


def matrix_poly(M):
    """v^T M v in (x, y, z, t) for a possibly unsymmetric 4x4 matrix M."""
    return MultiPoly(("x", "y", "z", "t"),
                     [(tuple(int(n == i) + int(n == j) for n in range(4)), M[i][j])
                      for i in range(4) for j in range(4)])


def sparse_json(draw, P: MultiPoly) -> dict:
    """P in the sparse-term JSON, each term split in two with the same
    exponent, plus a zero term and a pair of terms that cancel (x^3 - x^3),
    in a drawn order."""
    terms = []
    for e, c in P.terms.items():
        part = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        terms += [(e, c - part), (e, part)]
    junk = draw(st.sampled_from([(3, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 0)]))
    k = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    terms += [(junk, k), (draw(st.sampled_from(list(P.terms) or [junk])), 0), (junk, -k)]
    return {"vars": list(P.vars), "terms": [{"exp": list(e), "coef": rat_str(c)}
                                            for e, c in draw(st.permutations(terms))]}


@st.composite
def quadric_pair_inputs(draw):
    """(P1, P2, point, data): the Spohn quadrics of a game with a corner, or
    random quadrics through a random rational point.  `data` is None, or
    the pair as JSON: sparse terms with repeated, zero and cancelling
    terms, or, for the random pair, possibly unsymmetric A/B matrices whose
    v^T A v and v^T B v are P1 and P2."""
    if draw(st.booleans()):
        e = draw(st.lists(pair_entries, min_size=8, max_size=8))
        q = build_quadrics(PayoffTables([e[0:2], e[2:4]], [e[4:6], e[6:8]]))
        point = draw(st.sampled_from(CORNERS))
        data = None
        if draw(st.booleans()):
            data = {"P1": sparse_json(draw, q.q1), "P2": sparse_json(draw, q.q2),
                    "point": [rat_str(F(x)) for x in point]}
        return q.q1, q.q2, point, data
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    point = draw(st.lists(coord, min_size=3, max_size=3))
    point.append(draw(st.one_of(st.just(F(0)), coord)))
    assume(any(point))
    k = next(i for i in range(4) if point[i])
    mats = []
    for _ in range(2):
        M = [[F(draw(pair_entries)) for _ in range(4)] for _ in range(4)]
        # move the point onto the quadric through the x_k^2 entry
        M[k][k] -= sum(M[i][j] * point[i] * point[j]
                       for i in range(4) for j in range(4)) / point[k] ** 2
        mats.append(M)
    P1, P2 = matrix_poly(mats[0]), matrix_poly(mats[1])
    data = draw(st.sampled_from([None, "A/B", "P1/P2"]))
    if data == "A/B":
        data = {"A": [[rat_str(x) for x in row] for row in mats[0]],
                "B": [[rat_str(x) for x in row] for row in mats[1]],
                "point": [rat_str(x) for x in point]}
    elif data == "P1/P2":
        data = {"P1": sparse_json(draw, P1), "P2": sparse_json(draw, P2),
                "point": [rat_str(x) for x in point]}
    return P1, P2, point, data


def build_pair(P1, P2, point, data):
    try:
        return QuadricPair(P1, P2, point) if data is None else QuadricPair.from_json(data)
    except DomainError:
        assume(False)


@st.composite
def quadric_pairs(draw):
    """Spohn pairs at a corner, or random pairs through a random rational
    point (given as polynomials or as possibly unsymmetric A/B matrices)."""
    return build_pair(*draw(quadric_pair_inputs()))


# through (1/2, 0, 0, -3/4), which clears to (2, 0, 0, -3): a negative pivot
OFF_LATTICE_INPUTS = (
    poly4({(2, 0, 0, 0): 9, (0, 0, 0, 2): -4, (0, 1, 1, 0): 1, (1, 1, 0, 0): 2,
           (0, 0, 1, 1): 1}),
    poly4({(1, 0, 0, 1): 2, (2, 0, 0, 0): 3, (0, 2, 0, 0): 1, (1, 0, 1, 0): -1,
           (0, 1, 0, 1): 1}),
    (F(1, 2), 0, 0, F(-3, 4)), None)


@settings(max_examples=300, deadline=None)
@given(quadric_pairs())
@example(PROPORTIONAL_L)
@example(ZERO_ELIMINANT)
@example(QuadricPair(NON_SPOHN_P1, NON_SPOHN_P2, (1, 1, 1, 1)))
@example(QuadricPair(*OFF_LATTICE_INPUTS[:3]))
def test_cubic_from_quadrics_matches_the_multipoly_route(pair):
    """The polar identity on the symmetric matrices gives the same cubic,
    byte for byte, as translating, splitting and expanding, and the same
    DomainError text on a degenerate pencil."""
    assert _outcome(cubic_from_quadrics, pair) == \
        _outcome(_reference_cubic_from_quadrics, pair)


def _reference_plane_cubic_json(cubic: PlaneCubic) -> dict:
    """`PlaneCubic.to_json` through the `MultiPoly` and the `Fraction` labels."""
    return {"poly": cubic.poly.to_json(),
            "coefficients": {k: rat_str(v) for k, v in cubic.coeffs._asdict().items()}}


@settings(max_examples=150, deadline=None)
@given(quadric_pair_inputs())
@example(OFF_LATTICE_INPUTS)     # the pivot clears to -3: a negative denominator
def test_plane_cubic_builders_agree(inputs):
    """cubic_from_quadrics, from_poly of its poly and from_coeffs of its
    coefficients may store different integers over different denominators;
    every view of them, and the Weierstrass model, is the same.  The JSON
    printed from the stored integers has the bytes of the reference built
    from the polynomial, key and term order included."""
    try:
        cub = cubic_from_quadrics(build_pair(*inputs))
    except DomainError:
        assume(False)
    assert json.dumps(cub.to_json()) == json.dumps(_reference_plane_cubic_json(cub))
    points = [e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if cub.poly.evaluate(e) == 0]
    for other in (PlaneCubic.from_poly(cub.poly), PlaneCubic.from_coeffs(*cub.coeffs)):
        assert other.coeffs == cub.coeffs
        assert other.poly == cub.poly
        assert aronhold(other) == aronhold(cub)
        if points and aronhold(cub).disc != 0:
            assert repr(weierstrass_from_cubic(other, points[0])) == \
                repr(weierstrass_from_cubic(cub, points[0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(pair_entries, min_size=8, max_size=8), st.integers(-6, 6).filter(bool))
@example([1, 2, 0, 3, 6, 1, 4, 0], 1)
# A over 2 with even differences: the stored denominator 2 is not the least, 1
@example([F(1, 2), F(3, 2), F(-1, 2), F(5, 2), 6, 1, 4, 0], -5)
@example([1, 1, 1, 1, 0, 1, 2, 3], -1)    # the zero cubic
def test_from_spohn_stores_the_integers_of_from_poly(e, k):
    """Reading the labels off a SpohnCubic's seven integers stores the same
    (den, ints) as clearing its polynomial, also when the SpohnCubic's
    denominator is scaled by k, negative included, and prints the same
    bytes; the zero cubic is a DomainError either way."""
    spohn = build_cubic(PayoffTables([e[0:2], e[2:4]], [e[4:6], e[6:8]]))
    for s in (spohn, SpohnCubic(k * spohn.den, [k * x for x in spohn.ints])):
        if s.is_zero():
            with pytest.raises(DomainError):
                PlaneCubic.from_spohn(s)
            with pytest.raises(DomainError):
                PlaneCubic.from_poly(s.f)
            continue
        new, ref = PlaneCubic.from_spohn(s), PlaneCubic.from_poly(s.f)
        assert (new.den, new.ints) == (ref.den, ref.ints)
        assert json.dumps(new.to_json()) == json.dumps(_reference_plane_cubic_json(ref))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(0), coefficients), min_size=10, max_size=10))
@example([0, 0, 0, 0, 0, 0, 0, 0, 0, F(-1, 6)])
@example([F(1, 2), 0, F(-5, 3), 0, 0, 0, 0, F(7, 11), 0, 0])
def test_plane_cubic_json_drops_zero_labels(ten):
    """A cubic with zero labels prints only its nonzero terms, as the
    reference does, and every label."""
    assume(any(ten))
    cub = PlaneCubic.from_coeffs(*ten)
    assert json.dumps(cub.to_json()) == json.dumps(_reference_plane_cubic_json(cub))


def test_zero_eliminant_is_a_domain_error():
    with pytest.raises(DomainError, match="vanishes identically"):
        cubic_from_quadrics(ZERO_ELIMINANT)


def _reference_cleared_matrix(P: MultiPoly) -> tuple:
    """(d, N) through the Fraction matrix: 2 M cleared by the lcm of its
    denominators, d twice that lcm."""
    M2 = [[F(0)] * 4 for _ in range(4)]
    for e, c in P.terms.items():
        i, j = (k for k in range(4) for _ in range(e[k]))
        M2[i][j] = M2[j][i] = 2 * c if i == j else c
    lcm = math.lcm(*[x.denominator for row in M2 for x in row])
    return 2 * lcm, tuple(tuple(int(x * lcm) for x in row) for row in M2)


@settings(max_examples=200, deadline=None)
@given(quadric_pair_inputs(),
       st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=30),
                min_size=4, max_size=4))
@example(OFF_LATTICE_INPUTS, [F(1, 3), F(-2), F(5, 7), F(1)])
def test_quadric_pair_stores_integer_cleared_matrices(inputs, v):
    """Each quadric is stored as (d, N), an integer symmetric matrix over a
    positive integer with P(v) = v^T N v / d, the (d, N) of clearing the
    polynomial's Fraction matrix, also when the pair is read from JSON with
    repeated, zero and cancelling terms; P1 and P2 give back the polynomials
    the pair was built from, in (x, y, z, t), and a JSON round trip stores
    the same (d, N)."""
    P1, P2, point, data = inputs
    pair = build_pair(P1, P2, point, None)
    if data is not None:  # the JSON route stores what the MultiPoly route does
        read = QuadricPair.from_json(data)
        assert (read.quadrics, read.P) == (pair.quadrics, pair.P)
        if "P1" in data:
            for k, P in (("P1", P1), ("P2", P2)):
                variables, terms = terms_from_json(data[k])
                assert MultiPoly(variables, [(e, F(n, d)) for e, n, d in terms]).terms == P.terms
    sources = [MultiPoly(("x", "y", "z", "t"), P.terms) for P in (P1, P2)]
    for (d, N), P, source in zip(pair.quadrics, (pair.P1, pair.P2), sources):
        assert (d, N) == _reference_cleared_matrix(source)
        assert type(d) is int and d > 0
        assert all(type(x) is int for row in N for x in row)
        assert all(N[i][j] == N[j][i] for i in range(4) for j in range(4))
        assert F(sum(N[i][j] * v[i] * v[j] for i in range(4) for j in range(4)),
                 d) == source.evaluate(v)
        assert P == source
    again = QuadricPair.from_json(json.loads(json.dumps(pair.to_json())))
    assert again.quadrics == pair.quadrics
    assert primitive_vector(again.P) == primitive_vector(pair.P)


def test_quadric_pair_validation():
    with pytest.raises(DomainError,
                       match="^the common point does not lie on both quadrics$"):
        QuadricPair(NON_SPOHN_P1, NON_SPOHN_P2, (1, 1, 1, 2))     # not on P2
    with pytest.raises(DomainError, match="^expected nonzero homogeneous quadrics$"):
        QuadricPair(NON_SPOHN_P1, poly4({(1, 0, 0, 0): 1}), (0, 0, 1, 1))
    with pytest.raises(DomainError, match="^quadrics must use exactly 4 variables$"):
        QuadricPair(NON_SPOHN_P1, poly3({(2, 0, 0): 1}), (0, 0, 1, 1))
    with pytest.raises(DomainError, match="^common point must have 4 coordinates$"):
        QuadricPair(NON_SPOHN_P1, NON_SPOHN_P2, (1, 1, 1))


# --- Weierstrass models -----------------------------------------------------------------

def test_weierstrass_b_and_c_invariants():
    E = WeierstrassCurve.from_short(0, 1)
    assert (E.c4, E.c6, E.disc, E.j()) == (0, -864, -432, 0)
    E = WeierstrassCurve.from_short(1, 0)
    assert (E.c4, E.disc, E.j()) == (-48, -64, 1728)
    E = WeierstrassCurve(1, 2, 3, 4, 6)
    assert (E.b2, E.b4, E.b6, E.b8) == (9, 11, 33, 44)
    assert 1728 * E.disc == E.c4 ** 3 - E.c6 ** 2


@settings(max_examples=200, deadline=None)
@given(st.lists(pair_entries, min_size=5, max_size=5))
@example([0, 0, 0, 0, 0])     # y^2 = x^3: a cusp, c4 = c6 = 0
@example([0, 0, 0, -3, 2])    # y^2 = (x - 1)^2 (x + 2): a node, c4 != 0
@example([0, 0, 1, 0, 0])     # j = 0
@example([0, 0, 0, F(-1, 3), 0])  # j = 1728
# denominators that differ across weights
@example([F(1, 2), 0, 0, 0, F(1, 3**7)])
@example([0, 0, F(-5, 12), F(7, 8), 0])
@example([F(1, 2), F(-2, 3), F(-5, 12), F(7, 8), F(1, 3**7)])
@example([F(3, 10), F(1, 7), F(2, 5**3), F(-1, 6**4), F(5, 11)])
def test_weierstrass_invariants_match_the_textbook_expansions(a):
    """The invariants stored at construction, worked out on the integers
    n^w a_w and derived by 4 b8 = b2 b6 - b4^2 and 1728 disc = c4^3 - c6^2,
    equal the general Fraction expansions in a1 ... a6 (Silverman, The
    Arithmetic of Elliptic Curves, III.1), in lowest terms."""
    a1, a2, a3, a4, a6 = (rat(x) for x in a)
    b2 = a1**2 + 4*a2
    b4 = 2*a4 + a1*a3
    b6 = a3**2 + 4*a6
    b8 = a1**2*a6 + 4*a2*a6 - a1*a3*a4 + a2*a3**2 - a4**2
    c4 = b2**2 - 24*b4
    c6 = -b2**3 + 36*b2*b4 - 216*b6
    disc = -b2**2*b8 - 8*b4**3 - 27*b6**2 + 9*b2*b4*b6
    E = WeierstrassCurve(*a)
    stored = (E.b2, E.b4, E.b6, E.b8, E.c4, E.c6, E.disc)
    assert stored == (b2, b4, b6, b8, c4, c6, disc)
    assert all(type(x) is Fraction for x in stored)
    assert all(x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
               for x in stored)
    assert 1728 * E.disc == E.c4**3 - E.c6**2
    assert (E.disc == 0) == (E.c4**3 == E.c6**2) == E.is_singular()
    assert E.j() == (None if disc == 0 else c4**3 / disc)


def test_reduction_at_flex_reads_off_short_form():
    ycubic = poly3({(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): -1})   # y^2 z = x^3 + x z^2
    Ef = weierstrass_from_cubic(PlaneCubic.from_poly(ycubic), (0, 1, 0))
    assert (Ef.a1, Ef.a2, Ef.a3, Ef.a4, Ef.a6) == (0, 0, 0, 1, 0)
    assert Ef.j() == 1728
    En = weierstrass_from_cubic(PlaneCubic.from_poly(ycubic), (0, 0, 1))
    assert En.j() == 1728
    assert q_isomorphic(Ef, En)


def test_reduction_bytes_at_non_integer_points():
    """The models themselves are pinned, not only their Q-isomorphism class,
    for labels and base points with denominators: a flex (y^2 z = x^3 + x z^2
    in other coordinates, scaled by 1/7) and a non-flex point."""
    flex = PlaneCubic.from_coeffs(F(-8, 7), F(3, 7), 0, F(4, 7), F(3, 7), F(-6, 7),
                                  F(-8, 21), F(3, 7), 0, F(-2, 7))
    E = weierstrass_from_cubic(flex, (F(1, 2), 1, F(-1, 3)))
    assert repr(E) == "WeierstrassCurve(6/7, -36/49, -54/343, 486/2401, -2187/117649)"
    general = PlaneCubic.from_coeffs(F(566831, 124740), F(-5, 3), F(7, 11), F(1, 3),
                                     F(2, 7), F(-1, 5), F(4, 9), F(1, 2), F(3, 8), F(5, 6))
    E = weierstrass_from_cubic(general, (F(1, 2), F(-1, 3), 1))
    assert repr(E) == (
        "WeierstrassCurve(0, 0, 0, -1231525435528669377601804227193/5163165920371802112000000, "
        "-782972023284187454531243344917494076261006571/17921925664157559815130002227200000000)")


# Models recorded from the Fraction reduction, before it moved to weighted
# integers: smooth `caselib.random_game` games and games with denominators at
# each coordinate point, and flex and non-flex base points of cubics with
# denominators (short forms, and short forms under rational coordinate changes).
GOLDEN_WEIERSTRASS = json.loads(
    (Path(__file__).parent / "golden_weierstrass.json").read_text(encoding="utf-8"))


def _golden_cubic(entry) -> PlaneCubic:
    if "game" in entry:
        game = PayoffTables(entry["game"]["A"], entry["game"]["B"])
        return PlaneCubic.from_poly(build_cubic(game).f)
    return PlaneCubic.from_coeffs(*entry["coefficients"])


def test_weierstrass_models_match_the_golden_bytes():
    """Each model's JSON, byte for byte, for 41 cubics and base points, 13 of
    them flexes (`flex` in the file is the branch the reduction takes)."""
    assert sum(e["flex"] for e in GOLDEN_WEIERSTRASS) == 13
    got = [json.dumps(weierstrass_from_cubic(_golden_cubic(e), [rat(x) for x in e["point"]])
                      .to_json(), sort_keys=True) for e in GOLDEN_WEIERSTRASS]
    assert got == [e["model"] for e in GOLDEN_WEIERSTRASS]


def test_reduction_certifies_on_random_cubics():
    # every reduction is re-checked internally against the Aronhold j
    rng = random.Random(995521)
    trials = 0
    while trials < 25:
        cbc = random_ten_coeffs(rng)
        if aronhold(cbc).disc == 0:
            continue
        pt = next((cand for cand in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                   if cbc.poly.evaluate(cand) == 0), None)
        if pt is None:
            continue
        trials += 1
        E = weierstrass_from_cubic(cbc, pt)
        assert E.j() == j_invariant(cbc).value


def test_fermat_jacobian():
    fermat = PlaneCubic.from_poly(poly3({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}))
    J = jacobian(fermat)
    assert (J.a1, J.a2, J.a3, J.a4, J.a6) == (0, 0, 0, 0, -432)
    assert q_isomorphic(J, weierstrass_from_cubic(fermat, (1, -1, 0)))


NON_SQUARES = (F(-1), F(2), F(-3), F(5), F(2, 3), F(-7, 5))


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficients, min_size=10, max_size=10),
       st.integers(0, 2), st.sampled_from(NON_SQUARES))
@example([-1, 0, 0, 0, 1, -1, 0, 0, 0, 0], 1, F(2))    # y^2 z = x^3 + x z^2, j = 1728
@example([-1, 0, -1, 0, 1, 0, 0, 0, 0, 0], 1, F(-3))   # y^2 z = x^3 + z^3, j = 0
@example([0, F(1, 2), F(-5, 3), F(1, 3), 0, F(-1, 5), 0, F(1, 2), 0, F(5, 6)], 0, F(-1))
def test_model_is_jacobian_and_its_twist_is_not(ten, k, d):
    """The model through a coordinate point is Q-isomorphic to J_C; its
    quadratic twist by a non-square d has the same j and is not."""
    ten = list(ten)
    ten[k] = 0                                  # the unit point e_k lies on C
    poly = poly3(dict(zip(TEN_MONOMIALS, ten)))
    assume(not poly.is_zero())
    cubic = PlaneCubic.from_poly(poly)
    assume(aronhold(cubic).disc != 0)
    J = jacobian(cubic)
    E = weierstrass_from_cubic(cubic, tuple(int(i == k) for i in range(3)))
    assert q_isomorphic(E, J)
    A, B = -E.c4 / 48, -E.c6 / 864
    assume(B != 0 or d > 0)                     # j = 1728: twists by -s^2 are trivial
    twist = WeierstrassCurve.from_short(d**2 * A, d**3 * B)
    assert twist.j() == J.j() == j_invariant(cubic).value
    assert not q_isomorphic(twist, J)


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficients, min_size=10, max_size=10),
       st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=100),
                min_size=9, max_size=9))
def test_polar_coefficients_match_substitution(ten, entries):
    """In coordinates X u + Y v + Z w, the coefficient of X^a Y^b Z^c is the
    multinomial (3; a, b, c) times T(u^a, v^b, w^c); the generic expansion
    `substitute_matrix` is the independent check."""
    assume(any(ten))
    cubic = PlaneCubic.from_coeffs(*ten)
    u, v, w = entries[0:3], entries[3:6], entries[6:9]
    M = [[u[i], v[i], w[i]] for i in range(3)]            # columns u, v, w
    assume(sum(x * y for x, y in zip(u, cross_product(v, w))) != 0)  # det M
    g = cubic.poly.substitute_matrix(M)
    for a in range(4):
        for b in range(4 - a):
            c = 3 - a - b
            multinomial = 6 // (math.factorial(a) * math.factorial(b) * math.factorial(c))
            args = [u] * a + [v] * b + [w] * c
            assert g.coefficient((a, b, c)) == multinomial * _polar(cubic.coeffs, *args)


def test_reduction_rejects_bad_input():
    g = PayoffTables([[1, 1], [2, 0]], [[3, -2], [-1, 4]])
    singular = PlaneCubic.from_poly(build_cubic(g).f)
    with pytest.raises(DomainError):
        weierstrass_from_cubic(singular, (1, 0, 0))
    with pytest.raises(DomainError):
        jacobian(singular)
    fermat = PlaneCubic.from_poly(poly3({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}))
    with pytest.raises(DomainError):
        weierstrass_from_cubic(fermat, (1, 1, 1))                  # not on the curve
    with pytest.raises(ValueError, match="^projective point needs a nonzero coordinate$"):
        weierstrass_from_cubic(fermat, (0, 0, 0))
    with pytest.raises(DomainError, match="^base point must have 3 coordinates$"):
        weierstrass_from_cubic(fermat, (0, 0, 0, 1))
    with pytest.raises(DomainError, match="^base point must have 3 coordinates$"):
        weierstrass_from_cubic(fermat, (1, -1))


# --- Q-isomorphism ----------------------------------------------------------------------

def test_twist_pair_same_j_not_isomorphic():
    A1 = F(103072987022928, 199086408481)
    B1 = F(52977693274235725360768, 88830563686545871)
    E1 = WeierstrassCurve.from_short(A1, B1)
    E2 = WeierstrassCurve.from_short(25 * A1, 125 * B1)
    assert E1.j() == E2.j() == F(44564, 446191)
    assert not q_isomorphic(E1, E2)
    # honest u = 2 rescaling of the same curve
    assert q_isomorphic(E1, WeierstrassCurve.from_short(16 * A1, 64 * B1))


def test_unit_rescalings_accepted_and_quadratic_twists_rejected():
    A1 = F(103072987022928, 199086408481)
    B1 = F(52977693274235725360768, 88830563686545871)
    E1 = WeierstrassCurve.from_short(A1, B1)
    for u in (F(1), F(2), F(3), F(1, 2)):
        Eu = WeierstrassCurve.from_short(u ** 4 * A1, u ** 6 * B1)
        assert q_isomorphic(E1, Eu)
    for d in (F(5), F(-1), F(7)):
        Ed = WeierstrassCurve.from_short(d ** 2 * A1, d ** 3 * B1)
        assert E1.j() == Ed.j()
        assert not q_isomorphic(E1, Ed)


def test_special_j_power_criteria():
    # j = 0: sixth powers of c6 ratios; j = 1728: fourth powers of c4 ratios
    assert q_isomorphic(WeierstrassCurve.from_short(0, 1), WeierstrassCurve.from_short(0, 64))
    assert not q_isomorphic(WeierstrassCurve.from_short(0, 1), WeierstrassCurve.from_short(0, 2))
    assert q_isomorphic(WeierstrassCurve.from_short(1, 0), WeierstrassCurve.from_short(16, 0))
    assert not q_isomorphic(WeierstrassCurve.from_short(1, 0), WeierstrassCurve.from_short(2, 0))


def test_q_isomorphic_is_an_equivalence_relation():
    pool = [WeierstrassCurve.from_short(a, b) for a, b in
            [(1, 1), (16, 64), (81, 729), (1, 2), (0, 1), (0, 64), (2, 1)]]
    pool = [E for E in pool if not E.is_singular()]
    for Ea in pool:
        assert q_isomorphic(Ea, Ea)
        for Eb in pool:
            assert q_isomorphic(Ea, Eb) == q_isomorphic(Eb, Ea)
            for Ec in pool:
                if q_isomorphic(Ea, Eb) and q_isomorphic(Eb, Ec):
                    assert q_isomorphic(Ea, Ec)


def _is_rational_power(q, k) -> bool:
    """True iff the rational q is r^k for some rational r, by sympy's exact
    integer roots of its numerator and denominator."""
    q = Fraction(q)
    if q < 0 and k % 2 == 0:
        return False
    return integer_nthroot(abs(q.numerator), k)[1] and integer_nthroot(q.denominator, k)[1]


# The Fraction decision that `q_isomorphic` replaced, kept as the tests'
# reference: the same criteria on the rational c4, c6 of each curve.

def _reference_q_isomorphic(E1, E2) -> bool:
    if E1.disc == 0 or E2.disc == 0:
        raise DomainError("q_isomorphic needs nonsingular curves")
    c4, c6 = E1.c4, E1.c6
    c4p, c6p = E2.c4, E2.c6
    if c4 == 0 or c4p == 0:  # j = 0 needs both
        return c4 == c4p and _is_rational_power(c6p / c6, 6)
    if c6 == 0 or c6p == 0:  # j = 1728 needs both
        return c6 == c6p and _is_rational_power(c4p / c4, 4)
    s = (c6p / c6) / (c4p / c4)  # = u^2 if isomorphic
    return c4p == s**2 * c4 and c6p == s**3 * c6 and _is_rational_power(s, 2)


def _changed_model(a, u, r, s, t):
    """The model of the curve a under x = u^2 x' + r, y = u^3 y' + s u^2 x' + t
    (Silverman, Table 3.1): Q-isomorphic to it for every rational u != 0."""
    a1, a2, a3, a4, a6 = a
    return WeierstrassCurve(
        (a1 + 2*s) / u,
        (a2 - s*a1 + 3*r - s**2) / u**2,
        (a3 + r*a1 + 2*t) / u**3,
        (a4 - s*a3 + 2*r*a2 - (t + r*s)*a1 + 3*r**2 - 2*s*t) / u**4,
        (a6 + r*a4 + r**2*a2 + r**3 - t*a3 - t**2 - r*t*a1) / u**6)


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def weierstrass_pairs(draw):
    """(E1, E2, expected): a general curve, its denominators different per
    weight, with a rescaled and moved copy (expected True), its twist by a
    non-square or an unrelated curve (expected None: only the reference
    decides); or j = 0 and j = 1728 pairs whose ratio is a power, a power
    times -1, or any rational."""
    kind = draw(st.sampled_from(("scaled", "twist", "general", "j=0", "j=1728")))
    if kind in ("j=0", "j=1728"):
        k = 6 if kind == "j=0" else 4
        c = draw(nonzero_rationals)
        ratio = draw(st.sampled_from((c**k, -c**k, c**2, c)))
        base = draw(nonzero_rationals)
        if kind == "j=0":
            return WeierstrassCurve.from_short(0, base), \
                WeierstrassCurve.from_short(0, ratio * base), None
        return WeierstrassCurve.from_short(base, 0), \
            WeierstrassCurve.from_short(ratio * base, 0), None
    a = [rat(draw(st.one_of(st.integers(-9, 9),
                             st.fractions(min_value=-50, max_value=50, max_denominator=m))))
         for m in (2, 9, 25, 49, 121)]
    E = WeierstrassCurve(*a)
    if kind == "scaled":
        u = draw(nonzero_rationals)
        r, s, t = draw(small_rationals), draw(small_rationals), draw(small_rationals)
        return E, _changed_model(a, u, r, s, t), True
    if kind == "twist":
        d = draw(st.sampled_from(NON_SQUARES))
        return E, WeierstrassCurve.from_short(-d**2 * E.c4 / 48, -d**3 * E.c6 / 864), None
    return E, WeierstrassCurve(*(rat(draw(pair_entries)) for _ in range(5))), None


@settings(max_examples=200, deadline=None)
@given(weierstrass_pairs())
@example((WeierstrassCurve.from_short(0, 0), WeierstrassCurve.from_short(0, 1), None))
@example((WeierstrassCurve(0, 0, 0, -3, 2), WeierstrassCurve.from_short(1, 0), None))
@example((WeierstrassCurve.from_short(0, F(1, 3)),
          WeierstrassCurve.from_short(0, F(64, 3 * 729)), True))
@example((WeierstrassCurve.from_short(F(-2, 5), 0),
          WeierstrassCurve.from_short(F(-2 * 81, 5 * 16), 0), True))
@example((WeierstrassCurve.from_short(F(-2, 5), 0),
          WeierstrassCurve.from_short(F(2, 5), 0), False))
def test_q_isomorphic_matches_the_fraction_reference(pair):
    """The decision on the weighted integers C4, C6 equals the Fraction
    criteria on c4, c6, both ways round; a singular curve raises in both."""
    E1, E2, expected = pair
    if E1.is_singular() or E2.is_singular():
        for decide in (q_isomorphic, _reference_q_isomorphic):
            with pytest.raises(DomainError):
                decide(E1, E2)
        return
    verdict = _reference_q_isomorphic(E1, E2)
    assert q_isomorphic(E1, E2) is verdict
    assert q_isomorphic(E2, E1) is _reference_q_isomorphic(E2, E1) is verdict
    if expected is not None:
        assert verdict is expected


def test_q_isomorphic_rejects_singular_curves():
    with pytest.raises(DomainError):
        q_isomorphic(WeierstrassCurve.from_short(0, 0), WeierstrassCurve.from_short(0, 1))


# --- game equivalence -------------------------------------------------------------------

def test_coordination_family_all_equivalent(bos):
    for i in range(4):
        for k in range(i + 1, 4):
            r = game_equivalence(bos[i], bos[k])
            assert r["same_j"] and r["fully_equivalent"], (i, k, r)
            assert r["j1"] == r["j2"] == "365986170577/44976384"


def test_affine_payoff_rescaling_is_equivalence(g44):
    h = PayoffTables([[F(3, 2) * x + 7 for x in row] for row in g44.A],
                     [[-2 * x + F(1, 3) for x in row] for row in g44.B])
    r = game_equivalence(g44, h)
    assert r["same_j"] and r["fully_equivalent"]


def _relabel(game, rows, cols, players):
    if rows:
        game = game.swap_rows()
    if cols:
        game = game.swap_cols()
    return game.transpose_players() if players else game


RELABELINGS = [(r, c, t) for r in (0, 1) for c in (0, 1) for t in (0, 1)]


@settings(max_examples=100, deadline=None)
@given(st.lists(pair_entries, min_size=8, max_size=8),
       st.fractions(min_value=-50, max_value=-F(1, 50), max_denominator=50),
       st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool),
       pair_entries, pair_entries)
@example([1, 2, 0, 3, 6, 1, 4, 0], F(-3, 2), F(2), F(7), F(-1, 3))
def test_j_and_equivalence_are_invariant_under_relabeling(e, alpha, gamma, beta, delta):
    """Every composition of swap_rows, swap_cols and transpose_players keeps
    j, and game_equivalence finds the relabelled game the same curve up to
    Q-isomorphism; so does an affine map of the payoffs with alpha < 0."""
    g = PayoffTables([e[0:2], e[2:4]], [e[4:6], e[6:8]])
    spohn = build_cubic(g)
    assume(not spohn.is_zero())
    j = j_invariant(PlaneCubic.from_poly(spohn.f)).value
    assume(j is not None)
    for ops in RELABELINGS:
        h = _relabel(g, *ops)
        assert j_invariant(PlaneCubic.from_poly(build_cubic(h).f)).value == j, ops
        r = game_equivalence(g, h)
        assert r["same_j"] and r["fully_equivalent"], ops
    h = PayoffTables([[alpha * x + beta for x in row] for row in g.A],
                     [[gamma * x + delta for x in row] for row in g.B])
    r = game_equivalence(g, h)
    assert r["same_j"] and r["fully_equivalent"]


def test_inequivalent_games_report_different_j(g44, bos):
    r = game_equivalence(g44, bos[0])
    assert not r["same_j"] and not r["fully_equivalent"]


def test_twist_games_share_j_but_are_not_equivalent():
    g1 = PayoffTables([[0, 3], [-3, 0]], [[-2, 0], [3, -3]])
    g2 = PayoffTables([[-3, 0], [0, 2]], [[0, -3], [3, 0]])
    r = game_equivalence(g1, g2)
    assert r["j1"] == r["j2"] == "3631696/2025"
    assert r["same_j"] and not r["fully_equivalent"]


def test_singular_game_equivalence_names_cases(pd, g44):
    with pytest.raises(DomainError) as err:
        game_equivalence(pd, g44)
    msg = str(err.value)
    assert "singular" in msg and "9" in msg and "10" in msg


def test_zero_cubic_game_equivalence_rejected(g44):
    flat = PayoffTables([[1, 1], [1, 1]], [[0, 1], [2, 3]])
    with pytest.raises(DomainError):
        game_equivalence(flat, g44)


def test_j_does_not_depend_on_the_corner_used(g44, bos):
    # all four coordinate points sit on the variety; each gives a plane cubic
    # birational to the same curve
    for g in (g44, bos[0]):
        base = spohn_pair(g)
        models = []
        for corner in ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)):
            pair = QuadricPair(base.P1, base.P2, corner)
            models.append(cubic_from_quadrics(pair))
        js = {j_invariant(m).value for m in models}
        assert len(js) == 1
