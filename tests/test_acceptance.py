"""Acceptance gate: one test per numbered criterion, exact unless marked numeric."""

import random
from fractions import Fraction

from spohncurves import (
    MultiPoly,
    PayoffTables,
    PlaneCubic,
    build_cubic,
    build_quadrics,
    classify_cases,
    contfrac_approx,
    cooperation_witness,
    cubic_from_quadrics,
    decompose_cubic,
    game_equivalence,
    j_invariant,
    q_isomorphic,
    rat_str,
    reducibility_verdict,
    sample_curve_points,
    totally_mixed_nash,
    weierstrass_from_cubic,
)
from spohncurves.polynomials import clear_denominators
from caselib import (
    curve, game_for_case, plane_poly, poly, quadric_pair, random_game, sparse, tables, values)

F = Fraction
P4 = ("p11", "p12", "p21", "p22")
P3 = ("x", "y", "z")

ZETA3_30_DIGITS = "1.202056903159594285399738161511"


def q4(terms):
    return MultiPoly(P4, terms)


def q3(terms):
    return MultiPoly(P3, terms)


def test_criterion_01_worked_example_quadrics_cubic_and_j():
    g = PayoffTables([[1, 2], [0, 3]], [[6, 1], [4, 0]])
    q1, q2 = map(poly, build_quadrics(g))
    # -xz + 2xt - 2yz + yt, -5xy - 6xt - 3yz - 4zt  in (x,y,z,t) = (p11,p12,p21,p22)
    assert q1 == q4({(1, 0, 1, 0): -1, (1, 0, 0, 1): 2,
                     (0, 1, 1, 0): -2, (0, 1, 0, 1): 1})
    assert q2 == q4({(1, 1, 0, 0): -5, (1, 0, 0, 1): -6,
                     (0, 1, 1, 0): -3, (0, 0, 1, 1): -4})
    cubic = build_cubic(g)
    # (-10y - 6z)x^2 + (-5y^2 - 18zy - 4z^2)x + (-3zy^2 - 8z^2y)
    assert cubic.f == q3({(2, 1, 0): -10, (2, 0, 1): -6, (1, 2, 0): -5,
                          (1, 1, 1): -18, (1, 0, 2): -4, (0, 2, 1): -3,
                          (0, 1, 2): -8})
    assert j_invariant(PlaneCubic.from_poly(cubic.f)).value == F(2810381476, 227025)


def test_criterion_02_nongeneric_game_case_one_and_singular_j():
    g = PayoffTables([[1, 1], [2, 0]], [[3, -2], [-1, 4]])
    assert classify_cases(g) == frozenset({1})
    cubic = PlaneCubic.from_poly(build_cubic(g).f)
    assert cubic.is_singular()
    res = j_invariant(cubic)
    assert res.value is None and res.to_json() == {"j": "singular"}


def test_criterion_03_non_spohn_quadric_pair_reduction():
    xyzt = ("x", "y", "z", "t")
    P1 = MultiPoly(xyzt, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1,
                          (0, 0, 2, 0): -1, (0, 0, 0, 2): -1})
    P2 = MultiPoly(xyzt, {(1, 0, 1, 0): 1, (0, 1, 1, 0): -1,
                          (0, 1, 0, 1): 1, (0, 0, 1, 1): -1})
    cubic = cubic_from_quadrics(quadric_pair(sparse(P1), sparse(P2), (1, 1, 1, 1)))
    assert plane_poly(cubic) == q3({(3, 0, 0): -1, (1, 2, 0): -1, (2, 0, 1): 3,
                             (0, 2, 1): -1, (1, 0, 2): -1, (0, 1, 2): 2,
                             (0, 0, 3): -1})
    assert j_invariant(cubic).value == F(65536, 37)


def test_criterion_04_coordination_family_cubics_j_and_equivalence():
    games = [
        PayoffTables([[3, 0], [0, 2]], [[2, 1], [0, 3]]),
        PayoffTables([[3, 1], [0, 2]], [[2, 0], [0, 3]]),
        PayoffTables([[3, 0], [0, 2]], [[2, 0], [1, 3]]),
        PayoffTables([[3, 0], [1, 2]], [[2, 0], [0, 3]]),
    ]
    displays = [
        q3({(2, 1, 0): 1, (1, 2, 0): -2, (2, 0, 1): 3, (1, 1, 1): -1,
            (0, 2, 1): 2, (1, 0, 2): 9}),
        q3({(2, 1, 0): 2, (1, 2, 0): -2, (2, 0, 1): 3, (1, 1, 1): 1,
            (0, 1, 2): 3, (1, 0, 2): 9}),
        q3({(2, 1, 0): 2, (1, 2, 0): -4, (2, 0, 1): 3, (1, 1, 1): 1,
            (0, 2, 1): -2, (1, 0, 2): 6}),
        q3({(2, 1, 0): 2, (1, 2, 0): -4, (2, 0, 1): 2, (1, 1, 1): -1,
            (0, 1, 2): -3, (1, 0, 2): 6}),
    ]
    jbos = F(365986170577, 44976384)
    for g, display in zip(games, displays):
        cubic = build_cubic(g)
        assert cubic.f == display
        assert j_invariant(PlaneCubic.from_poly(cubic.f)).value == jbos
    for i in range(4):
        for k in range(i + 1, 4):
            assert game_equivalence(games[i], games[k])["fully_equivalent"]


def test_criterion_05_quadratic_twist_same_j_not_isomorphic():
    A1 = F(103072987022928, 199086408481)
    B1 = F(52977693274235725360768, 88830563686545871)
    E1 = curve(0, 0, 0, A1, B1)
    E2 = curve(0, 0, 0, 25 * A1, 125 * B1)
    assert values(E1).j == F(44564, 446191)
    assert values(E2).j == F(44564, 446191)
    assert q_isomorphic(E1, E2) is False


def test_criterion_06_prisoners_dilemma_geometry_and_cooperation():
    pd = PayoffTables([[2, 0], [3, 1]], [[2, 3], [0, 1]])
    q1, q2 = map(poly, build_quadrics(pd))
    assert q1 == q4({(1, 0, 1, 0): 1, (1, 0, 0, 1): -1,
                     (0, 1, 1, 0): 3, (0, 1, 0, 1): 1})
    assert q2 == q4({(1, 1, 0, 0): 1, (1, 0, 0, 1): -1,
                     (0, 1, 1, 0): 3, (0, 0, 1, 1): 1})
    verdict = reducibility_verdict(pd)
    # the symmetric-game predicate (case 9) holds; these payoffs also satisfy
    # the case-10 equations, so the exact classifier reports both
    assert 9 in verdict.cases
    assert verdict.cases == frozenset({9, 10})
    kinds = sorted(c.kind for c in verdict.components)
    assert kinds == ["conic", "line"]
    assert verdict.scalar != 0
    prod = MultiPoly.constant(P3, verdict.scalar)
    for comp in verdict.components:
        prod = prod * comp.poly ** comp.multiplicity
    assert prod == build_cubic(pd).f
    rep = cooperation_witness(pd)
    assert rep.lam == F(1, 2)
    assert rep.ok  # limit inequalities at r = 10^6 within 1e-6


def test_criterion_07_zeta3_convergents_exact_strings():
    assert rat_str(contfrac_approx(ZETA3_30_DIGITS, 15)) == "1479821/1231074"
    assert rat_str(contfrac_approx(ZETA3_30_DIGITS, 20)) == "461424925/383862797"


def test_criterion_08_nonempty_cases_iff_linear_factor():
    rng = random.Random(880880)
    checked = 0
    while checked < 500:
        g = random_game(rng, lo=-9, hi=9)
        cubic = build_cubic(g)
        if cubic.is_zero():
            continue
        checked += 1
        has_line = any(c.kind == "line"
                       for c in decompose_cubic(cubic).components)
        assert has_line == bool(classify_cases(g)), tables(g)


def test_criterion_09_every_case_decomposes_with_smooth_points():
    rng = random.Random(990990)
    for case in range(1, 13):
        for _ in range(20):
            g = game_for_case(case, rng)
            verdict = reducibility_verdict(g)
            assert verdict.kind == "Reducible", (case, *tables(g))
            assert verdict.components
            for comp in verdict.components:
                assert comp.point is not None, (case, *tables(g))
                assert comp.poly.evaluate(comp.point) == 0
                grad = comp.poly.gradient_at(comp.point)
                assert any(v != 0 for v in grad)


def test_criterion_10_aronhold_and_weierstrass_j_agree():
    rng = random.Random(101010)
    checked = 0
    while checked < 50:
        g = random_game(rng)
        cubic = build_cubic(g)
        if cubic.is_zero():
            continue
        plane = PlaneCubic.from_poly(cubic.f)
        ja = j_invariant(plane)
        if ja.value is None:
            continue
        checked += 1
        # every Spohn cubic passes through [1:0:0]
        model = weierstrass_from_cubic(plane, (1, 0, 0))
        assert values(model).j == ja.value


def test_criterion_11_invariant_covariance_and_unimodular_changes():
    rng = random.Random(111111)

    def ten_coeffs():
        while True:
            co = [F(rng.randint(-5, 5)) for _ in range(10)]
            try:
                return PlaneCubic(*clear_denominators(co))
            except Exception:
                continue

    for _ in range(50):
        cbc = ten_coeffs()
        lam = F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
        scaled = PlaneCubic.from_poly(plane_poly(cbc) * lam)
        S0, T0 = F(cbc.S, cbc.den**4), F(cbc.T, cbc.den**6)
        S1, T1 = F(scaled.S, scaled.den**4), F(scaled.T, scaled.den**6)
        assert S1 == lam ** 4 * S0
        assert T1 == lam ** 6 * T0

    g44 = PayoffTables([[1, 2], [0, 3]], [[6, 1], [4, 0]])
    plane = PlaneCubic.from_poly(build_cubic(g44).f)
    j0 = j_invariant(plane).value
    done = 0
    while done < 20:
        M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
               - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
               + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
        if det not in (1, -1):
            continue
        done += 1
        moved = PlaneCubic.from_poly(plane_poly(plane).substitute_matrix(M))
        assert j_invariant(moved).value == j0


def test_criterion_12_konstanz_determinant_vanishes_on_curve_points():
    import numpy as np

    rng = random.Random(121212)
    checked = 0
    while checked < 50:
        g = random_game(rng)
        cubic = build_cubic(g)
        if cubic.is_zero() or j_invariant(PlaneCubic.from_poly(cubic.f)).value is None:
            continue
        pts = sample_curve_points(g, 10, seed=2000 + checked)
        if not pts:
            continue
        checked += 1
        a, b = ([[float(x) for x in row] for row in T] for T in tables(g))
        for p in pts[:3]:
            p11, p12, p21, p22 = p
            pi1 = a[0][0] * p11 + a[0][1] * p12 + a[1][0] * p21 + a[1][1] * p22
            pi2 = b[0][0] * p11 + b[0][1] * p12 + b[1][0] * p21 + b[1][1] * p22
            K = np.array([
                [pi1 - a[0][0], pi1 - a[0][1], 0.0, 0.0],
                [0.0, 0.0, pi1 - a[1][0], pi1 - a[1][1]],
                [pi2 - b[0][0], 0.0, pi2 - b[1][0], 0.0],
                [0.0, pi2 - b[0][1], 0.0, pi2 - b[1][1]],
            ])
            assert abs(np.linalg.det(K)) < 1e-8, (*tables(g), p)


def test_criterion_13_interior_nash_lies_on_both_quadrics():
    rng = random.Random(131313)
    checked = 0
    while checked < 100:
        g = random_game(rng)
        ne = totally_mixed_nash(g)
        if isinstance(ne, str):
            continue
        checked += 1
        segre = ne.segre().as_tuple()
        q1, q2 = map(poly, build_quadrics(g))
        assert (q1.evaluate(segre), q2.evaluate(segre)) == (0, 0)