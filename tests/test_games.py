import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from spohncurves import (
    DomainError,
    JointDistribution,
    KonstanzMatrix,
    MixedProfile,
    PayoffTables,
    build_cubic,
    build_quadrics,
    conditional_payoffs,
    cooperation_witness,
    de_membership,
    expected_payoffs,
    is_nash,
    ne_witness_sequence,
    pareto_sweep,
    pure_nash,
    sample_curve_points,
    spohn_determinants,
    totally_mixed_nash,
)
from spohncurves.games import (
    _MAX_LINES,
    WitnessLadderRow,
    WitnessReport,
    _residuals,
    _unit_floats,
)
from spohncurves.polynomials import rat_str
from caselib import random_game

F = Fraction


# --- payoff tables -------------------------------------------------------------

def test_from_json_string_rationals():
    g = PayoffTables.from_json({"A": [["1/2", "2"], ["0", "3"]],
                                "B": [["6", "1"], ["4", "0"]]})
    assert g.A[0][0] == F(1, 2) and g.B[1][0] == 4


def test_bimatrix_round_trip(pd):
    g = PayoffTables.from_bimatrix("2,2 0,3; 3,0 1,1")
    assert g.A == pd.A and g.B == pd.B
    assert PayoffTables.from_json(g.to_json()).A == pd.A


def test_bimatrix_rejects_malformed():
    for bad in ("2,2 0,3", "2,2 0,3; 3,0", "x,y a,b; c,d e,f"):
        with pytest.raises(ValueError):
            PayoffTables.from_bimatrix(bad)


def test_string_tables_and_rows_are_rejected():
    # iterated, "12" would be the row (1, 2)
    for A in (["12", "34"], [[1, 2], "34"], "1234"):
        with pytest.raises(ValueError, match="^payoff tables must be 2x2 tables of exact "
                                             "rationals: got the string"):
            PayoffTables(A, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^payoff tables must be 2x2 tables of exact rationals"):
        PayoffTables([[1, 2], [3, 4]], [[1, 2], "34"])


def test_relabelings_are_involutions(pd):
    assert pd.swap_rows().swap_rows().A == pd.A
    assert pd.swap_cols().swap_cols().B == pd.B
    tp = pd.transpose_players()
    assert tp.transpose_players().A == pd.A
    assert tp.A == tuple(zip(*pd.B)) and tp.B == tuple(zip(*pd.A))


# --- distributions and payoffs ---------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ValueError, match="^probabilities must be nonnegative$"):
        JointDistribution(F(1, 2), F(1, 2), F(1, 2), F(-1, 2))
    with pytest.raises(ValueError, match="^probabilities must sum to exactly 1$"):
        JointDistribution(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    with pytest.raises(ValueError, match="^probabilities must sum to exactly 1$"):
        JointDistribution(F(1, 3), 0, "1/3", F(1, 4))
    u = JointDistribution.uniform()
    assert u.totally_mixed() and sum(u.as_tuple()) == 1
    for p in (u, JointDistribution(F(1, 7), F(2, 7), 0, "4/7"), JointDistribution(0, 0, 0, 1),
              JointDistribution(F(10**12 - 1, 10**12), 0, F(1, 10**12), 0)):
        assert p.marginals() == (p.row1, p.row2, p.col1, p.col2) == \
            (p.p11 + p.p12, p.p21 + p.p22, p.p11 + p.p21, p.p12 + p.p22)
        assert all(isinstance(m, Fraction) for m in p.marginals())
    assert JointDistribution(0, 0, 0, 1).totally_mixed() is False


def test_conditional_payoffs_uniform_pd(pd):
    cp = conditional_payoffs(pd, JointDistribution.uniform())
    assert (cp.e11, cp.e21, cp.e12, cp.e22) == (1, 2, 1, 2)


def test_conditional_payoffs_boundary_error(pd):
    with pytest.raises(DomainError) as err:
        conditional_payoffs(pd, JointDistribution(1, 0, 0, 0))
    assert "E_2^(1)" in str(err.value)


def test_expected_payoffs_pd_corners(pd):
    assert expected_payoffs(pd, JointDistribution(1, 0, 0, 0)) == (2, 2)
    assert expected_payoffs(pd, JointDistribution(0, 0, 0, 1)) == (1, 1)


# --- Nash equilibria -------------------------------------------------------------

def test_pure_nash_pd_and_bos(pd, bos):
    assert pure_nash(pd) == [(2, 2)]
    assert pure_nash(bos[0]) == [(1, 1), (2, 2)]


def test_pure_nash_matching_pennies_empty():
    mp = PayoffTables([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    assert pure_nash(mp) == []
    assert totally_mixed_nash(mp) == MixedProfile(F(1, 2), F(1, 2))


def test_totally_mixed_nash_bos(bos):
    for g, q, r in [(bos[0], F(3, 4), F(2, 5)), (bos[1], F(3, 5), F(1, 4)),
                    (bos[2], F(1, 2), F(2, 5)), (bos[3], F(3, 5), F(1, 2))]:
        ne = totally_mixed_nash(g)
        assert ne == MixedProfile(q, r), (g.A, g.B, ne)
        assert is_nash(g, ne)


def test_totally_mixed_degenerate_and_none(pd):
    # PD: both indifference denominators vanish
    assert totally_mixed_nash(pd) == "degenerate"
    # denominators fine but the solution leaves the open square
    g = PayoffTables([[1, 2], [3, 5]], [[5, 1], [2, 1]])
    assert totally_mixed_nash(g) == "none"


def test_is_nash_rejects_non_equilibria(pd, bos):
    assert is_nash(pd, MixedProfile(0, 0))
    assert not is_nash(pd, MixedProfile(1, 1))
    assert not is_nash(bos[0], MixedProfile(F(3, 4), F(1, 2)))


# --- Konstanz matrix -------------------------------------------------------------

def _det_by_permutations(rows):
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def test_konstanz_det_matches_permutation_expansion():
    rng = random.Random(61409)
    for _ in range(30):
        g = random_game(rng)
        pi1 = F(rng.randint(-6, 6), rng.randint(1, 4))
        pi2 = F(rng.randint(-6, 6), rng.randint(1, 4))
        K = KonstanzMatrix(g, pi1, pi2)
        assert K.det() == _det_by_permutations(K.rows)


def test_konstanz_kernel_at_mixed_equilibrium(bos):
    g = bos[0]
    ne = totally_mixed_nash(g)
    p = ne.segre()
    pi1, pi2 = expected_payoffs(g, p)
    K = KonstanzMatrix(g, pi1, pi2)
    assert K.apply(p.as_tuple()) == (0, 0, 0, 0)
    assert K.det() == 0
    data = K.to_json()
    assert set(data) == {"pi1", "pi2", "matrix", "det"}


# --- dependency equilibria --------------------------------------------------------

def test_de_membership_interior(pd, bos):
    assert de_membership(pd, JointDistribution.uniform()) == "notDE"
    ne = totally_mixed_nash(bos[0])
    assert de_membership(bos[0], ne.segre()) == "DE"


def test_de_membership_boundary_undecided(pd):
    assert de_membership(pd, JointDistribution(1, 0, 0, 0)) == "boundary-undecided"
    assert de_membership(pd, JointDistribution(F(1, 2), F(1, 2), 0, 0)) == \
        "boundary-undecided"


def test_segre_of_mixed_nash_is_on_both_quadrics():
    rng = random.Random(90217)
    hits = 0
    while hits < 40:
        g = random_game(rng)
        ne = totally_mixed_nash(g)
        if not isinstance(ne, MixedProfile):
            continue
        hits += 1
        d1, d2 = spohn_determinants(g, ne.segre().as_tuple())
        assert d1 == 0 and d2 == 0


# --- witness sequences -------------------------------------------------------------

def test_witness_rejects_non_nash(pd):
    with pytest.raises(DomainError):
        ne_witness_sequence(pd, MixedProfile(1, 1))


def test_witness_pure_pd(pd):
    rep = ne_witness_sequence(pd, MixedProfile(0, 0))
    assert rep.kind == "pure"
    assert rep.ok
    assert rep.limit == (0, 0, 0, 1)
    pt = rep.sequence(10 ** 3)
    assert sum(pt) == 1 and all(x > 0 for x in pt)


def test_witness_totally_mixed_is_constant(bos):
    ne = totally_mixed_nash(bos[0])
    rep = ne_witness_sequence(bos[0], ne)
    assert rep.kind == "totally-mixed"
    assert rep.ok
    segre = ne.segre().as_tuple()
    assert rep.sequence(10 ** 4) == segre and rep.limit == segre


def test_witness_semi_mixed_clears_tolerance_when_column_payoffs_match():
    # with b11 == b21 == b22 the played columns agree to O(1/r^2), well inside
    # the 1e-6 tolerance at r = 10^6
    g = PayoffTables([[0, 0], [1, 1]], [[3, 5], [3, 3]])
    rep = ne_witness_sequence(g, MixedProfile(0, F(1, 3)))
    assert rep.kind == "semi-mixed"
    assert rep.ok
    assert rep.limit == (0, 0, F(1, 3), F(2, 3))
    pt = rep.sequence(10)
    assert sum(pt) == 1 and all(x >= 0 for x in pt)


def test_witness_semi_mixed_reports_slow_column_residual():
    # b11 != b21 leaves an O(1/r) mismatch between the played-column payoffs;
    # at r = 10^6 it is ~3e-6, so the report honestly flags the 1e-6 check
    g = PayoffTables([[0, 0], [1, 1]], [[2, 5], [3, 3]])
    rep = ne_witness_sequence(g, MixedProfile(0, F(1, 3)))
    assert rep.kind == "semi-mixed"
    assert rep.limit == (0, 0, F(1, 3), F(2, 3))
    assert not rep.ok
    gaps = [abs(float(row.payoffs.e12 - row.payoffs.e22)) for row in rep.ladder]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-5
    for r in (10 ** 3, 10 ** 6):
        pt = rep.sequence(r)
        assert sum(pt) == 1 and all(x > 0 for x in pt)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=8, max_size=8),
       st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000))
@example([0, 1, 0, 2, 0, 1, 1, 2], F(1, 3))     # corner (2,2): a11<=a12 and b11<=b21
@example([2, 0, 0, 1, 2, 0, 0, 1], F(1, 1000))  # a11>=a12 and b11>=b21; totally mixed NE
@example([0, 1, 0, 2, 2, 0, 0, 1], F(999, 1000))  # a11<=a12 and b11>=b21
@example([2, 0, 0, 1, 0, 1, 1, 2], F(1, 2))     # a11>=a12 and b11<=b21
def test_interior_threshold_is_the_first_interior_rung(entries, mix):
    # every threshold read off a template equals the first r of the walk
    # r = 1, 2, 3, ... with p(r) in the open simplex: the pure corners and the
    # totally mixed equilibrium of a game under every relabeling, cooperation,
    # and semi-mixed sequences (r > 1/mix and r^2 > 1/(1 - mix)) for both
    # semi-mixed cases in both player orders
    base = PayoffTables([entries[0:2], entries[2:4]], [entries[4:6], entries[6:8]])
    reports = []
    for transpose, rows, cols in itertools.product((False, True), repeat=3):
        g = base.transpose_players() if transpose else base
        g = g.swap_rows() if rows else g
        g = g.swap_cols() if cols else g
        profiles = [MixedProfile(int(i == 1), int(j == 1)) for i, j in pure_nash(g)]
        tm = totally_mixed_nash(g)
        if isinstance(tm, MixedProfile):
            profiles.append(tm)
        reports += [ne_witness_sequence(g, ne) for ne in profiles]
    reports.append(cooperation_witness(PayoffTables([[mix, -1], [1, 0]], [[mix, 1], [-1, 0]])))
    for a11 in (0, 1):  # a11 <= a12 and a11 >= a12
        g = PayoffTables([[a11, 0], [1, 1]], [[0, 0], [1, 1]])
        reports += [ne_witness_sequence(g, MixedProfile(0, mix)),
                    ne_witness_sequence(g.transpose_players(), MixedProfile(mix, 0))]
    for rep in reports:
        walk = next(r for r in itertools.count(1) if all(x > 0 for x in rep.sequence(r)))
        assert rep.threshold == walk, (rep.kind, rep.case, rep.relabeling)
        assert all(x > 0 for row in rep.ladder for x in row.point)


def test_witness_all_four_pure_corners():
    rng = random.Random(7211)
    seen_strict = 0
    for _ in range(25):
        g = random_game(rng, lo=-5, hi=5)
        for (i, j) in pure_nash(g):
            ne = MixedProfile(1 if i == 1 else 0, 1 if j == 1 else 0)
            rep = ne_witness_sequence(g, ne)
            assert rep.kind == "pure"
            assert rep.limit == ne.segre().as_tuple()
            # interior and exactly stochastic along the ladder
            for r in (10 ** 3, 10 ** 6):
                pt = rep.sequence(r)
                assert sum(pt) == 1 and all(x > 0 for x in pt)
            # a strict equilibrium leaves unit-size limit slack, so the r=10^6
            # check must clear; ties may sit 1/r below zero and report False
            ii, jj = i - 1, j - 1
            row_gap = g.A[ii][jj] - g.A[1 - ii][jj]
            col_gap = g.B[ii][jj] - g.B[ii][1 - jj]
            if row_gap > 0 and col_gap > 0:
                seen_strict += 1
                assert rep.ok, (g.A, g.B, i, j, rep.to_json()["ladder"][-1])
    assert seen_strict >= 8


def test_witness_report_json_is_numeric(pd):
    data = ne_witness_sequence(pd, MixedProfile(0, 0)).to_json()
    assert data["numeric"] is True
    assert data["tolerance"] == 1e-6
    assert [row["r"] for row in data["ladder"]] == [10**3, 10**4, 10**5, 10**6]
    assert all(isinstance(v, float)
               for row in data["ladder"] for v in row["payoffs"].values())


def test_cooperation_witness_pd(pd):
    rep = cooperation_witness(pd)
    assert rep.lam == F(1, 2)
    assert rep.ok
    assert rep.limit == (1, 0, 0, 0)
    assert rep.payoff_limits == (2, 2, 2, 1)
    # the off-diagonal split keeps E_2^(1) pinned to a11 for every finite r
    for r in (2, 5, 17, 1000):
        cp = conditional_payoffs(pd, JointDistribution(*rep.sequence(r)))
        assert cp.e21 == pd.A[0][0]
    assert rep.to_json()["lambda"] == "1/2"


def test_cooperation_witness_requires_symmetric_pd_type(pd):
    with pytest.raises(DomainError) as err:
        cooperation_witness(PayoffTables(pd.A, [[1, 2], [3, 4]]))
    assert "transpose" in str(err.value)
    # a11 > a21 violates the ordering; the message names the failed inequality
    A = [[5, 0], [3, 1]]
    B = [[5, 3], [0, 1]]
    with pytest.raises(DomainError) as err:
        cooperation_witness(PayoffTables(A, B))
    assert "a21 > a11" in str(err.value)


def test_cooperation_witness_gap_shrinks(pd):
    rep = cooperation_witness(pd)
    gaps = []
    for row in rep.ladder:
        cp = row.payoffs
        gaps.append(max(abs(float(cp.e11) - float(pd.A[0][0])),
                        abs(float(cp.e12) - float(pd.A[0][0]))))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < gaps[0] / 100
    assert rep.ok  # the r = 10^6 inequalities clear the 1e-6 tolerance


# --- numeric sweeps -----------------------------------------------------------------

def test_sample_curve_points_deterministic(pd):
    assert sample_curve_points(pd, 12, seed=9) == sample_curve_points(pd, 12, seed=9)


def test_sample_curve_points_refuses_more_lines_than_the_cap(pd):
    with pytest.raises(DomainError, match=f"at most {_MAX_LINES} sample lines"):
        sample_curve_points(pd, _MAX_LINES + 1)


def _reference_tables(game):
    return ([[float(x) for x in row] for row in game.A],
            [[float(x) for x in row] for row in game.B])


def _reference_residuals(a, b, p):
    import numpy as np

    d1 = (p[0] + p[1]) * (a[1][0] * p[2] + a[1][1] * p[3]) \
        - (a[0][0] * p[0] + a[0][1] * p[1]) * (p[2] + p[3])
    d2 = (p[0] + p[2]) * (b[0][1] * p[1] + b[1][1] * p[3]) \
        - (b[0][0] * p[0] + b[1][0] * p[2]) * (p[1] + p[3])
    return np.array([d1, d2, p.sum() - 1.0])


def _reference_polish(a, b, x, y, z):
    """The plane point (x, y, z) lifted to p22 through the first
    determinant, normalized to sum 1 and polished by at most 12 steps with a
    forward-difference Jacobian and np.linalg.lstsq; the point if it passes
    the sampler's residual and simplex tests, else None."""
    import numpy as np

    l1 = (a[1][1] - a[0][0]) * x + (a[1][1] - a[0][1]) * y
    if abs(l1) < 1e-9:
        return None
    p = np.array([x, y, z, -z * ((a[1][0] - a[0][0]) * x + (a[1][0] - a[0][1]) * y) / l1])
    tot = p.sum()
    if abs(tot) < 1e-9:
        return None
    p /= tot
    for _ in range(12):
        F_ = _reference_residuals(a, b, p)
        if np.max(np.abs(F_)) < 1e-14:
            break
        J = np.zeros((3, 4))
        for k in range(4):
            q = p.copy()
            q[k] += 1e-7
            J[:, k] = (_reference_residuals(a, b, q) - F_) / 1e-7
        step, *_ = np.linalg.lstsq(J, F_, rcond=None)
        p = p - step
    F_ = _reference_residuals(a, b, p)
    if np.max(np.abs(F_[:2])) > 1e-8 or abs(F_[2]) > 1e-10:
        return None
    if np.any(p <= 1e-9) or np.any(p >= 1 - 1e-9):
        return None
    return p


def _keep_new(found, seen, p):
    if p is not None:
        key = tuple(p.round(9))
        if key not in seen:
            seen.add(key)
            found.append([float(x) for x in p])


# The pencil sampler of `sample_curve_points` on numpy: the same slopes u
# from random.Random(seed), the roots of A t^2 + B t + C from np.roots, and
# the polish of `_reference_polish`.
def _reference_pencil_points(game, count, seed=0):
    import numpy as np

    c1, c2, c3, c4, c5, c6, c7 = [float(c) for c in build_cubic(game).c]
    a, b = _reference_tables(game)
    rng = random.Random(seed)
    found, seen = [], set()
    for _ in range(count):
        u = math.tan(rng.random() * (math.pi / 2))
        for t in np.roots([c1 + c2 * u, c3 + c7 * u + c4 * u * u, u * (c5 + c6 * u)]):
            if t.imag != 0 or t.real <= 0:
                continue
            s = t.real + 1 + u
            _keep_new(found, seen, _reference_polish(a, b, t.real / s, 1 / s, u / s))
    return found


# A random-line sampler, kept as an independent source of curve points: the
# cubic on random lines through the (p11, p12, p21) face coordinates (one
# np.roots call per line on coefficients expanded by np.convolve), and the
# polish of `_reference_polish`.
def _reference_sample_curve_points(game, count, seed=0):
    import numpy as np

    cvec = [float(c) for c in build_cubic(game).c]
    a, b = _reference_tables(game)
    exps = [(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (0, 1, 2), (1, 1, 1)]
    rng = np.random.default_rng(seed)
    found, seen = [], set()
    for _ in range(count):
        u = rng.random(3) + 1e-3
        v = rng.random(3) + 1e-3
        u /= u.sum()
        v /= v.sum()
        coeffs = np.zeros(4)
        du = v - u
        for e, c in zip(exps, cvec):
            if c == 0.0:
                continue
            poly = np.array([1.0])
            for k in range(3):
                for _ in range(e[k]):
                    poly = np.convolve(poly, np.array([du[k], u[k]]))
            coeffs[4 - len(poly):] += c * poly
        if not np.any(np.abs(coeffs) > 1e-14):
            continue
        lead = np.argmax(np.abs(coeffs) > 1e-14)
        for s in (np.roots(coeffs[lead:]) if lead < 3 else []):
            if abs(s.imag) > 1e-9:
                continue
            _keep_new(found, seen, _reference_polish(a, b, *((1 - s.real) * u + s.real * v)))
    return found


def _unit_spread(table):
    """(T - t11) / max|T - t11| in exact rationals: the shift and positive
    scale that leave the Spohn curve alone bring the entries into [-1, 1].
    A table with zero spread is returned as it is."""
    t11 = table[0][0]
    shifted = [[x - t11 for x in row] for row in table]
    spread = max(abs(x) for row in shifted for x in row)
    if spread == 0:
        return table
    return [[x / spread for x in row] for row in shifted]


def _fraction_game(rng):
    e = lambda: F(rng.randint(-60, 60), rng.randint(1, 12))
    return PayoffTables([[e(), e()], [e(), e()]], [[e(), e()], [e(), e()]])


def _sampler_pool():
    rng = random.Random(2024)
    return [random_game(rng) for _ in range(25)] + [_fraction_game(rng) for _ in range(15)]


def test_sample_curve_points_matches_finite_difference_reference():
    total = 0
    for g in _sampler_pool():
        unit = PayoffTables(_unit_spread(g.A), _unit_spread(g.B))
        for seed in (0, 1, 5):
            new = sample_curve_points(g, 20, seed=seed)
            old = _reference_pencil_points(unit, 20, seed=seed)
            assert len(new) == len(old), (g, seed)
            for p, q in zip(new, old):
                assert max(abs(x - y) for x, y in zip(p, q)) < 1e-9, (g, seed, p, q)
            total += len(new)
    assert total > 500  # 543 points


def test_sample_curve_points_residuals(pd):
    # the points are the pencil's roots lifted to p22 with no refinement; the
    # exact determinants at each are at most 1e-10 of the table's spread,
    # 100x inside the sampler's 1e-8 gate (the largest here is ~3e-14)
    assert len(sample_curve_points(pd, 30, seed=3)) >= 5
    total = 0
    for g in [pd] + _sampler_pool():
        spread_a = _spread(g.A) or 1
        spread_b = _spread(g.B) or 1
        for grid, seed in itertools.product((20, 500), (0, 1, 5)):
            for p in sample_curve_points(g, grid, seed=seed):
                assert abs(sum(p) - 1) <= 1e-10
                assert all(x > 0 for x in p)
                d1, d2 = spohn_determinants(g, [F(x) for x in p])
                assert abs(d1) / spread_a <= 1e-10 and abs(d2) / spread_b <= 1e-10, (g, grid, seed, p)
                total += 1
    assert total > 15000  # 15708 points


def test_pencil_through_the_x_vertex_reaches_every_interior_point():
    # each interior point lies on the line through [1:0:0] and [0:1:u] with
    # u = p21/p12 > 0, at t = p11/p12 > 0, so it is a root of the pencil's
    # quadratic there; the points come from the independent random lines
    worst, count = 0.0, 0
    for g in _sampler_pool():
        unit = PayoffTables(_unit_spread(g.A), _unit_spread(g.B))
        c1, c2, c3, c4, c5, c6, c7 = _unit_floats(g)[2]
        for seed in (0, 1, 5):
            for p11, p12, p21, _ in _reference_sample_curve_points(unit, 20, seed=seed):
                u, t = p21 / p12, p11 / p12
                terms = (c1 * t * t, c2 * u * t * t, c3 * t, c7 * u * t, c4 * u * u * t,
                         c5 * u, c6 * u * u)
                worst = max(worst, abs(sum(terms)) / sum(map(abs, terms)))
                count += 1
    assert count > 500  # 582 points
    assert worst < 1e-9


_UNIT = st.floats(-2, 2, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(_UNIT, min_size=12, max_size=12))
def test_sampler_residuals_match_the_exact_determinants(xs):
    a, b, p = xs[:4], xs[4:8], xs[8:]
    r1, r2, r3 = _residuals(a, b, p)
    game = PayoffTables([[F(x) for x in a[:2]], [F(x) for x in a[2:]]],
                        [[F(x) for x in b[:2]], [F(x) for x in b[2:]]])
    d1, d2 = spohn_determinants(game, [F(x) for x in p])
    assert abs(r1 - float(d1)) < 1e-12 and abs(r2 - float(d2)) < 1e-12
    assert r3 == sum(p) - 1.0


_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(-10**12, 10**12),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
_TABLES = st.lists(st.lists(_ENTRIES, min_size=2, max_size=2), min_size=2, max_size=2)
_SCALE = st.fractions(min_value=F(1, 10**12), max_value=10**12, max_denominator=10**12)
_SHIFT = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**12)


def _spread(T):
    return max(abs(x - T[0][0]) for row in T for x in row)


@settings(max_examples=200, deadline=None)
@given(_TABLES, _TABLES)
@example([[F(1, 2), F(3, 4)], [0, F(5, 6)]], [[F(2, 3), 1], [F(-1, 4), 0]])
@example([[10**12, -10**12], [10**12 - 1, F(1, 3)]], [[F(-7, 2), 5], [0, 0]])
def test_payoff_tables_store_each_table_over_its_least_scale(A, B):
    """`cleared` holds (l, l x table) per table, row by row, with l the
    least positive integer that clears the table (so gcd(l, l x table) is
    1); each relabelling permutes those integers and keeps the scales."""
    g = PayoffTables(A, B)
    for (scale, ints), T in zip(g.cleared, (g.A, g.B)):
        assert scale >= 1 and all(type(x) is int for x in ints)
        assert ints == tuple(scale * x for x in T[0] + T[1])
        assert math.gcd(scale, *ints) == 1
    (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = g.cleared
    assert g.transpose_players().cleared == ((lb, (b11, b21, b12, b22)),
                                             (la, (a11, a21, a12, a22)))
    assert g.swap_rows().cleared == ((la, (a21, a22, a11, a12)), (lb, (b21, b22, b11, b12)))
    assert g.swap_cols().cleared == ((la, (a12, a11, a22, a21)), (lb, (b12, b11, b22, b21)))


def _relabel_views(A, B, transpose, rows, cols):
    """The relabeling on the Fraction tables themselves: transpose_players
    (new A = B^T, new B = A^T), then swap_rows, then swap_cols."""
    if transpose:
        A, B = tuple(zip(*B)), tuple(zip(*A))
    if rows:
        A, B = A[::-1], B[::-1]
    if cols:
        A, B = [row[::-1] for row in A], [row[::-1] for row in B]
    return A, B


@settings(max_examples=200, deadline=None)
@given(_TABLES, _TABLES)
@example([[1, 2], [3, 4]], [[1, 3], [2, 4]])                      # B = A^T: transposing fixes it
@example([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]], [[0, 1], [0, 1]])  # swapping rows fixes it
@example([[10**12, -10**12], [10**12 - 1, F(1, 3)]], [[F(-7, 2), 5], [0, 0]])
def test_relabeling_by_permutation_matches_the_validated_route(A, B):
    """Each of the 8 compositions of the relabelings permutes `cleared` to
    what the constructor builds from the permuted Fraction tables, and ==
    agrees with equality of those tables."""
    g = PayoffTables(A, B)
    assert PayoffTables(g.A, g.B).cleared == g.cleared
    for transpose, rows, cols in itertools.product((False, True), repeat=3):
        moved = g.transpose_players() if transpose else g
        moved = moved.swap_rows() if rows else moved
        moved = moved.swap_cols() if cols else moved
        rebuilt = PayoffTables(*_relabel_views(g.A, g.B, transpose, rows, cols))
        assert moved.cleared == rebuilt.cleared and moved == rebuilt
        assert moved.to_json() == rebuilt.to_json()
        assert (moved == g) == (moved.A == g.A and moved.B == g.B)


def _reference_is_nash(game, q, r):
    """The best-response check on the Fraction tables: each player's two
    expected payoffs against the other's mix, compared."""
    if not (0 <= q <= 1 and 0 <= r <= 1):
        return False
    ((a11, a12), (a21, a22)), ((b11, b12), (b21, b22)) = game.A, game.B
    row1, row2 = a11 * r + a12 * (1 - r), a21 * r + a22 * (1 - r)
    col1, col2 = b11 * q + b21 * (1 - q), b12 * q + b22 * (1 - q)
    return all(hi >= lo if p == 1 else lo >= hi if p == 0 else hi == lo
               for p, hi, lo in ((q, row1, row2), (r, col1, col2)))


_PROBS = st.one_of(st.sampled_from([F(0), F(1), F(-1, 2), F(3, 2)]),
                   st.fractions(min_value=0, max_value=1, max_denominator=10**6))


@settings(max_examples=200, deadline=None)
@given(_TABLES, _TABLES, _PROBS, _PROBS)
@example([[3, 0], [0, 2]], [[2, 1], [0, 3]], F(3, 4), F(2, 5))   # the mixed equilibrium
@example([[0, 0], [1, 1]], [[3, 5], [3, 3]], F(0), F(1, 3))      # a semi-mixed one
def test_is_nash_matches_the_fraction_route(A, B, q, r):
    g = PayoffTables(A, B)
    profiles = [MixedProfile(q, r)] + [MixedProfile(F(i), F(j)) for i in (0, 1) for j in (0, 1)]
    tm = totally_mixed_nash(g)
    if isinstance(tm, MixedProfile):
        profiles.append(tm)
    for ne in profiles:
        assert is_nash(g, ne) == _reference_is_nash(g, ne.q, ne.r), ne


@settings(max_examples=60, deadline=None)
@given(_TABLES, _TABLES, _SCALE, _SHIFT, _SCALE, _SHIFT, st.integers(0, 3), st.integers(0, 10**6))
@example([[2, 0], [3, 1]], [[2, 3], [0, 1]], F(10**12), 7, F(1), 0, 1, 3)
@example([[10**12, -10**12], [-10**12 + 1, 10**12]], [[-3, 10**12], [5, -10**12]],
         F(1, 10**12), F(-5), F(3, 7), F(10**12), 3, 11)
def test_sample_curve_points_ignores_positive_affine_rescaling(A, B, alpha, beta, gamma,
                                                               delta, which, seed):
    g = PayoffTables(A, B)
    A2 = [[alpha * x + beta for x in row] for row in g.A] if which & 1 else g.A
    B2 = [[gamma * x + delta for x in row] for row in g.B] if which & 2 else g.B
    pts = sample_curve_points(g, 12, seed=seed)
    assert sample_curve_points(PayoffTables(A2, B2), 12, seed=seed) == pts
    sa, sb = _spread(g.A) or 1, _spread(g.B) or 1
    for p in pts:
        d1, d2 = spohn_determinants(g, [F(x) for x in p])
        assert abs(d1) / sa < F(1, 10**8) and abs(d2) / sb < F(1, 10**8), p


@settings(max_examples=200, deadline=None)
@given(_TABLES, _TABLES)
@example([[3, 3], [3, 3]], [[1, -2], [0, F(1, 3)]])               # A has spread 0
@example([[F(5, 7), F(5, 7)], [F(5, 7), F(5, 7)]], [[0, 0], [0, 0]])  # both constant
@example([[10**12, -10**12], [10**12 - 1, F(1, 3)]], [[F(-7, 2), 5], [10**12, -10**12]])
@example([[F(1, 3), F(2, 7)], [F(-5, 6), F(1, 3)]], [[0, F(1, 10**6)], [F(-1, 10**6), 0]])
def test_sampler_setup_matches_the_exact_rescaling(A, B):
    # the integer set-up rounds each exact value once, as float() of the
    # rescaled Fractions does; repr tells -0.0 from 0.0
    g = PayoffTables(A, B)
    unit = PayoffTables(_unit_spread(g.A), _unit_spread(g.B))
    expected = ([float(x) for row in unit.A for x in row],
                [float(x) for row in unit.B for x in row],
                [float(c) for c in build_cubic(unit).c])
    assert repr(_unit_floats(g)) == repr(expected)


def test_pareto_sweep_pd_finds_dominating_points(pd):
    report = pareto_sweep(pd, grid=40, seed=1)
    assert report["numeric"] is True
    assert report["reference"]["kind"] == "pure (2,2)"
    assert report["reference"]["payoffs"] == ["1", "1"]
    assert len(report["dominating"]) > 0
    r1, r2 = 1.0, 1.0
    for rec in report["dominating"]:
        p1, p2 = rec["payoffs"]
        assert p1 >= r1 and p2 >= r2 and (p1 > r1 or p2 > r2)
        assert rec in report["points"]


def test_pareto_payoffs_are_the_row_major_float_sums():
    # the sweep's payoffs repeat the float expression the report has always
    # printed: sum over the cells in the order 11, 12, 21, 22 from 0
    games = [PayoffTables([[2, 0], [3, 1]], [[2, 3], [0, 1]]),
             PayoffTables([[F(37, 8), F(-43, 3)], [F(10, 3), F(29, 4)]],
                          [[-4, F(-10, 3)], [-142137178507, -249862427873]])]
    for g in games:
        report = pareto_sweep(g, grid=40, seed=3)
        assert report["points"]
        for rec in report["points"]:
            p = rec["point"]
            assert rec["payoffs"] == [
                float(sum(float(T[i][j]) * p[i * 2 + j] for i in range(2) for j in range(2)))
                for T in (g.A, g.B)]


def test_pareto_sweep_mixed_reference(bos):
    report = pareto_sweep(bos[0], grid=12, seed=4)
    assert report["reference"]["kind"] == "totally-mixed"
    assert report["reference"]["point"] == ["3/10", "9/20", "1/10", "3/20"]


# --- witness templates against the lambda route ------------------------------------
#
# The reference route states each witness sequence as a lambda r -> 4-tuple in
# the normalized position, with its limit point written out by hand, and maps
# it back through composed cell permutations evaluated at every r.  Production
# stores 1/r coefficient tables and permutes their rows once; both must give
# the same report bytes.

_REF_IDENT = (0, 1, 2, 3)
_REF_SWAP_ROWS = (2, 3, 0, 1)
_REF_SWAP_COLS = (1, 0, 3, 2)
_REF_SWAP_PLAYERS = (0, 2, 1, 3)


def _ref_compose(p, q):
    return tuple(q[p[i]] for i in range(4))


def _reference_pure_corner_sequence(game):
    (a11, a12), _ = game.A
    (b11, _), (b21, _) = game.B
    if a11 <= a12 and b11 <= b21:
        return ("a11<=a12 and b11<=b21", "(1/r, 1/r^2, 1/r^2, 1 - 1/r - 2/r^2)",
                lambda r: (F(1, r), F(1, r ** 2), F(1, r ** 2), 1 - F(1, r) - 2 * F(1, r ** 2)))
    if a11 >= a12 and b11 >= b21:
        return ("a11>=a12 and b11>=b21", "(1/r^2, 1/r, 1/r, 1 - 2/r - 1/r^2)",
                lambda r: (F(1, r ** 2), F(1, r), F(1, r), 1 - 2 * F(1, r) - F(1, r ** 2)))
    if a11 <= a12 and b11 >= b21:
        return ("a11<=a12 and b11>=b21", "(1/r^2, 1/r^3, 1/r, 1 - 1/r - 1/r^2 - 1/r^3)",
                lambda r: (F(1, r ** 2), F(1, r ** 3), F(1, r),
                           1 - F(1, r) - F(1, r ** 2) - F(1, r ** 3)))
    return ("a11>=a12 and b11<=b21", "(1/r^2, 1/r, 1/r^3, 1 - 1/r - 1/r^2 - 1/r^3)",
            lambda r: (F(1, r ** 2), F(1, r), F(1, r ** 3),
                       1 - F(1, r) - F(1, r ** 2) - F(1, r ** 3)))


def _reference_semi_mixed_sequence(game, p1):
    (a11, a12), _ = game.A
    _, (b21, b22) = game.B
    if b21 != b22:
        raise DomainError("semi-mixed witness needs b21 == b22 after normalization")
    p2 = 1 - p1
    if a11 <= a12:
        return ("a11<=a12", "(1/r, 1/r^2, p1 - 1/r, p2 - 1/r^2)",
                lambda r: (F(1, r), F(1, r ** 2), p1 - F(1, r), p2 - F(1, r ** 2)))
    return ("a11>=a12", "(1/r^2, 1/r, p1 - 1/r, p2 - 1/r^2)",
            lambda r: (F(1, r ** 2), F(1, r), p1 - F(1, r), p2 - F(1, r ** 2)))


def _reference_report(game, kind, case, formula, seq, limit, relabeling="",
                      lam=None, payoff_limits=None, threshold=None):
    """The report as the lambda route built it: the least interior r >= 2 by
    doubling r - 1 and bisecting, and every rung checked to sum to 1."""
    if threshold is None:
        interior = lambda r: all(x > 0 for x in seq(r))
        lo, hi = 1, 2
        while not interior(hi):
            lo, hi = hi, 2 * hi - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if interior(mid) else (mid, hi)
        threshold = hi
    lim = JointDistribution(*limit)
    checks = [(label, f) for label, m, f in (
        ("E_1^(1) >= E_2^(1)", lim.row1, lambda e: float(e.e11 - e.e21)),
        ("E_2^(1) >= E_1^(1)", lim.row2, lambda e: float(e.e21 - e.e11)),
        ("E_1^(2) >= E_2^(2)", lim.col1, lambda e: float(e.e12 - e.e22)),
        ("E_2^(2) >= E_1^(2)", lim.col2, lambda e: float(e.e22 - e.e12))) if m != 0]
    ladder = []
    for r in ((10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6) if threshold <= 10 ** 3
              else tuple(threshold * 10 ** k for k in range(4))):
        pt = seq(r)
        assert sum(pt) == 1
        pay = conditional_payoffs(game, JointDistribution(*pt))
        ladder.append(WitnessLadderRow(r, pt, pay, tuple(f(pay) for _, f in checks)))
    return SimpleNamespace(
        kind=kind, case=case, formula=formula, threshold=threshold, sequence=seq,
        limit=limit, ladder=ladder, inequalities=[label for label, _ in checks],
        ok=all(res >= -1e-6 for res in ladder[-1].residuals), relabeling=relabeling,
        lam=lam, payoff_limits=payoff_limits)


def _reference_ne_witness(game, ne):
    q, r_ = ne.q, ne.r
    if 0 < q < 1 and 0 < r_ < 1:
        limit = ne.segre().as_tuple()
        return _reference_report(game, "totally-mixed", "interior equilibrium",
                                 "constant sequence p(r) = p", lambda r: limit, limit,
                                 threshold=1)
    work, wq, wr = game, q, r_
    perm = _REF_IDENT
    steps = []
    if 0 < wq < 1:
        work, wq, wr = work.transpose_players(), wr, wq
        perm = _ref_compose(perm, _REF_SWAP_PLAYERS)
        steps.append("players swapped")
    if wq == 1:
        work, wq = work.swap_rows(), F(0)
        perm = _ref_compose(perm, _REF_SWAP_ROWS)
        steps.append("rows swapped")
    if 0 < wr < 1:
        kind = "semi-mixed"
        label, formula, wseq = _reference_semi_mixed_sequence(work, wr)
        wlimit = (F(0), F(0), wr, 1 - wr)
    else:
        if wr == 1:
            work, wr = work.swap_cols(), F(0)
            perm = _ref_compose(perm, _REF_SWAP_COLS)
            steps.append("columns swapped")
        kind = "pure"
        label, formula, wseq = _reference_pure_corner_sequence(work)
        wlimit = (F(0), F(0), F(0), F(1))
    seq = lambda r: tuple(wseq(r)[perm[i]] for i in range(4))
    limit = tuple(wlimit[perm[i]] for i in range(4))
    return _reference_report(game, kind, label, formula, seq, limit,
                             relabeling=", ".join(steps) if steps else "none")


def _reference_cooperation_witness(game):
    (a11, _), (a21, a22) = game.A
    lam = (a11 - a22) / (a21 - a22)
    return _reference_report(
        game, "cooperation", f"lambda = {rat_str(lam)}",
        "(1 - 1/r - 1/r^2, 1/r^2, lam/r, (1-lam)/r)",
        lambda r: (1 - F(1, r) - F(1, r ** 2), F(1, r ** 2), lam / r, (1 - lam) / r),
        (F(1), F(0), F(0), F(0)), lam=lam,
        payoff_limits=(a11, a11, a11, a22))


def _assert_same_witness(rep, ref):
    assert json.dumps(rep.to_json(), sort_keys=True) == \
        json.dumps(WitnessReport.to_json(ref), sort_keys=True)
    for r in (2, 3, 17, rep.threshold, rep.threshold + 1, 10 ** 6):
        assert rep.sequence(r) == ref.sequence(r), r


@settings(max_examples=150, deadline=None)
@given(_TABLES, _TABLES)
@example([[2, 0], [3, 1]], [[2, 3], [0, 1]])                    # a11 <= a12, b11 <= b21
@example([[3, 0], [0, 2]], [[2, 1], [0, 3]])                    # both corners and a mixed one
@example([[10**12, 1], [F(1, 3), 10**12]], [[F(-7, 2), 5], [10**12, -10**12]])
@example([[0, 0], [0, 0]], [[0, 0], [0, 0]])                    # every profile is Nash
def test_pure_and_totally_mixed_witnesses_match_the_lambda_route(A, B):
    g = PayoffTables(A, B)
    profiles = [MixedProfile(int(i == 1), int(j == 1)) for i, j in pure_nash(g)]
    tm = totally_mixed_nash(g)
    if isinstance(tm, MixedProfile):
        profiles.append(tm)
    for ne in profiles:
        _assert_same_witness(ne_witness_sequence(g, ne), _reference_ne_witness(g, ne))


_MIXES = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    st.integers(1001, 100001).map(lambda n: F(1, n)),          # threshold n + 1 > 10^3
    st.integers(10**6, 10**10).map(lambda n: 1 - F(1, n)))     # threshold ~ sqrt(n)


@settings(max_examples=150, deadline=None)
@given(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES, st.lists(_ENTRIES, min_size=3, max_size=3),
       _MIXES, st.booleans(), st.booleans(), st.booleans())
@example(0, 0, 0, 0, [0, 0, 1], F(1, 100000), False, False, False)
@example(0, 1, 2, 0, [3, 5, 3], F(1, 3), True, True, True)
def test_semi_mixed_witnesses_match_the_lambda_route(a11, a12, d1, d2, b, mix,
                                                     transpose, swap_rows, swap_cols):
    # normalized: player 1 plays row 2 (weakly dominant), player 2 is
    # indifferent on it and mixes; then relabel game and profile alike
    g = PayoffTables([[a11, a12], [a11 + abs(d1), a12 + abs(d2)]], [[b[0], b[1]], [b[2], b[2]]])
    q, r = F(0), mix
    if transpose:
        g, q, r = g.transpose_players(), r, q
    if swap_rows:
        g, q = g.swap_rows(), 1 - q
    if swap_cols:
        g, r = g.swap_cols(), 1 - r
    ne = MixedProfile(q, r)
    rep = ne_witness_sequence(g, ne)
    assert rep.kind == "semi-mixed"
    _assert_same_witness(rep, _reference_ne_witness(g, ne))


@settings(max_examples=80, deadline=None)
@given(st.lists(_ENTRIES, min_size=4, max_size=4, unique=True))
@example([1, 0, 3, 2])
@example([F(-1, 3), -10**12, 10**12, 7])
def test_cooperation_witnesses_match_the_lambda_route(values):
    a12, a22, a11, a21 = sorted(values)
    g = PayoffTables([[a11, a12], [a21, a22]], [[a11, a21], [a12, a22]])
    _assert_same_witness(cooperation_witness(g), _reference_cooperation_witness(g))


_SLACKS = {"E_1^(1) >= E_2^(1)": lambda e: e.e11 - e.e21,
           "E_2^(1) >= E_1^(1)": lambda e: e.e21 - e.e11,
           "E_1^(2) >= E_2^(2)": lambda e: e.e12 - e.e22,
           "E_2^(2) >= E_1^(2)": lambda e: e.e22 - e.e12}


def _assert_ladder_is_rounded_once(game, rep):
    for row in rep.ladder:
        exact = conditional_payoffs(game, JointDistribution(*row.point))
        assert repr(tuple(row.payoffs)) == repr(tuple(map(float, exact))), row.r
        assert repr(row.residuals) == \
            repr(tuple(float(_SLACKS[label](exact)) for label in rep.inequalities)), row.r


@settings(max_examples=100, deadline=None)
@given(_TABLES, _TABLES, _MIXES, st.lists(_ENTRIES, min_size=4, max_size=4, unique=True))
# entries near 10^12 with slacks of order 1: float(e11) - float(e21) is off
# in the last places, so a route that subtracts rounded payoffs fails here
@example([[10**12 + 1, 10**12], [10**12, 10**12 + 2]],
         [[10**12 + 2, 10**12], [10**12, 10**12 + 1]], F(1, 3), [F(-1, 3), -10**12, 10**12, 7])
def test_ladder_floats_are_the_exact_values_rounded_once(A, B, mix, values):
    g = PayoffTables(A, B)
    profiles = [MixedProfile(int(i == 1), int(j == 1)) for i, j in pure_nash(g)]
    tm = totally_mixed_nash(g)
    if isinstance(tm, MixedProfile):
        profiles.append(tm)
    checked = [(g, ne_witness_sequence(g, ne)) for ne in profiles]
    # a semi-mixed witness: row 2 weakly dominant, player 2 indifferent on it
    (a11, a12), (d1, d2) = A
    semi = PayoffTables([[a11, a12], [a11 + abs(d1), a12 + abs(d2)]],
                        [B[0], [B[1][0], B[1][0]]])
    checked.append((semi, ne_witness_sequence(semi, MixedProfile(0, mix))))
    a12, a22, a11, a21 = sorted(values)
    coop = PayoffTables([[a11, a12], [a21, a22]], [[a11, a21], [a12, a22]])
    checked.append((coop, cooperation_witness(coop)))
    for game, rep in checked:
        _assert_ladder_is_rounded_once(game, rep)
