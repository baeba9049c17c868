"""Test-side oracle for the twelve reducibility cases, and the views of the
library's stored integers that the tests read.

The case equations are transcribed here independently of the library so the
classifier is checked against a second reading of the same conditions, and
seeded generators produce games satisfying any prescribed case.  Cases 9-12
are three (or four) bilinear equations; for a fixed payoff table A they are
linear in the entries of B, so a kernel basis gives every matching B.  Two
converters, `sparse` and `poly`, move a polynomial between a `MultiPoly` and
the sparse terms that the library reads and builds.  A quadric pair is built
only by `QuadricPair.from_json`, so `quadric_pair` writes its JSON first, and
`quadric_polys` reads the pair's stored integers back as MultiPolys;
`fraction_coefficients` reads a Spohn cubic's seven integers back as
Fractions, and `plane_poly` a plane cubic's ten labels back as its
MultiPoly.  A `WeierstrassCurve` is built only from weighted integers, so
`curve` clears rational coefficients into them and `values` reads the
rational invariants back; `tables` reads a game's payoffs back as
Fractions, and `game_json` writes them as JSON.
"""

from fractions import Fraction
from typing import NamedTuple

from spohncurves import (MultiPoly, PayoffTables, PlaneCubic, QuadricPair, SpohnCubic,
                         WeierstrassCurve, build_cubic, build_quadrics, rat, rat_str)
from spohncurves.elliptic import _TEN_MONOMIALS
from spohncurves.geometry import VARS3, _mono4
from spohncurves.polynomials import clear_denominators, terms_json

VARS4 = ("x", "y", "z", "t")


def sparse(P: MultiPoly) -> tuple:
    """P as sparse terms (vars, [(exponent, n, d), ...])."""
    return P.vars, [(e, c.numerator, c.denominator) for e, c in P.terms.items()]


def poly(terms) -> MultiPoly:
    """The MultiPoly of sparse terms (vars, [(exponent, n, d), ...])."""
    return MultiPoly(terms[0], [(e, Fraction(n, d)) for e, n, d in terms[1]])


def pair_json(P1, P2, point) -> dict:
    """The {"P1", "P2", "point"} JSON of two quadrics given as sparse terms
    and a common point given as rationals."""
    return {"P1": terms_json(*P1), "P2": terms_json(*P2),
            "point": [str(Fraction(c)) for c in point]}


def quadric_pair(P1, P2, point) -> QuadricPair:
    """`QuadricPair.from_json` of `pair_json(P1, P2, point)`."""
    return QuadricPair.from_json(pair_json(P1, P2, point))


def spohn_pair_json(game) -> dict:
    """The pair JSON of the game's Spohn quadrics in (x, y, z, t) =
    (p11, p12, p21, p22) with the common point [0:0:0:1]."""
    (_, q1), (_, q2) = build_quadrics(game)
    return pair_json((VARS4, q1), (VARS4, q2), (0, 0, 0, 1))


def spohn_pair(game) -> QuadricPair:
    """The game's Spohn pair, read by `QuadricPair.from_json`."""
    return QuadricPair.from_json(spohn_pair_json(game))


def quadric_polys(pair: QuadricPair) -> tuple:
    """The two quadrics v^T N v / d of a pair's stored (d, N), as MultiPolys
    in (x, y, z, t): x_i^2 has the coefficient N_ii / d and x_i x_j, i < j,
    2 N_ij / d."""
    return tuple(MultiPoly(VARS4, [(_mono4(i, j), Fraction(N[i][j] if i == j else 2 * N[i][j], d))
                                   for i in range(4) for j in range(i, 4)])
                 for d, N in pair.quadrics)


def fraction_coefficients(cubic: SpohnCubic) -> tuple:
    """c1..c7 of a Spohn cubic as Fractions, c_k = ints[k] / den."""
    return tuple(Fraction(x, cubic.den) for x in cubic.ints)


def plane_poly(cubic: PlaneCubic) -> MultiPoly:
    """A plane cubic as a MultiPoly in (x, y, z): each monomial gets its
    label ints[k] / den times its multiplier 1, 3 or 6."""
    return MultiPoly(VARS3, [(e, Fraction(k * x, cubic.den))
                             for (e, k), x in zip(_TEN_MONOMIALS, cubic.ints)])


def curve(a1, a2, a3, a4, a6) -> WeierstrassCurve:
    """The curve with these rational coefficients: over their common
    denominator n, a_w = (n^(w-1) N_w) / n^w with N_w = n a_w."""
    n, (A1, A2, A3, A4, A6) = clear_denominators([rat(a) for a in (a1, a2, a3, a4, a6)])
    return WeierstrassCurve(n, (A1, A2 * n, A3 * n**2, A4 * n**3, A6 * n**5))


class CurveValues(NamedTuple):
    """A curve's rational coefficients and invariants; j is None when it is
    singular."""

    a: tuple
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Fraction | None


def values(E: WeierstrassCurve) -> CurveValues:
    """a_w = A_w / n^w, c_w = C_w / n^w, disc = D / n^12 and j = C4^3 / D
    of a curve's weighted integers, as Fractions."""
    n = E.n
    return CurveValues(tuple(Fraction(A, n**w) for A, w in zip(E.A, (1, 2, 3, 4, 6))),
                       Fraction(E.C4, n**4), Fraction(E.C6, n**6), Fraction(E.D, n**12),
                       None if E.D == 0 else Fraction(E.C4**3, E.D))


def tables(game: PayoffTables) -> tuple:
    """(A, B): a game's payoff tables as rows of Fractions, read off
    `PayoffTables.cleared`."""
    return tuple(tuple((Fraction(X[k], scale), Fraction(X[k + 1], scale)) for k in (0, 2))
                 for scale, X in game.cleared)


def game_json(game: PayoffTables) -> dict:
    """The {"A": ..., "B": ...} JSON of a game, each payoff by `rat_str`."""
    return {k: [[rat_str(x) for x in row] for row in T] for k, T in zip("AB", tables(game))}


def case_equations(case, A, B):
    """The defining polynomial(s) of one case, evaluated at (A, B)."""
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    if case == 1:
        return (a11 - a12,)
    if case == 2:
        return (a11 - a21,)
    if case == 3:
        return (a21 - a22,)
    if case == 4:
        return (b11 - b12,)
    if case == 5:
        return (b11 - b21,)
    if case == 6:
        return (b12 - b22,)
    if case == 7:
        return (a12 - a22, b21 - b22)
    if case == 8:
        return (a12 - a21, b12 - b21)
    if case == 9:
        return (a12*(b12-b22) + a21*(b22-b21) + a22*(b21-b12),
                a11*(b22-b12) + a21*(b11-b22) + a22*(b12-b11),
                a11*(b22-b21) + a12*(b11-b22) + a22*(b21-b11))
    if case == 10:
        return (a11*(b12-b21) + a12*(b21-b22) + a21*(b22-b12),
                a12*(b11-b21) + a21*(b12-b11) + a22*(b21-b12),
                a11*(b11-b21) + a21*(b22-b11) + a22*(b21-b22))
    if case == 11:
        return (a12*(b22-b21) + a21*(b12-b22) + a22*(b21-b12),
                a11*(b22-b21) + a21*(b11-b22) + a22*(b21-b11),
                a11*(b22-b12) + a12*(b11-b22) + a22*(b12-b11))
    if case == 12:
        return (a11*(b12-b21) + a12*(b22-b12) + a21*(b21-b22),
                a12*(b11-b12) + a21*(b21-b11) + a22*(b12-b21),
                a11*(b11-b21) + a12*(b22-b12) + a21*(b21-b11) + a22*(b12-b22))
    raise ValueError(f"no case {case}")


def cases_by_equations(game):
    """Classification via the transcribed equations (oracle path)."""
    matched = set()
    for case in range(1, 13):
        if all(e == 0 for e in case_equations(case, *tables(game))):
            matched.add(case)
    return frozenset(matched)


def random_game(rng, lo=-9, hi=9):
    e = lambda: Fraction(rng.randint(lo, hi))
    return PayoffTables([[e(), e()], [e(), e()]], [[e(), e()], [e(), e()]])


def _unit_table(k):
    return [[Fraction(1 if 2 * i + j == k else 0) for j in range(2)]
            for i in range(2)]


def _kernel_basis(rows):
    """Basis of the right kernel of a small rational matrix."""
    rows = [list(map(Fraction, r)) for r in rows]
    m = len(rows[0])
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(m) if c not in piv_cols]
    out = []
    for fc in free:
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -rows[i][fc]
        out.append(v)
    return out


def game_for_case(case, rng):
    """A random game matching `case` whose cubic is nonzero.

    Cases 1-8 are forced by overwriting entries; for 9-12 the equations are
    linear in B once A is fixed, so B is drawn from the exact kernel (the
    kernel always has dimension >= 2, leaving room for a nonconstant B).
    """
    e = lambda: Fraction(rng.randint(-9, 9))
    while True:
        A = [[e(), e()], [e(), e()]]
        if case <= 8:
            B = [[e(), e()], [e(), e()]]
            if case == 1:
                A[0][1] = A[0][0]
            elif case == 2:
                A[1][0] = A[0][0]
            elif case == 3:
                A[1][1] = A[1][0]
            elif case == 4:
                B[0][1] = B[0][0]
            elif case == 5:
                B[1][0] = B[0][0]
            elif case == 6:
                B[1][1] = B[0][1]
            elif case == 7:
                A[1][1] = A[0][1]
                B[1][1] = B[1][0]
            elif case == 8:
                A[1][0] = A[0][1]
                B[1][0] = B[0][1]
        else:
            n_eq = len(case_equations(case, A, _unit_table(0)))
            rows = [[case_equations(case, A, _unit_table(k))[i]
                     for k in range(4)] for i in range(n_eq)]
            basis = _kernel_basis(rows)
            B = None
            for _ in range(20):
                coefs = [Fraction(rng.randint(-4, 4)) for _ in basis]
                v = [sum(c * b[j] for c, b in zip(coefs, basis)) for j in range(4)]
                if len(set(v)) > 1:
                    B = [[v[0], v[1]], [v[2], v[3]]]
                    break
            if B is None:
                continue
        g = PayoffTables(A, B)
        if build_cubic(g).is_zero():
            continue
        # by construction; the classifier itself is what the tests check
        assert all(x == 0 for x in case_equations(case, *tables(g)))
        return g
