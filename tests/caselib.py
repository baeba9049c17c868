"""Test-side oracle for the twelve reducibility cases.

The case equations are transcribed here independently of the library so the
classifier is checked against a second reading of the same conditions, and
seeded generators produce games satisfying any prescribed case.  Cases 9-12
are three (or four) bilinear equations; for a fixed payoff table A they are
linear in the entries of B, so a kernel basis gives every matching B.  Two
converters, `sparse` and `poly`, move a polynomial between a `MultiPoly` and
the sparse terms that the library reads and builds.
"""

from fractions import Fraction

from spohncurves import MultiPoly, PayoffTables, build_cubic


def sparse(P: MultiPoly) -> tuple:
    """P as sparse terms (vars, [(exponent, n, d), ...])."""
    return P.vars, [(e, c.numerator, c.denominator) for e, c in P.terms.items()]


def poly(terms) -> MultiPoly:
    """The MultiPoly of sparse terms (vars, [(exponent, n, d), ...])."""
    return MultiPoly(terms[0], [(e, Fraction(n, d)) for e, n, d in terms[1]])


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
        if all(e == 0 for e in case_equations(case, game.A, game.B)):
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
        assert all(x == 0 for x in case_equations(case, g.A, g.B))
        return g
