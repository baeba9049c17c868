"""Spohn quadrics and cubic of a 2x2 game; reducibility of the cubic.

The Spohn variety of a game lives in P^3 with coordinates
(p11, p12, p21, p22) and is cut out by two quadrics, the determinants that
equalize each player's conditional expected payoffs.  Projecting away p22
maps the curve to a plane cubic in (x, y, z) = (p11, p12, p21); this module
builds that cubic directly from the payoff entries, classifies when it
degenerates or acquires a line, and decomposes it into components with
explicit smooth rational points.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import (
    DomainError,
    MultiPoly,
    ProjPoint,
    cross_product,
    det,
    primitive_vector,
    rat,
    rat_str,
    rational_sqrt,
)

VARS4 = ("p11", "p12", "p21", "p22")
VARS3 = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the two quadrics
# ---------------------------------------------------------------------------

class SpohnQuadrics:
    """The pair of quadrics cutting out the Spohn variety in P^3.

    q1 uses only the monomials p11p21, p11p22, p12p21, p12p22 and q2 only
    p11p12, p11p22, p12p21, p21p22; both vanish at the four coordinate
    points.
    """

    __slots__ = ("q1", "q2")

    def __init__(self, q1: MultiPoly, q2: MultiPoly):
        self.q1, self.q2 = q1, q2

    def evaluate(self, point) -> tuple:
        coords = point.coords if isinstance(point, ProjPoint) else point
        return self.q1.evaluate(coords), self.q2.evaluate(coords)

    def to_json(self) -> dict:
        return {"q1": self.q1.to_json(), "q2": self.q2.to_json()}


def _mono4(i: int, j: int) -> tuple:
    e = [0, 0, 0, 0]
    e[i] += 1
    e[j] += 1
    return tuple(e)


def build_quadrics(game) -> SpohnQuadrics:
    """det M1 and det M2 as quadratic forms on (p11, p12, p21, p22).

    det M1 = (a21-a11) p11p21 + (a22-a11) p11p22
           + (a21-a12) p12p21 + (a22-a12) p12p22
    det M2 = (b12-b11) p11p12 + (b22-b11) p11p22
           + (b12-b21) p12p21 + (b22-b21) p21p22
    """
    a11, a12, a21, a22 = game.a11, game.a12, game.a21, game.a22
    b11, b12, b21, b22 = game.b11, game.b12, game.b21, game.b22
    q1 = MultiPoly(VARS4, {
        _mono4(0, 2): a21 - a11,
        _mono4(0, 3): a22 - a11,
        _mono4(1, 2): a21 - a12,
        _mono4(1, 3): a22 - a12,
    })
    q2 = MultiPoly(VARS4, {
        _mono4(0, 1): b12 - b11,
        _mono4(0, 3): b22 - b11,
        _mono4(1, 2): b12 - b21,
        _mono4(2, 3): b22 - b21,
    })
    return SpohnQuadrics(q1, q2)


def variety_membership(quadrics: SpohnQuadrics, point) -> bool:
    """Exact test: does a projective point lie on both quadrics?"""
    v1, v2 = quadrics.evaluate(point)
    return v1 == 0 and v2 == 0


def w_membership(p) -> bool:
    """Is a point on the marginal-degeneration divisor
    W = V((p11+p12)(p21+p22)(p11+p21)(p12+p22))?"""
    coords = p.as_tuple() if hasattr(p, "as_tuple") else tuple(rat(x) for x in p)
    p11, p12, p21, p22 = coords
    return (p11 + p12) * (p21 + p22) * (p11 + p21) * (p12 + p22) == 0


# ---------------------------------------------------------------------------
# the plane cubic
# ---------------------------------------------------------------------------

# monomial order of the seven coefficients c1..c7
_CUBIC_EXPS = (
    (2, 1, 0),  # x^2 y
    (2, 0, 1),  # x^2 z
    (1, 2, 0),  # x y^2
    (1, 0, 2),  # x z^2
    (0, 2, 1),  # y^2 z
    (0, 1, 2),  # y z^2
    (1, 1, 1),  # x y z
)


class SpohnCubic:
    """The plane cubic obtained from the Spohn quadrics by eliminating p22.

    f = c1 x^2 y + c2 x^2 z + c3 x y^2 + c4 x z^2 + c5 y^2 z + c6 y z^2
        + c7 x y z           with (x, y, z) = (p11, p12, p21).

    There are never pure-cube terms, so the three coordinate points always
    lie on the curve.  `game` keeps a handle on the source payoffs so the
    reducibility verdict can evaluate the case predicates.
    """

    __slots__ = ("c", "f", "game")

    def __init__(self, c, game=None):
        cs = tuple(rat(x) for x in c)
        if len(cs) != 7:
            raise ValueError("need exactly seven coefficients")
        self.c = cs
        self.f = MultiPoly(VARS3, dict(zip(_CUBIC_EXPS, cs)))
        self.game = game

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def to_json(self) -> dict:
        return {
            "c": [rat_str(x) for x in self.c],
            "f": self.f.to_json(),
        }


def build_cubic(game) -> SpohnCubic:
    """The seven coefficients, straight from the payoff entries."""
    a11, a12, a21, a22 = game.a11, game.a12, game.a21, game.a22
    b11, b12, b21, b22 = game.b11, game.b12, game.b21, game.b22
    c1 = (a11 - a22) * (b11 - b12)
    c2 = (a11 - a21) * (b22 - b11)
    c3 = (a12 - a22) * (b11 - b12)
    c4 = (a11 - a21) * (b22 - b21)
    c5 = (a12 - a22) * (b21 - b12)
    c6 = (a12 - a21) * (b22 - b21)
    c7 = (a12 - a21) * (b22 - b11) + (a11 - a22) * (b21 - b12)
    return SpohnCubic((c1, c2, c3, c4, c5, c6, c7), game=game)


def cubic_from_poly(f: MultiPoly) -> SpohnCubic:
    """Wrap a raw ternary cubic with no pure-cube terms as a SpohnCubic."""
    if f.vars != VARS3:
        f = MultiPoly(VARS3, {e: c for e, c in f.terms.items()})
    if not f.is_zero() and (f.degree() != 3 or not f.is_homogeneous()):
        raise DomainError("expected a homogeneous ternary cubic")
    for k in range(3):
        e = tuple(3 if i == k else 0 for i in range(3))
        if f.coefficient(e) != 0:
            raise DomainError("cubic has a pure-cube term; not of the "
                              "no-coordinate-point-missed shape handled here")
    return SpohnCubic(tuple(f.coefficient(e) for e in _CUBIC_EXPS))


# ---------------------------------------------------------------------------
# degeneration to the zero cubic
# ---------------------------------------------------------------------------

def zero_cubic_classify(game) -> int | None:
    """Which of the four sufficient conditions makes the cubic vanish.

    1: one payoff table is constant
    2: a11=a21, a12=a22, b11=b12, b21=b22  (both quadrics coincide)
    3: a11=a12=a22 and b11=b21=b22
    4: a11=a12=a21 and b11=b12=b21

    Returns the first matching condition number, or None.
    """
    a11, a12, a21, a22 = game.a11, game.a12, game.a21, game.a22
    b11, b12, b21, b22 = game.b11, game.b12, game.b21, game.b22
    if a11 == a12 == a21 == a22 or b11 == b12 == b21 == b22:
        return 1
    if a11 == a21 and a12 == a22 and b11 == b12 and b21 == b22:
        return 2
    if a11 == a12 == a22 and b11 == b21 == b22:
        return 3
    if a11 == a12 == a21 and b11 == b12 == b21:
        return 4
    return None


# ---------------------------------------------------------------------------
# the twelve reducibility cases
# ---------------------------------------------------------------------------

def classify_cases(game) -> frozenset:
    """Evaluate the twelve case predicates exactly; return every match.

    Cases 1-8 are entry equalities; cases 9-12 each require three bilinear
    equations to vanish simultaneously.  A nonzero cubic acquires a linear
    component iff at least one case holds (and conversely), which the
    decomposition route verifies independently.
    """
    a11, a12, a21, a22 = game.a11, game.a12, game.a21, game.a22
    b11, b12, b21, b22 = game.b11, game.b12, game.b21, game.b22
    cases = set()
    if a11 == a12:
        cases.add(1)
    if a11 == a21:
        cases.add(2)
    if a21 == a22:
        cases.add(3)
    if b11 == b12:
        cases.add(4)
    if b11 == b21:
        cases.add(5)
    if b12 == b22:
        cases.add(6)
    if a12 == a22 and b21 == b22:
        cases.add(7)
    if a12 == a21 and b12 == b21:
        cases.add(8)
    if (a12 * (b12 - b22) + a21 * (b22 - b21) + a22 * (b21 - b12) == 0
            and a11 * (b22 - b12) + a21 * (b11 - b22) + a22 * (b12 - b11) == 0
            and a11 * (b22 - b21) + a12 * (b11 - b22) + a22 * (b21 - b11) == 0):
        cases.add(9)
    if (a11 * (b12 - b21) + a12 * (b21 - b22) + a21 * (b22 - b12) == 0
            and a12 * (b11 - b21) + a21 * (b12 - b11) + a22 * (b21 - b12) == 0
            and a11 * (b11 - b21) + a21 * (b22 - b11) + a22 * (b21 - b22) == 0):
        cases.add(10)
    if (a12 * (b22 - b21) + a21 * (b12 - b22) + a22 * (b21 - b12) == 0
            and a11 * (b22 - b21) + a21 * (b11 - b22) + a22 * (b21 - b11) == 0
            and a11 * (b22 - b12) + a12 * (b11 - b22) + a22 * (b12 - b11) == 0):
        cases.add(11)
    if (a11 * (b12 - b21) + a12 * (b22 - b12) + a21 * (b21 - b22) == 0
            and a12 * (b11 - b12) + a21 * (b21 - b11) + a22 * (b12 - b21) == 0
            and a11 * (b11 - b21) + a12 * (b22 - b12) + a21 * (b21 - b11)
            + a22 * (b12 - b22) == 0):
        cases.add(12)
    return frozenset(cases)


# ---------------------------------------------------------------------------
# decomposition into components
# ---------------------------------------------------------------------------

class CurveComponent:
    """One irreducible component of the plane cubic.

    kind is "line" or "conic"; `poly` is primitive (integer coefficients,
    content 1, first nonzero coefficient positive); `multiplicity` counts
    repeated factors; `point` is a smooth rational point of the component
    (None only if the bounded search failed, which is reported, not hidden).
    """

    __slots__ = ("kind", "poly", "multiplicity", "point")

    def __init__(self, kind, poly, multiplicity=1, point=None):
        self.kind = kind
        self.poly = poly
        self.multiplicity = multiplicity
        self.point = point

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "multiplicity": self.multiplicity,
            "poly": self.poly.to_json(),
            "point": self.point.to_json() if self.point is not None else None,
        }

    def __repr__(self):
        return (f"CurveComponent({self.kind}, {self.poly}, "
                f"mult={self.multiplicity}, point={self.point})")


class ReducibilityVerdict:
    """Full reducibility report for a game's cubic.

    kind: "ZeroCubic" | "Irreducible" | "Reducible".
    scalar * product(components^multiplicity) == f exactly (verified at
    construction for reducible verdicts).
    """

    def __init__(self, kind, cases=None, components=(), scalar=Fraction(1),
                 zero_condition=None, cubic=None):
        self.kind = kind
        self.cases = cases
        self.components = list(components)
        self.scalar = scalar
        self.zero_condition = zero_condition
        self.cubic = cubic

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "cases": sorted(self.cases) if self.cases is not None else None,
            "zero_condition": self.zero_condition,
            "scalar": rat_str(self.scalar),
            "components": [c.to_json() for c in self.components],
        }


def _primitive_poly(p: MultiPoly) -> tuple:
    """Scale to integer coefficients, content 1, first (lex-max) coeff > 0.

    Returns (primitive poly, scalar) with poly * scalar == p.
    """
    if p.is_zero():
        return p, Fraction(1)
    exps = sorted(p.terms, reverse=True)
    ints = primitive_vector([p.terms[e] for e in exps])
    return MultiPoly(p.vars, dict(zip(exps, ints))), p.terms[exps[0]] / ints[0]


def _linear_form(v) -> MultiPoly:
    """The linear form v[0] x + v[1] y + v[2] z."""
    return MultiPoly(VARS3, {(1, 0, 0): v[0], (0, 1, 0): v[1], (0, 0, 1): v[2]})


def _integer_terms(p: MultiPoly) -> list:
    """p's terms as (exponent, int) pairs: p scaled by the lcm of its
    coefficient denominators, which has the same zeros."""
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    return [(e, c.numerator * (lcm // c.denominator)) for e, c in p.terms.items()]


def _vanishes_on_line(terms, line) -> bool:
    """Does the ternary form with integer `terms` (degree 1 to 3) vanish on
    the line line[0] x + line[1] y + line[2] z = 0?

    p1 and p2 are two independent cross products of the line with unit
    vectors, so they span it.  The form restricted to s p1 + t p2 is a binary
    form of degree <= 3; a nonzero one has at most 3 roots on P^1, so
    vanishing at s:t = 1:1, 1:-1, 1:0, 0:1 proves it is identically zero.
    (p1 and p2 are where the line meets coordinate lines, often points of a
    candidate's cubic, so they are tried last.)
    """
    a, b, c = line
    if a:
        p1, p2 = (-c, 0, a), (b, -a, 0)
    else:
        p1, p2 = (0, c, -b), ((-c, 0, 0) if c else (b, 0, 0))
    plus = (p1[0] + p2[0], p1[1] + p2[1], p1[2] + p2[2])
    minus = (p1[0] - p2[0], p1[1] - p2[1], p1[2] - p2[2])
    for x, y, z in (plus, minus, p1, p2):
        if sum(k * x ** e[0] * y ** e[1] * z ** e[2] for e, k in terms):
            return False
    return True


def _candidate_lines(c) -> list:
    """Candidate linear components of the cubic with coefficient vector c.

    Any line contained in the cubic must meet each coordinate line
    V(x), V(y), V(z), and on those the cubic restricts to a product of
    known linear factors — so its intersection points with V(x) and with
    V(y) or V(z) both come from short division-free lists.  Every pair of
    such points spans a candidate; the true components are among them.

    Lines are primitive integer 3-vectors (a, b, c) of a x + b y + c z,
    without repeats, in a fixed order.  Whether one divides the cubic is
    decided by `_vanishes_on_line`, four exact evaluations.
    """
    c1, c2, c3, c4, c5, c6, c7 = c
    X1 = [(0, 0, 1), (0, 1, 0)]
    if (c5, c6) != (0, 0):
        X1.append(primitive_vector((0, c6, -c5)))
    X2 = [(0, 0, 1), (1, 0, 0)]
    if (c2, c4) != (0, 0):
        X2.append(primitive_vector((c4, 0, -c2)))
    X3 = [(0, 1, 0), (1, 0, 0)]
    if (c1, c3) != (0, 0):
        X3.append(primitive_vector((c3, -c1, 0)))

    lines = []

    def push(v):
        if any(v):
            v = primitive_vector(v)
            if v not in lines:
                lines.append(v)

    # coordinate lines that are forced components by vanishing restrictions
    if c5 == 0 and c6 == 0:
        push((1, 0, 0))  # x | f
    if c2 == 0 and c4 == 0:
        push((0, 1, 0))  # y | f
    if c1 == 0 and c3 == 0:
        push((0, 0, 1))  # z | f

    uniq = list(dict.fromkeys(X1))
    others = list(dict.fromkeys(X2 + X3))
    for p in uniq:
        for q in others:
            if p != q:
                push(cross_product(p, q))
    return lines


def _conic_matrix(g: MultiPoly) -> list:
    """Symmetric 3x3 matrix of a ternary quadratic form."""
    M = [[Fraction(0)] * 3 for _ in range(3)]
    for exp, c in g.terms.items():
        idx = [k for k in range(3) for _ in range(exp[k])]
        i, j = idx
        if i == j:
            M[i][i] += c
        else:
            M[i][j] += c / 2
            M[j][i] += c / 2
    return M


def _matrix_rank(M) -> int:
    """Rank of a small rational matrix by fraction Gaussian elimination."""
    rows = [list(r) for r in M]
    rank, col = 0, 0
    n, m = len(rows), len(rows[0])
    while rank < n and col < m:
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _square_root_of_binary_square(d_uu, d_uv, d_vv):
    """If d_uu u^2 + d_uv uv + d_vv v^2 = (alpha u + beta v)^2, return
    (alpha, beta); else None."""
    alpha = rational_sqrt(d_uu)
    beta = rational_sqrt(d_vv)
    if alpha is None or beta is None:
        return None
    # signs: need 2*alpha*beta == d_uv
    for s in (1, -1):
        if 2 * alpha * s * beta == d_uv:
            return alpha, s * beta
    return None


def _split_conic(g: MultiPoly):
    """Factor a ternary conic over Q if it is degenerate.

    Returns ("irreducible",) for a smooth conic, ("lines", v1, v2, ratio)
    for a rational line pair (v1 == v2 for a double line) with v1, v2
    primitive integer 3-vectors and g == ratio (v1 . x)(v2 . x) verified, or
    ("irrational",) for a degenerate conic whose two conjugate lines are not
    defined over Q.

    g must have a squared variable.  A degenerate d1 xy + d2 xz + d3 yz
    (det = d1 d2 d3 / 4 = 0) is a coordinate line times a linear form, and
    `decompose_cubic` never passes one: a coordinate line divides the cubic
    iff its two coefficients vanish, and then the candidate lines list it and
    the division loop removes every copy before a residual conic is split.
    """
    M = _conic_matrix(g)
    if det(M) != 0:
        return ("irreducible",)
    if _matrix_rank(M) == 1:
        i = next(k for k in range(3) if M[k][k] != 0)
        v1 = v2 = primitive_vector(M[i])
    else:
        # rank 2: the quadratic formula in the first variable w = x_k that
        # appears squared, g = alpha w^2 + w beta(u, v) + gamma(u, v)
        k = next(k for k in range(3) if M[k][k] != 0)
        other = [i for i in range(3) if i != k]
        alpha = M[k][k]
        beta = [2 * M[k][other[0]], 2 * M[k][other[1]]]
        d_uu = beta[0] ** 2 - 4 * alpha * M[other[0]][other[0]]
        d_uv = 2 * beta[0] * beta[1] - 8 * alpha * M[other[0]][other[1]]
        d_vv = beta[1] ** 2 - 4 * alpha * M[other[1]][other[1]]
        root = _square_root_of_binary_square(d_uu, d_uv, d_vv)
        if root is None:
            return ("irrational",)
        pair = []
        for s in (1, -1):
            coeffs = [Fraction(0)] * 3
            coeffs[k] = 2 * alpha
            coeffs[other[0]] = beta[0] - s * root[0]
            coeffs[other[1]] = beta[1] - s * root[1]
            pair.append(primitive_vector(coeffs))
        v1, v2 = pair
    # g == ratio (v1 . x)(v2 . x) iff M == ratio (v1 v2^T + v2 v1^T) / 2
    prod = [[Fraction(v1[i] * v2[j] + v1[j] * v2[i], 2) for j in range(3)]
            for i in range(3)]
    i, j = next((i, j) for i in range(3) for j in range(3) if prod[i][j])
    ratio = M[i][j] / prod[i][j]
    if any(M[i][j] != ratio * prod[i][j] for i in range(3) for j in range(3)):
        raise AssertionError("conic split verification failed")
    return ("lines", v1, v2, ratio)


def smooth_rational_point(component: CurveComponent) -> ProjPoint:
    """A rational point of the component where its gradient does not vanish.

    Lines: cross the coefficient vector with a coordinate vector.  Conics:
    try the three coordinate points first, then search coordinate-line
    slices with parameters of height <= 100.  Raises DomainError if the
    budgeted search finds nothing (degenerate conics without rational
    points, reported rather than silently skipped).  A pair of conjugate
    irrational lines raises at once: its only rational point is singular.
    """
    g = component.poly
    if component.kind == "line":
        coeffs = [g.coefficient(tuple(1 if i == k else 0 for i in range(3)))
                  for k in range(3)]
        for k in range(3):
            e = [Fraction(0)] * 3
            e[k] = Fraction(1)
            v = cross_product(coeffs, e)
            if any(x != 0 for x in v):
                return ProjPoint(v)
        raise AssertionError("zero line")  # pragma: no cover

    # conic: coordinate points in the fixed candidate order
    for coords in ((0, 1, 0), (1, 0, 0), (0, 0, 1)):
        if g.evaluate(coords) == 0:
            grad = g.gradient_at(coords)
            if any(x != 0 for x in grad):
                return ProjPoint(coords)

    # a degenerate conic with irrational lines has one rational point, the
    # lines' intersection, and it is singular
    if _split_conic(g)[0] == "irrational":
        raise DomainError("the conic is a pair of conjugate irrational lines: "
                          "its only rational point is singular")

    # bounded slice search: fix two coordinates at small heights, solve the
    # remaining quadratic exactly
    def try_point(coords):
        if g.evaluate(coords) != 0:
            return None
        grad = g.gradient_at(coords)
        if all(x == 0 for x in grad):
            return None
        return ProjPoint(coords)

    for solve_var in range(3):
        keep = [i for i in range(3) if i != solve_var]
        for h1 in range(0, 101):
            for h2 in range(1, 101):
                for s1 in ((1, -1) if h1 else (1,)):
                    vals = {keep[0]: Fraction(s1 * h1), keep[1]: Fraction(h2)}
                    # g restricted: quadratic alpha w^2 + beta w + gamma
                    alpha = Fraction(0)
                    beta = Fraction(0)
                    gamma = Fraction(0)
                    for exp, c in g.terms.items():
                        w = exp[solve_var]
                        term = c
                        for i in keep:
                            term *= vals[i] ** exp[i]
                        if w == 2:
                            alpha += term
                        elif w == 1:
                            beta += term
                        else:
                            gamma += term
                    sols = []
                    if alpha == 0:
                        if beta != 0:
                            sols.append(-gamma / beta)
                    else:
                        root = rational_sqrt(beta ** 2 - 4 * alpha * gamma)
                        if root is not None:
                            sols.extend([(-beta + root) / (2 * alpha),
                                         (-beta - root) / (2 * alpha)])
                    for w in sols:
                        coords = [Fraction(0)] * 3
                        coords[solve_var] = w
                        coords[keep[0]] = vals[keep[0]]
                        coords[keep[1]] = vals[keep[1]]
                        if all(x == 0 for x in coords):
                            continue
                        pt = try_point(tuple(coords))
                        if pt is not None:
                            return pt
    raise DomainError("no smooth rational point found on the conic within "
                      "the height-100 search budget")


def decompose_cubic(cubic) -> ReducibilityVerdict:
    """Split a nonzero ternary cubic (without pure-cube terms) into
    components over Q, with multiplicities and smooth rational points.

    A candidate line divides the residual iff the residual vanishes on it.
    That is decided on the residual's coefficients scaled to integers, by
    evaluating at four distinct points of the line: a nonzero binary form of
    degree <= 3 has at most 3 roots on P^1, so four zeros are a proof, and
    `divide_by_linear` then multiplies its quotient back as a second check.

    After peeling every dividing candidate line the residual has degree 3
    (no line divides f: genuinely irreducible, since the candidate list is
    exhaustive whenever no coordinate line divides f), degree 2 (split
    further by the conic routine, which is complete over Q), degree 1 (an
    exact linear factor in hand), or degree 0.  The product
    of the returned component polynomials (with multiplicity) times
    `scalar` reproduces the input exactly.

    Accepts a SpohnCubic or a raw MultiPoly.  Raises DomainError on the zero
    cubic.  When the cubic came from a game, the twelve case predicates are
    evaluated and reported alongside (the two routes are kept independent:
    no cross-enforcement here; tests compare them).
    """
    if isinstance(cubic, MultiPoly):
        cubic = cubic_from_poly(cubic)
    if cubic.is_zero():
        raise DomainError("cannot decompose the zero cubic")
    cases = classify_cases(cubic.game) if cubic.game is not None else None

    f = cubic.f
    work, terms = f, _integer_terms(f)
    found: dict = {}  # primitive line vector -> multiplicity, in order found
    forms: dict = {}  # primitive line vector -> its linear form, built once
    for v in _candidate_lines(cubic.c):
        while work.degree() >= 1 and _vanishes_on_line(terms, v):
            if v not in forms:
                forms[v] = _linear_form(v)
            work = work.divide_by_linear(forms[v])
            terms = _integer_terms(work)
            found[v] = found.get(v, 0) + 1

    components = []
    scalar = Fraction(1)
    if work.degree() == 3:
        verdict_kind = "Irreducible"
    elif work.degree() == 2:
        verdict_kind = "Reducible"
        split = _split_conic(work)
        if split[0] == "lines":
            _, v1, v2, ratio = split
            scalar *= ratio
            for v in (v1, v2):  # v1 == v2 for a double line
                found[v] = found.get(v, 0) + 1
        else:  # smooth, or an irrational line pair: one conic component
            prim, s = _primitive_poly(work)
            scalar *= s
            components.append(CurveComponent("conic", prim))
    elif work.degree() == 1:
        # happens when coordinate-line shortcuts peeled two factors and the
        # third line is generic (the coordinate restrictions that would have
        # located it vanished identically); the residual is an exact factor,
        # hence a component outright
        verdict_kind = "Reducible"
        coeffs = [work.coefficient(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        v = primitive_vector(coeffs)
        k = next(k for k in range(3) if v[k])
        scalar *= coeffs[k] / v[k]
        found[v] = 1
    elif work.degree() == 0:
        verdict_kind = "Reducible"
        scalar *= next(iter(work.terms.values()))
    else:  # pragma: no cover
        raise AssertionError("impossible residual degree")

    line_components = [CurveComponent("line", forms.get(v) or _linear_form(v), mult)
                       for v, mult in found.items()]
    components = line_components + components
    if line_components:
        verdict_kind = "Reducible"

    # smooth points, or null where none exists (an irrational line pair)
    for comp in components:
        try:
            comp.point = smooth_rational_point(comp)
        except DomainError:
            comp.point = None  # reported as null in the verdict

    # exact reconstruction check (reducible verdicts list every factor)
    if verdict_kind == "Reducible":
        prod = MultiPoly.constant(VARS3, scalar)
        for comp in components:
            prod = prod * comp.poly ** comp.multiplicity
        if prod != f:
            raise AssertionError("component product does not reproduce the cubic")

    verdict = ReducibilityVerdict(verdict_kind, cases=cases,
                                  components=components, scalar=scalar,
                                  cubic=cubic)
    return verdict


def reducibility_verdict(game) -> ReducibilityVerdict:
    """Game-level report: zero-cubic condition, matched cases, decomposition."""
    cubic = build_cubic(game)
    if cubic.is_zero():
        cond = zero_cubic_classify(game)
        if cond is None:  # pragma: no cover
            raise AssertionError("zero cubic outside the four known conditions")
        return ReducibilityVerdict("ZeroCubic", cases=classify_cases(game),
                                   zero_condition=cond, cubic=cubic)
    return decompose_cubic(cubic)
