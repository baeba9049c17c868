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

from fractions import Fraction

from .polynomials import (
    DomainError,
    MultiPoly,
    clear_denominators,
    cross_product,
    exact_isqrt,
    point_json,
    primitive_vector,
    rat,
    rat_str,
    ratio_str,
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
        return self.q1.evaluate(point), self.q2.evaluate(point)

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

    Each difference is taken on the tables' integers
    (`PayoffTables.cleared`) and divided by its table's scale once.
    """
    (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
    q1 = MultiPoly(VARS4, {
        _mono4(0, 2): Fraction(a21 - a11, la),
        _mono4(0, 3): Fraction(a22 - a11, la),
        _mono4(1, 2): Fraction(a21 - a12, la),
        _mono4(1, 3): Fraction(a22 - a12, la),
    })
    q2 = MultiPoly(VARS4, {
        _mono4(0, 1): Fraction(b12 - b11, lb),
        _mono4(0, 3): Fraction(b22 - b11, lb),
        _mono4(1, 2): Fraction(b12 - b21, lb),
        _mono4(2, 3): Fraction(b22 - b21, lb),
    })
    return SpohnQuadrics(q1, q2)


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
    lie on the curve.  The coefficients are stored as integers over one
    denominator, c_k = ints[k] / den, the denominator not necessarily the
    least, and that is all a SpohnCubic holds; the Fractions `c` and the
    `MultiPoly` `f` are built on request.
    """

    __slots__ = ("den", "ints")

    def __init__(self, den: int, ints):
        if len(ints) != 7:
            raise ValueError("need exactly seven coefficients")
        self.den, self.ints = den, tuple(ints)

    c = property(lambda self: tuple(Fraction(x, self.den) for x in self.ints))
    f = property(lambda self: MultiPoly(VARS3, dict(zip(_CUBIC_EXPS, self.c))))

    def is_zero(self) -> bool:
        return not any(self.ints)

    def to_json(self) -> dict:
        return {
            "c": [rat_str(x) for x in self.c],
            "f": self.f.to_json(),
        }


def build_cubic(game) -> SpohnCubic:
    """The seven coefficients, straight from the payoff entries: computed on
    the tables' integers (`PayoffTables.cleared`), over the product of the
    two scales."""
    (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
    c1 = (a11 - a22) * (b11 - b12)
    c2 = (a11 - a21) * (b22 - b11)
    c3 = (a12 - a22) * (b11 - b12)
    c4 = (a11 - a21) * (b22 - b21)
    c5 = (a12 - a22) * (b21 - b12)
    c6 = (a12 - a21) * (b22 - b21)
    c7 = (a12 - a21) * (b22 - b11) + (a11 - a22) * (b21 - b12)
    return SpohnCubic(la * lb, (c1, c2, c3, c4, c5, c6, c7))


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
    return SpohnCubic(*clear_denominators([f.coefficient(e) for e in _CUBIC_EXPS]))


# ---------------------------------------------------------------------------
# degeneration to the zero cubic
# ---------------------------------------------------------------------------

def zero_cubic_classify(game) -> int | None:
    """Which of the four sufficient conditions makes the cubic vanish.

    1: one payoff table is constant
    2: a11=a21, a12=a22, b11=b12, b21=b22  (both quadrics coincide)
    3: a11=a12=a22 and b11=b21=b22
    4: a11=a12=a21 and b11=b12=b21

    Returns the first matching condition number, or None.  The equalities
    are inside one table, so they read the tables' integers.
    """
    (_, (a11, a12, a21, a22)), (_, (b11, b12, b21, b22)) = game.cleared
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

    Cases 1-8 are entry equalities inside one table; cases 9-12 each require
    three bilinear equations in (A, B) to vanish simultaneously.  Each is
    homogeneous in each table, so they run on the tables' integers
    (`PayoffTables.cleared`) and ignore the scales.  By the paper's theorem
    a nonzero cubic has a linear component iff at least one case holds
    (`classify`).
    """
    (_, (a11, a12, a21, a22)), (_, (b11, b12, b21, b22)) = game.cleared
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


def classify(game) -> tuple:
    """(kind, cases) by the paper's twelve-case theorem, with no search.

    kind is "ZeroCubic" if the cubic vanishes, else "Reducible" iff some
    case holds (a reducible plane cubic always has a linear factor), else
    "Irreducible"; cases is `classify_cases(game)`.
    """
    cases = classify_cases(game)
    if build_cubic(game).is_zero():
        return "ZeroCubic", cases
    return ("Reducible" if cases else "Irreducible"), cases


# ---------------------------------------------------------------------------
# decomposition into components
# ---------------------------------------------------------------------------

class CurveComponent:
    """One irreducible component of the plane cubic, stored as integers.

    `CurveComponent(kind, ints, multiplicity=1, point=None)`: kind is "line"
    or "conic"; `ints` is the component's primitive coefficient vector over
    `_MONOS[d]` (d = 1 for a line, 2 for a conic; content 1, first nonzero
    entry positive); `multiplicity` counts repeated factors; `point` is a
    smooth rational point of the component as a primitive integer 3-vector,
    read off exactly by `decompose_cubic`, or None if it has none (a pair of
    conjugate irrational lines, whose only rational point is singular).

    `poly` (a MultiPoly in x, y, z) is built on request.  `to_json` prints
    from the integers the bytes of `poly.to_json()` (the nonzero entries in
    `_MONOS` order, which is its descending order) and `point_json(point)`.
    """

    __slots__ = ("kind", "ints", "multiplicity", "point")

    def __init__(self, kind, ints, multiplicity=1, point=None):
        self.kind, self.ints, self.multiplicity, self.point = kind, ints, multiplicity, point

    poly = property(lambda self: MultiPoly(VARS3, dict(zip(_MONOS[_DEGREE[len(self.ints)]],
                                                           self.ints))))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "multiplicity": self.multiplicity,
            "poly": {"vars": list(VARS3), "terms": [
                {"exp": list(e), "coef": ratio_str(k, 1)}
                for e, k in zip(_MONOS[_DEGREE[len(self.ints)]], self.ints) if k]},
            "point": None if self.point is None else point_json(self.point),
        }

    def __repr__(self):
        return (f"CurveComponent({self.kind}, {self.poly}, "
                f"mult={self.multiplicity}, point={self.point})")


class ReducibilityVerdict:
    """Full reducibility report for a game's cubic.

    kind: "ZeroCubic" | "Irreducible" | "Reducible".
    scalar * product(components^multiplicity) == f exactly (checked by
    `decompose_cubic` for reducible verdicts).
    """

    def __init__(self, kind, cases=None, components=(), scalar=Fraction(1),
                 zero_condition=None):
        self.kind = kind
        self.cases = cases
        self.components = list(components)
        self.scalar = scalar
        self.zero_condition = zero_condition

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "cases": sorted(self.cases) if self.cases is not None else None,
            "zero_condition": self.zero_condition,
            "scalar": rat_str(self.scalar),
            "components": [c.to_json() for c in self.components],
        }


# A ternary form of degree d is an integer vector over _MONOS[d], the
# monomials in lex-descending order: 10 entries for a cubic, 6 for a conic,
# 3 for a line (_MONOS[1] are also the unit vectors), 1 for a constant.
_MONOS = tuple(tuple((i, j, d - i - j) for i in range(d, -1, -1)
                     for j in range(d - i, -1, -1)) for d in range(4))
_INDEX = tuple({e: n for n, e in enumerate(monos)} for monos in _MONOS)
_DEGREE = {len(monos): d for d, monos in enumerate(_MONOS)}


def _horner1(f, x, y, z):
    c0, c1, c2 = f
    return c0 * x + c1 * y + c2 * z


def _horner2(f, x, y, z):
    c0, c1, c2, c3, c4, c5 = f
    return (c0 * x + c1 * y + c2 * z) * x + (c3 * y + c4 * z) * y + c5 * z * z


def _horner3(f, x, y, z):
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = f
    zz = z * z
    return (((c0 * x + c1 * y + c2 * z) * x + (c3 * y + c4 * z) * y + c5 * zz) * x
            + ((c6 * y + c7 * z) * y + c8 * zz) * y + c9 * zz * z)


# A form's value at (x, y, z), keyed by the length of its vector: Horner in x
# over binary forms in (y, z), one fixed expression per degree.
_HORNER = {3: _horner1, 6: _horner2, 10: _horner3}


def _vanishes_on_line(form, line) -> bool:
    """Does the ternary form with integer vector `form` over `_MONOS[d]`
    (d = 1, 2 or 3: 3, 6 or 10 entries) vanish on the line
    line[0] x + line[1] y + line[2] z = 0?

    p1 and p2 are two independent cross products of the line with unit
    vectors, so they span it.  The form restricted to s p1 + t p2 is a binary
    form of degree <= 3; a nonzero one has at most 3 roots on P^1, so
    vanishing at s:t = 1:1, 1:-1, 1:0, 0:1 proves it is identically zero.
    Each value is one `_HORNER` expression on integers.  (p1 and p2 are
    where the line meets coordinate lines, often points of a candidate's
    cubic, so they are tried last.)
    """
    a, b, c = line
    if a:
        p1, p2 = (-c, 0, a), (b, -a, 0)
    else:
        p1, p2 = (0, c, -b), ((-c, 0, 0) if c else (b, 0, 0))
    plus = (p1[0] + p2[0], p1[1] + p2[1], p1[2] + p2[2])
    minus = (p1[0] - p2[0], p1[1] - p2[1], p1[2] - p2[2])
    horner = _HORNER[len(form)]
    for x, y, z in (plus, minus, p1, p2):
        if horner(form, x, y, z):
            return False
    return True


def _divide_by_line(form, line) -> list:
    """The quotient of an integer form by a primitive integer line that
    divides it, by long division in lex order: each step clears the
    remainder's leading term with a multiple of the line's leading term,
    that of x_k.  By Gauss's lemma the quotient has integer coefficients;
    `decompose_cubic` checks the final product."""
    d = _DEGREE[len(form)]
    k = next(i for i in range(3) if line[i])
    rem, quotient = list(form), [0] * len(_MONOS[d - 1])
    for n, e in enumerate(_MONOS[d]):
        if rem[n]:
            q = e[:k] + (e[k] - 1,) + e[k + 1:]
            c = quotient[_INDEX[d - 1][q]] = rem[n] // line[k]
            for m in range(k, 3):
                rem[_INDEX[d][q[:m] + (q[m] + 1,) + q[m + 1:]]] -= c * line[m]
    return quotient


def _multiply(p, q) -> list:
    """The product of two forms (convolution of their coefficient vectors)."""
    dp, dq = _DEGREE[len(p)], _DEGREE[len(q)]
    index = _INDEX[dp + dq]
    out = [0] * len(index)
    for (i, j, _), a in zip(_MONOS[dp], p):
        if a:
            for (k, m, _), b in zip(_MONOS[dq], q):
                if b:
                    out[index[i + k, j + m, dp + dq - i - j - k - m]] += a * b
    return out


def _candidate_lines(c) -> list:
    """Candidate linear components of the cubic with coefficient vector c,
    read off the seven coefficients: no search.

    On the coordinate lines f restricts to yz(c5 y + c6 z) on x = 0,
    xz(c2 x + c4 z) on y = 0 and xy(c1 x + c3 y) on z = 0, so x | f iff
    c5 = c6 = 0, y | f iff c2 = c4 = 0 and z | f iff c1 = c3 = 0.  A line
    a x + b y + c z of f meets x = 0 at [0 : c : -b], a zero of the
    restriction there unless x | f: so b = 0, c = 0 or (b, c) ~ (c5, c6).
    Likewise (a, c) ~ (c2, c4) or a or c is 0, and (a, b) ~ (c1, c3) or a or
    b is 0.  A line with one zero entry is thus L_z = (c1, c3, 0),
    L_y = (c2, 0, c4) or L_x = (0, c5, c6), and one with none satisfies all
    three proportions, which the x and y proportions alone fix:
    G1 = (c2 c6, c4 c5, c4 c6).  So when no coordinate line divides f, every
    line component is among L_z, L_y, L_x and G1.  When one does, the residual
    conic is split exactly by `decompose_cubic`, so a line missing here is
    still found, only later.  G2 = (c1 c5, c3 c5, c3 c6), from the x and z
    proportions, is listed so that the order stays that of the components in
    the verdict's JSON: when y | f, G1 vanishes and G2 may be a component.

    Lines are primitive integer 3-vectors (a, b, c) of a x + b y + c z,
    without repeats: first the coordinate lines that divide f, in the order
    x, y, z; then L_z, L_y, L_x, G1 and G2, each skipped if it has fewer than
    two nonzero entries (a coordinate line divides f only if it is already
    listed).  That is at most eight lines.  Whether one divides the cubic is
    decided by `_vanishes_on_line`, four exact evaluations.
    """
    c1, c2, c3, c4, c5, c6, c7 = c
    lines = [e for e, pair in zip(_MONOS[1], ((c5, c6), (c2, c4), (c1, c3)))
             if pair == (0, 0)]
    for v in ((c1, c3, 0), (c2, 0, c4), (0, c5, c6),
              (c2 * c6, c4 * c5, c4 * c6), (c1 * c5, c3 * c5, c3 * c6)):
        if v.count(0) < 2:
            v = primitive_vector(v)
            if v not in lines:
                lines.append(v)
    return lines


def _conic_matrix(w) -> tuple:
    """Twice the symmetric matrix of the conic with coefficient vector w,
    so that an integer conic keeps integer entries."""
    xx, xy, xz, yy, yz, zz = w
    return ((2 * xx, xy, xz), (xy, 2 * yy, yz), (xz, yz, 2 * zz))


def _split_conic(N):
    """Factor a conic over Q if it is degenerate.

    N is a positive multiple of the conic's symmetric matrix (see
    `_conic_matrix`).  Returns ("irreducible",) for a smooth conic,
    ("lines", v1, v2) for a rational line pair (v1 == v2 for a double line,
    which is when all 2x2 minors vanish) with v1, v2 primitive integer
    3-vectors and N a verified multiple of v1 v2^T + v2 v1^T, or
    ("irrational",) for a degenerate conic whose two conjugate lines are not
    defined over Q, decided exactly, so the null point that
    `decompose_cubic` reports for such a conic is a fact.

    The conic must have a squared variable.  A degenerate d1 xy + d2 xz + d3 yz
    (det = d1 d2 d3 / 4 = 0) is a coordinate line times a linear form, and
    `decompose_cubic` never passes one: a coordinate line divides the cubic
    iff its two coefficients vanish, and then the candidate lines list it and
    the division loop removes every copy before a residual conic is split.
    """
    minors = cross_product(N[1], N[2]), cross_product(N[0], N[2]), cross_product(N[0], N[1])
    if sum(a * b for a, b in zip(N[0], minors[0])):  # det N = N[0] . (N[1] x N[2])
        return ("irreducible",)
    k = next(k for k in range(3) if N[k][k])
    if not any(minors[0] + minors[1] + minors[2]):
        v1 = v2 = primitive_vector(N[k])
    else:
        # rank 2: g = alpha w^2 + w beta(u, v) + gamma(u, v) in the first
        # squared variable w = x_k splits over Q iff the discriminant
        # d_uu u^2 + d_uv uv + d_vv v^2 is the square of some r_u u + r_v v
        u, v = (i for i in range(3) if i != k)
        alpha, beta_u, beta_v = N[k][k], 2 * N[k][u], 2 * N[k][v]
        r_u = exact_isqrt(beta_u ** 2 - 4 * alpha * N[u][u])
        r_v = exact_isqrt(beta_v ** 2 - 4 * alpha * N[v][v])
        d_uv = 2 * beta_u * beta_v - 8 * alpha * N[u][v]
        if r_u is None or r_v is None or d_uv not in (2 * r_u * r_v, -2 * r_u * r_v):
            return ("irrational",)
        if 2 * r_u * r_v != d_uv:
            r_v = -r_v
        pair = []
        for s in (1, -1):
            line = [0] * 3
            line[k], line[u], line[v] = 2 * alpha, beta_u - s * r_u, beta_v - s * r_v
            pair.append(primitive_vector(line))
        v1, v2 = pair
    prod = [[v1[i] * v2[j] + v1[j] * v2[i] for j in range(3)] for i in range(3)]
    i, j = next((i, j) for i in range(3) for j in range(3) if prod[i][j])
    if any(N[a][b] * prod[i][j] != N[i][j] * prod[a][b]
           for a in range(3) for b in range(3)):
        raise AssertionError("conic split verification failed")
    return ("lines", v1, v2)


def _line_point(v) -> tuple:
    """A rational point of the primitive integer line v, as a primitive
    integer 3-vector: where it meets x = 0, v x (1, 0, 0) = (0, v[2], -v[1]),
    or [0:0:1] if v is x = 0 itself."""
    return primitive_vector((0, v[2], -v[1])) if v[1] or v[2] else (0, 0, 1)


def _coordinate_point(N):
    """The first coordinate point, in the order [0:1:0], [1:0:0], [0:0:1],
    on the conic with matrix N (a zero diagonal entry) and smooth on it (a
    nonzero row, the gradient there), as its unit 3-vector; None if there is
    none."""
    for k in (1, 0, 2):
        if N[k][k] == 0 and any(N[k]):
            return _MONOS[1][k]
    return None


def decompose_cubic(cubic: SpohnCubic) -> ReducibilityVerdict:
    """Split a nonzero ternary cubic (without pure-cube terms) into
    components over Q, with multiplicities and smooth rational points.

    The cubic's stored integers (see `SpohnCubic`) are a 10-vector, the
    residual.  A candidate line divides the residual iff the residual
    vanishes on it (`_vanishes_on_line`), and synthetic division then
    replaces the residual by the quotient: 10 -> 6 -> 3 coefficients.  A
    residual of degree 3 means no line divides f (irreducible: the candidate
    list is exhaustive whenever no coordinate line divides f); a conic is
    split further on its integer matrix, which is complete over Q.  The
    product of the components, one convolution of their vectors, must be
    proportional to the integer cubic entry by entry; the scalar is read off
    that check once, at the product's first nonzero entry.  It is the only
    Fraction built: each component keeps its primitive integer vector and
    point (`CurveComponent`), and no MultiPoly is made unless a caller asks
    for one.

    Every residual conic passes through a coordinate point (a line holds at
    most two of them), which is smooth on a smooth conic; a pair of
    conjugate irrational lines gets a null point, since its only rational
    point is the singular vertex.  These read-offs are the library's only
    route to component points: there is no point search.

    Takes a SpohnCubic only (wrap a raw MultiPoly with `cubic_from_poly`)
    and decides the kind itself.  Raises DomainError on the zero cubic.  The
    verdict's `cases` is None: a cubic knows no payoffs, and
    `reducibility_verdict` attaches the cases that `classify` decided.
    """
    if cubic.is_zero():
        raise DomainError("cannot decompose the zero cubic")

    form = [0] * 10
    for e, k in zip(_CUBIC_EXPS, cubic.ints):
        form[_INDEX[3][e]] = k
    residual = form
    found: dict = {}  # primitive line vector -> multiplicity, in order found
    for v in _candidate_lines(cubic.ints):
        while len(residual) > 1 and _vanishes_on_line(residual, v):
            residual = _divide_by_line(residual, v)
            found[v] = found.get(v, 0) + 1

    degree = _DEGREE[len(residual)]
    if degree == 3:
        return ReducibilityVerdict("Irreducible")

    conic = conic_point = None
    if degree == 2:
        N = _conic_matrix(residual)
        split = _split_conic(N)
        if split[0] == "lines":
            for v in split[1:]:  # v1 == v2 for a double line
                found[v] = found.get(v, 0) + 1
        else:  # smooth, or an irrational line pair: one conic component
            conic = primitive_vector(residual)
            if split[0] == "irreducible":
                conic_point = _coordinate_point(N)
    elif degree == 1:
        # happens when coordinate-line shortcuts peeled two factors and the
        # third line is generic (the coordinate restrictions that would have
        # located it vanished identically); the residual is an exact factor,
        # hence a component outright
        found[primitive_vector(residual)] = 1

    # exact reconstruction check: the product is proportional to form, and
    # the scalar is read off its first nonzero entry i
    product = [1]
    for v, mult in found.items():
        for _ in range(mult):
            product = _multiply(product, v)
    if conic is not None:
        product = _multiply(product, conic)
    i = next(i for i in range(10) if product[i])
    if any(form[i] * p != product[i] * q for p, q in zip(product, form)):
        raise AssertionError("component product does not reproduce the cubic")
    scalar = Fraction(form[i], product[i] * cubic.den)

    components = [CurveComponent("line", v, mult, _line_point(v)) for v, mult in found.items()]
    if conic is not None:
        components.append(CurveComponent("conic", conic, point=conic_point))
    return ReducibilityVerdict("Reducible", components=components, scalar=scalar)


def reducibility_verdict(game) -> ReducibilityVerdict:
    """Game-level report: kind and cases from `classify` (an irreducible
    verdict involves no search), the zero-cubic condition, and the
    components of a reducible cubic from `decompose_cubic`, whose verdict
    gets the cases `classify` decided.  AssertionError if no rational line
    divides a reducible one: the twelve-case theorem would be contradicted.
    """
    kind, cases = classify(game)
    if kind == "ZeroCubic":
        cond = zero_cubic_classify(game)
        if cond is None:  # pragma: no cover
            raise AssertionError("zero cubic outside the four known conditions")
        return ReducibilityVerdict("ZeroCubic", cases=cases, zero_condition=cond)
    if kind == "Irreducible":
        return ReducibilityVerdict("Irreducible", cases=cases)
    verdict = decompose_cubic(build_cubic(game))
    if verdict.kind != "Reducible":
        raise AssertionError("a case of the twelve-case theorem holds, but no "
                             "rational line divides the cubic")
    verdict.cases = cases
    return verdict
