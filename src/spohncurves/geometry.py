"""Spohn quadrics and cubic of a 2x2 game; reducibility of the cubic.

The Spohn variety of a game lives in P^3 with coordinates
(p11, p12, p21, p22) and is cut out by two quadrics, the determinants that
equalize each player's conditional expected payoffs.  Projecting away p22
maps the curve to a plane cubic in (x, y, z) = (p11, p12, p21); this module
builds the quadrics and that cubic directly from the payoff entries, on
integers, classifies when the cubic degenerates or acquires a line, and
decomposes it into components with the smooth rational points read off
them.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import (
    DomainError,
    MultiPoly,
    cross_product,
    exact_root,
    point_json,
    primitive_vector,
    rat_str,
    ratio_str,
    terms_json,
)

VARS4 = ("p11", "p12", "p21", "p22")
VARS3 = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the two quadrics
# ---------------------------------------------------------------------------

def _mono4(i: int, j: int) -> tuple:
    e = [0, 0, 0, 0]
    e[i] += 1
    e[j] += 1
    return tuple(e)


def build_quadrics(game) -> tuple:
    """det M1 and det M2 as quadratic forms on (p11, p12, p21, p22).

    det M1 = (a21-a11) p11p21 + (a22-a11) p11p22
           + (a21-a12) p12p21 + (a22-a12) p12p22
    det M2 = (b12-b11) p11p12 + (b22-b11) p11p22
           + (b12-b21) p12p21 + (b22-b21) p21p22

    Returns each in the sparse-term form (vars, [(exponent, n, d), ...])
    that `polynomials.terms_json` prints and `elliptic.QuadricPair` reads:
    four terms in descending exponent order, each a difference of the
    tables' integers (`PayoffTables.cleared`) over its table's scale.  Both
    vanish at the four coordinate points.
    """
    (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
    q1 = [(_mono4(0, 2), a21 - a11, la), (_mono4(0, 3), a22 - a11, la),
          (_mono4(1, 2), a21 - a12, la), (_mono4(1, 3), a22 - a12, la)]
    q2 = [(_mono4(0, 1), b12 - b11, lb), (_mono4(0, 3), b22 - b11, lb),
          (_mono4(1, 2), b12 - b21, lb), (_mono4(2, 3), b22 - b21, lb)]
    return (VARS4, q1), (VARS4, q2)


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
    least, and that is all a SpohnCubic holds; the `MultiPoly` `f` is built
    on request, and `to_json` prints the c_k and `f` from the integers.
    """

    __slots__ = ("den", "ints")

    def __init__(self, den: int, ints):
        if len(ints) != 7:
            raise ValueError("need exactly seven coefficients")
        self.den, self.ints = den, tuple(ints)

    f = property(lambda self: MultiPoly(VARS3, [
        (e, Fraction(x, self.den)) for e, x in zip(_CUBIC_EXPS, self.ints)]))

    def is_zero(self) -> bool:
        return not any(self.ints)

    def to_json(self) -> dict:
        """The c_k, each by `ratio_str`, and the bytes of `f.to_json()`,
        printed from the integers."""
        den = self.den
        return {
            "c": [ratio_str(x, den) for x in self.ints],
            "f": terms_json(VARS3, [(e, x, den) for e, x in
                                    sorted(zip(_CUBIC_EXPS, self.ints), reverse=True)]),
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

    `CurveComponent(kind, ints, multiplicity, point)`: kind is "line" or
    "conic"; `ints` is the component's primitive coefficient vector over
    `_MONOS[d]` (d = 1 for a line, 2 for a conic; content 1, first nonzero
    entry positive); `multiplicity` counts repeated factors; `point` is a
    smooth rational point of the component as a primitive integer 3-vector,
    read off exactly by `decompose_cubic`, which finds one on every
    component of a game's cubic.

    `poly` (a MultiPoly in x, y, z) is built on request.  `to_json` prints
    from the integers the bytes of `poly.to_json()`, through the one
    polynomial writer `terms_json` (the entries as (exponent, k, 1) triples
    in `_MONOS` order, which is its descending order), and
    `point_json(point)`.
    """

    __slots__ = ("kind", "ints", "multiplicity", "point")

    def __init__(self, kind, ints, multiplicity, point):
        self.kind, self.ints, self.multiplicity, self.point = kind, ints, multiplicity, point

    poly = property(lambda self: MultiPoly(VARS3, dict(zip(_MONOS[_DEGREE[len(self.ints)]],
                                                           self.ints))))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "multiplicity": self.multiplicity,
            "poly": terms_json(VARS3, [(e, k, 1) for e, k in
                                       zip(_MONOS[_DEGREE[len(self.ints)]], self.ints)]),
            "point": point_json(self.point),
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
_DEGREE = {len(monos): d for d, monos in enumerate(_MONOS)}


# the coordinates after x and x_k are exchanged, for k = 0, 1, 2 (a line's
# pivot x_k moves to x)
_EXCHANGE = ((0, 1, 2), (1, 0, 2), (2, 1, 0))
# form length -> k -> the same exchange on a form's entries, as indices into
# it: the form g(x) = f(x exchanged) is [f[i] for i in _SWAP[len(f)][k]], and
# each permutation is its own inverse
_SWAP = {len(monos): tuple(tuple(monos.index(tuple([e[i] for i in p])) for e in monos)
                           for p in _EXCHANGE) for monos in _MONOS}


def _quotient3(f, a, b, c):
    """The conic q with (a x + b y + c z) q = f for the cubic f, a != 0, or
    None.  The six x-monomials of f fix q0..q5, one exact division by a each;
    the four free of x must then agree."""
    f0, f1, f2, f3, f4, f5, f6, f7, f8, f9 = f
    q0, r0 = divmod(f0, a)
    q1, r1 = divmod(f1 - b * q0, a)
    q2, r2 = divmod(f2 - c * q0, a)
    q3, r3 = divmod(f3 - b * q1, a)
    q4, r4 = divmod(f4 - b * q2 - c * q1, a)
    q5, r5 = divmod(f5 - c * q2, a)
    if (r0 or r1 or r2 or r3 or r4 or r5 or b * q3 != f6 or b * q4 + c * q3 != f7
            or b * q5 + c * q4 != f8 or c * q5 != f9):
        return None
    return q0, q1, q2, q3, q4, q5


def _quotient2(f, a, b, c):
    """`_quotient3` for a conic f: the linear form q0 x + q1 y + q2 z."""
    f0, f1, f2, f3, f4, f5 = f
    q0, r0 = divmod(f0, a)
    q1, r1 = divmod(f1 - b * q0, a)
    q2, r2 = divmod(f2 - c * q0, a)
    if r0 or r1 or r2 or b * q1 != f3 or b * q2 + c * q1 != f4 or c * q2 != f5:
        return None
    return q0, q1, q2


def _quotient1(f, a, b, c):
    """`_quotient3` for a line f: the constant q0."""
    q0, r0 = divmod(f[0], a)
    if r0 or b * q0 != f[1] or c * q0 != f[2]:
        return None
    return (q0,)


_QUOTIENT = {10: _quotient3, 6: _quotient2, 3: _quotient1}


def _divide(form, line):
    """The quotient of the integer form (10, 6 or 3 entries) by the
    primitive integer line, or None if the line does not divide it.

    With k the line's pivot, its first nonzero entry, x and x_k are
    exchanged (`_SWAP`) so that the pivot is x's coefficient; then each
    coefficient of the quotient is one exact division by it, and the
    monomials free of x are the remaining equations (`_QUOTIENT`).  A
    nonzero remainder or a failed equation means the line does not divide
    the form: by Gauss's lemma a primitive line that divides an integer
    form leaves an integer quotient, so the test is exact, and a quotient
    returned satisfies line * quotient == form."""
    k = 0 if line[0] else 1 if line[1] else 2
    quotient = _QUOTIENT[len(form)]
    if not k:
        return quotient(form, *line)
    q = quotient([form[i] for i in _SWAP[len(form)][k]], *[line[i] for i in _SWAP[3][k]])
    return None if q is None else tuple([q[i] for i in _SWAP[len(q)][k]])


def _line_times(line, form) -> list:
    """line * form for a conic, a line or a constant form: the equations of
    `_QUOTIENT` run forward."""
    a, b, c = line
    if len(form) == 6:
        q0, q1, q2, q3, q4, q5 = form
        return [a * q0, a * q1 + b * q0, a * q2 + c * q0, a * q3 + b * q1,
                a * q4 + b * q2 + c * q1, a * q5 + c * q2, b * q3, b * q4 + c * q3,
                b * q5 + c * q4, c * q5]
    if len(form) == 3:
        q0, q1, q2 = form
        return [a * q0, a * q1 + b * q0, a * q2 + c * q0, b * q1, b * q2 + c * q1, c * q2]
    q0, = form
    return [a * q0, b * q0, c * q0]


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
    decided by `_divide`, one exact division.
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
    `_conic_matrix`).  Returns None for a smooth conic, or the rational line
    pair (v1, v2) (v1 == v2 for a double line, which is when all 2x2 minors
    vanish) as primitive integer 3-vectors, N a verified multiple of
    v1 v2^T + v2 v1^T.  Two lines conjugate over Q(sqrt d), which no game's
    cubic leaves (`decompose_cubic`), are a DomainError, decided exactly.

    The conic must have a squared variable.  A degenerate d1 xy + d2 xz + d3 yz
    (det = d1 d2 d3 / 4 = 0) is a coordinate line times a linear form, and
    `decompose_cubic` never passes one: a coordinate line divides the cubic
    iff its two coefficients vanish, and then the candidate lines list it and
    the division loop removes every copy before a residual conic is split.
    """
    minors = cross_product(N[1], N[2]), cross_product(N[0], N[2]), cross_product(N[0], N[1])
    if sum(a * b for a, b in zip(N[0], minors[0])):  # det N = N[0] . (N[1] x N[2])
        return None
    k = next(k for k in range(3) if N[k][k])
    if not any(minors[0] + minors[1] + minors[2]):
        v1 = v2 = primitive_vector(N[k])
    else:
        # rank 2: g = alpha w^2 + w beta(u, v) + gamma(u, v) in the first
        # squared variable w = x_k splits over Q iff the discriminant
        # d_uu u^2 + d_uv uv + d_vv v^2 is the square of some r_u u + r_v v
        u, v = (i for i in range(3) if i != k)
        alpha, beta_u, beta_v = N[k][k], 2 * N[k][u], 2 * N[k][v]
        r_u = exact_root(beta_u ** 2 - 4 * alpha * N[u][u], 2)
        r_v = exact_root(beta_v ** 2 - 4 * alpha * N[v][v], 2)
        d_uv = 2 * beta_u * beta_v - 8 * alpha * N[u][v]
        if r_u is None or r_v is None or d_uv not in (2 * r_u * r_v, -2 * r_u * r_v):
            raise DomainError("the cubic has a pair of conjugate irrational lines, "
                              "which no game's cubic has")
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
    return v1, v2


def _line_point(v) -> tuple:
    """A rational point of the primitive integer line v, as a primitive
    integer 3-vector: where it meets x = 0, v x (1, 0, 0) = (0, v[2], -v[1]),
    or [0:0:1] if v is x = 0 itself."""
    return primitive_vector((0, v[2], -v[1])) if v[1] or v[2] else (0, 0, 1)


def _coordinate_point(N):
    """The first coordinate point, in the order [0:1:0], [1:0:0], [0:0:1],
    on the smooth conic with matrix N (a zero diagonal entry), as its unit
    3-vector; smooth on it, as every point of a smooth conic is.  A residual
    conic holds one: the cubic holds all three, a line at most two."""
    return next(_MONOS[1][k] for k in (1, 0, 2) if not N[k][k])


def decompose_cubic(cubic: SpohnCubic) -> ReducibilityVerdict:
    """Split a nonzero ternary cubic (without pure-cube terms) into
    components over Q, with multiplicities and smooth rational points.

    The cubic's stored integers (see `SpohnCubic`) are placed directly in a
    10-vector over `_MONOS[3]`, the residual.  Each candidate line is tried
    by one exact division (`_divide`): its remainder is the proof, zero iff
    the line divides the residual, and the quotient replaces the residual:
    10 -> 6 -> 3 coefficients.  A residual of degree 3 means no line divides
    f (irreducible: the candidate list is exhaustive whenever no coordinate
    line divides f); a conic is split further on its integer matrix, which
    is complete over Q.  The product of the components, built in closed form
    one line at a time (`_line_times`), must be proportional to the integer
    cubic entry by entry; the scalar is read off that check once, at the
    product's first nonzero entry.  It is the only Fraction built: each
    component keeps its primitive integer vector and point
    (`CurveComponent`), and no MultiPoly is made unless a caller asks for
    one.

    Every residual conic passes through a coordinate point (a line holds at
    most two of them), which is smooth on a smooth conic.  No game's cubic
    leaves a pair of lines conjugate over Q(sqrt d): it would be x_k q with
    four of c1..c6 zero, and on all 48 linear branches of that in the payoff
    differences, q splits over Q (proved by sympy in the tests).  So every
    component gets a smooth rational point, read off with no search, and
    rational points are dense in the real points of a reducible Spohn curve.

    Takes a SpohnCubic only (a raw cubic of that shape is
    `SpohnCubic(den, ints)`) and decides the kind itself.  Raises
    DomainError on the zero cubic and on a raw cubic with such a pair.  The
    verdict's `cases` is None: a cubic knows no payoffs, and
    `reducibility_verdict` attaches the cases that `classify` decided.
    """
    if cubic.is_zero():
        raise DomainError("cannot decompose the zero cubic")

    c1, c2, c3, c4, c5, c6, c7 = cubic.ints
    form = [0, c1, c2, c3, c7, c4, 0, c5, c6, 0]  # over _MONOS[3]
    residual = form
    found: dict = {}  # primitive line vector -> multiplicity, in order found
    for v in _candidate_lines(cubic.ints):
        while len(residual) > 1:
            quotient = _divide(residual, v)
            if quotient is None:
                break
            residual = quotient
            found[v] = found.get(v, 0) + 1

    degree = _DEGREE[len(residual)]
    if degree == 3:
        return ReducibilityVerdict("Irreducible")

    conic = None
    if degree == 2:
        N = _conic_matrix(residual)
        pair = _split_conic(N)
        if pair is None:  # smooth: one conic component
            conic = primitive_vector(residual)
        else:
            for v in pair:  # v1 == v2 for a double line
                found[v] = found.get(v, 0) + 1
    elif degree == 1:
        # happens when coordinate-line shortcuts peeled two factors and the
        # third line is generic (the coordinate restrictions that would have
        # located it vanished identically); the residual is an exact factor,
        # hence a component outright
        found[primitive_vector(residual)] = 1

    # exact reconstruction check: the product is proportional to form, and
    # the scalar is read off its first nonzero entry i
    product = [1] if conic is None else conic
    for v, mult in found.items():
        for _ in range(mult):
            product = _line_times(v, product)
    i = next(i for i in range(10) if product[i])
    f_i, p_i = form[i], product[i]
    if [f_i * p for p in product] != [p_i * q for q in form]:
        raise AssertionError("component product does not reproduce the cubic")
    scalar = Fraction(f_i, p_i * cubic.den)

    components = [CurveComponent("line", v, mult, _line_point(v)) for v, mult in found.items()]
    if conic is not None:
        components.append(CurveComponent("conic", conic, 1, _coordinate_point(N)))
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
