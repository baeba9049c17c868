"""Plane cubics from quadric pencils, Aronhold invariants, Weierstrass models.

The pipeline mirrors how elliptic invariants of a Spohn curve are computed:
project the quadric pair from a known rational point p onto a plane cubic.
With each quadric written v^T M v, M symmetric, and v = w + t p, the polar
identity gives w^T M w + 2 t (M p).w, since p^T M p = 0: a quadratic part
Q_i in w and a linear part L_i = 2 M_i p, read off integer-cleared matrices
M = N / d without expanding.  Eliminating t leaves the cubic
C = L1 Q2 - L2 Q1, kept as integers over one denominator, the form in which
every plane cubic is stored.  The degree-4 and degree-6 invariants S, T of
a ternary cubic, computed once per cubic on those integers, then give the
discriminant (64 S^3 - T^2)/1728, j = 64 S^3 / disc and the Jacobian
J_C: y^2 = x^3 - 432 S x - 432 T (Artin, Rodriguez-Villegas and Tate, "On the
Jacobians of plane cubics", Adv. Math. 198 (2005)).  A smooth cubic with a
rational point is Q-isomorphic to J_C, so J_C alone decides Q-isomorphism of
two such cubics.  An exact two-branch reduction produces a Weierstrass model
through a given point, certified Q-isomorphic to J_C, which tells quadratic
twists apart where equal j cannot.  The model, J_C and the certificate are
computed on weighted integers, a_w = A_w / n^w (see `WeierstrassCurve`);
`Fraction`s are built only for output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import geometry
from .geometry import VARS3
from .polynomials import (
    DomainError,
    MultiPoly,
    clear_denominators,
    clear_pairs,
    cleared_point,
    cross_product,
    is_nth_power_ratio,
    json_list,
    parse_rational,
    point_json,
    rat,
    rat_str,
    terms_from_json,
)

VARS4 = ("x", "y", "z", "t")


# ---------------------------------------------------------------------------
# quadric pairs
# ---------------------------------------------------------------------------

class QuadricPair:
    """Two quadric surfaces in P^3 with a common rational point.

    Each quadric P is stored as (d, N), N the integer symmetric 4x4 matrix
    with P(v) = v^T N v / d, read off P's terms by position.  The point is
    stored as P, its coordinates cleared to integers, and verified at
    construction: P^T N P = 0.  `P1` and `P2` rebuild the polynomials in
    (x, y, z, t) on request.
    """

    __slots__ = ("quadrics", "P")

    def __init__(self, P1, P2, point):
        """P1 and P2 are MultiPolys, or (vars, [(exponent, n, d), ...]) as
        `from_json` reads them; `point` is a sequence of coordinates."""
        self.quadrics = (_cleared_matrix(P1), _cleared_matrix(P2))
        P = cleared_point(point)[1]
        if len(P) != 4:
            raise DomainError("common point must have 4 coordinates")
        if any(_times([P], _times(N, P))[0] for _, N in self.quadrics):  # P^T N P
            raise DomainError("the common point does not lie on both quadrics")
        self.P = P

    P1 = property(lambda self: _poly_from_cleared(*self.quadrics[0]))
    P2 = property(lambda self: _poly_from_cleared(*self.quadrics[1]))

    @classmethod
    def from_json(cls, data) -> "QuadricPair":
        """Accepts {"P1": poly, "P2": poly, "point": [...]} with polys in the
        sparse-term format (`terms_from_json`), or {"A": 4x4, "B": 4x4,
        "point": [...]} giving the quadrics as v^T A v and v^T B v.  Every
        entry is read once by `parse_rational` and the pair is cleared to
        integers from the (n, d) pairs: no `Fraction` or `MultiPoly` is
        built.  Raises ValueError on any other shape, a string where an
        array belongs included, and on every parse fault of P1, P2 and the
        point before the DomainError of a quadric that is not one."""
        try:
            if "A" in data and "B" in data:
                P1, P2 = _matrix_terms(data["A"]), _matrix_terms(data["B"])
            else:
                P1, P2 = terms_from_json(data["P1"]), terms_from_json(data["P2"])
            point = clear_pairs([parse_rational(c) for c in
                                 json_list(data["point"], "the common point")])[1]
        except (TypeError, KeyError) as exc:
            raise ValueError("quadric-pair JSON needs P1/P2 or A/B plus point: "
                             f"{exc!r}") from None
        return cls(P1, P2, point)

    def to_json(self) -> dict:
        return {"P1": self.P1.to_json(), "P2": self.P2.to_json(),
                "point": point_json(self.P)}


def _cleared_matrix(P) -> tuple:
    """(d, N) with P(v) = v^T N v / d, for a MultiPoly P or P = (vars,
    [(exponent, n, d), ...]), whose repeated exponents are summed.  N is
    2 M cleared to integers over their least denominator, M the symmetric
    matrix of P (off-diagonal entries half the coefficients), and d is twice
    that denominator."""
    if isinstance(P, MultiPoly):
        P = P.vars, [(e, c.numerator, c.denominator) for e, c in P.terms.items()]
    variables, terms = P
    if len(variables) != 4:
        raise DomainError("quadrics must use exactly 4 variables")
    L = math.lcm(*[d for _, _, d in terms])
    acc = {}  # exponent -> L times its coefficient
    for exp, n, d in terms:
        acc[exp] = acc.get(exp, 0) + n * (L // d)
    if not any(acc.values()) or any(c and sum(e) != 2 for e, c in acc.items()):
        raise DomainError("expected nonzero homogeneous quadrics")
    M2 = [0] * 16  # 2 M L, row by row
    for exp, c in acc.items():
        if c:
            i, j = (k for k in range(4) for _ in range(exp[k]))
            M2[4 * i + j] = M2[4 * j + i] = 2 * c if i == j else c
    g = math.gcd(L, *M2)  # 2 M's least denominator is L / g
    N = [x // g for x in M2]
    return 2 * L // g, (tuple(N[0:4]), tuple(N[4:8]), tuple(N[8:12]), tuple(N[12:16]))


def _times(N, v) -> list:
    """The product N v of a matrix with 4 columns and a 4-vector."""
    return [r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] * v[3] for r in N]


def _poly_from_cleared(d: int, N) -> MultiPoly:
    """v^T N v / d in (x, y, z, t)."""
    return MultiPoly(VARS4, [(geometry._mono4(i, j), Fraction(N[i][j], d))
                             for i in range(4) for j in range(4)])


def _matrix_terms(M) -> tuple:
    """(vars, [(exponent, n, d), ...]) of v^T M v, M a 4x4 JSON matrix."""
    rows = [[parse_rational(x) for x in json_list(row, "a quadric matrix row")]
            for row in json_list(M, "a quadric matrix")]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ValueError("quadric matrix must be 4x4")
    return VARS4, [(geometry._mono4(i, j), *rows[i][j]) for i in range(4) for j in range(4)]


def spohn_pair(game) -> QuadricPair:
    """The game's Spohn quadrics with the fully-mixed-boundary point
    [0:0:0:1], relabeled to (x, y, z, t) = (p11, p12, p21, p22)."""
    q = geometry.build_quadrics(game)
    return QuadricPair(q.q1, q.q2, (0, 0, 0, 1))


# ---------------------------------------------------------------------------
# eliminating the common point
# ---------------------------------------------------------------------------

def cubic_from_quadrics(pair: QuadricPair) -> "PlaneCubic":
    """Eliminate t: the common solutions project to L1 Q2 - L2 Q1 = 0.

    Scale the common point p so p_k = 1, with k = 3 unless p_3 = 0, else
    the first nonzero index, and let w range over the other three
    coordinates.  For the quadric v^T M v the polar identity gives
    P(w + t p) = w^T M w + 2 t (M p).w + t^2 p^T M p with p^T M p = 0, so
    Q_i is the 3x3 block of M_i on those coordinates and L_i = 2 M_i p
    restricted to them; the product is one `geometry._multiply`
    convolution on the integers N_i (see `QuadricPair`) and the cleared
    point P, over D = d1 d2 P_k (negative when P_k is).  Raises DomainError
    if L1 and L2 are proportional (the pencil degenerates to genus 0) or the
    eliminant vanishes.
    """
    P = pair.P
    k = 3 if P[3] else next(i for i in range(4) if P[i])
    rest = [i if i != k else 3 for i in range(3)]
    L, Q = [], []
    for _, N in pair.quadrics:
        NP = _times(N, P)
        L.append([2 * NP[i] for i in rest])
        # over _MONOS[2] = x^2, xy, xz, y^2, yz, z^2
        Q.append([N[rest[a]][rest[b]] * (1 if a == b else 2)
                  for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))])
    if not any(cross_product(*L)):
        raise DomainError("the t-linear forms are proportional: the pencil "
                          "degenerates to a genus-0 configuration")
    C = [u - v for u, v in zip(geometry._multiply(L[0], Q[1]),
                               geometry._multiply(L[1], Q[0]))]
    if not any(C):
        raise DomainError("the pencil degenerates: the eliminant cubic "
                          "vanishes identically")
    D = pair.quadrics[0][0] * pair.quadrics[1][0] * P[k]
    return PlaneCubic(6 * D, [6 // k * C[geometry._INDEX[3][e]] for e, k in _TEN_MONOMIALS])


# ---------------------------------------------------------------------------
# plane cubics and Aronhold invariants
# ---------------------------------------------------------------------------

class TenCoeffs(NamedTuple):
    """Classical coefficient labels of a ternary cubic:

    C = a x^3 + b y^3 + c z^3 + 3d x^2 y + 3e y^2 z + 3f z^2 x
        + 3g x y^2 + 3h y z^2 + 3i z x^2 + 6m x y z

    The labels are the entries of the symmetric trilinear form T with
    T(x, x, x) = C(x): T_xxx = a, T_yyy = b, T_zzz = c, T_xxy = d,
    T_yyz = e, T_xzz = f, T_xyy = g, T_yzz = h, T_xxz = i, T_xyz = m.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction
    g: Fraction
    h: Fraction
    i: Fraction
    m: Fraction


# (monomial, multiplier) of each classical coefficient, in TenCoeffs order
_TEN_MONOMIALS = (((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1),
                  ((2, 1, 0), 3), ((0, 2, 1), 3), ((1, 0, 2), 3),
                  ((1, 2, 0), 3), ((0, 1, 2), 3), ((2, 0, 1), 3), ((1, 1, 1), 6))
# (label index, monomial, multiplier), monomials in descending order
_DESCENDING_TERMS = tuple(sorted(((n, e, k) for n, (e, k) in enumerate(_TEN_MONOMIALS)),
                                 key=lambda t: t[1], reverse=True))


class PlaneCubic:
    """A ternary cubic form, stored as its ten classical labels (see
    `TenCoeffs`) as integers over one nonzero denominator: label k is
    ints[k] / den, and a coefficient C / n with multiplier m gives the label
    (6 / m) C over 6 n.  The Aronhold invariants are computed once, at
    construction, as the integers S and T of the stored labels, so the
    cubic's own invariants are S / den^4 and T / den^6 (see `aronhold`); the
    cubic is singular iff 64 S^3 = T^2.  A Spohn cubic's plane cubic comes
    from its integers (`from_spohn`), and `to_json` prints the stored
    integers; `coeffs` and `poly` are `Fraction`s built on request."""

    __slots__ = ("den", "ints", "S", "T")

    def __init__(self, den: int, ints):
        if not any(ints):
            raise DomainError("expected a nonzero cubic")
        self.den, self.ints = den, tuple(ints)
        self.S, self.T = _aronhold_st(*self.ints)

    def is_singular(self) -> bool:
        return 64 * self.S**3 == self.T**2

    coeffs = property(lambda self: TenCoeffs._make(Fraction(x, self.den) for x in self.ints))
    poly = property(lambda self: MultiPoly(VARS3, [
        (e, Fraction(k * x, self.den)) for (e, k), x in zip(_TEN_MONOMIALS, self.ints)]))

    @classmethod
    def from_spohn(cls, spohn: geometry.SpohnCubic) -> "PlaneCubic":
        """The plane cubic of a `geometry.SpohnCubic`, read off its seven
        integers: c1 x^2 y + c2 x^2 z + c3 x y^2 + c4 x z^2 + c5 y^2 z
        + c6 y z^2 + c7 x y z has a = b = c = 0,
        (d, e, f, g, h, i) = 2 (c1, c5, c4, c3, c6, c2) and m = c7 over 6 den.
        Dividing den and the c_k by g = gcd(den, c1, ..., c7), with the sign
        of den, leaves the least positive denominator: the integers that
        clearing the polynomial `spohn.f` gives, with no polynomial built.
        The zero cubic is a DomainError."""
        den, (c1, c2, c3, c4, c5, c6, c7) = spohn.den, spohn.ints
        g = math.gcd(den, c1, c2, c3, c4, c5, c6, c7)
        if den < 0:
            g = -g
        return cls(6 * den // g, (0, 0, 0, 2 * c1 // g, 2 * c5 // g, 2 * c4 // g,
                                  2 * c3 // g, 2 * c6 // g, 2 * c2 // g, c7 // g))

    @classmethod
    def from_poly(cls, poly: MultiPoly) -> "PlaneCubic":
        """The plane cubic of a raw homogeneous ternary cubic polynomial."""
        if len(poly.vars) != 3:
            raise DomainError("plane cubic needs exactly 3 variables")
        if poly.is_zero() or poly.degree() != 3 or not poly.is_homogeneous():
            raise DomainError("expected a nonzero homogeneous ternary cubic")
        n, C = clear_denominators([poly.coefficient(e) for e, _ in _TEN_MONOMIALS])
        return cls(6 * n, [6 // k * x for (_, k), x in zip(_TEN_MONOMIALS, C)])

    @classmethod
    def from_coeffs(cls, *coeffs) -> "PlaneCubic":
        labels = TenCoeffs(*(rat(x) for x in coeffs))  # exactly ten, or TypeError
        return cls(*clear_denominators(labels))

    def to_json(self) -> dict:
        """The bytes of `poly.to_json()` and of the `coeffs`, from the stored
        integers: each label is reduced once, and each nonzero term is its
        multiplier times the label, in descending exponent order."""
        labels = [Fraction(x, self.den) for x in self.ints]
        return {
            "poly": {"vars": list(VARS3), "terms": [
                {"exp": list(e), "coef": rat_str(labels[n] * k)}
                for n, e, k in _DESCENDING_TERMS if self.ints[n]]},
            "coefficients": dict(zip(TenCoeffs._fields, map(rat_str, labels))),
        }


class AronholdInvariants(NamedTuple):
    S: Fraction       # degree 4 in the coefficients
    T: Fraction       # degree 6
    disc: Fraction    # (64 S^3 - T^2) / 1728


def aronhold(cubic: PlaneCubic) -> AronholdInvariants:
    """The two fundamental invariants and the discriminant of a ternary cubic.

    The cubic is singular iff disc = (64 S^3 - T^2)/1728 vanishes, and the
    Fermat cubic x^3 + y^3 + z^3 has S = 0, T = 1.

    `PlaneCubic` evaluates S and T once, on the integers it stores: each
    label is an integer over one denominator n, and S and T are homogeneous
    of degrees 4 and 6, so S = S(n a, ...) / n^4 and T = T(n a, ...) / n^6
    exactly.  These `Fraction`s are built on each call.
    """
    S, T, n = cubic.S, cubic.T, cubic.den
    return AronholdInvariants(Fraction(S, n**4), Fraction(T, n**6),
                              Fraction(64 * S**3 - T**2, 1728 * n**12))


def _aronhold_st(a, b, c, d, e, f, g, h, i, m) -> tuple:
    """S and T as polynomials in the classical coefficient labels (the xyz
    coefficient is called m here), in two groups.

    The terms free of the pure cubes a, b, c (12 of S's 25, 30 of T's 103)
    have a closed form.  With U = dh, V = ei, W = fg, P = def, Q = ghi,
    x = U + V + W - m^2 and y = m (P + Q) - (UV + UW + VW):

        S = x^2 + 3 y,    T = 4 x (2 x^2 + 9 y) - 27 (P - Q)^2.

    Every other term has a factor a, b or c, so that group vanishes when
    a = b = c = 0 and is added only otherwise.  A Spohn cubic has no x^3,
    y^3 or z^3 term (`PlaneCubic.from_spohn`), so its S and T are the
    closed form alone.
    """
    U, V, W, P, Q = d*h, e*i, f*g, d*e*f, g*h*i
    x = U + V + W - m*m
    y = m*(P + Q) - U*V - U*W - V*W
    S = x*x + 3*y
    T = 4*x*(2*x*x + 9*y) - 27*(P - Q)**2
    if a or b or c:
        S += (a*g*e*c - a*g*h**2 - a*m*b*c + a*m*e*h + a*f*b*h - a*f*e**2
              - d**2*e*c + d*i*b*c + d*g*m*c - d*f**2*b - i**2*b*h - i*g**2*c
              + i*m*f*b)
        T += (a**2*b**2*c**2 - 3*a**2*e**2*h**2 - 6*a**2*b*e*h*c + 4*a**2*b*h**3
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
              + 4*a*f**3*b**2 + 4*d**3*b*c**2 - 12*d**3*e*h*c
              + 24*d**2*i*e**2*c + 12*d**2*g*m*h*c + 6*d**2*g*f*e*c
              - 12*d**2*i*b*h*c - 3*d**2*g**2*c**2 + 12*d**2*m**2*e*c
              - 24*d**2*m*f*b*c + 24*d**2*f**2*b*h + 24*d*i**2*b*h**2
              - 12*d*i**2*b*e*c + 6*d*i*g**2*h*c - 60*d*i*g*m*e*c
              + 18*d*i*g*f*b*c + 36*d*i*m**2*b*c - 60*d*i*m*f*b*h
              + 6*d*i*f**2*b*e + 12*d*g**2*m*f*c - 12*d*g*m**3*c
              - 12*d*g*f**3*b + 12*d*m**2*f**2*b + 4*i**3*b**2*c
              + 24*i**2*g**2*e*c - 12*i**3*b*e*h - 24*i**2*g*m*b*c
              + 6*i**2*g*f*b*h + 12*i**2*m**2*b*h - 3*i**2*f**2*b**2
              + 12*i**2*m*f*b*e - 12*i*g**3*f*c + 12*i*g**2*m**2*c
              + 12*i*g*m*f**2*b - 12*i*m**3*f*b)
    return S, T


class JResult(NamedTuple):
    """j-invariant of a plane cubic; value is None when the cubic is singular."""

    value: Fraction | None

    @property
    def is_singular(self) -> bool:
        return self.value is None

    def to_json(self) -> dict:
        return {"j": "singular" if self.value is None else rat_str(self.value)}


def j_invariant(cubic: PlaneCubic) -> JResult:
    """j = 64 S^3 / disc; "singular" when the discriminant vanishes.

    The exact identity j * disc == 64 S^3 holds whenever j is defined; on
    the cubic's integer S and T the powers of its denominator cancel, and
    j = 110592 S^3 / (64 S^3 - T^2).
    """
    if cubic.is_singular():
        return JResult(None)
    S, T = cubic.S, cubic.T
    return JResult(Fraction(110592 * S**3, 64 * S**3 - T**2))


# ---------------------------------------------------------------------------
# Weierstrass models
# ---------------------------------------------------------------------------

class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q.

    Stored as weighted integers (n, (A1, A2, A3, A4, A6)) with
    a_w = A_w / n^w.  Fixed at construction, on those integers:
    B2 = A1^2 + 4 A2, B4 = 2 A4 + A1 A3, B6 = A3^2 + 4 A6,
    C4 = B2^2 - 24 B4, C6 = -B2^3 + 36 B2 B4 - 216 B6 and
    D = (C4^3 - C6^2) / 1728 (Silverman, The Arithmetic of Elliptic Curves,
    III.1), so that b_w = B_w / n^w, c_w = C_w / n^w and disc = D / n^12.
    a1 ... a6, b2 ... b8 (4 b8 = b2 b6 - b4^2), c4, c6 and disc are
    `Fraction`s built on request, and j = C4^3 / D, since the powers of n
    cancel.  The constructor takes rationals and clears them once; the
    library's own models are built from weighted integers directly.
    """

    __slots__ = ("n", "A", "B2", "B4", "B6", "C4", "C6", "D")

    def __init__(self, a1, a2, a3, a4, a6):
        n, (A1, A2, A3, A4, A6) = clear_denominators(
            (rat(a1), rat(a2), rat(a3), rat(a4), rat(a6)))
        self._weigh(n, (A1, A2 * n, A3 * n**2, A4 * n**3, A6 * n**5))

    @classmethod
    def _weighted(cls, n: int, A) -> "WeierstrassCurve":
        """The curve with a_w = A_w / n^w, n a nonzero integer."""
        E = cls.__new__(cls)
        E._weigh(n, A)
        return E

    def _weigh(self, n, A):
        self.n, self.A = n, tuple(A)
        A1, A2, A3, A4, A6 = self.A
        self.B2, self.B4, self.B6 = B2, B4, B6 = A1**2 + 4*A2, 2*A4 + A1*A3, A3**2 + 4*A6
        self.C4, self.C6 = C4, C6 = B2**2 - 24*B4, -B2**3 + 36*B2*B4 - 216*B6
        self.D = (C4**3 - C6**2) // 1728

    a1 = property(lambda self: Fraction(self.A[0], self.n))
    a2 = property(lambda self: Fraction(self.A[1], self.n**2))
    a3 = property(lambda self: Fraction(self.A[2], self.n**3))
    a4 = property(lambda self: Fraction(self.A[3], self.n**4))
    a6 = property(lambda self: Fraction(self.A[4], self.n**6))
    b2 = property(lambda self: Fraction(self.B2, self.n**2))
    b4 = property(lambda self: Fraction(self.B4, self.n**4))
    b6 = property(lambda self: Fraction(self.B6, self.n**6))
    b8 = property(lambda self: Fraction((self.B2 * self.B6 - self.B4**2) // 4, self.n**8))
    c4 = property(lambda self: Fraction(self.C4, self.n**4))
    c6 = property(lambda self: Fraction(self.C6, self.n**6))
    disc = property(lambda self: Fraction(self.D, self.n**12))

    @classmethod
    def from_short(cls, A, B) -> "WeierstrassCurve":
        """y^2 = x^3 + A x + B."""
        return cls(0, 0, 0, A, B)

    def is_singular(self) -> bool:
        return self.D == 0

    def j(self) -> Fraction | None:
        if self.D == 0:
            return None
        return Fraction(self.C4**3, self.D)

    def to_json(self) -> dict:
        jv = self.j()
        return {
            "a": [rat_str(x) for x in (self.a1, self.a2, self.a3, self.a4, self.a6)],
            "j": "singular" if jv is None else rat_str(jv),
        }

    def __repr__(self):
        return ("WeierstrassCurve(" +
                ", ".join(rat_str(x) for x in
                          (self.a1, self.a2, self.a3, self.a4, self.a6)) + ")")


def _polar(coeffs, u, v, w):
    """T(u, v, w) for the symmetric trilinear form T whose entries are the
    ten classical labels `coeffs` (see `TenCoeffs`)."""
    a, b, c, d, e, f, g, h, i, m = coeffs
    w0, w1, w2 = w
    # the polar conic T(., ., w) as a symmetric matrix
    qxx = a * w0 + d * w1 + i * w2
    qyy = g * w0 + b * w1 + e * w2
    qzz = f * w0 + h * w1 + c * w2
    qxy = d * w0 + g * w1 + m * w2
    qxz = i * w0 + m * w1 + f * w2
    qyz = m * w0 + e * w1 + h * w2
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (qxx * u0 * v0 + qyy * u1 * v1 + qzz * u2 * v2
            + qxy * (u0 * v1 + u1 * v0) + qxz * (u0 * v2 + u2 * v0)
            + qyz * (u1 * v2 + u2 * v1))


def weierstrass_from_cubic(cubic: PlaneCubic, pt) -> WeierstrassCurve:
    """Exact Weierstrass model of a smooth plane cubic with a rational point
    p, given as a sequence of three coordinates (read by `parse_rational`).

    The point p is moved to [0:1:0] with its tangent line as {Z = 0}: the
    new coordinates are X u + Y p + Z w with u a tangent direction at p and
    w a unit vector completing a basis.  The coefficient of X^a Y^b Z^c in
    them is the multinomial (3; a, b, c) times T(u^a, p^b, w^c), T the
    cubic's trilinear form (see `TenCoeffs`), so each one is a single
    `_polar` evaluation on integers and no polynomial is expanded.  If the
    point is a flex, the model reads off directly.  Otherwise the projection
    from the point expresses the curve as a double cover of P^1 branched
    along a quartic G(t) with G(0) a nonzero square, and the curve is
    Q-isomorphic to the Jacobian y^2 = x^3 - 27 I x - 27 J of v^2 = G(u)
    (classical binary-quartic invariants I, J).  Every coefficient, the
    quartic and I, J are integers over powers of one base s, and the model
    is built from weighted integers (see `WeierstrassCurve`): no `Fraction`
    is formed.  Either way the result is certified Q-isomorphic to the
    cubic's Jacobian J_C (see `jacobian`).  The certificate is twist-aware:
    a model with the right j but the wrong quadratic twist fails it, and a
    failed certification raises instead of returning a wrong model.
    """
    if cubic.is_singular():
        raise DomainError("singular cubic: no Weierstrass model")
    dp, P = cleared_point(pt)
    if len(P) != 3:
        raise DomainError("base point must have 3 coordinates")
    # on integers: the labels are A / n, p = P / dp and u = U / du, and T is
    # linear in the labels and in each argument, so
    # T(u^a, p^b, w^c) = T_A(U^a, P^b, w^c) / (n du^a dp^b) exactly; u does
    # not depend on which (n, A) the cubic stores, since U and du scale with it
    n, A = cubic.den, cubic.ints
    if _polar(A, P, P, P) != 0:
        raise DomainError("base point does not lie on the cubic")
    grad = tuple(3 * _polar(A, e, P, P) for e in geometry._MONOS[1])  # n dp^2 grad C(p)
    if all(x == 0 for x in grad):  # pragma: no cover — impossible when disc != 0
        raise DomainError("base point is singular")

    # U: a tangent direction at p, one of grad x e_k (they span the tangent
    # line, which holds P) not parallel to P; w: the first unit vector with
    # det(U, P, w) = (U x P) . w nonzero
    U = next(v for v in (cross_product(grad, e) for e in geometry._MONOS[1])
             if any(cross_product(v, P)))
    normal = cross_product(U, P)
    w = geometry._MONOS[1][next(k for k in range(3) if normal[k] != 0)]
    du = n * dp * dp

    def scaled(a, b, c) -> int:
        """s = n du^3 dp^2 times the coefficient of X^a Y^b Z^c (b <= 2)."""
        multinomial = 6 // (math.factorial(a) * math.factorial(b) * math.factorial(c))
        return (multinomial * _polar(A, *[U] * a, *[P] * b, *[w] * c)
                * du**(3 - a) * dp**(2 - b))

    beta = scaled(0, 2, 1)
    if _polar(A, U, P, P) != 0 or beta == 0:  # X Y^2 and Y^2 Z
        raise AssertionError("normalization failed")  # pragma: no cover
    q1, q2, q3 = scaled(2, 1, 0), scaled(1, 1, 1), scaled(0, 1, 2)
    k0, k1 = scaled(3, 0, 0), scaled(2, 0, 1)
    k2, k3 = scaled(1, 0, 2), scaled(0, 0, 3)

    if q1 == 0:
        # flex: the tangent meets the curve three times at pt, and the model
        # a1 = q2/beta, a2 = -k1/beta, a3 = -k0 q3/beta^2, a4 = k0 k2/beta^2,
        # a6 = -k0^2 k3/beta^3 (the same ratios of the scaled coefficients)
        # is a_w = A_w / beta^w
        if k0 == 0:  # pragma: no cover — the tangent would lie in the cubic
            raise AssertionError("degenerate flex normalization")
        E = WeierstrassCurve._weighted(beta, (
            q2, -k1 * beta, -k0 * q3 * beta, k0 * k2 * beta**2, -k0**2 * k3 * beta**3))
    else:
        # projection from pt: on the line z = t x the curve reads
        # beta t Y^2 + (q1 + q2 t + q3 t^2) Y + (k0 + k1 t + k2 t^2 + k3 t^3)
        # (affine Y = y/x); its discriminant is the branch quartic, here
        # s^2 times it, so I and J are s^4 and s^6 times theirs
        A4 = q3**2 - 4 * beta * k3
        B4 = 2 * q2 * q3 - 4 * beta * k2
        C4 = q2**2 + 2 * q1 * q3 - 4 * beta * k1
        D4 = 2 * q1 * q2 - 4 * beta * k0
        E4 = q1**2
        I = 12*A4*E4 - 3*B4*D4 + C4**2
        J = 72*A4*C4*E4 + 9*B4*C4*D4 - 27*A4*D4**2 - 27*B4**2*E4 - 2*C4**3
        E = WeierstrassCurve._weighted(n * du**3 * dp**2, (0, 0, 0, -27 * I, -27 * J))

    if not q_isomorphic(E, jacobian(cubic)):
        raise AssertionError("Weierstrass reduction failed certification: "
                             f"{E!r} is not Q-isomorphic to the Jacobian")
    return E


def jacobian(cubic: PlaneCubic) -> WeierstrassCurve:
    """The Jacobian J_C: y^2 = x^3 - 432 S x - 432 T of a smooth plane cubic.

    S, T are the Aronhold invariants of `aronhold`; the Fermat cubic gives
    y^2 = x^3 - 432.  A smooth cubic with a rational point is Q-isomorphic
    to J_C.  Built from the cubic's integer S and T over its denominator n
    as the weighted integers (n, (0, 0, 0, -432 S, -432 T)).  Raises
    DomainError when the cubic is singular (disc = 0).
    """
    if cubic.is_singular():
        raise DomainError("singular cubic: no Jacobian")
    return WeierstrassCurve._weighted(cubic.den, (0, 0, 0, -432 * cubic.S, -432 * cubic.T))


# ---------------------------------------------------------------------------
# Q-isomorphism
# ---------------------------------------------------------------------------

def q_isomorphic(E1: WeierstrassCurve, E2: WeierstrassCurve) -> bool:
    """Are two nonsingular Weierstrass curves isomorphic over Q?

    Curves are Q-isomorphic iff (c4', c6') = (u^4 c4, u^6 c6) for a rational
    u.  It is decided on the integers C4, C6 of `WeierstrassCurve`: with
    weights n1, n2 and v = u n2 / n1 the condition reads
    (C4', C6') = (v^4 C4, v^6 C6).  Generically v^2 = C6' C4 / (C6 C4') must
    be a rational square satisfying both equations; for j = 0 (c4 = 0) the
    criterion is C6'/C6 a sixth power, for j = 1728 (c6 = 0) it is C4'/C4 a
    fourth power.
    """
    if E1.D == 0 or E2.D == 0:
        raise DomainError("q_isomorphic needs nonsingular curves")
    c4, c6 = E1.C4, E1.C6
    c4p, c6p = E2.C4, E2.C6
    if c4 == 0 or c4p == 0:  # j = 0 needs both
        return c4 == c4p and is_nth_power_ratio(c6p, c6, 6)
    if c6 == 0 or c6p == 0:  # j = 1728 needs both
        return c6 == c6p and is_nth_power_ratio(c4p, c4, 4)
    num, den = c6p * c4, c6 * c4p  # v^2 = num / den if isomorphic
    return (c4p * den**2 == c4 * num**2 and c6p * den**3 == c6 * num**3
            and is_nth_power_ratio(num, den, 2))


# ---------------------------------------------------------------------------
# game-level equivalence
# ---------------------------------------------------------------------------

def game_equivalence(game1, game2) -> dict:
    """Compare two games through the elliptic invariants of their cubics.

    Reports the j-invariants, whether they agree, and whether the curves are
    actually Q-isomorphic (same j is necessary, not sufficient: a quadratic
    twist has the same j).  Q-isomorphism is decided on the Jacobians J_C1,
    J_C2 built from each cubic's S and T, which is twist-aware and needs no
    rational point or coordinate change.  Each plane cubic is read off the
    integers of the game's `SpohnCubic` (`PlaneCubic.from_spohn`).  Raises
    DomainError naming the matched reducibility cases if a cubic is
    singular, since j is undefined there.
    """
    cubics = []
    for tag, game in (("first", game1), ("second", game2)):
        spohn = geometry.build_cubic(game)
        if spohn.is_zero():
            raise DomainError(f"the {tag} game has the zero cubic; "
                              "no elliptic invariants exist")
        cubic = PlaneCubic.from_spohn(spohn)
        if cubic.is_singular():
            cases = sorted(geometry.classify_cases(game))
            raise DomainError(
                f"the {tag} game has a singular cubic (matched reducibility "
                f"cases: {cases}); j is undefined")
        cubics.append(cubic)

    j1, j2 = (j_invariant(cubic).value for cubic in cubics)
    same_j = j1 == j2
    return {
        "j1": rat_str(j1),
        "j2": rat_str(j2),
        "same_j": same_j,
        "fully_equivalent": same_j and q_isomorphic(*map(jacobian, cubics)),
    }

