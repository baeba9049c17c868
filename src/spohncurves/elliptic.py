"""Plane cubics from quadric pencils, Aronhold invariants, Weierstrass models.

The pipeline mirrors how elliptic invariants of a Spohn curve are computed:
project the quadric pair from a known rational point p onto a plane cubic.
A pair enters through `QuadricPair.from_json` only, each quadric read into
one form, the sparse terms (vars, [(exponent, n, d), ...]) that
`terms_from_json` gives and `geometry.build_quadrics` builds for a game.
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
computed on weighted integers, a_w = A_w / n^w, the one form from which a
`WeierstrassCurve` is constructed, and printed from them; a `Fraction` is
built only for j of a plane cubic.  Plane cubics are printed from their
integers by `terms_json`.
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
    ShapeError,
    clear_pairs,
    cross_product,
    is_nth_power_ratio,
    json_list,
    parse_rational,
    point_of_pairs,
    rat_str,
    ratio_str,
    terms_from_json,
    terms_json,
)

VARS4 = ("x", "y", "z", "t")


# ---------------------------------------------------------------------------
# quadric pairs
# ---------------------------------------------------------------------------

class QuadricPair:
    """Two quadric surfaces in P^3 with a common rational point, built by
    `from_json`.

    Each quadric P is stored as (d, N), N the integer symmetric 4x4 matrix
    with P(v) = v^T N v / d, read off P's terms by position.  The point is
    stored as P, its coordinates cleared to integers, and verified at
    construction: P^T N P = 0.
    """

    __slots__ = ("quadrics", "P")

    @classmethod
    def from_json(cls, data) -> "QuadricPair":
        """Accepts {"P1": poly, "P2": poly, "point": [...]} with polys in the
        sparse-term format (`terms_from_json`), or {"A": 4x4, "B": 4x4,
        "point": [...]} giving the quadrics as v^T A v and v^T B v.  Every
        entry is read once by `parse_rational` and the pair is cleared to
        integers from the (n, d) pairs, the point once: no `Fraction` or
        `MultiPoly` is built.  Raises ValueError on any other shape, a
        string where an array belongs included, and on every parse fault of
        P1, P2 and the point before the DomainError of a quadric that is not
        one; then ValueError for a zero point, and DomainError for a point
        without 4 coordinates or off either quadric, in that order.  The
        fields are read in the order A, B or P1, P2, then point, and a
        missing field or an entry that is not a rational is named
        (`_field`)."""
        if not isinstance(data, dict):
            raise ValueError(f"quadric-pair JSON must be a JSON object, not {type(data).__name__}")
        if "A" in data and "B" in data:
            P1, P2 = _field(data, "A", _matrix_terms), _field(data, "B", _matrix_terms)
        else:
            P1, P2 = _field(data, "P1", terms_from_json), _field(data, "P2", terms_from_json)
        point = _field(data, "point", _point_pairs)
        pair = cls.__new__(cls)
        pair.quadrics = (_cleared_matrix(P1), _cleared_matrix(P2))
        P = point_of_pairs(point)[1]
        if len(P) != 4:
            raise DomainError("common point must have 4 coordinates")
        if any(_times([P], _times(N, P))[0] for _, N in pair.quadrics):  # P^T N P
            raise DomainError("the common point does not lie on both quadrics")
        pair.P = P
        return pair


# the exponent of x_i x_j (i <= j) -> its index in the upper triangle, row by row
_CELL = {geometry._mono4(i, j): n for n, (i, j) in
         enumerate((i, j) for i in range(4) for j in range(i, 4))}
# each entry (i, j) of 2 M, row by row: the index of x_i x_j and the factor 2
# on the diagonal, since M's off-diagonal entries are half the coefficients
_SPREAD = tuple((_CELL[geometry._mono4(i, j)], 2 if i == j else 1)
                for i in range(4) for j in range(4))


def _cleared_matrix(P) -> tuple:
    """(d, N) with P(v) = v^T N v / d, for P = (vars, [(exponent, n, d),
    ...]), whose repeated exponents are summed.  N is 2 M cleared to
    integers over their least denominator, M the symmetric matrix of P
    (off-diagonal entries half the coefficients), and d is twice that
    denominator.  Each exponent finds its cell in `_CELL`.  Exponents of
    another degree are summed apart: one whose coefficients do not cancel
    is a DomainError, and so is an all-zero quadric."""
    variables, terms = P
    if len(variables) != 4:
        raise DomainError("quadrics must use exactly 4 variables")
    L = math.lcm(*[d for _, _, d in terms])
    acc = [0] * 10  # L times each quadratic coefficient
    other = {}  # L times each coefficient of another degree
    for exp, n, d in terms:
        k = _CELL.get(exp)
        if k is None:
            other[exp] = other.get(exp, 0) + n * (L // d)
        else:
            acc[k] += n * (L // d)
    if not any(acc) or any(other.values()):
        raise DomainError("expected nonzero homogeneous quadrics")
    M2 = [f * acc[k] for k, f in _SPREAD]  # 2 M L, row by row
    g = math.gcd(L, *M2)  # 2 M's least denominator is L / g
    if g != 1:
        M2 = [x // g for x in M2]
    return 2 * L // g, (tuple(M2[0:4]), tuple(M2[4:8]), tuple(M2[8:12]), tuple(M2[12:16]))


def _times(N, v) -> list:
    """The product N v of a matrix with 4 columns and a 4-vector."""
    return [r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] * v[3] for r in N]


def _field(data, key, read):
    """read(data[key]) for a field of the quadric-pair JSON; ValueError
    naming the field if it is missing, if it is misshapen (a ShapeError of
    `read`), or if an entry in it is not a rational at all
    (`parse_rational`'s TypeError, the only one `read` raises).  An entry
    that does not parse keeps `parse_rational`'s message, which quotes it."""
    if key not in data:
        raise ValueError(f"quadric-pair JSON needs P1/P2 or A/B plus point: {key!r} is missing")
    try:
        return read(data[key])
    except TypeError as exc:
        raise ValueError(f"quadric-pair JSON {key!r} must hold exact rationals: {exc}") from None
    except ShapeError as exc:
        raise ValueError(f"quadric-pair JSON {key!r} is misshapen: {exc}") from None


def _point_pairs(point) -> list:
    """The `parse_rational` pairs of the common point's JSON array."""
    return [parse_rational(c) for c in json_list(point, "the common point")]


def _matrix_terms(M) -> tuple:
    """(vars, [(exponent, n, d), ...]) of v^T M v, M a 4x4 JSON matrix."""
    rows = [[parse_rational(x) for x in json_list(row, "a quadric matrix row")]
            for row in json_list(M, "a quadric matrix")]
    if len(rows) != 4 or any(len(r) != 4 for r in rows):
        raise ShapeError("quadric matrix must be 4x4")
    return VARS4, [(geometry._mono4(i, j), *rows[i][j]) for i in range(4) for j in range(4)]


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
    restricted to them.  On the integers N_i (see `QuadricPair`) and the
    cleared point P, with r = N_1 P and s = N_2 P on those coordinates and
    q, q' the blocks of N_1, N_2, L1 Q2 - L2 Q1 is a cubic over
    D = d1 d2 P_k (negative when P_k is), and each of its ten labels
    (see `PlaneCubic`, over 6 D) is one fixed expression in r, s, q and q',
    with the multiplier 6, 2 or 1 of its monomial folded in.  Raises
    DomainError if L1 and L2 are proportional (the pencil degenerates to
    genus 0) or the eliminant vanishes.
    """
    P = pair.P
    k = 3 if P[3] else next(i for i in range(4) if P[i])
    x, y, z = (i if i != k else 3 for i in range(3))
    (d1, N1), (d2, N2) = pair.quadrics
    r0, r1, r2 = _times((N1[x], N1[y], N1[z]), P)
    s0, s1, s2 = _times((N2[x], N2[y], N2[z]), P)
    if not any(cross_product((r0, r1, r2), (s0, s1, s2))):
        raise DomainError("the t-linear forms are proportional: the pencil "
                          "degenerates to a genus-0 configuration")
    q00, q01, q02, q11, q12, q22 = N1[x][x], N1[x][y], N1[x][z], N1[y][y], N1[y][z], N1[z][z]
    p00, p01, p02, p11, p12, p22 = N2[x][x], N2[x][y], N2[x][z], N2[y][y], N2[y][z], N2[z][z]
    labels = (12 * (r0*p00 - s0*q00), 12 * (r1*p11 - s1*q11), 12 * (r2*p22 - s2*q22),
              4 * (2 * (r0*p01 - s0*q01) + r1*p00 - s1*q00),   # d: x^2 y
              4 * (2 * (r1*p12 - s1*q12) + r2*p11 - s2*q11),   # e: y^2 z
              4 * (r0*p22 - s0*q22 + 2 * (r2*p02 - s2*q02)),   # f: x z^2
              4 * (r0*p11 - s0*q11 + 2 * (r1*p01 - s1*q01)),   # g: x y^2
              4 * (r1*p22 - s1*q22 + 2 * (r2*p12 - s2*q12)),   # h: y z^2
              4 * (2 * (r0*p02 - s0*q02) + r2*p00 - s2*q00),   # i: x^2 z
              4 * (r0*p12 - s0*q12 + r1*p02 - s1*q02 + r2*p01 - s2*q01))  # m: x y z
    if not any(labels):
        raise DomainError("the pencil degenerates: the eliminant cubic "
                          "vanishes identically")
    return PlaneCubic(6 * d1 * d2 * P[k], labels)


# ---------------------------------------------------------------------------
# plane cubics and Aronhold invariants
# ---------------------------------------------------------------------------

# (monomial, multiplier) of each classical label, in the order a, b, ..., i, m
_TEN_MONOMIALS = (((3, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 3), 1),
                  ((2, 1, 0), 3), ((0, 2, 1), 3), ((1, 0, 2), 3),
                  ((1, 2, 0), 3), ((0, 1, 2), 3), ((2, 0, 1), 3), ((1, 1, 1), 6))
# monomial -> (label index, 6 / multiplier)
_LABEL_OF = {e: (n, 6 // k) for n, (e, k) in enumerate(_TEN_MONOMIALS)}
# (label index, monomial, multiplier), monomials in descending order
_DESCENDING_TERMS = tuple(sorted(((n, e, k) for n, (e, k) in enumerate(_TEN_MONOMIALS)),
                                 key=lambda t: t[1], reverse=True))


class PlaneCubic:
    """A ternary cubic form, stored as its ten classical labels

        C = a x^3 + b y^3 + c z^3 + 3d x^2 y + 3e y^2 z + 3f z^2 x
            + 3g x y^2 + 3h y z^2 + 3i z x^2 + 6m x y z,

    the entries of the symmetric trilinear form T with T(x, x, x) = C(x):
    T_xxx = a, T_yyy = b, T_zzz = c, T_xxy = d, T_yyz = e, T_xzz = f,
    T_xyy = g, T_yzz = h, T_xxz = i, T_xyz = m.  `PlaneCubic(den, ints)`
    holds them in that order as integers over one nonzero denominator:
    label k is ints[k] / den, and a coefficient C / n with multiplier 1, 3
    or 6 gives the label (6 / multiplier) C over 6 n.  The Aronhold
    invariants are computed once, at construction, as the integers S and T
    of the stored labels (`_aronhold_st`), so the cubic's own invariants are
    S / den^4 and T / den^6; the cubic is singular iff its discriminant
    (64 S^3 - T^2) / 1728 vanishes, that is iff 64 S^3 = T^2.  A Spohn
    cubic's plane cubic comes from its integers (`from_spohn`), and
    `to_json` prints the stored integers."""

    __slots__ = ("den", "ints", "S", "T")

    def __init__(self, den: int, ints):
        if not any(ints):
            raise DomainError("expected a nonzero cubic")
        self.den, self.ints = den, tuple(ints)
        self.S, self.T = _aronhold_st(*self.ints)

    def is_singular(self) -> bool:
        return 64 * self.S**3 == self.T**2

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
        """The plane cubic of a raw homogeneous ternary cubic polynomial,
        read in one pass over its terms: each exponent finds its label and
        the factor 6 / multiplier in `_LABEL_OF`, and the (n, d) pairs are
        cleared once, over their least common denominator.  An exponent
        that is not a cubic monomial, or the zero polynomial, is a
        DomainError."""
        if len(poly.vars) != 3:
            raise DomainError("plane cubic needs exactly 3 variables")
        terms = poly.terms
        if not terms or not terms.keys() <= _LABEL_OF.keys():
            raise DomainError("expected a nonzero homogeneous ternary cubic")
        pairs = [(0, 1)] * 10
        for e, c in terms.items():
            k, f = _LABEL_OF[e]
            pairs[k] = (f * c.numerator, c.denominator)
        n, ints = clear_pairs(pairs)
        return cls(6 * n, ints)

    def to_json(self) -> dict:
        """The bytes of `poly.to_json()` and of the labels a ... m, printed
        from the stored integers: each term is its multiplier times the
        label's integer over den, in descending exponent order."""
        den, ints = self.den, self.ints
        return {
            "poly": terms_json(VARS3, [(e, k * ints[n], den) for n, e, k in _DESCENDING_TERMS]),
            "coefficients": {c: ratio_str(x, den) for c, x in zip("abcdefghim", ints)},
        }


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

    `WeierstrassCurve(n, (A1, A2, A3, A4, A6))` is the curve with
    a_w = A_w / n^w, n a nonzero integer, and that weighted-integer form is
    all it stores.  Fixed at construction, on those integers:
    B2 = A1^2 + 4 A2, B4 = 2 A4 + A1 A3, B6 = A3^2 + 4 A6,
    C4 = B2^2 - 24 B4, C6 = -B2^3 + 36 B2 B4 - 216 B6 and
    D = (C4^3 - C6^2) / 1728 (Silverman, The Arithmetic of Elliptic Curves,
    III.1), so that b_w = B_w / n^w, c_w = C_w / n^w and disc = D / n^12;
    the curve is singular iff D = 0, and otherwise j = C4^3 / D, since the
    powers of n cancel.  `to_json` prints a_w and j from these integers.
    """

    __slots__ = ("n", "A", "B2", "B4", "B6", "C4", "C6", "D")

    def __init__(self, n: int, A):
        self.n, self.A = n, tuple(A)
        A1, A2, A3, A4, A6 = self.A
        self.B2, self.B4, self.B6 = B2, B4, B6 = A1**2 + 4*A2, 2*A4 + A1*A3, A3**2 + 4*A6
        self.C4, self.C6 = C4, C6 = B2**2 - 24*B4, -B2**3 + 36*B2*B4 - 216*B6
        self.D = (C4**3 - C6**2) // 1728

    def to_json(self) -> dict:
        """a1 ... a6 and j, printed from the stored integers: a_w is
        A_w / n^w and j is C4^3 / D, each reduced once by `ratio_str`."""
        n, (A1, A2, A3, A4, A6) = self.n, self.A
        n2 = n * n
        n3 = n2 * n
        return {
            "a": [ratio_str(A1, n), ratio_str(A2, n2), ratio_str(A3, n3),
                  ratio_str(A4, n2 * n2), ratio_str(A6, n3 * n3)],
            "j": "singular" if self.D == 0 else ratio_str(self.C4**3, self.D),
        }

    def __repr__(self):
        return "WeierstrassCurve(" + ", ".join(self.to_json()["a"]) + ")"


def _polar_conic(labels, w) -> tuple:
    """The polar conic T(., ., w) of the symmetric trilinear form T whose
    entries are the ten classical labels (see `PlaneCubic`), as the rows of
    its symmetric 3x3 matrix."""
    a, b, c, d, e, f, g, h, i, m = labels
    w0, w1, w2 = w
    xy, xz, yz = d * w0 + g * w1 + m * w2, i * w0 + m * w1 + f * w2, m * w0 + e * w1 + h * w2
    return ((a * w0 + d * w1 + i * w2, xy, xz),
            (xy, g * w0 + b * w1 + e * w2, yz),
            (xz, yz, f * w0 + h * w1 + c * w2))


def _apply(Q, v) -> tuple:
    """The product Q v of a 3x3 matrix and a 3-vector."""
    v0, v1, v2 = v
    return tuple([r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in Q])


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _tangent_frame(labels, P) -> tuple:
    """(grad, U, k, (beta, q1, q2, q3, k0, k1, k2, k3)) at the integer point
    P of the cubic with integer labels, for `weierstrass_from_cubic`.

    grad is the gradient at P.  U = grad x e_j for the first j with
    P_j != 0, and w = e_k for the first k with grad_k != 0, with no search:
    P lies on the cubic, so grad.P = 3 C(P) = 0 and
    (grad x e_j) x P = -P_j grad.  So U is a tangent direction at P not
    parallel to P, and det(U, P, e_k) = -P_j grad_k is nonzero.  The
    eight values are the coefficients of Y^2 Z, X^2 Y, X Y Z, Y Z^2, X^3,
    X^2 Z, X Z^2 and Z^3 in the coordinates X U + Y P + Z w: each the
    multinomial (3; a, b, c) times T(U^a, P^b, w^c).  Every value of T is
    read off two polar conics, Q_P = T(., ., P) and Q_U = T(., ., U), formed
    once: with r = Q_P P, C(P) = P.r, grad = 3 r, T(U, P, P) = U.r and,
    since w = e_k, T(P, P, w) = r_k, T(P, w, w) = (Q_P)_kk,
    T(U, U, P) = U.(Q_P U), T(U, P, w) = (Q_P U)_k, T(U, U, U) = U.(Q_U U),
    T(U, U, w) = (Q_U U)_k, T(U, w, w) = (Q_U)_kk, and T(w, w, w) is the
    k-th pure cube label.  DomainError if P is not on the cubic."""
    QP = _polar_conic(labels, P)
    r = _apply(QP, P)
    if _dot(P, r) != 0:
        raise DomainError("base point does not lie on the cubic")
    g0, g1, g2 = grad = (3 * r[0], 3 * r[1], 3 * r[2])
    if not any(grad):  # pragma: no cover — impossible when disc != 0
        raise DomainError("base point is singular")
    U = (0, g2, -g1) if P[0] else (-g2, 0, g0) if P[1] else (g1, -g0, 0)  # grad x e_j
    if _dot(U, r) != 0:  # the X Y^2 coefficient
        raise AssertionError("normalization failed")  # pragma: no cover
    k = 0 if g0 else 1 if g1 else 2
    QU = _polar_conic(labels, U)
    QP_U, QU_U = _apply(QP, U), _apply(QU, U)
    return grad, U, k, (3 * r[k], 3 * _dot(U, QP_U), 6 * QP_U[k], 3 * QP[k][k],
                        _dot(U, QU_U), 3 * QU_U[k], 3 * QU[k][k], labels[k])


def weierstrass_from_cubic(cubic: PlaneCubic, pt) -> WeierstrassCurve:
    """Exact Weierstrass model of a smooth plane cubic with a rational point
    p, given as a sequence of three coordinates, each an int, a Fraction or
    a rational string, read once by `parse_rational`.  `reduce --point`
    hands it the ints and Fractions its strings became.

    The point p is moved to [0:1:0] with its tangent line as {Z = 0}: the
    new coordinates are X u + Y p + Z w with u a tangent direction at p and
    w a unit vector completing a basis.  The coefficient of X^a Y^b Z^c in
    them is the multinomial (3; a, b, c) times T(u^a, p^b, w^c), T the
    cubic's trilinear form (see `PlaneCubic`).  All of them, with the
    on-curve check and the gradient, are read off the two polar conics
    T(., ., p) and T(., ., u) as integer matrices (`_tangent_frame`): a dot
    product or an entry each, and no polynomial is expanded.  If the
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
    dp, P = point_of_pairs([parse_rational(c) for c in pt])
    if len(P) != 3:
        raise DomainError("base point must have 3 coordinates")
    # on integers: the labels are A / n, p = P / dp and u = U / du, and T is
    # linear in the labels and in each argument, so
    # T(u^a, p^b, w^c) = T_A(U^a, P^b, w^c) / (n du^a dp^b) exactly; u does
    # not depend on which (n, A) the cubic stores, since U and du scale with it
    n = cubic.den
    _, _, _, (beta, q1, q2, q3, k0, k1, k2, k3) = _tangent_frame(cubic.ints, P)
    du = n * dp * dp

    # s = n du^3 dp^2 times each coefficient of X^a Y^b Z^c (b <= 2) that is
    # read: the value above times du^(3 - a) dp^(2 - b)
    du2, dp2 = du * du, dp * dp
    du3 = du2 * du
    beta, q1, q2, q3 = beta * du3, q1 * du * dp, q2 * du2 * dp, q3 * du3 * dp
    k0, k1, k2, k3 = k0 * dp2, k1 * du * dp2, k2 * du2 * dp2, k3 * du3 * dp2
    if beta == 0:  # the Y^2 Z coefficient
        raise AssertionError("normalization failed")  # pragma: no cover

    if q1 == 0:
        # flex: the tangent meets the curve three times at pt, and the model
        # a1 = q2/beta, a2 = -k1/beta, a3 = -k0 q3/beta^2, a4 = k0 k2/beta^2,
        # a6 = -k0^2 k3/beta^3 (the same ratios of the scaled coefficients)
        # is a_w = A_w / beta^w
        if k0 == 0:  # pragma: no cover — the tangent would lie in the cubic
            raise AssertionError("degenerate flex normalization")
        E = WeierstrassCurve(beta, (
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
        E = WeierstrassCurve(n * du3 * dp2, (0, 0, 0, -27 * I, -27 * J))

    if not q_isomorphic(E, jacobian(cubic)):
        raise AssertionError("Weierstrass reduction failed certification: "
                             f"{E!r} is not Q-isomorphic to the Jacobian")
    return E


def jacobian(cubic: PlaneCubic) -> WeierstrassCurve:
    """The Jacobian J_C: y^2 = x^3 - 432 S x - 432 T of a smooth plane cubic.

    S, T are the cubic's Aronhold invariants (see `PlaneCubic`); the Fermat
    cubic x^3 + y^3 + z^3 has S = 0, T = 1 and gives y^2 = x^3 - 432.  A
    smooth cubic with a rational point is Q-isomorphic to J_C.  Built from
    the cubic's integer S and T over its denominator n as the weighted
    integers (n, (0, 0, 0, -432 S, -432 T)).  Raises DomainError when the
    cubic is singular (disc = 0).
    """
    if cubic.is_singular():
        raise DomainError("singular cubic: no Jacobian")
    return WeierstrassCurve(cubic.den, (0, 0, 0, -432 * cubic.S, -432 * cubic.T))


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

