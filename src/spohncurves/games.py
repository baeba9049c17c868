"""2x2 bimatrix games: payoffs, equilibria, and dependency-equilibrium tools.

Coordinates follow one convention throughout: a joint distribution is
(p11, p12, p21, p22) where p_ij is the probability that player 1 plays row i
and player 2 plays column j.  Conditional expected payoffs are written
E_k^(i): the expected payoff of player i given that *player i* plays their
k-th strategy.

Everything is exact rational arithmetic except two explicitly numeric
reports: `pareto_sweep` and the witness-sequence evaluations, which combine
exact sequence generation with float summaries (tagged "numeric" in JSON).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import geometry
from .polynomials import (DomainError, clear_denominators, clear_pairs, json_list,
                          parse_rational, rat, rat_str)


# ---------------------------------------------------------------------------
# payoff tables and distributions
# ---------------------------------------------------------------------------

# cell k of (11, 12, 21, 22) after a relabeling is cell perm[k] before it;
# swapping the players also exchanges the two tables
_SWAPS = {                          # relabeling -> the cells it exchanges
    "players swapped": (0, 2, 1, 3),   # transpose: 12<->21
    "rows swapped": (2, 3, 0, 1),      # 11<->21, 12<->22
    "columns swapped": (1, 0, 3, 2),   # 11<->12, 21<->22
}


def _not_str(value):
    """`value`, or TypeError for a string, which would be read char by char."""
    if isinstance(value, str):
        raise TypeError(f"got the string {value!r} for a table or row")
    return value


class PayoffTables:
    """A pair of 2x2 rational payoff tables (A for player 1, B for player 2).

    `cleared` is the one stored form: each table cleared to integers over
    its least scale, once, at construction, from the `parse_rational` pairs
    of its entries by an integer lcm, with no `Fraction` on the way:
    ((la, (A11, A12, A21, A22)), (lb, (B11, B12, B21, B22))) with
    a_ij = A_ij / la and b_ij = B_ij / lb.  Every routine reads it.  What is
    homogeneous in one table (comparisons, ratios, the cubic, the case
    predicates) uses the integers as they are; a value divides by the scale
    once.  The relabelings permute the integers by `_SWAPS`.  `A` and `B`,
    the tables as rows of Fractions, are views built on request.
    """

    __slots__ = ("cleared",)

    def __init__(self, A, B):
        """Raises ValueError unless A and B are 2x2 tables of exact
        rationals (int, Fraction or string; floats are rejected, and so are
        tables and rows given as strings)."""
        try:
            tables = [[[parse_rational(x) for x in _not_str(row)] for row in _not_str(M)]
                      for M in (A, B)]
        except TypeError as exc:
            raise ValueError(f"payoff tables must be 2x2 tables of exact "
                             f"rationals: {exc}") from None
        for M in tables:
            if len(M) != 2 or any(len(r) != 2 for r in M):
                raise ValueError("payoff tables must be 2x2")
        self.cleared = tuple(clear_pairs(M[0] + M[1]) for M in tables)

    A = property(lambda self: _fraction_rows(*self.cleared[0]))
    B = property(lambda self: _fraction_rows(*self.cleared[1]))

    @classmethod
    def from_json(cls, data) -> "PayoffTables":
        """{"A": [["2","0"],["3","1"]], "B": ...} (entries int or "n/d" strings;
        tables and rows must be JSON arrays)."""
        if not isinstance(data, dict) or "A" not in data or "B" not in data:
            raise ValueError("game JSON needs 'A' and 'B'")
        A, B = data["A"], data["B"]
        for M in (A, B):
            for row in json_list(M, "a payoff table"):
                json_list(row, "a payoff row")
        return cls(A, B)

    @classmethod
    def from_bimatrix(cls, text: str) -> "PayoffTables":
        """Parse "a11,b11 a12,b12; a21,b21 a22,b22" (rows split by ';').  The
        text is split here; the constructor reads each entry, A before B."""
        rows = [r.strip() for r in text.strip().split(";")]
        if len(rows) != 2:
            raise ValueError("bimatrix text needs exactly 2 rows split by ';'")
        A, B = [], []
        for r in rows:
            cells = r.split()
            if len(cells) != 2:
                raise ValueError("each bimatrix row needs exactly 2 cells")
            arow, brow = [], []
            for cell in cells:
                parts = cell.split(",")
                if len(parts) != 2:
                    raise ValueError(f"bimatrix cell {cell!r} must be 'a,b'")
                arow.append(parts[0])
                brow.append(parts[1])
            A.append(arow)
            B.append(brow)
        return cls(A, B)

    def to_json(self) -> dict:
        return {
            "A": [[rat_str(x) for x in row] for row in self.A],
            "B": [[rat_str(x) for x in row] for row in self.B],
        }

    def _relabeled(self, step: str) -> "PayoffTables":
        """The game relabeled by one of the `_SWAPS` steps."""
        perm, tables = _SWAPS[step], self.cleared
        out = object.__new__(PayoffTables)
        out.cleared = tuple((scale, tuple(X[k] for k in perm)) for scale, X in
                            (tables[::-1] if step == "players swapped" else tables))
        return out

    def transpose_players(self) -> "PayoffTables":
        """Swap the two players (new A = B^T, new B = A^T)."""
        return self._relabeled("players swapped")

    def swap_rows(self) -> "PayoffTables":
        return self._relabeled("rows swapped")

    def swap_cols(self) -> "PayoffTables":
        return self._relabeled("columns swapped")

    def __eq__(self, other):
        if not isinstance(other, PayoffTables):
            return NotImplemented
        return self.cleared == other.cleared

    def __repr__(self):
        return f"PayoffTables(A={self.A}, B={self.B})"


def _fraction_rows(scale, X) -> tuple:
    """((x11, x12), (x21, x22)): the table X / scale as rows of Fractions."""
    return tuple((Fraction(X[k], scale), Fraction(X[k + 1], scale)) for k in (0, 2))


class JointDistribution:
    """A point (p11, p12, p21, p22) of the closed probability simplex.

    Fixed at construction: stores the p_ij and the marginals row1 = p11 +
    p12, row2 = p21 + p22 (player 1's rows), col1 = p11 + p21 and col2 =
    p12 + p22 (player 2's columns); the sum is checked as row1 + row2 == 1.
    """

    __slots__ = ("p11", "p12", "p21", "p22", "row1", "row2", "col1", "col2")

    def __init__(self, p11, p12, p21, p22):
        vals = p11, p12, p21, p22 = [rat(p) for p in (p11, p12, p21, p22)]
        if any(v < 0 for v in vals):
            raise ValueError("probabilities must be nonnegative")
        row1, row2 = p11 + p12, p21 + p22
        if row1 + row2 != 1:
            raise ValueError("probabilities must sum to exactly 1")
        self.p11, self.p12, self.p21, self.p22 = vals
        self.row1, self.row2, self.col1, self.col2 = row1, row2, p11 + p21, p12 + p22

    @classmethod
    def uniform(cls) -> "JointDistribution":
        q = Fraction(1, 4)
        return cls(q, q, q, q)

    def as_tuple(self) -> tuple:
        return (self.p11, self.p12, self.p21, self.p22)

    def marginals(self) -> tuple:
        return (self.row1, self.row2, self.col1, self.col2)

    def totally_mixed(self) -> bool:
        return all(m != 0 for m in self.marginals())

    def to_json(self) -> list:
        return [rat_str(p) for p in self.as_tuple()]

    def __repr__(self):
        return "(" + ", ".join(rat_str(p) for p in self.as_tuple()) + ")"


class MixedProfile(NamedTuple):
    """Independent mixed strategies: q = P(row 1), r = P(col 1)."""

    q: Fraction
    r: Fraction

    def segre(self) -> JointDistribution:
        """The product distribution (q r, q(1-r), (1-q) r, (1-q)(1-r))."""
        q, r = self.q, self.r
        return JointDistribution(q * r, q * (1 - r), (1 - q) * r, (1 - q) * (1 - r))

    def to_json(self) -> dict:
        return {"q": rat_str(self.q), "r": rat_str(self.r)}


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

class ConditionalPayoffs(NamedTuple):
    """The four conditional expected payoffs E_k^(i).

    e11 = E_1^(1): player 1's expected payoff given they play row 1, etc.
    Field names are e<strategy><player>.
    """

    e11: Fraction
    e21: Fraction
    e12: Fraction
    e22: Fraction


def conditional_payoffs(game: PayoffTables, p: JointDistribution) -> ConditionalPayoffs:
    """E_1^(1) = (a11 p11 + a12 p12)/(p11+p12) and its three siblings, exact:
    on the tables' integers (`PayoffTables.cleared`), each divided by its
    table's scale once, E_1^(1) = (A11 p11 + A12 p12) / (la (p11+p12)).

    Raises DomainError naming the offending marginal if one vanishes.
    """
    names = ("p11+p12", "p21+p22", "p11+p21", "p12+p22")
    labels = ("E_1^(1)", "E_2^(1)", "E_1^(2)", "E_2^(2)")
    for m, n, l in zip(p.marginals(), names, labels):
        if m == 0:
            raise DomainError(f"{l} undefined: marginal {n} = 0")
    (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
    return ConditionalPayoffs(
        (a11 * p.p11 + a12 * p.p12) / (la * p.row1),
        (a21 * p.p21 + a22 * p.p22) / (la * p.row2),
        (b11 * p.p11 + b21 * p.p21) / (lb * p.col1),
        (b12 * p.p12 + b22 * p.p22) / (lb * p.col2),
    )


def expected_payoffs(game: PayoffTables, p: JointDistribution) -> tuple:
    """(pi1, pi2) = (sum a_ij p_ij, sum b_ij p_ij), exact."""
    cells = p.as_tuple()
    return tuple(sum(map(mul, X, cells)) / scale for scale, X in game.cleared)


# ---------------------------------------------------------------------------
# Nash equilibria
# ---------------------------------------------------------------------------

def pure_nash(game: PayoffTables) -> list:
    """All pure Nash equilibria as 1-based (row, col) pairs, sorted.

    Best responses are weak; a game with both tables constant returns all
    four cells.
    """
    (_, A), (_, B) = game.cleared
    # cell k = 2 (row - 1) + (col - 1): k ^ 2 is the other row, k ^ 1 the other column
    return [(k // 2 + 1, k % 2 + 1) for k in range(4) if A[k] >= A[k ^ 2] and B[k] >= B[k ^ 1]]


def totally_mixed_nash(game: PayoffTables):
    """The interior Nash equilibrium, if any.

    Returns a MixedProfile, or "none" (indifference point exists but lies
    outside the open square), or "degenerate" (an indifference denominator
    vanishes, so no isolated interior equilibrium exists).
    """
    (_, (a11, a12, a21, a22)), (_, (b11, b12, b21, b22)) = game.cleared
    den_q = b11 - b12 - b21 + b22
    den_r = a11 - a12 - a21 + a22
    if den_q == 0 or den_r == 0:
        return "degenerate"
    q = Fraction(b22 - b21, den_q)
    r = Fraction(a22 - a12, den_r)
    if not (0 < q < 1 and 0 < r < 1):
        return "none"
    return MixedProfile(q, r)


def is_nash(game: PayoffTables, ne: MixedProfile) -> bool:
    """Exact best-response check for a mixed profile (q, r), on integers.

    With r = n/d, player 1's row 1 payoff minus row 2's is
    ((A11 - A21) n + (A12 - A22)(d - n)) / (la d), so the integer numerator
    has its sign; likewise for player 2's columns at q.
    """
    q, r = rat(ne.q), rat(ne.r)
    if not (0 <= q <= 1 and 0 <= r <= 1):
        return False
    (_, (a11, a12, a21, a22)), (_, (b11, b12, b21, b22)) = game.cleared
    rows = (a11 - a21) * r.numerator + (a12 - a22) * (r.denominator - r.numerator)
    cols = (b11 - b12) * q.numerator + (b21 - b22) * (q.denominator - q.numerator)
    return all(gap >= 0 if p == 1 else gap <= 0 if p == 0 else gap == 0
               for p, gap in ((q, rows), (r, cols)))


# ---------------------------------------------------------------------------
# the 4x4 payoff-equalization matrix ("Konstanz matrix")
# ---------------------------------------------------------------------------

class KonstanzMatrix:
    """K(pi1, pi2): kernel vectors are joint distributions whose conditional
    payoffs all equal the prescribed values (pi1 for player 1, pi2 for 2).

    Rows, acting on (p11, p12, p21, p22):
        (pi1-a11, pi1-a12, 0, 0)
        (0, 0, pi1-a21, pi1-a22)
        (pi2-b11, 0, pi2-b21, 0)
        (0, pi2-b12, 0, pi2-b22)

    Only two of the 24 permutations avoid every zero entry, so
    det K = (pi1-a12)(pi1-a21)(pi2-b11)(pi2-b22)
            - (pi1-a11)(pi1-a22)(pi2-b12)(pi2-b21).
    """

    __slots__ = ("pi1", "pi2", "rows")

    def __init__(self, game: PayoffTables, pi1, pi2):
        p1, p2 = rat(pi1), rat(pi2)
        self.pi1, self.pi2 = p1, p2
        z = Fraction(0)
        ((a11, a12), (a21, a22)), ((b11, b12), (b21, b22)) = game.A, game.B
        self.rows = (
            (p1 - a11, p1 - a12, z, z),
            (z, z, p1 - a21, p1 - a22),
            (p2 - b11, z, p2 - b21, z),
            (z, p2 - b12, z, p2 - b22),
        )

    def det(self) -> Fraction:
        r = self.rows
        return r[0][1] * r[1][2] * r[2][0] * r[3][3] - r[0][0] * r[1][3] * r[2][2] * r[3][1]

    def apply(self, vec) -> tuple:
        v = [rat(x) for x in vec]
        return tuple(sum(r[j] * v[j] for j in range(4)) for r in self.rows)

    def to_json(self) -> dict:
        return {
            "pi1": rat_str(self.pi1),
            "pi2": rat_str(self.pi2),
            "matrix": [[rat_str(x) for x in row] for row in self.rows],
            "det": rat_str(self.det()),
        }


# ---------------------------------------------------------------------------
# dependency-equilibrium membership
# ---------------------------------------------------------------------------

def spohn_determinants(game: PayoffTables, p) -> tuple:
    """(det M1, det M2) at a 4-tuple of rationals (not necessarily summing 1).

    det M1 = (p11+p12)(a21 p21 + a22 p22) - (a11 p11 + a12 p12)(p21+p22)
    det M2 = (p11+p21)(b12 p12 + b22 p22) - (b11 p11 + b21 p21)(p12+p22)

    These vanish simultaneously exactly on the Spohn variety of the game;
    the geometry module builds the same two quadrics as polynomials, which
    tests compare against this direct route.  Each is linear in its table,
    so it is evaluated on the table's integers (`PayoffTables.cleared`) and
    divided by the scale once.
    """
    p11, p12, p21, p22 = (rat(x) for x in p)
    (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
    d1 = (p11 + p12) * (a21 * p21 + a22 * p22) - (a11 * p11 + a12 * p12) * (p21 + p22)
    d2 = (p11 + p21) * (b12 * p12 + b22 * p22) - (b11 * p11 + b21 * p21) * (p12 + p22)
    return d1 / la, d2 / lb


def de_membership(game: PayoffTables, p: JointDistribution) -> str:
    """Classify a simplex point: "DE", "notDE", or "boundary-undecided".

    Totally mixed points are dependency equilibria iff both Spohn
    determinants vanish (exact test).  Points with a zero marginal cannot be
    decided by the pointwise algebraic test (DE-ness there is a statement
    about limits of interior sequences), so they are reported as undecided.
    """
    if not p.totally_mixed():
        return "boundary-undecided"
    d1, d2 = spohn_determinants(game, p.as_tuple())
    return "DE" if d1 == 0 and d2 == 0 else "notDE"


# ---------------------------------------------------------------------------
# witness sequences for Nash equilibria
# ---------------------------------------------------------------------------

# A witness sequence p(r) converges through the open simplex to a boundary
# Nash equilibrium and realizes the defining limit inequalities of dependency
# equilibria.  Each is stored as a template: four cells in the order
# (11, 12, 21, 22), each a row (c0, c1, c2, c3) meaning
# c0 + c1/r + c2/r^2 + c3/r^3.  Boundary templates are stated for the
# normalized position "player 1 plays their second strategy"; an arbitrary
# equilibrium is moved there by the relabelings of `_SWAPS`, and the
# template's rows are permuted back through them.

class WitnessLadderRow(NamedTuple):
    """One rung of a witness ladder.  `point` is the exact p(r); `payoffs`
    and `residuals` are the floats the report prints, each the exact value
    rounded once (the exact payoffs are
    `conditional_payoffs(game, JointDistribution(*row.point))`)."""

    r: int
    point: tuple            # exact Fractions
    payoffs: ConditionalPayoffs  # floats
    residuals: tuple        # float inequality slacks, one per required inequality


class WitnessReport:
    """A witness sequence for a Nash equilibrium, built from its template.

    `template` holds four rows (c0, c1, c2, c3), one per cell in the order
    (11, 12, 21, 22), meaning c0 + c1/r + c2/r^2 + c3/r^3; its columns must
    sum to (1, 0, 0, 0), so p(r) sums to 1 for every r.  `limit` is the c0
    column and `sequence(r)` the exact point at r.  `threshold` is the least
    integer r >= 1 with p(r) in the open simplex, read off the template by
    its constructor.  Every cell of every template is a positive constant, a
    positive combination of powers of 1/r, or a positive constant minus such
    terms, so once p(r) is interior it stays interior; hence two exact
    evaluations prove the value: p(threshold) is interior and, when
    threshold > 1, p(threshold - 1) is not.  The ladder evaluates
    r = 10^3..10^6, or threshold * 10^0..10^3 when the threshold exceeds
    10^3; `inequalities` are the DE conditions E_k^(i) >= E_l^(i) for the
    strategies played in the limit, and `ok` says whether every one holds
    within `_WITNESS_TOL` at the last rung.

    All of it runs on integers.  At r the four cells are m_ij / (den r^D),
    with den the lcm of the template's denominators and D its top degree,
    so with the tables' integers over la and lb (`PayoffTables.cleared`)
    each payoff is a ratio of integers,
    E_1^(1) = (A11 m11 + A12 m12) / (la (m11 + m12)), and each slack a
    cross-multiplied one, E_1^(1) - E_2^(1) = (n1 s2 - n2 s1) / (la s1 s2).  One `int / int` division rounds each
    exact value to its float, so the ladder prints `float()` of the exact
    Fraction; the interior checks read the signs of the m_ij.
    """

    def __init__(self, game, kind, case, formula, threshold, template, relabeling="",
                 lam=None, payoff_limits=None):
        if tuple(map(sum, zip(*template))) != (1, 0, 0, 0):
            raise AssertionError("witness template does not sum to 1")  # pragma: no cover
        self.kind = kind                  # "pure" | "semi-mixed" | "totally-mixed" | "cooperation"
        self.case = case                  # human-readable case selector
        self.formula = formula            # sequence formula in normalized coordinates
        self.template = template          # four rows (c0, c1, c2, c3) of 1/r coefficients
        self.relabeling = relabeling
        self.lam = lam                    # cooperation only: the off-diagonal split
        self.payoff_limits = payoff_limits  # cooperation only: limits of E_k^(i)
        # the template over one denominator, without the powers of 1/r that
        # no cell uses (column c0 sums to 1, so it always stays)
        self._den, ints = clear_denominators([c for row in template for c in row])
        self._rows = [ints[k:k + 4] for k in (0, 4, 8, 12)]
        while not any(row[-1] for row in self._rows):
            self._rows = [row[:-1] for row in self._rows]
        self.limit = tuple(Fraction(row[0]) for row in template)

        def interior(r):
            return all(m > 0 for m in self._numerators(r))
        if not interior(threshold) or threshold > 1 and interior(threshold - 1):
            raise AssertionError("threshold is not the first interior r")  # pragma: no cover
        self.threshold = threshold

        lim = JointDistribution(*self.limit)
        checks = [(label, player, sign) for label, m, player, sign in (  # slack = sign * d_player
            ("E_1^(1) >= E_2^(1)", lim.row1, 0, 1), ("E_2^(1) >= E_1^(1)", lim.row2, 0, -1),
            ("E_1^(2) >= E_2^(2)", lim.col1, 1, 1), ("E_2^(2) >= E_1^(2)", lim.col2, 1, -1))
            if m != 0]
        self.inequalities = [label for label, _, _ in checks]
        (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
        self.ladder = []
        for r in (_LADDER if self.threshold <= _LADDER[0]
                  else tuple(self.threshold * 10 ** k for k in range(4))):
            m11, m12, m21, m22 = self._numerators(r)
            n1, s1 = a11 * m11 + a12 * m12, m11 + m12
            n2, s2 = a21 * m21 + a22 * m22, m21 + m22
            n3, s3 = b11 * m11 + b21 * m21, m11 + m21
            n4, s4 = b12 * m12 + b22 * m22, m12 + m22
            pay = ConditionalPayoffs(n1 / (la * s1), n2 / (la * s2),
                                     n3 / (lb * s3), n4 / (lb * s4))
            # d_0 = E_1^(1) - E_2^(1) and d_1 = E_1^(2) - E_2^(2) as (numerator, denominator)
            d = ((n1 * s2 - n2 * s1, la * s1 * s2), (n3 * s4 - n4 * s3, lb * s3 * s4))
            self.ladder.append(WitnessLadderRow(
                r, self.sequence(r), pay,
                tuple(sign * d[player][0] / d[player][1] for _, player, sign in checks)))
        self.ok = all(res >= -_WITNESS_TOL for res in self.ladder[-1].residuals)

    def _numerators(self, r: int) -> list:
        """[m11, m12, m21, m22]: the cells at r times den * r^D, with D the
        template's top degree, by Horner's rule on its integer rows."""
        out = []
        for row in self._rows:
            m = 0
            for c in row:
                m = m * r + c
            out.append(m)
        return out

    def sequence(self, r: int) -> tuple:
        """The exact point p(r), one Fraction m_ij / (den * r^D) per cell."""
        d = self._den * r ** (len(self._rows[0]) - 1)
        return tuple(Fraction(m, d) for m in self._numerators(r))

    def to_json(self) -> dict:
        out = {
            "numeric": True,
            "kind": self.kind,
            "case": self.case,
            "formula": self.formula,
            "relabeling": self.relabeling,
            "threshold": self.threshold,
            "limit": [rat_str(x) for x in self.limit],
            "inequalities": list(self.inequalities),
            "tolerance": _WITNESS_TOL,
            "ladder": [
                {
                    "r": row.r,
                    "point": [rat_str(x) for x in row.point],
                    "payoffs": {
                        "E_1^(1)": float(row.payoffs.e11),
                        "E_2^(1)": float(row.payoffs.e21),
                        "E_1^(2)": float(row.payoffs.e12),
                        "E_2^(2)": float(row.payoffs.e22),
                    },
                    "residuals": list(row.residuals),
                }
                for row in self.ladder
            ],
            "ok": self.ok,
        }
        if self.lam is not None:
            out["lambda"] = rat_str(self.lam)
            out["payoff_limits"] = [rat_str(x) for x in self.payoff_limits]
        return out


_LADDER = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
_WITNESS_TOL = 1e-6


def _pure_corner_template(game: PayoffTables):
    """Template for the normalized pure equilibrium (row 2, col 2).

    Requires a12 <= a22 and b21 <= b22 (the best-response conditions).
    Returns (case label, formula string, threshold, template); the
    threshold is the least integer r > 0 at which the last cell is positive.
    """
    (_, (a11, a12, _, _)), (_, (b11, _, b21, _)) = game.cleared
    if a11 <= a12 and b11 <= b21:  # r^2 - r - 2 = (r - 2)(r + 1)
        return ("a11<=a12 and b11<=b21", "(1/r, 1/r^2, 1/r^2, 1 - 1/r - 2/r^2)", 3,
                ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0), (1, -1, -2, 0)))
    if a11 >= a12 and b11 >= b21:  # r > 1 + sqrt(2)
        return ("a11>=a12 and b11>=b21", "(1/r^2, 1/r, 1/r, 1 - 2/r - 1/r^2)", 3,
                ((0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 0), (1, -2, -1, 0)))
    # r^3 - r^2 - r - 1 is -2 at r = 1 and 1 at r = 2
    if a11 <= a12 and b11 >= b21:
        return ("a11<=a12 and b11>=b21", "(1/r^2, 1/r^3, 1/r, 1 - 1/r - 1/r^2 - 1/r^3)", 2,
                ((0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, -1, -1, -1)))
    return ("a11>=a12 and b11<=b21", "(1/r^2, 1/r, 1/r^3, 1 - 1/r - 1/r^2 - 1/r^3)", 2,
            ((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, -1, -1, -1)))


def _semi_mixed_template(game: PayoffTables, p1: Fraction):
    """Template for the normalized semi-mixed equilibrium
    ((0,1), (p1, p2)) with p2 = 1 - p1; needs b21 == b22 (player 2
    indifference).  The threshold is the least integer r with r > 1/p1 and
    r^2 > 1/p2."""
    (_, (a11, a12, _, _)), (_, (_, _, b21, b22)) = game.cleared
    if b21 != b22:
        raise DomainError("semi-mixed witness needs b21 == b22 after normalization")
    p2 = 1 - p1
    threshold = max(p1.denominator // p1.numerator + 1,
                    math.isqrt(p2.denominator // p2.numerator) + 1)
    row2 = ((p1, -1, 0, 0), (p2, 0, -1, 0))  # p1 - 1/r, p2 - 1/r^2
    if a11 <= a12:
        return ("a11<=a12", "(1/r, 1/r^2, p1 - 1/r, p2 - 1/r^2)", threshold,
                ((0, 1, 0, 0), (0, 0, 1, 0)) + row2)
    return ("a11>=a12", "(1/r^2, 1/r, p1 - 1/r, p2 - 1/r^2)", threshold,
            ((0, 0, 1, 0), (0, 1, 0, 0)) + row2)


def ne_witness_sequence(game: PayoffTables, ne: MixedProfile) -> WitnessReport:
    """Construct an interior sequence witnessing that a Nash equilibrium is a
    dependency equilibrium, and evaluate it on the ladder.

    `ne` must be a Nash equilibrium of the game (checked exactly); totally
    mixed equilibria get the constant template (p, 0, 0, 0) per cell.
    Boundary equilibria are relabeled to the normalized position (player 1
    pure on row 2, and column 2 for pure equilibria), the template for the
    matching payoff-comparison case is chosen there, and its rows are
    permuted back through the relabelings in reverse order.
    """
    ne = MixedProfile(rat(ne.q), rat(ne.r))
    if not is_nash(game, ne):
        raise DomainError(f"profile (q={rat_str(ne.q)}, r={rat_str(ne.r)}) "
                          "is not a Nash equilibrium of this game")
    q, r_ = ne.q, ne.r

    if 0 < q < 1 and 0 < r_ < 1:
        return WitnessReport(game, "totally-mixed", "interior equilibrium",
                             "constant sequence p(r) = p", 1,
                             tuple((p, 0, 0, 0) for p in ne.segre().as_tuple()))

    # normalize: player 1 should be the pure player, playing row 2
    work, wr = game, r_
    steps = []
    if 0 < q < 1:  # player 1 mixes, so player 2 must be pure: swap players
        work, q, wr = work.transpose_players(), wr, q
        steps.append("players swapped")
    if q == 1:
        work = work.swap_rows()
        steps.append("rows swapped")

    if 0 < wr < 1:
        kind = "semi-mixed"
        label, formula, threshold, template = _semi_mixed_template(work, wr)
    else:
        if wr == 1:
            work = work.swap_cols()
            steps.append("columns swapped")
        kind = "pure"
        label, formula, threshold, template = _pure_corner_template(work)

    # each relabeling is an involution on the cells: undo the last one first
    for step in reversed(steps):
        template = tuple(template[j] for j in _SWAPS[step])
    return WitnessReport(game, kind, label, formula, threshold, template,
                         relabeling=", ".join(steps) if steps else "none")


def cooperation_witness(game: PayoffTables) -> WitnessReport:
    """Witness sequence showing mutual cooperation is a dependency
    equilibrium of a symmetric prisoner's-dilemma-type game.

    Requires B = A^T and a21 > a11 > a22 > a12 (each violation is named).
    With lam = (a11 - a22)/(a21 - a22) in (0, 1), the sequence

        p(r) = (1 - 1/r - 1/r^2,  1/r^2,  lam/r,  (1-lam)/r)

    converges to (1,0,0,0) with conditional payoffs tending to
    (a11, a11, a11, a22); the off-diagonal mass is split so that
    E_2^(1) = lam a21 + (1-lam) a22 = a11 exactly for every r.
    """
    if game.transpose_players() != game:  # (A, B) -> (B^T, A^T) fixes it iff B = A^T
        raise DomainError("cooperation witness requires B = transpose(A)")
    la, (a11, a12, a21, a22) = game.cleared[0]
    for label, holds in (("a21 > a11", a21 > a11), ("a11 > a22", a11 > a22),
                         ("a22 > a12", a22 > a12)):
        if not holds:
            raise DomainError(f"cooperation witness requires {label}")

    lam = Fraction(a11 - a22, a21 - a22)
    v11, v22 = Fraction(a11, la), Fraction(a22, la)
    return WitnessReport(game, "cooperation", f"lambda = {rat_str(lam)}",
                         "(1 - 1/r - 1/r^2, 1/r^2, lam/r, (1-lam)/r)", 2,  # r^2 > r + 1
                         ((1, -1, -1, 0), (0, 0, 1, 0), (0, lam, 0, 0), (0, 1 - lam, 0, 0)),
                         lam=lam, payoff_limits=(v11, v11, v11, v22))


# ---------------------------------------------------------------------------
# Pareto sweep along the Spohn curve (numeric)
# ---------------------------------------------------------------------------

_MAX_LINES = 10 ** 7  # sample lines per call; a larger grid is a domain error


def _unit_floats(game: PayoffTables) -> tuple:
    """(a, b, cubic): the sampler's tables, each flattened row by row, and
    the seven coefficients c1..c7 of their Spohn cubic (in the order of
    `geometry._CUBIC_EXPS`, x^2 y first), in floats.

    Each table's integers X over its scale (`PayoffTables.cleared`) become
    (X - X11) / S with S = max|X - X11| (X / scale when S = 0): the shift and
    positive scale that leave the Spohn curve alone bring the entries into
    [-1, 1].  The cubic is bilinear in the two tables' differences, so its
    coefficients on those tables are `build_cubic(game).ints[k] / (S_A S_B)`
    exactly.  Every float is one `int / int`, the exact value rounded once.
    """
    out = []
    for scale, X in game.cleared:
        S = max(abs(x - X[0]) for x in X)
        if S:
            out.append(([(x - X[0]) / S for x in X], S))
        else:  # every difference is 0, and so is every coefficient of the cubic
            out.append(([x / scale for x in X], scale))
    (a, sa), (b, sb) = out
    return a, b, [c / (sa * sb) for c in geometry.build_cubic(game).ints]


def _residuals(a, b, p):
    """The sampler's residuals (det M1, det M2, sum - 1) at the float point
    p; a and b hold the tables row by row.

    det M1 = s (a21 p21 + a22 p22) - (a11 p11 + a12 p12) t with s = p11 + p12,
    t = p21 + p22 (det M2 likewise by columns).
    """
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    p11, p12, p21, p22 = p
    return ((p11 + p12) * (a21 * p21 + a22 * p22) - (a11 * p11 + a12 * p12) * (p21 + p22),
            (p11 + p21) * (b12 * p12 + b22 * p22) - (b11 * p11 + b21 * p21) * (p12 + p22),
            p11 + p12 + p21 + p22 - 1.0)


def sample_curve_points(game: PayoffTables, count: int, seed: int = 0) -> list:
    """Sample float points of the Spohn curve of a generic game strictly
    inside the simplex, as 4-lists.

    Each table T is first mapped to (T - t11)/max|T - t11| by
    `_unit_floats`, on integers and rounded once (shift and positive scale
    move neither determinant's zero set), so the tolerances below mean the
    same for every rescaling of a game.  The plane cubic (the curve with p22
    dropped) has no pure cubes, so it passes through O = [1:0:0].  Each of
    the `count` lines joins O to [0:1:u], u = tan(theta) with theta uniform
    in [0, pi/2) from `random.Random(seed)`, and meets the cubic at [t:1:u]
    where A t^2 + B t + C = 0, solved by the stable quadratic formula.  Each
    root t > 0 is lifted to p22 > 0 through the first determinant and
    normalized to sum 1, with no refinement: the root is on the curve up to
    rounding.  A point is kept when its determinant residuals are at most
    1e-8, its sum is within 1e-10 of 1 and each coordinate is in
    (1e-9, 1 - 1e-9).  DomainError above `_MAX_LINES`.
    """
    if count > _MAX_LINES:
        raise DomainError(f"at most {_MAX_LINES} sample lines")
    a, b, (c1, c2, c3, c4, c5, c6, c7) = _unit_floats(game)
    a11, a12, a21, a22 = a
    rng = random.Random(seed)
    found = []
    seen = set()
    for _ in range(count):
        u = math.tan(rng.random() * (math.pi / 2))
        # the cubic at [t:1:u]: c1 x^2 y + ... + c7 x y z
        qa, qb, qc = c1 + c2 * u, c3 + (c7 + c4 * u) * u, u * (c5 + c6 * u)
        if qa == 0.0:
            roots = (-qc / qb,) if qb else ()
        else:
            disc = qb * qb - 4.0 * qa * qc
            if disc < 0.0:
                continue
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            roots = (q / qa, qc / q) if q else ()
        for t in roots:
            if t <= 0.0:
                continue
            # scaled to x + y + z = 1, the scale the thresholds below assume
            s = t + 1.0 + u
            x, y, z = t / s, 1.0 / s, u / s
            l1 = (a22 - a11) * x + (a22 - a12) * y
            if abs(l1) < 1e-9:
                continue
            w = -(z * ((a21 - a11) * x + (a21 - a12) * y)) / l1
            if w <= 0.0:  # p22 <= 0; else 1 + w > 1
                continue
            tot = 1.0 + w
            p = [x / tot, y / tot, z / tot, w / tot]
            F = _residuals(a, b, p)
            if not (abs(F[0]) <= 1e-8 and abs(F[1]) <= 1e-8 and abs(F[2]) <= 1e-10):
                continue
            if not all(1e-9 < x < 1 - 1e-9 for x in p):
                continue
            key = tuple(round(x * 1e9) / 1e9 for x in p)
            if key in seen:
                continue
            seen.add(key)
            found.append(p)
    return found


def pareto_sweep(game: PayoffTables, grid: int, seed: int = 0) -> dict:
    """Sample dependency equilibria and compare their payoffs with a
    reference Nash equilibrium.

    The reference is the totally mixed Nash equilibrium when one exists,
    else the unique pure one; DomainError if neither is available.  The
    points are the totally mixed ones that `sample_curve_points` finds on
    `grid` lines through [1:0:0] (DomainError above `_MAX_LINES`).  Returns
    a numeric report with all sampled points, their payoff pairs, and the
    subset weakly dominating the reference (strictly better for at least one
    player).  grid = 0 yields an empty sweep.
    """
    tm = totally_mixed_nash(game)
    if isinstance(tm, MixedProfile):
        ref_point = tm.segre()
        ref_kind = "totally-mixed"
    else:
        pures = pure_nash(game)
        if len(pures) != 1:
            raise DomainError(
                "no reference Nash equilibrium: no totally mixed one and "
                f"{len(pures)} pure ones")
        i, j = pures[0]
        cells = [Fraction(0)] * 4
        cells[(i - 1) * 2 + (j - 1)] = Fraction(1)
        ref_point = JointDistribution(*cells)
        ref_kind = f"pure ({i},{j})"
    ref1, ref2 = expected_payoffs(game, ref_point)

    pts = sample_curve_points(game, grid, seed=seed)
    sampled, dominating = [], []
    if pts:  # an empty sweep converts nothing, so payoffs past the float range pass
        # each entry X / scale rounded once, as float() of its Fraction
        (a11, a12, a21, a22), (b11, b12, b21, b22) = (
            [x / scale for x in X] for scale, X in game.cleared)
        r1, r2 = float(ref1), float(ref2)
    for p in pts:
        p11, p12, p21, p22 = p
        # added left to right from 0, as `sum` adds floats up to Python 3.11;
        # later versions compensate, and the bytes would depend on the version
        pi1 = 0 + a11 * p11 + a12 * p12 + a21 * p21 + a22 * p22
        pi2 = 0 + b11 * p11 + b12 * p12 + b21 * p21 + b22 * p22
        rec = {"point": p, "payoffs": [pi1, pi2]}
        sampled.append(rec)
        if pi1 >= r1 and pi2 >= r2 and (pi1 > r1 or pi2 > r2):
            dominating.append(rec)
    return {
        "numeric": True,
        "seed": seed,
        "grid": grid,
        "reference": {
            "kind": ref_kind,
            "point": ref_point.to_json(),
            "payoffs": [rat_str(ref1), rat_str(ref2)],
        },
        "points": sampled,
        "dominating": dominating,
    }
