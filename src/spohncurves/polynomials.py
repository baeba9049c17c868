"""Exact rational building blocks.

Sparse multivariate polynomials over Q, projective points, continued
fractions, and a handful of integer-root utilities.  Everything here is
exact: coefficients are `fractions.Fraction`, no floats ever enter.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence


class DomainError(ValueError):
    """A mathematical precondition was violated (degenerate or invalid input)."""


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

# The grammar of a rational string, the same on every Python: Python 3.11's
# `Fraction` grammar, its decimal part spelled "\d*" as from 3.13 on, without
# the spaces around "/" that 3.12 reads.
_RATIONAL = re.compile(r"""
    \s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)
    (?:/(?P<den>\d+(?:_\d+)*)
     | (?:\.(?P<decimal>\d*|\d+(?:_\d+)*))?(?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)
    \s*""", re.VERBOSE)


def parse_rational(value) -> tuple:
    """(n, d) with d > 0 in lowest terms, of an int, a Fraction or a string
    such as "3", "-5/7", "1.25" or "2e-3": the one place where text becomes
    a number.  A string is read in the grammar `_RATIONAL`, each digit run
    by `int`; an integer string is read by `int` alone, and so is each side
    of "n/d" of decimal digits after surrounding whitespace, n with at most
    one sign.  ValueError "cannot parse rational from ..." if the grammar
    refuses the text, d is 0, a digit run is longer than Python's
    int-to-string digit limit (`sys.get_int_max_str_digits`, 4300 by
    default), or the exponent exceeds twice that limit in magnitude (no
    bound if the limit is 0), checked before 10^exponent is formed.  Floats
    are rejected (TypeError): they carry binary rounding noise and this
    library is exact.  Bools are rejected too, although Python counts them
    as ints: a JSON true is not 1.
    """
    if isinstance(value, str):
        try:
            return int(value), 1
        except ValueError:
            pass
        num, slash, den = value.strip().partition("/")
        sign = decimal = exp = None
        # n after at most one sign; "".isdecimal() is False, so "/2" goes to the grammar
        if not (slash and den.isdecimal() and (num[1:] if num[:1] in "+-" else num).isdecimal()):
            m = _RATIONAL.fullmatch(value)
            if m is None:
                raise ValueError(f"cannot parse rational from {value!r}")
            sign, num, den, decimal, exp = m.groups()
        try:
            n, d, e = int(num or "0"), int(den or "1"), int(exp or "0")
            if decimal:
                scale = 10 ** len(decimal.replace("_", ""))
                n, d = n * scale + int(decimal), scale
        except ValueError:  # a digit run longer than int reads
            d = e = 0
        if e:
            limit = sys.get_int_max_str_digits()
            if limit and abs(e) > 2 * limit:
                raise ValueError(f"cannot parse rational from {value!r}: its decimal exponent exceeds "
                                 f"{2 * limit} in magnitude, twice Python's int-to-string digit limit")
            if e > 0:
                n *= 10 ** e
            else:
                d *= 10 ** -e
        if not d:
            raise ValueError(f"cannot parse rational from {value!r}")
        g = math.gcd(n, d)
        return (-n if sign == "-" else n) // g, d // g
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value.numerator, value.denominator
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


def rat(value) -> Fraction:
    """`parse_rational`'s value as a Fraction; a Fraction is returned as it is."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*parse_rational(value))


def rat_str(q: Fraction) -> str:
    """Canonical string: "n" for integers, "n/d" otherwise (lowest terms).
    DomainError if a part is longer than Python's process-wide int-to-str
    digit limit (`sys.get_int_max_str_digits`), which is left alone."""
    if type(q) is not Fraction:
        q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise _too_many_digits() from exc


def ratio_str(n: int, d: int) -> str:
    """`rat_str` of n/d for integers n and d != 0: the pair is reduced by
    its gcd, and no Fraction is built."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError as exc:
        raise _too_many_digits() from exc


def _too_many_digits() -> DomainError:
    return DomainError(
        f"the exact answer has more than {sys.get_int_max_str_digits()} decimal "
        "digits, Python's limit for integer-to-string conversion")


def json_list(value, what: str) -> list:
    """`value` if it is a JSON array (a list, as `json` parses one), else
    ValueError naming `what`: a string there would be read character by
    character."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def _int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer Newton iteration."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def is_nth_power_ratio(p: int, q: int, k: int) -> bool:
    """True iff the ratio p/q of two integers, q != 0, is r^k for some
    rational r, decided on the integers: p/q in lowest terms is a k-th power
    iff numerator and denominator are.  For even k the ratio must be
    nonnegative; p = 0 counts as a power."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if p < 0:
        if k % 2 == 0:
            return False
        p = -p
    return _int_nth_root(p, k) ** k == p and _int_nth_root(q, k) ** k == q


def exact_isqrt(n: int) -> int | None:
    """The integer r >= 0 with r^2 = n, or None if n is not a square."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MultiPoly:
    """Sparse multivariate polynomial over Q.

    Terms are stored as a dict mapping exponent tuples to nonzero Fraction
    coefficients.  Instances are immutable by convention: every operation
    returns a new polynomial.  The intended regime is tiny — at most 4
    variables, degree at most 6 — so no effort is spent on asymptotics.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms=None):
        object.__setattr__(self, "vars", tuple(variables))
        n = len(self.vars)
        acc: dict[tuple, Fraction] = {}
        if terms:
            for exp, coef in terms.items() if isinstance(terms, dict) else terms:
                exp = tuple(map(int, exp))
                if len(exp) != n:
                    raise ValueError("exponent tuple length != number of variables")
                if exp and min(exp) < 0:
                    raise ValueError("negative exponent")
                c = coef if isinstance(coef, Fraction) else rat(coef)
                if exp in acc:
                    c += acc.pop(exp)
                if c:
                    acc[exp] = c
        object.__setattr__(self, "terms", acc)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c) -> "MultiPoly":
        v = tuple(variables)
        return cls(v, {(0,) * len(v): rat(c)})

    @classmethod
    def variable(cls, variables, name) -> "MultiPoly":
        v = tuple(variables)
        exp = [0] * len(v)
        exp[v.index(name)] = 1
        return cls(v, {tuple(exp): Fraction(1)})

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": rat_str(c)}
                for e, c in sorted(self.terms.items(), reverse=True)
            ],
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exp, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                (v if e == 1 else f"{v}^{e}")
                for v, e in zip(self.vars, exp) if e
            )
            if not mono:
                piece = rat_str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{rat_str(c)}*{mono}"
            bits.append(piece)
        out = bits[0]
        for piece in bits[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, str, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        self._check_same_vars(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, acc)

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, str, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, str, Fraction)):
            q = rat(other)
            return MultiPoly(self.vars, {e: c * q for e, c in self.terms.items()})
        self._check_same_vars(other)
        acc: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation and calculus --------------------------------------------

    def evaluate(self, values) -> Fraction:
        vals = [rat(v) for v in values]
        if len(vals) != len(self.vars):
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(vals, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def partial(self, var) -> "MultiPoly":
        """Partial derivative with respect to a variable (by name or index)."""
        k = var if isinstance(var, int) else self.vars.index(var)
        acc = {}
        for exp, c in self.terms.items():
            if exp[k] == 0:
                continue
            e = list(exp)
            e[k] -= 1
            acc[tuple(e)] = c * exp[k]
        return MultiPoly(self.vars, acc)

    def gradient_at(self, point) -> tuple:
        return tuple(self.partial(k).evaluate(point) for k in range(len(self.vars)))

    # -- substitution --------------------------------------------------------

    def substitute_matrix(self, matrix) -> "MultiPoly":
        """Linear change of coordinates: returns g with g(w) = f(M w).

        `matrix` is a square list-of-lists of rationals, one row per old
        variable; the new polynomial lives in the same variable names.
        """
        n = len(self.vars)
        rows = [[rat(x) for x in row] for row in matrix]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square of size len(vars)")
        repl = [
            MultiPoly(self.vars, {tuple(1 if j == jj else 0 for jj in range(n)): rows[i][j]
                                  for j in range(n) if rows[i][j] != 0})
            for i in range(n)
        ]
        out = MultiPoly.zero(self.vars)
        for exp, c in self.terms.items():
            term = MultiPoly.constant(self.vars, c)
            for i, e in enumerate(exp):
                if e:
                    term = term * repl[i] ** e
            out = out + term
        return out

    def restrict_to_line(self, p1, p2) -> "MultiPoly":
        """Restrict to the projective line through p1 and p2.

        Returns the binary form f(s*p1 + t*p2) in variables (s, t).  The two
        points must be projectively distinct.
        """
        a = _point_coords(p1, len(self.vars))
        b = _point_coords(p2, len(self.vars))
        if _proportional(a, b):
            raise DomainError("restrict_to_line needs two distinct projective points")
        st = ("s", "t")
        out = MultiPoly.zero(st)
        s = MultiPoly.variable(st, "s")
        t = MultiPoly.variable(st, "t")
        lines = [s * ai + t * bi for ai, bi in zip(a, b)]
        for exp, c in self.terms.items():
            term = MultiPoly.constant(st, c)
            for lin, e in zip(lines, exp):
                if e:
                    term = term * lin ** e
            out = out + term
        return out

    # -- exact division by a linear form --------------------------------------

    def divide_by_linear(self, linear: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / linear; raises ValueError if not divisible.

        The quotient is verified by multiplying back, so a successful return
        is a proof of divisibility.
        """
        self._check_same_vars(linear)
        if linear.is_zero() or linear.degree() != 1:
            raise ValueError("divisor must have degree exactly 1")
        # plain multivariate long division in lex order; the divisor is a
        # single linear form so the loop is tiny
        lead_exp = max(linear.terms)
        lead_coef = linear.terms[lead_exp]
        rem = self
        quo = MultiPoly.zero(self.vars)
        while not rem.is_zero():
            exp = max(rem.terms)
            if all(a >= b for a, b in zip(exp, lead_exp)):
                qexp = tuple(a - b for a, b in zip(exp, lead_exp))
                qc = rem.terms[exp] / lead_coef
                qterm = MultiPoly(self.vars, {qexp: qc})
                quo = quo + qterm
                rem = rem - qterm * linear
            else:
                raise ValueError("linear form does not divide the polynomial")
        if quo * linear != self:
            raise ValueError("division check failed")  # pragma: no cover
        return quo


def terms_from_json(obj) -> tuple:
    """(vars, [(exponent, n, d), ...]) of a polynomial in the JSON of
    `MultiPoly.to_json`, coefficients read by `parse_rational`, terms kept as
    written (repeated or zero).  ValueError on the first fault, in this
    order: shape, coefficient, an exponent that is not a JSON integer (1.9,
    "1", true), vars not an array, an exponent of the wrong length or sign."""
    if not isinstance(obj, dict) or "vars" not in obj or "terms" not in obj:
        raise ValueError("polynomial JSON needs 'vars' and 'terms'")
    terms = [(tuple(t["exp"]), *parse_rational(t["coef"])) for t in obj["terms"]]
    if any(type(e) is not int for exp, _, _ in terms for e in exp):
        raise ValueError("polynomial exponents must be JSON integers")
    variables = json_list(obj["vars"], "polynomial vars")
    for exp, _, _ in terms:
        if len(exp) != len(variables):
            raise ValueError("exponent tuple length != number of variables")
        if exp and min(exp) < 0:
            raise ValueError("negative exponent")
    return variables, terms


def _point_coords(p, n: int) -> tuple:
    coords = tuple(rat(c) for c in p)
    if len(coords) != n:
        raise ValueError("point has wrong dimension")
    return coords


def _proportional(a, b) -> bool:
    """True iff the nonzero vectors a, b are parallel."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


# ---------------------------------------------------------------------------
# projective points: primitive integer vectors
# ---------------------------------------------------------------------------

def clear_pairs(pairs) -> tuple:
    """(lcm, ints): the lcm of the denominators of a rational vector given
    as `parse_rational` pairs (n, d), and the vector times it."""
    lcm = math.lcm(*[d for _, d in pairs])
    return lcm, tuple([n * (lcm // d) for n, d in pairs])


def cleared_point(coords) -> tuple:
    """`clear_pairs` of a projective point's coordinates, each read by
    `parse_rational`; ValueError if every coordinate is 0."""
    lcm, P = clear_pairs([parse_rational(c) for c in coords])
    if not any(P):
        raise ValueError("projective point needs a nonzero coordinate")
    return lcm, P


def clear_denominators(v) -> tuple:
    """`clear_pairs` of a vector of ints or Fractions."""
    return clear_pairs([(c.numerator, c.denominator) for c in v])


def primitive_vector(v) -> tuple:
    """The integer multiple of a nonzero rational vector with content 1 and
    first nonzero entry > 0: one representative per projective point.  A
    vector of ints goes straight to their gcd; one holding a Fraction is
    cleared of denominators first (`clear_denominators`)."""
    try:
        g = math.gcd(*v)
    except TypeError:  # math.gcd takes ints only
        v = clear_denominators(v)[1]
        g = math.gcd(*v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def point_json(P) -> list:
    """The JSON of the projective point of a nonzero integer vector P: each
    coordinate over the first nonzero one, printed by `ratio_str`."""
    lead = next(c for c in P if c)
    return [ratio_str(c, lead) for c in P]


def cross_product(a, b) -> tuple:
    """Cross product of two rational 3-vectors (line through two points, etc.).

    Entries are ints or Fractions; integer vectors give an integer result.
    """
    if len(a) != 3 or len(b) != 3:
        raise ValueError("cross product needs 3-vectors")
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------

class ContinuedFraction:
    """Finite continued fraction [a0; a1, a2, ...] of a rational number.

    `of_rational` produces the canonical Euclidean expansion, whose *full*
    form never ends in a trailing quotient 1 (the [..., a-1, 1] variant is
    not used); a truncated expansion is simply a prefix of the canonical one.
    Convergents come from the standard recurrence h_n = a_n h_{n-1} + h_{n-2}.
    """

    def __init__(self, partial_quotients: Iterable[int]):
        pq = [int(a) for a in partial_quotients]
        if not pq:
            raise ValueError("need at least one partial quotient")
        if any(a < 1 for a in pq[1:]):
            raise ValueError("partial quotients after the first must be >= 1")
        self.partial_quotients = pq
        h_prev, h_pprev = 1, 0
        k_prev, k_pprev = 0, 1
        convs = []
        for a in pq:
            h = a * h_prev + h_pprev
            k = a * k_prev + k_pprev
            convs.append(Fraction(h, k))
            h_pprev, h_prev = h_prev, h
            k_pprev, k_prev = k_prev, k
        self.convergents = convs

    @classmethod
    def of_rational(cls, value, max_quotients: int | None = None) -> "ContinuedFraction":
        """Canonical expansion of a rational, optionally truncated."""
        x = rat(value) if not isinstance(value, Fraction) else value
        pq = []
        while True:
            a = x.numerator // x.denominator  # floor
            pq.append(a)
            frac = x - a
            if frac == 0 or (max_quotients is not None and len(pq) >= max_quotients):
                break
            x = 1 / frac
        return cls(pq)

    @property
    def value(self) -> Fraction:
        return self.convergents[-1]


def contfrac_approx(value_str: str, n_convergents: int) -> ContinuedFraction:
    """Approximate a decimal string by the first n convergents of its expansion.

    The string is read by `parse_rational` (a finite decimal is a rational,
    and its exponent is bounded); if the full expansion has fewer than n
    partial quotients the whole expansion is returned.  n_convergents must
    be >= 1.
    """
    if n_convergents < 1:
        raise DomainError("n_convergents must be >= 1")
    text = str(value_str)
    try:
        n, d = parse_rational(text)
    except ValueError as exc:
        # the parser's reason, if it gives one, after its naming of the text
        reason = str(exc)[len(f"cannot parse rational from {text!r}"):]
        raise ValueError(f"cannot parse decimal value {value_str!r}{reason}") from exc
    return ContinuedFraction.of_rational(Fraction(n, d), max_quotients=n_convergents)
