import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spohncurves.polynomials import (
    DomainError,
    MultiPoly,
    clear_denominators,
    contfrac_approx,
    cross_product,
    exact_root,
    is_nth_power_ratio,
    parse_rational,
    point_json,
    primitive_vector,
    rat,
    rat_str,
    terms_from_json,
    terms_json,
)

F = Fraction
XYZ = ("x", "y", "z")


def P(terms, vars=XYZ):
    return MultiPoly(vars, {e: rat(c) for e, c in terms.items()})


# --- rationals ---------------------------------------------------------------

def test_rat_accepts_ints_strings_fractions():
    assert rat(3) == F(3)
    assert rat("-7/2") == F(-7, 2)
    assert rat("0.125") == F(1, 8)
    assert rat(F(4, 6)) == F(2, 3)


def test_rat_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("seven")


def test_decimal_exponent_is_bounded_by_twice_the_digit_limit():
    bound = 2 * sys.get_int_max_str_digits()
    for ok in (f"1e{bound}", f"-2.5E-{bound}", f"3e+{bound}", " 7e1 "):
        assert rat(ok) == Fraction(ok.strip())
    assert contfrac_approx(f"1e-{bound}", 1) == 0
    for bad in (f"1e{bound + 1}", f"-2.5E-{bound + 1}", "1e10000000", "1e1_000_000"):
        with pytest.raises(ValueError, match=f"^cannot parse rational from {bad!r}: its "
                           f"decimal exponent exceeds {bound} in magnitude"):
            rat(bad)
        with pytest.raises(ValueError, match=f"^cannot parse decimal value {bad!r}: .*{bound}"):
            contfrac_approx(bad, 3)
    # an "e" with no integer after it, or text that is no number whatever
    # its exponent, is refused by the grammar, not for its exponent
    for junk in ("1e", "e5", "1e5e5", "one", f"e{bound + 1}", f"xe{bound + 1}",
                 f"1/2e{bound + 1}", f"1e {bound + 1}", f"1e5e{bound + 1}", "e9000"):
        with pytest.raises(ValueError, match=f"^cannot parse rational from {junk!r}$"):
            rat(junk)


# The grammar's string forms: sign, "n/d", decimals, exponents within the bound,
# single underscores between digits, surrounding whitespace, any decimal digits
_DIGIT = st.sampled_from("0123456789" "\u0661\u0662\u0669" "\uff10\uff17" "\u09e8")
_RUN = st.lists(st.text(_DIGIT, min_size=1, max_size=4), min_size=1, max_size=3).map("_".join)
_SPACE = st.sampled_from(["", "", " ", "\t", "\n ", "\u3000"])
_SIGN = st.sampled_from(["", "-", "+"])
_EXP = st.builds("{}{}{}".format, st.sampled_from("eE"), _SIGN, st.integers(0, 400))
_BODY = st.one_of(
    _RUN,
    st.builds("{}/{}".format, _RUN, _RUN),
    st.builds("{}.{}{}".format, _RUN, _RUN | st.just(""), _EXP | st.just("")),
    st.builds(".{}{}".format, _RUN, _EXP | st.just("")),
    st.builds("{}{}".format, _RUN, _EXP))
_FORMS = st.builds("{}{}{}{}".format, _SPACE, _SIGN, _BODY, _SPACE)
_NEAR_MISSES = ["1__0", "1/-2", "3 /4", "1/0", "--1", "1.d", "", "_1", "1_", "+-1", "1/2/3",
                "1 2", ".", "e5", "1e", "0x10", "1_/2", "1/_2", "\u0661\u0662\u00b2", "nan", "inf"]
_JUNK = st.text(st.sampled_from("01\u0661_-+/.eE x\t"), max_size=8)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_FORMS, st.sampled_from(_NEAR_MISSES), _JUNK))
@example("\u0661\u0662")
@example(" 1_0 ")
@example("-3/6")
def test_parse_rational_reads_what_fraction_reads(text):
    """On the grammar's forms, near-misses and junk, parse_rational gives
    the numerator and denominator that `_grammar_fraction` reads, or both
    refuse; rat keeps its message."""
    _assert_reads_as_the_grammar(text)


# "n/d" and its near misses: the text that parse_rational reads with int alone
_SLASH_CHARS = st.sampled_from(list("0123456789" * 3) + list("//+-_.e ") +
                               ["\t", "\u0663", "\u00b2", "\u2212"])
_SLASHED = st.builds("{}{}{}/{}{}".format, _SPACE, _SIGN, st.integers(0, 10**30),
                     st.integers(0, 10**30), _SPACE)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(_SLASH_CHARS, max_size=9), _SLASHED))
@example("-6/4")
@example("+0/7")
@example("\u0663/\u0666")
@example("5/0")
@example("-/2")
@example("+-1/2")
@example("1/" + "1" * 5000)
@example("e9000")
@example("1/2e9000")
@example(" -1e9000 ")
def test_parse_rational_reads_slashed_text_as_fraction_does(text):
    """Digits, "/", signs, "_", ".", "e", whitespace, a non-ASCII digit, a
    superscript and a minus sign: parse_rational reads what
    `_grammar_fraction` reads, to the same pair, and refuses the rest with
    rat's message, also past the int-to-string digit limit and the exponent
    bound."""
    _assert_reads_as_the_grammar(text)


@pytest.mark.parametrize("text, expected", [
    ("1 / 2", None), ("3 /4", None), ("1/ 2", None),  # read by Fraction from 3.12 on
    ("1_000/3", (1000, 3)), ("1_0", (10, 1)), ("1.5e1_0", (15000000000, 1)),  # from 3.11 on
    ("1e1_000_000", "its decimal exponent exceeds"),  # no number to 3.10's Fraction
])
def test_forms_that_fraction_reads_by_version_read_the_same_everywhere(text, expected):
    """Forms that `Fraction` reads differently on Python 3.10 to 3.13 get one
    reading: spaces around "/" are refused, underscores between digits are
    read, and an exponent past the bound is refused for it."""
    if isinstance(expected, tuple):
        assert parse_rational(text) == expected
    else:
        reason = f": {expected}" if expected else "$"
        with pytest.raises(ValueError, match=f"^cannot parse rational from {re.escape(repr(text))}{reason}"):
            parse_rational(text)


def _grammar_fraction(text):
    """`text` as a Fraction in Python 3.11's `Fraction` grammar, or None if
    that grammar refuses it; the running Python's `Fraction` is asked only
    where its grammar is the same on 3.10 to 3.13.  Text with an underscore
    that is not between two digits, or with whitespace next to "/", is
    refused here; the other underscores are dropped before `Fraction` reads
    the text."""
    if re.search(r"(?<!\d)_|_(?!\d)|\s/|/\s", text):
        return None
    try:
        return Fraction(text.replace("_", ""))
    except (ValueError, ZeroDivisionError):
        return None


def _assert_reads_as_the_grammar(text):
    """parse_rational and rat read `text` as `_grammar_fraction` does, or
    refuse it with rat's message.  Text whose integer after its last "e" or
    "E" passes the exponent bound is refused before it is read: for the bound
    if the text is a number once that integer is made 0, and with the plain
    message if it is no number whatever its exponent."""
    head, e, exponent = text.replace("E", "e").rpartition("e")
    try:
        beyond = bool(e) and abs(int(exponent)) > 2 * sys.get_int_max_str_digits()
    except ValueError:
        beyond = False
    q = _grammar_fraction(text[:len(head) + 1] + re.sub(r"\d", "0", exponent) if beyond else text)
    if q is None or beyond:
        reason = ": its decimal exponent exceeds" if q is not None else "$"
        message = f"^cannot parse rational from {re.escape(repr(text))}{reason}"
        with pytest.raises(ValueError, match=message):
            parse_rational(text)
        with pytest.raises(ValueError, match=message):
            rat(text)
    else:
        n, d = parse_rational(text)
        assert (n, d) == (q.numerator, q.denominator)
        assert type(n) is int and type(d) is int
        assert rat(text) == q


def test_parse_rational_of_numbers():
    assert parse_rational(-4) == (-4, 1)
    assert parse_rational(F(6, -4)) == (-3, 2)
    half = F(1, 2)
    assert rat(half) is half
    for bad in (0.5, True, None, [1]):
        with pytest.raises(TypeError, match="^expected int, str or Fraction, got "):
            parse_rational(bad)


def test_rat_str_is_reduced():
    assert rat_str(F(4, 6)) == "2/3"
    assert rat_str(F(-8, 2)) == "-4"
    assert rat_str(F(0)) == "0"
    assert rat_str(-12) == "-12"


# 0, or a decimal shift that takes a part around Python's int-to-string digit
# limit (4300 digits by default)
_SHIFT = st.one_of(st.just(0), st.integers(4290, 4310))


@settings(max_examples=200, deadline=None)
@given(st.fractions(), _SHIFT, _SHIFT)
@example(F(1), 4300, 0)
@example(F(1), 0, 4299)
def test_rat_str_is_str_of_the_fraction(q, shift_n, shift_d):
    """`rat_str` prints what `str` prints of a Fraction; a part beyond the
    digit limit, on which `str` fails, is a DomainError naming the limit.
    The large Fraction is built inside, since its repr fails too."""
    q = F(q.numerator * 10 ** shift_n + (shift_n > 0),
          q.denominator * 10 ** shift_d + (shift_d > 0))
    try:
        expected = str(q)
    except ValueError:
        with pytest.raises(DomainError, match=f"more than {sys.get_int_max_str_digits()} "):
            rat_str(q)
    else:
        assert rat_str(q) == expected


def test_rational_power_tests():
    assert is_nth_power_ratio(9, 4, 2)
    assert is_nth_power_ratio(0, 1, 2)
    assert not is_nth_power_ratio(5, 1, 2)
    assert not is_nth_power_ratio(-4, 1, 2)
    assert is_nth_power_ratio(64, 1, 6)
    assert is_nth_power_ratio(-27, 8, 3)
    assert not is_nth_power_ratio(-16, 1, 4)
    assert not is_nth_power_ratio(2, 1, 6)
    # not in lowest terms, and a negative denominator
    assert is_nth_power_ratio(18, 8, 2) and is_nth_power_ratio(27, -8, 3)
    assert not is_nth_power_ratio(9, -4, 2)
    # large exact case: (123/457)^4
    q = F(123, 457) ** 4
    assert is_nth_power_ratio(q.numerator, q.denominator, 4)
    assert not is_nth_power_ratio(q.numerator + q.denominator, q.denominator, 4)
    assert exact_root(9, 2) == 3
    assert exact_root(0, 2) == 0
    assert exact_root(10**24 + 2 * 10**12 + 1, 2) == 10**12 + 1
    assert exact_root(5, 2) is None
    assert exact_root(-4, 2) is None
    assert exact_root(10**24 + 1, 2) is None


def test_exact_root_finds_exact_powers_and_nothing_else():
    """r^k has the root r, and its neighbours r^k + 1 (r >= 1) and r^k - 1
    (r >= 2) have none, for k = 2..6 and r from 0 up to 2^400: the isqrt
    route (k = 2) and the Newton route (k >= 3) alike.  Standard library
    only, so it runs wherever this file runs."""
    rng = random.Random(4001)
    roots = list(range(40)) + [2**b + d for b in (31, 32, 63, 64, 200, 399) for d in (-1, 0, 1)]
    roots += [rng.randrange(2**rng.randint(1, 400)) for _ in range(200)] + [2**400]
    for k in range(2, 7):
        for r in roots:
            n = r**k
            assert exact_root(n, k) == r, (r, k)
            if r >= 1:
                assert exact_root(n + 1, k) is None, (r, k)
            if r >= 2:
                assert exact_root(n - 1, k) is None, (r, k)
        assert exact_root(0, k) == 0 and exact_root(1, k) == 1
        for n in (-1, -2, -(2**k), -(3**k), -(10**100)):
            assert exact_root(n, k) is None, (n, k)


# --- MultiPoly ----------------------------------------------------------------

def test_zero_terms_are_dropped():
    p = P({(1, 0, 0): 1, (0, 1, 0): 0})
    assert (0, 1, 0) not in p.terms
    assert not p.is_zero()
    assert P({}).is_zero()
    assert P({}).degree() == -1


def test_constructor_sums_repeated_exponents():
    """A list of terms may repeat an exponent: the repeats are summed, and a
    sum of zero drops the term, even when the exponent comes back later."""
    p = MultiPoly(XYZ, [((1, 0, 0), 2), ((0, 1, 0), "1/3"), ((1, 0, 0), F(1, 2))])
    assert p.terms == {(1, 0, 0): F(5, 2), (0, 1, 0): F(1, 3)}
    assert all(type(c) is Fraction for c in p.terms.values())
    cancel = [((0, 0, 1), F(3, 4)), ((2, 0, 0), 1), ((0, 0, 1), "-3/4")]
    assert MultiPoly(XYZ, cancel).terms == {(2, 0, 0): 1}
    assert MultiPoly(XYZ, cancel[:1] + cancel[2:]).is_zero()
    again = MultiPoly(XYZ, cancel + [((0, 0, 1), 5)])
    assert again.terms == {(2, 0, 0): 1, (0, 0, 1): 5}
    assert all(type(c) is Fraction for c in again.terms.values())
    assert MultiPoly(XYZ, [([1.0, 0, True], 7)]).terms == {(1, 0, 1): 7}  # int(e)
    with pytest.raises(ValueError, match=r"^exponent tuple length != number of variables$"):
        MultiPoly(XYZ, [((1, 0), 1)])
    with pytest.raises(ValueError, match="^negative exponent$"):
        MultiPoly(XYZ, [((1, -1, 3), 1)])


def test_arithmetic_matches_direct_evaluation():
    rng = random.Random(7311)
    for _ in range(25):
        p = P({tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-4, 4)
               for _ in range(4)})
        q = P({tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-4, 4)
               for _ in range(4)})
        pt = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p ** 2).evaluate(pt) == p.evaluate(pt) ** 2


def test_homogeneity_and_coefficient():
    cubic = P({(2, 1, 0): 5, (1, 1, 1): -2, (0, 0, 3): 1})
    assert cubic.degree() == 3
    assert cubic.is_homogeneous()
    assert cubic.coefficient((1, 1, 1)) == -2
    assert cubic.coefficient((3, 0, 0)) == 0
    assert not (cubic + P({(1, 0, 0): 1})).is_homogeneous()


def test_json_round_trip_and_term_order():
    p = P({(0, 0, 2): 3, (2, 0, 0): F(1, 2), (1, 1, 0): -1})
    data = p.to_json()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps, reverse=True)
    variables, terms = terms_from_json(data)
    assert MultiPoly(variables, [(e, F(n, d)) for e, n, d in terms]) == p


def test_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        terms_from_json({"vars": ["x"], "terms": [{"exp": [1, 2], "coef": "1"}]})
    with pytest.raises(ValueError):
        terms_from_json({"terms": []})


def test_partial_and_gradient():
    p = P({(2, 1, 0): 3, (0, 0, 2): 1})  # 3x^2 y + z^2
    assert p.partial("x") == P({(1, 1, 0): 6})
    assert p.partial("y") == P({(2, 0, 0): 3})
    assert p.gradient_at((1, 2, -1)) == (12, 3, -2)


def test_substitute_matrix_composition():
    rng = random.Random(3391)
    p = P({(2, 1, 0): 1, (1, 0, 2): -3, (0, 3, 0): 2})
    for _ in range(10):
        M = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        N = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        MN = [[sum(M[i][k] * N[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        assert p.substitute_matrix(M).substitute_matrix(N) == p.substitute_matrix(MN)


def test_restrict_to_line_agrees_with_parametrization():
    rng = random.Random(515)
    p = P({(2, 1, 0): 2, (1, 1, 1): -1, (0, 0, 3): 5})
    p1, p2 = (1, 0, 2), (0, 1, -1)
    g = p.restrict_to_line(p1, p2)
    assert g.vars == ("s", "t")
    for _ in range(8):
        s, t = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        pt = tuple(s * a + t * b for a, b in zip(p1, p2))
        assert g.evaluate((s, t)) == p.evaluate(pt)
    with pytest.raises(DomainError):
        p.restrict_to_line((1, 2, 3), (2, 4, 6))


def test_substitution_errors_and_their_order():
    """Each substitution reads and sizes its input before it fails: p1 is
    read and sized before p2 is read, a zero or repeated point is a
    DomainError, and a matrix that is not n x n is refused."""
    p = P({(2, 1, 0): 2, (1, 1, 1): -1, (0, 0, 3): 5})
    with pytest.raises(ValueError, match="^point has wrong dimension$"):
        p.restrict_to_line((1, 2), ("junk", 0, 1))
    with pytest.raises(ValueError, match="^point has wrong dimension$"):
        p.restrict_to_line((1, 2, 3), (0, 1))
    with pytest.raises(ValueError, match="cannot parse rational"):
        p.restrict_to_line((1, 2, 3), ("junk", 0, 1))
    distinct = "^restrict_to_line needs two distinct projective points$"
    for p1, p2 in [((0, 0, 0), (1, 2, 3)), ((1, 2, 3), (0, 0, 0)),
                   ((1, 2, 3), ("-1/2", -1, "-3/2"))]:
        with pytest.raises(DomainError, match=distinct):
            p.restrict_to_line(p1, p2)
    # distinct points whose first two coordinates are proportional
    g = p.restrict_to_line((1, 0, 0), (2, 0, 1))
    assert g.evaluate((1, 1)) == p.evaluate((3, 0, 1))
    with pytest.raises(ValueError, match=r"^matrix must be square of size len\(vars\)$"):
        p.substitute_matrix([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError, match=r"^matrix must be square of size len\(vars\)$"):
        p.substitute_matrix([[1, 0, 0], [0, 1, 0]])


def test_divide_by_linear_exact_and_failing():
    lin = P({(1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 1): -1})
    quad = P({(2, 0, 0): 1, (0, 1, 1): 4, (0, 0, 2): -2})
    prod = lin * quad
    assert prod.divide_by_linear(lin) == quad
    with pytest.raises(ValueError):
        (prod + P({(0, 0, 2): 1})).divide_by_linear(lin)


# --- projective points ---------------------------------------------------------

def test_primitive_vector_is_one_representative_per_point():
    assert primitive_vector(clear_denominators((0, F(3, 4), F(9, 2)))[1]) == (0, 1, 6)
    assert primitive_vector(clear_denominators((0, F(1, 2), F(1, 4)))[1]) == (0, 2, 1)
    assert primitive_vector((2, 4, -6)) == primitive_vector((-1, -2, 3)) == (1, 2, -3)


_COORD = st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12),
                   st.fractions(max_denominator=10**12).filter(lambda q: abs(q) <= 10**12))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_COORD, min_size=3, max_size=3),
                 st.lists(_COORD, min_size=4, max_size=4)).filter(any))
@example([0, F(3, 4), F(9, 2)])
@example([-2, 4, 0, -6])
def test_point_json_of_the_primitive_vector_is_the_scaled_point(v):
    """A point prints as its coordinates over the first nonzero one, from
    the primitive integer vector alone: the bytes do not depend on which
    rational multiple of the point was given."""
    lead = F(next(c for c in v if c))
    assert point_json(primitive_vector(clear_denominators(v)[1])) == \
        [rat_str(c / lead) for c in v]


def test_clear_denominators():
    assert clear_denominators((3, -4, 0)) == (1, (3, -4, 0))
    assert clear_denominators((0, 0)) == (1, (0, 0))
    assert clear_denominators((F(-1, 6), F(3, 4), 2, 0)) == (12, (-2, 9, 24, 0))
    assert clear_denominators([F(5, 7)]) == (7, (5,))
    big = 10 ** 39 + 7  # a 40-digit denominator, coprime to 3
    lcm, ints = clear_denominators((F(1, big), F(-2, 3)))
    assert (lcm, ints) == (3 * big, (3, -2 * big))
    assert all(type(x) is int for x in ints)


def test_cross_product_orthogonality():
    u, v = (1, 2, 3), (-2, 0, 5)
    w = cross_product(u, v)
    assert sum(a * b for a, b in zip(w, u)) == 0
    assert sum(a * b for a, b in zip(w, v)) == 0


_TERM_PARTS = st.tuples(st.one_of(st.integers(-9, 9), st.integers(-10**12, 10**12)),
                        st.one_of(st.just(1), st.integers(-10**12, 10**12).filter(bool)))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), _TERM_PARTS, max_size=10))
@example({(2, 0, 0, 0): (0, 1), (1, 1, 0, 0): (6, -4), (0, 0, 0, 2): (10**12, 1)})
def test_terms_json_prints_the_bytes_of_multipoly_to_json(parts):
    """`terms_json` of (exponent, n, d) triples in descending order, zero
    terms and unreduced or negative d included, gives the bytes that
    `MultiPoly.to_json` gives of the same polynomial."""
    variables = ("x", "y", "z", "t")
    terms = [(e, n, d) for e, (n, d) in sorted(parts.items(), reverse=True)]
    expected = MultiPoly(variables, [(e, F(n, d)) for e, n, d in terms]).to_json()
    assert json.dumps(terms_json(variables, terms)) == json.dumps(expected)
    assert terms_from_json(terms_json(variables, terms)) == (
        list(variables), [(e, *parse_rational(F(n, d))) for e, n, d in terms if n])


# --- continued fractions -------------------------------------------------------

def test_of_rational_classic_example():
    """415/93 = [4; 2, 6, 7]: the partial quotients, read back from the
    numerators of the convergents (p_k = a_k p_{k-1} + p_{k-2}), and the
    value, reached at the fourth quotient and not before."""
    p = [contfrac_approx("415/93", k).numerator for k in range(1, 5)]
    quotients = [p[0]] + [(p[k] - (p[k - 2] if k > 1 else 1)) // p[k - 1]
                          for k in range(1, 4)]
    assert quotients == [4, 2, 6, 7]
    assert contfrac_approx("415/93", 3) != F(415, 93)
    assert contfrac_approx("415/93", 4) == contfrac_approx("415/93", 50) == F(415, 93)


def test_convergents_recurrence():
    """415/93 = [4; 2, 6, 7]: its k-th convergents by the recurrence, and
    the value itself once k reaches the length of the expansion."""
    assert [contfrac_approx("415/93", k) for k in range(1, 5)] == \
        [F(4), F(9, 2), F(58, 13), F(415, 93)]
    assert contfrac_approx("415/93", 9) == F(415, 93)


def test_truncation_is_a_prefix():
    """The k-th convergent is the value of the first k partial quotients of
    the full canonical expansion, here found by Euclid on Fractions."""
    for x, quotients in ((F(415, 93), [4, 2, 6, 7]),
                         (F(103993, 33102), [3, 7, 15, 1, 292]),
                         (F(-7, 2), [-4, 2])):
        full, y = [], x
        while True:
            full.append(y.numerator // y.denominator)
            if y == full[-1]:
                break
            y = 1 / (y - full[-1])
        assert full == quotients
        for k in range(1, len(full) + 1):
            value = F(full[k - 1])
            for a in reversed(full[:k - 1]):
                value = a + 1 / value
            assert contfrac_approx(rat_str(x), k) == value


def test_negative_and_integer_values():
    assert contfrac_approx("7", 1) == contfrac_approx("7", 5) == F(7)
    assert contfrac_approx("-7/2", 1) == F(-4)  # floor(-3.5)
    assert contfrac_approx("-7/2", 2) == F(-7, 2)


def test_contfrac_approx_pi_convergents():
    pi = "3.14159265358979323846"
    assert [contfrac_approx(pi, k) for k in range(1, 5)] == \
        [F(3), F(22, 7), F(333, 106), F(355, 113)]


def test_contfrac_approx_zeta3_goldens():
    z3 = "1.202056903159594285399738161511"
    assert rat_str(contfrac_approx(z3, 15)) == "1479821/1231074"
    assert rat_str(contfrac_approx(z3, 20)) == "461424925/383862797"


def test_contfrac_approx_errors():
    with pytest.raises(DomainError):
        contfrac_approx("1.5", 0)
    with pytest.raises(ValueError):
        contfrac_approx("not a number", 3)
