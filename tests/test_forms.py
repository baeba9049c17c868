"""The decomposition's fixed-shape division and product against the generic
route of `formref`: the four-point vanishing test, lex long division and
convolution.  Needs only pytest and hypothesis."""

import pytest
from hypothesis import example, given, settings, strategies as st

from formref import _divide_by_line, _multiply, _vanishes_on_line
from spohncurves import geometry
from spohncurves.geometry import _MONOS, _SWAP, _divide, _line_times
from spohncurves.polynomials import primitive_vector

_BIG = st.integers(-10**12 - 7, 10**12 + 7)
_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), _BIG)
_LINE_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
_QUOTIENT_LENGTH = {10: 6, 6: 3, 3: 1}


def forms(n):
    return st.lists(_ENTRY, min_size=n, max_size=n)


@st.composite
def lines(draw):
    """A primitive integer line whose pivot, its first nonzero entry, is
    x, y or z, with either sign."""
    k = draw(st.integers(0, 2))
    v = ([0] * k + [draw(st.one_of(st.integers(1, 9), st.integers(1, 10**6)))]
         + draw(st.lists(_LINE_ENTRY, min_size=2 - k, max_size=2 - k)))
    v = primitive_vector(v)
    return v if draw(st.booleans()) else tuple(-x for x in v)


@st.composite
def division_cases(draw):
    """(form, line) with 10, 6 or 3 entries: the line times a form, the
    line squared times a form, such a product with one entry moved, another
    line times a form, or any form."""
    n = draw(st.sampled_from((10, 6, 3)))
    line = draw(lines())
    shape = draw(st.sampled_from(("product", "square", "moved", "other line", "any")))
    if shape == "any":
        return draw(forms(n)), line
    if shape == "square" and n > 3:
        rest = draw(forms(_QUOTIENT_LENGTH[_QUOTIENT_LENGTH[n]]))
        return _multiply(line, _multiply(line, rest)), line
    factor = draw(lines()) if shape == "other line" else line
    form = _multiply(factor, draw(forms(_QUOTIENT_LENGTH[n])))
    if shape == "moved":
        i = draw(st.integers(0, n - 1))
        form[i] += draw(st.one_of(st.integers(1, 5), st.integers(-5, -1), _BIG))
    return form, line


_XYZ = [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]  # x y z over _MONOS[3]


@settings(max_examples=600, deadline=None)
@given(division_cases())
@example((_XYZ, (1, 0, 0)))
@example((_XYZ, (0, 1, 0)))
@example((_XYZ, (0, 0, 1)))
@example((_multiply((0, 1, -2), _multiply((0, 1, -2), (1, 0, 0))), (0, 1, -2)))   # x (y - 2z)^2
@example((_multiply((2, 0, 3), _multiply((2, 0, 3), (0, 0, 1))), (2, 0, 3)))      # z (2x + 3z)^2
@example((_multiply((0, 0, 1), _multiply((0, 0, 1), (0, 0, 1))), (0, 0, 1)))      # z^3
@example((_multiply((0, 3, 2), [0, 0, 5, 0, 0, 7]), (0, 3, 2)))
@example(([0, 0, 0, 0, 0, 1, 0, 0, 0, 1], (0, 0, 1)))                           # z^2 (x + z)
def test_division_is_the_oracles_quotient_or_none(case):
    """`_divide` returns the long division's quotient when the four-point
    test says the line divides the form, and None otherwise: forms with
    ~10^12 entries, lines with each pivot and either sign, double lines,
    coordinate lines, and products with one entry moved."""
    form, line = case
    quotient = _divide(form, line)
    if _vanishes_on_line(form, line):
        assert quotient == tuple(_divide_by_line(form, line))
        assert _line_times(line, quotient) == list(form)
    else:
        assert quotient is None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((6, 3, 1)).flatmap(forms),
       lines().filter(lambda v: v[0] >= 2 or not v[0] and v[1] >= 2))
def test_each_remainder_and_equation_is_a_witness(quotient, line):
    """Moving any one entry of line * q up by 1 leaves a form the line does
    not divide (it would divide a monomial, but it has two nonzero entries),
    and `_divide` says so.  With the pivot at least 2, the move leaves every
    quotient entry as it was: at a monomial with the pivot variable its
    remainder is the only witness, at one without it its equation."""
    form = _multiply(line, quotient)
    assert _divide(form, line) == tuple(quotient)
    for i in range(len(form)):
        moved = list(form)
        moved[i] += 1
        assert _divide(moved, line) is None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((6, 3, 1)).flatmap(forms), lines())
@example([0, 0, 0, 0, 0, 0], (1, 0, 0))
@example([1, 0, 0, 0, 0, 0], (0, 0, 1))
def test_closed_form_product_is_the_convolution(form, line):
    """line * form in closed form is the convolution of the two vectors, for
    a conic, a line and a constant."""
    assert _line_times(line, form) == _multiply(line, form)


def test_swap_moves_each_monomial():
    """Entry n of a form permuted by `_SWAP[len(form)][k]` is the entry of
    the monomial with the exponents of x and x_k exchanged, so the permuted
    form is the form with x and x_k exchanged."""
    for monos in _MONOS:
        for k in range(3):
            for n, e in enumerate(monos):
                e = list(e)
                e[0], e[k] = e[k], e[0]
                assert monos[_SWAP[len(monos)][k][n]] == tuple(e)


def test_a_wrong_component_fails_the_reconstruction(monkeypatch):
    """The product check of `decompose_cubic` is live: x (y^2 - z^2), the
    cubic of the game A = [[1, 0], [0, 1]], B = [[0, 1], [1, 0]], with its
    conic split into the wrong lines y and z is an internal error."""
    cubic = geometry.SpohnCubic(1, (0, 0, 1, -1, 0, 0, 0))
    assert [c.ints for c in geometry.decompose_cubic(cubic).components] == [
        (1, 0, 0), (0, 1, -1), (0, 1, 1)]
    monkeypatch.setattr(geometry, "_split_conic", lambda N: ((0, 1, 0), (0, 0, 1)))
    with pytest.raises(AssertionError, match="^component product does not reproduce the cubic$"):
        geometry.decompose_cubic(cubic)
