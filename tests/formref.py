"""The generic route on ternary forms, the oracle of `geometry._divide` and
`geometry._line_times`: a four-point vanishing test (`_vanishes_on_line`), lex
long division (`_divide_by_line`) and convolution (`_multiply`), each
independent of the fixed expressions it checks.  A form of degree d is an
integer vector over `geometry._MONOS[d]`.  Needs only the standard library.
"""

from spohncurves.geometry import _DEGREE, _MONOS

_INDEX = tuple({e: n for n, e in enumerate(monos)} for monos in _MONOS)


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
    Each value is one `_HORNER` expression on integers.
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
    that of x_k.  By Gauss's lemma the quotient has integer coefficients."""
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
