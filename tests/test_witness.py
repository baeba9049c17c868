"""Witness reports against the per-rung route of `witnessref`: the same JSON
bytes for every pure corner under every relabeling (through the kept
pure-corner ladders), both semi-mixed branches, totally mixed equilibria and
cooperation, on small, ~10^12 and non-integer payoffs.  Needs only pytest and
hypothesis."""

import itertools
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from spohncurves import DomainError, MixedProfile, PayoffTables
from spohncurves import games
from spohncurves.games import cooperation_witness, ne_witness_sequence
from witnessref import reference

_POS = st.one_of(st.integers(1, 9), st.integers(10**12 - 9, 10**12 + 9),
                 st.fractions(min_value=F(1, 97), max_value=9, max_denominator=97))
_ENTRY = st.one_of(st.integers(-9, 9), st.integers(-10**12 - 9, 10**12 + 9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=97))
_GAP = st.one_of(st.just(0), _POS)

# the normalized corner (row 2, column 2) templates by case, and their thresholds
_CORNERS = {
    "a11<=a12 and b11<=b21": (3, ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 0), (1, -1, -2, 0))),
    "a11>=a12 and b11>=b21": (3, ((0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 0), (1, -2, -1, 0))),
    "a11<=a12 and b11>=b21": (2, ((0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0), (1, -1, -1, -1))),
    "a11>=a12 and b11<=b21": (2, ((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, -1, -1, -1))),
}
# a pure profile's relabelings -> the cell of the normalized template each cell reads
_CELLS = {"none": (0, 1, 2, 3), "rows swapped": (2, 3, 0, 1), "columns swapped": (1, 0, 3, 2),
          "rows swapped, columns swapped": (3, 2, 1, 0)}


def _relabel(g, q, r, transpose, swap_rows, swap_cols):
    """The game and the profile (q, r) moved alike by the relabelings."""
    if transpose:
        g, q, r = g.transpose_players(), r, q
    if swap_rows:
        g, q = g.swap_rows(), 1 - q
    if swap_cols:
        g, r = g.swap_cols(), 1 - r
    return g, MixedProfile(q, r)


def _assert_same_bytes(game, rep):
    ref = reference(game, rep)
    assert json.dumps(rep.to_json(), sort_keys=True) == json.dumps(ref.to_json(), sort_keys=True)


def _assert_cache_holds_only_corner_templates():
    """Each kept ladder is a normalized corner template with its cells read
    back through its relabeling: at most 4 x 4 of them, none made of a
    game's payoffs or a profile."""
    assert len(games._PURE_LADDERS) <= 16
    for (case, relabeling), ladder in games._PURE_LADDERS.items():
        threshold, template = _CORNERS[case]
        assert ladder.template == tuple(template[k] for k in _CELLS[relabeling])
        assert ladder.threshold == threshold


@settings(max_examples=60, deadline=None)
@given(_ENTRY, _ENTRY, _ENTRY, _ENTRY, _GAP, _GAP, _POS, _POS)
@example(0, 0, 0, 0, 0, 0, 1, 1)
@example(10**12, F(-7, 2), F(1, 3), -10**12, 10**12 + 1, F(1, 97), 1, 10**12)
def test_every_pure_corner_under_every_relabeling_is_the_per_rung_report(
        a12, b21, a21, b12, da, db, ea, eb):
    """The corner (row 2, column 2) is Nash when a22 >= a12 and b22 >= b21;
    a11 and b11 on either side of a12 and b21 pick each of the four cases.
    Each game is moved by each of the eight relabelings, so every kept
    ladder is read by games of other payoffs, and every report of a case
    under a relabeling reads the one ladder kept for them."""
    for case in _CORNERS:
        a11 = a12 - ea if case.startswith("a11<=") else a12 + ea
        b11 = b21 - eb if case.endswith("b11<=b21") else b21 + eb
        g0 = PayoffTables([[a11, a12], [a21, a12 + da]], [[b11, b12], [b21, b21 + db]])
        assert ne_witness_sequence(g0, MixedProfile(0, 0)).case == case
        for moves in itertools.product((False, True), repeat=3):
            g, ne = _relabel(g0, 0, 0, *moves)
            rep = ne_witness_sequence(g, ne)
            assert rep.kind == "pure"
            assert rep._ladder is games._PURE_LADDERS[rep.case, rep.relabeling]
            assert ne_witness_sequence(g, ne)._ladder is rep._ladder
            _assert_same_bytes(g, rep)
    # a pure profile is never relabeled by a swap of players, and the sweep
    # above reached each case under each of the other four relabelings
    assert len(games._PURE_LADDERS) == 16
    _assert_cache_holds_only_corner_templates()


_MIXES = st.one_of(
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    st.integers(1001, 100001).map(lambda n: F(1, n)),          # threshold n + 1 > 10^3
    st.integers(10**6, 10**10).map(lambda n: 1 - F(1, n)))     # threshold ~ sqrt(n)


@settings(max_examples=40, deadline=None)
@given(_ENTRY, _ENTRY, _GAP, _GAP, _POS, st.lists(_ENTRY, min_size=2, max_size=2),
       _MIXES, _MIXES)
@example(0, 0, 0, 0, 1, [0, 0], F(1, 3), F(1, 100000))
@example(10**12, F(-7, 2), 10**12, F(1, 97), F(1, 3), [F(5, 7), -10**12], F(999, 1000),
         1 - F(1, 10**10))
def test_both_semi_mixed_branches_are_the_per_rung_report(a12, b, d1, d2, e, b1, mix, mix2):
    """Normalized: player 1 plays row 2 (weakly dominant), player 2 is
    indifferent on it and mixes; a11 on either side of a12 picks the branch.
    Each mix is taken with each relabeling; the mixes reach thresholds on
    both sides of 10^3."""
    for a11 in (a12 - e, a12 + e):
        g0 = PayoffTables([[a11, a12], [a11 + d1, a12 + d2]], [[b1[0], b1[1]], [b, b]])
        for p, moves in itertools.product((mix, mix2), itertools.product((False, True), repeat=3)):
            g, ne = _relabel(g0, F(0), p, *moves)
            rep = ne_witness_sequence(g, ne)
            assert rep.kind == "semi-mixed"
            _assert_same_bytes(g, rep)
    _assert_cache_holds_only_corner_templates()


@settings(max_examples=60, deadline=None)
@given(_POS, _POS, _POS, _POS, _ENTRY, _ENTRY, st.booleans())
@example(3, 2, 2, 3, 0, 0, False)
@example(10**12, F(1, 3), 10**12 + 1, F(5, 7), F(-7, 2), 10**12, True)
def test_totally_mixed_witnesses_are_the_per_rung_report(x, y, u, v, sa, sb, transpose):
    """A coordination game [[x, 0], [0, y]], [[u, 0], [0, v]] with positive
    diagonals, each table shifted, has the interior equilibrium
    (v/(u+v), y/(x+y))."""
    g = PayoffTables([[x + sa, sa], [sa, y + sa]], [[u + sb, sb], [sb, v + sb]])
    ne = MixedProfile(F(v) / (u + v), F(y) / (x + y))
    if transpose:
        g, ne = g.transpose_players(), MixedProfile(ne.r, ne.q)
    rep = ne_witness_sequence(g, ne)
    assert rep.kind == "totally-mixed"
    _assert_same_bytes(g, rep)
    _assert_cache_holds_only_corner_templates()


@settings(max_examples=60, deadline=None)
@given(st.lists(_ENTRY, min_size=4, max_size=4, unique=True))
@example([1, 0, 3, 2])
@example([F(-1, 3), -10**12, 10**12, 7])
def test_cooperation_witnesses_are_the_per_rung_report(values):
    a12, a22, a11, a21 = sorted(values)
    g = PayoffTables([[a11, a12], [a21, a22]], [[a11, a21], [a12, a22]])
    _assert_same_bytes(g, cooperation_witness(g))
    _assert_cache_holds_only_corner_templates()


def test_a_threshold_past_the_digit_limit_fails_only_when_printed():
    """At (0, 10^-4400) the report is built: its ladder is integers of ~4400
    digits.  Only printing it meets Python's 4300-digit limit, on every call
    of `to_json`."""
    g = PayoffTables([[0, 0], [1, 1]], [[0, 0], [1, 1]])
    rep = ne_witness_sequence(g, MixedProfile(0, F(1, 10**4400)))
    assert (rep.kind, rep.threshold) == ("semi-mixed", 10**4400 + 1)
    for _ in range(2):
        with pytest.raises(DomainError, match="4300 decimal digits"):
            rep.to_json()
