"""The per-rung route of a witness report, the oracle of `games.WitnessReport`:
every report clears its own template, checks it, proves its threshold and
evaluates each rung from the template's integer rows by Horner's rule, with
nothing kept between reports.  It takes the template, threshold and labels
that `games.ne_witness_sequence` or `games.cooperation_witness` chose, and
prints the same JSON.  Needs only the standard library.
"""

from spohncurves.polynomials import clear_denominators, rat_str, ratio_str

_LADDER = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
_WITNESS_TOL = 1e-6


class WitnessReport:
    """A witness report evaluated rung by rung from its template: each cell
    at r is m_ij / (den r^D), with den the lcm of the template's
    denominators and D its top degree, and each payoff and slack one
    `int / int` division of integers."""

    def __init__(self, game, kind, case, formula, threshold, template, relabeling="",
                 lam=None, payoff_limits=None):
        self.kind, self.case, self.formula = kind, case, formula
        self.template, self.relabeling = template, relabeling
        self.lam, self.payoff_limits = lam, payoff_limits
        # the template over one denominator, without the powers of 1/r that
        # no cell uses (column c0 sums to 1, so it always stays)
        self._den, ints = clear_denominators([c for row in template for c in row])
        self._rows = [ints[k:k + 4] for k in (0, 4, 8, 12)]
        if tuple(map(sum, zip(*self._rows))) != (self._den, 0, 0, 0):
            raise AssertionError("witness template does not sum to 1")
        while not any(row[-1] for row in self._rows):
            self._rows = [row[:-1] for row in self._rows]

        def interior(r):
            return all(m > 0 for m in self._numerators(r))
        if not interior(threshold) or threshold > 1 and interior(threshold - 1):
            raise AssertionError("threshold is not the first interior r")
        self.threshold = threshold

        # the limit's marginals, each times den, from its cells' integers
        l11, l12, l21, l22 = (row[0] for row in self._rows)
        checks = [(label, player, sign) for label, m, player, sign in (  # slack = sign * d_player
            ("E_1^(1) >= E_2^(1)", l11 + l12, 0, 1), ("E_2^(1) >= E_1^(1)", l21 + l22, 0, -1),
            ("E_1^(2) >= E_2^(2)", l11 + l21, 1, 1), ("E_2^(2) >= E_1^(2)", l12 + l22, 1, -1))
            if m != 0]
        self.inequalities = [label for label, _, _ in checks]
        (la, (a11, a12, a21, a22)), (lb, (b11, b12, b21, b22)) = game.cleared
        degree = len(self._rows[0]) - 1
        self.ladder = []
        for r in (_LADDER if self.threshold <= _LADDER[0]
                  else tuple(self.threshold * 10 ** k for k in range(4))):
            cells = m11, m12, m21, m22 = self._numerators(r)
            n1, s1 = a11 * m11 + a12 * m12, m11 + m12
            n2, s2 = a21 * m21 + a22 * m22, m21 + m22
            n3, s3 = b11 * m11 + b21 * m21, m11 + m21
            n4, s4 = b12 * m12 + b22 * m22, m12 + m22
            pay = (n1 / (la * s1), n2 / (la * s2), n3 / (lb * s3), n4 / (lb * s4))
            # d_0 = E_1^(1) - E_2^(1) and d_1 = E_1^(2) - E_2^(2) as (numerator, denominator)
            d = ((n1 * s2 - n2 * s1, la * s1 * s2), (n3 * s4 - n4 * s3, lb * s3 * s4))
            residuals = [sign * d[player][0] / d[player][1] for _, player, sign in checks]
            self.ladder.append((r, cells, self._den * r ** degree, pay, residuals))
        self.ok = all(res >= -_WITNESS_TOL for res in self.ladder[-1][4])

    def _numerators(self, r: int) -> tuple:
        """(m11, m12, m21, m22): the cells at r times den * r^D, by Horner's
        rule on the template's integer rows."""
        out = []
        for row in self._rows:
            m = 0
            for c in row:
                m = m * r + c
            out.append(m)
        return tuple(out)

    def to_json(self) -> dict:
        out = {
            "numeric": True,
            "kind": self.kind,
            "case": self.case,
            "formula": self.formula,
            "relabeling": self.relabeling,
            "threshold": self.threshold,
            "limit": [ratio_str(row[0], self._den) for row in self._rows],
            "inequalities": list(self.inequalities),
            "tolerance": _WITNESS_TOL,
            "ladder": [
                {
                    "r": r,
                    "point": [ratio_str(m, scale) for m in cells],
                    "payoffs": dict(zip(("E_1^(1)", "E_2^(1)", "E_1^(2)", "E_2^(2)"), pay)),
                    "residuals": residuals,
                }
                for r, cells, scale, pay, residuals in self.ladder
            ],
            "ok": self.ok,
        }
        if self.lam is not None:
            out["lambda"] = rat_str(self.lam)
            out["payoff_limits"] = [rat_str(x) for x in self.payoff_limits]
        return out


def reference(game, rep) -> WitnessReport:
    """The per-rung report of the game on the template, threshold and labels
    of the library's report `rep`."""
    return WitnessReport(game, rep.kind, rep.case, rep.formula, rep.threshold, rep.template,
                         rep.relabeling, rep.lam, rep.payoff_limits)
