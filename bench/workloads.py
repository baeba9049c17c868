"""Seeded inputs, report steps and output checks of the four workloads.

The generators are the benchmark's own copies of the distributions in
`tests/caselib.py` (entries uniform in [-9, 9], case games from the case
equations), so later test edits cannot move the benchmark.  They compute
everything they need (case equations, cubic coefficients, pure equilibria)
without the library, and the program only ever receives the JSON text they
produce.

A report is a short sequence of steps.  Each step calls the library exactly
as the matching CLI subcommand does and yields an outcome
`(step, exit_code, text)`: stdout bytes on success, the CLI's stderr line on
an expected domain (1) or usage (2) error.  Any other exception escapes and is
counted as a failure by the caller.

Importing this module does not import spohncurves: `load_library` does, and
every function that runs the program takes the namespace it returns, so the
set-up probe can time the import itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import types
from fractions import Fraction

WORKLOADS = ("random-games", "case-games", "equivalence", "numeric")

PARETO_GRID = 20
WEIERSTRASS_POINT = "1,0,0"


def load_library(root):
    """Import spohncurves from the sources under `root/src`, writing no bytecode.

    Raises FileNotFoundError when the sources are absent, and ImportError when
    the package found is not the one under `root/src`.
    """
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "spohncurves", "__init__.py")):
        raise FileNotFoundError(f"no spohncurves sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import spohncurves.cli
    pkg = spohncurves
    if not os.path.realpath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"spohncurves was imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(
        polynomials=pkg.polynomials, geometry=pkg.geometry, elliptic=pkg.elliptic,
        games=pkg.games, cli=pkg.cli, DomainError=pkg.polynomials.DomainError)


# ---------------------------------------------------------------------------
# exact helpers (independent of the library)
# ---------------------------------------------------------------------------

def rat_str(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def game_json(A, B) -> str:
    return json.dumps({"A": [[rat_str(x) for x in row] for row in A],
                       "B": [[rat_str(x) for x in row] for row in B]})


def cubic_coeffs(A, B) -> tuple:
    """The seven Spohn-cubic coefficients, transcribed from the paper."""
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    return ((a11 - a22) * (b11 - b12), (a11 - a21) * (b22 - b11),
            (a12 - a22) * (b11 - b12), (a11 - a21) * (b22 - b21),
            (a12 - a22) * (b21 - b12), (a12 - a21) * (b22 - b21),
            (a12 - a21) * (b22 - b11) + (a11 - a22) * (b21 - b12))


def case_equations(case, A, B) -> tuple:
    """The defining equations of one of the twelve reducibility cases."""
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    eqs = {
        1: (a11 - a12,), 2: (a11 - a21,), 3: (a21 - a22,),
        4: (b11 - b12,), 5: (b11 - b21,), 6: (b12 - b22,),
        7: (a12 - a22, b21 - b22), 8: (a12 - a21, b12 - b21),
        9: (a12*(b12-b22) + a21*(b22-b21) + a22*(b21-b12),
            a11*(b22-b12) + a21*(b11-b22) + a22*(b12-b11),
            a11*(b22-b21) + a12*(b11-b22) + a22*(b21-b11)),
        10: (a11*(b12-b21) + a12*(b21-b22) + a21*(b22-b12),
             a12*(b11-b21) + a21*(b12-b11) + a22*(b21-b12),
             a11*(b11-b21) + a21*(b22-b11) + a22*(b21-b22)),
        11: (a12*(b22-b21) + a21*(b12-b22) + a22*(b21-b12),
             a11*(b22-b21) + a21*(b11-b22) + a22*(b21-b11),
             a11*(b22-b12) + a12*(b11-b22) + a22*(b12-b11)),
        12: (a11*(b12-b21) + a12*(b22-b12) + a21*(b21-b22),
             a12*(b11-b12) + a21*(b21-b11) + a22*(b12-b21),
             a11*(b11-b21) + a12*(b22-b12) + a21*(b21-b11) + a22*(b12-b22)),
    }
    return eqs[case]


def cases_of(A, B) -> list:
    return [k for k in range(1, 13) if all(e == 0 for e in case_equations(k, A, B))]


def zero_condition(A, B):
    """First of the four zero-cubic conditions that holds, or None."""
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    if a11 == a12 == a21 == a22 or b11 == b12 == b21 == b22:
        return 1
    if a11 == a21 and a12 == a22 and b11 == b12 and b21 == b22:
        return 2
    if a11 == a12 == a22 and b11 == b21 == b22:
        return 3
    if a11 == a12 == a21 and b11 == b12 == b21:
        return 4
    return None


def pure_equilibria(A, B) -> list:
    """Pure Nash equilibria (weak best responses), 1-based, with strictness."""
    out = []
    for i in (0, 1):
        for j in (0, 1):
            if A[i][j] >= A[1 - i][j] and B[i][j] >= B[i][1 - j]:
                strict = A[i][j] > A[1 - i][j] and B[i][j] > B[i][1 - j]
                out.append((i + 1, j + 1, strict))
    return out


def has_reference_equilibrium(A, B) -> bool:
    """A totally mixed equilibrium or exactly one pure one (pareto's reference)."""
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B
    den_q, den_r = b11 - b12 - b21 + b22, a11 - a12 - a21 + a22
    if den_q != 0 and den_r != 0:
        q, r = (b22 - b21) / den_q, (a22 - a12) / den_r
        if 0 < q < 1 and 0 < r < 1:
            return True
    return len(pure_equilibria(A, B)) == 1


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _entry(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9))


def random_tables(rng):
    return ([[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]],
            [[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]])


def _unit_table(k):
    return [[Fraction(1 if 2 * i + j == k else 0) for j in range(2)] for i in range(2)]


def _kernel_basis(rows) -> list:
    """Basis of the right kernel of a small rational matrix."""
    rows = [list(map(Fraction, r)) for r in rows]
    m = len(rows[0])
    piv_cols, r = [], 0
    for c in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for fc in (c for c in range(m) if c not in piv_cols):
        v = [Fraction(0)] * m
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -rows[i][fc]
        basis.append(v)
    return basis


def game_for_case(case, rng):
    """A game satisfying one reducibility case whose cubic is nonzero.

    Cases 1-8 overwrite entries; for 9-12 the equations are linear in B once
    A is fixed, so B is drawn from their exact kernel.
    """
    forced = {1: ("A", 0, 1, "A", 0, 0), 2: ("A", 1, 0, "A", 0, 0),
              3: ("A", 1, 1, "A", 1, 0), 4: ("B", 0, 1, "B", 0, 0),
              5: ("B", 1, 0, "B", 0, 0), 6: ("B", 1, 1, "B", 0, 1)}
    while True:
        A = [[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]]
        if case <= 8:
            B = [[_entry(rng), _entry(rng)], [_entry(rng), _entry(rng)]]
            T = {"A": A, "B": B}
            if case in forced:
                dst, i, j, src, k, l = forced[case]
                T[dst][i][j] = T[src][k][l]
            elif case == 7:
                A[1][1], B[1][1] = A[0][1], B[1][0]
            else:
                A[1][0], B[1][0] = A[0][1], B[0][1]
        else:
            n_eq = len(case_equations(case, A, _unit_table(0)))
            rows = [[case_equations(case, A, _unit_table(k))[i] for k in range(4)]
                    for i in range(n_eq)]
            basis = _kernel_basis(rows)
            B = None
            for _ in range(20):
                coefs = [Fraction(rng.randint(-4, 4)) for _ in basis]
                v = [sum(c * b[j] for c, b in zip(coefs, basis)) for j in range(4)]
                if len(set(v)) > 1:
                    B = [[v[0], v[1]], [v[2], v[3]]]
                    break
            if B is None:
                continue
        if any(cubic_coeffs(A, B)) and case in cases_of(A, B):
            return A, B


def game_for_zero_condition(cond, rng):
    """A game whose cubic vanishes and whose first matching condition is `cond`."""
    while True:
        A, B = random_tables(rng)
        if cond == 1:
            T = A if rng.random() < 0.5 else B
            T[0][1] = T[1][0] = T[1][1] = T[0][0]
        elif cond == 2:
            A[1][0], A[1][1] = A[0][0], A[0][1]
            B[0][1], B[1][1] = B[0][0], B[1][0]
        elif cond == 3:
            A[0][1] = A[1][1] = A[0][0]
            B[1][0] = B[1][1] = B[0][0]
        else:
            A[0][1] = A[1][0] = A[0][0]
            B[0][1] = B[1][0] = B[0][0]
        if zero_condition(A, B) == cond and not any(cubic_coeffs(A, B)):
            return A, B


def _relabel(A, B, rng):
    """A random swap_rows, swap_cols or transpose_players, on plain tables."""
    k = rng.randrange(3)
    if k == 0:
        return [A[1], A[0]], [B[1], B[0]]
    if k == 1:
        return ([[r[1], r[0]] for r in A], [[r[1], r[0]] for r in B])
    return ([[B[0][0], B[1][0]], [B[0][1], B[1][1]]],
            [[A[0][0], A[1][0]], [A[0][1], A[1][1]]])


def _rescale(T, rng):
    """Positive rational affine rescaling with heights up to 50."""
    scale = Fraction(rng.randint(1, 50), rng.randint(1, 50))
    shift = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
    return [[scale * x + shift for x in row] for row in T]


def spohn_pair_json(A, B) -> str:
    """The game's two quadrics in (x, y, z, t) = (p11, p12, p21, p22) with
    the common point [0:0:0:1], in the library's sparse JSON format."""
    (a11, a12), (a21, a22) = A
    (b11, b12), (b21, b22) = B

    def poly(terms):
        return {"vars": ["x", "y", "z", "t"],
                "terms": [{"exp": e, "coef": rat_str(c)} for e, c in terms if c != 0]}

    P1 = poly([([1, 0, 1, 0], a21 - a11), ([1, 0, 0, 1], a22 - a11),
               ([0, 1, 1, 0], a21 - a12), ([0, 1, 0, 1], a22 - a12)])
    P2 = poly([([1, 1, 0, 0], b12 - b11), ([1, 0, 0, 1], b22 - b11),
               ([0, 1, 1, 0], b12 - b21), ([0, 0, 1, 1], b22 - b21)])
    return json.dumps({"P1": P1, "P2": P2, "point": ["0", "0", "0", "1"]})


def _pd_tables(rng):
    """A symmetric prisoner's-dilemma-type game: a21 > a11 > a22 > a12, B = A^T."""
    a12, a22, a11, a21 = sorted(Fraction(v) for v in rng.sample(range(-9, 10), 4))
    A = [[a11, a12], [a21, a22]]
    return A, [[a11, a21], [a12, a22]]


def make_report(workload: str, seed: int, index: int) -> dict:
    """The inputs of report `index` of a workload; the same seed gives the
    same reports.  Each report draws from its own generator, so a report's
    inputs do not depend on how many reports a run completes."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "random-games":
        A, B = random_tables(rng)
        return {"game": game_json(A, B), "A": A, "B": B}
    if workload == "case-games":
        # twelve cases in equal shares, then the four zero-cubic conditions
        slot = index % 16
        if slot < 12:
            A, B = game_for_case(slot + 1, rng)
            built = ("case", slot + 1)
        else:
            A, B = game_for_zero_condition(slot - 11, rng)
            built = ("zero", slot - 11)
        return {"game": game_json(A, B), "A": A, "B": B, "built": built}
    if workload == "equivalence":
        A, B = random_tables(rng)
        A2, B2 = _relabel(A, B, rng)
        A2, B2 = _rescale(A2, rng), _rescale(B2, rng)
        return {"game": game_json(A, B), "game2": game_json(A2, B2),
                "pair": spohn_pair_json(A, B), "A": A, "B": B}
    if workload == "numeric":
        # one report in four is a symmetric PD-type game with a cooperation witness
        coop = index % 4 == 3
        A, B = _pd_tables(rng) if coop else random_tables(rng)
        return {"game": game_json(A, B), "A": A, "B": B, "coop": coop,
                "pareto_seed": rng.randrange(10 ** 6),
                "equilibria": pure_equilibria(A, B)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# report steps: the library calls behind each CLI subcommand
# ---------------------------------------------------------------------------

def _game(lib, text):
    return lib.games.PayoffTables.from_json(json.loads(text))


def _classify(lib, text):
    verdict = lib.geometry.reducibility_verdict(_game(lib, text))
    return {"kind": verdict.kind,
            "cases": sorted(verdict.cases) if verdict.cases is not None else []}


def _decompose(lib, text):
    return lib.geometry.reducibility_verdict(_game(lib, text)).to_json()


def _plane_cubic(lib, text):
    spohn = lib.geometry.build_cubic(_game(lib, text))
    if spohn.is_zero():
        raise lib.DomainError("the cubic vanishes identically; j is undefined")
    return lib.elliptic.PlaneCubic.from_poly(spohn.f)


def _j(lib, text):
    return lib.elliptic.j_invariant(_plane_cubic(lib, text)).to_json()


def _weierstrass(lib, text):
    point = [Fraction(p) for p in WEIERSTRASS_POINT.split(",")]
    return lib.elliptic.weierstrass_from_cubic(_plane_cubic(lib, text), point).to_json()


def _equiv(lib, text, text2):
    return lib.elliptic.game_equivalence(_game(lib, text), _game(lib, text2))


def _reduce(lib, pair_text, point_csv):
    e = lib.elliptic
    cubic = e.cubic_from_quadrics(e.QuadricPair.from_json(json.loads(pair_text)))
    point = [Fraction(p) for p in point_csv.split(",")]
    return {"cubic": cubic.to_json(), "j": e.j_invariant(cubic).to_json()["j"],
            "weierstrass": e.weierstrass_from_cubic(cubic, point).to_json()}


def _pareto(lib, text, grid, seed):
    return lib.games.pareto_sweep(_game(lib, text), grid=grid, seed=seed)


def _witness_ne(lib, text, q, r):
    g = lib.games
    profile = g.MixedProfile(Fraction(q), Fraction(r))
    return g.ne_witness_sequence(_game(lib, text), profile).to_json()


def _witness_coop(lib, text):
    return lib.games.cooperation_witness(_game(lib, text)).to_json()


def outcome(lib, step, fn, *args) -> tuple:
    """Run one step and map its result the way `cli.run` maps it."""
    try:
        payload = fn(lib, *args)
    except lib.DomainError as exc:
        return (step, 1, f"domain error: {exc}\n")
    except ValueError as exc:
        return (step, 2, f"bad input: {exc}\n")
    return (step, 0, json.dumps(payload, sort_keys=True) + "\n")


def _ne_args(i, j) -> tuple:
    """Pure equilibrium (row i, column j) as (q, r) = P(row 1), P(column 1)."""
    return ("1" if i == 1 else "0", "1" if j == 1 else "0")


def run_report(lib, workload: str, rep: dict) -> list:
    """Execute one report through the library; returns its outcomes."""
    g = rep["game"]
    if workload == "random-games":
        out = [outcome(lib, "decompose", _decompose, g), outcome(lib, "j", _j, g)]
        if out[1][1] == 0 and json.loads(out[1][2])["j"] != "singular":
            out.append(outcome(lib, "weierstrass", _weierstrass, g))
        return out
    if workload == "case-games":
        return [outcome(lib, "classify", _classify, g),
                outcome(lib, "decompose", _decompose, g),
                outcome(lib, "j", _j, g)]
    if workload == "equivalence":
        return [outcome(lib, "equiv", _equiv, g, rep["game2"]),
                outcome(lib, "reduce", _reduce, rep["pair"], WEIERSTRASS_POINT)]
    out = [outcome(lib, "pareto", _pareto, g, PARETO_GRID, rep["pareto_seed"])]
    for i, j, _ in rep["equilibria"]:
        out.append(outcome(lib, f"witness-ne-{i}{j}", _witness_ne, g, *_ne_args(i, j)))
    if rep["coop"]:
        out.append(outcome(lib, "witness-coop", _witness_coop, g))
    return out


def cli_calls(workload: str, rep: dict) -> list:
    """(step, argv) for every step of the report that is a CLI subcommand."""
    g = rep["game"]
    if workload == "random-games":
        return [("decompose", ["decompose", "--game", g]), ("j", ["j", "--game", g])]
    if workload == "case-games":
        return [(s, [s, "--game", g]) for s in ("classify", "decompose", "j")]
    if workload == "equivalence":
        return [("equiv", ["equiv", "--game", g, "--game2", rep["game2"]]),
                ("reduce", ["reduce", "--pair", rep["pair"], "--point", WEIERSTRASS_POINT])]
    calls = [("pareto", ["pareto", "--game", g, "--grid", str(PARETO_GRID),
                         "--seed", str(rep["pareto_seed"])])]
    for i, j, _ in rep["equilibria"]:
        calls.append((f"witness-ne-{i}{j}",
                      ["witness", "--game", g, "--ne", ",".join(_ne_args(i, j))]))
    if rep["coop"]:
        calls.append(("witness-coop", ["witness", "--game", g, "--cooperation"]))
    return calls


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def exact_view(workload: str, step: str, code: int, text: str) -> str:
    """The bytes a digest covers: everything, except the float fields of the
    numeric reports, which `check_report` tests against tolerances instead."""
    if workload != "numeric" or code != 0:
        return text
    payload = json.loads(text)
    if step == "pareto":
        payload.pop("points")
        payload.pop("dominating")
    else:
        for row in payload["ladder"]:
            row.pop("payoffs")
            row.pop("residuals")
    return json.dumps(payload, sort_keys=True)


def _on_poly(poly, point) -> bool:
    vals = [Fraction(v) for v in point]
    total = Fraction(0)
    for term in poly["terms"]:
        t = Fraction(term["coef"])
        for v, e in zip(vals, term["exp"]):
            t *= v ** e
        total += t
    return total == 0


def _weierstrass_j(a):
    """j of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, or None if singular."""
    a1, a2, a3, a4, a6 = (Fraction(x) for x in a)
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return None if disc == 0 else c4 ** 3 / disc


def _check_weierstrass(model, j_text, errs, what):
    jm = _weierstrass_j(model["a"])
    if jm is None or rat_str(jm) != model["j"] or model["j"] != j_text:
        errs.append(f"{what}: Weierstrass model j {model['j']} does not match j {j_text}")


def _check_verdict(rep, v, errs):
    A, B = rep["A"], rep["B"]
    if not any(cubic_coeffs(A, B)):
        if v["kind"] != "ZeroCubic" or v["zero_condition"] != zero_condition(A, B):
            errs.append(f"zero cubic reported as {v['kind']}/{v['zero_condition']}")
        return
    cases = cases_of(A, B)
    if v["cases"] != cases:
        errs.append(f"cases {v['cases']} != case equations {cases}")
    lines = [c for c in v["components"] if c["kind"] == "line"]
    if bool(lines) != bool(cases):
        errs.append("a linear component must exist iff some case holds")
    if v["kind"] not in ("Reducible", "Irreducible") or \
            (v["kind"] == "Reducible") != bool(v["components"]):
        errs.append(f"inconsistent verdict kind {v['kind']}")
    for comp in v["components"]:
        if comp["point"] is not None and not _on_poly(comp["poly"], comp["point"]):
            errs.append(f"point {comp['point']} is not on its component")


def _check_numeric(rep, res, errs):
    A, B = rep["A"], rep["B"]
    code, text = res["pareto"]
    if code != (0 if has_reference_equilibrium(A, B) else 1):
        errs.append(f"pareto exit {code} disagrees with the reference equilibria")
    if code == 0:
        a = [[float(x) for x in row] for row in A]
        b = [[float(x) for x in row] for row in B]
        sweep = json.loads(text)
        points = [tuple(rec["point"]) for rec in sweep["points"]]
        for rec in sweep["points"]:
            p11, p12, p21, p22 = rec["point"]
            d1 = (p11 + p12) * (a[1][0] * p21 + a[1][1] * p22) \
                - (a[0][0] * p11 + a[0][1] * p12) * (p21 + p22)
            d2 = (p11 + p21) * (b[0][1] * p12 + b[1][1] * p22) \
                - (b[0][0] * p11 + b[1][0] * p21) * (p12 + p22)
            if max(abs(d1), abs(d2), abs(p11 + p12 + p21 + p22 - 1)) > 1e-8 \
                    or min(rec["point"]) <= 0:
                errs.append(f"sampled point {rec['point']} is off the curve")
        if any(tuple(rec["point"]) not in points for rec in sweep["dominating"]):
            errs.append("a dominating point is not among the sampled points")
    for i, j, strict in rep["equilibria"]:
        code, text = res[f"witness-ne-{i}{j}"]
        if code != 0:
            errs.append(f"witness for pure equilibrium ({i},{j}) exited {code}")
            continue
        w = json.loads(text)
        # a weak equilibrium's residual may decay like 1/r and miss the
        # ladder tolerance; its `ok` is then checked against the digest only
        if strict and not w["ok"]:
            errs.append(f"witness for strict equilibrium ({i},{j}) is not ok")
        for row in w["ladder"]:
            if sum(Fraction(x) for x in row["point"]) != 1 or \
                    min(Fraction(x) for x in row["point"]) <= 0:
                errs.append(f"ladder point {row['point']} is not interior")
    if rep["coop"]:
        code, text = res["witness-coop"]
        if code != 0 or not json.loads(text)["ok"]:
            errs.append("cooperation witness failed on a PD-type game")


def check_report(workload: str, rep: dict, outcomes: list) -> list:
    """Construction oracles and invariants; returns failure messages."""
    res = {step: (code, text) for step, code, text in outcomes}
    errs = []
    for step, code, text in outcomes:
        if code not in (0, 1):
            errs.append(f"{step}: unexpected exit {code}: {text.strip()}")
    if errs:
        return errs
    if workload == "random-games":
        code, text = res["decompose"]
        if code != 0:
            return [f"decompose exited {code}"]
        v = json.loads(text)
        _check_verdict(rep, v, errs)
        jcode, jtext = res["j"]
        if jcode != (1 if v["kind"] == "ZeroCubic" else 0):
            errs.append(f"j exited {jcode} on a {v['kind']} cubic")
        elif jcode == 0:
            jval = json.loads(jtext)["j"]
            if v["kind"] == "Reducible" and jval != "singular":
                errs.append("a reducible cubic has a nonsingular j")
            if jval != "singular":
                wcode, wtext = res["weierstrass"]
                if wcode != 0:
                    errs.append(f"weierstrass exited {wcode} on a smooth cubic")
                else:
                    _check_weierstrass(json.loads(wtext), jval, errs, "weierstrass")
    elif workload == "case-games":
        kind, n = rep["built"]
        ccode, ctext = res["classify"]
        dcode, dtext = res["decompose"]
        if ccode != 0 or dcode != 0:
            return [f"classify/decompose exited {ccode}/{dcode}"]
        c, v = json.loads(ctext), json.loads(dtext)
        if (c["kind"], c["cases"]) != (v["kind"], v["cases"]):
            errs.append("classify and decompose disagree")
        _check_verdict(rep, v, errs)
        if kind == "case" and (v["kind"] != "Reducible" or n not in v["cases"]):
            errs.append(f"case {n} game reported {v['kind']} {v['cases']}")
        if kind == "zero" and (v["kind"] != "ZeroCubic" or v["zero_condition"] != n):
            errs.append(f"zero condition {n} game reported {v['kind']}/{v['zero_condition']}")
        jcode, jtext = res["j"]
        if jcode != (1 if kind == "zero" else 0) or \
                (jcode == 0 and json.loads(jtext)["j"] != "singular"):
            errs.append(f"j of a built {kind} game: exit {jcode} {jtext.strip()}")
    elif workload == "equivalence":
        ecode, etext = res["equiv"]
        rcode, rtext = res["reduce"]
        if ecode == 0:
            e = json.loads(etext)
            if not (e["same_j"] and e["fully_equivalent"] and e["j1"] == e["j2"]):
                errs.append(f"a relabelled, rescaled pair is not equivalent: {e}")
            if rcode != 0:
                errs.append(f"reduce exited {rcode} on a smooth cubic")
            else:
                r = json.loads(rtext)
                if r["j"] != e["j1"]:
                    errs.append(f"reduce j {r['j']} != equiv j {e['j1']}")
                _check_weierstrass(r["weierstrass"], r["j"], errs, "reduce")
        elif "singular cubic" not in etext and "zero cubic" not in etext:
            errs.append(f"unexpected equiv domain error: {etext.strip()}")
        elif rcode != 1:
            errs.append("reduce succeeded where equiv found no elliptic curve")
    else:
        _check_numeric(rep, res, errs)
    return errs


# ---------------------------------------------------------------------------
# the CLI, in process
# ---------------------------------------------------------------------------

def run_cli(lib, argv) -> tuple:
    """`cli.run(argv)` with stdout and stderr captured: (exit code, out, err).

    argparse reports usage errors by raising SystemExit; its code is the exit
    code.  Any other exception escapes, as a traceback would.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


WARMUP_REPORTS = 4


def warm_up(lib, workload: str, seed: int):
    """Run the first reports and their CLI calls once, untimed.  This finishes
    lazy imports (numpy on `numeric`: report 3 is a PD game whose sweep always
    samples) before anything is measured."""
    for i in range(WARMUP_REPORTS):
        rep = make_report(workload, seed, i)
        run_report(lib, workload, rep)
        for _, argv in cli_calls(workload, rep):
            run_cli(lib, argv)
