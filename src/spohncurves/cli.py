"""Command-line front end.

Every subcommand reads exact rational input (JSON, bimatrix text, or decimal
strings), calls the corresponding library routine, and prints one JSON object
with sorted keys to stdout.  Rationals are always fully reduced strings;
floats appear only in the explicitly numeric reports (witness, pareto), which
carry a "numeric": true marker.

Exit codes: 0 success, 1 domain error (singular curve, degenerate input,
payoffs beyond the float range of a numeric report, an exact answer longer
than Python's int-to-string digit limit, a pareto grid above 10^7 sample
lines) or stdout closed before the output was written, 2 usage error (bad
flags, `FLAG=--`, unreadable input, malformed JSON or JSON nested too
deeply, a decimal exponent beyond the bound of `polynomials.parse_rational`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import elliptic, games, geometry
from .polynomials import DomainError, contfrac_approx, rat, rat_str


def _read_source(spec: str) -> str:
    """Resolve path | inline | '-' (stdin) to raw text."""
    if spec == "-":
        return sys.stdin.read()
    stripped = spec.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return spec
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"unreadable input {spec!r}: {exc.strerror or exc}")


class UsageError(Exception):
    pass


def _load_game(args, n="") -> games.PayoffTables:
    """The game given by --game<n> or --bimatrix<n>, for n = "" or "2"."""
    spec, text = getattr(args, "game" + n, None), getattr(args, "bimatrix" + n, None)
    if text is not None:
        if spec is not None:
            raise UsageError(f"give exactly one of --game{n} / --bimatrix{n}")
        return games.PayoffTables.from_bimatrix(text)
    if spec is None:
        which = "a second game" if n else "a game"
        raise UsageError(f"{which} is required (--game{n} or --bimatrix{n})")
    return games.PayoffTables.from_json(_load_json(spec))


def _load_json(spec: str):
    """The JSON value of `spec`; text that is not JSON, or is nested too
    deeply for the decoder's recursion, is a usage error."""
    text = _read_source(spec)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"malformed JSON: {exc}")


def _rat_csv(text: str, n: int, what: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated rationals")
    try:
        return [rat(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad {what}: {exc}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "text":
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, (dict, list)):
                val = json.dumps(val, sort_keys=True)
            print(f"{key} = {val}")
    else:
        print(json.dumps(payload, sort_keys=True))


# --- subcommand bodies ------------------------------------------------------

def _cmd_cubic(args):
    game = _load_game(args)
    cubic, quad = geometry.build_cubic(game), geometry.build_quadrics(game)
    return {"cubic": cubic.to_json(), "quadrics": quad.to_json(),
            "zero": cubic.is_zero()}


def _cmd_classify(args):
    kind, cases = geometry.classify(_load_game(args))
    return {"kind": kind, "cases": sorted(cases)}


def _cmd_decompose(args):
    return geometry.reducibility_verdict(_load_game(args)).to_json()


def _cmd_j(args):
    spohn = geometry.build_cubic(_load_game(args))
    if spohn.is_zero():
        raise DomainError("the cubic vanishes identically; j is undefined")
    return elliptic.j_invariant(elliptic.PlaneCubic.from_spohn(spohn)).to_json()


def _cmd_reduce(args):
    pair = elliptic.QuadricPair.from_json(_load_json(args.pair))
    cubic = elliptic.cubic_from_quadrics(pair)
    out = {"cubic": cubic.to_json(),
           "j": elliptic.j_invariant(cubic).to_json()["j"]}
    if args.point is not None:
        pt = _rat_csv(args.point, 3, "--point")
        model = elliptic.weierstrass_from_cubic(cubic, pt)
        out["weierstrass"] = model.to_json()
    return out


def _cmd_equiv(args):
    return elliptic.game_equivalence(_load_game(args), _load_game(args, "2"))


def _cmd_nash(args):
    game = _load_game(args)
    mixed = games.totally_mixed_nash(game)
    return {
        "pure": [list(ne) for ne in games.pure_nash(game)],
        "totally_mixed": mixed if isinstance(mixed, str) else mixed.to_json(),
    }


def _cmd_konstanz(args):
    game = _load_game(args)
    pi1, pi2 = _rat_csv(args.payoffs, 2, "--payoffs")
    return games.KonstanzMatrix(game, pi1, pi2).to_json()


def _cmd_de_check(args):
    game = _load_game(args)
    coords = _rat_csv(args.point, 4, "--point")
    try:
        p = games.JointDistribution(*coords)
    except ValueError as exc:
        raise UsageError(str(exc))
    verdict = games.de_membership(game, p)
    out = {"point": p.to_json(), "verdict": verdict}
    if verdict != "boundary-undecided":
        cp = games.conditional_payoffs(game, p)
        out["conditional_payoffs"] = {
            "E_1^(1)": rat_str(cp.e11), "E_2^(1)": rat_str(cp.e21),
            "E_1^(2)": rat_str(cp.e12), "E_2^(2)": rat_str(cp.e22),
        }
    return out


def _cmd_witness(args):
    game = _load_game(args)
    if args.cooperation:
        if args.ne is not None:
            raise UsageError("--cooperation does not take --ne")
        return games.cooperation_witness(game).to_json()
    if args.ne is None:
        raise UsageError("witness needs --ne \"q,r\" or --cooperation")
    q, r = _rat_csv(args.ne, 2, "--ne")
    return games.ne_witness_sequence(game, games.MixedProfile(q, r)).to_json()


def _cmd_pareto(args):
    if args.grid < 1:
        raise UsageError("--grid must be a positive integer")
    return games.pareto_sweep(_load_game(args), grid=args.grid, seed=args.seed)


def _cmd_approx(args):
    if args.convergents < 1:
        raise UsageError("--convergents must be a positive integer")
    cf = contfrac_approx(args.value, args.convergents)
    return {"approx": rat_str(cf.value)}


class _Parser(argparse.ArgumentParser):
    """argparse that reads an argument starting with "-" and a digit, or "-."
    and a digit, as a value, as negative inputs need (`--payoffs -3,2`,
    `--seed -1_0`); stock argparse reads only "-2" or "-0.5" so.  The rule
    applies once an argument matches no option and no unique prefix of one,
    and no option here starts so.  Subparsers inherit the class; the tests
    pin this through `run`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spohncurves",
        description="Exact algebro-geometric computations for 2x2 games.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, func, help_text, game=False, second=False):
        """Add a subcommand with the game flags it takes and --format;
        return its `add_argument` for the flags of its own."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        option = p.add_argument
        if game:
            option("--game", metavar="SPEC",
                   help="game JSON: file path, inline string, or - for stdin")
            option("--bimatrix", metavar="TEXT",
                   help='payoffs as "a11,b11 a12,b12; a21,b21 a22,b22"')
        if second:
            option("--game2", metavar="SPEC", help="second game JSON")
            option("--bimatrix2", metavar="TEXT", help="second game, bimatrix text")
        option("--format", choices=("json", "text"), default="json")
        return option

    add("cubic", _cmd_cubic, "Spohn quadrics and the eliminated plane cubic", game=True)
    add("classify", _cmd_classify, "reducibility kind and matched cases", game=True)
    add("decompose", _cmd_decompose,
        "components of the cubic with smooth rational points", game=True)
    add("j", _cmd_j, "j-invariant of the Spohn cubic", game=True)

    option = add("reduce", _cmd_reduce, "quadric pair -> plane cubic -> j")
    option("--pair", metavar="SPEC", required=True,
           help="quadric-pair JSON (P1/P2 or A/B matrices, plus point)")
    option("--point", metavar="X,Y,Z",
           help="rational point on the cubic: also emit a Weierstrass model")

    add("equiv", _cmd_equiv, "j-invariants and Q-isomorphism of two games",
        game=True, second=True)
    add("nash", _cmd_nash, "pure and totally mixed Nash equilibria", game=True)

    option = add("konstanz", _cmd_konstanz, "Konstanz matrix and determinant", game=True)
    option("--payoffs", metavar="PI1,PI2", required=True,
           help="prescribed conditional payoffs")

    option = add("de-check", _cmd_de_check, "dependency-equilibrium membership", game=True)
    option("--point", metavar="P11,P12,P21,P22", required=True)

    option = add("witness", _cmd_witness, "witness sequence for a Nash equilibrium",
                 game=True)
    option("--ne", metavar="Q,R",
           help="Nash equilibrium: probabilities of row 1 and column 1")
    option("--cooperation", action="store_true",
           help="cooperation witness for a symmetric PD-type game")

    option = add("pareto", _cmd_pareto, "numeric Pareto sweep along the Spohn curve",
                 game=True)
    option("--grid", type=int, default=200, metavar="N",
           help="number of sample lines (default 200)")
    option("--seed", type=int, default=0, metavar="N",
           help="RNG seed (default 0)")

    option = add("approx", _cmd_approx, "continued-fraction rational approximation")
    option("--value", required=True, metavar="DECIMAL",
           help="decimal string to approximate")
    option("--convergents", type=int, required=True, metavar="N",
           help="number of continued-fraction convergents")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        for name, value in vars(args).items():
            if isinstance(value, list):  # "--game=--": argparse before 3.13 stores []
                raise UsageError(f"argument --{name}: expected one argument, not '--'")
        payload = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:
        # exact input whose numeric report (witness, pareto) leaves the float
        # range, or memory running out (a pareto grid above 10^7 sample lines
        # is a DomainError before any line is drawn)
        print(f"domain error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's own flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
