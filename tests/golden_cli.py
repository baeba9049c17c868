"""Check the committed golden CLI bytes without pytest.

    python3 tests/golden_cli.py

Runs every call recorded in golden_game_reports.json (each with its argv,
exit code, stdout and stderr) and every game of golden_decompose.json
through `decompose --game`, by `cli.run` in this process, and compares exit
code, stdout and stderr byte for byte.  The raw cubics of
golden_decompose.json are not CLI calls; the test suite checks them.
Exits 0 when every call matches, else 1 after naming the first mismatch.
Needs only the standard library, so it runs on every supported Python.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spohncurves import cli  # noqa: E402


def golden_calls():
    """(argv, exit code, stdout, stderr) for every recorded CLI call."""
    reports = json.loads((HERE / "golden_game_reports.json").read_text(encoding="utf-8"))
    calls = [(e["argv"], e["code"], e["stdout"], e["stderr"]) for e in reports]
    decompose = json.loads((HERE / "golden_decompose.json").read_text(encoding="utf-8"))
    calls += [(["decompose", "--game", json.dumps(rec["game"])], 0, rec["stdout"], "")
              for rec in decompose.values() if "game" in rec]
    return calls


def main() -> int:
    calls = golden_calls()
    for argv, code, stdout, stderr in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.run(argv)
        if (got, out.getvalue(), err.getvalue()) != (code, stdout, stderr):
            print(f"mismatch: {argv}: exit {got} (recorded {code}), "
                  f"stdout {'equal' if out.getvalue() == stdout else 'differs'}, "
                  f"stderr {'equal' if err.getvalue() == stderr else 'differs'}")
            return 1
    print(f"{len(calls)} golden CLI calls match on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
