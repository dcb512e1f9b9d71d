"""The (co)cylinder negative controls, run as jobs of one process.

Sweedler `verify cylindrical|cocylindrical` on the window (2, 2) pass; the
same jobs on Sweedler with a coaction term or an action entry negated exit
1; then the passing jobs run again.  Each exit code and report must equal
its golden in tests/goldens.  The compiled operators are kept across the
jobs of a process, so this checks that no operator compiled on one
structure reaches a job on another.

    PYTHONPATH=src python tests/cross_job_controls.py

Run from the root of a source checkout; exits 1 at the first job whose
outcome differs from its golden.
"""

import contextlib
import io
import os
import sys

from hopfcyclic import cli

_PASSING = [
    ("cylindrical", "data/sweedler_Q.json", 0,
     "cylindrical_sweedler_Q_p2_q2"),
    ("cocylindrical", "data/sweedler_Q.json", 0,
     "cocylindrical_sweedler_Q_p2_q2"),
]
JOBS = _PASSING + [
    ("cylindrical", "tests/sweedler_Q_bad_coaction.json", 1,
     "cylindrical_bad_coaction_sweedler_Q_p2_q2"),
    ("cocylindrical", "tests/sweedler_Q_bad_action.json", 1,
     "cocylindrical_bad_action_sweedler_Q_p2_q2"),
] + _PASSING


def outcomes():
    """(argv, (exit code, report), (golden exit code, golden report)) of
    each job in turn, run in this process."""
    for target, path, code, golden in JOBS:
        argv = ["verify", target, "-i", path, "--pmax", "2", "--qmax", "2"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = cli.main(argv)
        with open(os.path.join("tests", "goldens", golden + ".json")) as fh:
            yield argv, (got, out.getvalue()), (code, fh.read())


def main():
    for argv, got, want in outcomes():
        print(" ".join(argv), "exit", got[0])
        if got != want:
            print("differs from its golden")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
