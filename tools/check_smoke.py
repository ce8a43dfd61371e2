"""Assertions shared by the CLI smoke steps of CI.

Two checks, each exiting non-zero with the offending file named:

* ``auc`` — every given ``repro train`` output holds a metrics line whose
  ``auc=`` is at least ``--min`` (a training that learned nothing prints
  ``auc=0.5``, so a metrics-line diff alone passes it);
* ``same-model`` — two ``--save-model`` files hold the same arrays under
  the same names, bit for bit.

Run from the repository root:

    python tools/check_smoke.py auc --min 0.60 plain.txt crashed.txt
    python tools/check_smoke.py same-model plain.npz crashed.npz
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

AUC = re.compile(r"auc=([0-9.]+)")


def check_auc(paths, minimum: float) -> list:
    problems = []
    for path in paths:
        with open(path) as handle:
            match = AUC.search(handle.read())
        if match is None:
            problems.append(f"{path}: no auc= on any line")
        elif float(match.group(1)) < minimum:
            problems.append(f"{path}: auc={match.group(1)} is below {minimum:.2f}")
    return problems


def check_same_model(first: str, second: str) -> list:
    with np.load(first) as a, np.load(second) as b:
        if a.files != b.files:
            return [f"{first} holds {a.files}, {second} holds {b.files}"]
        return [
            f"{first} and {second} differ in {name!r}"
            for name in a.files
            if not np.array_equal(a[name], b[name])
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    checks = parser.add_subparsers(dest="check", required=True)
    auc = checks.add_parser("auc", help="every output reports auc >= --min")
    auc.add_argument("--min", type=float, required=True)
    auc.add_argument("outputs", nargs="+")
    same = checks.add_parser("same-model", help="two saved models are bitwise equal")
    same.add_argument("first")
    same.add_argument("second")
    args = parser.parse_args(argv)

    if args.check == "auc":
        problems = check_auc(args.outputs, args.min)
    else:
        problems = check_same_model(args.first, args.second)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
