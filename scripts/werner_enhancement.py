"""Measure the bath-induced concurrence enhancement over the werner family.

For each mixing parameter s the initial concurrence is 1 - 2s; the common
bath first degrades and then partially rebuilds entanglement, ending above
the closed-form equilibrium of an isotropic-bath intuition.  This script
integrates the dynamics for a grid of s values and compares the measured
long-time change dC = C(infinity) - C(0) with the analytic prediction
2s [1 - (2 + Delta) / (3 + 2R)].

Usage:
    python scripts/werner_enhancement.py --out werner_enhancement.csv \
        [--b 0.5] [--lam 1,1,1] [--points 16]
"""

import argparse
import sys

import numpy as np

from pairbath import concurrence, convert, stationary_family, werner_state
from pairbath.cli import _output_error, sweep_rows
from pairbath.config import build_block, parse_config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--b", type=float, default=0.5,
                        help="bath vector magnitude along the third axis")
    parser.add_argument("--lam", default="1,1,1",
                        help="comma-separated relaxation rates")
    parser.add_argument("--points", type=int, default=16,
                        help="number of s values in [0, 3/4]")
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error(f"--points must be at least 1, got {args.points}")
    if (exc := _output_error(args.out)) is not None:
        parser.error(f"cannot write output: {exc}")

    try:
        cfg = parse_config({"bath": {"lambda": [float(x) for x in args.lam.split(",")],
                                     "B": [0.0, 0.0, args.b]},
                            "initial": {"werner": {"s": 0.0}}})
        # ClosedFormNotApplicable, a ValueError, refuses rates of rank <= 1
        stationary_family(build_block(cfg))
    except ValueError as exc:
        parser.error(str(exc))

    rows = []
    for s, c_closed, c_inf, predicted in sweep_rows(
            cfg, "s", np.linspace(0.0, 0.75, args.points)):
        c0 = concurrence(convert(werner_state(s)))
        measured = c_inf - c0
        # the linear prediction describes the regime where neither endpoint
        # clamps to zero (2s <= 1 keeps C0 = 1 - 2s unclamped; an entangled
        # equilibrium keeps the final value unclamped)
        valid = 2 * s <= 1 and c_closed > 0
        rows.append((s, c0, c_inf, measured, predicted, valid))
        note = "" if valid else "  (past threshold, prediction not applicable)"
        print(f"s = {s:6.4f}  C0 = {c0:8.6f}  Cinf = {c_inf:8.6f}  "
              f"dC = {measured:+.6f}  predicted = {predicted:+.6f}{note}")

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("s,c_initial,c_final,delta_measured,delta_predicted,"
                 "prediction_applicable\n")
        for *vals, valid in rows:
            fh.write(",".join(f"{v:.15g}" for v in vals)
                     + f",{int(valid)}\n")

    applicable = [r for r in rows if r[5]]
    if applicable:
        mismatch = max(abs(r[3] - r[4]) for r in applicable)
        print(f"\nmax |measured - predicted| over {len(applicable)} "
              f"applicable rows = {mismatch:.3e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
