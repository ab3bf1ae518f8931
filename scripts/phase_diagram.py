"""Asymptotic-entanglement phase diagram over (tau, bath-vector strength).

The equilibrium concurrence depends on the initial state only through the
conserved correlation trace tau, and on the bath through the stationary
invariants (M, N, R).  With the rates fixed and the bath vector written as
b = f * sqrt(lam1 * lam2), the plane (tau, f) splits into an entangled and
a separable phase separated by the threshold curve tau*(f), the edge of the
entangled interval that contains tau = -3; with unequal transverse rates a
second entangled interval reaches up to tau = 1 where 8|N| > 1 - 2R.  This
script tabulates the closed-form equilibrium concurrence, both X-state
channels, on a grid and writes one CSV row per grid point, plus the
threshold location for each f.

Usage:
    python scripts/phase_diagram.py --out phase_diagram.csv \
        [--lam 1,1,1] [--tau-points 81] [--f-points 41] [--check-evolve]
"""

import argparse
import os
import sys

import numpy as np

from pairbath import concurrence_closed, make_bath, stationary_family
from pairbath.cli import _output_error, sweep_rows
from pairbath.config import build_block, parse_config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="output CSV path; the thresholds go to "
                             "<stem>_threshold<suffix> beside it")
    parser.add_argument("--lam", default="1,1,1",
                        help="comma-separated relaxation rates")
    parser.add_argument("--tau-points", type=int, default=81)
    parser.add_argument("--f-points", type=int, default=41)
    parser.add_argument("--check-evolve", action="store_true",
                        help="spot-check grid corners by direct integration")
    args = parser.parse_args(argv)
    for flag, n in (("--tau-points", args.tau_points), ("--f-points", args.f_points)):
        if n < 1:
            parser.error(f"{flag} must be at least 1, got {n}")
    stem, suffix = os.path.splitext(args.out)
    threshold_path = f"{stem}_threshold{suffix}"
    for path in (args.out, threshold_path):
        if (exc := _output_error(path)) is not None:
            parser.error(f"cannot write output: {exc}")

    try:
        lam = [float(x) for x in args.lam.split(",")]
        # ClosedFormNotApplicable, a ValueError, refuses rates of rank <= 1
        stationary_family(build_block(parse_config(
            {"bath": {"lambda": lam, "B": [0.0, 0.0, 0.0]},
             "initial": {"werner": {"s": 0.0}}})))
    except ValueError as exc:
        parser.error(f"--lam {args.lam}: {exc}")
    b_max = np.sqrt(lam[0] * lam[1])
    taus = np.linspace(-3.0, 1.0, args.tau_points)
    fs = np.linspace(0.0, 0.999, args.f_points)

    rows, thresholds = [], []
    for f in fs:
        block = make_bath(np.diag(lam), np.array([0.0, 0.0, f * b_max]))
        fam = stationary_family(block)
        closed = concurrence_closed(fam.M, fam.N, fam.R, 0.0)
        thresholds.append((f, closed["threshold"]))
        for tau in taus:
            c = concurrence_closed(fam.M, fam.N, fam.R, tau)["C"]
            rows.append((tau, f, c))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("# equilibrium concurrence on the (tau, f) grid; "
                 "f = |B| / sqrt(lam1*lam2)\n")
        fh.write("tau,f,concurrence\n")
        for row in rows:
            fh.write(",".join(f"{v:.15g}" for v in row) + "\n")

    with open(threshold_path, "w", encoding="utf-8") as fh:
        fh.write("f,tau_threshold\n")
        for f, thr in thresholds:
            fh.write(f"{f:.15g},{thr:.15g}\n")

    entangled = sum(1 for _, _, c in rows if c > 0)
    print(f"grid {args.tau_points} x {args.f_points}: "
          f"{entangled}/{len(rows)} entangled points")
    print(f"threshold range: tau* in [{min(t for _, t in thresholds):.4f}, "
          f"{max(t for _, t in thresholds):.4f}]")
    print(f"wrote {args.out} and {threshold_path}")

    if args.check_evolve:
        # stay away from f ~ 1: the spectral gap does not close there, but it
        # shrinks toward 2 lam3 while the default horizon t = 50/scale follows
        # the fastest rate, so a small lam3 leaves the equilibrium unreached
        # (ROADMAP item 4)
        worst = 0.0
        for f in (0.3, 0.7):
            cfg = parse_config({"bath": {"lambda": lam, "B": [0.0, 0.0, f * b_max]},
                                "initial": {"werner": {"s": 0.0}}})
            for _, c_closed, c_num, _ in sweep_rows(cfg, "tau", (-3.0, -1.5, 0.5)):
                worst = max(worst, abs(c_num - c_closed))
        print(f"integration spot-check: max |closed - evolved| = {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
