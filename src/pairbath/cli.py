"""Batch front end: trajectory runs, equilibrium reports, parameter sweeps,
and the self-check suites.

Exit codes: 0 ok, 1 configuration error or an output file that cannot be
written, 2 a sampled state or a sweep row's end state outside the positive
cone (a generator that is not completely positive, or a step dt*||G||_1 too
large for the exact step's rounding), 3 closed form not applicable (without
--numeric-only), 4 self-check failure.
"""

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import selfcheck
from ._csvtext import format_rows
from .config import (WERNER_KEY, ConfigError, build_block, build_initial,
                     load_config)
from .entanglement import concurrence, concurrence_closed
from .generator import (IntegrationAccuracyError, _check_samples, evolve,
                        final_map)
from .pauli_algebra import tau_of
from .steady_state import (ClosedFormNotApplicable, equilibrium_components,
                           liouvillian_null_space, stationary_family,
                           stationary_member)

COEFF_COLUMNS = [f"r{a}{b}" for a in range(4) for b in range(4) if (a, b) != (0, 0)]
TRAJECTORY_HEADER = "t,tau,trace_err,min_pt_eig,concurrence," + ",".join(COEFF_COLUMNS)
COEFF_COMMENT = ("# r{a}{b} = coefficient of sigma_a x sigma_b "
                 "(sigma_0 = identity), ordered (0,1),(0,2),...,(3,3)")
SWEEP_HEADER = "value,c_closed,c_evolved,delta_c"


# coefficient-vector index of each entry of COEFF_COLUMNS
_COEFF_ORDER = [0, 1, 2, 3, 6, 7, 8, 4, 9, 10, 11, 5, 12, 13, 14]
_TRAJECTORY_ROW = ",".join(["{:.15g}"] * (5 + len(COEFF_COLUMNS))) + "\n"
_ROWS_PER_WRITE = 256


def _fmt(x):
    return f"{x:.15g}"


def _cannot_write(exc):
    print(f"cannot write output: {exc}", file=sys.stderr)
    return 1


def _output_error(out_path):
    """The error that writing `out_path` would meet, checked before any work
    and without creating anything: the path is a directory, or its directory
    is missing or not writable.  None when none of these holds."""
    directory = os.path.dirname(out_path) or "."
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOENT
    elif not os.access(directory, os.W_OK):
        code = errno.EACCES
    else:
        return None
    return OSError(code, os.strerror(code), out_path)


def _write_text(out_path, pieces):
    """Write the strings of `pieces` to `out_path`.

    Returns the exit code: 0, or 1 with `cannot write output: ...` on stderr
    when the file cannot be opened or written.
    """
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
    except OSError as exc:
        return _cannot_write(exc)
    return 0


def _trajectory_text(table):
    yield COEFF_COMMENT + "\n" + TRAJECTORY_HEADER + "\n"
    for lo in range(0, len(table), _ROWS_PER_WRITE):
        rows = table[lo:lo + _ROWS_PER_WRITE]
        text = format_rows(rows)
        if text is None:  # a cell the vectorised formatter cannot certify
            text = (_TRAJECTORY_ROW * len(rows)).format(*rows.ravel().tolist())
        yield text


def cmd_evolve(config_path, out_path):
    """Integrate the configured run and write the trajectory CSV."""
    if (exc := _output_error(out_path)) is not None:
        return _cannot_write(exc)
    cfg = load_config(config_path)
    block = build_block(cfg)
    initial = build_initial(cfg)
    try:
        tr = evolve(initial, block,
                    t_end=cfg.integrator["t_end"], dt=cfg.integrator["dt"],
                    sample_every=cfg.integrator["sample_every"])
    except ValueError as exc:
        raise ConfigError(f"integrator: {exc}") from None
    table = np.column_stack([tr.times, tr.tau, tr.trace_err, tr.min_pt_eig,
                             tr.concurrence, tr.coeffs[:, _COEFF_ORDER]])
    del tr  # the table holds all that is written; free the samples first
    return _write_text(out_path, _trajectory_text(table))


def cmd_steady(config_path, numeric_only=False):
    """Print the equilibrium report for the configured bath and initial state."""
    cfg = load_config(config_path)
    block = build_block(cfg)
    initial = build_initial(cfg)
    tau0 = tau_of(initial)

    try:
        fam = stationary_family(block)
    except ClosedFormNotApplicable:
        if not numeric_only:
            raise
        fam = None

    sol = liouvillian_null_space(block)
    member = stationary_member(sol, initial)
    nullspace = {"dimension": sol["dimension"],
                 "full_rank_found": sol["full_rank_member"] is not None}
    if fam is None:
        report = {"closed_form_applicable": False,
                  "tau": tau0,
                  "nullspace": nullspace,
                  "concurrence_numeric": concurrence(member)}
    else:
        closed = concurrence_closed(fam.M, fam.R, tau0)
        eq = equilibrium_components(tau0, fam)
        nullspace["agreement_residual"] = float(np.abs(member - eq.state).max())
        report = {"closed_form_applicable": True,
                  "M": fam.M, "N": fam.N, "R": fam.R,
                  "Delta": closed["Delta"], "threshold": closed["threshold"],
                  "tau": tau0,
                  "components": eq.components,
                  "concurrence_closed": closed["C"],
                  "nullspace": nullspace,
                  "boundary": block.boundary}
    print(json.dumps(report, indent=2))
    return 0


def _sweep_config(cfg, param, value):
    """The row's configuration: `cfg` with the swept field set to `value`."""
    bath, initial = cfg.bath, cfg.initial
    if param == "tau":
        if not -3.0 <= value <= 1.0:
            raise ConfigError(f"sweep tau value {value} outside [-3, 1]")
        # canonical representative of the tau class: singlet/triplet mix
        initial = {"pauli": {"r0i": [0.0] * 3, "ri0": [0.0] * 3,
                             "rij": np.diag([value / 3.0] * 3).tolist()}}
    elif param == "s":
        if WERNER_KEY not in initial:
            raise ConfigError("sweep parameter 's' needs a werner initial state")
        initial = {WERNER_KEY: {"s": value}}
    elif param == "B":
        B0 = np.asarray(bath["B"], dtype=float)
        norm = np.linalg.norm(B0)
        direction = B0 / norm if norm > 0 else np.array([0.0, 0.0, 1.0])
        bath = {**bath, "B": (value * direction).tolist()}
    elif param.startswith("lambda_"):
        if "lambda" not in bath:
            raise ConfigError(f"sweep parameter '{param}' needs a bath "
                              "given by rates, not a full matrix")
        lam = list(bath["lambda"])
        lam[int(param[-1]) - 1] = value
        bath = {**bath, "lambda": lam}
    else:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    return dataclasses.replace(cfg, bath=bath, initial=initial)


def sweep_rows(cfg, param, values):
    """Yield `(value, c_closed, c_evolved, delta_c)` for each swept value.

    Each row is `cfg` with one field edited (see `_sweep_config`).  Its
    `c_evolved` is the concurrence of the state at t_f, the last time
    `evolve` would sample, taken as one product with the bath's end-time
    map `final_map` and checked as `evolve` checks its samples;
    `integrator.sample_every` is not read.  `delta_c` is the predicted
    werner-family enhancement, None when the row's state is not werner.
    The stationary family and the end-time map are rebuilt only when the
    row's bath changes.
    """
    block = build_block(cfg)  # the configured bath must be valid as well
    bath, fam = cfg.bath, None
    for value in values:
        row = _sweep_config(cfg, param, value)
        if row.bath != bath:
            try:
                block = build_block(row)
            except ConfigError as exc:
                raise ConfigError(f"sweep {param} value {value}: {exc}") from None
            bath, fam = row.bath, None
        initial = build_initial(row)
        if fam is None:
            fam = stationary_family(block)
            try:
                M, t_f = final_map(block, t_end=row.integrator["t_end"],
                                   dt=row.integrator["dt"])
            except ValueError as exc:
                raise ConfigError(f"integrator: {exc}") from None
        closed = concurrence_closed(fam.M, fam.R, tau_of(initial))
        with np.errstate(over="ignore", invalid="ignore"):
            x_f = M[:15] @ np.append(initial, 1.0)
        c_evolved = concurrence(_check_samples(x_f[None], [t_f])[0])
        delta_c = None
        if WERNER_KEY in row.initial:
            s = row.initial[WERNER_KEY]["s"]
            delta_c = 2 * s * (1 - (2 + closed["Delta"]) / (3 + 2 * fam.R))
        yield value, closed["C"], c_evolved, delta_c


def cmd_sweep(config_path, param, values, out_path):
    """One asymptotic-concurrence row per swept value."""
    if (exc := _output_error(out_path)) is not None:
        return _cannot_write(exc)
    cfg = load_config(config_path)
    rows = list(sweep_rows(cfg, param, values))
    lines = [f"# sweep parameter: {param}", SWEEP_HEADER]
    lines += [",".join("" if x is None else _fmt(x) for x in row) for row in rows]
    return _write_text(out_path, ["\n".join(lines) + "\n"])


def cmd_check():
    """Run every invariant suite; report one PASS/FAIL line each, with the
    suite's wall time."""
    first_fail = None
    for name, ok, detail, seconds in selfcheck.run_all():
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail}; {seconds:.2f} s)")
        if not ok and first_fail is None:
            first_fail = name
    if first_fail is not None:
        print(f"self-check failed: {first_fail}", file=sys.stderr)
        return 4
    return 0


def _parse_values(text):
    error = ConfigError(f"values: expected a non-empty comma-separated list "
                        f"of finite numbers, got {text!r}")
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise error from None
    if not values or not all(math.isfinite(v) for v in values):
        raise error
    return values


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pairbath",
        description="Two qubits in a common Markovian bath: trajectories, "
                    "equilibria, sweeps, self-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="integrate a trajectory to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("steady", help="equilibrium report for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--numeric-only", action="store_true",
                   help="allow baths outside the closed-form family")

    p = sub.add_parser("sweep", help="asymptotic concurrence over a parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True,
                   choices=["tau", "B", "s", "lambda_1", "lambda_2", "lambda_3"])
    p.add_argument("--values", required=True,
                   help="comma-separated list of parameter values")
    p.add_argument("--out", required=True)

    sub.add_parser("check", help="run the invariant suites")
    return parser


def _join_values_flag(argv):
    """Fold `--values <list>` into `--values=<list>` so that lists starting
    with a negative number (tau sweeps) survive option parsing."""
    out, k = [], 0
    while k < len(argv):
        if argv[k] == "--values" and k + 1 < len(argv):
            out.append(f"--values={argv[k + 1]}")
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_values_flag(argv))
    try:
        if args.command == "evolve":
            return cmd_evolve(args.config, args.out)
        if args.command == "steady":
            return cmd_steady(args.config, numeric_only=args.numeric_only)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param,
                             _parse_values(args.values), args.out)
        return cmd_check()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationAccuracyError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 2
    except ClosedFormNotApplicable as exc:
        print(f"closed form not applicable: {exc} "
              f"(use 'steady --numeric-only')", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
