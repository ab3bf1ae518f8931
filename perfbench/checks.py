"""Output checks, one per operation.  A failed check counts the operation as
failed.  The closed-form references are taken from pairbath before any
tracing wrapper is installed, so checks never show up in the spans."""

import json
import math

import numpy as np

from pairbath import cli
from pairbath import (concurrence, equilibrium_components, make_bath,
                      stationary_family)

TAU_DRIFT_TOL = 1e-9
TRACE_ERR_TOL = 1e-12
SWEEP_TOL = 1e-5            # README: closed and evolved agree within 1e-5
CLOSED_FORM_TOL = 1e-8      # c_closed vs Wootters on the same closed-form state
RESIDUAL_TOL = 1e-9
TAU_REPORT_TOL = 1e-9


class CheckFailed(Exception):
    """The operation's output is wrong; the message names what."""


def _read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_trajectory(op, stdout):
    lines = _read_lines(op.out)
    if len(lines) < 2 or lines[1] != cli.TRAJECTORY_HEADER:
        raise CheckFailed("trajectory header differs from cli.TRAJECTORY_HEADER")
    rows = lines[2:]
    if len(rows) != op.expect["samples"]:
        raise CheckFailed(f"{len(rows)} rows, expected {op.expect['samples']}")
    tau0 = op.expect["tau0"]
    drift = trace_err = 0.0
    for row in rows:
        _, tau, err, _ = row.split(",", 3)
        drift = max(drift, abs(float(tau) - tau0))
        trace_err = max(trace_err, float(err))
    if not drift <= TAU_DRIFT_TOL:
        raise CheckFailed(f"max |tau - tau0| = {drift:.3e} > {TAU_DRIFT_TOL}")
    if not trace_err <= TRACE_ERR_TOL:
        raise CheckFailed(f"max trace_err = {trace_err:.3e} > {TRACE_ERR_TOL}")
    return {}


def _sweep_row_inputs(op, value):
    """Block and tau of one sweep row, rebuilt from the config the way the
    README defines each swept parameter."""
    bath, param = op.expect["bath"], op.expect["param"]
    B = np.asarray(bath["B"], dtype=float)
    A = np.diag(bath["lambda"]) if "lambda" in bath else np.asarray(bath["A"])
    tau0 = op.expect["tau0"]
    if param == "tau":
        tau0 = value
    elif param == "s":
        tau0 = 4 * value - 3
    elif param == "B":
        B = value * B / np.linalg.norm(B)
    else:
        lam = list(bath["lambda"])
        lam[int(param[-1]) - 1] = value
        A = np.diag(lam)
    return make_bath(A, B), tau0


def check_sweep(op, stdout):
    lines = _read_lines(op.out)
    if len(lines) < 2 or lines[1] != cli.SWEEP_HEADER:
        raise CheckFailed("sweep header differs from cli.SWEEP_HEADER")
    rows = lines[2:]
    values = op.expect["values"]
    if len(rows) != len(values):
        raise CheckFailed(f"{len(rows)} rows, expected {len(values)}")
    mismatch, worst = 0, 0.0
    for row, value in zip(rows, values):
        v, c_closed, c_evolved, _ = row.split(",")
        if not math.isclose(float(v), value, rel_tol=1e-12, abs_tol=1e-12):
            raise CheckFailed(f"row value {v} differs from requested {value!r}")
        block, tau0 = _sweep_row_inputs(op, value)
        c_ref = concurrence(equilibrium_components(tau0, stationary_family(block)).state)
        err = abs(float(c_evolved) - c_ref)
        worst = max(worst, err)
        if not err <= SWEEP_TOL:
            raise CheckFailed(f"{op.expect['param']}={value!r}: c_evolved "
                              f"{c_evolved} vs closed-form state {c_ref:.15g}")
        mismatch += abs(float(c_closed) - c_ref) > CLOSED_FORM_TOL
    return {"closed_form_mismatch": mismatch, "max_c_error": worst}


def check_equilibria(op, stdout):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"steady output is not JSON: {exc}") from None
    if report.get("closed_form_applicable") is not op.expect["closed"]:
        raise CheckFailed("closed_form_applicable = "
                          f"{report.get('closed_form_applicable')!r}")
    if not abs(report["tau"] - op.expect["tau0"]) <= TAU_REPORT_TOL:
        raise CheckFailed(f"tau {report['tau']!r}, expected {op.expect['tau0']!r}")
    if op.expect["closed"]:
        ns = report["nullspace"]
        if ns["dimension"] != 1:
            raise CheckFailed(f"null space dimension {ns['dimension']} on an "
                              f"interior bath (f = {op.expect['f']:.4f})")
        res = ns["agreement_residual"]
        if res is None or not res <= RESIDUAL_TOL:
            raise CheckFailed(f"agreement_residual {res!r} > {RESIDUAL_TOL} "
                              f"(f = {op.expect['f']:.4f})")
    return {}


CHECKS = {"trajectory": check_trajectory, "sweep": check_sweep,
          "equilibria": check_equilibria}
