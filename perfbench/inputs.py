"""Seeded input generator for the three workloads.

Every operation is a list of `pairbath` command-line arguments plus the
facts its output check needs (expected tau, samples, bath kind, ...).  The
inputs depend only on the workload name and the seed; the program under
test sees nothing but the config files written here.

Baths are drawn across the completely-positive cone of (A, B):

* rates are log-uniform on [0.1, 3] (a 30x spread);
* the bath vector has |B| = f * b_max, where b_max is the largest length that
  keeps the Kossakowski block positive along the chosen direction; one draw
  in four takes f in [0.9, 0.99] (near the positivity boundary), the rest f
  in [0.05, 0.9];
* "lambda" baths give three rates with B on a principal axis, "A" baths
  rotate that geometry by a random orthogonal matrix (full symmetric A), and
  "offaxis" baths point B in a generic direction, outside the closed-form
  family.

Nothing is drawn to avoid the open defects.  Tau sweeps end at tau = 1,
where the closed-form concurrence ignores N (the second X-state channel),
so that defect shows up as the `sweep.closed_form_mismatch` count.  The one
limit set with a defect in mind is the 30x rate spread: past about 100x the
fixed horizon 50/rate_scale leaves sweep endpoints unconverged, every such
row fails its 1e-5 check, and the slow-relaxation share would then decide
the run's failure count rather than the program's speed.  The largest
endpoint error that remains is reported as `sweep.max_c_error`.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RATE_RANGE = (0.1, 3.0)
DEFAULT_STEPS = 5000   # t_end / dt = (50 / scale) / (0.01 / scale) by default
SWEEP_MIN_SAMPLE_EVERY = 100  # `sweep` rows record at most every 100 steps
STATE_KINDS = ("werner", "product", "mixed", "pauli")
SWEEP_PARAMS = ("s", "tau", "B", "lambda")

# Operation k takes its shape (sample_every, bath kind, state kind, swept
# parameter) from k modulo a short cycle: 4 for trajectory and sweep, 3 for
# equilibria.  Only the drawn numbers depend on the seed.
# Distinct inputs written per run; a run that needs more operations reuses
# them in order (pairbath keeps no state between calls).
POOL = {"trajectory": 16, "sweep": 8, "equilibria": 240}


@dataclass
class Op:
    """One closed-loop call of `pairbath.cli.main(argv)` and its check data."""

    argv: list
    kind: str
    out: str | None = None
    expect: dict = field(default_factory=dict)


# ------------------------------------------------------------------ baths

def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _herm(A, B):
    bx, by, bz = B
    eps_b = np.array([[0.0, bz, -by], [-bz, 0.0, bx], [by, -bx, 0.0]])
    return A + 1j * eps_b


def _b_max(A, u):
    """Largest b with A + i eps (b u) positive semi-definite (bisection)."""
    lo, hi = 0.0, float(np.trace(A))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(_herm(A, mid * u))[0] >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _draw_f(rng):
    return float(rng.uniform(0.9, 0.99) if rng.random() < 0.25
                 else rng.uniform(0.05, 0.9))


def draw_bath(rng, kind):
    """Bath section of a config plus the facts the checks need.

    kind is "lambda" (rates, B on a principal axis), "A" (rotated full
    matrix, B on a rotated principal axis) or "offaxis" (rotated full
    matrix, B in a generic direction).
    """
    lam = np.exp(rng.uniform(math.log(RATE_RANGE[0]), math.log(RATE_RANGE[1]), 3))
    f = _draw_f(rng)
    axis = int(rng.integers(3))
    if kind == "offaxis":
        Q = _rotation(rng)
        A = Q @ np.diag(lam) @ Q.T
        A = 0.5 * (A + A.T)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        B = f * _b_max(A, u) * u
        return {"A": A.tolist(), "B": B.tolist()}, {"f": f, "closed": False}
    others = [i for i in range(3) if i != axis]
    b = f * math.sqrt(lam[others[0]] * lam[others[1]]) * rng.choice([-1.0, 1.0])
    B = np.zeros(3)
    B[axis] = b
    info = {"f": f, "closed": True, "lam": lam.tolist(), "axis": axis}
    if kind == "lambda":
        return {"lambda": lam.tolist(), "B": B.tolist()}, info
    Q = _rotation(rng)
    A = Q @ np.diag(lam) @ Q.T
    A = 0.5 * (A + A.T)  # exactly symmetric, so make_bath does not warn
    return {"A": A.tolist(), "B": (Q @ B).tolist()}, info


# ----------------------------------------------------------------- states

def _ket(rng):
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    z /= np.linalg.norm(z)
    return z


def _bloch(z):
    a, b = z
    ab = np.conj(a) * b
    return np.array([2 * ab.real, 2 * ab.imag, abs(a) ** 2 - abs(b) ** 2])


_PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]])]


def draw_state(rng, kind):
    """Initial section of a config and the tau it fixes, computed here
    from the Bloch vectors and correlation matrix, not by pairbath."""
    if kind == "werner":
        s = float(rng.uniform(0.0, 0.75))
        return {"werner": {"s": s}}, 4 * s - 3
    if kind == "product":
        phi, psi = _ket(rng), _ket(rng)
        node = {"product": {"phi": [[z.real, z.imag] for z in phi],
                            "psi": [[z.real, z.imag] for z in psi]}}
        return node, float(_bloch(phi) @ _bloch(psi))
    if kind == "pauli":
        rank = int(rng.integers(1, 5))
        X = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = X @ X.conj().T
        rho /= np.trace(rho).real
        r = [[float(np.trace(rho @ np.kron(_PAULI[a], _PAULI[b])).real)
              for b in range(4)] for a in range(4)]
        rij = [row[1:] for row in r[1:]]
        node = {"pauli": {"r0i": r[0][1:], "ri0": [row[0] for row in r[1:]],
                          "rij": rij}}
        return node, rij[0][0] + rij[1][1] + rij[2][2]
    w = float(rng.uniform(0.1, 0.9))
    werner, tw = draw_state(rng, "werner")
    product, tp = draw_state(rng, "product")
    node = {"mixed": [{"weight": w, **werner}, {"weight": 1.0 - w, **product}]}
    return node, w * tw + (1.0 - w) * tp


# -------------------------------------------------------------- workloads
#
# trajectory: the only workload where per-sample recording (convert,
#   eigvalsh, partial_transpose, concurrence) and CSV writing carry a large
#   share beside RK4 stepping.  sample_every alternates 1 / 10 (5001 or 501
#   rows), baths alternate lambda / rotated A (B off-axis for the latter) and
#   initial states cycle through all four variants, so a recording or I/O
#   change shows here and nowhere else.
# sweep: every row is an evolve with sample_every >= 100, so stepping does
#   almost all the work; --param cycles s, tau, B, lambda_k (k rotating
#   1..3).  A faster step moves this workload most; a faster recording path
#   should leave it unchanged.
# equilibria: steady only, no integration.  Two closed-form baths (lambda,
#   rotated A) per generic off-axis bath run with --numeric-only, so the
#   null-space SVD and its line search dominate, and make_bath,
#   principal_frame and the closed forms are measured too.  Short calls make
#   op latency percentiles and set-up visible; a stepping change should
#   leave it unchanged.

def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _trajectory_op(rng, k, inputs, outputs):
    sample_every = (1, 10)[k % 2]
    bath_kind = ("lambda", "offaxis")[(k // 2) % 2]
    bath, _ = draw_bath(rng, bath_kind)
    initial, tau0 = draw_state(rng, STATE_KINDS[k % 4])
    cfg = _write(inputs / f"traj{k}.json",
                 {"bath": bath, "initial": initial,
                  "integrator": {"sample_every": sample_every}})
    out = str(outputs / f"traj{k}.csv")
    samples = 1 + DEFAULT_STEPS // sample_every + (DEFAULT_STEPS % sample_every > 0)
    return Op(["evolve", "--config", cfg, "--out", out], "trajectory", out,
              {"tau0": tau0, "samples": samples, "steps": DEFAULT_STEPS})


def _sweep_op(rng, k, inputs, outputs):
    param = SWEEP_PARAMS[k % 4]
    bath_kind = "lambda" if param == "lambda" else ("lambda", "A")[(k // 4) % 2]
    bath, info = draw_bath(rng, bath_kind)
    lam, axis = info["lam"], info["axis"]
    state_kind = "werner" if param == "s" else STATE_KINDS[(k // 4) % 4]
    initial, tau0 = draw_state(rng, state_kind)
    if param == "s":
        values = sorted(rng.uniform(0.0, 0.75, 3))
    elif param == "tau":
        values = sorted(rng.uniform(-3.0, 1.0, 2)) + [1.0]
    elif param == "B":
        others = [i for i in range(3) if i != axis]
        b_max = math.sqrt(lam[others[0]] * lam[others[1]])
        values = sorted(b_max * rng.uniform(0.0, 0.99, 3))
    else:
        idx = (k // 4) % 3
        param = f"lambda_{idx + 1}"
        # keep |B| <= 0.99 sqrt(lam_a lam_b) when lam_idx is transverse to B
        b2 = sum(x * x for x in bath["B"])
        lo = RATE_RANGE[0]
        if idx != axis:
            other = next(i for i in range(3) if i not in (idx, axis))
            lo = max(lo, b2 / (0.98 * lam[other]))
        values = sorted(np.exp(rng.uniform(math.log(lo), math.log(RATE_RANGE[1]), 3)))
    values = [float(v) for v in values]
    cfg_obj = {"bath": bath, "initial": initial}
    cfg = _write(inputs / f"sweep{k}.json", cfg_obj)
    out = str(outputs / f"sweep{k}.csv")
    argv = ["sweep", "--config", cfg, "--param", param,
            "--values", ",".join(repr(v) for v in values), "--out", out]
    return Op(argv, "sweep", out,
              {"param": param, "values": values, "bath": bath, "tau0": tau0,
               "steps": DEFAULT_STEPS * len(values),
               "samples": len(values) * (1 + DEFAULT_STEPS // SWEEP_MIN_SAMPLE_EVERY)})


def _equilibria_op(rng, k, inputs, outputs):
    bath_kind = ("lambda", "A", "offaxis")[k % 3]
    bath, info = draw_bath(rng, bath_kind)
    initial, tau0 = draw_state(rng, STATE_KINDS[int(rng.integers(4))])
    cfg = _write(inputs / f"steady{k}.json", {"bath": bath, "initial": initial})
    argv = ["steady", "--config", cfg]
    if not info["closed"]:
        argv.append("--numeric-only")
    return Op(argv, "equilibria", None,
              {"closed": info["closed"], "f": info["f"], "tau0": tau0,
               "steps": 0, "samples": 0})


_MAKERS = {"trajectory": _trajectory_op, "sweep": _sweep_op,
           "equilibria": _equilibria_op}


def make_ops(workload, seed, workdir):
    """Write the workload's config files under workdir and return its ops."""
    workdir = Path(workdir)
    inputs, outputs = workdir / "inputs", workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(_MAKERS).index(workload)])
    make = _MAKERS[workload]
    return [make(rng, k, inputs, outputs) for k in range(POOL[workload])]
