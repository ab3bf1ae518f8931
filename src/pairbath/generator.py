"""The dissipative generator in its equivalent forms, plus exact propagation.

Four representations of the same map are kept deliberately separate so they
can cross-check each other: the matrix form over the collective operators,
the 15 coupled component equations, the diagonal form through the square
root of the bath block, and the general form over any 6x6 Hermitian
coefficient matrix C (a common bath is C = `assemble_full_C(block)`).  The
only production form is the 16x16 affine generator G on [c, 1] of
`compile_generator`, exponentiated by `evolve` and `final_map` and split
into its stationary projector by the null-space solver: one contraction of
the 36 real parameters of C with a tensor built once, on first use, from 36
stacked evaluations of the general form, one per unit Hermitian matrix.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bath import KossakowskiBlock, assemble_full_C, zero_floor
from .entanglement import concurrence, partial_transpose, xstate_measures
from .pauli_algebra import (AXIS_RELABEL, BIG_SIGMA, EXPANSION,
                            STATE_EIG_FLOOR, TAU_ENTRIES,
                            X_OFF_ENTRIES, assemble_matrices, project_matrices)

# cached products Sigma_i Sigma_j for the anticommutator terms
_SIG_PROD = [[BIG_SIGMA[i] @ BIG_SIGMA[j] for j in range(3)] for i in range(3)]

_F_OPS = EXPANSION[[3, 4, 5, 0, 1, 2]]

# Samples that `evolve` checks and measures in one batch.  A bounded batch
# keeps the eigh/SVD temporaries small however many samples a run takes.
RECORD_CHUNK = 256

# Samples that `evolve` propagates with one product, from the powers
# stride^1 ... stride^STRIDE_BLOCK of the step matrix between samples.
STRIDE_BLOCK = 32


class IntegrationAccuracyError(RuntimeError):
    """Positivity was violated beyond tolerance along a trajectory."""


def rhs_equal_blocks(state, block):
    """Generator in the collective-operator matrix form.

    state is a 4x4 density matrix; returns the (traceless, Hermitian) time
    derivative.
    """
    herm = block.herm
    out = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            sp = _SIG_PROD[i][j]
            out += herm[i, j] * (BIG_SIGMA[j] @ state @ BIG_SIGMA[i]
                                 - 0.5 * (sp @ state + state @ sp))
    return out


def rhs_components(state, block):
    """Generator acting on the 15 real coefficients directly.

    `state` is a (15,) coefficient vector in `EXPANSION` order (r0i, ri0,
    then rij row-major); returns its time derivative, a (15,) vector in the
    same order.  Works for any symmetric A and vector B, no principal frame
    required.  The correlation-trace tau enters only through the
    inhomogeneity and the diagonal counterterm, which is why it is
    conserved by this dynamics.
    """
    A, B = block.A, block.B
    At = block.A_tr
    state = np.asarray(state, dtype=float)
    r0, r1, rij = state[:3], state[3:6], state[6:].reshape(3, 3)
    tau = rij.trace()

    inhom = 2 * (2 + tau) * B
    d0 = -2 * At * r0 + 2 * (A @ r0 - rij @ B) + inhom
    d1 = -2 * At * r1 + 2 * (A @ r1 - rij.T @ B) + inhom

    Arij = A @ rij
    ArijT = A @ rij.T
    dij = (-4 * At * (rij + rij.T)
           + 2 * (Arij + ArijT.T)
           - 4 * A * tau
           + 4 * (ArijT + Arij.T)
           + 2 * (np.outer(B, r1) + np.outer(r0, B))
           + 4 * (np.outer(B, r0) + np.outer(r1, B)))
    dij += (4 * (At * tau - float(np.sum(A * rij.T)))
            - 2 * float(B @ (r0 + r1))) * np.eye(3)
    return np.concatenate([d0, d1, dij.ravel()])


def _check_coefficient_matrix(C):
    """C as a complex array, or ValueError unless it is 6x6, finite, and
    Hermitian within 1e-10, with C/2 PSD by `bath.zero_floor`."""
    C = np.asarray(C, dtype=complex)
    if C.shape != (6, 6):
        raise ValueError(f"coefficient matrix has shape {C.shape}, not (6, 6)")
    if not np.isfinite(C).all():
        raise ValueError("coefficient matrix has non-finite entries")
    if np.abs(C - C.conj().T).max() > 1e-10:
        raise ValueError("coefficient matrix is not Hermitian")
    w = np.linalg.eigvalsh(C / 2)
    if w[0] < -zero_floor(w):
        raise ValueError(f"coefficient matrix has negative eigenvalue {2 * w[0]:.3e}")
    return C


def _lindblad_sum(state, C):
    """sum_ab C[a, b] (F_b rho F_a - {F_a F_b, rho} / 2) for any 6x6 C, on
    one 4x4 state or a stack of them."""
    out = np.zeros(np.shape(state), dtype=complex)
    for a in range(6):
        Fa = _F_OPS[a]
        for b in range(6):
            if C[a, b] == 0:
                continue
            Fb = _F_OPS[b]
            fab = Fa @ Fb
            out += C[a, b] * (Fb @ state @ Fa
                              - 0.5 * (fab @ state + state @ fab))
    return out


def rhs_general(state, C):
    """Generator for an arbitrary 6x6 Hermitian PSD coefficient matrix.

    The six operators are sigma_i x 1 (first three) and 1 x sigma_i (last
    three).  With all four sub-blocks equal this reproduces rhs_equal_blocks.
    """
    return _lindblad_sum(state, _check_coefficient_matrix(C))


# the 36 real parameters of a Hermitian 6x6 C in its flattened view(float):
# the diagonal, then the real and the imaginary parts of the upper triangle
_TRIU6 = np.ravel_multi_index(np.triu_indices(6, 1), (6, 6))
_THETA = np.concatenate([2 * np.arange(0, 36, 7), 2 * _TRIU6, 2 * _TRIU6 + 1])


@cache
def _generator_tensor():
    """(36, 15, 16) tensor T with [L | c0] = sum_p theta_p T[p].

    T[p] is one `_lindblad_sum` of the unit Hermitian matrix of parameter p
    on the 15 unit coefficient vectors and the zero vector, stacked, and
    all 36 stacks go through one `project_matrices`: at the unit vectors
    minus at the zero vector (columns 0-14), and at the zero vector (column
    15).  Unit matrices are not positive, so the build bypasses the check of
    `rhs_general`.  Every entry is a multiple of 1/2, so T is exact.
    Read-only, as every caller shares it.
    """
    states = assemble_matrices(np.vstack([np.eye(15), np.zeros(15)]))
    units = np.zeros((36, 6, 6), dtype=complex)
    units.view(float).reshape(36, 72)[range(36), _THETA] = 1.0
    units += np.triu(units, 1).conj().swapaxes(1, 2)
    sums = np.array([_lindblad_sum(states, u) for u in units])
    T = np.ascontiguousarray(project_matrices(sums).swapaxes(1, 2))
    T[:, :, :15] -= T[:, :, 15:]
    T.flags.writeable = False
    return T


def compile_generator(C):
    """The 16x16 affine generator G = [[L, c0], [0, 0]] acting on [c, 1].

    d[c, 1]/dt = G [c, 1] is dc/dt = L c + c0 over the 15 coefficients, and
    the last row is zero.  C is a Hermitian 6x6 coefficient matrix, such as
    `assemble_full_C` of a bath block; only its diagonal and upper triangle
    are read.  The generator is linear in the 36 real parameters of C, so
    [L | c0] is one contraction of them with `_generator_tensor`.  This is
    the only production form of the generator, exponentiated by
    `_step_matrix` and split by `liouvillian_null_space`; `rhs_components`
    is a check.
    """
    theta = np.ascontiguousarray(C, dtype=complex).view(float).ravel()[_THETA]
    G = np.zeros((16, 16))
    G[:15] = (theta @ _generator_tensor().reshape(36, 240)).reshape(15, 16)
    return G


def lindblad_operators(block):
    """The three diagonal-form operators V_i = sum_j sqrt[i, j] Sigma_j, with
    sqrt the Hermitian square root of block.herm, its eigenvalues clipped at
    0.0: `make_bath` admits only those of rounding below it."""
    w, U = np.linalg.eigh(block.herm)
    sqrt = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.conj().T
    return [sum(sqrt[i, j] * BIG_SIGMA[j] for j in range(3)) for i in range(3)]


def diagonal_form_check(block, state):
    """Max deviation of the diagonal (square-root) form from the matrix form.

    The single-sum Lindblad expression over the `lindblad_operators` V_i
    must reproduce rhs_equal_blocks identically.
    """
    out = np.zeros((4, 4), dtype=complex)
    for V in lindblad_operators(block):
        Vd = V.conj().T
        VdV = Vd @ V
        out += V @ state @ Vd - 0.5 * (VdV @ state + state @ VdV)
    return float(np.abs(out - rhs_equal_blocks(state, block)).max())


@dataclass
class Trajectory:
    """Sampled solution of the master equation.

    `coeffs` is the (n, 15) array of sampled coefficient vectors, one row
    per entry of `times`, in `EXPANSION` order (r0i, ri0, then rij
    row-major), so a row is a state `evolve` takes as `initial`, and `tau`
    their correlation traces.  Per sample, `trace_err` is |trace - 1|, an
    integrator-health diagnostic, `min_pt_eig` the smallest eigenvalue of
    the partial transpose, and `concurrence` Wootters' concurrence.  A
    sample whose partial transpose has no negative eigenvalue is separable
    (Horodecki, Horodecki & Horodecki, PLA 223, 1, 1996), so its
    concurrence is exactly 0.0.  On a batch of X-states `evolve` takes the
    last two columns from closed forms, which match the matrix route to
    about 1e-15, not bit for bit.
    """

    times: np.ndarray
    coeffs: np.ndarray
    tau: np.ndarray
    trace_err: np.ndarray
    min_pt_eig: np.ndarray
    concurrence: np.ndarray


def rate_scale(block):
    """Characteristic rate used for default step and horizon choices."""
    lam_max = float(np.linalg.eigvalsh(block.A).max())
    return max(lam_max, float(np.linalg.norm(block.B)), 1.0)


def _stride_powers(stride, count):
    """The matrices stride^1 ... stride^count stacked as a (16 count, 16) array.

    Row block j - 1 is stride^j, so one product with a state [c, 1] gives
    the next `count` samples in order, flattened.
    """
    powers = np.empty((count, 16, 16))
    if count:
        powers[0] = stride
    for j in range(1, count):
        np.dot(stride, powers[j - 1], out=powers[j])
    return powers.reshape(16 * count, 16)


# 1/k! at [j, i], k = 5j + i: exp(X) ~ sum_j X^5j sum_i _TAYLOR[j, i] X^i
_TAYLOR = 1 / np.array([math.factorial(k) for k in range(20)], dtype=float).reshape(4, 5)


def _step_matrix(G, dt):
    """exp(dt G), G the affine generator of `compile_generator`: the exact
    step of dc/dt = L c + c0 as a 16x16 matrix acting on [c, 1].

    Scaling and squaring (Moler & Van Loan, SIAM Review 45, 3, 2003): the
    degree-19 Taylor polynomial, truncation error below 1e-18, at X =
    dt G / 2^s with the least s that brings the 1-norm of X to 1 or below,
    squared s times.  Few squarings keep the rounding error small enough
    for a thousand steps in one stride.  The polynomial is evaluated in
    X^5 from X^1 ... X^5 (Paterson & Stockmeyer, SIAM J. Comput. 2, 60,
    1973): seven matrix products.  Raises ValueError when dt |G|_1 is past
    2^1023, infinite included.
    """
    norm = dt * np.abs(G).sum(axis=0).max()
    if not norm <= 2.0 ** 1023:  # else 2^s is past the float range
        raise ValueError(f"step {dt:g} times the generator's 1-norm, {norm:g}, "
                         "is past 2^1023; need a smaller dt or t_end")
    s = math.ceil(math.log2(norm)) if norm > 1 else 0
    powers = _stride_powers(dt / 2 ** s * G, 5)
    inner = _TAYLOR[:, 1:] @ powers[:64].reshape(4, 256)
    inner[:, ::17] += _TAYLOR[:, :1]
    inner = inner.reshape(4, 16, 16)
    P = inner[3]
    for j in (2, 1, 0):
        P = inner[j] + powers[64:] @ P
    for _ in range(s):
        P = P @ P
    return P


def _check_samples(vectors, times):
    """The samples' density matrices, `assemble_matrices(vectors)`; raise on
    the first sample, in time order, that is not a state.

    A sample fails with a non-finite coefficient or an eigenvalue below
    STATE_EIG_FLOOR, the floor `concurrence` accepts.  One batched Cholesky
    factorization of the samples shifted by that floor clears the usual
    case; only when it fails are the eigenvalues taken to find the sample.
    """
    cause = ("the generator is not completely positive, or dt*||G||_1 is "
             "too large for the step to stay exact")
    finite = np.isfinite(vectors).all(axis=1)
    n_ok = len(finite) if finite.all() else int(np.argmin(finite))
    mats = assemble_matrices(vectors[:n_ok])
    try:
        np.linalg.cholesky(mats - STATE_EIG_FLOOR * np.eye(4))
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(mats).min(axis=-1)
        low = np.flatnonzero(min_eig < STATE_EIG_FLOOR)
        if low.size:
            k = low[0]
            raise IntegrationAccuracyError(
                f"state eigenvalue {min_eig[k]:.3e} at t={times[k]:.6g}; {cause}")
    if n_ok < len(finite):
        raise IntegrationAccuracyError(
            f"non-finite state coefficients at t={times[n_ok]:.6g}; {cause}")
    return mats


def _horizon(bath, t_end, dt):
    """(C, dt, n): the coefficient matrix of `bath`, the step, and the step
    count n = round(t_end / dt) of `evolve` and `final_map`.

    For a `KossakowskiBlock`, dt = 0.01 / rate_scale and t_end = 50 /
    rate_scale by default; a 6x6 coefficient matrix needs both given.
    Raises ValueError, naming dt and t_end, unless 0 < dt <= t_end and
    t_end / dt is finite.
    """
    if isinstance(bath, KossakowskiBlock):
        scale = rate_scale(bath)
        if dt is None:
            dt = 0.01 / scale
        if t_end is None:
            t_end = 50.0 / scale
        C = assemble_full_C(bath)
    else:
        C = _check_coefficient_matrix(bath)
        if t_end is None or dt is None:
            raise ValueError("a coefficient matrix needs an explicit t_end and dt")
    if not (t_end > 0 and 0 < dt <= t_end and math.isfinite(t_end / dt)):
        raise ValueError("need 0 < dt <= t_end and a finite t_end / dt, "
                         f"got dt = {dt:g}, t_end = {t_end:g}")
    return C, dt, int(round(t_end / dt))


def final_map(bath, t_end=None, dt=None):
    """(M, t_f): the 16x16 map exp(t_f G) acting on [c, 1], and t_f.

    t_f = n dt is the last time `evolve` samples for the same arguments, so
    M [c0, 1] is that sample's state up to rounding, from one exponential
    instead of n steps.  Like the step of `evolve`, M amplifies rounding by
    about t_f |G|_1.  Raises ValueError on a horizon `evolve` would refuse.
    """
    C, dt, n = _horizon(bath, t_end, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_matrix(compile_generator(C), n * dt), n * dt


def evolve(initial, bath, t_end=None, dt=None, sample_every=10):
    """Propagate the component equations exactly, sampled on a grid of dt.

    `initial` is a (15,) coefficient vector, such as a row of the `coeffs`
    of a `Trajectory`.  `bath` is a `KossakowskiBlock` or a 6x6 coefficient
    matrix, checked as `rhs_general` checks it.  The horizon is
    `_horizon`'s: for a block, dt = 0.01 / rate_scale and t_end = 50 /
    rate_scale by default, so the horizon and resolution follow the fastest
    rate in the block; a matrix needs both given.  A caller that needs only the final state takes it
    from `final_map`, one exponential, instead.  The step is the
    propagator `_step_matrix`, so dt has no stability limit: samples are
    dt * sample_every apart, plus the final time.  Its squarings amplify
    rounding by about dt * |G|_1 (G the augmented generator): for lam =
    (1, 0.5, 0.2), B = (0, 0, 0.3), |G|_1 = 12, one step of dt = 1e4 moves
    tau by 2e-11 and one of dt = 1e12 by 1.3e-3, so dt * |G|_1 near 1e4 or
    below keeps a step within about 1e-12, and past the float range the
    step raises ValueError.
    The stride between samples is the `sample_every`-th power of the step;
    from its powers stride^1 ... stride^STRIDE_BLOCK each block of
    STRIDE_BLOCK samples is one product with the last state of the block
    before.  All samples are propagated first, then checked and measured
    in batches of RECORD_CHUNK, each assembled once by `_check_samples`
    and cleared by one Cholesky factorization when every sample in it is
    a state: the first sampled state, in time order, with a non-finite
    coefficient or an eigenvalue below STATE_EIG_FLOOR (-1e-8) raises
    IntegrationAccuracyError, which a generator that is not completely
    positive causes, or a step too large to stay exact (dt = t_end = 1e100
    on the bath above), before any observable of its batch is computed.
    The observables come from the same matrices, Wootters' concurrence
    only on samples with a negative partial-transpose eigenvalue (0.0 on
    the others).  A batch whose samples are all
    X-states about one axis, their coefficients outside that axis's X
    sector exactly 0.0, takes both from `xstate_measures` after the
    `AXIS_RELABEL` of that axis instead: a diagonal A with B on an axis,
    or B = 0, keeps those zeros exact at every step, so a werner start
    there takes this route throughout.  It matches the matrix route to
    about 1e-15, not bit for bit; every other batch keeps the matrix
    route.  The trace is structurally conserved by the component
    representation; trace_err reports the reconstruction deviation as an
    integrator-health diagnostic.
    """
    C, dt, n_steps = _horizon(bath, t_end, dt)
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    n_strides, rest = divmod(n_steps, sample_every)
    times = np.arange(n_strides + 1) * sample_every * dt
    if rest:
        times = np.append(times, n_steps * dt)
    Y = np.empty((len(times), 16))
    Y[0] = np.append(initial, 1.0)
    # a non-CP generator, or a step too large to stay exact, can overflow
    # (see _check_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        step = _step_matrix(compile_generator(C), dt)
        powers = _stride_powers(np.linalg.matrix_power(step, sample_every),
                                min(STRIDE_BLOCK, n_strides))
        for k in range(0, n_strides, STRIDE_BLOCK):
            block_rows = Y[k + 1:min(k + STRIDE_BLOCK, n_strides) + 1]
            np.dot(powers[:block_rows.size], Y[k], out=block_rows.reshape(-1))
        if rest:
            np.dot(np.linalg.matrix_power(step, rest), Y[-2], out=Y[-1])

    vectors = Y[:, :15]
    trace_err, min_pt_eig, conc = np.empty((3, len(times)))
    for lo in range(0, len(times), RECORD_CHUNK):
        part = slice(lo, lo + RECORD_CHUNK)
        mats = _check_samples(vectors[part], times[part])
        trace_err[part] = np.abs(np.trace(mats, axis1=-2, axis2=-1).real - 1.0)
        rows = vectors[part]
        axis = next((a for a in (2, 0, 1)
                     if not rows[:, AXIS_RELABEL[a, X_OFF_ENTRIES]].any()), None)
        if axis is None:
            min_pt_eig[part] = partial_transpose(mats)[1]
            npt = min_pt_eig[part] < 0
            conc[part] = 0.0
            conc[part][npt] = concurrence(mats[npt])
        else:
            min_pt_eig[part], conc[part] = xstate_measures(
                rows[:, AXIS_RELABEL[axis]])
    return Trajectory(times=times, coeffs=vectors,
                      tau=vectors[:, TAU_ENTRIES].sum(axis=1),
                      trace_err=trace_err, min_pt_eig=min_pt_eig,
                      concurrence=conc)

