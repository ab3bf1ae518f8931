"""Entanglement measures and the first-order generation witness.

The numerical concurrence is computed through singular values of
W^T (sigma_y x sigma_y) W, where rho = W W^dagger.  W is rho's Cholesky
factor; a matrix whose factorization fails or has a pivot below
_PIVOT_FLOOR (rank-deficient and pure states, and non-states) takes
W = U diag(sqrt(w)) from eigh instead.  Pure states, product states
included, come within about 1e-15 of 2|ad - bc|.  The closed-form
evaluator mirrors the asymptotic formula in (M, R); it ignores N, so it
is exact only when 8|N| <= 1 - 2R, and it is written so that the singlet
input returns exactly 1.0.

`partial_transpose` and `concurrence` accept one 4x4 matrix or a stack of
shape (..., 4, 4).  One matrix gives Python floats; a stack gives arrays
whose entries equal, bit for bit, the results for each matrix alone.
`xstate_measures` gives both numbers of X-states in closed form, from
their seven coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .pauli_algebra import STATE_EIG_FLOOR, X_ENTRIES

# sigma_y x sigma_y is real and antidiagonal; these are its entries from
# the top row down, as a column that scales the rows of a 4 x n matrix
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]

# Smallest Cholesky pivot L_kk^2 at which `concurrence` keeps the triangular
# factor.  A smaller pivot marks a rank-deficient or nearly rank-deficient
# matrix; its eigh factor clips the rounding modes to exactly 0.
_PIVOT_FLOOR = 1e-12


def _float_or_array(x):
    return float(x) if x.ndim == 0 else x


def partial_transpose(mat):
    """Transpose on the second factor; returns (matrix, smallest eigenvalue).

    A negative smallest eigenvalue certifies entanglement; for two qubits the
    converse holds as well.
    """
    mat = np.asarray(mat, dtype=complex)
    pt = (mat.reshape(mat.shape[:-2] + (2, 2, 2, 2))
          .swapaxes(-3, -1).reshape(mat.shape))
    return pt, _float_or_array(np.linalg.eigvalsh(pt).min(axis=-1))


def _root_factor(mat):
    """W = U diag(sqrt(w)) from one eigh, so that mat = W W^dagger.

    Raises when an eigenvalue is below STATE_EIG_FLOOR; those between it
    and 0 are clipped to 0.
    """
    w, U = np.linalg.eigh(mat)
    if (w < STATE_EIG_FLOOR).any():
        raise ValueError(f"matrix has eigenvalue {w.min():.3e}, not a state")
    return U * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _cholesky_or_nan(mats):
    """Cholesky factors of an (n, 4, 4) stack, NaN where a member's own
    factorization fails.

    A batched factorization raises when any member fails, so a failing
    stack is halved until each failing member stands alone.  Every factor
    is therefore the one its matrix gives alone, whatever stack it came in.
    """
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.full_like(mats, np.nan)
        half = len(mats) // 2
        return np.concatenate([_cholesky_or_nan(mats[:half]),
                               _cholesky_or_nan(mats[half:])])


def concurrence(mat):
    """Two-qubit concurrence of a density matrix.

    For any W with rho = W W^dagger, Wootters' mu (the square roots of the
    eigenvalues of rho rho_spin_flipped) are the singular values of
    W^T (sigma_y x sigma_y) W (Wootters, PRL 80, 2245, 1998).  W is the
    Cholesky factor of rho.  A matrix whose own factorization fails, or
    whose smallest pivot L_kk^2 is below _PIVOT_FLOOR, takes
    W = U diag(sqrt(w)) from eigh instead: one eigh call on exactly those
    members, which raises when one of them is not a state.  The route is
    chosen per matrix, so a stack gives each matrix's own value bit for
    bit.  The singular-value route avoids the square-root-of-noisy-
    eigenvalue amplification near zero modes, and no matrix square root is
    formed.  A pure state a|00> + b|01> + c|10> + d|11> returns
    2|ad - bc| to about 1e-15.  An empty stack gives an empty array.
    """
    mats = np.asarray(mat, dtype=complex)
    flat = mats.reshape(-1, 4, 4)
    W = _cholesky_or_nan(flat)
    pivots = np.diagonal(W, axis1=-2, axis2=-1).real ** 2
    weak = ~(pivots.min(axis=-1) >= _PIVOT_FLOOR)  # NaN for a failed factor
    if weak.any():
        W[weak] = _root_factor(flat[weak])
    W = W.reshape(mats.shape)
    # (sigma_y x sigma_y) W: rows reversed, with signs (-1, 1, 1, -1)
    YW = W[..., ::-1, :] * _YY_SIGNS
    mu = np.linalg.svd(W.swapaxes(-1, -2) @ YW, compute_uv=False)
    c = np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])
    return _float_or_array(c)


def xstate_measures(vectors):
    """(smallest partial-transpose eigenvalue, concurrence) of X-states about
    axis 3, from coefficient vectors of shape (..., 15).

    Only the seven `X_ENTRIES` r03 r30 r11 r12 r21 r22 r33 are read; the
    others are taken as zero.  The matrix is then diagonal plus
    antidiagonal, with 4 rho_11 = 1 + r33 + (r03 + r30),
    4 rho_44 = 1 + r33 - (r03 + r30), 4 rho_22 = 1 - r33 - (r03 - r30),
    4 rho_33 = 1 - r33 + (r03 - r30), 4|rho_14| = |r11 - r22, r12 + r21|
    and 4|rho_23| = |r11 + r22, r12 - r21|.  The partial transpose splits
    into the 2x2 blocks {00, 11}, carrying |rho_23|, and {01, 10}, carrying
    |rho_14|; the smaller of their lower eigenvalues is the first value.
    The concurrence is 2 max(0, |rho_14| - sqrt(rho_22 rho_33),
    |rho_23| - sqrt(rho_11 rho_44)) (Yu & Eberly, QIC 7, 459, 2007),
    diagonal entries below 0 read as 0, and exactly 0.0 wherever the first
    value is not negative.  Both agree with `partial_transpose` and
    `concurrence` to about 1e-15, not bit for bit.
    """
    r03, r30, r11, r12, r21, r22, r33 = np.moveaxis(
        np.asarray(vectors, dtype=float)[..., X_ENTRIES], -1, 0)
    a14, a23 = np.hypot(r11 - r22, r12 + r21), np.hypot(r11 + r22, r12 - r21)
    min_pt = 0.25 * np.minimum(1 + r33 - np.hypot(r03 + r30, a23),
                               1 - r33 - np.hypot(r03 - r30, a14))
    p11, p44, p22, p33 = np.maximum(0.0, [1 + r33 + (r03 + r30),
                                          1 + r33 - (r03 + r30),
                                          1 - r33 - (r03 - r30),
                                          1 - r33 + (r03 - r30)])
    c = 0.5 * np.maximum(a14 - np.sqrt(p22 * p33), a23 - np.sqrt(p11 * p44))
    c = np.where(min_pt < 0, np.maximum(c, 0.0), 0.0)
    return _float_or_array(min_pt), _float_or_array(c)


def concurrence_closed(M, R, tau):
    """Asymptotic concurrence over the commuting stationary family.

    The formula ignores N.  It is exact when 8|N| <= 1 - 2R (N = 0, equal
    transverse rates, is one such case); outside that range it can be wrong:
    for lambda = (20, 0.5, 0.01), |B| = 0.99 sqrt(lam1 lam2) and tau = 1 it
    returns 0, while Wootters' concurrence of the closed-form equilibrium is
    0.9127.  Returns the gap Delta, the concurrence, and the threshold value
    of tau below which the asymptotic state is entangled.  The affine form
    of the numerator makes C exactly 1 at the singlet point tau = -3.  Each
    range check below allows 1e-9 of rounding.
    """
    tol = 1e-9
    if not (-tol <= 2 * R <= 1 + tol):
        raise ValueError(f"need 0 <= 2R <= 1, got 2R = {2 * R}")
    if M * M > 2 * R + tol:
        raise ValueError(f"need M^2 <= 2R, got M^2 = {M * M}, 2R = {2 * R}")
    if not (-3 - tol <= tau <= 1 + tol):
        raise ValueError(f"correlation trace {tau} outside [-3, 1]")
    # M^2 may exceed 2R by rounding (accepted within tol); that excess is 0
    Delta = np.sqrt((1 - 2 * R) ** 2 + 4 * max(2 * R - M * M, 0.0))
    C = max(0.0, (2 * (2 * R - tau) - Delta * (3 + tau)) / (2 * (3 + 2 * R)))
    threshold = (4 * R - 3 * Delta) / (2 + Delta)
    return {"Delta": float(Delta), "C": float(C), "threshold": float(threshold)}


@dataclass(frozen=True)
class GenerationVerdict:
    """Outcome of the first-order entanglement-generation test."""

    generated: bool
    witness_eigenvalue_rate: float
    inconclusive: bool


def generation_test(phi, psi, block):
    """First-order test whether the bath entangles the product state phi x psi.

    The partially transposed pure product state has a three-dimensional
    kernel; the derivative of the partial transpose along the flow, restricted
    to that kernel, decides the question.  A negative smallest eigenvalue rate
    means a negativity develops immediately (generated); a strictly positive
    one means it does not, at this order; a vanishing rate leaves the test
    inconclusive.
    """
    from .generator import rhs_equal_blocks

    phi = np.asarray(phi, dtype=complex).reshape(2)
    psi = np.asarray(psi, dtype=complex).reshape(2)
    for name, v in (("phi", phi), ("psi", psi)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValueError(f"{name} is not normalized: |{name}| = {np.linalg.norm(v)}")

    vec = np.kron(phi, psi)
    rho = np.outer(vec, vec.conj())
    pt0, _ = partial_transpose(rho)
    w, U = np.linalg.eigh(pt0)
    kernel = U[:, w < 1e-12]

    dpt, _ = partial_transpose(rhs_equal_blocks(rho, block))
    restricted = kernel.conj().T @ dpt @ kernel
    rate = float(np.linalg.eigvalsh(restricted).min())

    inconclusive = abs(rate) <= 1e-12
    return GenerationVerdict(generated=rate < -1e-12,
                             witness_eigenvalue_rate=rate,
                             inconclusive=inconclusive)
