"""Bath specification: validation, full coefficient matrix, principal frame.

The bath enters the dynamics through a Hermitian 3x3 matrix split into a real
symmetric part A and a real vector B,

    herm[i, j] = A[i, j] + i sum_k eps_ijk B[k],

which must be positive semi-definite for the evolution to be completely
positive.  The closed-form stationary results need the frame in which A is
diagonal and B points along the third axis; `principal_frame` constructs it
when B is an eigenvector of A.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class BathValidityError(ValueError):
    """The (A, B) data does not define a completely positive generator."""


def hermitian_block(A, B):
    """Assemble the Hermitian combination of a symmetric A and a vector B."""
    bx, by, bz = np.asarray(B, dtype=float)
    eps_b = np.array([[0.0, bz, -by], [-bz, 0.0, bx], [by, -bx, 0.0]])
    return np.asarray(A, dtype=float) + 1j * eps_b


@dataclass(frozen=True)
class KossakowskiBlock:
    """Validated bath data: symmetric A, vector B, and derived quantities.

    herm is the Hermitian combination above, eigs its eigenvalues (ascending),
    A_tr the trace of A.  boundary flags a singular herm: the bath sits on the
    positivity boundary (in the aligned frame, B^2 = lambda_1 lambda_2, or a
    vanishing eigenvalue of A).
    """

    A: np.ndarray
    B: np.ndarray
    herm: np.ndarray
    eigs: np.ndarray
    A_tr: float
    boundary: bool


def make_bath(A, B):
    """Validate (A, B) and return a KossakowskiBlock.

    A and B must be finite.  A is symmetrized (with a warning) when its
    asymmetry is within 1e-12 and rejected beyond that; the Hermitian
    combination must be PSD within -1e-12, otherwise the offending
    eigenvalue is reported.
    """
    A = np.asarray(A, dtype=float).reshape(3, 3)
    B = np.asarray(B, dtype=float).reshape(3)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise BathValidityError("A and B must be finite")
    asym = np.abs(A - A.T).max()
    if asym > 1e-12:
        raise BathValidityError(f"A is not symmetric: max asymmetry {asym:.3e}")
    if asym > 0.0:
        warnings.warn(f"symmetrizing A (asymmetry {asym:.3e})", stacklevel=2)
        A = (A + A.T) / 2
    herm = hermitian_block(A, B)
    eigs = np.linalg.eigvalsh(herm)
    if eigs[0] < -1e-12:
        raise BathValidityError(
            f"bath matrix has negative eigenvalue {eigs[0]:.6e}; "
            "complete positivity fails")
    scale = max(1.0, float(eigs[-1]))
    boundary = bool(eigs[0] <= 1e-12 * scale)
    return KossakowskiBlock(A=A, B=B, herm=herm, eigs=eigs,
                            A_tr=float(np.trace(A)), boundary=boundary)


def assemble_full_C(block):
    """Expand the bath block to the full 6x6 coefficient matrix.

    All four 3x3 sub-blocks are equal, so C is the 2x2 all-ones matrix
    tensored with the Hermitian block; its spectrum is {2 eig} plus three
    zeros, hence PSD exactly when the block is.
    """
    return np.tile(block.herm, (2, 2))


def herm_rank(block):
    """Rank of block.herm: the number of its eigenvalues above
    1e-12 max(1, largest eigenvalue), the tolerance of the boundary flag."""
    eigs = block.eigs.tolist()
    tol = 1e-12 * max(1.0, eigs[-1])
    return sum(e > tol for e in eigs)


@dataclass(frozen=True)
class PrincipalFrame:
    """The frame the closed forms assume, when a bath block has one.

    closed_form_applicable is True when herm has rank at least 2 and B is
    an eigenvector of A: with u = B/|B|, ||A u - (u.A u) u|| <=
    1e-10 max(1, max|eig A|) (always true for B = 0).

    The aligned_* fields give the frame: B along axis 3 with
    aligned_b = |B| >= 0, and the first two axes diagonalizing A on the
    plane transverse to B with aligned_lam[0] >= aligned_lam[1];
    aligned_lam[2] = u.A u.  For B = 0 the frame is the eigenframe of A,
    eigenvalues descending.  They are None when not applicable.
    """

    closed_form_applicable: bool
    aligned_rotation: np.ndarray | None
    aligned_lam: np.ndarray | None
    aligned_b: float | None


_NOT_APPLICABLE = PrincipalFrame(False, None, None, None)


def principal_frame(block):
    """The frame aligned with B, when B is an eigenvector of A.

    The closed form is refused when herm has rank <= 1 (`herm_rank`): a
    single collective jump operator leaves more conserved quantities than
    tau, so the asymptotic state is not fixed by tau alone.  For B = 0 the
    frame is the eigendecomposition of A.  Otherwise, with u = B/|B|, the
    closed form applies when the residual ||A u - (u.A u) u|| is at most
    1e-10 max(1, max|eig A|); the aligned frame is then the 2x2
    eigendecomposition of A on the plane transverse to u (larger rate
    first), followed by u.  The steady state depends on that frame G only
    through G.T diag(.) G and the direction u, so row signs, the sign of
    det G and the basis inside a degenerate plane do not matter.
    """
    if herm_rank(block) <= 1:
        return _NOT_APPLICABLE
    A, B = block.A, block.B
    bnorm = float(np.linalg.norm(B))
    if bnorm == 0.0:
        w, V = np.linalg.eigh(A)
        return PrincipalFrame(True, V[:, ::-1].T, w[::-1], 0.0)
    if bnorm < 1e-150:
        # B.B falls among the subnormals and keeps few digits: scale first
        bnorm = float(np.linalg.norm(B * 2.0**600)) * 2.0**-600
    u = B / bnorm
    Au = A @ u
    lam_u = float(u @ Au)
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))
    if np.linalg.norm(Au - lam_u * u) > 1e-10 * scale:
        return _NOT_APPLICABLE
    # the rows of E span the plane transverse to u
    E = np.linalg.svd(u[None, :])[2][1:]
    t, W = np.linalg.eigh(E @ A @ E.T)
    return PrincipalFrame(True, np.vstack([W[:, ::-1].T @ E, u]),
                          np.array([t[1], t[0], lam_u]), bnorm)
