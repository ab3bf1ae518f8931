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


def zero_floor(eigs):
    """The one positivity rule for a bath matrix with ascending eigenvalues
    `eigs`: e counts as zero when |e| <= floor = 1e-12 max(1, largest), and
    the matrix is refused when an eigenvalue lies below -floor."""
    return 1e-12 * max(1.0, float(eigs[-1]))


@dataclass(frozen=True)
class KossakowskiBlock:
    """Validated bath data: symmetric A, vector B, and derived quantities.

    herm is the Hermitian combination above, eigs its eigenvalues (ascending),
    A_tr the trace of A.  rank counts the eigenvalues above `zero_floor`;
    boundary flags a singular herm: the bath sits on the positivity boundary
    (in the aligned frame, B^2 = lambda_1 lambda_2, or a vanishing
    eigenvalue of A).
    """

    A: np.ndarray
    B: np.ndarray
    herm: np.ndarray
    eigs: np.ndarray
    A_tr: float

    @property
    def rank(self):
        return int(np.count_nonzero(self.eigs > zero_floor(self.eigs)))

    @property
    def boundary(self):
        return self.rank < 3


def make_bath(A, B):
    """Validate (A, B) and return a KossakowskiBlock.

    A and B must be finite.  A is symmetrized (with a warning) when its
    asymmetry is within 1e-12 and rejected beyond that; the Hermitian
    combination must be PSD by `zero_floor`, otherwise the offending
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
    if eigs[0] < -zero_floor(eigs):
        raise BathValidityError(
            f"bath matrix has negative eigenvalue {eigs[0]:.6e}; "
            "complete positivity fails")
    return KossakowskiBlock(A=A, B=B, herm=herm, eigs=eigs,
                            A_tr=float(np.trace(A)))


def assemble_full_C(block):
    """Expand the bath block to the full 6x6 coefficient matrix.

    All four 3x3 sub-blocks are equal, so C is the 2x2 all-ones matrix
    tensored with the Hermitian block; its spectrum is {2 eig} plus three
    zeros, so C/2 has herm's spectrum plus three zeros, and `zero_floor`
    holds C/2 exactly where it holds the block.
    """
    return np.tile(block.herm, (2, 2))


class ClosedFormNotApplicable(ValueError):
    """The bath vector is not on a principal axis, or the bath matrix has
    rank <= 1; use the numerical oracle."""


@dataclass(frozen=True)
class PrincipalFrame:
    """The frame the closed forms assume.

    B lies along axis 3 with aligned_b = |B|, and the first two axes
    diagonalize A on the plane transverse to B with aligned_lam[0] >=
    aligned_lam[1]; aligned_lam[2] = u.A u.  For B = 0 the frame is the
    eigenframe of A, eigenvalues descending.  Rounding past positivity is
    clipped: every aligned rate to >= 0.0, and aligned_b to
    <= sqrt(aligned_lam[0] aligned_lam[1]) (see `principal_frame`).
    """

    aligned_rotation: np.ndarray
    aligned_lam: np.ndarray
    aligned_b: float


def principal_frame(block):
    """The frame aligned with B; raise ClosedFormNotApplicable where the
    closed form does not apply.

    The closed form is refused when herm has rank <= 1 (`block.rank`): a
    single collective jump operator leaves more conserved quantities than
    tau, so the asymptotic state is not fixed by tau alone.  For B = 0 the
    frame is the eigendecomposition of A.  Otherwise, with u = B/|B|, the
    closed form applies when the residual ||A u - (u.A u) u|| is at most
    1e-10 max(1, max|eig A|); the aligned frame is then the 2x2
    eigendecomposition of A on the plane transverse to u (larger rate
    first), followed by u.  The steady state depends on that frame G only
    through G.T diag(.) G and the direction u, so row signs, the sign of
    det G and the basis inside a degenerate plane do not matter.

    Each aligned rate is g.herm.g for a real unit row g of G (B enters herm
    antisymmetrically), so at least herm's smallest eigenvalue, >= -floor
    (`zero_floor`) on every bath `make_bath` accepts: a negative rate is
    rounding of zero, and it is clipped to 0.0.  So is b, to sqrt(lam1 lam2):
    herm's aligned block [[lam1, i b], [-i b, lam2]] is PSD exactly when
    b^2 <= lam1 lam2.
    """
    if block.rank <= 1:
        raise ClosedFormNotApplicable(
            "bath matrix has rank <= 1: tau is not the only conserved quantity")
    A, B = block.A, block.B
    bnorm = float(np.linalg.norm(B))
    if bnorm == 0.0:
        w, V = np.linalg.eigh(A)
        return PrincipalFrame(V[:, ::-1].T, np.maximum(w[::-1], 0.0), 0.0)
    if bnorm < 1e-150:
        # B.B falls among the subnormals and keeps few digits: scale first
        bnorm = float(np.linalg.norm(B * 2.0**600)) * 2.0**-600
    u = B / bnorm
    Au = A @ u
    lam_u = float(u @ Au)
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))
    if np.linalg.norm(Au - lam_u * u) > 1e-10 * scale:
        raise ClosedFormNotApplicable(
            "bath vector is not aligned with a principal axis of A")
    # the rows of E span the plane transverse to u
    E = np.linalg.svd(u[None, :])[2][1:]
    t, W = np.linalg.eigh(E @ A @ E.T)
    lam = np.maximum([t[1], t[0], lam_u], 0.0)
    return PrincipalFrame(np.vstack([W[:, ::-1].T @ E, u]), lam,
                          min(bnorm, float(np.sqrt(lam[0] * lam[1]))))
