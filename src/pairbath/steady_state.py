"""Stationary structure of the pair dynamics.

Two independent routes to the same objects are kept side by side: the
closed-form family (reference state, tau-parametrized equilibrium
components, asymptotic projector map), valid when the bath vector lies on a
principal axis of A and the bath matrix has rank at least 2, and a numerical
null-space oracle, the SVD of the 16x16 affine generator G of
`compile_generator`, that works for any valid block.  Tests hold the two
against each other; neither is allowed to silently replace the other.
"""

import warnings
from dataclasses import dataclass

import numpy as np

# ClosedFormNotApplicable is imported for callers of stationary_family
from .bath import ClosedFormNotApplicable, assemble_full_C, principal_frame
from .generator import compile_generator, lindblad_operators
from .pauli_algebra import (P_SINGLET, Q_TRIPLET, S_TOTAL, TAU_ENTRIES,
                            assemble_matrices, convert, tau_of)


@dataclass(frozen=True)
class StationaryFamily:
    """Closed-form stationary data of a block: scalars M, N, R and the
    aligned frame they are expressed in."""

    M: float
    N: float
    R: float
    frame: object

    @property
    def rho0_hat(self):
        """The maximal-rank reference state, in the input frame: the family
        member at tau = 2R, whose components are M, -N, N, R."""
        return equilibrium_components(2 * self.R, self).state


@dataclass(frozen=True)
class EquilibriumState:
    """One member of the tau-parametrized equilibrium family."""

    tau: float
    components: dict
    state: np.ndarray


def stationary_family(block):
    """Scalars M, N, R and the aligned frame of the closed form.

    `principal_frame` raises ClosedFormNotApplicable unless the bath vector
    lies on a principal axis of A and the bath matrix has rank at least 2.
    Its rates lam1 >= lam2 (transverse to B) and lam3 are clipped at 0.0,
    so rank >= 2 keeps lam1 + lam2 and e2 = lam1 lam2 + lam3 (lam1 + lam2)
    above 0.0 (either at zero leaves herm one nonzero eigenvalue): the
    formulas never divide by zero, and at b = 0 give M = N = R = 0.0.  With
    b^2 <= lam1 lam2, as the frame clips it, 2R <= 1 follows from
    4 lam1 lam2 <= (lam1 + lam2)^2, and M^2 <= 2R holds for any b.  At the
    boundary b^2 = lam1 lam2 the family can degenerate to reduced rank
    (with equal transverse rates it does; for lam = (1, 0.5, 0.2) the
    reference state keeps a smallest eigenvalue of about 0.0068); a
    boundary reference state with an eigenvalue below 1e-12 is reported as
    a warning.
    """
    frame = principal_frame(block)
    lam1, lam2, lam3 = frame.aligned_lam
    b = frame.aligned_b

    e2 = lam1 * lam2 + lam1 * lam3 + lam2 * lam3
    M = 2 * b / (lam1 + lam2)
    N = (lam1 - lam2) * b * b / (2 * (lam1 + lam2) * e2)
    R = (lam1 + lam2 + 4 * lam3) * b * b / (2 * (lam1 + lam2) * e2)

    family = StationaryFamily(M=M, N=N, R=R, frame=frame)
    if (b * b > lam1 * lam2 * (1 - 1e-12)
            and np.linalg.eigvalsh(family.rho0_hat).min() < 1e-12):
        warnings.warn("bath vector saturates b^2 = lam1*lam2; "
                      "reference state is rank deficient")
    return family


def equilibrium_components(tau, family):
    """Equilibrium state at correlation trace tau, from the closed form.

    Literal evaluation of the four nonvanishing components; the assembled
    state is symmetric under system exchange and reproduces the reference
    state at tau = 2R.
    """
    tau = float(tau)
    if not (-3.0 - 1e-12 <= tau <= 1.0 + 1e-12):
        raise ValueError(f"correlation trace {tau} outside [-3, 1]")
    M, N, R = family.M, family.N, family.R
    D = 3 + 2 * R
    rho_3 = (3 + tau) * M / D
    rho_11 = ((1 - 2 * N) * tau - 2 * (3 * N + R)) / (2 * D)
    rho_22 = ((1 + 2 * N) * tau + 2 * (3 * N - R)) / (2 * D)
    rho_33 = (4 * R + (1 + 2 * R) * tau) / (2 * D)

    G = family.frame.aligned_rotation
    r = G.T @ np.array([0.0, 0.0, rho_3])
    rij = G.T @ np.diag([2 * rho_11, 2 * rho_22, 2 * rho_33]) @ G
    state = convert(np.concatenate([r, r, rij.ravel()]))
    return EquilibriumState(tau=tau,
                            components={"rho_3": rho_3, "rho_11": rho_11,
                                        "rho_22": rho_22, "rho_33": rho_33},
                            state=state)


def asymptotic_state(initial, family):
    """Image of an initial state under the asymptotic projector map.

    `initial` is a (15,) coefficient vector or a 4x4 density matrix, told
    apart by its shape.  The singlet and triplet weights of the initial
    state fix the mixture of the two projected reference-state sectors.
    The result is cross-checked against the tau-parametrized component
    formulas; the two routes must agree to 1e-12, otherwise the family data
    is inconsistent.
    """
    rho_in = convert(initial) if np.shape(initial) == (15,) else initial
    rho0 = family.rho0_hat
    p_weight = float(np.trace(P_SINGLET @ rho_in).real)
    q_weight = float(np.trace(Q_TRIPLET @ rho_in).real)

    PrP = P_SINGLET @ rho0 @ P_SINGLET
    QrQ = Q_TRIPLET @ rho0 @ Q_TRIPLET
    rho_hat = (p_weight / np.trace(PrP).real) * PrP \
        + (q_weight / np.trace(QrQ).real) * QrQ

    tau = tau_of(rho_in)
    eq = equilibrium_components(tau, family)
    mismatch = float(np.abs(rho_hat - eq.state).max())
    if mismatch > 1e-12:
        raise RuntimeError(
            f"projector map and component formulas disagree by {mismatch:.3e}")
    return EquilibriumState(tau=eq.tau, components=eq.components, state=rho_hat)


def _line_search(vec, direction, lo, hi):
    """Maximize the (concave) minimum eigenvalue along vec + t*direction.

    Ternary search over [lo, hi] for at most 200 steps.  The matrices on the
    line form the affine pencil M0 + t*Md, with M0 the matrix of `vec` and
    Md the traceless part of that of `direction`; both are assembled once,
    and each step takes the smallest eigenvalues of its two probes from one
    (2, 4, 4) stack.  The search stops at the bracket's fixed point, the
    first step that leaves (lo, hi) unchanged: every later step would
    evaluate the same two probes and make the same choice, so the result is
    bit for bit that of all 200 steps.
    """
    m0, md = assemble_matrices(np.stack([vec, direction]))
    md -= np.eye(4) / 4
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        e1, e2 = np.linalg.eigvalsh(m0 + np.multiply.outer([m1, m2], md)).min(axis=-1)
        if e1 < e2:
            if m1 == lo:
                break
            lo = m1
        else:
            if m2 == hi:
                break
            hi = m2
    t = 0.5 * (lo + hi)
    return vec + t * direction


def liouvillian_null_space(block):
    """Numerical oracle for the stationary set of a block.

    Takes the SVD of the affine generator G on [c, 1] of `compile_generator`
    (relative threshold 1e-10); V and W, its right and left null bases, have
    one column more than the stationary set has dimensions, the affine
    direction.  The zero eigenvalue of a completely positive generator is
    semisimple, so [x0, 1] tends to P [x0, 1] with the projector P = V (W^T
    V)^-1 W^T, 16x16 on [c, 1].  Returns the dimension of the stationary
    set, an orthonormal basis of its directions (rows, with no affine
    part), P as `projector`, and a member with all eigenvalues above 1e-8:
    the one maximizing the minimum eigenvalue along the tau line
    (`_line_search`) when the set is a line, and the limit of I/4, P[:15,
    15], otherwise.  It is None when rank deficient, as on boundary blocks
    whose stationary states all are (equal transverse rates, for example);
    lam = (1, 0.5, 0.2) with b^2 = lam1 lam2 keeps one.
    """
    G = compile_generator(assemble_full_C(block))
    U, s, Vt = np.linalg.svd(G)
    null = s <= 1e-10 * (s[0] if s[0] > 0 else 1.0)
    V, W = Vt[null].T, U[:, null]
    # a stationary state [x, 1] needs a null vector with an affine entry
    affine = float(np.abs(V[15]).max())
    if affine <= 1e-8:
        raise RuntimeError(f"affine stationary system inconsistent (largest "
                           f"affine null entry {affine:.3e}); invalid block?")
    projector = V @ np.linalg.solve(W.T @ V, W.T)
    basis = (V[:15] @ np.linalg.svd(V[15:])[2][1:].T).T
    member = projector[:15, 15]

    if len(basis) == 1:
        # tau is conserved and every tau in [-3, 1] has a stationary state,
        # so the line moves tau: parametrize by it and scan its range
        d = basis[0]
        t = (np.array([-3.0, 1.0]) - member[TAU_ENTRIES].sum()) / d[TAU_ENTRIES].sum()
        member = _line_search(member, d, t.min(), t.max())

    member = assemble_matrices(member)
    ok = np.linalg.eigvalsh(member).min() > 1e-8
    return {"dimension": len(basis),
            "basis": basis,
            "projector": projector,
            "full_rank_member": member if ok else None}


def stationary_member(sol, start):
    """The state the start state tends to, from the `liouvillian_null_space`
    result `sol`: P [x0, 1] for the (15,) coefficient vector x0 = `start`,
    at any dimension of the stationary set.
    """
    return assemble_matrices(sol["projector"][:15] @ np.append(start, 1.0))


def commutant_check(block):
    """Verify that the total-spin correlation operator commutes with the
    diagonal-form operators V_i of the block (hence lies in the commutant
    characterizing the stationary structure)."""
    residuals = []
    for V in lindblad_operators(block):
        for X in (V, V.conj().T):
            residuals.append(float(np.abs(S_TOTAL @ X - X @ S_TOTAL).max()))
    return {"contains_S": all(r < 1e-12 for r in residuals),
            "residuals": residuals}
