"""Stationary structure of the pair dynamics.

Two independent routes to the same objects are kept side by side: the
closed-form family (reference state, tau-parametrized equilibrium
components, asymptotic projector map), valid when the bath vector lies on a
principal axis of A and the bath matrix has rank at least 2, and a numerical
null-space oracle over the 15 real coefficients that works for any valid
block.  Tests hold the two against each other; neither is allowed to
silently replace the other.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .bath import assemble_full_C, herm_rank, principal_frame
from .generator import compile_generator, lindblad_operators
from .pauli_algebra import (P_SINGLET, PauliCoefficients, Q_TRIPLET, S_TOTAL,
                            TAU_ENTRIES, assemble_matrices, convert,
                            project_matrices, tau_of)


class ClosedFormNotApplicable(ValueError):
    """The bath vector is not on a principal axis, or the bath matrix has
    rank <= 1; use the numerical oracle."""


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
        return _member(2 * self.R, self).state


@dataclass(frozen=True)
class EquilibriumState:
    """One member of the tau-parametrized equilibrium family."""

    tau: float
    components: dict
    state: np.ndarray


def stationary_family(block):
    """Scalars M, N, R and the aligned frame of the closed form.

    Requires the bath vector to lie on a principal axis of A (else the
    two smaller rates are not well defined and the closed form does not
    apply) and the bath matrix to have rank at least 2 (else tau is not the
    only conserved quantity; see `principal_frame`).  In the aligned frame
    the two axes transverse to B carry the rates lam1 >= lam2.  At the
    boundary b^2 = lam1 lam2 the family can degenerate to reduced rank (with
    equal transverse rates it does; for lam = (1, 0.5, 0.2) the reference
    state keeps a smallest eigenvalue of about 0.0068); a boundary reference
    state with an eigenvalue below 1e-12 is reported as a warning.
    """
    frame = principal_frame(block)
    if not frame.closed_form_applicable:
        if herm_rank(block) <= 1:
            raise ClosedFormNotApplicable(
                "bath matrix has rank <= 1: tau is not the only conserved quantity")
        raise ClosedFormNotApplicable(
            "bath vector is not aligned with a principal axis of A")
    lam1, lam2, lam3 = frame.aligned_lam
    b = frame.aligned_b

    saturated = False
    if b == 0.0:
        M = N = R = 0.0
    else:
        e2 = lam1 * lam2 + lam1 * lam3 + lam2 * lam3
        M = 2 * b / (lam1 + lam2)
        N = (lam1 - lam2) * b * b / (2 * (lam1 + lam2) * e2)
        R = (lam1 + lam2 + 4 * lam3) * b * b / (2 * (lam1 + lam2) * e2)
        saturated = b * b > lam1 * lam2 * (1 - 1e-12)

    family = StationaryFamily(M=M, N=N, R=R, frame=frame)
    if saturated and np.linalg.eigvalsh(family.rho0_hat).min() < 1e-12:
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
    return _member(tau, family)


def _member(tau, family):
    # the reference state sits at tau = 2R, which rounding can put past 1 on
    # a bath at the positivity boundary, so the range check stays outside
    M, N, R = family.M, family.N, family.R
    D = 3 + 2 * R
    rho_3 = (3 + tau) * M / D
    rho_11 = ((1 - 2 * N) * tau - 2 * (3 * N + R)) / (2 * D)
    rho_22 = ((1 + 2 * N) * tau + 2 * (3 * N - R)) / (2 * D)
    rho_33 = (4 * R + (1 + 2 * R) * tau) / (2 * D)

    G = family.frame.aligned_rotation
    r = G.T @ np.array([0.0, 0.0, rho_3])
    rij = G.T @ np.diag([2 * rho_11, 2 * rho_22, 2 * rho_33]) @ G
    state = convert(PauliCoefficients(r, r, rij))
    return EquilibriumState(tau=tau,
                            components={"rho_3": rho_3, "rho_11": rho_11,
                                        "rho_22": rho_22, "rho_33": rho_33},
                            state=state)


def asymptotic_state(initial, family):
    """Image of an initial state under the asymptotic projector map.

    The singlet and triplet weights of the initial state fix the mixture of
    the two projected reference-state sectors.  The result is cross-checked
    against the tau-parametrized component formulas; the two routes must
    agree to 1e-12, otherwise the family data is inconsistent.
    """
    rho_in = initial if isinstance(initial, np.ndarray) else convert(initial)
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


def _line_search(vec, direction, lo, hi, iters=200):
    """Maximize the (concave) minimum eigenvalue along vec + t*direction.

    Ternary search over [lo, hi] for at most `iters` steps.  The matrices on
    the line form the affine pencil M0 + t*Md, with M0 the matrix of `vec`
    and Md the traceless part of that of `direction`; both are assembled
    once, and each step takes the smallest eigenvalues of its two probes
    from one (2, 4, 4) stack.  The search stops at the bracket's fixed
    point, the first step that leaves (lo, hi) unchanged: every later step
    would evaluate the same two probes and make the same choice, so the
    result is bit for bit that of all `iters` steps.
    """
    m0, md = assemble_matrices(np.stack([vec, direction]))
    md -= np.eye(4) / 4
    for _ in range(iters):
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


def _tau_step(point, d, tau):
    """The t at which point + t d has correlation trace tau; d moves it."""
    return (tau - point[TAU_ENTRIES].sum()) / d[TAU_ENTRIES].sum()


def liouvillian_null_space(block):
    """Numerical oracle for the stationary set of a block.

    Solves the affine system over the 15 real coefficients by singular-value
    decomposition (relative threshold 1e-10), returning the dimension of
    the solution set, an orthonormal basis of directions, and a member with
    all eigenvalues above 1e-8 located by maximizing the minimum eigenvalue
    over the set: one `_line_search` along the tau line when the set is a
    line, otherwise four rounds of coordinate searches along the basis
    directions.  Each search assembles two matrices for its whole line.
    The full-rank member is None when the search fails, as it does on
    boundary blocks whose stationary family is rank deficient (equal
    transverse rates, for example); other boundary blocks, such as
    lam = (1, 0.5, 0.2) with b^2 = lam1 lam2, keep a full-rank member.
    """
    L, c0 = compile_generator(assemble_full_C(block))
    U, s, Vt = np.linalg.svd(L)
    cutoff = 1e-10 * (s[0] if s[0] > 0 else 1.0)
    null_dirs = [Vt[k] for k in range(15) if s[k] <= cutoff]

    # minimum-norm particular solution of L v = -c0 through the same SVD
    inv_s = np.array([1.0 / x if x > cutoff else 0.0 for x in s])
    particular = Vt.T @ (inv_s * (U.T @ -c0))
    residual = float(np.abs(L @ particular + c0).max())
    if residual > 1e-8 * max(1.0, s[0]):
        raise RuntimeError(f"affine stationary system inconsistent "
                           f"(residual {residual:.3e}); invalid block?")

    member = particular
    if len(null_dirs) == 1:
        # tau is conserved and every tau in [-3, 1] has a stationary state,
        # so the line moves tau: parametrize by it and scan its range
        d = null_dirs[0]
        lo, hi = _tau_step(particular, d, -3.0), _tau_step(particular, d, 1.0)
        member = _line_search(particular, d, min(lo, hi), max(lo, hi))
    elif len(null_dirs) > 1:
        for _ in range(4):
            for d in null_dirs:
                member = _line_search(member, d, -4.0, 4.0, iters=80)

    member = assemble_matrices(member)
    ok = np.linalg.eigvalsh(member).min() > 1e-8
    return {"dimension": len(null_dirs),
            "basis": null_dirs,
            "full_rank_member": member if ok else None}


def stationary_member(sol, tau):
    """Stationary state at correlation trace tau from the numerical oracle.

    Moves the full-rank member of the `liouvillian_null_space` result `sol`
    along its one-dimensional stationary line to the requested tau; the line
    moves tau (see `liouvillian_null_space`).  Returns None when the set is
    not one-dimensional or has no full-rank member.
    """
    if sol["dimension"] != 1 or sol["full_rank_member"] is None:
        return None
    d = sol["basis"][0]
    base = project_matrices(sol["full_rank_member"])
    return assemble_matrices(base + _tau_step(base, d, tau) * d)


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
