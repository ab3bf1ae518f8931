"""Machine-checkable invariant suites behind the `check` subcommand.

Every suite is deterministic given the seed (environment-overridable) and
returns (passed, detail); `run_all` yields (name, passed, detail, seconds)
per suite, and the CLI prints one PASS/FAIL line each, with its wall time.
Sizes here are trimmed for a fast smoke run; the test suite exercises the
same invariants at full published strength.
"""

import time

import numpy as np

from .bath import make_bath, assemble_full_C
from .config import run_seed
from .entanglement import concurrence, generation_test, partial_transpose
from .generator import (diagonal_form_check, evolve, lindblad_operators,
                        rhs_components, rhs_equal_blocks, rhs_general)
from .pauli_algebra import (IDENT2, P_SINGLET, SIGMA, PauliCoefficients,
                            assemble_matrices, check_appendix_algebra, convert)
from .steady_state import (asymptotic_state, commutant_check,
                           equilibrium_components, liouvillian_null_space,
                           stationary_family, stationary_member)


def random_state(rng, rank=4):
    """Haar-ish random density matrix from a complex Wishart draw."""
    X = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = X @ X.conj().T
    return rho / np.trace(rho).real


def random_rotation(rng):
    """Random rotation: sign-fixed QR of a Gaussian matrix, det +1."""
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_block(rng, f_range=(0.05, 0.8)):
    """Random valid block: rates in [0.5, 2], B on a principal axis, strictly
    interior, the frame randomly rotated."""
    lam = rng.uniform(0.5, 2.0, 3)
    b = rng.uniform(*f_range) * np.sqrt(lam[0] * lam[1])
    Q = random_rotation(rng)
    A = Q @ np.diag(lam) @ Q.T
    return make_bath(0.5 * (A + A.T), Q @ np.array([0.0, 0.0, b]))


def random_product_pair(rng):
    def ket():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)
    return ket(), ket()


def suite_appendix_algebra(rng):
    res = check_appendix_algebra()
    return res < 1e-13, f"max residual {res:.2e}"


def suite_generator_forms(rng):
    worst = 0.0
    for _ in range(25):
        blk = random_block(rng)
        rho = random_state(rng)
        m = rhs_equal_blocks(rho, blk)
        g = rhs_general(rho, assemble_full_C(blk))
        c = convert(rhs_components(convert(rho), blk)) - np.eye(4) / 4
        worst = max(worst,
                    float(np.abs(g - m).max()),
                    float(np.abs(c - m).max()),
                    diagonal_form_check(blk, rho))
    return worst < 1e-11, f"max pairwise deviation {worst:.2e}"


def suite_tau_conservation(rng):
    worst = 0.0
    for _ in range(5):
        blk = random_block(rng)
        tr = evolve(convert(random_state(rng)), blk, t_end=20.0,
                    dt=0.01, sample_every=50)
        worst = max(worst, float(np.abs(tr.tau - tr.tau[0]).max()))
    if worst >= 1e-9:
        return False, f"tau drift {worst:.2e} with equal blocks"

    # with the cross block removed tau must stop being conserved
    tr = evolve(convert(P_SINGLET), np.eye(6), t_end=0.5, dt=0.005, sample_every=100)
    drift = abs(tr.tau[-1] - (-3.0))
    return drift > 1e-3, (f"equal-block drift {worst:.2e}; "
                          f"decoupled-block drift {drift:.3f}")


def suite_closed_form_stationarity(rng):
    worst = 0.0
    for _ in range(20):
        blk = random_block(rng)
        fam = stationary_family(blk)
        worst = max(worst, float(np.abs(rhs_equal_blocks(fam.rho0_hat, blk)).max()))
    return worst < 1e-12, f"max |L[rho0_hat]| {worst:.2e}"


def suite_ppt_concurrence(rng):
    bad = 0
    for _ in range(300):
        rho = random_state(rng, rank=int(rng.integers(1, 5)))
        _, min_eig = partial_transpose(rho)
        if (min_eig < -1e-10) != (concurrence(rho) > 1e-10):
            bad += 1
    return bad == 0, f"{bad}/300 PPT/concurrence mismatches"


def suite_family_constraints(rng):
    for _ in range(300):
        fam = stationary_family(random_block(rng, f_range=(0.0, 0.999)))
        M, N, R = fam.M, fam.N, fam.R
        if not (-1e-12 <= 2 * R <= 1 + 1e-12
                and M * M <= 2 * R + 1e-12
                and M * M + 4 * N * N <= 1 + 1e-12):
            return False, f"violated at M={M}, N={N}, R={R}"
    return True, "0 <= 2R <= 1, M^2 <= 2R, M^2+4N^2 <= 1 on 300 draws"


def suite_nullspace_oracle(rng):
    worst = 0.0
    for _ in range(8):
        blk = random_block(rng)
        fam = stationary_family(blk)
        sol = liouvillian_null_space(blk)
        if sol["dimension"] != 1:
            return False, f"dimension {sol['dimension']} != 1 at interior bath"
        if sol["full_rank_member"] is None:
            return False, "no full-rank member found at interior bath"
        for tau in (-2.5, 0.0, 0.9):
            start = PauliCoefficients(np.zeros(3), np.zeros(3), np.diag([tau / 3] * 3))
            member = stationary_member(sol, start)
            eq = equilibrium_components(tau, fam)
            worst = max(worst, float(np.abs(member - eq.state).max()))
    return worst < 1e-9, f"max oracle-vs-closed-form deviation {worst:.2e}"


def suite_asymptotic_convergence(rng):
    worst = 0.0
    for _ in range(2):
        blk = random_block(rng)
        fam = stationary_family(blk)
        for _ in range(2):
            rho0 = random_state(rng)
            tr = evolve(convert(rho0), blk, sample_every=1000)
            target = asymptotic_state(convert(rho0), fam).state
            final = assemble_matrices(tr.coeffs[-1])
            dist = 0.5 * np.abs(np.linalg.eigvalsh(final - target)).sum()
            worst = max(worst, float(dist))
    return worst < 1e-6, f"max trace distance at t=50/scale: {worst:.2e}"


def suite_commutant(rng):
    for _ in range(10):
        res = commutant_check(random_block(rng))
        if not res["contains_S"]:
            return False, f"commutator residuals {max(res['residuals']):.2e}"
    # a non-member must fail for a generic block: single-qubit sigma_x
    X = np.kron(SIGMA[0], IDENT2)
    worst = 0.0
    for V in lindblad_operators(random_block(rng)):
        worst = max(worst, float(np.abs(X @ V - V @ X).max()))
    if worst < 1e-6:
        return False, "sigma_x(x)1 unexpectedly commutes with every V_i"
    return True, "S commutes with all V_i; sigma_x(x)1 does not"


def suite_generation_consistency(rng):
    found = 0
    for _ in range(200):
        if found >= 6:
            break
        blk = random_block(rng)
        phi, psi = random_product_pair(rng)
        verdict = generation_test(phi, psi, blk)
        if not verdict.generated:
            continue
        found += 1
        vec = np.kron(phi, psi)
        tr = evolve(convert(np.outer(vec, vec.conj())), blk,
                    t_end=1e-3, dt=1e-5, sample_every=100)
        if tr.min_pt_eig[-1] >= 0:
            return False, (f"predicted generation but min PT eigenvalue "
                           f"{tr.min_pt_eig[-1]:.2e} at t=1e-3")
    if found < 6:
        return False, f"only {found} generated=true cases in 200 draws"

    # without a bath vector no first-order generation can occur
    blk0 = make_bath(np.diag([1.0, 0.7, 0.4]), np.zeros(3))
    v = generation_test([1, 0], [1, 0], blk0)
    if v.generated:
        return False, "generation claimed for B = 0"
    return True, f"{found} generated cases confirmed dynamically; B=0 negative"


SUITES = [
    ("appendix-algebra", suite_appendix_algebra),
    ("generator-forms", suite_generator_forms),
    ("tau-conservation", suite_tau_conservation),
    ("closed-form-stationarity", suite_closed_form_stationarity),
    ("ppt-concurrence", suite_ppt_concurrence),
    ("family-constraints", suite_family_constraints),
    ("nullspace-oracle", suite_nullspace_oracle),
    ("asymptotic-convergence", suite_asymptotic_convergence),
    ("commutant", suite_commutant),
    ("generation-consistency", suite_generation_consistency),
]


def run_all(seed=None):
    """Yield `(name, passed, detail, seconds)` for each suite in turn, each run
    with a fresh generator seeded by the run seed and the suite's index."""
    if seed is None:
        seed = run_seed()
    for index, (name, fn) in enumerate(SUITES):
        rng = np.random.default_rng([seed, index])
        start = time.perf_counter()
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        yield name, ok, detail, time.perf_counter() - start
