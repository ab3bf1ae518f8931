"""Acceptance gate: the ten published correctness criteria, one test each.

Each test prints a single PASS/FAIL line (visible under pytest -rA / -s)
and then asserts, so the whole gate reads as a checklist.  Tolerances are
the published ones; random draws are seeded per criterion so the tests are
order-independent and reproducible.
"""

import numpy as np

from pairbath.bath import assemble_full_C, make_bath
from pairbath.config import product_state, werner_state
from pairbath.entanglement import (concurrence, concurrence_closed,
                                   generation_test)
from pairbath.generator import (diagonal_form_check, evolve, rate_scale,
                                rhs_components, rhs_equal_blocks, rhs_general)
from pairbath.pauli_algebra import (P_SINGLET, assemble_matrices,
                                    check_appendix_algebra, convert, tau_of)
from pairbath.steady_state import (asymptotic_state, equilibrium_components,
                                   liouvillian_null_space, stationary_family)

from conftest import (closed_form_exact_ensemble, random_block,
                      random_ket, random_offaxis_bath, random_state,
                      trace_distance)

EYE4 = np.eye(4)


def _rng(criterion):
    return np.random.default_rng([20260821, criterion])


def _report(num, ok, label):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def _random_bath(rng):
    if rng.uniform() < 0.6:
        return random_block(rng)
    return random_offaxis_bath(rng)


def test_criterion_01_appendix_algebra():
    residual = check_appendix_algebra()
    assert _report(1, residual < 1e-13,
                   f"product identities, max residual {residual:.2e} < 1e-13")


def test_criterion_02_generator_equivalence():
    rng = _rng(2)
    worst = 0.0
    for _ in range(100):
        blk = _random_bath(rng)
        rho = random_state(rng)
        m = rhs_equal_blocks(rho, blk)
        g = rhs_general(rho, assemble_full_C(blk))
        c = convert(rhs_components(convert(rho), blk)) - EYE4 / 4
        worst = max(worst,
                    float(np.abs(g - m).max()),
                    float(np.abs(c - m).max()),
                    float(np.abs(c - g).max()),
                    diagonal_form_check(blk, rho))
    assert _report(2, worst < 1e-11,
                   f"four generator forms on 100 pairs, max deviation "
                   f"{worst:.2e} < 1e-11")


def test_criterion_03_tau_conservation():
    rng = _rng(3)
    drift = 0.0
    for _ in range(20):
        blk = _random_bath(rng)
        tr = evolve(convert(random_state(rng)), blk,
                    t_end=100.0, dt=0.01, sample_every=1000)
        drift = max(drift, float(np.abs(tr.tau - tr.tau[0]).max()))

    # equal diagonal blocks with the cross block removed: not conserved
    C = np.zeros((6, 6))
    C[:3, :3] = np.eye(3)
    C[3:, 3:] = np.eye(3)
    tr = evolve(convert(P_SINGLET), C, t_end=0.5, dt=0.005, sample_every=100)
    broken = abs(tr.tau[-1] + 3.0)

    ok = drift < 1e-9 and broken > 1e-3
    assert _report(3, ok,
                   f"correlation trace drift {drift:.2e} < 1e-9 over t=100 on "
                   f"20 baths; decoupled-block drift {broken:.3f} > 1e-3")


def test_criterion_04_closed_form_stationarity():
    rng = _rng(4)
    worst = 0.0
    for _ in range(100):
        blk = random_block(rng)
        fam = stationary_family(blk)
        worst = max(worst, float(np.abs(rhs_equal_blocks(fam.rho0_hat, blk)).max()))
    assert _report(4, worst < 1e-12,
                   f"generator on rho0_hat for 100 baths, max entry "
                   f"{worst:.2e} < 1e-12")


def test_criterion_05_asymptotic_convergence():
    rng = _rng(5)
    worst = 0.0
    for _ in range(20):
        blk = random_block(rng)
        fam = stationary_family(blk)
        rho0 = convert(random_state(rng))
        tr = evolve(rho0, blk, sample_every=100000)
        target = asymptotic_state(rho0, fam).state
        worst = max(worst, trace_distance(assemble_matrices(tr.coeffs[-1]), target))
    assert _report(5, worst < 1e-6,
                   f"t=50/scale endpoint vs predicted equilibrium, max trace "
                   f"distance {worst:.2e} < 1e-6")


def test_criterion_06_concurrence_cross_check():
    rng = _rng(6)
    worst = 0.0
    entangled = 0
    for k, (blk, fam) in enumerate(closed_form_exact_ensemble(rng, 10)):
        rho0 = convert(random_state(rng))
        if k % 2 == 0:
            # push tau below the entanglement threshold (which never drops
            # under -1.25) so the nonzero branch is exercised too
            w = rng.uniform(0.6, 0.9)
            rho0 = (1 - w) * rho0 + w * werner_state(0)
        closed = concurrence_closed(fam.M, fam.R, tau_of(rho0))["C"]
        entangled += closed > 0
        tr = evolve(rho0, blk, dt=0.005 / rate_scale(blk), sample_every=100000)
        wootters = concurrence(assemble_matrices(tr.coeffs[-1]))
        worst = max(worst, abs(wootters - closed))

    exact = all(concurrence_closed(fam.M, fam.R, -3.0)["C"] == 1.0
                for _, fam in closed_form_exact_ensemble(rng, 5))

    ok = worst < 1e-6 and exact and entangled >= 5
    assert _report(6, ok,
                   f"evolved Wootters vs closed form, max |diff| {worst:.2e} "
                   f"< 1e-6 ({entangled}/10 draws entangled); value at "
                   f"tau=-3 exactly 1: {exact}")


def test_criterion_07_werner_enhancement():
    blk = make_bath(np.eye(3), np.array([0.0, 0.0, 0.5]))
    factor = 1 - 2.75 / 3.25

    def measured_delta(s):
        start = werner_state(s)
        tr = evolve(start, blk, sample_every=100000)
        return concurrence(assemble_matrices(tr.coeffs[-1])) - concurrence(convert(start))

    d25 = measured_delta(0.25)
    err25 = abs(d25 - 2 * 0.25 * factor)
    d_small = measured_delta(1e-3)
    bound = 3e-3 * factor + 1e-6

    ok = err25 < 1e-5 and abs(d_small) < bound
    assert _report(7, ok,
                   f"werner s=0.25 enhancement {d25:.6f} within {err25:.1e} of "
                   f"0.076923 (< 1e-5); |dC(s=1e-3)| = {abs(d_small):.2e} < "
                   f"{bound:.2e}")


def test_criterion_08_entanglement_generation():
    rng = _rng(8)
    confirmed, attempts = 0, 0
    worst_pt = -np.inf
    while confirmed < 20 and attempts < 400:
        attempts += 1
        blk = _random_bath(rng)
        phi, psi = random_ket(rng), random_ket(rng)
        if not generation_test(phi, psi, blk).generated:
            continue
        tr = evolve(product_state(phi, psi), blk,
                    t_end=1e-3, dt=1e-5, sample_every=100)
        worst_pt = max(worst_pt, float(tr.min_pt_eig[-1]))
        confirmed += 1

    # with no bath vector, separable starts (tau >= -1) stay separable
    blk0 = make_bath(np.diag([1.0, 0.7, 0.4]), np.zeros(3))
    fam0 = stationary_family(blk0)
    sep_ok = True
    for _ in range(10):
        start = product_state(random_ket(rng), random_ket(rng))
        tau0 = tau_of(start)
        final = asymptotic_state(start, fam0)
        sep_ok = sep_ok and tau0 >= -1 - 1e-12 \
            and concurrence_closed(0.0, 0.0, tau0)["C"] == 0.0 \
            and concurrence(final.state) < 1e-7

    ok = confirmed == 20 and worst_pt < 0 and sep_ok
    assert _report(8, ok,
                   f"{confirmed}/20 generated=true cases have negative min PT "
                   f"eigenvalue at t=1e-3 (worst {worst_pt:.2e}); B=0 "
                   f"separable starts stay separable: {sep_ok}")


def test_criterion_09_nullspace_oracle():
    rng = _rng(9)
    worst = 0.0
    dims_ok = True
    for _ in range(25):
        blk = random_block(rng)
        fam = stationary_family(blk)
        sol = liouvillian_null_space(blk)
        dims_ok = dims_ok and sol["dimension"] == 1 \
            and sol["full_rank_member"] is not None
        if not dims_ok:
            break
        d = sol["basis"][0]
        tau_d = d[6] + d[10] + d[14]
        vec = convert(sol["full_rank_member"])
        tau_b = tau_of(vec)
        for tau in np.linspace(-3.0, 1.0, 9):
            member = convert(vec + (tau - tau_b) / tau_d * d)
            worst = max(worst, float(np.abs(
                member - equilibrium_components(tau, fam).state).max()))
    ok = dims_ok and worst < 1e-9
    assert _report(9, ok,
                   f"null space dimension 1 on 25 interior baths: {dims_ok}; "
                   f"max deviation from component formulas {worst:.2e} < 1e-9")


def test_criterion_10_isolated_fixed_point():
    rng = _rng(10)
    singlet = werner_state(0)
    p_matrix = convert(singlet)
    worst_fix = 0.0
    below_one = True
    for _ in range(5):
        fam = stationary_family(random_block(rng))
        worst_fix = max(worst_fix, trace_distance(
            asymptotic_state(singlet, fam).state, p_matrix))
        for s in np.linspace(0.01, 0.74, 8):
            c_closed = concurrence_closed(fam.M, fam.R, 4 * s - 3)["C"]
            c_num = concurrence(asymptotic_state(werner_state(s), fam).state)
            below_one = below_one and c_closed < 1.0 and c_num < 1.0
    ok = worst_fix < 1e-12 and below_one
    assert _report(10, ok,
                   f"maximally entangled projector fixed within {worst_fix:.2e} "
                   f"< 1e-12; every s > 0 start ends at concurrence < 1: "
                   f"{below_one}")
