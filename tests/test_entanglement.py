"""Concurrence routes, the positivity witness, and generation verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbath.bath import make_bath
from pairbath.entanglement import (concurrence, concurrence_closed,
                                   generation_test, partial_transpose)
from pairbath.generator import evolve
from pairbath.pauli_algebra import P_SINGLET, convert

from conftest import (random_aligned_bath, random_ket, random_state,
                      random_xstate, xstate_concurrence)


def test_partial_transpose_structure(rng):
    rho = random_state(rng)
    pt, min_eig = partial_transpose(rho)
    assert np.isclose(np.trace(pt).real, 1.0)
    assert np.abs(pt - pt.conj().T).max() < 1e-14
    again, _ = partial_transpose(pt)
    assert np.abs(again - rho).max() == 0.0
    assert np.isclose(min_eig, np.linalg.eigvalsh(pt).min())
    # transposition acts on the second factor only
    basis = np.eye(2)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lhs = pt[2 * a + b, 2 * c + d]
                    assert np.isclose(lhs, rho[2 * a + d, 2 * c + b])


def test_partial_transpose_benchmarks():
    _, me = partial_transpose(P_SINGLET)
    assert np.isclose(me, -0.5)
    _, me = partial_transpose(np.eye(4, dtype=complex) / 4)
    assert np.isclose(me, 0.25)


def test_concurrence_benchmarks(rng):
    assert concurrence(P_SINGLET) > 1 - 1e-12
    assert concurrence(np.eye(4, dtype=complex) / 4) == 0.0
    phi, psi = random_ket(rng), random_ket(rng)
    v = np.kron(phi, psi)
    assert concurrence(np.outer(v, v.conj())) < 1e-7


def test_concurrence_pure_states(rng):
    # for a pure state, concurrence = 2 |ad - bc|
    for _ in range(20):
        v = random_ket(rng, dim=4)
        rho = np.outer(v, v.conj())
        expect = 2 * abs(v[0] * v[3] - v[1] * v[2])
        assert abs(concurrence(rho) - expect) < 1e-10


def test_concurrence_pure_product_states_are_exactly_separable(rng):
    # the spin-flipped root leaves no square-root-of-rounding floor
    worst = 0.0
    for _ in range(500):
        v = np.kron(random_ket(rng), random_ket(rng))
        worst = max(worst, concurrence(np.outer(v, v.conj())))
    assert worst <= 1e-14


_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _two_root_concurrence(rho):
    # reference: independent square roots of rho and of its spin flip
    def root(m):
        w, U = np.linalg.eigh(m)
        roots = np.sqrt(np.clip(w, 0.0, None))[..., None, :]
        return (U * roots) @ U.conj().swapaxes(-1, -2)

    prod = root(rho) @ root(_YY @ rho.conj() @ _YY)
    mu = np.linalg.svd(prod, compute_uv=False)
    return np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])


def test_concurrence_matches_two_root_formula(rng):
    stack = np.array([random_state(rng, rank=r)
                      for r in (2, 3, 4) for _ in range(100)])
    reference = _two_root_concurrence(stack)
    assert np.abs(concurrence(stack) - reference).max() <= 1e-12
    for rho, c in zip(stack, reference):
        assert abs(concurrence(rho) - c) <= 1e-12


def test_concurrence_takes_one_eigh_per_call(rng, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    concurrence(random_state(rng))
    assert calls == [(4, 4)]
    concurrence(np.array([random_state(rng) for _ in range(5)]))
    assert calls == [(4, 4), (5, 4, 4)]


def test_concurrence_against_xstate_oracle(rng):
    worst = 0.0
    for _ in range(200):
        rho = random_xstate(rng)
        worst = max(worst, abs(concurrence(rho) - xstate_concurrence(rho)))
    assert worst < 1e-12


def test_stacked_kernels_match_single_matrices(rng):
    stack = np.array([[random_state(rng, rank=r) for r in (1, 2, 3, 4)]
                      for _ in range(3)])
    pts, min_eigs = partial_transpose(stack)
    concs = concurrence(stack)
    assert pts.shape == stack.shape and min_eigs.shape == concs.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        pt, min_eig = partial_transpose(stack[idx])
        c = concurrence(stack[idx])
        assert type(min_eig) is float and type(c) is float
        assert pt.tobytes() == pts[idx].tobytes()
        assert min_eig == min_eigs[idx] and c == concs[idx]


def test_concurrence_of_empty_stack_is_empty():
    c = concurrence(np.zeros((0, 4, 4), dtype=complex))
    assert isinstance(c, np.ndarray) and c.shape == (0,)


def test_concurrence_rejects_non_state():
    with pytest.raises(ValueError, match="not a state"):
        concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_ppt_iff_concurrence(rng):
    for _ in range(1000):
        rho = random_state(rng, rank=int(rng.integers(1, 5)))
        _, min_eig = partial_transpose(rho)
        assert (min_eig < -1e-10) == (concurrence(rho) > 1e-10)


def test_closed_form_examples():
    out = concurrence_closed(0.5, 0.125, 1.0)
    assert np.isclose(out["Delta"], 0.75)
    assert np.isclose(out["threshold"], -7.0 / 11.0)
    assert out["C"] == 0.0  # tau above threshold

    # M = R = 0: gap 1, threshold -1, C = -(1 + tau)/2 below it
    out = concurrence_closed(0.0, 0.0, -2.0)
    assert np.isclose(out["Delta"], 1.0)
    assert np.isclose(out["threshold"], -1.0)
    assert np.isclose(out["C"], 0.5)


def test_closed_form_singlet_is_exactly_one(rng):
    for _ in range(50):
        R = rng.uniform(0.0, 0.5)
        M = rng.uniform(0, 1) * np.sqrt(2 * R)
        assert concurrence_closed(M, R, -3.0)["C"] == 1.0


def test_closed_form_validation():
    with pytest.raises(ValueError, match="2R"):
        concurrence_closed(0.0, 0.7, 0.0)
    with pytest.raises(ValueError, match="M"):
        concurrence_closed(0.9, 0.1, 0.0)
    with pytest.raises(ValueError, match="trace"):
        concurrence_closed(0.1, 0.1, 1.5)


def test_closed_form_affine_below_threshold():
    M, R = 0.3, 0.2
    thr = concurrence_closed(M, R, -3.0)["threshold"]
    taus = np.array([-3.0, 0.5 * (-3.0 + thr), thr])
    vals = np.array([concurrence_closed(M, R, t)["C"] for t in taus])
    # three-point collinearity at machine precision
    slope1 = (vals[1] - vals[0]) / (taus[1] - taus[0])
    slope2 = (vals[2] - vals[1]) / (taus[2] - taus[1])
    assert abs(slope1 - slope2) < 1e-13


def test_closed_form_threshold_is_the_zero():
    for M, R in [(0.0, 0.1), (0.4, 0.3), (0.2, 0.45)]:
        thr = concurrence_closed(M, R, 0.0)["threshold"]
        assert concurrence_closed(M, R, thr + 1e-9)["C"] == 0.0
        assert concurrence_closed(M, R, thr - 1e-6)["C"] > 0.0


def test_generation_aligned_ground_pair_is_inconclusive():
    # both spins along the bath vector: the first-order witness is blind
    blk = make_bath(np.eye(3), [0, 0, 0.5])
    v = generation_test([1, 0], [1, 0], blk)
    assert not v.generated
    assert v.inconclusive
    assert v.witness_eigenvalue_rate == 0.0


def test_generation_antiparallel_pair_rate():
    blk = make_bath(np.eye(3), [0, 0, 1.0])
    v = generation_test([1, 0], [0, 1], blk)
    assert v.generated
    assert not v.inconclusive
    assert abs(v.witness_eigenvalue_rate - (2 - 2 * np.sqrt(2))) < 1e-12


def test_generation_requires_bath_vector():
    blk = make_bath(np.diag([1.0, 0.6, 0.3]), np.zeros(3))
    v = generation_test([1, 0], [1, 0], blk)
    assert not v.generated


def test_generation_phase_invariance(rng):
    blk = random_aligned_bath(rng)
    phi, psi = random_ket(rng), random_ket(rng)
    v0 = generation_test(phi, psi, blk)
    v1 = generation_test(np.exp(0.73j) * phi, np.exp(-1.2j) * psi, blk)
    assert v0.generated == v1.generated
    assert abs(v0.witness_eigenvalue_rate - v1.witness_eigenvalue_rate) < 1e-12


def test_generation_rejects_unnormalized():
    blk = make_bath(np.eye(3), [0, 0, 0.5])
    with pytest.raises(ValueError, match="normalized"):
        generation_test([1, 1], [1, 0], blk)


def test_generation_predicts_short_time_negativity(rng):
    confirmed = 0
    for _ in range(120):
        if confirmed >= 8:
            break
        blk = random_aligned_bath(rng)
        phi, psi = random_ket(rng), random_ket(rng)
        verdict = generation_test(phi, psi, blk)
        if not verdict.generated:
            continue
        confirmed += 1
        v = np.kron(phi, psi)
        tr = evolve(convert(np.outer(v, v.conj())), blk,
                    t_end=1e-3, dt=1e-5, sample_every=100)
        assert tr.min_pt_eig[-1] < 0
        # first-order prediction of the slope matches the dynamics
        assert np.isclose(tr.min_pt_eig[-1] / 1e-3,
                          verdict.witness_eigenvalue_rate, rtol=0.05)
    assert confirmed >= 8


def test_closed_form_delta_at_rounded_boundary():
    # sqrt(2R)**2 exceeds 2R by one ulp here; Delta must not dip below |1 - 2R|
    R = 0.46875
    out = concurrence_closed(np.sqrt(2 * R), R, 0.0)
    assert out["Delta"] == abs(1 - 2 * R)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.floats(-3.0, 1.0))
def test_closed_form_range_property(R, m_frac, tau):
    M = m_frac * np.sqrt(2 * R)
    out = concurrence_closed(M, R, tau)
    assert 0.0 <= out["C"] <= 1.0
    assert out["Delta"] >= abs(1 - 2 * R) - 1e-15
    assert -3.0 <= out["threshold"] <= 1.0 + 1e-12
