"""Concurrence routes, the positivity witness, and generation verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbath.bath import make_bath
from pairbath.entanglement import (concurrence, concurrence_closed,
                                   generation_test, partial_transpose,
                                   xstate_measures)
from pairbath.generator import evolve
from pairbath.pauli_algebra import (AXIS_RELABEL, P_SINGLET, X_OFF_ENTRIES,
                                    convert, project_matrices)
from pairbath.steady_state import equilibrium_components, stationary_family

from conftest import (random_block, random_ket, random_state,
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


def _eigh_factor_concurrence(rho):
    # reference: the eigh factor W = U diag(sqrt(w)), the route `concurrence`
    # falls back to and the only route it had before the Cholesky factor
    w, U = np.linalg.eigh(rho)
    W = U * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    YW = W[..., ::-1, :] * np.array([-1.0, 1.0, 1.0, -1.0])[:, None]
    mu = np.linalg.svd(W.swapaxes(-1, -2) @ YW, compute_uv=False)
    return np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])


def _state_with_spectrum(rng, spectrum):
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    U, _ = np.linalg.qr(X)
    return (U * np.asarray(spectrum, dtype=float)) @ U.conj().T


def _spectrum(rng, rank, smallest):
    # `rank` nonzero eigenvalues summing to 1, the smallest nonzero one
    # `smallest` (a pure state has just the eigenvalue 1)
    p = np.zeros(4)
    if rank == 1:
        p[0] = 1.0
    else:
        rest = rng.uniform(0.1, 1.0, size=rank - 1)
        p[:rank - 1] = rest * (1.0 - smallest) / rest.sum()
        p[rank - 1] = smallest
    return p


def test_concurrence_takes_eigh_only_where_cholesky_falls_short(rng, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # full-rank states, one with its smallest eigenvalue 1e-11: every
    # Cholesky pivot is at least that, above the 1e-12 floor
    full = [random_state(rng) for _ in range(4)]
    full.append(_state_with_spectrum(rng, _spectrum(rng, 4, 1e-11)))
    concurrence(np.array(full))
    assert calls == []

    # pure, rank-2 and rank-3 states fail the factorization or fall under
    # the floor; those three, and only those, go to one eigh call
    v = random_ket(rng, dim=4)
    weak = [np.outer(v, v.conj()), random_state(rng, rank=2),
            random_state(rng, rank=3)]
    mixed = np.array([full[0], weak[0], full[1], full[4], weak[1], weak[2]])
    concurrence(mixed)
    assert len(calls) == 1 and calls[0].tobytes() == np.array(weak).tobytes()

    calls.clear()
    concurrence(weak[0])
    assert len(calls) == 1 and calls[0].tobytes() == weak[0][None].tobytes()


def test_concurrence_matches_eigh_factor_formula(rng):
    cases = {(rank, 10.0 ** -k): np.array([
        _state_with_spectrum(rng, _spectrum(rng, rank, 10.0 ** -k))
        for _ in range(40)]) for rank in (1, 2, 3, 4) for k in range(2, 17, 2)}
    for (rank, smallest), stack in cases.items():
        reference = _eigh_factor_concurrence(stack)
        concs = concurrence(stack)
        assert np.abs(concs - reference).max() <= 1e-13, (rank, smallest)
        if rank < 4:  # rank-deficient states keep the eigh factor exactly
            assert concs.tobytes() == reference.tobytes(), (rank, smallest)

    # factorable and non-factorable members in one stack: each member's
    # value is its value alone, bit for bit
    mixed = np.concatenate([cases[4, 1e-2][:10], cases[1, 1e-2][:5],
                            cases[4, 1e-12][:10], cases[3, 1e-16][:5]])
    mixed = mixed[rng.permutation(len(mixed))]
    concs = concurrence(mixed)
    assert [concurrence(rho) for rho in mixed] == concs.tolist()


def test_concurrence_against_xstate_oracle(rng):
    worst = 0.0
    for _ in range(200):
        rho = random_xstate(rng)
        worst = max(worst, abs(concurrence(rho) - xstate_concurrence(rho)))
    assert worst < 1e-12


def test_xstate_measures_match_matrix_routes(rng):
    # random X-states, with both channels' phases, and the boundary states
    # |00>, |01>, the singlet and the maximally mixed state
    rhos = [random_xstate(rng) for _ in range(400)]
    rhos += [np.diag(d).astype(complex) for d in np.eye(4)[:2]]
    rhos += [P_SINGLET, np.eye(4) / 4]
    vectors = project_matrices(np.array(rhos))
    assert not vectors[:, X_OFF_ENTRIES].any()
    min_pt, conc = xstate_measures(vectors)
    for k, rho in enumerate(rhos):
        assert xstate_measures(vectors[k]) == (min_pt[k], conc[k])
        assert abs(min_pt[k] - partial_transpose(rho)[1]) <= 1e-14
        assert abs(conc[k] - xstate_concurrence(rho)) <= 1e-12
        assert abs(conc[k] - concurrence(rho)) <= 1e-12
    assert np.all(conc[min_pt >= 0] == 0.0)
    assert (min_pt < 0).sum() > 100 and conc[-2] == 1.0


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
    out = concurrence_closed(0.5, 0.0, 0.125, 1.0)
    assert np.isclose(out["Delta"], 0.75)
    assert np.isclose(out["threshold"], -7.0 / 11.0)
    assert out["C"] == 0.0  # tau above threshold

    # M = R = 0: gap 1, threshold -1, C = -(1 + tau)/2 below it
    out = concurrence_closed(0.0, 0.0, 0.0, -2.0)
    assert np.isclose(out["Delta"], 1.0)
    assert np.isclose(out["threshold"], -1.0)
    assert np.isclose(out["C"], 0.5)


def test_closed_form_singlet_is_exactly_one(rng):
    for _ in range(50):
        R = rng.uniform(0.0, 0.5)
        M = rng.uniform(0, 1) * np.sqrt(2 * R)
        assert concurrence_closed(M, 0.0, R, -3.0)["C"] == 1.0


def test_closed_form_validation():
    with pytest.raises(ValueError, match="2R"):
        concurrence_closed(0.0, 0.0, 0.7, 0.0)
    with pytest.raises(ValueError, match="M"):
        concurrence_closed(0.9, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError, match="trace"):
        concurrence_closed(0.1, 0.0, 0.1, 1.5)


def test_closed_form_affine_below_threshold():
    M, R = 0.3, 0.2
    thr = concurrence_closed(M, 0.0, R, -3.0)["threshold"]
    taus = np.array([-3.0, 0.5 * (-3.0 + thr), thr])
    vals = np.array([concurrence_closed(M, 0.0, R, t)["C"] for t in taus])
    # three-point collinearity at machine precision
    slope1 = (vals[1] - vals[0]) / (taus[1] - taus[0])
    slope2 = (vals[2] - vals[1]) / (taus[2] - taus[1])
    assert abs(slope1 - slope2) < 1e-13


def test_closed_form_threshold_is_the_zero():
    for M, R in [(0.0, 0.1), (0.4, 0.3), (0.2, 0.45)]:
        thr = concurrence_closed(M, 0.0, R, 0.0)["threshold"]
        assert concurrence_closed(M, 0.0, R, thr + 1e-9)["C"] == 0.0
        assert concurrence_closed(M, 0.0, R, thr - 1e-6)["C"] > 0.0


def _aligned_family(lam, axis, b):
    """Stationary family of A = diag(lam) with the bath vector b e_axis."""
    B = np.zeros(3)
    B[axis] = b
    return stationary_family(make_bath(np.diag(lam), B))


@pytest.mark.parametrize("lam, f, expected", [
    ((20.0, 0.5, 0.01), 0.99, (0.4345546043259, 0.9127394724345)),
    ((1.0, 0.00668, 1e-4), 0.99985, (0.4787625013582, 0.9716833351443)),
])
def test_closed_form_reads_the_rho14_channel(lam, f, expected):
    # past 8|N| = 1 - 2R the rho_14 channel carries the concurrence at
    # tau = 0 and tau = 1, where the rho_23 channel reads 0
    fam = _aligned_family(lam, 2, f * np.sqrt(lam[0] * lam[1]))
    assert 8 * abs(fam.N) > 1 - 2 * fam.R
    for tau, c in zip((0.0, 1.0), expected):
        closed = concurrence_closed(fam.M, fam.N, fam.R, tau)["C"]
        assert abs(closed - c) <= 1e-12
        assert abs(closed - concurrence(equilibrium_components(tau, fam).state)) <= 1e-12


def test_closed_form_matches_wootters_on_aligned_baths(rng):
    """Diagonal A with rates log-uniform over six decades, B on a random axis
    with a random sign, |B| = f sqrt(product of the transverse rates): f =
    1 - 10^u, u uniform in (-6, 0), on every other draw, f uniform in (0, 1)
    on the rest.  The closed form matches Wootters' concurrence and the
    X-state closed form of the equilibrium at 21 values of tau."""
    n, past, worst = 200, 0, 0.0
    for k in range(n):
        lam = 10.0 ** rng.uniform(-3.0, 3.0, 3)
        axis = int(rng.integers(3))
        f = 1 - 10.0 ** rng.uniform(-6.0, 0.0) if k % 2 else rng.uniform(0.0, 1.0)
        transverse = np.prod(np.delete(lam, axis))
        fam = _aligned_family(lam, axis, rng.choice([-1.0, 1.0]) * f * np.sqrt(transverse))
        past += 8 * abs(fam.N) > 1 - 2 * fam.R
        for tau in np.linspace(-3.0, 1.0, 21):
            closed = concurrence_closed(fam.M, fam.N, fam.R, tau)["C"]
            state = equilibrium_components(tau, fam).state
            x_c = xstate_measures(project_matrices(state)[AXIS_RELABEL[axis]])[1]
            worst = max(worst, abs(closed - concurrence(state)), abs(closed - x_c))
    assert past >= n // 4
    assert worst <= 1e-11, worst


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
    blk = random_block(rng)
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
    # eight generating pairs take 116 draws at the fixture seed and at most
    # 247 at fixture seeds 0-999, so the cap does not decide the test
    confirmed = 0
    for _ in range(400):
        if confirmed >= 8:
            break
        blk = random_block(rng)
        phi, psi = random_ket(rng), random_ket(rng)
        verdict = generation_test(phi, psi, blk)
        if not verdict.generated:
            continue
        confirmed += 1
        v = np.kron(phi, psi)
        rho0 = convert(np.outer(v, v.conj()))
        # the prediction is the slope at t -> 0, so some t down to 1e-8 must
        # show a negative partial-transpose eigenvalue lambda(t) with
        # lambda(t) / t within 5 % of it; at one fixed t the second-order
        # term can swamp a small rate
        slopes = []
        for t in 10.0 ** -np.arange(3, 9):
            lam = evolve(rho0, blk, t_end=t, dt=t, sample_every=1).min_pt_eig[-1]
            slopes.append(lam / t if lam < 0 else np.nan)
        assert np.isclose(slopes, verdict.witness_eigenvalue_rate, rtol=0.05).any(), \
            (slopes, verdict.witness_eigenvalue_rate)
    assert confirmed >= 8


def test_closed_form_delta_at_rounded_boundary():
    # sqrt(2R)**2 exceeds 2R by one ulp here; Delta must not dip below |1 - 2R|
    R = 0.46875
    out = concurrence_closed(np.sqrt(2 * R), 0.0, R, 0.0)
    assert out["Delta"] == abs(1 - 2 * R)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.floats(-3.0, 1.0))
def test_closed_form_range_property(R, m_frac, tau):
    M = m_frac * np.sqrt(2 * R)
    out = concurrence_closed(M, 0.0, R, tau)
    assert 0.0 <= out["C"] <= 1.0
    assert out["Delta"] >= abs(1 - 2 * R) - 1e-15
    assert -3.0 <= out["threshold"] <= 1.0 + 1e-12
