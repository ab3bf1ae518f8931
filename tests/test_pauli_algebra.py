"""Operator basis, coefficient representation, and the product identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairbath.pauli_algebra import (AXIS_RELABEL, BIG_SIGMA, EXPANSION_REAL,
                                    IDENT4, P_SINGLET, Q_TRIPLET, S_OPS,
                                    S_TOTAL, SIGMA,
                                    TAU_ENTRIES, X_ENTRIES, X_OFF_ENTRIES,
                                    assemble_matrices, check_appendix_algebra,
                                    check_density_matrix, convert,
                                    first_non_state, levi_civita,
                                    project_matrices, tau_of)

from pairbath.config import ConfigError, build_initial, parse_config
from pairbath.entanglement import concurrence
from pairbath.generator import IntegrationAccuracyError, _check_samples

from conftest import COLLECTIVE, EYE2, PAULI, floor_matrices, random_state

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def test_basis_contents():
    for k, s in enumerate(SIGMA):
        assert np.allclose(s, PAULI[k])
        assert np.allclose(s @ s, np.eye(2))
    for k in range(3):
        assert np.allclose(BIG_SIGMA[k], COLLECTIVE[k])
    for i in range(3):
        for j in range(3):
            expect = (np.kron(PAULI[i], PAULI[j]) + np.kron(PAULI[j], PAULI[i]))
            assert np.allclose(S_OPS[i][j], expect)
            assert np.allclose(S_OPS[i][j], S_OPS[j][i])
    assert np.allclose(S_TOTAL, sum(S_OPS[i][i] for i in range(3)))
    # the singlet projector and its complement, from the singlet ket
    assert np.allclose(P_SINGLET, np.outer(SINGLET, SINGLET.conj()))
    assert np.allclose(Q_TRIPLET, np.eye(4) - np.outer(SINGLET, SINGLET.conj()))


def test_projectors():
    assert np.allclose(P_SINGLET @ P_SINGLET, P_SINGLET)
    assert np.allclose(Q_TRIPLET @ Q_TRIPLET, Q_TRIPLET)
    assert np.allclose(P_SINGLET + Q_TRIPLET, IDENT4)
    assert np.allclose(P_SINGLET @ Q_TRIPLET, 0)
    assert np.isclose(np.trace(P_SINGLET).real, 1.0)
    # P is the projector onto the antisymmetric pure state
    assert np.allclose(P_SINGLET, np.outer(SINGLET, SINGLET.conj()))
    # and commutes with every collective operator
    for S in COLLECTIVE:
        assert np.abs(P_SINGLET @ S - S @ P_SINGLET).max() < 1e-15


def test_levi_civita_table():
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if {i, j, k} != {0, 1, 2}:
                    assert levi_civita(i, j, k) == 0.0
    assert levi_civita(0, 1, 2) == 1.0
    assert levi_civita(1, 2, 0) == 1.0
    assert levi_civita(2, 0, 1) == 1.0
    assert levi_civita(1, 0, 2) == -1.0
    assert levi_civita(0, 2, 1) == -1.0
    assert levi_civita(2, 1, 0) == -1.0


def test_appendix_algebra_residual():
    assert check_appendix_algebra() < 1e-13


def test_one_identity_instance_by_hand():
    # Sigma_1 Sigma_2 = i Sigma_3 + S_12 (the delta term vanishes off-diagonal)
    lhs = COLLECTIVE[0] @ COLLECTIVE[1]
    s12 = np.kron(PAULI[0], PAULI[1]) + np.kron(PAULI[1], PAULI[0])
    assert np.abs(lhs - (1j * COLLECTIVE[2] + s12)).max() < 1e-15


def test_convert_round_trip_matrix(rng):
    for _ in range(20):
        rho = random_state(rng)
        back = convert(convert(rho))
        assert np.abs(back - rho).max() < 1e-14


def test_convert_round_trip_coefficients(rng):
    v = rng.uniform(-0.3, 0.3, 15)
    back = convert(convert(v))
    assert np.abs(back - v).max() < 1e-14


def test_assemble_matrices_is_convert_bit_for_bit(rng):
    # exact zeros, tiny and unit-size entries, in stacks of two shapes
    vectors = rng.uniform(-1, 1, (2, 3, 15)) * rng.choice([0.0, 1e-17, 0.3, 1.0],
                                                         (2, 3, 15))
    mats = convert(vectors)
    assert mats.shape == (2, 3, 4, 4)
    assert mats.tobytes() == assemble_matrices(vectors).tobytes()
    for idx in np.ndindex(2, 3):
        one = convert(vectors[idx])
        assert one.tobytes() == mats[idx].tobytes()
        assert one.tobytes() == assemble_matrices(vectors[idx][None])[0].tobytes()


def _assemble_term_by_term(v):
    """The expansion summed one operator at a time: identity, then for each i
    the pair c_i (1 x sigma_i) + c_{3+i} (sigma_i x 1), then sigma_i x sigma_j."""
    ops = ([np.kron(EYE2, s) for s in PAULI] + [np.kron(s, EYE2) for s in PAULI]
           + [np.kron(a, b) for a in PAULI for b in PAULI])
    c = v if v.ndim == 1 else np.moveaxis(v, -1, 0)[..., None, None]
    mat = np.empty(v.shape[:-1] + (4, 4), dtype=complex)
    mat[...] = np.eye(4)
    for i in range(3):
        mat += c[i] * ops[i] + c[3 + i] * ops[3 + i]
        for k in range(6 + 3 * i, 9 + 3 * i):
            mat += c[k] * ops[k]
    return mat / 4


def _assembly_ulps(v):
    """The spacing of the largest term of each assembled matrix, 1/4 or
    |v_k|/4, shaped to broadcast over the matrices' real view."""
    largest = 0.25 * np.maximum(1.0, np.abs(v).max(axis=-1, initial=0.0))
    return np.spacing(largest)[..., None, None]


def test_assemble_matrices_matches_term_loop(rng):
    # the product sums the terms of an entry in BLAS's order, not the loop's:
    # the two agree to a few ulps of the matrix's largest term
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-17, 0.5, -0.5,
               1.0, -1.0, 1e5, -1e5]
    for shape in [(15,), (0, 15), (1, 15), (7, 15), (2, 3, 15)]:
        for _ in range(40):
            v = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, shape)
                 * rng.choice([0.0, -0.0, 1.0, 1.0], shape))
            picked = rng.random(shape) < 0.3
            v[picked] = rng.choice(special, int(picked.sum()))
            mats = assemble_matrices(v)
            assert mats.shape == shape[:-1] + (4, 4)
            diff = np.abs(mats - _assemble_term_by_term(v)).view(float)
            assert (diff <= 4 * _assembly_ulps(v)).all()
    # the sigma_z pair cancelling the identity on the diagonal, and its sign flips
    v = np.zeros((8, 15))
    v[:, [2, 5, 14]] = [[s2 * 0.5, s5 * 0.5, s14 * 2**-53]
                        for s2 in (1, -1) for s5 in (1, -1) for s14 in (1, -1)]
    diff = np.abs(assemble_matrices(v) - _assemble_term_by_term(v)).view(float)
    assert (diff <= 4 * _assembly_ulps(v)).all()


def _trace_projection(mat):
    """Coefficients and tau of a matrix, one trace per expansion operator."""
    ext = [EYE2] + PAULI
    pairs = ([(0, i) for i in (1, 2, 3)] + [(i, 0) for i in (1, 2, 3)]
             + [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    coeffs = np.array([np.trace(mat @ np.kron(ext[a], ext[b])).real for a, b in pairs])
    tau = float(sum(np.trace(mat @ np.kron(PAULI[i], PAULI[i])).real for i in range(3)))
    return coeffs, tau


def test_matrix_projection_matches_trace_loop(rng):
    # a coefficient sums four entries of the matrix, tau twelve; the product
    # and the trace loop agree to a few ulps of the largest entry
    mats = [random_state(rng, rank=rank) for rank in (1, 2, 3, 4) for _ in range(50)]
    for mat in mats:
        coeffs, tau = _trace_projection(mat)
        ulp = np.spacing(np.abs(mat).max())
        assert np.abs(convert(mat) - coeffs).max() <= 8 * ulp
        assert abs(tau_of(mat) - tau) <= 16 * ulp
    heavy = 2.5 * random_state(rng)
    coeffs, tau = _trace_projection(heavy)
    ulp = np.spacing(np.abs(heavy).max())
    with pytest.warns(UserWarning, match="trace"):
        assert np.abs(convert(heavy) - coeffs).max() <= 8 * ulp
    assert abs(tau_of(heavy) - tau) <= 16 * ulp


def test_expansion_table_rows_are_orthogonal():
    assert EXPANSION_REAL.shape == (15, 32)
    assert not EXPANSION_REAL.flags.writeable
    assert np.array_equal(EXPANSION_REAL @ EXPANSION_REAL.T, 4 * np.eye(15))


@settings(max_examples=100, deadline=None)
@given(arrays(float, 15, elements=st.floats(-1e6, 1e6)))
def test_projection_inverts_assembly(v):
    back = project_matrices(assemble_matrices(v))
    assert np.abs(back - v).max() <= 1e-15 * max(1.0, np.abs(v).max())


def test_projected_stack_is_convert_bit_for_bit(rng):
    for n in (1, 2, 7, 64, 257):
        mats = np.array([random_state(rng, rank=int(rng.integers(1, 5)))
                         for _ in range(n)])
        coeffs = convert(mats)
        assert coeffs.shape == (n, 15)
        assert coeffs.tobytes() == project_matrices(mats).tobytes()
        for mat, row in zip(mats, coeffs):
            assert convert(mat).tobytes() == row.tobytes()
    pair = np.array([random_state(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    assert project_matrices(pair).tobytes() == project_matrices(
        pair.reshape(6, 4, 4)).reshape(2, 3, 15).tobytes()


def test_convert_warns_on_bad_trace():
    with pytest.warns(UserWarning, match="trace"):
        convert(np.eye(4, dtype=complex))
    # in a stack, one member off unit trace is enough
    with pytest.warns(UserWarning, match=r"trace is (np\.float64\()?0\.5"):
        convert(np.stack([np.eye(4) / 4, np.eye(4) / 8]))


def test_convert_never_renormalizes():
    with pytest.warns(UserWarning):
        c = convert(np.eye(4, dtype=complex) / 8)
    # coefficients of a half-weight maximally mixed state are still zero
    assert c.shape == (15,)
    assert np.abs(c).max() < 1e-15


def test_tau_values(rng):
    assert np.isclose(tau_of(P_SINGLET), -3.0)
    assert np.isclose(tau_of(np.eye(4, dtype=complex) / 4), 0.0)
    assert np.isclose(tau_of(Q_TRIPLET / 3), 1.0)
    rho = random_state(rng)
    # tau = 1 - 4 Tr[P rho] and both representations agree
    assert np.isclose(tau_of(rho), 1 - 4 * np.trace(P_SINGLET @ rho).real)
    assert np.isclose(tau_of(rho), tau_of(convert(rho)))


def test_tau_range_on_states(rng):
    for _ in range(200):
        tau = tau_of(random_state(rng, rank=int(rng.integers(1, 5))))
        assert -3.0 - 1e-12 <= tau <= 1.0 + 1e-12


def test_check_density_matrix():
    check_density_matrix(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.eye(4) / 4 + 1e-6 * np.array(
            [[0, 1j, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(4, dtype=complex) / 2)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density_matrix(np.diag([1.5, -0.5, 0, 0]).astype(complex))


@pytest.mark.parametrize("e, is_state", [(-5e-9, True), (-2e-8, False)])
def test_state_checks_share_one_floor(e, is_state):
    """The density-matrix check, the config's pauli check, concurrence and
    the integrator's sample check all accept an eigenvalue of -5e-9 and all
    reject one of -2e-8."""
    mat = np.diag([0.5 - e, 0.5, 0.0, e]).astype(complex)
    coeffs = convert(mat)
    obj = {"bath": {"lambda": [1.0, 1.0, 1.0], "B": [0.0, 0.0, 0.0]},
           "initial": {"pauli": {"r0i": coeffs[:3].tolist(),
                                 "ri0": coeffs[3:6].tolist(),
                                 "rij": coeffs[6:].reshape(3, 3).tolist()}}}
    checks = [(lambda: check_density_matrix(mat), ValueError),
              (lambda: parse_config(obj), ConfigError),
              (lambda: concurrence(mat), ValueError),
              (lambda: _check_samples(coeffs[None], [0.0]),
               IntegrationAccuracyError)]
    for check, error in checks:
        if is_state:
            check()
        else:
            with pytest.raises(error):
                check()


def _refuses(check, error):
    try:
        check()
    except error:
        return True
    return False


def test_state_checks_agree_at_the_floor(rng):
    """On states whose smallest eigenvalue lies within 6e-17 below the floor
    the density-matrix check, the integrator's sample check and concurrence
    decide as the state rule does, member by member; the rule accepts some
    and refuses others."""
    disagree, decisions = 0, set()
    for v in project_matrices(floor_matrices(rng, 2000)):
        mat = assemble_matrices(v)
        refused = first_non_state(mat[None]) is not None
        verdicts = {refused,
                    _refuses(lambda: check_density_matrix(mat), ValueError),
                    _refuses(lambda: _check_samples(v[None], [0.0]),
                             IntegrationAccuracyError),
                    _refuses(lambda: concurrence(mat), ValueError)}
        disagree += len(verdicts) > 1
        decisions.add(refused)
    assert disagree == 0, f"{disagree} of 2000 floor states decided two ways"
    assert decisions == {True, False}


def test_vector_round_trip():
    """A pauli config's fields come back from its coefficient vector: r0i at
    [0:3], ri0 at [3:6], rij row-major at [6:15]."""
    r0i, ri0 = [0.1, -0.2, 0.05], [0.0, 0.15, -0.1]
    rij = [[-0.3, 0.02, 0.0], [0.01, -0.25, 0.04], [0.0, -0.03, -0.2]]
    cfg = parse_config({"bath": {"lambda": [1.0, 1.0, 1.0], "B": [0.0, 0.0, 0.0]},
                        "initial": {"pauli": {"r0i": r0i, "ri0": ri0, "rij": rij}}})
    v = build_initial(cfg)
    assert v.shape == (15,) and v.dtype == float
    assert v[0:3].tolist() == r0i
    assert v[3:6].tolist() == ri0
    assert v[6:15].reshape(3, 3).tolist() == rij
    assert np.array_equal(v[TAU_ENTRIES], np.diag(rij))


@settings(max_examples=50, deadline=None)
@given(arrays(float, 15, elements=st.floats(-0.25, 0.25)))
def test_convert_always_hermitian_unit_trace(v):
    mat = convert(v)
    assert np.abs(mat - mat.conj().T).max() < 1e-14
    assert abs(np.trace(mat).real - 1.0) < 1e-14


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_levi_civita_antisymmetry(i, j, k):
    assert levi_civita(i, j, k) == -levi_civita(j, i, k)
    assert levi_civita(i, j, k) == -levi_civita(i, k, j)
    assert levi_civita(i, j, k) == levi_civita(j, k, i)


def test_axis_relabel_is_a_local_unitary(rng):
    # U, the rotation by 2 pi / 3 about (1, 1, 1), takes sigma_1 to sigma_2,
    # sigma_2 to sigma_3 and sigma_3 to sigma_1; relabelling axis a to axis
    # 3 must be conjugation by one of 1, U, U^2 on both qubits
    U = 0.5 * (EYE2 - 1j * sum(PAULI))
    assert np.allclose(U @ PAULI[0] @ U.conj().T, PAULI[1])
    powers = [np.kron(V, V) for V in (EYE2, U, U @ U)]
    vectors = project_matrices(np.array([random_state(rng) for _ in range(5)]))
    rhos = assemble_matrices(vectors)
    assert sorted(X_ENTRIES + X_OFF_ENTRIES) == list(range(15))
    matched = []
    for perm in AXIS_RELABEL:
        assert sorted(perm) == list(range(15))
        assert sorted(perm[TAU_ENTRIES]) == TAU_ENTRIES
        relabelled = assemble_matrices(vectors[:, perm])
        matched.append([k for k, W in enumerate(powers)
                        if np.allclose(W @ rhos @ W.conj().T, relabelled,
                                       rtol=0, atol=1e-15)])
    assert matched == [[2], [1], [0]]
