"""Generator forms, conservation laws, and the exact propagator."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairbath.bath import assemble_full_C, make_bath
from pairbath.config import product_state, werner_state
from pairbath.entanglement import (concurrence, generation_test,
                                   partial_transpose)
from pairbath.generator import (_F_OPS, _THETA, RECORD_CHUNK, STRIDE_BLOCK,
                                IntegrationAccuracyError, _check_samples,
                                _generator_tensor, _lindblad_sum,
                                _step_matrix, compile_generator,
                                diagonal_form_check, evolve, final_map,
                                rate_scale, rhs_components, rhs_equal_blocks,
                                rhs_general)
from pairbath.pauli_algebra import (EXPANSION, IDENT2, P_SINGLET, SIGMA,
                                    TAU_ENTRIES, assemble_matrices, convert,
                                    tau_of)

from conftest import (non_cp_block, oracle_general_propagate, oracle_propagate,
                      oracle_rhs, random_block, random_ket,
                      random_offaxis_bath, random_psd_C, random_state,
                      trace_distance, xstate_concurrence)


def _components_as_matrix(coeffs, block):
    # derivative coefficients have no identity part; convert() adds 1/4 of it
    return convert(rhs_components(coeffs, block)) - np.eye(4) / 4


def test_all_forms_match_oracle(rng):
    worst = 0.0
    for _ in range(30):
        blk = random_block(rng) if rng.uniform() < 0.5 else random_offaxis_bath(rng)
        rho = random_state(rng)
        reference = oracle_rhs(rho, blk.A, blk.B)
        worst = max(
            worst,
            float(np.abs(rhs_equal_blocks(rho, blk) - reference).max()),
            float(np.abs(rhs_general(rho, assemble_full_C(blk)) - reference).max()),
            float(np.abs(_components_as_matrix(convert(rho), blk) - reference).max()),
            diagonal_form_check(blk, rho))
    assert worst < 1e-11


def test_diagonal_form_at_boundary(rng):
    # saturated bath vector: the block is singular, the square root still works
    blk = make_bath(np.diag([1.0, 1.0, 0.8]), [0, 0, 1.0])
    for _ in range(5):
        assert diagonal_form_check(blk, random_state(rng)) < 1e-12


def test_rhs_components_is_trace_free(rng):
    for _ in range(20):
        blk = random_block(rng)
        d = rhs_components(convert(random_state(rng)), blk)
        # the correlation trace never moves, structurally
        assert d.shape == (15,)
        assert abs(d[TAU_ENTRIES].sum()) < 1e-12


def test_rhs_general_validates():
    with pytest.raises(ValueError, match="Hermitian"):
        rhs_general(np.eye(4, dtype=complex) / 4, np.triu(np.ones((6, 6))))
    C = -np.eye(6)
    with pytest.raises(ValueError, match="negative"):
        rhs_general(np.eye(4, dtype=complex) / 4, C)


@pytest.mark.parametrize("entries, value", [([(0, 0)], np.nan),
                                           ([(0, 1), (1, 0)], np.inf)],
                         ids=["nan-diagonal", "inf-off-diagonal-pair"])
def test_non_finite_coefficient_matrix_is_rejected(entries, value):
    C = np.eye(6, dtype=complex)
    for ab in entries:
        C[ab] = value
    with pytest.raises(ValueError, match="non-finite"):
        rhs_general(np.eye(4, dtype=complex) / 4, C)
    with pytest.raises(ValueError, match="non-finite"):
        evolve(convert(np.eye(4) / 4), C, t_end=1.0, dt=0.1)


@pytest.mark.parametrize("n", [5, 7])
def test_coefficient_matrix_of_wrong_shape_is_rejected(n):
    # a 7x7 C would otherwise compile a wrong generator with no error
    match = re.escape(f"shape ({n}, {n}), not (6, 6)")
    with pytest.raises(ValueError, match=match):
        rhs_general(np.eye(4, dtype=complex) / 4, np.eye(n))
    with pytest.raises(ValueError, match=match):
        evolve(convert(np.eye(4) / 4), np.eye(n), t_end=1.0, dt=0.1)


def test_evolve_matches_exponential_oracle(rng):
    for _ in range(4):
        blk = random_block(rng)
        rho0 = random_state(rng)
        t_end = 3.0
        tr = evolve(convert(rho0), blk, t_end=t_end, dt=0.005, sample_every=100)
        expected = oracle_propagate(rho0, blk.A, blk.B, t_end)
        assert trace_distance(assemble_matrices(tr.coeffs[-1]), expected) < 1e-9


def test_evolve_sampling_grid(rng):
    blk = random_block(rng)
    tr = evolve(convert(random_state(rng)), blk, t_end=1.0, dt=0.01,
                sample_every=10)
    assert tr.times[0] == 0.0
    assert np.isclose(tr.times[-1], 1.0)
    assert np.allclose(np.diff(tr.times), 0.1)
    assert len(tr.coeffs) == len(tr.times) == len(tr.tau) == len(tr.concurrence)
    # final time is always sampled even when it misses the stride
    tr2 = evolve(convert(random_state(rng)), blk, t_end=1.0, dt=0.01,
                 sample_every=7)
    assert np.isclose(tr2.times[-1], 1.0)


@pytest.mark.parametrize("sample_every", [1, 7, 100, 10 ** 6])
def test_evolve_samples_match_expm_oracle(rng, sample_every):
    # 703 steps: neither 7 nor 100 divides it, so the last stride is partial
    dt, n_steps = 0.01, 703
    for blk in (random_block(rng), random_offaxis_bath(rng)):
        rho0 = random_state(rng)
        tr = evolve(convert(rho0), blk, t_end=n_steps * dt, dt=dt,
                    sample_every=sample_every)
        steps = list(range(0, n_steps + 1, sample_every))
        if steps[-1] != n_steps:
            steps.append(n_steps)
        assert np.array_equal(tr.times, np.array(steps) * dt)
        expected = convert(oracle_general_propagate(rho0, assemble_full_C(blk),
                                                    tr.times))
        assert np.abs(tr.coeffs - expected).max() <= 1e-12


@pytest.mark.parametrize("lam,B", [
    # the rates of a benchmark sweep bath (seed 1903), B on the second axis
    ((0.1053, 2.9059, 0.1245), (0.0, 0.082, 0.0)),
    # f = 0.99 at a 2000-fold spread of rates
    ((20.0, 0.5, 0.01), (0.0, 0.0, 0.99 * np.sqrt(10.0))),
], ids=["seed1903_rates", "rate_spread_2000"])
def test_default_evolve_is_exact_at_every_sample(rng, lam, B):
    # a fourth-order Taylor step at the default dt misses these samples by
    # up to 6e-8; the exact step keeps all 5001 within 1e-12
    blk = make_bath(np.diag(lam), B)
    rho0 = random_state(rng)
    tr = evolve(convert(rho0), blk, sample_every=1)
    assert np.array_equal(tr.times, np.arange(5001) * (0.01 / rate_scale(blk)))
    C = assemble_full_C(blk)
    # in ten parts, so the stack of exponentials stays small
    expected = np.concatenate([oracle_general_propagate(rho0, C, t)
                               for t in np.array_split(tr.times, 10)])
    expected = np.einsum("nij,kji->nk", expected, EXPANSION).real
    assert np.abs(tr.coeffs - expected).max() <= 1e-12


@pytest.mark.parametrize("t_end", [None, 7.03, 350.0])
def test_final_map_is_the_last_sample(rng, t_end):
    # t_f is the last time evolve samples, and one exponential to it matches
    # the oracle there; at t_end = 350 the map's squarings allow 1e-11
    tol = 1e-11 if t_end == 350.0 else 1e-12
    for blk in (random_block(rng), random_offaxis_bath(rng)):
        rho0 = random_state(rng)
        dt = None if t_end is None else 0.01
        M, t_f = final_map(blk, t_end=t_end, dt=dt)
        tr = evolve(convert(rho0), blk, t_end=t_end, dt=dt, sample_every=10 ** 6)
        assert t_f == tr.times[-1]
        x_f = M[:15] @ np.append(convert(rho0), 1.0)
        expected = convert(oracle_propagate(rho0, blk.A, blk.B, t_f))
        assert np.abs(x_f - expected).max() <= tol


@pytest.mark.parametrize("sample_every", [1, 7])
def test_trajectory_stores_one_coefficient_array(rng, sample_every):
    tr = evolve(convert(random_state(rng)), random_offaxis_bath(rng),
                t_end=3.0, dt=0.01, sample_every=sample_every)
    assert tr.coeffs.dtype == float
    assert tr.coeffs.shape == (len(tr.times), 15)
    assert np.array_equal(tr.tau, tr.coeffs[:, TAU_ENTRIES].sum(axis=1))


@pytest.mark.parametrize("sample_every", [1, 7, 10 ** 6])
def test_batched_recording_matches_per_sample(rng, sample_every):
    # 601 samples at sample_every 1 span three RECORD_CHUNK batches
    n_steps = 600
    starts = [product_state(random_ket(rng), random_ket(rng)),
              convert(random_state(rng, rank=1)),
              # r03 = -1, r30 = 1, r33 = -1: the product state |01>
              np.array([0, 0, -1, 0, 0, 1] + [0] * 8 + [-1], dtype=float),
              convert(random_state(rng))]
    for blk in (random_offaxis_bath(rng), random_block(rng)):
        dt = 0.01 / rate_scale(blk)
        for start in starts:
            tr = evolve(start, blk, t_end=n_steps * dt, dt=dt,
                        sample_every=sample_every)
            mats = assemble_matrices(tr.coeffs)
            for k, v in enumerate(tr.coeffs):
                mat = convert(v)
                assert mat.tobytes() == mats[k].tobytes()
                assert tr.tau[k] == tau_of(v)
                assert tr.trace_err[k] == abs(np.trace(mat).real - 1.0)
                assert tr.min_pt_eig[k] == partial_transpose(mat)[1]
                assert tr.concurrence[k] == concurrence(mat)


@pytest.mark.parametrize("n_steps,sample_every", [(750, 10), (5000, 1)])
def test_blocked_strides_match_sequential_products(rng, n_steps, sample_every):
    # 75 and 5000 strides with no rest, then 107 and 714 strides with a
    # rest of 4 and 5 steps; no stride count is a multiple of STRIDE_BLOCK
    for blk in (random_block(rng), random_offaxis_bath(rng)):
        dt = 0.01 / rate_scale(blk)
        for n, every in ((n_steps, sample_every), (n_steps + 3, 7)):
            n_strides, rest = divmod(n, every)
            assert n_strides % STRIDE_BLOCK
            initial = convert(random_state(rng))
            tr = evolve(initial, blk, t_end=n * dt, dt=dt, sample_every=every)
            step = _step_matrix(compile_generator(assemble_full_C(blk)), dt)
            stride = np.linalg.matrix_power(step, every)
            y = np.append(initial, 1.0)
            expected = [y]
            for _ in range(n_strides):
                y = stride @ y
                expected.append(y)
            if rest:
                expected.append(np.linalg.matrix_power(step, rest) @ y)
            expected = np.array(expected)[:, :15]
            assert tr.coeffs.shape == expected.shape
            assert np.abs(tr.coeffs - expected).max() <= 1e-12


def test_concurrence_is_zero_exactly_on_ppt_samples():
    # |01> under an isotropic bath with B on z: the bath entangles it at
    # once, so the first chunk holds the product start (PPT) and entangled
    # (NPT) samples
    blk = make_bath(np.eye(3), [0, 0, 0.5])
    up, down = np.array([1, 0]), np.array([0, 1])
    assert generation_test(up, down, blk).generated
    tr = evolve(product_state(up, down), blk, sample_every=1)
    ppt = tr.min_pt_eig >= 0
    first = slice(0, RECORD_CHUNK)
    assert ppt[first].any() and not ppt[first].all()
    assert np.all(tr.concurrence[ppt] == 0.0)
    per_sample = np.array([concurrence(assemble_matrices(c))
                           for c in tr.coeffs[~ppt]])
    assert np.abs(tr.concurrence[~ppt] - per_sample).max() <= 1e-14
    assert tr.concurrence.max() > 0.1


def _state_with_min_eig(rng, lowest):
    # a random state whose smallest eigenvalue is moved to `lowest`,
    # trace kept at 1
    w, U = np.linalg.eigh(random_state(rng))
    w[0] = lowest
    w[1:] += (1.0 - w.sum()) / 3
    return convert((U * w) @ U.conj().T)


def test_positivity_screen_passes_rounding_and_finds_failures(rng, monkeypatch):
    vectors = np.array([_state_with_min_eig(rng, x) for x in
                        (0.05, 0.0, -5e-9, 0.1, -5e-9, 0.02)])
    times = np.arange(len(vectors)) * 0.5
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    mats = _check_samples(vectors, times)
    assert calls == []  # the Cholesky screen clears every sample
    # what the screen returns is the assembled stack, for the caller to measure
    assert mats.shape == (6, 4, 4)
    assert mats.tobytes() == assemble_matrices(vectors).tobytes()

    vectors[3] = _state_with_min_eig(rng, -2e-8)
    vectors[5] = _state_with_min_eig(rng, -3e-8)
    min_eig = eigvalsh(assemble_matrices(vectors)).min(axis=-1)
    first = int(np.flatnonzero(min_eig < -1e-8)[0])
    assert first == 3
    with pytest.raises(IntegrationAccuracyError,
                       match=re.escape(f"state eigenvalue {min_eig[first]:.3e} "
                                       f"at t={times[first]:.6g}; the generator "
                                       "is not completely positive")):
        _check_samples(vectors, times)

    # non-finite samples fail too, in the same time order: one after the
    # first low eigenvalue leaves that reported, one before it is reported
    vectors[4, 7] = np.inf
    with pytest.raises(IntegrationAccuracyError, match="state eigenvalue .* at t=1.5;"):
        _check_samples(vectors, times)
    vectors[1, 0] = np.nan
    with pytest.raises(IntegrationAccuracyError,
                       match=re.escape("non-finite state coefficients at t=0.5; "
                                       "the generator is not completely positive")):
        _check_samples(vectors, times)


def test_first_failure_past_a_chunk_boundary_is_reported():
    # A = 1, B = (0, 0, 1.02): the bath matrix has eigenvalue -0.02, so the
    # generator is not completely positive and drives the maximally mixed
    # state out of the positive cone at t ~ 0.665, a few hundred samples in
    blk = non_cp_block(np.eye(3), [0.0, 0.0, 1.02])
    assert blk.eigs[0] < 0
    rho0 = np.eye(4) / 4
    dt, n_steps = 0.002, 400
    times = np.arange(n_steps + 1) * dt
    min_eig = np.array([np.linalg.eigvalsh(oracle_propagate(rho0, blk.A, blk.B, t)).min()
                        for t in times])
    first = int(np.flatnonzero(min_eig < -1e-8)[0])
    assert first > RECORD_CHUNK and min_eig[first - 1] > 0
    with pytest.raises(IntegrationAccuracyError,
                       match=re.escape(f"at t={times[first]:.6g}; the generator "
                                       "is not completely positive")):
        evolve(convert(rho0), blk, t_end=n_steps * dt, dt=dt, sample_every=1)


def test_evolve_compiles_generator_once(rng, monkeypatch):
    # the generator tensor costs one _lindblad_sum call on each of the 36
    # unit Hermitian matrices, each on the stack of 16 unit and zero states,
    # once per process; every compile after that makes none
    calls = []

    def counting(state, C):
        calls.append(state.shape)
        return _lindblad_sum(state, C)

    monkeypatch.setattr("pairbath.generator._lindblad_sum", counting)
    _generator_tensor.cache_clear()
    _generator_tensor()
    assert calls == [(16, 4, 4)] * 36
    calls.clear()
    evolve(convert(random_state(rng)), random_block(rng))
    evolve(convert(random_state(rng)), random_psd_C(rng, 6), t_end=0.1, dt=0.01)
    assert calls == []


def _tensor_one_state_at_a_time():
    """Reference generator tensor from 576 single-state `_lindblad_sum` calls,
    one per unit Hermitian matrix and unit (or zero) coefficient vector."""
    states = assemble_matrices(np.vstack([np.eye(15), np.zeros(15)]))
    units = np.zeros((36, 6, 6), dtype=complex)
    units.view(float).reshape(36, 72)[range(36), _THETA] = 1.0
    units += np.triu(units, 1).conj().swapaxes(1, 2)
    T = np.empty((36, 15, 16))
    for p, k in np.ndindex(36, 16):
        deriv = _lindblad_sum(states[k], units[p])
        T[p, :, k] = np.einsum("ij,nji->n", deriv, EXPANSION).real
    T[:, :, :15] -= T[:, :, 15:]
    return T


def test_generator_tensor_equals_single_state_build():
    local = ([np.kron(s, IDENT2) for s in SIGMA]
             + [np.kron(IDENT2, s) for s in SIGMA])
    assert np.array_equal(_F_OPS, local)
    T = _generator_tensor()
    assert T.tobytes() == _tensor_one_state_at_a_time().tobytes()
    # compile_generator reshapes it without a copy, and every caller shares it
    assert T.flags.c_contiguous and not T.flags.writeable


@pytest.mark.parametrize("rank", [1, 6])
def test_lindblad_sum_on_a_stack_equals_per_state_calls(rng, rank):
    states = np.array([random_state(rng) for _ in range(16)])
    C = random_psd_C(rng, rank)
    per_state = np.array([_lindblad_sum(s, C) for s in states])
    assert _lindblad_sum(states, C).tobytes() == per_state.tobytes()


def _compile_by_evaluation(block):
    """Reference [L | c0]: rhs_components at zero and at each unit vector."""
    c0 = rhs_components(np.zeros(15), block)
    L = np.empty((15, 15))
    for k, e in enumerate(np.eye(15)):
        L[:, k] = rhs_components(e, block) - c0
    return np.column_stack([L, c0])


def test_compiled_generator_matches_evaluations(rng):
    blocks = [random_block(rng) for _ in range(200)]
    blocks.append(make_bath(np.zeros((3, 3)), np.zeros(3)))
    A = random_block(rng).A
    blocks.append(make_bath(A, np.zeros(3)))
    boundary = make_bath(np.diag([1.0, 1.0, 0.8]), [0, 0, 1.0])  # f = 1
    assert boundary.boundary
    blocks.append(boundary)
    for blk in blocks:
        expected = _compile_by_evaluation(blk)
        G = compile_generator(assemble_full_C(blk))
        assert G.shape == (16, 16) and not G[15].any()
        assert np.abs(G[:15] - expected).max() <= 1e-14 * np.abs(expected).max()


def _general_by_evaluation(C):
    """Reference [L | c0]: rhs_general at the zero vector and at each unit
    vector, projected onto the expansion operators."""
    states = assemble_matrices(np.vstack([np.zeros(15), np.eye(15)]))
    derivs = np.array([rhs_general(s, C) for s in states])
    coeffs = np.trace(derivs @ EXPANSION[:, None], axis1=-2, axis2=-1).real
    return np.column_stack([coeffs[:, 1:] - coeffs[:, :1], coeffs[:, 0]])


@pytest.mark.parametrize("rank", range(1, 7))
def test_compiled_general_generator_matches_rhs_general(rng, rank):
    for _ in range(20):
        C = random_psd_C(rng, rank)
        expected = _general_by_evaluation(C)
        got = compile_generator(C)[:15]
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_evolve_general_C_matches_exponential_oracle(rng):
    decoupled = np.zeros((6, 6))
    decoupled[:3, :3] = decoupled[3:, 3:] = np.eye(3)
    for C in [decoupled] + [random_psd_C(rng, rank) for rank in range(1, 7)]:
        rho0 = random_state(rng)
        tr = evolve(convert(rho0), C, t_end=0.5, dt=0.0025, sample_every=100)
        expected = oracle_general_propagate(rho0, C, 0.5)
        assert trace_distance(assemble_matrices(tr.coeffs[-1]), expected) < 1e-9


def test_evolve_coefficient_matrix_input(rng):
    blk = random_offaxis_bath(rng)
    state = convert(random_state(rng))
    by_block = evolve(state, blk, t_end=1.0, dt=0.01)
    by_matrix = evolve(state, assemble_full_C(blk), t_end=1.0, dt=0.01)
    assert np.array_equal(by_matrix.coeffs, by_block.coeffs)
    # a coefficient matrix has no rate scale to default the grid from
    with pytest.raises(ValueError, match="explicit t_end and dt"):
        evolve(state, assemble_full_C(blk))
    with pytest.raises(ValueError, match="explicit t_end and dt"):
        evolve(state, assemble_full_C(blk), t_end=1.0)
    with pytest.raises(ValueError, match="negative"):
        evolve(state, -np.eye(6), t_end=1.0, dt=0.01)
    with pytest.raises(ValueError, match="Hermitian"):
        evolve(state, np.triu(np.ones((6, 6))), t_end=1.0, dt=0.01)


def test_evolve_assembles_and_measures_each_chunk_once(rng, monkeypatch):
    counted = {"assemble_matrices": assemble_matrices,
               "partial_transpose": partial_transpose,
               "concurrence": concurrence}
    calls = dict.fromkeys(counted, 0)
    _generator_tensor()  # built once per process, from its own assembly
    for name, fn in counted.items():
        def counting(mats, fn=fn, name=name):
            calls[name] += 1
            return fn(mats)
        monkeypatch.setattr(f"pairbath.generator.{name}", counting)
    # 601 samples span three RECORD_CHUNK batches
    blk = random_block(rng)
    dt = 0.01 / rate_scale(blk)
    tr = evolve(convert(random_state(rng)), blk, t_end=600 * dt, dt=dt,
                sample_every=1)
    chunks = math.ceil(len(tr.times) / RECORD_CHUNK)
    assert chunks == 3
    assert calls == dict.fromkeys(counted, chunks)
    tr.trace_err, tr.min_pt_eig, tr.concurrence
    assert calls == dict.fromkeys(counted, chunks)


def _count_measure_calls(monkeypatch):
    # calls of partial_transpose and concurrence as bound in pairbath.generator
    calls = dict.fromkeys(["partial_transpose", "concurrence"], 0)
    for name, fn in (("partial_transpose", partial_transpose),
                     ("concurrence", concurrence)):
        def counting(mats, fn=fn, name=name):
            calls[name] += 1
            return fn(mats)
        monkeypatch.setattr(f"pairbath.generator.{name}", counting)
    return calls


# the X-state mask of a 4x4 matrix: its diagonal and antidiagonal
_X_MASK = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]


@pytest.mark.parametrize("axis", [0, 1, 2, None], ids=["B-x", "B-y", "B-z", "B-0"])
def test_xstate_batches_take_the_closed_forms(monkeypatch, axis):
    # a diagonal A with B on an axis (or B = 0) keeps every start that is an
    # X-state about that axis one: werner, the axis's |00> and |01>, and a
    # Bell-diagonal mixture.  601 samples span three RECORD_CHUNK batches
    calls = _count_measure_calls(monkeypatch)
    B = np.zeros(3)
    if axis is not None:
        B[axis] = 0.4
    blk = make_bath(np.diag([1.0, 0.6, 0.3]), B)
    axis = 2 if axis is None else axis
    # the axis's up and down kets, written out: an eigh rounds their
    # entries, which leaves coefficients outside the X sector off 0.0
    kets = np.array({0: [[1, 1], [1, -1]], 1: [[1, 1j], [1, -1j]],
                     2: [[1, 0], [0, 1]]}[axis])
    up, down = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    # weights 0.6, 0.2, 0.15, 0.05 on Phi+, Phi-, Psi+, Psi-
    bell_mixture = np.zeros(15)
    bell_mixture[TAU_ENTRIES] = [0.5, -0.3, 0.6]
    starts = [werner_state(0.2), product_state(up, up), product_state(up, down),
              bell_mixture]
    # a pi rotation about the bisector of the axis and axis 3, on both
    # qubits, takes an X-state about the axis to one about axis 3
    V = (SIGMA[axis] + SIGMA[2]) / np.sqrt(2) if axis != 2 else IDENT2
    W = np.kron(V, V)
    dt = 0.01 / rate_scale(blk)
    npt = 0
    for start in starts:
        tr = evolve(start, blk, t_end=600 * dt, dt=dt, sample_every=1)
        mats = assemble_matrices(tr.coeffs)
        assert np.abs(tr.min_pt_eig - partial_transpose(mats)[1]).max() <= 1e-14
        assert np.abs(tr.concurrence - concurrence(mats)).max() <= 1e-12
        xmats = W @ mats @ W.conj().T
        assert np.abs(xmats[:, ~_X_MASK]).max() <= 1e-15
        oracle = [xstate_concurrence(m) for m in xmats]
        assert np.abs(tr.concurrence - oracle).max() <= 1e-12
        assert np.all(tr.concurrence[tr.min_pt_eig >= 0] == 0.0)
        npt += (tr.min_pt_eig < 0).sum()
    assert calls == {"partial_transpose": 0, "concurrence": 0}
    assert npt > 601


@pytest.mark.parametrize("case", ["rotated-bath", "product-start"])
def test_batches_with_a_non_xstate_keep_the_matrix_route(rng, monkeypatch, case):
    # a werner start on a rotated bath, or a random product start on an
    # aligned one: no batch is an X-state about any axis, so each of the
    # three batches takes one partial_transpose and one concurrence call
    calls = _count_measure_calls(monkeypatch)
    if case == "rotated-bath":
        blk, start = random_block(rng), werner_state(0.2)
    else:
        blk = make_bath(np.diag([1.0, 0.6, 0.3]), [0, 0, 0.4])
        start = product_state(random_ket(rng), random_ket(rng))
    dt = 0.01 / rate_scale(blk)
    tr = evolve(start, blk, t_end=600 * dt, dt=dt, sample_every=1)
    assert calls == {"partial_transpose": 3, "concurrence": 3}
    assert np.array_equal(tr.min_pt_eig,
                          partial_transpose(assemble_matrices(tr.coeffs))[1])


@pytest.mark.parametrize("first", ["trace_err", "min_pt_eig", "concurrence"])
def test_observables_are_computed_on_first_read(rng, monkeypatch, first):
    # by the first read every column is already recorded: reading one
    # computes nothing, and it equals its direct per-sample evaluation
    blk = random_block(rng)
    dt = 0.01 / rate_scale(blk)
    tr = evolve(convert(random_state(rng)), blk, t_end=600 * dt, dt=dt,
                sample_every=1)
    calls = []
    for name in ("assemble_matrices", "partial_transpose", "concurrence"):
        monkeypatch.setattr(f"pairbath.generator.{name}",
                            lambda *a, name=name: calls.append(name))
    column = getattr(tr, first)
    assert calls == []
    assert column.shape == tr.times.shape
    mats = assemble_matrices(tr.coeffs)
    direct = {
        "trace_err": lambda: np.abs(np.trace(mats, axis1=-2, axis2=-1).real
                                    - 1.0),
        "min_pt_eig": lambda: partial_transpose(mats)[1],
        "concurrence": lambda: np.array([concurrence(m) for m in mats]),
    }[first]()
    np.testing.assert_allclose(column, direct, rtol=0, atol=1e-12)


def test_evolve_default_horizon_scales(rng):
    blk = make_bath(np.diag([4.0, 4.0, 4.0]), [0, 0, 1.0])
    assert rate_scale(blk) == 4.0
    tr = evolve(convert(random_state(rng)), blk, sample_every=5000)
    assert np.isclose(tr.times[-1], 50.0 / 4.0)


def test_evolve_rejects_bad_grid(rng):
    blk = random_block(rng)
    state = convert(random_state(rng))
    with pytest.raises(ValueError):
        evolve(state, blk, t_end=-1.0)
    with pytest.raises(ValueError):
        evolve(state, blk, t_end=1.0, dt=2.0)
    with pytest.raises(ValueError):
        evolve(state, blk, t_end=1.0, dt=0.01, sample_every=0)


def test_unstable_step_raises(rng):
    # only a generator that is not completely positive leaves the positive
    # cone; one that grows fast enough overflows, which is reported as a
    # non-finite sample and not as a floating-point warning
    with pytest.raises(IntegrationAccuracyError,
                       match="state eigenvalue .* not completely positive"):
        evolve(convert(random_state(rng)), non_cp_block(np.eye(3), [0.0, 0.0, 1.02]),
               t_end=45.0, dt=0.9)
    with pytest.raises(IntegrationAccuracyError,
                       match="non-finite .* not completely positive"):
        evolve(convert(random_state(rng)), non_cp_block(np.eye(3), [0.0, 0.0, 1e3]),
               t_end=100.0, dt=0.01, sample_every=10 ** 6)


def test_tau_conserved_along_trajectories(rng):
    for _ in range(5):
        blk = random_block(rng)
        tr = evolve(convert(random_state(rng)), blk, t_end=10.0, dt=0.01,
                    sample_every=100)
        assert np.abs(tr.tau - tr.tau[0]).max() < 1e-10


def test_trace_error_stays_tiny(rng):
    blk = random_block(rng)
    tr = evolve(convert(random_state(rng)), blk, t_end=10.0, dt=0.01,
                sample_every=100)
    assert tr.trace_err.max() < 1e-12


def test_antisymmetric_components_decay(rng):
    # generic positive rates push r0i - ri0 and rij - rji to zero by t = 50
    for _ in range(3):
        blk = random_block(rng)
        tr = evolve(convert(random_state(rng)), blk, sample_every=10 ** 6)
        last = tr.coeffs[-1]
        rij = last[6:].reshape(3, 3)
        assert np.abs(last[:3] - last[3:6]).max() < 1e-8
        assert np.abs(rij - rij.T).max() < 1e-8


def test_symmetric_sector_is_invariant(rng):
    # a symmetric initial state stays symmetric along the whole trajectory
    blk = random_block(rng)
    r = rng.uniform(-0.2, 0.2, 3)
    m = rng.uniform(-0.2, 0.2, (3, 3))
    start = np.concatenate([r, r, ((m + m.T) / 4).ravel()])
    tr = evolve(start, blk, t_end=5.0, dt=0.01, sample_every=50)
    rij = tr.coeffs[:, 6:].reshape(-1, 3, 3)
    assert np.abs(tr.coeffs[:, :3] - tr.coeffs[:, 3:6]).max() < 1e-12
    assert np.abs(rij - rij.swapaxes(1, 2)).max() < 1e-12


def test_decoupled_blocks_break_tau_conservation():
    # removing the cross-correlations while keeping local dissipation lets
    # the correlation trace drift: evolve the maximally entangled state
    C = np.zeros((6, 6))
    C[:3, :3] = np.eye(3)
    C[3:, 3:] = np.eye(3)
    tr = evolve(convert(P_SINGLET), C, t_end=0.5, dt=0.005, sample_every=100)
    assert abs(tr.tau[-1] - (-3.0)) > 1e-3


def test_general_form_reduces_to_equal_blocks(rng):
    blk = random_block(rng)
    rho = random_state(rng)
    assert np.abs(rhs_general(rho, assemble_full_C(blk))
                  - rhs_equal_blocks(rho, blk)).max() < 1e-12


def test_zero_block_is_static(rng):
    blk = make_bath(np.zeros((3, 3)), np.zeros(3))
    rho = random_state(rng)
    assert np.abs(rhs_equal_blocks(rho, blk)).max() == 0.0
    tr = evolve(convert(rho), blk, t_end=1.0, dt=0.1, sample_every=1)
    assert np.abs(tr.coeffs - tr.coeffs[0]).max() < 1e-15


@settings(max_examples=40, deadline=None)
@given(arrays(float, 15, elements=st.floats(-0.2, 0.2)),
       st.integers(0, 10 ** 6))
def test_component_derivative_preserves_tau_property(v, seed):
    rng = np.random.default_rng(seed)
    blk = random_block(rng)
    d = rhs_components(v, blk)
    assert abs(d[TAU_ENTRIES].sum()) < 1e-11
