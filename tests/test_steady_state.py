"""Closed-form stationary family against the independent numerical oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairbath import steady_state
from pairbath.bath import make_bath
from pairbath.generator import evolve, rhs_equal_blocks
from pairbath.pauli_algebra import (P_SINGLET, PauliCoefficients, Q_TRIPLET,
                                    TAU_ENTRIES, assemble_matrices, convert,
                                    tau_of)
from pairbath.steady_state import (ClosedFormNotApplicable, _line_search,
                                   asymptotic_state, commutant_check,
                                   equilibrium_components,
                                   liouvillian_null_space, stationary_family,
                                   stationary_member)

from conftest import (oracle_propagate, oracle_rhs, oracle_superoperator,
                      random_block, random_offaxis_bath, random_rotation,
                      random_state, trace_distance)

MM = np.eye(4, dtype=complex) / 4


def test_family_frozen_values():
    fam = stationary_family(make_bath(np.diag([2.0, 1.0, 1.0]), [0, 0, 1.0]))
    assert np.isclose(fam.M, 2.0 / 3.0)
    assert np.isclose(fam.N, 1.0 / 30.0)
    assert np.isclose(fam.R, 7.0 / 30.0)

    fam = stationary_family(make_bath(np.eye(3), [0, 0, 0.5]))
    assert np.isclose(fam.M, 0.5)
    assert fam.N == 0.0
    assert np.isclose(fam.R, 0.125)
    # reference-state spectrum in quarters
    eigs = np.sort(np.linalg.eigvalsh(fam.rho0_hat))
    assert np.allclose(4 * eigs, [0.25, 0.75, 0.75, 2.25])


def test_family_zero_vector_is_maximally_mixed():
    fam = stationary_family(make_bath(np.diag([1.7, 0.9, 0.4]), np.zeros(3)))
    assert fam.M == fam.N == fam.R == 0.0
    assert np.abs(fam.rho0_hat - MM).max() < 1e-15


def test_family_reference_state_is_stationary(rng):
    for _ in range(25):
        blk = random_block(rng)
        fam = stationary_family(blk)
        # against the production generator and the independent superoperator
        assert np.abs(rhs_equal_blocks(fam.rho0_hat, blk)).max() < 1e-12
        assert np.abs(oracle_rhs(fam.rho0_hat, blk.A, blk.B)).max() < 1e-12


def test_family_full_rank_interior(rng):
    for _ in range(10):
        blk = random_block(rng, f_range=(0.05, 0.9))
        fam = stationary_family(blk)
        assert np.linalg.eigvalsh(fam.rho0_hat).min() > 1e-4


def test_family_off_axis_raises(rng):
    with pytest.raises(ClosedFormNotApplicable):
        stationary_family(random_offaxis_bath(rng))


def test_family_boundary_warns():
    with pytest.warns(UserWarning, match="rank deficient"):
        fam = stationary_family(make_bath(np.diag([1.0, 1.0, 0.6]), [0, 0, 1.0]))
    assert np.linalg.eigvalsh(fam.rho0_hat).min() < 1e-12


def test_family_boundary_past_tau_one_by_rounding():
    # equal small transverse rates, b^2 a rounding above lam1 lam2: a valid
    # bath whose reference state sits at tau = 2R just past 1
    blk = make_bath(np.diag([0.01, 0.01, 0.5]), [0, 0, 0.01 * (1 + 5e-11)])
    with pytest.warns(UserWarning, match="rank deficient"):
        fam = stationary_family(blk)
    assert 1 + 1e-12 < 2 * fam.R < 1 + 1e-9
    assert abs(tau_of(fam.rho0_hat) - 2 * fam.R) < 1e-12


def test_family_boundary_with_unequal_rates_is_full_rank():
    # saturated b^2 = lam1 lam2, but the reference state keeps full rank
    lam = (1.0, 0.5, 0.2)
    blk = make_bath(np.diag(lam), [0, 0, np.sqrt(lam[0] * lam[1])])
    assert blk.boundary
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = stationary_family(blk)
    assert abs(np.linalg.eigvalsh(fam.rho0_hat).min() - 0.0068) < 1e-4


def test_constraints_on_random_baths(rng):
    for _ in range(1000):
        fam = stationary_family(random_block(rng, f_range=(0.0, 0.999)))
        assert -1e-12 <= 2 * fam.R <= 1 + 1e-12
        assert fam.M ** 2 <= 2 * fam.R + 1e-12
        assert fam.M ** 2 + 4 * fam.N ** 2 <= 1 + 1e-12


def test_equilibrium_components_examples():
    fam = stationary_family(make_bath(np.eye(3), [0, 0, 0.5]))
    eq = equilibrium_components(1.0, fam)
    assert np.isclose(eq.components["rho_3"], 4 * 0.5 / 3.25)
    assert np.isclose(eq.components["rho_33"], (0.5 + 1.25) / 6.5)
    assert np.isclose(tau_of(convert(eq.state)), 1.0)

    # at tau = 2R the family returns its reference state
    eq0 = equilibrium_components(2 * fam.R, fam)
    assert np.abs(eq0.state - fam.rho0_hat).max() < 1e-14

    # the singlet end of the line
    eqP = equilibrium_components(-3.0, fam)
    assert np.abs(eqP.state - P_SINGLET).max() < 1e-14


def test_equilibrium_components_symmetric_and_stationary(rng):
    blk = random_block(rng)
    fam = stationary_family(blk)
    for tau in (-3.0, -1.3, 0.0, 2 * fam.R, 1.0):
        eq = equilibrium_components(tau, fam)
        c = convert(eq.state)
        assert np.abs(c.r0i - c.ri0).max() < 1e-14
        assert np.abs(c.rij - c.rij.T).max() < 1e-14
        assert abs(tau_of(c) - tau) < 1e-12
        assert np.abs(rhs_equal_blocks(eq.state, blk)).max() < 1e-12


def test_equilibrium_trivial_family_is_werner_line():
    fam = stationary_family(make_bath(np.diag([1.0, 0.8, 0.5]), np.zeros(3)))
    eq = equilibrium_components(0.0, fam)
    assert np.abs(eq.state - MM).max() < 1e-15


def test_equilibrium_rejects_bad_tau():
    fam = stationary_family(make_bath(np.eye(3), [0, 0, 0.5]))
    with pytest.raises(ValueError, match=r"\[-3, 1\]"):
        equilibrium_components(1.2, fam)
    with pytest.raises(ValueError, match=r"\[-3, 1\]"):
        equilibrium_components(-3.2, fam)


def test_asymptotic_singlet_is_fixed(rng):
    for _ in range(5):
        fam = stationary_family(random_block(rng))
        out = asymptotic_state(convert(P_SINGLET), fam)
        assert trace_distance(out.state, P_SINGLET) < 1e-12


def test_asymptotic_state_examples():
    fam = stationary_family(make_bath(np.eye(3), [0, 0, 0.5]))
    # maximally mixed input: tau = 0 component value
    out = asymptotic_state(convert(MM), fam)
    assert np.isclose(out.components["rho_3"], 3 * fam.M / (3 + 2 * fam.R))
    # product ground pair has tau = 1
    v = np.zeros(4)
    v[0] = 1
    out = asymptotic_state(convert(np.outer(v, v).astype(complex)), fam)
    assert np.isclose(out.tau, 1.0)
    assert np.isclose(out.components["rho_33"], (0.5 + 1.25) / 6.5)


def test_asymptotic_matches_long_time_evolution(rng):
    for _ in range(4):
        blk = random_block(rng)
        fam = stationary_family(blk)
        rho0 = random_state(rng)
        target = asymptotic_state(convert(rho0), fam).state
        tr = evolve(convert(rho0), blk, sample_every=10 ** 6)
        assert trace_distance(assemble_matrices(tr.coeffs[-1]), target) < 1e-6


def test_asymptotic_accepts_matrix_or_coefficients(rng):
    fam = stationary_family(random_block(rng))
    rho0 = random_state(rng)
    a = asymptotic_state(rho0, fam).state
    b = asymptotic_state(convert(rho0), fam).state
    assert np.abs(a - b).max() < 1e-14


def test_nullspace_generic_dimension_and_match(rng):
    for _ in range(10):
        blk = random_block(rng)
        fam = stationary_family(blk)
        sol = liouvillian_null_space(blk)
        assert sol["dimension"] == 1
        member = sol["full_rank_member"]
        assert member is not None
        assert np.linalg.eigvalsh(member).min() > 1e-8
        assert np.abs(oracle_rhs(member, blk.A, blk.B)).max() < 1e-9

        d = sol["basis"][0]
        assert np.isclose(np.linalg.norm(d), 1.0)
        tau_d = d[6] + d[10] + d[14]
        base = convert(member)
        for tau in (-2.7, -0.5, 0.8):
            vec = base.as_vector() + (tau - tau_of(base)) / tau_d * d
            state = convert(PauliCoefficients.from_vector(vec))
            assert np.abs(state - equilibrium_components(tau, fam).state).max() < 1e-9


def _ternary_one_probe_at_a_time(min_eig_at, lo, hi, iters):
    """The ternary rule of `_line_search` with one `min_eig_at(t)` call per
    probe and no early stop; returns the final parameter."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if min_eig_at(m1) < min_eig_at(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def _search_lines(rng):
    """Random lines through random states, and the tau lines of two null spaces."""
    lines = []
    for _ in range(10):
        d = rng.normal(size=15)
        lines.append((convert(random_state(rng)).as_vector(), d / np.linalg.norm(d),
                      -rng.uniform(0.1, 4), rng.uniform(0.1, 4)))
    for blk in (random_block(rng), random_offaxis_bath(rng)):
        sol = liouvillian_null_space(blk)
        lines.append((convert(sol["full_rank_member"]).as_vector(), sol["basis"][0],
                      -1.0, 1.0))
    return lines


def _wrap_eigvalsh(monkeypatch, record):
    """Call `record(a)` on each stack `a` given to `np.linalg.eigvalsh` as
    `steady_state` calls it."""
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(steady_state.np.linalg, "eigvalsh",
                        lambda a: record(a) or eigvalsh(a))


def test_line_search_probes_equal_assembled_probes(rng, monkeypatch):
    # every probe of the pencil M0 + t*Md is the matrix assembled at its t,
    # t read back from the probe's own coefficients
    stacks = []
    _wrap_eigvalsh(monkeypatch, stacks.append)
    for vec, d, lo, hi in _search_lines(rng):
        stacks.clear()
        _line_search(vec, d, lo, hi)
        assert stacks and all(p.shape == (2, 4, 4) for p in stacks)
        for probe in np.concatenate(stacks):
            t = (convert(probe).as_vector() - vec) @ d / (d @ d)
            assert lo - 1e-12 <= t <= hi + 1e-12
            assert np.abs(probe - assemble_matrices(vec + t * d)).max() <= 1e-14


def test_line_search_matches_one_probe_at_a_time(rng):
    def assembled(vec, d):
        return lambda t: np.linalg.eigvalsh(
            convert(PauliCoefficients.from_vector(vec + t * d))).min()

    def min_eig(v):
        return np.linalg.eigvalsh(assemble_matrices(v)).min()

    def pencil(vec, d):
        m0, md = assemble_matrices(vec), assemble_matrices(d) - MM
        return lambda t: np.linalg.eigvalsh(m0 + t * md).min()

    for vec, d, lo, hi in _search_lines(rng):
        got = _line_search(vec, d, lo, hi)
        # the same maximum as the search over assembled probes
        t = _ternary_one_probe_at_a_time(assembled(vec, d), lo, hi, 200)
        assert abs(min_eig(got) - min_eig(vec + t * d)) <= 1e-13
        # bit for bit the pencil probed one matrix at a time
        t = _ternary_one_probe_at_a_time(pencil(vec, d), lo, hi, 200)
        assert got.tobytes() == (vec + t * d).tobytes()


def test_line_search_stops_at_fixed_point(rng, monkeypatch):
    # the search of the tau line liouvillian_null_space hands it reaches
    # its fixed point well inside the 200-step cap
    lines, line_search = [], steady_state._line_search
    monkeypatch.setattr(steady_state, "_line_search",
                        lambda *args: lines.append(args) or line_search(*args))
    liouvillian_null_space(random_offaxis_bath(rng))
    (vec, d, lo, hi), = lines
    calls = []
    _wrap_eigvalsh(monkeypatch, lambda stack: calls.append(len(stack)))
    line_search(vec, d, lo, hi)
    assert len(calls) <= 150 and set(calls) == {2}


def test_nullspace_works_off_axis(rng):
    # no closed form here; the oracle still finds the one-parameter family
    blk = random_offaxis_bath(rng)
    sol = liouvillian_null_space(blk)
    assert sol["dimension"] == 1
    member = sol["full_rank_member"]
    assert member is not None
    assert np.abs(oracle_rhs(member, blk.A, blk.B)).max() < 1e-9


@settings(max_examples=80, deadline=None)
@given(arrays(float, 3, elements=st.floats(1e-4, 3.0)),
       arrays(float, 3, elements=st.floats(-1.0, 1.0)), st.booleans(),
       st.floats(0.0, 1.0 - 1e-6), st.integers(0, 2**32 - 1))
def test_stationary_line_moves_tau(lam, direction, aligned, f, seed):
    # tau is conserved and every tau in [-3, 1] has a stationary state, so a
    # stationary line reaches both ends within state vectors of norm <=
    # sqrt(3): a unit direction has |tau_d| >= 4 / (2 sqrt(3)) > 1
    norm = np.linalg.norm(direction)
    u = np.array([0.0, 0.0, 1.0]) if aligned or norm < 0.1 else direction / norm
    # largest |B| along u keeping diag(lam) + i eps(B) positive semi-definite
    b_max = np.sqrt(lam.prod() / (u ** 2 @ lam))
    Q = random_rotation(np.random.default_rng(seed))
    A = Q @ np.diag(lam) @ Q.T
    sol = liouvillian_null_space(make_bath(0.5 * (A + A.T), Q @ (f * b_max * u)))
    if sol["dimension"] == 1:
        assert abs(sol["basis"][0][TAU_ENTRIES].sum()) >= 1


def test_nullspace_dimension_matches_superoperator_kernel(rng):
    # the 16x16 oracle has kernel dimension (affine dim + 1): the line's
    # direction plus its base point lift to two independent kernel vectors
    blk = random_block(rng)
    L = oracle_superoperator(blk.A, blk.B)
    s = np.linalg.svd(L, compute_uv=False)
    kernel_dim = int(np.sum(s < 1e-10 * s[0]))
    sol = liouvillian_null_space(blk)
    assert kernel_dim == sol["dimension"] + 1


def test_nullspace_zero_block(monkeypatch):
    # every state is stationary: the member is read off the map, not searched
    calls, line_search = [], steady_state._line_search
    monkeypatch.setattr(steady_state, "_line_search",
                        lambda *args: calls.append(args) or line_search(*args))
    sol = liouvillian_null_space(make_bath(np.zeros((3, 3)), np.zeros(3)))
    assert sol["dimension"] == 15
    assert np.abs(sol["full_rank_member"] - MM).max() < 1e-12
    assert calls == []


@pytest.mark.parametrize("lam, B, dimension", [
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 15),
    ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), 5),
    ((1.0, 0.5, 0.0), (0.0, 0.0, np.sqrt(0.5)), 3),
    ((1.0, 0.7, 0.4), (0.0, 0.0, 0.3), 1),
], ids=["zero", "rank1", "rank1-saturated", "interior"])
def test_stationary_member_is_the_long_time_limit(rng, lam, B, dimension):
    blk = make_bath(np.diag(lam), B)
    sol = liouvillian_null_space(blk)
    assert sol["dimension"] == dimension
    for _ in range(3):
        rho0 = random_state(rng)
        limit = oracle_propagate(rho0, blk.A, blk.B, 2000.0)
        assert np.abs(stationary_member(sol, convert(rho0)) - limit).max() <= 1e-10


def test_nullspace_boundary_family_has_no_interior_member():
    # equal transverse rates with a saturating vector: every stationary state
    # is rank deficient, so the interior search must report failure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = liouvillian_null_space(make_bath(np.diag([1.0, 1.0, 0.7]), [0, 0, 1.0]))
    assert sol["dimension"] == 1
    assert sol["full_rank_member"] is None


def test_commutant(rng):
    for _ in range(10):
        res = commutant_check(random_block(rng))
        assert res["contains_S"]
        assert max(res["residuals"]) < 1e-12
    res = commutant_check(random_offaxis_bath(rng))
    assert res["contains_S"]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0),
       st.floats(0.0, 0.999))
def test_constraint_box_property(l1, l2, l3, f):
    lam = np.array([l1, l2, l3])
    blk = make_bath(np.diag(lam), [0, 0, f * np.sqrt(l1 * l2)])
    fam = stationary_family(blk)
    assert -1e-12 <= 2 * fam.R <= 1 + 1e-12
    assert fam.M ** 2 <= 2 * fam.R + 1e-12
    assert fam.M ** 2 + 4 * fam.N ** 2 <= 1 + 1e-12
