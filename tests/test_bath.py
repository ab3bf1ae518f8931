"""Bath validation, full coefficient matrix, principal-frame geometry, the
closed form's rank test, and the stationarity of the closed-form states built
in degenerate frames."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pairbath
from pairbath import steady_state
from pairbath.bath import (BathValidityError, ClosedFormNotApplicable,
                           assemble_full_C, hermitian_block,
                           make_bath, principal_frame)
from pairbath.entanglement import concurrence_closed
from pairbath.generator import _check_coefficient_matrix, rhs_equal_blocks
from pairbath.steady_state import (equilibrium_components,
                                   liouvillian_null_space, stationary_family)

from conftest import (kossakowski_matrix, random_block,
                      random_offaxis_bath, random_rotation)

RANK_ONE = "rank <= 1: tau is not the only conserved quantity"
OFF_AXIS = "not aligned with a principal axis of A"


def test_hermitian_block_matches_oracle(rng):
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        A = 0.5 * (A + A.T)
        B = rng.normal(size=3)
        assert np.abs(hermitian_block(A, B) - kossakowski_matrix(A, B)).max() < 1e-15


def test_hermitian_block_equals_cross_product_form(rng):
    # row j of the imaginary part is B x e_j; byte-equal to that form even for
    # signed zeros in B (A holds no -0.0, whose sign the cross form leaves to B)
    for _ in range(500):
        A = rng.normal(size=(3, 3))
        A = np.where(rng.random((3, 3)) < 0.3, 0.0, A + A.T)
        B = np.where(rng.random(3) < 0.5, rng.choice([0.0, -0.0], 3), rng.normal(size=3))
        assert (hermitian_block(A, B).tobytes()
                == (A + 1j * np.cross(B, np.eye(3))).tobytes())


def test_make_bath_basic():
    blk = make_bath(np.diag([2.0, 1.0, 1.0]), [0, 0, 1.0])
    assert np.allclose(blk.A, np.diag([2, 1, 1]))
    assert np.allclose(blk.B, [0, 0, 1])
    assert blk.A_tr == 4.0
    assert np.all(np.diff(blk.eigs) >= 0)
    assert np.abs(blk.herm - blk.herm.conj().T).max() < 1e-15
    assert not blk.boundary


def test_make_bath_rejects_nonpsd():
    # bath vector exceeding the rate geometry makes the block indefinite
    with pytest.raises(BathValidityError, match="eigenvalue"):
        make_bath(np.eye(3), [0, 0, 1.5])


@pytest.mark.parametrize("A,B", [(np.eye(3), [0, 0, np.nan]),
                                 (np.diag([1.0, np.inf, 1.0]), np.zeros(3))])
def test_make_bath_rejects_non_finite(A, B):
    with pytest.raises(BathValidityError, match="finite"):
        make_bath(A, B)


def test_make_bath_rejects_asymmetric():
    A = np.eye(3)
    A[0, 1] = 1e-6
    with pytest.raises(BathValidityError, match="symmetric"):
        make_bath(A, np.zeros(3))


def test_make_bath_symmetrizes_tiny_asymmetry():
    A = np.eye(3)
    A[0, 1] = 5e-13
    with pytest.warns(UserWarning, match="symmetrizing"):
        blk = make_bath(A, np.zeros(3))
    assert np.abs(blk.A - blk.A.T).max() == 0.0


def test_boundary_flag():
    assert make_bath(np.eye(3), [0, 0, 1.0]).boundary          # b^2 = lam1 lam2
    assert not make_bath(np.eye(3), [0, 0, 0.99]).boundary
    assert make_bath(np.diag([1.0, 1.0, 0.0]), np.zeros(3)).boundary
    assert make_bath(np.zeros((3, 3)), np.zeros(3)).boundary


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e9])
def test_positivity_rule_is_relative_to_the_rates_scale(scale, rng):
    # rotated baths with rates in [0.5, 2] scale, on the boundary (f = 1) and
    # just inside it (f = 1 - 1e-9): each is accepted, and so is its C.  Just
    # inside, herm's smallest eigenvalue is about 2e-9 lam1 lam2 / (lam1 +
    # lam2), in [5e-10, 2e-9] scale: a zero by the absolute floor 1e-12 below
    # scale 1e-3, far above the floor from scale 1e-2 up
    for f in (1.0, 1 - 1e-9):
        for _ in range(20):
            unit = random_block(rng, f_range=(f, f))
            blk = make_bath(scale * unit.A, scale * unit.B)
            assert blk.boundary == (f == 1.0 or scale < 1e-3), (scale, f, blk.eigs)
            _check_coefficient_matrix(assemble_full_C(blk))


def test_assemble_full_C(rng):
    blk = random_block(rng)
    C = assemble_full_C(blk)
    assert C.shape == (6, 6)
    for r in range(2):
        for c in range(2):
            assert np.abs(C[3 * r:3 * r + 3, 3 * c:3 * c + 3] - blk.herm).max() == 0.0
    spec = np.sort(np.linalg.eigvalsh(C))
    expect = np.sort(np.concatenate([2 * blk.eigs, np.zeros(3)]))
    assert np.abs(spec - expect).max() < 1e-12


def test_principal_frame_generic(rng):
    for _ in range(15):
        blk = random_block(rng)
        fr = principal_frame(blk)
        G = fr.aligned_rotation
        assert np.abs(G @ G.T - np.eye(3)).max() < 1e-12
        assert np.abs(G @ blk.A @ G.T - np.diag(fr.aligned_lam)).max() < 1e-9
        b_vec = G @ blk.B
        assert np.abs(b_vec[:2]).max() < 1e-9 * max(1.0, fr.aligned_b)
        assert b_vec[2] >= 0
        assert np.isclose(b_vec[2], np.linalg.norm(blk.B))
        assert fr.aligned_lam[0] >= fr.aligned_lam[1] - 1e-12


def test_principal_frame_off_axis(rng):
    for _ in range(10):
        with pytest.raises(ClosedFormNotApplicable, match=OFF_AXIS):
            principal_frame(random_offaxis_bath(rng))


def test_principal_frame_zero_B(rng):
    blk = make_bath(np.diag([3.0, 2.0, 1.0]), np.zeros(3))
    fr = principal_frame(blk)
    assert fr.aligned_b == 0.0
    assert np.allclose(fr.aligned_lam, [3, 2, 1])


def test_principal_frame_fully_degenerate(rng):
    # isotropic A: any B direction is a principal axis
    for _ in range(5):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        blk = make_bath(1.3 * np.eye(3), 0.7 * direction)
        fr = principal_frame(blk)
        assert np.allclose(fr.aligned_lam, [1.3, 1.3, 1.3])
        assert np.isclose(fr.aligned_b, 0.7)
        b_vec = fr.aligned_rotation @ blk.B
        assert np.abs(b_vec - [0, 0, 0.7]).max() < 1e-10


def test_principal_frame_planar_degeneracy(rng):
    # doubly degenerate A with B inside the degenerate plane: alignable
    lam = np.array([2.0, 2.0, 0.5])
    for _ in range(5):
        theta = rng.uniform(0, 2 * np.pi)
        B = 0.6 * np.array([np.cos(theta), np.sin(theta), 0.0])
        Q = random_rotation(rng)
        A = Q @ np.diag(lam) @ Q.T
        blk = make_bath(0.5 * (A + A.T), Q @ B)
        fr = principal_frame(blk)
        # B rides the degenerate rate; the leftover degenerate axis and the
        # odd one out are sorted descending
        assert np.allclose(sorted(fr.aligned_lam, reverse=True), [2, 2, 0.5])
        assert np.isclose(fr.aligned_lam[2], 2.0)
        assert np.isclose(fr.aligned_b, 0.6)


@pytest.mark.parametrize("b", [7.198468251453334e-162, 1e-155, 1e-152])
def test_principal_frame_tiny_B_on_axis(b):
    # B.B is subnormal here; the direction of B must still come out a unit
    # vector, so the closed form applies
    fr = principal_frame(make_bath(np.eye(3), [0.0, 0.0, b]))
    assert fr.aligned_b == b
    tilted = make_bath(np.diag([1.0, 0.5, 0.2]), [0.8 * b, 0.0, 0.6 * b])
    with pytest.raises(ClosedFormNotApplicable, match=OFF_AXIS):
        principal_frame(tilted)


def test_planar_degeneracy_B_out_of_plane_not_applicable(rng):
    lam = np.diag([2.0, 2.0, 0.5])
    B = 0.3 * np.array([1.0, 0.0, 1.0]) / np.sqrt(2)  # mixes both clusters
    with pytest.raises(ClosedFormNotApplicable, match=OFF_AXIS):
        principal_frame(make_bath(lam, B))


def test_frame_deterministic(rng):
    blk = random_block(rng)
    f1 = principal_frame(blk)
    f2 = principal_frame(blk)
    assert np.array_equal(f1.aligned_rotation, f2.aligned_rotation)


def test_aligned_rates_are_clipped_at_zero(rng):
    # a zero rate of a rotated A comes out of eigh about as often as not as
    # -1e-17 or so; every aligned rate is g.A.g for a row g of the frame G
    for _ in range(10):
        Q = random_rotation(rng)
        for b in (0.0, 0.3):
            A = _rotated([1.0, 0.5, 0.0], Q)
            fr = principal_frame(make_bath(A, Q @ np.array([0.0, 0.0, b])))
            G = fr.aligned_rotation
            assert (fr.aligned_lam >= 0.0).all(), fr.aligned_lam
            assert np.abs(fr.aligned_lam - np.diag(G @ A @ G.T)).max() <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b, b_scaled", [(5e-13, 0.25), (0.0, 0.0)])
def test_rounding_rate_gives_closed_form_of_scaled_bath(b, b_scaled):
    # make_bath accepts the rate -1e-12 as rounding of zero; unclipped, it
    # made e2 = lam1 lam2 + lam3 (lam1 + lam2) exactly 0.0, and M, N, R NaN.
    # Clipped, the bath is lam = (1, 1, 0) with B = (0, 0, b_scaled) scaled
    # by 2e-12, and M, N, R, which do not scale, are that bath's bit for bit
    tiny = stationary_family(make_bath(np.diag([2e-12, 2e-12, -1e-12]), [0.0, 0.0, b]))
    scaled = stationary_family(make_bath(np.diag([1.0, 1.0, 0.0]), [0.0, 0.0, b_scaled]))
    values = np.array([tiny.M, tiny.N, tiny.R])
    assert values.tobytes() == np.array([scaled.M, scaled.N, scaled.R]).tobytes()
    assert values.tolist() == ([0.25, 0.0, 0.03125] if b else [0.0, 0.0, 0.0])


def test_closed_forms_stay_in_range_on_rates_near_the_floor(rng):
    # aligned rates and |B| on axis 3 at and around the floor 1e-12, rotated
    # or not: wherever the closed form applies, b^2 <= lam1 lam2 after the
    # clip keeps 2R <= 1 and M^2 <= 2R, which concurrence_closed checks.
    # Unclipped, lam = (3e-12, 0, 1) with b = 2e-12 gave 2R = 1.78
    rates = (0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12,
             2e-12, 3e-12, 1e-11, 1.0, 2.0)
    norms = (0.0, 1e-13, 5e-13, 1e-12, 2e-12, 3e-12, 1e-11, 1.0)
    closed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "bath vector saturates")
        for Q in (np.eye(3), random_rotation(rng), random_rotation(rng)):
            for lam in itertools.product(rates, repeat=3):
                A = _rotated(lam, Q)
                for b in norms:
                    try:
                        fam = stationary_family(make_bath(A, Q @ [0.0, 0.0, b]))
                    except (BathValidityError, ClosedFormNotApplicable):
                        continue
                    concurrence_closed(fam.M, fam.R, 0.0)
                    closed += 1
    assert closed > 12000


def test_closed_form_not_applicable_is_one_class():
    assert steady_state.ClosedFormNotApplicable is ClosedFormNotApplicable
    assert pairbath.ClosedFormNotApplicable is ClosedFormNotApplicable


def _rotated(lam, Q):
    A = Q @ np.diag(lam) @ Q.T
    return 0.5 * (A + A.T)


def _degenerate_bath(kind, rng):
    Q = random_rotation(rng)
    if kind == "isotropic":
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        return make_bath(1.3 * np.eye(3), 0.7 * direction)
    A = _rotated([2.0, 2.0, 0.5], Q)
    if kind == "planar_B_in_plane":
        theta = rng.uniform(0, 2 * np.pi)
        B = 0.6 * np.array([np.cos(theta), np.sin(theta), 0.0])
        return make_bath(A, Q @ B)
    if kind == "planar_B_on_odd_axis":
        return make_bath(A, Q @ np.array([0.0, 0.0, 1.2]))
    return make_bath(A, np.zeros(3))  # "rotated_B_zero"


@pytest.mark.parametrize("kind", ["isotropic", "planar_B_in_plane",
                                  "planar_B_on_odd_axis", "rotated_B_zero"])
def test_degenerate_frame_states_are_stationary(kind, rng):
    # the basis chosen inside a degenerate plane must not leak into the states
    for _ in range(5):
        blk = _degenerate_bath(kind, rng)
        fam = stationary_family(blk)
        states = [fam.rho0_hat] + [equilibrium_components(tau, fam).state
                                   for tau in (-3.0, -1.0, 0.5, 1.0)]
        for state in states:
            assert np.abs(rhs_equal_blocks(state, blk)).max() <= 1e-12


def _tilted_bath(rng, lam, axis, angle, b=0.3):
    # B at `angle` rad from principal axis `axis`, tilted toward the next axis
    Q = random_rotation(rng)
    direction = np.zeros(3)
    direction[axis] = np.cos(angle)
    direction[(axis + 1) % 3] = np.sin(angle)
    return make_bath(_rotated(lam, Q), b * Q @ direction)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_applicability_criterion_separated_rates(axis, rng):
    lam = [3.0, 1.0, 0.2]
    for _ in range(5):
        near = _tilted_bath(rng, lam, axis, 1e-12)
        assert np.isclose(principal_frame(near).aligned_lam[2], lam[axis])
        far = _tilted_bath(rng, lam, axis, 1e-6)
        with pytest.raises(ClosedFormNotApplicable, match=OFF_AXIS):
            principal_frame(far)
        with pytest.raises(ClosedFormNotApplicable, match=OFF_AXIS):
            stationary_family(far)


def test_applicability_criterion_planar_degeneracy(rng):
    # every direction inside the degenerate plane is an eigenvector of A
    Q = random_rotation(rng)
    A = _rotated([2.0, 2.0, 0.5], Q)
    for theta in np.linspace(0.0, np.pi, 17):
        B = 0.6 * Q @ np.array([np.cos(theta), np.sin(theta), 0.0])
        fr = principal_frame(make_bath(A, B))
        G = fr.aligned_rotation
        assert np.abs(G @ A @ G.T - np.diag(fr.aligned_lam)).max() < 1e-12
        assert np.allclose(fr.aligned_lam, [2.0, 0.5, 2.0])


def _bath_of_herm(herm):
    # herm[i, j] = A[i, j] + i eps_ijk B[k]: B[0] = Im herm[1, 2], ...
    return make_bath(herm.real, herm.imag[[1, 2, 0], [2, 0, 1]])


@settings(max_examples=60, deadline=None)
@given(arrays(float, (2, 3), elements=st.floats(-2.0, 2.0)))
def test_rank_one_bath_refuses_closed_form(parts):
    # herm = v v^dagger: one collective jump operator.  B is parallel to
    # Re v x Im v, an eigenvector of A, so only the rank test refuses it.
    v = parts[0] + 1j * parts[1]
    herm = np.outer(v, v.conj())
    blk = _bath_of_herm(herm)
    assert np.abs(blk.herm - herm).max() <= 1e-15 and blk.rank <= 1
    with pytest.raises(ClosedFormNotApplicable, match=RANK_ONE):
        principal_frame(blk)
    with pytest.raises(ClosedFormNotApplicable, match=RANK_ONE):
        stationary_family(blk)


@pytest.mark.parametrize("lam, b", [((1.0, 0.0, 0.0), 0.0),
                                    ((1.0, 0.5, 0.0), np.sqrt(0.5))])
def test_rank_one_reproducers_refuse_closed_form(lam, b):
    # two baths with more stationary directions than the tau line
    blk = make_bath(np.diag(lam), [0.0, 0.0, b])
    assert blk.rank == 1
    with pytest.raises(ClosedFormNotApplicable, match=RANK_ONE):
        principal_frame(blk)
    assert liouvillian_null_space(blk)["dimension"] > 1


def test_closed_form_applicable_exactly_where_null_space_is_a_line():
    # aligned rates in {0, 0.5, 1}^3, |B| = f sqrt(lam1 lam2) on axis 3
    grid = (0.0, 0.5, 1.0)
    for lam in itertools.product(grid, repeat=3):
        for f in grid:
            blk = make_bath(np.diag(lam), [0.0, 0.0, f * np.sqrt(lam[0] * lam[1])])
            dimension = liouvillian_null_space(blk)["dimension"]
            try:
                principal_frame(blk)
                raises = False
            except ClosedFormNotApplicable:
                raises = True
            assert raises == (dimension != 1), (lam, f)
