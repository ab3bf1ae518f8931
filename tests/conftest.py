"""Shared fixtures and independent oracles.

Everything in here is written from the defining equations without importing
the production formulas: 16x16 superoperators, for a common bath and for
any 6x6 coefficient matrix, propagated by scipy's matrix exponential stand
against the production propagator, the numpy exponential of the compiled
15-coefficient generator, and an exact X-state concurrence stands against
the singular-value route.  Only `make_bath` and `KossakowskiBlock` are
borrowed, as the container the API under test expects, and the samplers
`random_state`, `random_rotation` and `random_block`, taken from
`pairbath.selfcheck` so that `check` and the tests draw from one copy.
"""

import numpy as np
import pytest
import scipy.linalg

from pairbath.bath import KossakowskiBlock, make_bath
from pairbath.selfcheck import random_block, random_rotation, random_state
from pairbath.steady_state import stationary_family as _stationary_family

# ---------------------------------------------------------------- operators

PAULI = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]
EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)

COLLECTIVE = [np.kron(p, EYE2) + np.kron(EYE2, p) for p in PAULI]
# sigma_i x 1, then 1 x sigma_i: the operators a 6x6 coefficient matrix couples
LOCAL = [np.kron(p, EYE2) for p in PAULI] + [np.kron(EYE2, p) for p in PAULI]

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def kossakowski_matrix(A, B):
    """3x3 Hermitian block from its real symmetric and vector parts."""
    K = np.asarray(A, dtype=complex).copy()
    for i in range(3):
        for j in range(3):
            K[i, j] += 1j * sum(_EPS[i, j, k] * B[k] for k in range(3))
    return K


def non_cp_block(A, B):
    """A bath block whose Hermitian matrix may have negative eigenvalues,
    built directly, since `make_bath` rejects it: a generator that is not
    completely positive, which can drive a state out of the positive cone."""
    herm = kossakowski_matrix(A, B)
    return KossakowskiBlock(A=np.asarray(A, dtype=float), B=np.asarray(B, dtype=float),
                            herm=herm, eigs=np.linalg.eigvalsh(herm),
                            A_tr=float(np.trace(A).real))


def oracle_superoperator(A, B):
    """16x16 generator acting on row-major vectorized 4x4 matrices."""
    K = kossakowski_matrix(A, B)
    L = np.zeros((16, 16), dtype=complex)
    for i in range(3):
        Si = COLLECTIVE[i]
        for j in range(3):
            Sj = COLLECTIVE[j]
            SiSj = Si @ Sj
            L += K[i, j] * (np.kron(Sj, Si.T)
                            - 0.5 * np.kron(SiSj, EYE4)
                            - 0.5 * np.kron(EYE4, SiSj.T))
    return L


def oracle_general_superoperator(C):
    """16x16 generator of sum_ab C[a, b] (F_b rho F_a - {F_a F_b, rho} / 2)
    over the six LOCAL operators, on row-major vectorized 4x4 matrices."""
    L = np.zeros((16, 16), dtype=complex)
    for a in range(6):
        Fa = LOCAL[a]
        for b in range(6):
            Fb = LOCAL[b]
            FaFb = Fa @ Fb
            L += C[a, b] * (np.kron(Fb, Fa.T)
                            - 0.5 * np.kron(FaFb, EYE4)
                            - 0.5 * np.kron(EYE4, FaFb.T))
    return L


def oracle_general_propagate(rho0, C, t):
    """Exact-in-time propagation under a 6x6 coefficient matrix, at one time
    or at each of an array of times (one 4x4 state per time)."""
    gen = np.multiply.outer(t, oracle_general_superoperator(C))
    return (scipy.linalg.expm(gen) @ np.asarray(rho0, dtype=complex).ravel()
            ).reshape(np.shape(t) + (4, 4))


def oracle_propagate(rho0, A, B, t):
    """Exact-in-time propagation by matrix exponential of the superoperator."""
    L = oracle_superoperator(A, B)
    return (scipy.linalg.expm(L * t) @ np.asarray(rho0, dtype=complex).ravel()
            ).reshape(4, 4)


def oracle_rhs(rho, A, B):
    """Direct derivative through the superoperator."""
    return (oracle_superoperator(A, B) @ np.asarray(rho, dtype=complex).ravel()
            ).reshape(4, 4)


def xstate_concurrence(rho):
    """Exact concurrence for states supported on diagonal + antidiagonal."""
    c1 = abs(rho[1, 2]) - np.sqrt(max(rho[0, 0].real, 0) * max(rho[3, 3].real, 0))
    c2 = abs(rho[0, 3]) - np.sqrt(max(rho[1, 1].real, 0) * max(rho[2, 2].real, 0))
    return 2.0 * max(0.0, c1, c2)


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


# ---------------------------------------------------------------- generators

def random_xstate(rng):
    p = rng.dirichlet(np.ones(4))
    z14 = rng.uniform(0, 1) * np.sqrt(p[0] * p[3]) * np.exp(2j * np.pi * rng.uniform())
    z23 = rng.uniform(0, 1) * np.sqrt(p[1] * p[2]) * np.exp(2j * np.pi * rng.uniform())
    rho = np.diag(p).astype(complex)
    rho[0, 3], rho[3, 0] = z14, np.conj(z14)
    rho[1, 2], rho[2, 1] = z23, np.conj(z23)
    return rho


def random_offaxis_bath(rng):
    """Valid block whose vector is NOT on a principal axis."""
    lam = np.sort(rng.uniform(0.5, 2.0, 3))
    A = np.diag(lam)
    while True:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        if np.abs(direction).min() > 0.1:
            break
    # |B| < min eigenvalue of A keeps the full Kossakowski matrix PSD
    b = lam[0] * rng.uniform(0.3, 0.8)
    return make_bath(A, b * direction)


def random_psd_C(rng, rank):
    """Random Hermitian PSD 6x6 coefficient matrix of the given rank,
    trace 3."""
    X = rng.normal(size=(6, rank)) + 1j * rng.normal(size=(6, rank))
    C = X @ X.conj().T
    return 3.0 * C / np.trace(C).real


def random_ket(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def closed_form_exact_ensemble(rng, n, f_range=(0.05, 0.8)):
    """Applicable baths on which the asymptotic concurrence formula is exact
    for every tau (the antidiagonal channel never wins)."""
    out = []
    while len(out) < n:
        blk = random_block(rng, f_range=f_range)
        fam = _stationary_family(blk)
        if 8 * abs(fam.N) <= 0.999 * (1 - 2 * fam.R):
            out.append((blk, fam))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)
