"""Fixed two-qubit operator basis and the real-coefficient state representation.

Every density matrix of two qubits is written as

    rho = 1/4 [ 1x1 + sum_i r0i[i] (1 x sigma_i) + sum_i ri0[i] (sigma_i x 1)
                + sum_ij rij[i,j] (sigma_i x sigma_j) ]

with 15 real coefficients.  The collective operators

    Sigma_i = sigma_i x 1 + 1 x sigma_i
    S_ij    = sigma_i x sigma_j + sigma_j x sigma_i,   S = sum_i S_ii

close under matrix multiplication; `check_appendix_algebra` verifies the
four product identities by brute force.  P projects onto the antisymmetric
(singlet) state and commutes with every Sigma_i; tau = sum_i rij[i,i] is the
scalar 1 - 4 Tr[P rho], confined to [-3, 1] for valid states.

Operators are indexed 1..3 in formulas and 0..2 in storage; the mapping is
fixed here and imported everywhere else.
"""

import warnings
from dataclasses import dataclass

import numpy as np

SIGMA = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]
IDENT2 = np.eye(2, dtype=complex)
IDENT4 = np.eye(4, dtype=complex)


def levi_civita(i, j, k):
    """Totally antisymmetric symbol on storage indices 0..2; returns -1.0, 0.0 or 1.0."""
    return float((i - j) * (j - k) * (k - i)) / 2.0


BIG_SIGMA = [np.kron(s, IDENT2) + np.kron(IDENT2, s) for s in SIGMA]
S_OPS = [[np.kron(SIGMA[i], SIGMA[j]) + np.kron(SIGMA[j], SIGMA[i]) for j in range(3)]
         for i in range(3)]
S_TOTAL = S_OPS[0][0] + S_OPS[1][1] + S_OPS[2][2]
P_SINGLET = (IDENT4 - S_TOTAL / 2) / 4
Q_TRIPLET = IDENT4 - P_SINGLET

# expansion operators in `PauliCoefficients.as_vector` order (1 x sigma_i,
# sigma_i x 1, sigma_i x sigma_j), used by `convert` in both directions
EXPANSION = np.array([np.kron(IDENT2, s) for s in SIGMA]
                     + [np.kron(s, IDENT2) for s in SIGMA]
                     + [np.kron(a, b) for a in SIGMA for b in SIGMA])
# entries of a coefficient vector that sum to tau (the diagonal of rij)
TAU_ENTRIES = [6, 10, 14]


@dataclass
class PauliCoefficients:
    """The 15 real expansion coefficients of a two-qubit operator.

    r0i[i] multiplies 1 x sigma_i (second qubit), ri0[i] multiplies
    sigma_i x 1 (first qubit), rij[i, j] multiplies sigma_i x sigma_j.
    """

    r0i: np.ndarray
    ri0: np.ndarray
    rij: np.ndarray

    def __post_init__(self):
        self.r0i = np.asarray(self.r0i, dtype=float).reshape(3)
        self.ri0 = np.asarray(self.ri0, dtype=float).reshape(3)
        self.rij = np.asarray(self.rij, dtype=float).reshape(3, 3)

    def copy(self):
        return PauliCoefficients(self.r0i.copy(), self.ri0.copy(), self.rij.copy())

    def as_vector(self):
        """Flatten to the canonical 15-vector order [r0i, ri0, rij.ravel()]."""
        return np.concatenate([self.r0i, self.ri0, self.rij.ravel()])

    @classmethod
    def from_vector(cls, v):
        v = np.asarray(v, dtype=float).reshape(15)
        return cls(v[:3], v[3:6], v[6:].reshape(3, 3))

    @classmethod
    def zero(cls):
        return cls(np.zeros(3), np.zeros(3), np.zeros((3, 3)))


def _gather_table():
    # For each slot, entry and part (real, imaginary) of a flattened 4x4
    # matrix, the index into the extended vector of `assemble_matrices`.
    # Slot 0 is the identity's 1 or a 0; slots 1 and 2 are the at most two
    # terms the expansion puts there, in the order `EXPANSION` is walked
    # (pair (1 x sigma_i, sigma_i x 1) first, then sigma_i x sigma_j).  The
    # sigma_z pair meets on the diagonal and enters as its one pre-summed
    # value; every other term is +c_k or -c_k.
    parts = np.stack([EXPANSION.real, EXPANSION.imag], axis=-1).reshape(15, 16, 2)
    groups = [g for i in range(3)
              for g in ((i, 3 + i), (6 + 3 * i,), (7 + 3 * i,), (8 + 3 * i,))]
    table = np.full((3, 16, 2), _EXT_ZERO)
    table[0, ::5, 0] = _EXT_ONE
    for e, p in np.ndindex(16, 2):
        terms = []
        for group in groups:
            ks = [k for k in group if parts[k, e, p]]
            if len(ks) == 2:
                terms.append(_EXT_ZPAIR + e // 5)
            elif ks:
                terms.append(ks[0] if parts[ks[0], e, p] > 0 else 15 + ks[0])
        table[1:1 + len(terms), e, p] = terms
    return table


# extended vector [c, -c, sigma_z pair sums on the diagonal, 1, 0]
_EXT_ZPAIR, _EXT_ONE, _EXT_ZERO = 30, 34, 35
_ZPAIR_SIGNS = EXPANSION[[2, 5]].diagonal(axis1=1, axis2=2).real
_GATHER = _gather_table()


def assemble_matrices(vectors):
    """Density matrices of coefficient vectors: shape (..., 15) -> (..., 4, 4).

    The vectors are in `PauliCoefficients.as_vector` order.  Each part of
    each entry is gathered and added in one fixed order whatever the stack
    shape, so on finite input this is bit for bit the term-by-term sum of
    `EXPANSION` (identity, then for each i the pair c_i (1 x sigma_i) +
    c_{3+i} (sigma_i x 1), then the three sigma_i x sigma_j terms), and a
    stack gives the matrices of its rows assembled one at a time.  A
    non-finite coefficient reaches only the entries it enters, where the
    term-by-term sum spread it to all 16 through inf * 0.
    """
    v = np.asarray(vectors, dtype=float)
    lead = v.shape[:-1]
    ext = np.empty(lead + (36,))
    ext[..., :15] = v
    np.negative(v, out=ext[..., 15:30])
    zpair = ext[..., _EXT_ZPAIR:_EXT_ONE]
    np.multiply(v[..., 2:3], _ZPAIR_SIGNS[0], out=zpair)
    zpair += v[..., 5:6] * _ZPAIR_SIGNS[1]
    ext[..., _EXT_ONE] = 1.0
    ext[..., _EXT_ZERO] = 0.0
    # the gather puts the stack axes innermost in memory; summing into a
    # C-ordered array makes the complex view below valid
    terms = ext[..., _GATHER]
    mat = np.add(terms[..., 0, :, :], terms[..., 1, :, :], out=np.empty(lead + (16, 2)))
    mat += terms[..., 2, :, :]
    mat *= 0.25
    return mat.view(complex).reshape(lead + (4, 4))


def convert(state):
    """Convert between PauliCoefficients and the 4x4 density-matrix form.

    Coefficients -> matrix assembles the expansion verbatim.  Matrix ->
    coefficients projects with traces, taking real parts (the input is assumed
    Hermitian); a non-unit trace is reported as a warning, never renormalized.
    """
    if isinstance(state, PauliCoefficients):
        return assemble_matrices(state.as_vector())
    mat = np.asarray(state, dtype=complex)
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-12:
        warnings.warn(f"matrix trace is {tr!r}, not 1; coefficients kept unscaled",
                      stacklevel=2)
    return PauliCoefficients.from_vector(
        np.trace(mat @ EXPANSION, axis1=1, axis2=2).real)


def tau_of(state):
    """Trace of the correlation block; equals 1 - 4 Tr[P rho]."""
    if isinstance(state, PauliCoefficients):
        return float(np.trace(state.rij))
    mat = np.asarray(state, dtype=complex)
    return float(sum(np.trace(mat @ EXPANSION[TAU_ENTRIES], axis1=1, axis2=2).real))


def check_density_matrix(mat, herm_tol=1e-12, trace_tol=1e-12, psd_floor=-1e-10):
    """Raise ValueError unless mat is Hermitian, unit-trace and numerically PSD."""
    mat = np.asarray(mat, dtype=complex)
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev > herm_tol:
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
    trace_dev = abs(np.trace(mat).real - 1.0)
    if trace_dev > trace_tol:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")
    min_eig = np.linalg.eigvalsh(mat).min()
    if min_eig < psd_floor:
        raise ValueError(f"negative eigenvalue {min_eig:.3e}")
    return mat


def check_appendix_algebra():
    """Verify the four product identities of the collective-operator algebra.

    Each identity is checked for every index combination by comparing the
    explicit matrix product against the claimed linear combination; the
    largest entrywise deviation is returned.
    """
    one = IDENT4
    worst = 0.0

    # Sigma_i Sigma_j = 2 delta_ij 1 + i eps_ijk Sigma_k + S_ij
    for i in range(3):
        for j in range(3):
            lhs = BIG_SIGMA[i] @ BIG_SIGMA[j]
            rhs = 2 * (i == j) * one + S_OPS[i][j]
            for k in range(3):
                rhs = rhs + 1j * levi_civita(i, j, k) * BIG_SIGMA[k]
            worst = max(worst, np.abs(lhs - rhs).max())

    # S_ij Sigma_k = delta_ik Sigma_j + delta_jk Sigma_i
    #               + i eps_ikl S_lj + i eps_jkl S_il     (and conjugate order)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                cross = np.zeros((4, 4), dtype=complex)
                for l in range(3):
                    cross = cross + (levi_civita(i, k, l) * S_OPS[l][j]
                                     + levi_civita(j, k, l) * S_OPS[i][l])
                base = (i == k) * BIG_SIGMA[j] + (j == k) * BIG_SIGMA[i]
                lhs = S_OPS[i][j] @ BIG_SIGMA[k]
                worst = max(worst, np.abs(lhs - (base + 1j * cross)).max())
                lhs = BIG_SIGMA[k] @ S_OPS[i][j]
                worst = max(worst, np.abs(lhs - (base - 1j * cross)).max())

    # S_ij S_kl: scalar, Sigma, S and pairwise-S contributions
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    lhs = S_OPS[i][j] @ S_OPS[k][l]
                    rhs = 2 * ((i == k) * (j == l) + (i == l) * (j == k)) * one
                    for r in range(3):
                        coef = ((i == k) * levi_civita(j, l, r)
                                + (j == k) * levi_civita(i, l, r)
                                + (i == l) * levi_civita(j, k, r)
                                + (j == l) * levi_civita(i, k, r))
                        rhs = rhs + 1j * coef * BIG_SIGMA[r]
                    rhs = rhs - (2 * (i == j) * (k == l) - (i == k) * (j == l)
                                 - (i == l) * (j == k)) * S_TOTAL
                    rhs = rhs + 2 * ((i == j) * S_OPS[k][l] + (k == l) * S_OPS[i][j])
                    rhs = rhs - ((i == k) * S_OPS[j][l] + (i == l) * S_OPS[j][k]
                                 + (j == k) * S_OPS[i][l] + (j == l) * S_OPS[i][k])
                    worst = max(worst, np.abs(lhs - rhs).max())

    return worst
