"""Fixed two-qubit operator basis and the coefficient vector of a state.

Every density matrix of two qubits is written as

    rho = 1/4 [ 1x1 + sum_i r0i[i] (1 x sigma_i) + sum_i ri0[i] (sigma_i x 1)
                + sum_ij rij[i,j] (sigma_i x sigma_j) ]

with 15 real coefficients.  A state is a float array of shape (15,), in
`EXPANSION` order: r0i, ri0, then rij row-major; a stack of states is an
array of shape (..., 15).  The expansion is one linear map, kept as one
real table, `EXPANSION_REAL`: `assemble_matrices` multiplies coefficient
vectors by it and `project_matrices` multiplies Hermitian matrices by its
transpose.  The collective operators

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

# expansion operators in coefficient-vector order (1 x sigma_i, sigma_i x 1,
# sigma_i x sigma_j), and the same table as real (15, 32) rows,
# real and imaginary parts interleaved; its rows are orthogonal,
# EXPANSION_REAL @ EXPANSION_REAL.T = 4 I exactly
EXPANSION = np.array([np.kron(IDENT2, s) for s in SIGMA]
                     + [np.kron(s, IDENT2) for s in SIGMA]
                     + [np.kron(a, b) for a in SIGMA for b in SIGMA])
EXPANSION.flags.writeable = False
EXPANSION_REAL = EXPANSION.view(float).reshape(15, 32)
_PROJECTION = EXPANSION_REAL.T.copy()
_PROJECTION.flags.writeable = False
# entries of a coefficient vector that sum to tau (the diagonal of rij)
TAU_ENTRIES = [6, 10, 14]
# entries of a coefficient vector inside the X sector about axis 3 (r03 r30
# r11 r12 r21 r22 r33) and outside it (r01 r02 r10 r20 r13 r23 r31 r32); an
# X-state about axis 3, diagonal plus antidiagonal as a matrix, has the
# latter zero
X_ENTRIES = [2, 5, 6, 7, 9, 10, 14]
X_OFF_ENTRIES = [0, 1, 3, 4, 8, 11, 12, 13]
# Row a reorders a coefficient vector by the cyclic relabelling of the axes
# (1, 2, 3) that takes storage axis a to axis 3: v[AXIS_RELABEL[a]] is the
# vector of (U x U) rho (U x U)^dagger, U a qubit rotation by 2 pi / 3 about
# (1, 1, 1) (or its square, or 1 for a = 2).  A local unitary, it keeps the
# partial-transpose spectrum and the concurrence.
_CYCLES = [[(j + a + 1) % 3 for j in range(3)] for a in range(3)]
AXIS_RELABEL = np.array([p + [3 + i for i in p]
                         + [6 + 3 * i + j for i in p for j in p]
                         for p in _CYCLES])
AXIS_RELABEL.flags.writeable = False


def assemble_matrices(vectors):
    """Density matrices of coefficient vectors: shape (..., 15) -> (..., 4, 4).

    The vectors are in `EXPANSION` order; the matrices are
    (1 + v @ EXPANSION_REAL) / 4 viewed as complex.
    """
    v = np.asarray(vectors, dtype=float)
    mat = v @ EXPANSION_REAL
    mat[..., ::10] += 1.0  # the real parts of diagonal entries 0, 5, 10, 15
    mat *= 0.25
    return mat.view(complex).reshape(v.shape[:-1] + (4, 4))


def project_matrices(mats):
    """Coefficient vectors of Hermitian matrices: shape (..., 4, 4) -> (..., 15).

    Re Tr(E_k rho) is the dot product of the real views of E_k and rho when
    rho is Hermitian, so the projection is the real view of the stack times
    EXPANSION_REAL.T.  That transpose is kept C-ordered: BLAS then projects
    each matrix of a stack bit for bit as it projects the matrix alone.
    """
    m = np.ascontiguousarray(mats, dtype=complex)
    return m.view(float).reshape(m.shape[:-2] + (32,)) @ _PROJECTION


def convert(state):
    """Convert between coefficient vectors and 4x4 density matrices, one
    state or a stack, the direction read from the trailing shape.

    (..., 15) -> (..., 4, 4) is `assemble_matrices`.  (..., 4, 4) -> (...,
    15) is `project_matrices`, which assumes Hermitian input; a trace other
    than 1 is reported as a warning, never renormalized.
    """
    x = np.asarray(state)
    if x.shape[-1:] == (15,):
        return assemble_matrices(x)
    x = x.astype(complex, copy=False)
    tr = np.trace(x, axis1=-2, axis2=-1).real
    off = tr[np.abs(tr - 1.0) > 1e-12]
    if off.size:
        warnings.warn(f"matrix trace is {off[0]!r}, not 1; coefficients kept "
                      "unscaled", stacklevel=2)
    return project_matrices(x)


def tau_of(state):
    """tau of one coefficient vector or one 4x4 matrix: the trace of the
    correlation block rij, equal to 1 - 4 Tr[P rho]."""
    x = np.asarray(state)
    if x.shape == (4, 4):
        x = project_matrices(x)
    return float(x[TAU_ENTRIES].sum())


# Smallest eigenvalue a state may show from rounding alone; every state
# check (`check_density_matrix`, `concurrence`, `evolve`) rejects below it.
STATE_EIG_FLOOR = -1e-8


def check_density_matrix(mat):
    """Raise ValueError unless mat is Hermitian and unit-trace within 1e-12
    and has no eigenvalue below STATE_EIG_FLOOR."""
    mat = np.asarray(mat, dtype=complex)
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev > 1e-12:
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
    trace_dev = abs(np.trace(mat).real - 1.0)
    if trace_dev > 1e-12:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e}")
    min_eig = np.linalg.eigvalsh(mat).min()
    if min_eig < STATE_EIG_FLOOR:
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
