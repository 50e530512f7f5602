"""Dimension-independent de Finetti approximation for separable symmetric states.

A symmetric separable n-party state is a convex combination of
permutation-averages of pure product states tau_1 x ... x tau_n.  Its
k-party reduced state is the hypergeometric average over ordered distinct
index tuples of tau_{j_1} x ... x tau_{j_k}, which Moebius inversion over
the set partitions of the k positions turns into Bell(k) products of the
block sums S_b = sum_j tau_j^(x b); replacing the hypergeometric weights
by multinomial ones turns each term into the k-fold power of the flat
average tau = (1/n) sum_j tau_j.  The trace-norm error of that
replacement is at most 2 k (k-1) / n regardless of the local dimension.

Eigenvalues are computed with a cyclic Jacobi sweep on the real symmetric
embedding of a Hermitian matrix; no external solver is used.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ResourceLimitError

DEFAULT_QTOL = 1e-9

# Hard cap on max(d, 2)**k: the reduced-state dimension d**k, and 2**k so
# that the Bell(k) partitions stay bounded (k <= 8) even when d = 1.
REDUCED_DIM_CAP = 256

JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=complex))
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {entries.shape}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_entries(cls, entries) -> "DensityMatrix":
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("density matrix must be square")
        return cls(entries.shape[0], entries)

    def validate(self, tol: float = DEFAULT_QTOL) -> None:
        """Raise unless Hermitian, unit trace and positive semidefinite within tol."""
        herm = float(np.max(np.abs(self.entries - self.entries.conj().T)))
        if herm > tol:
            raise ValueError(f"not Hermitian (deviation {herm:.3e})")
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > tol:
            raise ValueError(f"trace is {tr}, expected 1")
        w = hermitian_eigenvalues(self.entries)
        if w.min() < -tol:
            raise ValueError(f"negative eigenvalue {w.min():.3e}")


@dataclass(frozen=True, eq=False)
class SymmetricSeparableSpec:
    """Mixture of permutation-averaged pure product states.

    Each term carries a weight and n unit vectors in dimension d; the
    represented n-party state is the weighted sum of the symmetrized
    products of the corresponding rank-one projectors.
    """

    n: int
    d: int
    terms: tuple  # ((weight, (vector, ...) of length n), ...)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        cleaned = []
        total = 0.0
        for w, vecs in self.terms:
            w = float(w)
            if w < -DEFAULT_QTOL:
                raise ValueError(f"negative weight {w}")
            total += w
            if len(vecs) != self.n:
                raise ValueError(f"term has {len(vecs)} states, expected n={self.n}")
            arrs = []
            for v in vecs:
                arr = np.ascontiguousarray(np.asarray(v, dtype=complex).reshape(-1))
                if arr.size != self.d:
                    raise ValueError(f"state vector has dimension {arr.size}, expected {self.d}")
                norm = float(np.linalg.norm(arr))
                if abs(norm - 1.0) > DEFAULT_QTOL:
                    raise ValueError(f"state vector norm {norm} is not 1")
                arr.setflags(write=False)
                arrs.append(arr)
            cleaned.append((w, tuple(arrs)))
        if abs(total - 1.0) > DEFAULT_QTOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "terms", tuple(cleaned))


def jacobi_eigh(matrix, offdiag_tol: float = JACOBI_OFFDIAG_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, V) with matrix = V diag(eigenvalues) V^T.  Sweeps
    stop once the off-diagonal Frobenius norm falls below `offdiag_tol`
    (scaled by the matrix norm for large inputs); exceeding `max_sweeps`
    raises ConvergenceError.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n and float(np.max(np.abs(a - a.T))) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("matrix is not symmetric")
    v = np.eye(n)
    threshold = offdiag_tol * max(1.0, float(np.linalg.norm(a)))
    off = np.linalg.norm(a - np.diag(np.diag(a)))
    for _ in range(max_sweeps):
        if off <= threshold:
            return np.diag(a).copy(), v
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 if theta == 0.0 else np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        off = np.linalg.norm(a - np.diag(np.diag(a)))
    if off <= threshold:
        return np.diag(a).copy(), v
    raise ConvergenceError(f"Jacobi sweep cap {max_sweeps} reached", offdiag=float(off))


def _real_embedding(h: np.ndarray) -> np.ndarray:
    """Real symmetric 2d x 2d matrix whose spectrum doubles that of Hermitian h."""
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def hermitian_eigenvalues(h) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix via the real embedding."""
    h = np.asarray(h, dtype=complex)
    w, _ = jacobi_eigh(_real_embedding(h))
    w.sort()
    return w[::2]  # the embedding doubles every eigenvalue


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    w, _ = jacobi_eigh(_real_embedding(h))
    return float(np.abs(w).sum() / 2.0)


def trace_norm_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Full (unhalved) L1 distance between the spectra of rho - sigma.

    Note the convention: box distances in this package are 1/2 * L1,
    while quantum trace-norm distances are reported unhalved, matching
    the 2 k (k-1) / n bound.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    diff = rho.entries - sigma.entries
    herm = float(np.max(np.abs(diff - diff.conj().T)))
    if herm > 1e-9:
        raise ValueError(f"difference is not Hermitian (deviation {herm:.3e})")
    return trace_norm(diff)


def _set_partitions(k: int):
    """Every set partition of {0..k-1}, as lists of blocks (Bell(k) of them)."""
    if k == 0:
        yield []
        return
    for part in _set_partitions(k - 1):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [k - 1]] + part[i + 1 :]
        yield part + [[k - 1]]


def reduced_state(spec: SymmetricSeparableSpec, k: int) -> DensityMatrix:
    """k-party reduced state of the described n-party state.

    The state is the uniform average of tau_{j_1} x ... x tau_{j_k} over
    the n!/(n-k)! ordered tuples of distinct indices.  Moebius inversion on
    the lattice of set partitions of the k positions writes that sum as

        sum_pi mu(pi) (x)_{B in pi} S_|B|,   S_b = sum_j tau_j^(x b),

    with mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)! and each block sum acting
    on the positions of its block: Bell(k) tensor products of dimension
    d**k instead of one per tuple.  Neither the n-party state nor the
    tuples are ever materialized; REDUCED_DIM_CAP bounds max(d, 2)**k.
    """
    if not 0 < k <= spec.n:
        raise ValueError(f"need 1 <= k <= n={spec.n}, got {k}")
    d = spec.d
    dk = d**k
    if max(d, 2) ** k > REDUCED_DIM_CAP:
        raise ResourceLimitError(f"max(d, 2)**k = {max(d, 2) ** k} exceeds {REDUCED_DIM_CAP}")
    partitions = []
    for part in _set_partitions(k):
        mu = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
        # The product of the block sums has, block after block, the ket
        # axes then the bra axes of that block; move them to positions.
        axes, offset = [0] * (2 * k), 0
        for b in part:
            for i, pos in enumerate(b):
                axes[pos] = offset + i
                axes[k + pos] = offset + len(b) + i
            offset += 2 * len(b)
        partitions.append((mu, [len(b) for b in part], axes))
    acc = np.zeros((d,) * (2 * k), dtype=complex)
    for w, vecs in spec.terms:
        rows = np.array(vecs)  # row j is tau_j's vector
        power, block_sums = rows, {}
        for b in range(1, k + 1):
            if b > 1:
                power = (power[:, :, None] * rows[:, None, :]).reshape(spec.n, -1)
            block_sums[b] = (power.T @ power.conj()).reshape((d,) * (2 * b))
        for mu, sizes, axes in partitions:
            t = block_sums[sizes[0]]
            for size in sizes[1:]:
                t = np.multiply.outer(t, block_sums[size])
            acc += (w * mu) * np.transpose(t, axes)
    return DensityMatrix(dk, acc.reshape(dk, dk) / math.perm(spec.n, k))


def definetti_quantum(spec: SymmetricSeparableSpec, k: int):
    """Mixture of flat-average states approximating the k-party reduced state.

    Per term the component is sigma = (1/n) sum_j |tau_j><tau_j|; the
    approximating state is sum_t w_t sigma_t^(x k) and the certified
    trace-norm bound is 2 k (k-1) / n.
    """
    if not 0 < k <= spec.n:
        raise ValueError(f"need 1 <= k <= n={spec.n}, got {k}")
    mixture = []
    for w, vecs in spec.terms:
        sigma = np.zeros((spec.d, spec.d), dtype=complex)
        for v in vecs:
            sigma += np.outer(v, v.conj())
        mixture.append((w, DensityMatrix(spec.d, sigma / spec.n)))
    bound = 2.0 * k * (k - 1) / spec.n
    return mixture, bound


def mixture_density(mixture, k: int) -> DensityMatrix:
    """Materialize sum_t w_t sigma_t^(x k)."""
    if not mixture:
        raise ValueError("mixture has no terms")
    d = mixture[0][1].dim
    dk = d**k
    if max(d, 2) ** k > REDUCED_DIM_CAP:
        raise ResourceLimitError(f"max(d, 2)**k = {max(d, 2) ** k} exceeds {REDUCED_DIM_CAP}")
    acc = np.zeros((dk, dk), dtype=complex)
    for w, sigma in mixture:
        power = sigma.entries
        for _ in range(k - 1):
            power = np.kron(power, sigma.entries)
        acc += w * power
    return DensityMatrix(dk, acc)


def partial_trace_last(rho: DensityMatrix, local_dim: int) -> DensityMatrix:
    """Trace out the last local_dim-dimensional subsystem."""
    if rho.dim % local_dim:
        raise ValueError(f"dimension {rho.dim} is not a multiple of {local_dim}")
    m = rho.dim // local_dim
    t = rho.entries.reshape(m, local_dim, m, local_dim)
    return DensityMatrix(m, np.einsum("aibi->ab", t))
