"""Dense complex linear algebra for bipartite density matrices.

Everything here is a pure function of its inputs. The fixed basis
convention is ``|i mu>`` with the subsystem-1 index major, i.e. the
composite row index of an entry ``<i mu| rho |j nu>`` is ``i*d2 + mu``.
"""

import numpy as np

# Tolerances shared across the package.
HERMITICITY_RTOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
EIG_CLIP = 1e-10        # eigenvalues in [-EIG_CLIP, 0) are treated as 0
ENTROPY_FLOOR = 1e-14   # eigenvalues at or below this contribute 0*log 0 = 0


class DensityMatrix:
    """A Hermitian, unit-trace, PSD matrix on C^d1 (x) C^d2.

    The input is validated against the Hermiticity/trace/positivity
    invariants and then symmetrized once, ``(M + M^dag)/2``; no operation
    downstream ever re-symmetrizes silently.

    Pass ``check=False`` to skip the eigendecomposition-based PSD check
    when the matrix is positive by construction (e.g. ``A @ A^dag``).
    """

    __slots__ = ("d1", "d2", "mat")

    def __init__(self, mat, d1, d2, check=True):
        if d1 < 1 or d2 < 1:
            raise ValueError("subsystem dimensions must be positive")
        mat = np.asarray(mat, dtype=complex)
        n = d1 * d2
        if mat.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
            raise ValueError("matrix has non-finite entries")
        scale = np.abs(mat).max()
        if scale > 0 and np.abs(mat - mat.conj().T).max() > HERMITICITY_RTOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        self.d1 = d1
        self.d2 = d2
        self.mat = 0.5 * (mat + mat.conj().T)
        if abs(self.mat.trace().real - 1.0) > TRACE_ATOL:
            raise ValueError("matrix does not have unit trace")
        if check:
            self.validate()

    def validate(self):
        """Check the PSD invariant; raises ValueError on failure."""
        lmin = np.linalg.eigvalsh(self.mat)[0]
        if lmin < -PSD_ATOL:
            raise ValueError(f"matrix is not PSD (min eigenvalue {lmin:g})")

    @property
    def dim(self):
        return self.d1 * self.d2

    def _blocks(self):
        """View the matrix with indices (i, mu, j, nu)."""
        return self.mat.reshape(self.d1, self.d2, self.d1, self.d2)


def partial_transpose(rho, subsystem=1):
    """Transpose the indices of one subsystem of ``rho``.

    Returns a plain ndarray: the result is Hermitian with unit trace but
    in general not PSD.
    """
    t = rho._blocks()
    if subsystem == 1:
        t = t.transpose(2, 1, 0, 3)
    elif subsystem == 2:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return np.ascontiguousarray(t.reshape(rho.dim, rho.dim))


def partial_trace(rho, traced_subsystem=2):
    """Trace out one subsystem, returning the marginal as a DensityMatrix.

    The marginal is returned as a single-system state (second dimension 1).
    """
    t = rho._blocks()
    if traced_subsystem == 2:
        reduced = np.einsum("imjm->ij", t)
        d = rho.d1
    elif traced_subsystem == 1:
        reduced = np.einsum("imin->mn", t)
        d = rho.d2
    else:
        raise ValueError("traced_subsystem must be 1 or 2")
    return DensityMatrix(reduced, d, 1, check=False)


def realign(rho):
    """Reshuffle ``rho`` into the d1^2 x d2^2 realignment matrix.

    Row index is the pair (i, j), column index the pair (mu, nu), so entry
    ((i,j),(mu,nu)) equals <i mu| rho |j nu>. The output has the same entry
    multiset as the input (equal Frobenius norms).
    """
    t = rho._blocks()
    return np.ascontiguousarray(
        t.transpose(0, 2, 1, 3).reshape(rho.d1 ** 2, rho.d2 ** 2)
    )


def trace_norm(m):
    """Sum of singular values of ``m``."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def spectrum(rho):
    """Descending eigenvalues of a density matrix."""
    return np.linalg.eigvalsh(rho.mat)[::-1]


def von_neumann_entropy(eigenvalues, base="e"):
    """Entropy -sum(p log p) of a density-matrix spectrum.

    Eigenvalues below the entropy floor contribute zero; tiny negatives
    from the eigensolver are clipped to [0, 1] first.
    """
    p = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    p = p[p > ENTROPY_FLOOR]
    s = float(-(p * np.log(p)).sum())
    if base == 2:
        s /= np.log(2.0)
    elif base != "e":
        raise ValueError("base must be 2 or 'e'")
    return max(s, 0.0)


def purity(rho):
    """Tr rho^2; equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho.mat, rho.mat).real)
