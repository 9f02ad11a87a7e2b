"""Dense complex linear algebra for small Hermitian problems.

Everything operates on plain numpy arrays: vectors are 1-d complex arrays,
operators are square 2-d complex arrays. All functions are pure, leave their
inputs untouched, and are deterministic for fixed input bits. Random
generation takes an explicit ``numpy.random.Generator``; there is no ambient
RNG state anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, NotHermitianError

# Tolerances are relative to Frobenius norms; operators here are unit scale.
HERMITICITY_TOL = 1e-9
GRAM_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
# A warm top eigenpair is accepted when ||Phi y - rho y|| <= WARM_RESIDUAL_TOL * tr Phi
# and (rho + WARM_CERTIFICATE_SHIFT * tr Phi) I - Phi has a Cholesky factor.
WARM_RESIDUAL_TOL = 1e-10
WARM_CERTIFICATE_SHIFT = 1e-13
# Below this dimension one eigh is cheaper than the warm step and its checks.
WARM_MIN_DIM = 6

_PHASE_FLOOR = 1e-12


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2."""
    return (a + a.conj().T) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True when ||A - A^dagger||_F <= tol * ||A||_F. The zero matrix passes."""
    return frobenius_norm(a - a.conj().T) <= tol * frobenius_norm(a)


def _as_square(a: np.ndarray) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def fix_phases(rows: np.ndarray) -> np.ndarray:
    """Rotate each row so its first amplitude above 1e-12 is real positive.

    Makes eigenvector output deterministic up to the underlying solver;
    rows entirely below the floor are returned unchanged.
    """
    rows = np.atleast_2d(rows)
    lead = np.argmax(np.abs(rows) > _PHASE_FLOOR, axis=1)
    pivot = rows[np.arange(rows.shape[0]), lead]
    mag = np.abs(pivot)
    scale = np.where(mag > 0, np.conj(pivot) / np.where(mag > 0, mag, 1.0), 1.0)
    return rows * scale[:, None]


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization of a Hermitian matrix.

    ``eigenvalues`` is real and sorted descending; column k of
    ``eigenvectors`` belongs to ``eigenvalues[k]``. Each eigenvector has its
    leading nonzero amplitude rotated to the positive real axis, so repeated
    calls on the same input give identical output, signs and phases included.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted projectors onto the eigenvectors."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def herm_eig(matrix: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, deterministically ordered.

    Raises NotHermitianError if ||H - H^dagger||_F > tol * ||H||_F, and
    ConvergenceError if the solver fails or the factors do not reproduce the
    input to 1e-9 in Frobenius norm.
    """
    m = _as_square(matrix)
    if not is_hermitian(m, tol):
        raise NotHermitianError(
            f"matrix deviates from Hermitian by {frobenius_norm(m - m.conj().T):.3e} (relative tol {tol:g})"
        )
    try:
        vals, vecs = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(fix_phases(vecs[:, order].T).T)
    eig = EigenDecomposition(vals, vecs)

    gram = vecs.conj().T @ vecs
    if frobenius_norm(gram - np.eye(m.shape[0])) > GRAM_TOL:
        raise ConvergenceError("eigenvectors lost orthonormality")
    if frobenius_norm(eig.reconstruct() - hermitian_part(m)) > RECONSTRUCTION_TOL * max(
        1.0, frobenius_norm(m)
    ):
        raise ConvergenceError("eigendecomposition does not reproduce the input")
    return eig


def batched_top_eig(matrices: np.ndarray, guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and a top eigenvector of a (..., d, d) Hermitian PSD stack.

    Evaluated without per-matrix Python overhead; inputs are trusted to be
    Hermitian. The vectors keep the solver's phases, which are deterministic
    for fixed input bits: callers that expose a vector apply fix_phases.

    With a ``guess`` (..., d) of unit vectors and d >= WARM_MIN_DIM, the
    matrices first take one Rayleigh-quotient step from their guesses (see
    :func:`_warm_top_eig`). A value from that step is the Rayleigh quotient
    of the returned vector and lies within WARM_CERTIFICATE_SHIFT * tr of
    the top eigenvalue; matrices whose step fails its checks get eigh's.
    """
    if guess is not None and matrices.shape[-1] >= WARM_MIN_DIM:
        warm = _warm_top_eig(matrices, guess)
        if warm is not None:
            return warm
    return _eigh_top(matrices)


def _eigh_top(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(matrices)
    return vals[..., -1], vecs[..., :, -1]


def _warm_top_eig(matrices: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """One Rayleigh-quotient step per matrix from ``guess``, certified, with eigh for failing rows.

    sigma = g^dagger A g, y = (A - sigma I)^(-1) g normalized, rho = y^dagger A y.
    A matrix keeps (rho, y) when ||A y - rho y|| <= WARM_RESIDUAL_TOL * tr A
    and (rho + WARM_CERTIFICATE_SHIFT * tr A) I - A is positive definite,
    which its Cholesky factor proves: then rho <= lambda_max < rho + shift *
    tr A. Matrices that fail the residual go through eigh. Returns None, so
    that the whole stack goes through eigh, when the Cholesky check fails
    (a guess near a lower eigenvector converges there) or the solve finds a
    singular matrix (a guess that is an exact eigenvector).
    """
    eye = np.eye(matrices.shape[-1])
    trace = np.trace(matrices, axis1=-2, axis2=-1).real
    sigma = (guess.conj()[..., None, :] @ matrices @ guess[..., None])[..., 0, 0].real
    try:
        y = np.linalg.solve(matrices - sigma[..., None, None] * eye, guess[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        y = y / np.linalg.norm(y, axis=-1, keepdims=True)
        image = (matrices @ y[..., None])[..., 0]
        rho = np.sum(y.conj() * image, axis=-1).real
        residual = np.linalg.norm(image - rho[..., None] * y, axis=-1)
    ok = residual <= WARM_RESIDUAL_TOL * trace
    try:
        np.linalg.cholesky((rho[ok] + WARM_CERTIFICATE_SHIFT * trace[ok])[:, None, None] * eye - matrices[ok])
    except np.linalg.LinAlgError:
        return None
    if not ok.all():
        rho[~ok], y[~ok] = _eigh_top(matrices[~ok])
    return rho, y


def projector(vector: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a unit vector."""
    v = np.asarray(vector, dtype=complex)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"projector requires a unit vector, got norm {norm!r}")
    return np.outer(v, v.conj())


def random_unit_vectors(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim) Haar-distributed directions: rows of normalized complex Gaussians.

    Draws the same stream, and gives the same bits, as ``count`` calls of
    :func:`random_unit_vector`: each row's norm sums its real and its
    imaginary squares in separate dot products over the complex array's
    strided parts, as the 1-d ``np.linalg.norm`` does.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    x = rng.standard_normal((count, 2, dim))
    z = x[:, 0] + 1j * x[:, 1]
    re, im = z.real, z.imag
    squares = (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
    return z / np.sqrt(squares)[:, None]


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed direction: a normalized vector of complex Gaussians."""
    return random_unit_vectors(1, dim, rng)[0]
