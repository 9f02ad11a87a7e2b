"""Dense complex linear algebra for small Hermitian problems.

Everything operates on plain numpy arrays: vectors are 1-d complex arrays,
operators are square 2-d complex arrays. All functions are pure, leave their
inputs untouched, and are deterministic for fixed input bits. Random
generation takes an explicit ``numpy.random.Generator``; there is no ambient
RNG state anywhere in the package.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, NotHermitianError
from .tolerances import (
    EIGENVECTOR_GRAM_TOL,
    HERMITICITY_TOL,
    PHASE_FLOOR,
    RECONSTRUCTION_TOL,
    UNIT_NORM_TOL,
    WARM_CERTIFICATE_SHIFT,
    WARM_RESIDUAL_TOL,
)

# Below this dimension one eigh is cheaper than the warm step and its checks.
WARM_MIN_DIM = 6


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(a))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., d, d) stack."""
    return np.sqrt((stack * stack.conj()).real.sum(axis=(-2, -1)))


def is_hermitian(a: np.ndarray) -> bool:
    """True when ||A - A^dagger||_F <= HERMITICITY_TOL * ||A||_F. The zero matrix passes."""
    return frobenius_norm(a - a.conj().T) <= HERMITICITY_TOL * frobenius_norm(a)


def fix_phases(rows: np.ndarray) -> np.ndarray:
    """Rotate each row so its first amplitude above 1e-12 is real positive.

    ``rows`` is a matrix or a stack of them. Makes eigenvector output
    deterministic up to the underlying solver; rows entirely below the floor
    are returned unchanged.
    """
    flat = rows.reshape(-1, rows.shape[-1])
    pivot = flat[np.arange(flat.shape[0]), (np.abs(flat) > PHASE_FLOOR).argmax(axis=1)]
    mag = np.abs(pivot)
    scale = np.where(mag > 0, np.conj(pivot) / np.where(mag > 0, mag, 1.0), 1.0)
    return (flat * scale[:, None]).reshape(rows.shape)


def first_failures(failed, errors, failures: dict[int, Exception] | None = None) -> dict[int, Exception]:
    """The error of the first check each entry of a stack fails, by entry.

    ``failed`` holds one boolean mask over the stack per check, in the order
    every entry takes the checks, and ``errors[c](k)`` builds the exception
    of check c for entry k. Entries that pass every check are absent. Given
    ``failures`` from earlier checks, adds to it and keeps its entries.
    """
    failures = {} if failures is None else failures
    if any(map(np.count_nonzero, failed)):
        for mask, error in zip(failed, errors):
            for k in np.flatnonzero(mask).tolist():
                if k not in failures:
                    failures[k] = error(k)
    return failures


def _eigh_each(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, np.linalg.LinAlgError]]:
    """np.linalg.eigh of a stack; a matrix the solver fails on gets NaN factors and its error."""
    try:
        vals, vecs = np.linalg.eigh(h)
        return vals, vecs, {}
    except np.linalg.LinAlgError:
        pass
    vals = np.full(h.shape[:-1], np.nan)
    vecs = np.full(h.shape, np.nan, dtype=complex)
    unsolved = {}
    for k, m in enumerate(h):
        try:
            vals[k], vecs[k] = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            unsolved[k] = exc
    return vals, vecs, unsolved


def herm_eigs(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Eigendecompositions of a (n, d, d) stack of Hermitian matrices, solved and checked in one pass.

    Returns (values, rows, failures). ``values[k]`` is sorted descending and
    ``rows[k, j]`` is the eigenvector of ``values[k, j]``, its leading
    amplitude above 1e-12 rotated to the positive real axis, so output is
    deterministic, phases included. One batched eigh of the Hermitian parts
    gives each matrix the bits a solve of that matrix alone gives.

    ``failures`` maps entry k to the error of the first check it fails, in
    this order: NotHermitianError when ||H - H^dagger||_F > 1e-9 * ||H||_F;
    ConvergenceError when the solver fails, when the rows' Gram matrix is
    off the identity by more than 1e-10, or when the factors miss
    (H + H^dagger)/2 by more than 1e-9 * max(1, ||H||_F), all in Frobenius
    norm. Entries that fail still get (meaningless) factors.
    """
    h = np.asarray(matrices, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {h.shape}")
    adjoint = h.conj().swapaxes(1, 2)
    hermitian = (h + adjoint) / 2
    vals, vecs, unsolved = _eigh_each(hermitian)
    order = (-vals).argsort(axis=1, kind="stable")
    entry = np.arange(len(h))[:, None]
    values = vals[entry, order]
    rows = fix_phases(vecs.swapaxes(1, 2)[entry, order])

    columns, conj = rows.swapaxes(1, 2), rows.conj()
    scale, asymmetry, gram_error, residual = frobenius_norms(np.array((
        h, h - adjoint, conj @ columns - np.eye(h.shape[1]), (columns * values[:, None, :]) @ conj - hermitian
    )))
    diverged = np.zeros(len(h), dtype=bool)
    if unsolved:
        diverged[list(unsolved)] = True
    failures = first_failures(
        (
            ~(asymmetry <= HERMITICITY_TOL * scale),
            diverged,
            gram_error > EIGENVECTOR_GRAM_TOL,
            residual > RECONSTRUCTION_TOL * np.maximum(1.0, scale),
        ),
        (
            lambda k: NotHermitianError(
                f"matrix deviates from Hermitian by {frobenius_norm(h[k] - adjoint[k]):.3e}"
                f" (relative tol {HERMITICITY_TOL:g})"
            ),
            lambda k: ConvergenceError(f"eigensolver did not converge: {unsolved[k]}"),
            lambda k: ConvergenceError("eigenvectors lost orthonormality"),
            lambda k: ConvergenceError("eigendecomposition does not reproduce the input"),
        ),
    )
    return values, rows, failures


def batched_top_eig(matrices: np.ndarray, guess: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and a top eigenvector of a (..., d, d) Hermitian PSD stack.

    Evaluated without per-matrix Python overhead; inputs are trusted to be
    Hermitian. The vectors keep the solver's phases, which are deterministic
    for fixed input bits: callers that expose a vector apply fix_phases.

    With a ``guess`` (..., d) of unit vectors and d >= WARM_MIN_DIM, the
    matrices first take Rayleigh-quotient steps from their guesses, at most
    two (see :func:`_warm_top_eig`). A value from a step is the Rayleigh
    quotient of the returned vector and lies within WARM_CERTIFICATE_SHIFT *
    tr of the top eigenvalue; matrices whose steps fail their checks get
    eigh's.
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
    """Rayleigh-quotient steps per matrix from ``guess``, certified, with eigh for failing rows.

    sigma = g^dagger A g, y = (A - sigma I)^(-1) g normalized, rho = y^dagger A y.
    A matrix keeps (rho, y) when ||A y - rho y|| <= WARM_RESIDUAL_TOL * tr A
    and (rho + WARM_CERTIFICATE_SHIFT * tr A) I - A is positive definite,
    which its Cholesky factor proves: then rho <= lambda_max < rho + shift *
    tr A. Returns None, so that the whole stack goes through eigh, when the
    Cholesky check of the first step fails (a guess near a lower eigenvector
    converges there) or its solve finds a singular matrix (a guess that is an
    exact eigenvector). Matrices that fail the first step's residual take a
    second step from y, checked the same way on its own; those that fail it
    go through eigh.
    """
    try:
        rho, y, ok = _rayleigh_step(matrices, guess)
    except np.linalg.LinAlgError:
        return None
    if not _certified(matrices[ok], rho[ok]):
        return None
    if not ok.all():
        rest = ~ok
        stack, again = matrices[rest], np.zeros(np.count_nonzero(rest), dtype=bool)
        try:
            rho_2, y_2, again = _rayleigh_step(stack, y[rest])
        except np.linalg.LinAlgError:
            rho_2, y_2 = rho[rest], y[rest]
        if again.any() and not _certified(stack[again], rho_2[again]):
            again[:] = False
        if not again.all():
            rho_2[~again], y_2[~again] = _eigh_top(stack[~again])
        rho[rest], y[rest] = rho_2, y_2
    return rho, y


def _rayleigh_step(matrices: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Rayleigh-quotient step from each guess: (rho, y, passes the residual check).

    Raises LinAlgError when a shifted matrix is singular.
    """
    sigma = (guess.conj()[..., None, :] @ matrices @ guess[..., None])[..., 0, 0].real
    shifted = matrices - sigma[..., None, None] * np.eye(matrices.shape[-1])
    y = np.linalg.solve(shifted, guess[..., None])[..., 0]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        y = y / np.linalg.norm(y, axis=-1, keepdims=True)
        image = (matrices @ y[..., None])[..., 0]
        rho = np.sum(y.conj() * image, axis=-1).real
        residual = np.linalg.norm(image - rho[..., None] * y, axis=-1)
    trace = np.trace(matrices, axis1=-2, axis2=-1).real
    return rho, y, residual <= WARM_RESIDUAL_TOL * trace


def _certified(matrices: np.ndarray, rho: np.ndarray) -> bool:
    """True when (rho + WARM_CERTIFICATE_SHIFT * tr A) I - A has a Cholesky factor for every matrix A."""
    bound = rho + WARM_CERTIFICATE_SHIFT * np.trace(matrices, axis1=-2, axis2=-1).real
    try:
        np.linalg.cholesky(bound[:, None, None] * np.eye(matrices.shape[-1]) - matrices)
    except np.linalg.LinAlgError:
        return False
    return True


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
