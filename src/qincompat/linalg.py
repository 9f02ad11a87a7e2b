"""Dense complex linear algebra for small Hermitian problems.

Everything operates on plain numpy arrays: vectors are 1-d complex arrays,
operators are square 2-d complex arrays. All functions are pure, leave their
inputs untouched, and are deterministic for fixed input bits. Random
generation takes an explicit ``numpy.random.Generator``; there is no ambient
RNG state anywhere in the package.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DimensionMismatchError, NotHermitianError
from .tolerances import (
    EIGENVECTOR_GRAM_TOL,
    HERMITICITY_TOL,
    PHASE_FLOOR,
    RECONSTRUCTION_TOL,
    UNIT_NORM_TOL,
    WARM_CERTIFICATE_SHIFT,
)

# Largest d whose identity is held (see identity).
IDENTITY_HELD_MAX_DIM = 64


def identity(dim: int) -> np.ndarray:
    """The real d x d identity, read-only, with the bits of ``np.eye(dim)``.

    Up to IDENTITY_HELD_MAX_DIM it is built once per d and held, about 0.7 MB
    for every such d together; a larger one is built per call, a cost small
    beside the d^3 work it takes part in.
    """
    if dim <= IDENTITY_HELD_MAX_DIM:
        return _held_identity(dim)
    return _read_only_identity(dim)


def _read_only_identity(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


_held_identity = functools.cache(_read_only_identity)


def frobenius_norm(a: np.ndarray) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(a))


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (..., d, d) stack.

    Each matrix is summed scaled by 2^-e, with 2^e just above its largest
    real or imaginary part (not its largest |entry|, a hypot that may
    overflow), and the root is scaled back, so a norm overflows or
    underflows only where the norm itself does. Scaling by a power of two is
    exact: an ordinary matrix gets the bits of its plain sum of squares.
    """
    parts = np.ascontiguousarray(stack, dtype=complex).view(float)
    _, exponent = np.frexp(np.abs(parts).max(axis=(-2, -1), initial=0.0))
    # ldexp, not a product with 2^-e: that factor overflows for a matrix of subnormals
    scaled = np.ldexp(parts, -exponent[..., None, None]).view(complex)
    # the imaginary parts of the products are not used, and may be inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ldexp(np.sqrt((scaled * scaled.conj()).real.sum(axis=(-2, -1))), exponent)


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
    this order: ValueError when ||H||_F overflows, which leaves the
    relative tests unbounded; NotHermitianError when
    ||H - H^dagger||_F > 1e-9 * ||H||_F; ConvergenceError when the solver
    fails, when the rows' Gram matrix is off the identity by more than
    1e-10, or when the factors miss (H + H^dagger)/2 by more than
    1e-9 * max(1, ||H||_F), all in Frobenius norm. Each test is written as not (err <= tol), so NaN errors fail it.
    Entries that fail still get (meaningless) factors, computed without
    floating-point warnings.
    """
    h = np.asarray(matrices, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {h.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = h.conj().swapaxes(1, 2)
        hermitian = h / 2 + adjoint / 2
        vals, vecs, unsolved = _eigh_each(hermitian)
        order = (-vals).argsort(axis=1, kind="stable")
        entry = np.arange(len(h))[:, None]
        values = vals[entry, order]
        rows = fix_phases(vecs.swapaxes(1, 2)[entry, order])

        columns, conj = rows.swapaxes(1, 2), rows.conj()
        scale, asymmetry, gram_error, residual = frobenius_norms(np.array((
            h, h - adjoint, conj @ columns - identity(h.shape[1]), (columns * values[:, None, :]) @ conj - hermitian
        )))
    diverged = np.zeros(len(h), dtype=bool)
    if unsolved:
        diverged[list(unsolved)] = True
    failures = first_failures(
        (
            ~np.isfinite(scale),
            ~(asymmetry <= HERMITICITY_TOL * scale),
            diverged,
            ~(gram_error <= EIGENVECTOR_GRAM_TOL),
            ~(residual <= RECONSTRUCTION_TOL * np.maximum(1.0, scale)),
        ),
        (
            lambda k: ValueError("entries too large: the Frobenius norm overflows double precision"),
            lambda k: NotHermitianError(
                f"matrix deviates from Hermitian by {asymmetry[k]:.3e} (relative tol {HERMITICITY_TOL:g})"
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

    With a ``guess`` (..., d) of unit vectors, each matrix A checks its guess
    g with one matrix-vector product: it keeps (rho, g), rho = g^dagger A g,
    with no solver run, where :func:`_certified` proves lambda_max <
    rho + WARM_CERTIFICATE_SHIFT * tr A. Every other matrix goes through one
    eigh of their stack, which gives each the bits of a solve of it alone.
    """
    if guess is None:
        return _eigh_top(matrices)
    shape, dim = guess.shape, guess.shape[-1]
    matrices, guess = matrices.reshape(-1, dim, dim), guess.reshape(-1, dim)
    image = (matrices @ guess[..., None])[..., 0]
    rho = np.sum(guess.conj() * image, axis=-1).real
    residual_sq = np.square((image - rho[:, None] * guess).view(float)).sum(axis=-1)
    served = _certified(matrices, rho, residual_sq, np.einsum("kii->k", matrices).real)
    vec = guess.copy()
    if not served.all():
        rest = ~served
        rho[rest], vec[rest] = _eigh_top(matrices[rest])
    return rho.reshape(shape[:-1]), vec.reshape(shape)


def _eigh_top(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(matrices)
    return vals[..., -1], vecs[..., :, -1]


def _certified(matrices: np.ndarray, rho: np.ndarray, residual_sq: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Per matrix of a (n, d, d) PSD stack: is lambda_max(A) < rho + WARM_CERTIFICATE_SHIFT * tr A proved?

    ``rho`` is the quotient v^dagger A v of a unit vector v and
    ``residual_sq`` is eps^2 = ||A v - rho v||^2. Kato-Temple (Kato, J.
    Phys. Soc. Jpn. 4, 334, 1949): if every eigenvalue but lambda_max is at
    most nu < rho, then lambda_max <= rho + eps^2 / (rho - nu). Weyl's
    interlacing gives lambda_2(A) <= lambda_max(B) for B = A - rho v v^dagger,
    and the Wolkowicz-Styan bound (Linear Algebra Appl. 29, 471, 1980) gives
    lambda_max(B) <= nu = m + s sqrt(d - 1) from tr B = tr A - rho and
    ||B||_F^2 = ||A||_F^2 - rho^2, with m = tr B / d and
    s^2 = ||B||_F^2 / d - m^2. A matrix is certified when rho > nu and
    eps^2 <= shift * tr A * (rho - nu). A NaN in any input certifies nothing.

    Rounding pad: with delta = 4 (d + 2) eps_mach tr A, rho, m and eps are
    each taken as off by up to delta, and s^2 by up to delta * tr A (the
    rounding error of these sums of d or d^2 terms bounded by tr A, as
    |a_ij| <= sqrt(a_ii a_jj) for PSD A). The test is
    2 (eps^2 + delta^2) < (shift * tr A - delta) * (rho - nu - 2 delta), with
    s taken as sqrt(s^2 + delta * tr A); 2 (eps^2 + delta^2) bounds
    (eps + delta)^2.
    """
    dim = matrices.shape[-1]
    delta = 4 * (dim + 2) * np.finfo(float).eps * trace
    frobenius_sq = np.einsum("kij,kij->k", matrices.conj(), matrices).real
    mean = (trace - rho) / dim
    spread = np.sqrt(np.maximum((frobenius_sq - rho * rho) / dim - mean * mean, 0.0) + delta * trace)
    gap = rho - mean - spread * np.sqrt(dim - 1) - 2 * delta
    shift = WARM_CERTIFICATE_SHIFT * trace
    return (gap > 0) & (2 * (residual_sq + delta * delta) < (shift - delta) * gap)


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
