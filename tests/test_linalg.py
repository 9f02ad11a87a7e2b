import numpy as np
import pytest

from qincompat import linalg
from qincompat.errors import ConvergenceError, DimensionMismatchError, NotHermitianError
from qincompat.linalg import herm_eigs, projector, random_unit_vector
from qincompat.fidelity import _phi_batch, _signal_overlaps
from conftest import random_ensemble, random_hermitian


def herm_eig(matrix):
    """herm_eigs on a stack of one: (eigenvalues, eigenvectors as columns), raising its failure."""
    values, rows, failures = herm_eigs(np.asarray(matrix, dtype=complex)[None])
    if failures:
        raise failures[0]
    return values[0], rows[0].T


def reconstruct(values, vectors):
    return (vectors * values) @ vectors.conj().T


class TestFrobeniusNorms:
    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 3.7, 1e5, 1e150])
    def test_keeps_the_bits_of_the_unscaled_sum(self, scale):
        rng = np.random.default_rng(2)
        stack = scale * (rng.standard_normal((3, 5, 4, 4)) + 1j * rng.standard_normal((3, 5, 4, 4)))
        unscaled = np.sqrt((stack * stack.conj()).real.sum(axis=(-2, -1)))
        np.testing.assert_array_equal(linalg.frobenius_norms(stack), unscaled)

    def test_overflows_and_underflows_only_where_the_norm_does(self):
        stack = np.array([
            [[1e154, 0.0], [0.0, -1e154]],
            [[1e308, 0.0], [0.0, 0.0]],
            [[1e308, 1e308], [1e308, -1e308]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[1e-170, 1e-170], [0.0, -1e-170]],
            [[5e-324, 0.0], [0.0, 0.0]],
        ])
        norms = linalg.frobenius_norms(stack)
        assert norms[0] == pytest.approx(np.sqrt(2.0) * 1e154, rel=1e-15)
        assert norms[1] == 1e308
        assert norms[2] == np.inf
        assert norms[3] == 0.0
        # squares that underflow do not take the norm with them
        assert norms[4] == pytest.approx(np.sqrt(3.0) * 1e-170, rel=1e-15)
        assert norms[5] == 5e-324
        # an infinite entry gives an infinite norm, not NaN, so a check of the norm still fails
        with np.errstate(invalid="ignore"):
            assert linalg.frobenius_norms(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)) == np.inf


class TestHermEig:
    def test_identity(self):
        values, _ = herm_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0])

    def test_already_diagonal(self):
        values, vectors = herm_eig(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(values, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-14)
        # descending order puts +1 first
        assert vectors[0, 0] == pytest.approx(1.0)

    def test_reconstruction_residual(self):
        h = random_hermitian(4, np.random.default_rng(7))
        assert np.linalg.norm(reconstruct(*herm_eig(h)) - h) < 1e-9

    def test_rejects_non_hermitian(self):
        message = r"deviates from Hermitian by 1\.414e\+00 \(relative tol 1e-09\)"
        with pytest.raises(NotHermitianError, match=message):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            herm_eigs(np.zeros((1, 2, 3)))

    def test_deterministic(self):
        h = random_hermitian(5, np.random.default_rng(3))
        (a_values, a_vectors), (b_values, b_vectors) = herm_eig(h), herm_eig(h)
        assert np.array_equal(a_values, b_values)
        assert np.array_equal(a_vectors, b_vectors)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 9])
    def test_invariants_on_random_inputs(self, dim):
        rng = np.random.default_rng(dim)
        stack = np.stack([random_hermitian(dim, rng) for _ in range(20)])
        values, rows, failures = herm_eigs(stack)
        assert failures == {}
        for h, vals, vecs in zip(stack, values, rows.swapaxes(1, 2)):
            gram = vecs.conj().T @ vecs
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10
            assert np.linalg.norm(reconstruct(vals, vecs) - h) <= 1e-9
            assert np.all(np.diff(vals) <= 0)
            for column in vecs.T:
                lead = column[np.argmax(np.abs(column) > 1e-12)]
                assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_each_entry_names_its_first_failed_check(self, monkeypatch):
        rng = np.random.default_rng(5)
        stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
        stack[1, 0, 2] += 1.0  # not Hermitian
        stuck = stack[3].copy()
        original = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            if any(np.array_equal(m, stuck) for m in np.reshape(a, (-1, 3, 3))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        values, rows, failures = herm_eigs(stack)
        assert sorted(failures) == [1, 3]
        assert isinstance(failures[1], NotHermitianError)
        assert isinstance(failures[3], ConvergenceError)
        assert str(failures[3]) == "eigensolver did not converge: Eigenvalues did not converge"
        # the entries the solver handles keep their factors
        expected, _, _ = herm_eigs(stack[[0, 2]])
        assert np.array_equal(values[[0, 2]], expected)

    def test_nan_factors_fail_the_gram_check(self, monkeypatch):
        original = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            vals, vecs = original(a, *args, **kwargs)
            return vals, np.full_like(vecs, np.nan)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        _, _, failures = herm_eigs(np.diag([1.0, -1.0])[None])
        assert isinstance(failures[0], ConvergenceError)
        assert str(failures[0]) == "eigenvectors lost orthonormality"


class TestMaxEig:
    """The largest eigenpair: herm_eigs's first eigenvalue and row."""

    def test_simple_diagonal(self):
        values, vectors = herm_eig(np.diag([0.2, 0.8]).astype(complex))
        assert values[0] == pytest.approx(0.8)
        np.testing.assert_allclose(vectors[:, 0], [0.0, 1.0], atol=1e-14)

    def test_fully_degenerate_is_deterministic(self):
        values, vectors = herm_eig(0.5 * np.eye(2, dtype=complex))
        assert values[0] == pytest.approx(0.5)
        _, again = herm_eig(0.5 * np.eye(2, dtype=complex))
        assert np.array_equal(vectors[:, 0], again[:, 0])

    def test_intercepted_state_average(self):
        # measuring |0><0| against the Z and X bases leaves the average
        # post-measurement state (1/2)(diag(1,0) + I/2) = diag(3/4, 1/4)
        rho = 0.5 * (np.diag([1.0, 0.0]) + np.eye(2) / 2)
        values, vectors = herm_eig(rho.astype(complex))
        assert values[0] == pytest.approx(0.75, abs=1e-14)
        np.testing.assert_allclose(vectors[:, 0], [1.0, 0.0], atol=1e-14)

    def test_matches_herm_eig_exactly(self, rng):
        # the see-saw's batched top eigenvalue is herm_eigs's largest, bit for bit
        h = random_hermitian(6, rng)
        eigenvalues, _ = herm_eig(h)
        value, _ = linalg.batched_top_eig(h[None])
        assert value[0] == eigenvalues[0] == np.max(eigenvalues)


class TestProjector:
    def test_standard_basis(self):
        np.testing.assert_allclose(projector(np.array([1.0, 0.0])), np.diag([1.0, 0.0]))

    def test_superposition(self):
        p = projector(np.array([1.0, 1.0]) / np.sqrt(2))
        np.testing.assert_allclose(p, np.full((2, 2), 0.5), atol=1e-15)

    def test_unit_trace(self, rng):
        v = random_unit_vector(5, rng)
        assert abs(np.trace(projector(v)) - 1.0) < 1e-12

    def test_idempotent_hermitian(self, rng):
        p = projector(random_unit_vector(4, rng))
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.conj().T) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            projector(np.array([1.0, 1.0]))


class TestRandomUnitVector:
    def test_one_dimensional_is_a_phase(self):
        v = random_unit_vector(1, np.random.default_rng(0))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_seed_reproducibility(self):
        a = random_unit_vector(4, np.random.default_rng(123))
        b = random_unit_vector(4, np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_haar_average_overlap(self):
        # Haar average of |<0|v>|^2 in d=2 is 1/2
        rng = np.random.default_rng(99)
        samples = [abs(random_unit_vector(2, rng)[0]) ** 2 for _ in range(10_000)]
        assert np.mean(samples) == pytest.approx(0.5, abs=0.02)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            random_unit_vector(0, np.random.default_rng(0))


def random_psd_stack(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) PSD matrices of trace 1/dim, the scale of the see-saw's Phi."""
    z = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    m = z @ z.conj().swapaxes(1, 2)
    return m / (dim * np.trace(m, axis1=1, axis2=2).real[:, None, None])


def near(vectors: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Unit vectors a random step of relative size ``scale`` away from ``vectors``."""
    noise = rng.standard_normal(vectors.shape) + 1j * rng.standard_normal(vectors.shape)
    moved = vectors + scale * noise
    return moved / np.linalg.norm(moved, axis=-1, keepdims=True)


@pytest.fixture
def eigh_rows(monkeypatch):
    """Record how many matrices each np.linalg.eigh call receives."""
    sizes = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


class TestWarmTopEig:
    """batched_top_eig with a guess: a certified guess is kept, every other row goes through one eigh."""

    DIM = 6

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_perturbed_guesses_match_eigh(self, dim, eigh_rows, monkeypatch):
        # exact guesses are served; perturbed, second-eigenvector and random guesses get eigh's bits, and
        # nothing but that one eigh factorizes a matrix
        rng = np.random.default_rng(dim)
        matrices = random_psd_stack(10, dim, rng)
        # the rows with exact guesses get a top eigenvalue that the certificate's bound on lambda_2 separates
        top = np.linalg.eigh(matrices[:3])[1][:, :, -1]
        matrices[:3] += top[:, :, None] * top[:, None, :].conj() / dim
        vals, vecs = np.linalg.eigh(matrices)
        guess = vecs[:, :, -1].copy()
        guess[3:6] = near(vecs[3:6, :, -1], 1e-4, rng)
        guess[6:8] = vecs[6:8, :, -2]
        guess[8:] = near(np.zeros((2, dim), dtype=complex), 1.0, rng)
        for name in ("solve", "cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        eigh_rows.clear()
        lam, eta = linalg.batched_top_eig(matrices, guess)
        assert eigh_rows == [7]
        np.testing.assert_array_equal(lam[3:], vals[3:, -1])
        np.testing.assert_array_equal(eta[3:], vecs[3:, :, -1])
        np.testing.assert_array_equal(eta[:3], vecs[:3, :, -1])
        assert np.all(np.abs(lam[:3] - vals[:3, -1]) < linalg.WARM_CERTIFICATE_SHIFT / dim)

    def test_second_eigenvector_guess_is_rejected(self, eigh_rows, monkeypatch):
        rng = np.random.default_rng(11)
        matrices = random_psd_stack(5, self.DIM, rng)
        vals, vecs = np.linalg.eigh(matrices)
        guess = vecs[:, :, -1].copy()
        guess[[0, 3]] = vecs[[0, 3], :, -2]
        # the second eigenvector's residual is rounding, so the certificate alone refuses its value
        image = np.einsum("aij,aj->ai", matrices, guess)
        quotient = np.einsum("ai,ai->a", guess.conj(), image).real
        assert np.all(np.linalg.norm(image - quotient[:, None] * guess, axis=1) < 1e-16)
        assert np.all(vals[[0, 3], -1] - vals[[0, 3], -2] > 1e-3)
        for name in ("solve", "cholesky"):
            monkeypatch.setattr(np.linalg, name, None)
        eigh_rows.clear()
        lam, eta = linalg.batched_top_eig(matrices, guess)
        # the refused rows go through one eigh of their own two, beside the served rows: no per-row loop
        assert eigh_rows == [2]
        np.testing.assert_array_equal(lam[[0, 3]], vals[[0, 3], -1])
        np.testing.assert_array_equal(eta[[0, 3]], vecs[[0, 3], :, -1])
        np.testing.assert_array_equal(eta[[1, 2, 4]], guess[[1, 2, 4]])
        assert np.all(np.abs(lam - vals[:, -1]) < linalg.WARM_CERTIFICATE_SHIFT / self.DIM)

    def test_exact_eigenvector_guess_does_not_raise(self):
        # an exact eigenvector has a residual of 0
        spectrum = np.arange(self.DIM, 0, -1) / (self.DIM * (self.DIM + 1) / 2) / self.DIM
        matrices = np.stack([np.diag(spectrum).astype(complex)] * 3)
        lam, eta = linalg.batched_top_eig(matrices, guess=np.eye(self.DIM, dtype=complex)[[0, 0, 0]])
        np.testing.assert_array_equal(lam, spectrum[0])
        np.testing.assert_allclose(np.abs(eta[:, 0]), 1.0, atol=1e-15)
        rng = np.random.default_rng(12)
        matrices = random_psd_stack(20, self.DIM, rng)
        vals, vecs = np.linalg.eigh(matrices)
        lam, _ = linalg.batched_top_eig(matrices, guess=vecs[:, :, -1])
        assert np.all(np.abs(lam - vals[:, -1]) < linalg.WARM_CERTIFICATE_SHIFT / self.DIM)

    def test_failing_rows_alone_go_through_eigh(self, eigh_rows):
        rng = np.random.default_rng(13)
        matrices = random_psd_stack(30, self.DIM, rng)
        vals, vecs = np.linalg.eigh(matrices)
        guess = vecs[:, :, -1].copy()
        guess[4] = near(np.zeros(self.DIM, dtype=complex), 1.0, rng)  # a random direction
        eigh_rows.clear()
        lam, _ = linalg.batched_top_eig(matrices, guess)
        assert eigh_rows == [1]
        assert np.all(np.abs(lam - vals[:, -1]) < linalg.WARM_CERTIFICATE_SHIFT / self.DIM)

    def test_without_steps_a_missed_guess_goes_straight_to_eigh(self, eigh_rows, monkeypatch):
        # the see-saw's sweep-1 call: exact guesses are served, the others get eigh's bits, and no other
        # solver runs
        rng = np.random.default_rng(16)
        matrices = random_psd_stack(10, self.DIM, rng)
        vals, vecs = np.linalg.eigh(matrices)
        guess = vecs[:, :, -1].copy()
        guess[4:] = near(vecs[4:, :, -1], 1e-4, rng)
        for name in ("solve", "cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        eigh_rows.clear()
        lam, eta = linalg.batched_top_eig(matrices, guess)
        assert eigh_rows == [6]
        np.testing.assert_array_equal(eta[:4], vecs[:4, :, -1])
        np.testing.assert_array_equal(lam[4:], vals[4:, -1])
        np.testing.assert_array_equal(eta[4:], vecs[4:, :, -1])

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_served_rows_are_within_the_certificate(self, dim, monkeypatch):
        """Soundness on Phi stacks of random ensembles: every row served without eigh is certified."""
        rng = np.random.default_rng(100 + dim)
        ens = random_ensemble(dim, 3, rng)
        chi = near(np.zeros((400, dim), dtype=complex), 1.0, rng)
        matrices = _phi_batch(ens, _signal_overlaps(ens, chi))
        vals, vecs = np.linalg.eigh(matrices)
        top, second = vecs[:, :, -1], vecs[:, :, -2]
        scales = np.repeat(10.0 ** np.arange(-8, -1), 20)[:, None]
        everywhere = np.arange(len(chi))
        guesses = {
            "exact": (everywhere, top),
            "perturbed": (np.arange(len(scales)), near(top[: len(scales)], scales, rng)),
            "second": (everywhere, second),
            "random": (everywhere, chi),
        }
        # a row that reaches eigh comes back NaN, so the served rows are the finite ones
        monkeypatch.setattr(
            linalg, "_eigh_top", lambda m: (np.full(m.shape[:-2], np.nan), np.full(m.shape[:-1], np.nan, dtype=complex))
        )
        trace = np.trace(matrices, axis1=1, axis2=2).real
        for kind, (rows, guess) in guesses.items():
            lam, eta = linalg.batched_top_eig(matrices[rows], guess)
            served = np.isfinite(lam)
            lam_max = np.linalg.eigvalsh(matrices[rows])[:, -1]
            assert np.all(lam_max[served] - lam[served] < linalg.WARM_CERTIFICATE_SHIFT * trace[rows][served]), kind
            quotient = np.einsum("ai,aij,aj->a", eta[served].conj(), matrices[rows][served], eta[served]).real
            np.testing.assert_allclose(lam[served], quotient, rtol=0, atol=1e-15)
            if kind == "exact":
                # served wherever the Wolkowicz-Styan bound nu on lambda_2, worked out from the spectrum of
                # A - lambda_max v v^dagger (0 and lambda_2..d), clears lambda_max by 1e-9 tr A
                rest = vals[:, :-1]
                mean = rest.sum(axis=1) / dim
                nu = mean + np.sqrt(np.maximum((rest**2).sum(axis=1) / dim - mean**2, 0.0) * (dim - 1))
                separated = vals[:, -1] - nu > 1e-9 * trace
                assert np.all(served[separated]) and separated.sum() > len(rows) // 2
            if kind == "second":
                assert not served.any()
                assert np.all(vals[:, -1] - vals[:, -2] > 1e-6 * trace)


class TestRandomUnitVectors:
    @staticmethod
    def loop(count, dim, rng):
        """The per-vector draws that random_unit_vectors replaces."""
        rows = []
        for _ in range(count):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rows.append(z / np.linalg.norm(z))
        return np.stack(rows)

    def test_same_bits_and_stream_as_one_vector_at_a_time(self):
        for dim in range(2, 9):
            for seed in range(50):
                batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
                a = linalg.random_unit_vectors(dim * dim, dim, batched)
                b = self.loop(dim * dim, dim, looped)
                assert np.array_equal(a, b), (dim, seed)
                assert batched.standard_normal() == looped.standard_normal()
