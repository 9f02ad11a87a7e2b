import numpy as np
import pytest

from qincompat import linalg
from qincompat.errors import DimensionMismatchError, NotHermitianError
from qincompat.linalg import herm_eig, projector, random_unit_vector
from conftest import random_hermitian


class TestHermEig:
    def test_identity(self):
        eig = herm_eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_already_diagonal(self):
        eig = herm_eig(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)
        # descending order puts +1 first
        assert eig.eigenvectors[0, 0] == pytest.approx(1.0)

    def test_reconstruction_residual(self):
        h = random_hermitian(4, np.random.default_rng(7))
        eig = herm_eig(h)
        assert np.linalg.norm(eig.reconstruct() - h) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            herm_eig(np.zeros((2, 3)))

    def test_deterministic(self):
        h = random_hermitian(5, np.random.default_rng(3))
        a, b = herm_eig(h), herm_eig(h)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 9])
    def test_invariants_on_random_inputs(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            h = random_hermitian(dim, rng)
            eig = herm_eig(h)
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-10
            assert np.linalg.norm(eig.reconstruct() - h) <= 1e-9
            assert np.all(np.diff(eig.eigenvalues) <= 0)
            for column in eig.eigenvectors.T:
                lead = column[np.argmax(np.abs(column) > 1e-12)]
                assert lead.real > 0 and abs(lead.imag) < 1e-12


class TestMaxEig:
    """The largest eigenpair: herm_eig's first eigenvalue and column."""

    def test_simple_diagonal(self):
        eig = herm_eig(np.diag([0.2, 0.8]).astype(complex))
        assert eig.eigenvalues[0] == pytest.approx(0.8)
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [0.0, 1.0], atol=1e-14)

    def test_fully_degenerate_is_deterministic(self):
        eig = herm_eig(0.5 * np.eye(2, dtype=complex))
        assert eig.eigenvalues[0] == pytest.approx(0.5)
        again = herm_eig(0.5 * np.eye(2, dtype=complex))
        assert np.array_equal(eig.eigenvectors[:, 0], again.eigenvectors[:, 0])

    def test_intercepted_state_average(self):
        # measuring |0><0| against the Z and X bases leaves the average
        # post-measurement state (1/2)(diag(1,0) + I/2) = diag(3/4, 1/4)
        rho = 0.5 * (np.diag([1.0, 0.0]) + np.eye(2) / 2)
        eig = herm_eig(rho.astype(complex))
        assert eig.eigenvalues[0] == pytest.approx(0.75, abs=1e-14)
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [1.0, 0.0], atol=1e-14)

    def test_matches_herm_eig_exactly(self, rng):
        # the see-saw's batched top eigenvalue is herm_eig's largest, bit for bit
        h = random_hermitian(6, rng)
        eigenvalues = herm_eig(h).eigenvalues
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
    """batched_top_eig with a guess: one certified Rayleigh-quotient step, eigh where it fails."""

    DIM = linalg.WARM_MIN_DIM

    @pytest.mark.parametrize("dim", [linalg.WARM_MIN_DIM, 7, 8])
    def test_perturbed_guesses_match_eigh(self, dim, eigh_rows):
        rng = np.random.default_rng(dim)
        matrices = random_psd_stack(200, dim, rng)
        vals, vecs = np.linalg.eigh(matrices)
        top_vals, top_vecs = vals[:, -1], vecs[:, :, -1]
        eigh_rows.clear()
        lam, eta = linalg.batched_top_eig(matrices, guess=near(top_vecs, 1e-4, rng))
        # most rows are served by the warm step, not by eigh
        assert sum(eigh_rows) < 20
        trace = 1.0 / dim
        assert np.all(lam <= top_vals + 1e-15)
        assert np.all(top_vals - lam < linalg.WARM_CERTIFICATE_SHIFT * trace)
        gap = vals[:, -1] - vals[:, -2]
        clear = gap > 1e-3 * trace
        assert clear.sum() > 150
        overlap = np.abs(np.sum(top_vecs.conj() * eta, axis=1))
        assert np.all(overlap[clear] >= 1.0 - 1e-12)
        # the value is the Rayleigh quotient of the returned vector
        quotient = np.einsum("ai,aij,aj->a", eta.conj(), matrices, eta).real
        np.testing.assert_allclose(lam, quotient, rtol=0, atol=1e-16)

    def test_second_eigenvector_guess_is_rejected(self):
        rng = np.random.default_rng(11)
        matrices = random_psd_stack(5, self.DIM, rng)
        vals, vecs = np.linalg.eigh(matrices)
        guess = near(vecs[:, :, -1], 1e-5, rng)
        guess[0] = vecs[0, :, -2]
        # the step converges to the second eigenpair, which the certificate refuses
        assert linalg._warm_top_eig(matrices[:1], guess[:1]) is None
        lam, eta = linalg.batched_top_eig(matrices, guess)
        assert abs(lam[0] - vals[0, -1]) < linalg.WARM_CERTIFICATE_SHIFT / self.DIM
        assert vals[0, -1] - vals[0, -2] > 1e-3
        assert abs(np.vdot(vecs[0, :, -1], eta[0])) >= 1.0 - 1e-12

    def test_exact_eigenvector_guess_does_not_raise(self):
        # an exact eigenvector makes the shifted matrix exactly singular
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
        guess = near(vecs[:, :, -1], 1e-6, rng)
        guess[4] = near(np.zeros(self.DIM, dtype=complex), 1.0, rng)  # a random direction
        eigh_rows.clear()
        lam, _ = linalg.batched_top_eig(matrices, guess)
        assert eigh_rows == [1]
        assert np.all(np.abs(lam - vals[:, -1]) < linalg.WARM_CERTIFICATE_SHIFT / self.DIM)

    def test_below_the_cut_off_runs_eigh(self, eigh_rows):
        rng = np.random.default_rng(14)
        dim = linalg.WARM_MIN_DIM - 1
        matrices = random_psd_stack(10, dim, rng)
        vals, vecs = np.linalg.eigh(matrices)
        eigh_rows.clear()
        lam, eta = linalg.batched_top_eig(matrices, guess=vecs[:, :, -1])
        assert eigh_rows == [10]
        np.testing.assert_array_equal(lam, vals[:, -1])
        np.testing.assert_array_equal(eta, vecs[:, :, -1])


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
