import numpy as np
import pytest

from qincompat import (
    Eigenbasis,
    ObservableSet,
    OptimizerConfig,
    Verdict,
    entropic_failure_demo,
    entropic_report,
    mub_bases,
    shared_eigenvector_pair,
)
from qincompat.entropic import maassen_uffink_bound, measurement_entropy
from qincompat.errors import DimensionMismatchError
from qincompat.linalg import projector
from qincompat.observables import commutes, signal_ensemble
from conftest import qubit_fidelity_optimum, random_basis, random_density

FAST = OptimizerConfig(restarts=4, seed=0)

Z = mub_bases(2, 3).members[0]
X = mub_bases(2, 3).members[1]


class TestMeasurementEntropy:
    def test_eigenstate_has_zero_entropy(self):
        assert measurement_entropy(np.diag([1.0, 0.0]).astype(complex), Z) == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_maximally_mixed_is_log_d(self, dim):
        basis = mub_bases(dim, 1).members[0]
        rho = np.eye(dim, dtype=complex) / dim
        assert measurement_entropy(rho, basis) == pytest.approx(np.log2(dim), abs=1e-12)

    def test_unbiased_state_is_one_bit(self):
        assert measurement_entropy(np.diag([1.0, 0.0]).astype(complex), X) == pytest.approx(1.0)

    def test_entropy_is_nonnegative(self, rng):
        for _ in range(20):
            rho = random_density(3, rng)
            assert measurement_entropy(rho, random_basis(3, rng)) >= -1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            measurement_entropy(np.eye(3, dtype=complex) / 3, Z)


class TestMaassenUffinkBound:
    def test_unbiased_qubit_pair(self):
        c, bound = maassen_uffink_bound(Z, X)
        assert c == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert bound == pytest.approx(0.5, abs=1e-12)

    def test_basis_against_itself(self):
        c, bound = maassen_uffink_bound(Z, Z)
        assert c == 1.0
        assert bound == 0.0

    def test_shared_eigenvector_pair_is_vacuous(self):
        a, b = shared_eigenvector_pair(3)
        c, bound = maassen_uffink_bound(a, b)
        assert c == 1.0
        assert bound == 0.0
        assert not commutes(a, b).commutes

    def test_sampled_entropy_sums_respect_bound(self, rng):
        pairs = [(Z, X), shared_eigenvector_pair(3), (random_basis(3, rng, "a"), random_basis(3, rng, "b"))]
        for a, b in pairs:
            _, bound = maassen_uffink_bound(a, b)
            for _ in range(100):
                rho = random_density(a.dim, rng)
                half_sum = 0.5 * (measurement_entropy(rho, a) + measurement_entropy(rho, b))
                assert half_sum >= bound - 1e-9

    def test_vacuous_iff_shared_eigenvector(self, rng):
        for a, b, shares in [
            (Z, X, False),
            shared_eigenvector_pair(3) + (True,),
            shared_eigenvector_pair(4) + (True,),
            (random_basis(3, rng, "a"), random_basis(3, rng, "b"), False),
        ]:
            c, bound = maassen_uffink_bound(a, b)
            overlaps = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
            assert (bound <= 1e-9) == shares
            assert (c >= 1.0 - 1e-9) == shares
            assert bool(np.any(overlaps >= 1.0 - 1e-9)) == shares


class TestEntropicReport:
    def test_informative_pair(self):
        report = entropic_report(Z, X, FAST)
        assert report.verdict is Verdict.BOUND_INFORMATIVE
        assert report.entropy_bound == pytest.approx(0.5, abs=1e-12)
        assert report.incompatibility == pytest.approx(0.25, abs=1e-6)
        # witness is an eigenstate of the second basis
        assert report.entropy_sum_at_witness == pytest.approx(1.0, abs=1e-12)

    def test_commuting_pair(self):
        z2 = Eigenbasis(np.eye(2, dtype=complex)[::-1].copy(), label="Z2")
        report = entropic_report(Z, z2, FAST)
        assert report.verdict is Verdict.COMMUTING
        assert abs(report.incompatibility) <= 1e-8
        assert report.entropy_bound == 0.0

    def test_shared_eigenvector_pair(self):
        a, b = shared_eigenvector_pair(3)
        report = entropic_report(a, b, FAST)
        assert report.verdict is Verdict.BOUND_VACUOUS_BUT_INCOMPATIBLE
        assert report.entropy_bound == 0.0
        assert report.incompatibility > 1e-3

    def test_witness_state_consistency(self):
        report = entropic_report(Z, X, FAST)
        w = report.witness_state
        rho = projector(w)
        total = measurement_entropy(rho, Z) + measurement_entropy(rho, X)
        assert total == pytest.approx(report.entropy_sum_at_witness, abs=1e-12)


class TestFailureDemo:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_demonstrates_vacuous_but_incompatible(self, dim):
        report = entropic_failure_demo(dim, FAST)
        assert report.entropy_bound <= 1e-12
        assert report.entropy_sum_at_witness <= 1e-12
        assert report.incompatibility >= 1e-3
        assert report.verdict is Verdict.BOUND_VACUOUS_BUT_INCOMPATIBLE
        # exact optimum for this construction
        assert report.incompatibility == pytest.approx((dim - 2.0) / (2.0 * dim), abs=1e-6)

    def test_qubit_subspace_oracle_reconstructs_the_value(self):
        # the pair acts as a perfect channel on the shared axis plus an
        # unbiased qubit pair on span{e_1, e_2}; stitching the exact qubit
        # optimum of that sub-ensemble into the block structure must land
        # on the demo's fidelity
        a, b = shared_eigenvector_pair(3)
        sub_a = Eigenbasis(a.vectors[1:, 1:].copy(), label="sub-comp")
        sub_b = Eigenbasis(b.vectors[1:, 1:].copy(), label="sub-fourier")
        sub_optimum = qubit_fidelity_optimum(signal_ensemble(ObservableSet((sub_a, sub_b))))
        stitched = (2.0 * 1.0 + 4.0 * sub_optimum) / 6.0
        report = entropic_failure_demo(3, FAST)
        assert abs(1.0 - report.incompatibility - stitched) <= 1e-9

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            entropic_failure_demo(2, FAST)

    def test_pair_construction(self):
        a, b = shared_eigenvector_pair(4)
        report = commutes(a, b)
        assert not report.commutes
        assert report.common_eigenvector_count == 1
