import json

import numpy as np
import pytest

from qincompat import DegenerateSpectrumError, InputFormatError, mub_bases
from qincompat.documents import (
    basis_document,
    from_pairs,
    incompatibility_report_to_dict,
    load_document,
    parse_observable_set,
    to_pairs,
)
from qincompat.optimizer import OptimizerConfig, incompatibility


def observable_item(matrix, label="obs"):
    return {"type": "observable", "label": label, "matrix": to_pairs(np.asarray(matrix, dtype=complex))}


class TestPairEncoding:
    def test_round_trip_matrix(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = from_pairs(to_pairs(m), "test")
        assert np.array_equal(back, m)

    def test_round_trip_through_json(self, rng):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = from_pairs(json.loads(json.dumps(to_pairs(m))), "test")
        assert np.array_equal(back, m)

    def test_rejects_non_pairs(self):
        with pytest.raises(InputFormatError):
            from_pairs([[1.0, 2.0, 3.0]], "test")

    def test_rejects_ragged(self):
        with pytest.raises(InputFormatError):
            from_pairs([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "test")


class TestParseObservableSet:
    def test_mixed_items(self):
        doc = {
            "dim": 2,
            "items": [
                observable_item([[1, 0], [0, -1]], "Z"),
                {
                    "type": "basis",
                    "label": "X",
                    "vectors": to_pairs(np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
                },
            ],
        }
        obs = parse_observable_set(doc)
        assert obs.labels == ("Z", "X")
        assert obs.dim == 2

    def test_round_trip_basis_document(self):
        original = mub_bases(3, 4)
        recovered = parse_observable_set(basis_document(original))
        for a, b in zip(original.members, recovered.members):
            assert np.array_equal(a.vectors, b.vectors)
            assert a.label == b.label

    def test_rejects_bad_dim(self):
        with pytest.raises(InputFormatError):
            parse_observable_set({"dim": "two", "items": [observable_item([[1, 0], [0, -1]])]})

    def test_rejects_empty_items(self):
        with pytest.raises(InputFormatError):
            parse_observable_set({"dim": 2, "items": []})

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputFormatError):
            parse_observable_set({"dim": 2, "items": [observable_item([[0, 1], [0, 0]])]})

    def test_rejects_degenerate_observable(self):
        with pytest.raises(DegenerateSpectrumError):
            parse_observable_set({"dim": 2, "items": [observable_item([[1, 0], [0, 1]])]})

    def test_rejects_non_orthonormal_basis(self):
        doc = {
            "dim": 2,
            "items": [{"type": "basis", "label": "bad", "vectors": to_pairs(np.ones((2, 2)))}],
        }
        with pytest.raises(InputFormatError):
            parse_observable_set(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind,field", [("basis", "vectors"), ("observable", "matrix")])
    def test_rejects_non_finite(self, bad, kind, field):
        doc = basis_document(mub_bases(3, 2))
        if kind == "observable":
            doc["items"][1] = observable_item(np.diag([1.0, 2.0, 3.0]))
        doc["items"][1][field][0][1][0] = bad
        doc = json.loads(json.dumps(doc))  # NaN and Infinity survive the JSON round trip
        with pytest.raises(InputFormatError, match=rf"items\[1\]\.{field}: non-finite number"):
            parse_observable_set(doc)

    def test_rejects_unknown_type(self):
        with pytest.raises(InputFormatError):
            parse_observable_set({"dim": 2, "items": [{"type": "thing"}]})

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputFormatError):
            parse_observable_set({"dim": 3, "items": [observable_item([[1, 0], [0, -1]])]})


class TestLoadDocument:
    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dim": 2,\n  oops\n}\n')
        with pytest.raises(InputFormatError, match=":3:"):
            load_document(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            load_document(str(tmp_path / "absent.json"))


class TestReportSerialization:
    def test_report_dict_survives_json(self):
        report = incompatibility(mub_bases(2, 2), OptimizerConfig(restarts=2, seed=0))
        doc = incompatibility_report_to_dict(report)
        recovered = json.loads(json.dumps(doc))
        assert recovered == doc
        assert recovered["incompatibility"] == report.incompatibility
        weights = np.asarray(recovered["best_povm"]["weights"])
        assert np.array_equal(weights, report.best_povm.weights)
        directions = from_pairs(recovered["best_povm"]["directions"], "povm")
        assert np.array_equal(directions, report.best_povm.directions)
