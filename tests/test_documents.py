import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from qincompat import InputFormatError, mub_bases
from qincompat.errors import DegenerateSpectrumError
from qincompat.documents import (
    basis_document,
    dumps,
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

    @staticmethod
    def recursive_pairs(array):
        """The per-row encoding that to_pairs replaces."""
        arr = np.asarray(array, dtype=complex)
        if arr.ndim == 1:
            return [[float(z.real), float(z.imag)] for z in arr]
        return [TestPairEncoding.recursive_pairs(row) for row in arr]

    @pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 3, 3)])
    def test_same_text_as_recursive_encoding(self, rng, shape):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.flat[0] = complex(-0.0, 0.0)
        m.flat[-1] = complex(0.0, -0.0)
        new, old = to_pairs(m), self.recursive_pairs(m)
        assert json.dumps(new, indent=2) == json.dumps(old, indent=2)
        assert all(type(x) is float for x in np.ravel(new).tolist())
        assert json.dumps(new).startswith("[" * len(shape) + "[-0.0, 0.0]")

    def test_report_text_unchanged(self):
        report = incompatibility(mub_bases(3, 2), OptimizerConfig(restarts=1, seed=0))
        doc = incompatibility_report_to_dict(report)
        states = report.best_reconstruction.states
        assert doc["best_reconstruction"]["states"] == self.recursive_pairs(states)
        assert json.dumps(doc["best_reconstruction"], indent=2) == json.dumps(
            {"states": self.recursive_pairs(states)}, indent=2
        )

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


# Floats whose text json writes in a special way, or that sit at a repr boundary.
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.booleans(), st.none(), st.text())
FLOAT_ARRAYS = npst.arrays(
    np.float64, npst.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3), elements=FLOATS
).map(np.ndarray.tolist)
JSON_VALUES = st.recursive(
    SCALARS | FLOAT_ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)


class TestDumps:
    """``dumps`` writes exactly the bytes of ``json.dumps(obj, indent=2)``."""

    @given(JSON_VALUES)
    @example([EDGE_FLOATS, [[x, -x] for x in EDGE_FLOATS]])
    @example([[np.float64(0.1), np.float64(-0.0)], [np.float64(1e300), 2.5]])
    @example([[1.0, True], [0.5, False]])
    @example([[1, 2.0], [3.5, 4]])
    @example([[1.0, 2.0], [3.0], [], [[]], {}, [{}]])
    @example({"caf\u00e9\x00\x1f\"\\\n\u2028\U0001f600": ["\x7f\ud800", ""]})
    @example((1.0, (2.0, 3.0), [4.0, 5.0]))
    def test_same_text_as_json(self, value):
        assert dumps(value) == json.dumps(value, indent=2)

    def test_non_string_keys_go_to_json(self):
        value = {1: 0.5, 2.5: [1.0, 2.0], None: {}, True: "t"}
        assert dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{"a": [np.int64(1)]}, [np.bool_(True)], {"a": object()}])
    def test_other_types_raise_as_in_json(self, value):
        with pytest.raises(TypeError) as ours:
            dumps(value)
        with pytest.raises(TypeError) as stdlib:
            json.dumps(value, indent=2)
        assert str(ours.value) == str(stdlib.value)
