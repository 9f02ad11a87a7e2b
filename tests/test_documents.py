import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from qincompat import InputFormatError, QincompatError, mub_bases
from qincompat.errors import ConvergenceError, DegenerateSpectrumError, NotHermitianError
from qincompat.documents import (
    basis_document,
    dumps,
    from_pairs,
    incompatibility_report_to_dict,
    load_document,
    parse_observable_set,
    to_pairs,
)
from qincompat.observables import eigenbasis_of, eigenbasis_rows
from qincompat.optimizer import OptimizerConfig, incompatibility
from conftest import random_hermitian


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

    def test_rejects_repeated_labels(self, tmp_path, capsys):
        from qincompat.cli import main

        z, x = [[1, 0], [0, -1]], [[0, 1], [1, 0]]
        explicit = {"dim": 2, "items": [observable_item(z, "a"), observable_item(x, "a")]}
        with pytest.raises(InputFormatError, match=r"^items\[1\]\.label: 'a' repeats items\[0\]\.label$"):
            parse_observable_set(explicit)
        # an item without a label reads item-<i>, which an explicit label can repeat
        unlabelled = {"type": "observable", "matrix": observable_item(x)["matrix"]}
        default = {"dim": 2, "items": [observable_item(z, "item-1"), unlabelled]}
        with pytest.raises(InputFormatError, match=r"^items\[1\]\.label: 'item-1' repeats items\[0\]\.label$"):
            parse_observable_set(default)
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(explicit))
        assert main(["measure", str(path)]) == 2
        assert capsys.readouterr().err == "error: items[1].label: 'a' repeats items[0].label\n"

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

    @pytest.mark.parametrize(
        "matrix",
        [[[s, s], [0.0, -s]] for s in (1e160, 1e200, 1e308)] + [[[1e308, 1e308], [1e308, -1e308]]],
        ids=["non-hermitian-1e160", "non-hermitian-1e200", "non-hermitian-1e308", "hermitian-1e308"],
    )
    def test_rejects_entries_whose_norm_overflows(self, matrix):
        # ||H||_F^2 overflows on each; ||H||_F overflows only on the last, and an overflowing norm would let
        # a relative Hermiticity test pass any asymmetry. The others are bounded by that test, and fail it.
        doc = basis_document(mub_bases(2, 1))
        doc["items"].append(observable_item(matrix))
        if matrix[1][0] == 0.0:
            with pytest.raises(InputFormatError, match=r"^items\[1\]\.matrix: not Hermitian within 1e-09$"):
                parse_observable_set(doc)
            with pytest.raises(NotHermitianError, match=r"deviates from Hermitian by 1\.414e\+"):
                eigenbasis_of(np.array(matrix))
            return
        with pytest.raises(InputFormatError, match=r"^items\[1\]\.matrix: entries too large"):
            parse_observable_set(doc)
        with pytest.raises(ValueError, match="overflows"):
            eigenbasis_of(np.array(matrix))

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e308])
    def test_accepts_huge_entries_whose_norm_is_finite(self, scale):
        # ||H||_F^2 overflows, ||H||_F does not: the eigenbasis is the standard one
        matrix = [[scale, 0.0], [0.0, -scale]]
        np.testing.assert_array_equal(eigenbasis_of(np.array(matrix)).vectors, np.eye(2))
        doc = basis_document(mub_bases(2, 1))
        doc["items"][0] = observable_item(matrix)
        [member] = parse_observable_set(doc).members
        np.testing.assert_array_equal(member.vectors, np.eye(2))

    @pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-300])
    def test_names_the_asymmetry_of_tiny_entries(self, scale):
        # the squares of the entries underflow; the scaled sum still sees the asymmetry, not a degenerate spectrum
        matrix = [[scale, scale], [0.0, -scale]]
        with pytest.raises(NotHermitianError, match=r"deviates from Hermitian by 1\.414e-"):
            eigenbasis_of(np.array(matrix))
        doc = basis_document(mub_bases(2, 1))
        doc["items"].append(observable_item(matrix))
        with pytest.raises(InputFormatError, match=r"^items\[1\]\.matrix: not Hermitian within 1e-09$"):
            parse_observable_set(doc)

    @pytest.mark.parametrize("scale", [1e80, 1e160, 1e308])
    def test_rejects_huge_basis_vectors(self, scale):
        doc = {"dim": 2, "items": [{"type": "basis", "label": "huge", "vectors": to_pairs(scale * np.eye(2))}]}
        with pytest.raises(InputFormatError, match=r"^items\[0\]\.vectors: basis 'huge' is not orthonormal"):
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


def reference_fix_phases(rows):
    """Per-matrix phase fix of the per-item parser: leading amplitude above 1e-12 made real positive."""
    lead = np.argmax(np.abs(rows) > 1e-12, axis=1)
    pivot = rows[np.arange(rows.shape[0]), lead]
    mag = np.abs(pivot)
    scale = np.where(mag > 0, np.conj(pivot) / np.where(mag > 0, mag, 1.0), 1.0)
    return rows * scale[:, None]


def reference_basis_check(v, tol, label):
    overlaps = np.abs(v.conj() @ v.T) ** 2
    if not np.max(np.abs(overlaps - np.eye(v.shape[0]))) <= tol:
        raise ValueError(f"basis {label!r} is not orthonormal within {tol:g}")
    if not np.linalg.norm(v.T @ v.conj() - np.eye(v.shape[0])) <= tol:
        raise ValueError(f"basis {label!r} does not resolve the identity within {tol:g}")


def reference_eigenbasis(m, degeneracy_tol, label):
    """The per-matrix eigenbasis_of that the batched pass replaced: one eigh and its checks."""
    hermitian = (m + m.conj().T) / 2
    vals, vecs = np.linalg.eigh(hermitian)
    order = np.argsort(-vals, kind="stable")
    vals = np.ascontiguousarray(vals[order])
    vecs = np.ascontiguousarray(reference_fix_phases(vecs[:, order].T).T)
    if np.linalg.norm(vecs.conj().T @ vecs - np.eye(m.shape[0])) > 1e-10:
        raise ConvergenceError("eigenvectors lost orthonormality")
    if np.linalg.norm((vecs * vals) @ vecs.conj().T - hermitian) > 1e-9 * max(1.0, np.linalg.norm(m)):
        raise ConvergenceError("eigendecomposition does not reproduce the input")
    gaps = -np.diff(vals)
    if gaps.size and float(np.min(gaps)) < degeneracy_tol:
        raise DegenerateSpectrumError(
            f"observable {label!r} has eigenvalue gap {float(np.min(gaps)):.3e} < {degeneracy_tol:g}"
        )
    rows = np.array(vecs.T.copy(), dtype=complex)
    reference_basis_check(rows, 1e-10, label)
    return rows


def reference_parse(doc, degeneracy_tol=1e-8):
    """The per-item parser that the batched pass replaced: [(label, rows)] per item, or its error."""
    dim, items = doc["dim"], doc["items"]
    parsed = []
    for idx, item in enumerate(items):
        where = f"items[{idx}]"
        if not isinstance(item, dict):
            raise InputFormatError(f"{where}: must be an object")
        kind = item.get("type")
        label = str(item.get("label", f"item-{idx}"))
        if kind == "observable":
            matrix = from_pairs(item.get("matrix"), f"{where}.matrix")
            if matrix.shape != (dim, dim):
                raise InputFormatError(f"{where}.matrix: expected shape ({dim}, {dim}), got {matrix.shape}")
            if not np.linalg.norm(matrix - matrix.conj().T) <= 1e-9 * np.linalg.norm(matrix):
                raise InputFormatError(f"{where}.matrix: not Hermitian within 1e-09")
            parsed.append((label, reference_eigenbasis(matrix, degeneracy_tol, label)))
        elif kind == "basis":
            vectors = from_pairs(item.get("vectors"), f"{where}.vectors")
            if vectors.shape != (dim, dim):
                raise InputFormatError(f"{where}.vectors: expected shape ({dim}, {dim}), got {vectors.shape}")
            try:
                reference_basis_check(vectors, 1e-9, label)
            except ValueError as exc:
                raise InputFormatError(f"{where}.vectors: {exc}") from exc
            parsed.append((label, np.array(vectors, dtype=complex)))
        else:
            raise InputFormatError(f"{where}: unknown item type {kind!r}")
    return parsed


def outcome(parse, doc):
    """What a parser makes of a document: its error's type and text, or each member's label and bytes."""
    try:
        result = parse(doc)
    except QincompatError as exc:
        return type(exc), str(exc)
    except ValueError as exc:
        return ValueError, str(exc)
    members = result if isinstance(result, list) else [(b.label, b.vectors) for b in result.members]
    return [(label, rows.shape, rows.tobytes()) for label, rows in members]


def random_items(dim, count, rng):
    """Observable and basis items of random nondegenerate Hermitian matrices and their eigenbases."""
    items = []
    for i in range(count):
        h = random_hermitian(dim, rng)
        if rng.random() < 0.6:
            items.append(observable_item(h, f"o{i}"))
        else:
            vectors = np.linalg.eigh(h)[1].T
            items.append({"type": "basis", "label": f"b{i}", "vectors": to_pairs(vectors)})
    return items


def corrupt(item, kind, dim, rng):
    """One item broken in the way ``kind`` names."""
    field = "matrix" if item["type"] == "observable" else "vectors"
    if kind == "not-object":
        return [item]
    if kind == "unknown-type":
        return {**item, "type": "thing"}
    if kind == "missing-field":
        return {"type": item["type"], "label": item["label"]}
    if kind == "non-pair":
        return {**item, field: [[[1.0, 0.0, 0.0]] * dim] * dim}
    if kind == "ragged":
        return {**item, field: item[field][:-1] + [item[field][-1][:-1]]}
    if kind == "wrong-shape":
        return {**item, field: to_pairs(np.eye(dim + 1))}
    if kind == "non-finite":
        broken = json.loads(json.dumps(item))
        i, j, part = rng.integers(dim), rng.integers(dim), rng.integers(2)
        broken[field][i][j][part] = float(rng.choice([math.nan, math.inf]))
        return broken
    if kind == "non-hermitian":
        return observable_item(np.triu(np.ones((dim, dim))), item["label"])
    if kind == "degenerate":
        return observable_item(np.diag([1.0] * 2 + list(range(2, dim))), item["label"])
    if kind == "non-orthonormal":
        return {"type": "basis", "label": item["label"], "vectors": to_pairs(np.ones((dim, dim)))}
    if kind == "incomplete":
        skew = np.eye(dim, dtype=complex)
        skew[1, 0] = 1e-5
        skew[1, 1] = np.sqrt(1.0 - 1e-10)
        return {"type": "basis", "label": item["label"], "vectors": to_pairs(skew)}
    raise ValueError(kind)


CORRUPTIONS = [
    "not-object", "unknown-type", "missing-field", "non-pair", "ragged", "wrong-shape",
    "non-finite", "non-hermitian", "degenerate", "non-orthonormal", "incomplete",
]


class TestBatchedParseMatchesPerItemParser:
    """parse_observable_set against the per-item parser it replaced: same bits, same first error."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_same_eigenbasis_bits(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(10):
            doc = {"dim": dim, "items": random_items(dim, int(rng.integers(1, 7)), rng)}
            expected = outcome(reference_parse, doc)
            assert isinstance(expected, list)
            assert outcome(parse_observable_set, doc) == expected

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_eigenbasis_of_is_a_row_of_the_batch(self, dim):
        rng = np.random.default_rng(200 + dim)
        stack = np.stack([random_hermitian(dim, rng) for _ in range(6)])
        rows, failures = eigenbasis_rows(stack, [""] * len(stack))
        assert failures == {}
        for i, matrix in enumerate(stack):
            one = eigenbasis_of(matrix)
            assert one.vectors.tobytes() == rows[i].tobytes()
            assert one.vectors.tobytes() == reference_eigenbasis(matrix, 1e-8, "").tobytes()

    def test_same_first_error_on_corrupted_documents(self):
        rng = np.random.default_rng(300)
        kinds_seen = set()
        for _ in range(400):
            dim = int(rng.integers(2, 6))
            items = random_items(dim, int(rng.integers(1, 6)), rng)
            for at in rng.choice(len(items), size=int(rng.integers(1, min(2, len(items)) + 1)), replace=False):
                kind = str(rng.choice(CORRUPTIONS))
                items[at] = corrupt(items[at], kind, dim, rng)
                kinds_seen.add(kind)
            doc = {"dim": dim, "items": items}
            assert outcome(parse_observable_set, doc) == outcome(reference_parse, doc)
        assert kinds_seen == set(CORRUPTIONS)
