import csv
import io
import json

import numpy as np
import pytest

from qincompat import documents, optimizer, verify
from qincompat.cli import main
from qincompat.documents import basis_document, to_pairs
from qincompat.entropic import shared_eigenvector_pair
from qincompat.errors import BoundViolationError
from qincompat.observables import Eigenbasis, ObservableSet, mub_bases
from conftest import random_basis


def write_zx(tmp_path):
    path = tmp_path / "zx.json"
    path.write_text(json.dumps(basis_document(mub_bases(2, 2))))
    return str(path)


def write_set(tmp_path, name, obs):
    path = tmp_path / name
    path.write_text(json.dumps(basis_document(obs)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_reports_incompatibility(self, tmp_path, capsys):
        code, out, _ = run(capsys, "measure", write_zx(tmp_path), "--restarts", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["incompatibility"] == pytest.approx(0.25, abs=1e-6)
        assert doc["command"] == "measure"
        assert doc["config"]["seed"] == 0
        assert doc["minimal_subset_labels"] == ["mub-0", "mub-1"]

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "measure", write_zx(tmp_path), "--restarts", "2", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["incompatibility"] == pytest.approx(0.25, abs=1e-6)

    def test_csv_format(self, tmp_path, capsys):
        code, out, _ = run(capsys, "measure", write_zx(tmp_path), "--restarts", "2", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["incompatibility"]) == pytest.approx(0.25, abs=1e-6)
        # csv keeps scalars only
        assert "best_povm.weights" not in fields

    def test_csv_quotes_a_value_that_holds_a_comma(self, tmp_path, capsys):
        source = write_zx(tmp_path)
        path = tmp_path / "a,b.json"
        path.write_text(open(source, encoding="utf-8").read())
        code, out, _ = run(capsys, "measure", str(path), "--restarts", "2", "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row)
        assert dict(zip(header, row))["input"] == str(path)

    def test_emitted_floats_parse_back_exactly(self, tmp_path, capsys):
        _, out, _ = run(capsys, "measure", write_zx(tmp_path), "--restarts", "2")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_flags_reach_the_optimizer(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "measure", write_zx(tmp_path),
            "--seed", "3", "--restarts", "2", "--outcomes", "3",
            "--tol", "1e-9", "--max-iters", "50",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {
            "seed": 3,
            "restarts": 2,
            "outcomes": 3,
            "max_iters": 50,
            "convergence_eps": 1e-9,
            "weight_prune_eps": 1e-12,
        }
        # 2 projective starts + 2 random restarts
        assert len(doc["restart_trace"]) == 4
        assert len(doc["start_sweeps"]) == 4
        assert sum(doc["start_sweeps"]) == doc["iterations_used"]

    def test_capped_starts_are_noted_on_stderr(self, tmp_path, capsys):
        path = write_set(tmp_path, "mub32.json", mub_bases(3, 2))
        code, out, err = run(capsys, "measure", path, "--restarts", "2", "--max-iters", "3")
        assert code == 0
        sweeps = json.loads(out)["start_sweeps"]
        capped = sum(n == 3 for n in sweeps)
        assert capped >= 1
        assert err == f"note: {capped} of 4 see-saw starts stopped at --max-iters 3 before converging\n"
        _, _, err = run(capsys, "measure", path, "--restarts", "2")
        assert err == ""

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, _, err = run(capsys, "measure", str(path))
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: not UTF-8 text (")

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, tmp_path, capsys, tol):
        code, out, err = run(capsys, "measure", write_zx(tmp_path), "--tol", tol, "--max-iters", "50")
        assert code == 2
        assert out == ""
        assert err == f"error: convergence_eps must be positive and finite, got {tol}\n"

    def test_too_few_outcomes_exits_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "measure", write_zx(tmp_path), "--outcomes", "1")
        assert code == 2
        assert out == ""
        assert err == "error: outcomes 1 is too small: completeness needs at least d = 2\n"

    def test_non_hermitian_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {
            "dim": 2,
            "items": [
                {"type": "observable", "label": "bad", "matrix": to_pairs(np.array([[0, 1], [0, 0]]))}
            ],
        }
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "measure", str(path))
        assert code == 2
        assert "Hermitian" in err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_amplitude_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "nan.json"
        text = json.dumps(basis_document(mub_bases(3, 2)))
        path.write_text(text.replace("0.0]", f"{bad}]", 1))
        code, out, err = run(capsys, "measure", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: items[0].vectors: non-finite number\n"

    @pytest.mark.parametrize("scale", [1e160, 1e308])
    def test_huge_observable_exits_2(self, tmp_path, capsys, scale):
        path = tmp_path / "huge.json"
        doc = basis_document(mub_bases(2, 1))
        doc["items"].append({"type": "observable", "matrix": to_pairs(np.array([[scale, scale], [0.0, -scale]]))})
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measure", str(path))
        assert (code, out) == (2, "")
        # ||H||_F is finite, so the relative Hermiticity test bounds the asymmetry and rejects it
        assert err == "error: items[1].matrix: not Hermitian within 1e-09\n"

    def test_commuting_input_reports_zero(self, tmp_path, capsys):
        z = Eigenbasis(np.eye(2, dtype=complex), label="Z")
        z2 = Eigenbasis(np.eye(2, dtype=complex)[::-1].copy(), label="Z-sw")
        path = write_set(tmp_path, "commuting.json", ObservableSet((z, z2)))
        code, out, _ = run(capsys, "measure", path, "--restarts", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["incompatibility"]) <= 1e-8
        assert doc["n_observables"] == 1

    def test_bound_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        import qincompat.cli as cli_module

        def explode(*_args, **_kwargs):
            raise BoundViolationError("synthetic certificate failure")

        monkeypatch.setattr(cli_module, "incompatibility", explode)
        code, _, err = run(capsys, "measure", write_zx(tmp_path))
        assert code == 3
        assert "synthetic" in err


class TestOutPath:
    """An --out that cannot be written exits 2, naming the flag, before any work and without touching the path."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        import qincompat.cli as cli_module

        def fail(*_args, **_kwargs):
            raise AssertionError("the search ran although --out cannot be written")

        monkeypatch.setattr(cli_module, "incompatibility", fail)
        monkeypatch.setattr(cli_module, "mub_bases", fail)

    @pytest.mark.parametrize(
        "target, message",
        [
            ("nodir/x.json", "--out {tmp}/nodir/x.json: no directory {tmp}/nodir"),
            (".", "--out {tmp}/. is a directory"),
            ("", "--out {tmp}/ is a directory"),
        ],
    )
    def test_measure(self, tmp_path, capsys, no_search, target, message):
        before = sorted(p.name for p in tmp_path.iterdir())
        code, out, err = run(capsys, "measure", write_zx(tmp_path), "--out", f"{tmp_path}/{target}")
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(tmp=tmp_path)}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before + ["zx.json"]

    def test_relative_path_in_a_missing_directory(self, tmp_path, capsys, monkeypatch, no_search):
        document = write_zx(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "measure", document, "--out", "nodir/x.json")
        assert code == 2
        assert err == "error: --out nodir/x.json: no directory nodir\n"

    def test_mub(self, tmp_path, capsys, no_search):
        code, _, err = run(capsys, "mub", "3", "2", "--out", str(tmp_path / "nodir" / "m.json"))
        assert code == 2
        assert err.startswith("error: --out ") and "no directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_a_writable_path_is_neither_created_nor_truncated_by_the_check(self, tmp_path, capsys, no_search):
        # the search fails, so the command writes nothing: whatever is at --out is as the check left it
        fresh, existing = tmp_path / "fresh.json", tmp_path / "existing.json"
        existing.write_text("kept")
        for target in (fresh, existing):
            with pytest.raises(AssertionError, match="the search ran"):
                main(["measure", write_zx(tmp_path), "--out", str(target)])
        assert not fresh.exists()
        assert existing.read_text() == "kept"


class TestSizeCaps:
    """A search too large for the see-saw's byte budget exits 2 before anything is allocated."""

    @pytest.mark.parametrize(
        "flags,field",
        [
            (("--restarts", "100000000"), "restarts 100000000"),
            (("--restarts", "1", "--outcomes", "1000000000"), "outcomes 1000000000"),
        ],
    )
    def test_flag_too_large(self, tmp_path, capsys, monkeypatch, flags, field):
        from qincompat import optimizer

        path = write_zx(tmp_path)
        optimizer._held_starts.cache_clear()
        for warm in (False, True):
            if warm:  # a search of the same d that fits holds its starts first
                assert run(capsys, "measure", path, "--restarts", "1")[0] == 0
            held = optimizer._held_starts.cache_info()
            with monkeypatch.context() as patch:
                patch.setattr(optimizer, "random_povm", None)
                code, out, err = run(capsys, "measure", path, *flags)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {field} is too large: the see-saw would hold ")
            # the refused search neither looked up nor left an entry
            assert optimizer._held_starts.cache_info() == held
        assert held.currsize == 1

    def test_document_dim_too_large_is_rejected_before_its_items(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(documents, "_item_arrays", None)
        # the one item does not even have the stated shape: the size is judged first
        code, out, err = measure_error(tmp_path, capsys, [Z_ITEM], dim=4096)
        assert code == 2
        assert err.startswith("error: dim 4096 is too large: the see-saw would hold 2 x 16777216 x 4096 x 4096 ")

    def test_entropic_checks_the_size_too(self, tmp_path, capsys):
        code, _, err = run(capsys, "entropic", write_zx(tmp_path), "--restarts", "100000000")
        assert code == 2
        assert "restarts 100000000 is too large" in err


def measure_error(tmp_path, capsys, items, dim=2):
    """Exit code, stdout and stderr of ``measure`` on a document of these items."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": dim, "items": items}))
    return run(capsys, "measure", str(path), "--restarts", "1")


def observable(matrix, label="obs"):
    return {"type": "observable", "label": label, "matrix": to_pairs(np.asarray(matrix, dtype=complex))}


def basis(vectors, label="basis"):
    return {"type": "basis", "label": label, "vectors": to_pairs(np.asarray(vectors, dtype=complex))}


Z_ITEM = observable(np.diag([1.0, -1.0]), "Z")
X_ITEM = basis(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), "X")
FLAT = np.diag([1.0, 1.0 + 2.0**-30])  # eigenvalue gap 9.313e-10
NEARLY_ORTHOGONAL = np.array([[1.0, 0.0], [1e-5, np.sqrt(1.0 - 1e-10)]])


class TestMeasureErrors:
    """The first failing item, in document order, names the error: exact stderr line, exit 2."""

    @pytest.mark.parametrize(
        "bad, line",
        [
            (5, "items[1]: must be an object"),
            ({"type": "thing", "label": "t"}, "items[1]: unknown item type 'thing'"),
            (
                {"type": "observable", "label": "t", "matrix": [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]},
                "items[1].matrix: complex entries must be [re, im] pairs",
            ),
            (observable(np.eye(3), "big"), "items[1].matrix: expected shape (2, 2), got (3, 3)"),
            (basis(np.eye(3), "big"), "items[1].vectors: expected shape (2, 2), got (3, 3)"),
            (observable([[0.0, 1.0], [0.0, 0.0]], "up"), "items[1].matrix: not Hermitian within 1e-09"),
            (observable(FLAT, "flat"), "observable 'flat' has eigenvalue gap 9.313e-10 < 1e-08"),
            (basis(np.ones((2, 2)), "bad"), "items[1].vectors: basis 'bad' is not orthonormal within 1e-09"),
            (
                basis(NEARLY_ORTHOGONAL, "skew"),
                "items[1].vectors: basis 'skew' does not resolve the identity within 1e-09",
            ),
        ],
    )
    def test_failure_kinds(self, tmp_path, capsys, bad, line):
        code, out, err = measure_error(tmp_path, capsys, [Z_ITEM, bad, X_ITEM])
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        text = json.dumps({"dim": 2, "items": [X_ITEM, Z_ITEM]})
        path.write_text(text.replace("-1.0", "-1" + "0" * 400, 1))
        code, out, err = run(capsys, "measure", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: items[1].matrix: malformed complex array (")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("item", [Z_ITEM, X_ITEM])
    def test_non_finite(self, tmp_path, capsys, bad, item):
        item = json.loads(json.dumps(item))
        field = "matrix" if item["type"] == "observable" else "vectors"
        item[field][1][1][1] = bad
        code, out, err = measure_error(tmp_path, capsys, [X_ITEM, item])
        assert (code, out, err) == (2, "", f"error: items[1].{field}: non-finite number\n")

    @pytest.mark.parametrize(
        "first, later, line",
        [
            (
                observable([[0.0, 1.0], [0.0, 0.0]], "up"),
                {"type": "thing"},
                "items[1].matrix: not Hermitian within 1e-09",
            ),
            (basis(np.ones((2, 2)), "bad"), 7, "items[1].vectors: basis 'bad' is not orthonormal within 1e-09"),
            (
                observable(FLAT, "flat"),
                observable(np.eye(3)),
                "observable 'flat' has eigenvalue gap 9.313e-10 < 1e-08",
            ),
        ],
    )
    def test_numeric_failure_in_item_1_beats_structural_in_item_3(self, tmp_path, capsys, first, later, line):
        code, out, err = measure_error(tmp_path, capsys, [Z_ITEM, first, X_ITEM, later])
        assert (code, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "first, later, line",
        [
            ({"type": "thing"}, observable([[0.0, 1.0], [0.0, 0.0]]), "items[1]: unknown item type 'thing'"),
            (7, basis(np.ones((2, 2))), "items[1]: must be an object"),
            (observable(np.eye(3)), observable(np.eye(2)), "items[1].matrix: expected shape (2, 2), got (3, 3)"),
            (
                {"type": "basis", "label": "b", "vectors": [[1.0, 0.0]]},
                basis(NEARLY_ORTHOGONAL),
                "items[1].vectors: expected shape (2, 2), got (1,)",
            ),
        ],
    )
    def test_structural_failure_in_item_1_beats_numeric_in_item_3(self, tmp_path, capsys, first, later, line):
        code, out, err = measure_error(tmp_path, capsys, [Z_ITEM, first, X_ITEM, later])
        assert (code, out, err) == (2, "", f"error: {line}\n")


class TestMubCommand:
    def test_writes_unbiased_bases(self, tmp_path, capsys):
        target = tmp_path / "bases.json"
        code, out, _ = run(capsys, "mub", "3", "4", "--out", str(target))
        assert code == 0
        summary = json.loads(out)
        assert summary["unbiased"] is True
        written = json.loads(target.read_text())
        assert written["dim"] == 3
        assert len(written["items"]) == 4

    def test_prime_check_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "mub", "4", "2", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize("dim, n_bases", [(2, 3), (3, 4), (5, 2), (7, 8)])
    def test_file_is_the_json_text_of_the_basis_document(self, tmp_path, capsys, dim, n_bases):
        target = tmp_path / "bases.json"
        code, _, _ = run(capsys, "mub", str(dim), str(n_bases), "--out", str(target))
        assert code == 0
        expected = json.dumps(basis_document(mub_bases(dim, n_bases)), indent=2) + "\n"
        assert target.read_bytes() == expected.encode("ascii")

    def test_too_many_bases_exits_2(self, tmp_path, capsys):
        code, _, _ = run(capsys, "mub", "3", "5", "--out", str(tmp_path / "x.json"))
        assert code == 2


class TestBoundsCommand:
    def test_crossover_case(self, capsys):
        code, out, _ = run(capsys, "bounds", "3", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["q_upper_small_n"] == pytest.approx(1.0 / 3.0)
        assert doc["q_upper_large_n"] == pytest.approx(1.0 / 3.0)

    def test_pair_in_dim_three(self, capsys):
        _, out, _ = run(capsys, "bounds", "2", "3")
        doc = json.loads(out)
        assert doc["q_upper_small_n"] == pytest.approx(1.0 / 3.0)
        assert doc["q_upper_large_n"] == pytest.approx(0.5)

    def test_single_observable(self, capsys):
        _, out, _ = run(capsys, "bounds", "1", "4")
        assert json.loads(out)["q_upper_small_n"] == 0.0


class TestEntropicCommand:
    def test_informative_pair(self, tmp_path, capsys):
        code, out, _ = run(capsys, "entropic", write_zx(tmp_path), "--restarts", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "BOUND_INFORMATIVE"
        assert doc["entropy_bound"] == pytest.approx(0.5, abs=1e-12)

    def test_item_count_enforced(self, tmp_path, capsys):
        path = tmp_path / "three.json"
        path.write_text(json.dumps(basis_document(mub_bases(2, 3))))
        code, _, err = run(capsys, "entropic", str(path))
        assert code == 2
        assert "exactly two" in err

    def test_shared_eigenvector_pair_is_vacuous(self, tmp_path, capsys):
        path = write_set(tmp_path, "shared.json", ObservableSet(shared_eigenvector_pair(3)))
        code, out, _ = run(capsys, "entropic", path, "--restarts", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "BOUND_VACUOUS_BUT_INCOMPATIBLE"
        assert doc["entropy_bound"] == 0.0
        assert doc["incompatibility"] >= 1e-3

    def test_commuting_pair_verdict(self, tmp_path, capsys):
        z = Eigenbasis(np.eye(2, dtype=complex), label="Z")
        z2 = Eigenbasis(np.eye(2, dtype=complex)[::-1].copy(), label="Z-sw")
        path = write_set(tmp_path, "comm.json", ObservableSet((z, z2)))
        code, out, _ = run(capsys, "entropic", path, "--restarts", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "COMMUTING"


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys):
        code, out, err = run(
            capsys,
            "verify",
            "--suite", "map-contracts",
            "--suite", "fidelity-consistency",
            "--samples", "20",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert {s["name"] for s in doc["suites"]} == {"map-contracts", "fidelity-consistency"}
        assert "pass map-contracts" in err

    def test_all_suites_run_and_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["suites"]) == 4

    def test_bound_certificates_sample_a_certified_complete_set(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bound-certificates", "--samples", "2")
        assert code == 0
        [suite] = json.loads(out)["suites"]
        assert (suite["checks"], suite["failures"]) == (3, 0)

    def test_bound_certificates_count_an_uncertified_complete_set(self, monkeypatch):
        monkeypatch.setattr(optimizer, "GAP_TOL", -1.0)  # no search can be certified
        result = verify.bound_certificate_suite(samples=2)
        assert (result.checks, result.failures) == (3, 1)
        assert result.detail.startswith("complete unbiased set in d=")

    @pytest.mark.parametrize("raised", [True, False])
    def test_bound_certificates_count_a_fidelity_above_the_cap(self, monkeypatch, raised):
        monkeypatch.setattr(optimizer, "spectral_cap", lambda ens: 0.25)
        if not raised:  # the suite's own check, should incompatibility() let the report through
            monkeypatch.setattr(optimizer, "BOUND_SLACK", 1.0)
        result = verify.bound_certificate_suite(samples=2)
        assert (result.checks, result.failures) == (3, 3)
        assert "above spectral cap 0.25" in result.detail
        assert ("(seed 0, start" in result.detail) == raised

    def test_seed_is_echoed(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "map-contracts", "--samples", "5", "--seed", "9")
        assert json.loads(out)["seed"] == 9

    @pytest.mark.parametrize("samples, suite", [("-3", "fidelity-consistency"), ("0", "collision-sum")])
    def test_samples_below_one_exit_2(self, capsys, samples, suite):
        code, out, err = run(capsys, "verify", "--samples", samples, "--suite", suite)
        assert (code, out, err) == (2, "", f"error: --samples must be at least 1, got {samples}\n")

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "nope"])


class TestDeterminism:
    def test_identical_runs_match_modulo_walltime(self, tmp_path, capsys):
        path = write_zx(tmp_path)
        docs = []
        for _ in range(2):
            code, out, _ = run(capsys, "measure", path, "--restarts", "3", "--seed", "7")
            assert code == 0
            doc = json.loads(out)
            doc.pop("wall_time_s")
            docs.append(doc)
        assert docs[0] == docs[1]


class TestReportBytes:
    """Each JSON report is the text of ``json.dumps(report, indent=2)``, byte for byte."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        docs = []
        encode = documents.dumps

        def capture(obj):
            docs.append(obj)
            return encode(obj)

        monkeypatch.setattr(documents, "dumps", capture)
        return docs

    @staticmethod
    def json_text(doc):
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize(
        "dim, n_bases, seed, outcomes",
        [
            (3, 2, 0, 3),  # a projective start is best: d outcomes
            (5, 2, 0, 5),
            (7, 2, 0, 7),
            (3, 4, 2, 3),  # complete sets meet the spectral cap at sweep 1: the first projective start
            (5, 6, 0, 5),
            (7, 8, 0, 7),
        ],
    )
    def test_measure_on_unbiased_sets(self, tmp_path, capsys, emitted, dim, n_bases, seed, outcomes):
        path = write_set(tmp_path, "mub.json", mub_bases(dim, n_bases))
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "measure", path, "--restarts", "2", "--seed", str(seed), "--out", str(target)
        )
        assert code == 0
        [doc] = emitted
        assert len(doc["best_povm"]["weights"]) == outcomes
        complete = n_bases == dim + 1
        assert doc["search_status"] == ("certified-within-gap" if complete else "best-found-lower-bound")
        assert target.read_bytes() == self.json_text(doc).encode("ascii")

    def test_measure_where_a_random_start_wins(self, tmp_path, capsys, emitted):
        # a random start beats both projective ones by far more than TIE_TOL: its 9 outcomes merge to 4
        rng = np.random.default_rng(1)
        obs = ObservableSet(tuple(random_basis(3, rng, f"r{i}") for i in range(2)))
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "measure", write_set(tmp_path, "r3.json", obs), "--restarts", "2", "--out", str(target)
        )
        assert code == 0
        [doc] = emitted
        trace = doc["restart_trace"]
        assert max(trace[2:]) - max(trace[:2]) > 1e-6
        assert len(doc["best_povm"]["weights"]) == 4
        assert target.read_bytes() == self.json_text(doc).encode("ascii")

    def test_measure_on_random_set(self, tmp_path, capsys, emitted, rng):
        obs = ObservableSet(tuple(random_basis(4, rng, f"r{i}") for i in range(2)))
        code, out, _ = run(capsys, "measure", write_set(tmp_path, "r4.json", obs), "--restarts", "2")
        assert code == 0
        [doc] = emitted
        assert out == self.json_text(doc)

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "3", "2"),
            ("entropic", "SHARED", "--restarts", "2"),
            ("verify", "--suite", "map-contracts", "--samples", "5"),
        ],
    )
    def test_other_reports(self, tmp_path, capsys, emitted, argv):
        shared = write_set(tmp_path, "shared.json", ObservableSet(shared_eigenvector_pair(3)))
        code, out, _ = run(capsys, *(shared if arg == "SHARED" else arg for arg in argv))
        assert code == 0
        [doc] = emitted
        assert out == self.json_text(doc)
