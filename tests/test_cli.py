"""Tests for the command-line interface."""

import io
import os

import pytest

from repro.cli import main, parse_dataset_spec
from repro.storage.schema import ColumnType
from repro.storage.table import infer_type as _infer_type


@pytest.fixture
def csv_dir(tmp_path):
    directory = tmp_path / "data"
    directory.mkdir()
    (directory / "r.csv").write_text(
        "A1,A2,A4\n1,1,2000\n2,2,100\n0,3,50\n"
    )
    (directory / "s.csv").write_text("B1,B2\n9,1\n8,2\n7,2\n")
    return str(directory)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


class TestDatasetSpec:
    def test_plain(self):
        assert parse_dataset_spec("rst") == ("rst", 1.0)

    def test_with_factor(self):
        assert parse_dataset_spec("tpch:0.01") == ("tpch", 0.01)

    def test_case_folded(self):
        assert parse_dataset_spec("RST:5")[0] == "rst"


class TestTypeInference:
    def test_int(self):
        assert _infer_type([["1"], ["2"]], 0) is ColumnType.INT

    def test_float(self):
        assert _infer_type([["1.5"], ["2"]], 0) is ColumnType.FLOAT

    def test_string(self):
        assert _infer_type([["x"], ["2"]], 0) is ColumnType.STRING

    def test_empty_fields_skipped(self):
        assert _infer_type([[""], ["3"]], 0) is ColumnType.INT

    def test_all_empty_is_string(self):
        assert _infer_type([[""], [""]], 0) is ColumnType.STRING


class TestRun:
    def test_run_csv(self, csv_dir):
        code, text = run_cli(["run", "--csv", csv_dir, "SELECT * FROM r WHERE A4 > 1500"])
        assert code == 0
        assert "1 rows" in text
        assert "2000" in text

    def test_run_nested_query(self, csv_dir):
        sql = ("SELECT * FROM r WHERE A1 = "
               "(SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > 1500")
        code, text = run_cli(["run", "--csv", csv_dir, sql, "--strategy", "unnested"])
        assert code == 0
        assert "rows in" in text

    def test_run_generated_dataset(self):
        code, text = run_cli(
            ["run", "--dataset", "rst:0.05", "SELECT COUNT(*) FROM r"]
        )
        assert code == 0
        assert "50" in text

    def test_paper_query(self):
        code, text = run_cli(
            ["run", "--dataset", "rst:0.1", "--paper-query", "Q1"]
        )
        assert code == 0

    def test_missing_source_errors(self):
        code, _ = run_cli(["run", "SELECT 1 FROM t"])
        assert code == 1

    def test_missing_sql_errors(self, csv_dir):
        code, _ = run_cli(["run", "--csv", csv_dir])
        assert code == 1


class TestExplainClassify:
    def test_explain(self, csv_dir):
        sql = ("SELECT * FROM r WHERE A1 = "
               "(SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > 1500")
        code, text = run_cli(
            ["explain", "--csv", csv_dir, sql, "--strategy", "unnested"]
        )
        assert code == 0
        assert "BypassSelect" in text

    def test_classify(self, csv_dir):
        sql = ("SELECT * FROM r WHERE A1 = "
               "(SELECT COUNT(*) FROM s WHERE A2 = B2) OR A4 > 1500")
        code, text = run_cli(["classify", "--csv", csv_dir, sql])
        assert code == 0
        assert "disjunctive linking" in text
        assert "type JA" in text


class TestCompare:
    def test_compare_strategies(self):
        code, text = run_cli(
            ["compare", "--dataset", "rst:0.2", "--paper-query", "Q1",
             "--strategies", "canonical,unnested"]
        )
        assert code == 0
        assert "canonical" in text
        assert "unnested" in text


class TestGenerate:
    def test_generate_rst(self, tmp_path):
        out_dir = str(tmp_path / "rst")
        code, text = run_cli(["generate", "--dataset", "rst:0.1", "--out", out_dir])
        assert code == 0
        assert sorted(os.listdir(out_dir)) == ["r.csv", "s.csv", "t.csv"]

    def test_generate_then_load_roundtrip(self, tmp_path):
        out_dir = str(tmp_path / "tpch")
        code, _ = run_cli(["generate", "--dataset", "tpch:0.002", "--out", out_dir])
        assert code == 0
        code, text = run_cli(
            ["run", "--csv", out_dir, "SELECT r_name FROM region ORDER BY r_name LIMIT 1"]
        )
        assert code == 0
        assert "AFRICA" in text

    def test_unknown_dataset(self, tmp_path):
        code, _ = run_cli(["generate", "--dataset", "nope", "--out", str(tmp_path)])
        assert code == 1


class TestShell:
    def test_shell_session(self, csv_dir, monkeypatch):
        lines = iter([
            "\\tables",
            "\\strategy unnested",
            "SELECT COUNT(*) FROM r",
            "",
            "\\quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code, text = run_cli(["shell", "--csv", csv_dir])
        assert code == 0
        assert "r (3 rows)" in text
        assert "strategy = unnested" in text
        assert "1 rows" in text

    def test_shell_error_recovery(self, csv_dir, monkeypatch):
        lines = iter(["SELECT FROM", "", "\\q"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        code, text = run_cli(["shell", "--csv", csv_dir])
        assert code == 0
        assert "error:" in text
