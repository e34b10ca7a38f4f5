"""The command-line front end: flags, exit codes, and report formats."""

import json
import subprocess
import sys

import pytest

from i2e_litmus.cli import main
from i2e_litmus.corpus import corpus_test


@pytest.fixture()
def dekker_nofence_file(tmp_path):
    path = tmp_path / "dekker-nofence.litmus"
    path.write_text(corpus_test("dekker-nofence").text)
    return path


class TestExitCodes:
    def test_corpus_under_wmm_is_clean(self, capsys):
        assert main(["--corpus", "--models", "wmm"]) == 0
        out = capsys.readouterr().out
        assert "dekker [wmm] ok" in out
        # every per-model expectation agrees; no run-level failures
        assert "] FAIL" not in out
        assert "DISAGREES" not in out

    def test_forbidden_check_fails_under_tso(self, dekker_nofence_file, capsys):
        code = main([str(dekker_nofence_file), "--models", "sc,tso"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[sc] ok" in out
        assert "[tso] FAIL" in out

    def test_missing_file(self, capsys):
        assert main(["missing.litmus"]) == 3

    def test_unknown_model(self, capsys):
        assert main(["--corpus", "--models", "fast-and-loose"]) == 3

    def test_no_inputs(self, capsys):
        assert main([]) == 3

    def test_inconclusive(self, dekker_nofence_file, capsys):
        code = main([str(dekker_nofence_file), "--models", "sc",
                     "--max-states", "2"])
        assert code == 2
        assert "INCONCLUSIVE" in capsys.readouterr().out

    def test_bad_file_does_not_abort_batch(self, tmp_path, dekker_nofence_file, capsys):
        bad = tmp_path / "bad.litmus"
        bad.write_text("i2e-litmus v1\nthread P1:\n  BOOM\n")
        code = main([str(bad), str(dekker_nofence_file), "--models", "sc"])
        out = capsys.readouterr().out
        assert code == 3
        assert "[sc] ok" in out          # the good file still ran
        assert "unknown instruction" in out

    def test_directory_input(self, tmp_path, capsys):
        (tmp_path / "one.litmus").write_text(corpus_test("corr").text)
        (tmp_path / "two.litmus").write_text(corpus_test("thin-air").text)
        assert main([str(tmp_path), "--models", "sc"]) == 0
        out = capsys.readouterr().out
        assert "corr [sc]" in out and "thin-air [sc]" in out

    @pytest.mark.parametrize("argv, seed", [
        (["--max-states", "0"], None),
        (["--max-states", "-5"], None),
        (["--max-states", "many"], None),
        (["--timeout", "0"], None),
        (["--timeout", "-1"], None),
        (["--timeout", "nan"], None),
        (["--timeout", "inf"], None),
        ([], "abc"),
    ])
    def test_bad_budget_or_seed_is_a_usage_error(self, dekker_nofence_file, capsys,
                                                 monkeypatch, argv, seed):
        if seed is not None:
            monkeypatch.setenv("I2E_LITMUS_SEED", seed)
        try:
            code = main([str(dekker_nofence_file), "--models", "sc", *argv])
        except SystemExit as exc:  # argparse rejects the flag value itself
            code = exc.code
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err
        assert "[sc]" not in captured.out  # rejected before anything ran

    def test_negative_address_reported_not_crashed(self, tmp_path, capsys):
        path = tmp_path / "bad-addr.litmus"
        path.write_text("i2e-litmus v1\nthread P1:\n  r1 = Ld a - 1\n"
                        "check allowed: r1 = 0\n")
        assert main([str(path), "--models", "sc"]) == 3
        assert "negative address" in capsys.readouterr().out


class TestJson:
    def test_schema(self, dekker_nofence_file, capsys):
        code = main([str(dekker_nofence_file), "--models", "sc,tso",
                     "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["schema_version"] == 2
        assert data["errors"] == []
        by_model = {r["model"]: r for r in data["results"]}
        assert set(by_model) == {"sc", "tso"}
        sc = by_model["sc"]
        assert sc["test"] == "dekker-nofence"
        assert sc["complete"] is True
        assert sc["pass"] is True
        assert sc["verdicts"][0]["polarity"] == "forbidden"
        assert sc["verdicts"][0]["satisfiable"] is False
        assert by_model["tso"]["pass"] is False
        assert {"visited", "edges", "dedup_hits", "max_frontier",
                "wall_time_s"} <= set(sc["stats"])
        assert len(sc["outcomes"]) == 3

    def test_corpus_expectations_included(self, capsys):
        main(["--corpus", "--models", "wmm", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        lvp = next(r for r in data["results"]
                   if r["test"] == "load-value-prediction")
        assert lvp["expected_satisfiable"] is True
        assert lvp["expectation_met"] is True


class TestWitness:
    def test_witness_printed_for_satisfiable(self, dekker_nofence_file, capsys):
        main([str(dekker_nofence_file), "--models", "tso", "--witness"])
        out = capsys.readouterr().out
        assert "witness:" in out
        assert "TSO-St" in out and "TSO-DeqSb" in out

    def test_witness_in_json(self, dekker_nofence_file, capsys):
        main([str(dekker_nofence_file), "--models", "tso", "--witness",
              "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        (result,) = data["results"]
        witness = result["verdicts"][0]["witness"]
        assert witness and all(isinstance(line, str) for line in witness)


class TestCompare:
    def test_inclusion_report(self, dekker_nofence_file, capsys):
        code = main([str(dekker_nofence_file), "--models", "sc,tso", "--compare"])
        out = capsys.readouterr().out
        assert code == 1  # the forbidden check still fails under tso
        assert "outcomes(sc) <= outcomes(tso) holds" in out
        assert "outcomes(tso) <= outcomes(sc) FAILS" in out

    def test_compare_needs_two_models(self, dekker_nofence_file, capsys):
        assert main([str(dekker_nofence_file), "--compare"]) == 3
        assert main([str(dekker_nofence_file), "--models", "sc", "--compare"]) == 3

    def test_corpus_wide_inclusion_chain(self, capsys):
        main(["--corpus", "--models", "sc,tso,pso", "--compare",
              "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        forward = [c for c in data["comparisons"]
                   if (c["left"], c["right"]) in (("sc", "tso"), ("tso", "pso"))]
        assert forward and all(c["subset"] is True for c in forward)


class TestSeedEnv:
    def test_seeded_random_order_same_verdicts(self, dekker_nofence_file,
                                               capsys, monkeypatch):
        monkeypatch.setenv("I2E_LITMUS_SEED", "42")
        code = main([str(dekker_nofence_file), "--models", "sc,tso"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[sc] ok" in out and "[tso] FAIL" in out


class TestModelDefaults:
    def test_model_hint_used_when_no_models_flag(self, tmp_path, capsys):
        path = tmp_path / "mp.litmus"
        path.write_text(corpus_test("mp").text)  # carries "model: wmm"
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "[wmm]" in out
        assert "[sc]" not in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "i2e_litmus.cli", "--corpus", "--models", "sc"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "corr [sc] ok" in proc.stdout
