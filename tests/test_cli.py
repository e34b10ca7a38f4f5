"""The command-line front end: flags, exit codes, and report formats."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from i2e_litmus.cli import main
from i2e_litmus.corpus import corpus_test, load_corpus


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

    @pytest.mark.parametrize("models", ["", " , "])
    def test_empty_model_list(self, capsys, models):
        # only an omitted --models falls back to the defaults
        assert main(["--corpus", "--models", models]) == 3
        assert "(none given)" in capsys.readouterr().err

    def test_repeated_model_runs_once(self, dekker_nofence_file, capsys):
        assert main([str(dekker_nofence_file), "--models", "tso,sc,tso", "--compare"]) == 1
        out = capsys.readouterr().out
        assert out.count("[sc]") == 1 and out.count("[tso]") == 1
        assert out.count("compare ") == 2  # tso <= sc and sc <= tso, each once

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

    def test_non_utf8_file_is_a_parse_error(self, tmp_path, dekker_nofence_file, capsys):
        bad = tmp_path / "bad.litmus"
        bad.write_bytes(b"\xff\xfe\x00bad")
        code = main([str(bad), str(dekker_nofence_file), "--models", "sc"])
        out = capsys.readouterr().out
        assert code == 3
        assert "[sc] ok" in out          # the good file still ran
        assert f"error: {bad}: line 1: not UTF-8 text" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_input_errors_also_go_to_stderr(self, tmp_path, dekker_nofence_file, capsys, fmt):
        bad = tmp_path / "bad.litmus"
        bad.write_text("i2e-litmus v1\nthread P1:\n  BOOM\n")
        missing = tmp_path / "missing.litmus"
        code = main([str(bad), str(missing), str(dekker_nofence_file), "--models", "sc",
                     "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3
        err = captured.err.splitlines()
        assert len(err) == 2
        assert err[0] == f"error: {bad}: line 3, col 1: unknown instruction 'BOOM'"
        assert err[1].startswith("error: ") and str(missing) in err[1]
        if fmt == "json":  # the report itself is unchanged
            assert [f"error: {e['message']}" for e in json.loads(captured.out)["errors"]] == err
        else:
            assert [line for line in captured.out.splitlines()
                    if line.startswith("error: ")] == err

    def test_directory_input(self, tmp_path, capsys):
        (tmp_path / "one.litmus").write_text(corpus_test("corr").text)
        (tmp_path / "two.litmus").write_text(corpus_test("thin-air").text)
        assert main([str(tmp_path), "--models", "sc"]) == 0
        out = capsys.readouterr().out
        assert "corr [sc]" in out and "thin-air [sc]" in out

    def test_directory_without_litmus_files_alone(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not a test\n")
        assert main([str(tmp_path), "--models", "sc"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {tmp_path}: no .litmus files in directory"]

    def test_directory_without_litmus_files_beside_a_good_input(
            self, tmp_path, dekker_nofence_file, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([str(empty), str(dekker_nofence_file), "--models", "sc",
                     "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3
        assert [r["model"] for r in report["results"]] == ["sc"]  # the good file still ran
        assert report["errors"] == [{"input": str(empty),
                                     "message": f"{empty}: no .litmus files in directory"}]

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

    @pytest.mark.parametrize("body, condition", [
        (f"r1 = {'9' * 5_000}", "r1 = 0"),  # more digits than int() converts
        (f"r1 = {'(' * 5_000}1{')' * 5_000}", "r1 = 0"),
        ("r1 = 1", f"{'(' * 5_000}r1 = 0{')' * 5_000}"),
        ("r1 = 1", f"{'!' * 5_000}r1 = 0"),
        (f"r1 = {'-' * 5_000}1", "r1 = 0"),
    ], ids=["long-integer", "nested-expression", "nested-condition", "not-run", "minus-run"])
    def test_huge_or_deep_input_is_a_parse_error(self, tmp_path, capsys, body, condition):
        path = tmp_path / "deep.litmus"
        path.write_text(f"i2e-litmus v1\nthread P1:\n  {body}\ncheck allowed: {condition}\n")
        assert main([str(path), "--models", "sc"]) == 3
        line = 4 if body == "r1 = 1" else 3
        assert capsys.readouterr().err.startswith(f"error: {path}: line {line}, col ")

    def test_nesting_up_to_the_limit_and_long_literals_still_parse(self, tmp_path, capsys):
        """100 levels of parentheses or unary operators parse, and a literal
        that int() converts keeps its 64-bit wrapped value (2**64 + 5 is 5)."""
        path = tmp_path / "deep.litmus"
        path.write_text(f"i2e-litmus v1\nthread P1:\n  r1 = {'(' * 100}18446744073709551621"
                        f"{')' * 100}\n  r2 = {'-' * 100}1\n"
                        f"check allowed: {'!' * 50}{'(' * 50}r1 = 5 & r2 = 1{')' * 50}\n")
        assert main([str(path), "--models", "sc"]) == 0
        assert "[sc] ok" in capsys.readouterr().out


class TestJson:
    def test_schema(self, dekker_nofence_file, capsys):
        code = main([str(dekker_nofence_file), "--models", "sc,tso",
                     "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["schema_version"] == 3
        assert data["errors"] == []
        by_model = {r["model"]: r for r in data["results"]}
        assert set(by_model) == {"sc", "tso"}
        sc = by_model["sc"]
        assert sc["test"] == "dekker-nofence"
        assert sc["input"] == str(dekker_nofence_file)
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

    def test_user_file_named_like_a_corpus_test_is_judged_by_its_checks(
            self, tmp_path, capsys):
        # name: mp, but the check is one that holds under sc
        path = tmp_path / "mine.litmus"
        path.write_text(corpus_test("mp").text.replace(
            "check forbidden: r1 = 1 & r2 = 0", "check allowed: r1 = 0 & r2 = 0"))
        assert main([str(path), "--corpus", "--models", "sc", "--format", "json"]) == 0
        mps = [r for r in json.loads(capsys.readouterr().out)["results"]
               if r["test"] == "mp"]
        assert sorted(r["expected_satisfiable"] is None for r in mps) == [False, True]
        assert all(r["pass"] is True for r in mps)

    def test_user_file_and_corpus_test_of_one_name_are_told_apart(self, tmp_path, capsys):
        path = tmp_path / "mine.litmus"
        path.write_text(corpus_test("mp").text)
        main([str(path), "--corpus", "--models", "sc,tso", "--compare", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        mps = [(r["input"], r["model"]) for r in data["results"] if r["test"] == "mp"]
        assert sorted(mps) == sorted((source, model) for source in (str(path), "corpus")
                                     for model in ("sc", "tso"))
        compared = [(c["input"], c["left"]) for c in data["comparisons"] if c["test"] == "mp"]
        assert sorted(compared) == sorted((source, model) for source in (str(path), "corpus")
                                          for model in ("sc", "tso"))
        main([str(path), "--corpus", "--models", "sc,tso", "--compare"])
        out = capsys.readouterr().out
        assert f"=== mp [sc] ok  ({path})" in out
        assert "=== mp [sc] ok  (corpus)" in out
        assert f"compare mp ({path}): outcomes(sc) <= outcomes(tso) holds" in out
        assert "compare mp (corpus): outcomes(sc) <= outcomes(tso) holds" in out


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
        # one model named twice compares nothing
        assert main([str(dekker_nofence_file), "--models", "wmm,wmm", "--compare"]) == 3

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


_SEEDS = [entry.text.encode() for entry in load_corpus()]


@st.composite
def mutated_corpus_files(draw):
    """A corpus file with a few byte spans deleted, inserted or duplicated;
    inserted bytes are arbitrary, so some mutants are not UTF-8."""
    data = draw(st.sampled_from(_SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 40)))
        edit = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if edit == "delete":
            data = data[:start] + data[end:]
        elif edit == "insert":
            data = data[:start] + draw(st.binary(min_size=1, max_size=8)) + data[start:]
        else:
            data = data[:end] + data[start:end] + data[end:]
    return data


@settings(max_examples=150, deadline=None)
@given(mutated_corpus_files())
def test_mutated_corpus_files_never_crash_the_cli(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutant.litmus"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(path), "--models", "sc", "--max-states", "300", "--timeout", "2"])
    assert code in (0, 1, 2, 3)
    if code == 3:  # input errors go to stderr as well as into the report
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())


_SOUP = sorted({token for entry in load_corpus() for token in entry.text.split()}
               | {"thread", "init:", "check", "allowed:", "forbidden:", "Ld", "St",
                  "Commit", "Reconcile", "beqz", "bnez", "exit", "=", "&", "|", "!",
                  "(", ")", "+", "-", "[", "]", "m[a]", "top:", "top", "#", "-1",
                  "99999999999999999999"})


@st.composite
def token_soup_files(draw):
    """A corpus file in which one to three lines have their tokens
    shuffled, some swapped for keywords and other corpus tokens, or are
    replaced by a line of such tokens; keeping the rest of the file lets
    parsing get past the header and the thread lines."""
    lines = draw(st.sampled_from(_SEEDS)).decode().splitlines()
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, len(lines) - 1))
        indent, tokens = lines[n][:len(lines[n]) - len(lines[n].lstrip())], lines[n].split()
        edit = draw(st.sampled_from(["shuffle", "swap", "soup"]))
        if edit == "shuffle":
            tokens = draw(st.permutations(tokens))
        elif edit == "swap":
            for _ in range(draw(st.integers(1, 2))):
                at = draw(st.integers(0, len(tokens)))
                tokens[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_SOUP))]
        else:
            tokens = draw(st.lists(st.sampled_from(_SOUP), max_size=5))
        lines[n] = indent + " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(token_soup_files())
def test_token_soup_never_crashes_the_cli(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "soup.litmus"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(path), "--models", "sc", "--max-states", "300", "--timeout", "2"])
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
