"""Parser, address binding, and condition evaluation."""

import itertools

import pytest
from hypothesis import given, strategies as st

from i2e_litmus import litmus
from i2e_litmus.litmus import (And, Assign, Branch, ConditionEvalError,
                               Expr, Fence, Load, LitmusBindError,
                               LitmusParseError, MemEquals, Not, Or, Outcome,
                               RegEquals, Store, bind, bind_addresses,
                               eval_condition, format_test, parse,
                               render_condition)

DEKKER = """
i2e-litmus v1
name: dekker
init:
  a = 0
  b = 0
thread P1:
  St a 1
  Commit
  Reconcile
  r1 = Ld b
thread P2:
  St b 1
  Commit
  Reconcile
  r2 = Ld a
check forbidden: r1 = 0 & r2 = 0
"""


def minimal(body, checks="check allowed: r1 = 0", init=""):
    return f"i2e-litmus v1\n{init}thread P1:\n{body}\n{checks}\n"


class TestParse:
    def test_dekker(self):
        test = parse(DEKKER)
        assert len(test.threads) == 2
        assert [th.name for th in test.threads] == ["P1", "P2"]
        assert all(len(th.instrs) == 4 for th in test.threads)
        assert len(test.checks) == 1
        assert test.checks[0].polarity == "forbidden"
        p1 = test.threads[0]
        assert p1.instrs[0] == Store(Expr(((1, "sym", "a"),)), Expr(((1, "const", 1),)))
        assert p1.instrs[1] == Fence("Commit")
        assert p1.instrs[2] == Fence("Reconcile")
        assert p1.instrs[3] == Load("r1", Expr(((1, "sym", "b"),)))

    def test_empty_input(self):
        with pytest.raises(LitmusParseError, match="no threads"):
            parse("")
        with pytest.raises(LitmusParseError, match="no threads"):
            parse("   \n\n  # just a comment\n")

    def test_address_arithmetic_assign(self):
        test = parse(minimal("  r3 = a + r2 - 1"))
        ins = test.threads[0].instrs[0]
        assert isinstance(ins, Assign)
        assert ins.dst == "r3"
        assert ins.expr.symbols() == ("a",)
        assert ins.expr.registers() == ("r2",)

    def test_missing_header(self):
        with pytest.raises(LitmusParseError, match="header"):
            parse("thread P1:\n  St a 1\ncheck allowed: r1 = 0\n")

    def test_duplicate_thread(self):
        text = ("i2e-litmus v1\nthread P1:\n  St a 1\nthread P1:\n  St a 2\n"
                "check allowed: r1 = 0\n")
        with pytest.raises(LitmusParseError, match="duplicate thread"):
            parse(text)

    def test_unresolved_label(self):
        with pytest.raises(LitmusParseError, match="unknown label"):
            parse(minimal("  beqz r1 nowhere"))

    def test_unknown_instruction_keyword(self):
        with pytest.raises(LitmusParseError, match="unknown instruction"):
            parse(minimal("  MEMBAR"))

    def test_no_checks(self):
        with pytest.raises(LitmusParseError, match="no checks"):
            parse("i2e-litmus v1\nthread P1:\n  St a 1\n")

    def test_duplicate_label(self):
        with pytest.raises(LitmusParseError, match="duplicate label"):
            parse(minimal("  out:\n  St a 1\n  out:"))

    def test_duplicate_init(self):
        with pytest.raises(LitmusParseError, match="duplicate init"):
            parse(minimal("  St a 1", init="init:\n  a = 0\n  a = 1\n"))

    def test_register_not_allowed_in_atom_rhs(self):
        with pytest.raises(LitmusParseError, match="integer or address"):
            parse(minimal("  r1 = Ld a", checks="check allowed: r1 = r2"))

    def test_parse_error_carries_line(self):
        try:
            parse("i2e-litmus v1\nthread P1:\n  $$$\ncheck allowed: r1 = 0\n")
        except LitmusParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("nest", [
        lambda n: minimal(f"  r1 = {'(' * n}1{')' * n}"),
        lambda n: minimal(f"  r1 = {'-' * n}1"),
        lambda n: minimal("  r1 = Ld a", checks=f"check allowed: {'(' * n}r1 = 0{')' * n}"),
        lambda n: minimal("  r1 = Ld a", checks=f"check allowed: {'!' * n}r1 = 0"),
    ], ids=["expression-parentheses", "unary-minus", "condition-parentheses", "not"])
    def test_nesting_limit(self, nest):
        """Parentheses and unary operators nest 100 deep and no deeper."""
        parse(nest(100))
        with pytest.raises(LitmusParseError, match="nested more than 100 deep") as exc:
            parse(nest(101))
        assert exc.value.line is not None

    def test_branch_and_exit(self):
        test = parse(minimal("  r1 = Ld a\n  bnez r1 done\n  St a 1\n  done:\n  exit"))
        instrs = test.threads[0].instrs
        branch = instrs[1]
        assert isinstance(branch, Branch)
        assert branch.cond == "nez"
        assert branch.target_index == 3  # label sits past the store
        assert test.threads[0].labels == (("done", 3),)

    def test_comments_and_blank_lines(self):
        text = DEKKER.replace("St a 1", "St a 1  # store the flag")
        assert parse(text) == parse(DEKKER)


class TestBindAddresses:
    def test_two_names(self):
        test = parse(minimal("  St a 1\n  St b 2"))
        assert bind_addresses(test) == {"a": 0, "b": 1024}

    def test_four_names(self):
        test = parse(minimal("  St a 1\n  St b 2\n  St c 3\n  St f 4"))
        assert bind_addresses(test) == {"a": 0, "b": 1024, "c": 2048, "f": 3072}

    def test_offset_arithmetic_returns_to_base(self):
        test = parse(minimal("  r1 = Ld a + 1 - 1"))
        amap = bind_addresses(test)
        expr = test.threads[0].instrs[0].addr
        assert expr.evaluate(lambda r: 0, amap) == amap["a"] == 0

    def test_init_order_then_sorted(self):
        test = parse(minimal("  St a 1\n  St z 1", init="init:\n  b = 0\n"))
        assert bind_addresses(test) == {"b": 0, "a": 1024, "z": 2048}

    def test_injective(self, corpus):
        for entry in corpus:
            amap = bind_addresses(entry.test)
            assert len(set(amap.values())) == len(amap)

    def test_stable_under_thread_reordering(self, corpus):
        for entry in corpus:
            base = bind_addresses(entry.test)
            for perm in itertools.permutations(entry.test.threads):
                shuffled = litmus.LitmusTest(entry.test.name, entry.test.model_hint,
                                             entry.test.init, tuple(perm),
                                             entry.test.checks)
                assert bind_addresses(shuffled) == base


class TestConditions:
    OUTCOME = Outcome(
        regs=((("P1", "r1"), 0), (("P1", "r2"), 1)),
        mem=(("a", 2),),
    )

    def test_false_conjunction(self):
        cond = And((RegEquals("r1", 0, "P1"), RegEquals("r2", 0, "P1")))
        assert eval_condition(cond, self.OUTCOME) is False

    def test_iriw_outcome(self):
        outcome = Outcome(
            regs=((("P3", "r1"), 1), (("P3", "r2"), 0),
                  (("P4", "r3"), 1), (("P4", "r4"), 0)),
            mem=(("a", 1), ("b", 1)),
        )
        cond = And((RegEquals("r1", 1, "P3"), RegEquals("r2", 0, "P3"),
                    RegEquals("r3", 1, "P4"), RegEquals("r4", 0, "P4")))
        assert eval_condition(cond, outcome) is True

    def test_memory_atom(self):
        assert eval_condition(MemEquals("a", 2), self.OUTCOME) is True
        assert eval_condition(MemEquals("a", 3), self.OUTCOME) is False

    def test_missing_register_is_an_error(self):
        with pytest.raises(ConditionEvalError):
            eval_condition(RegEquals("r9", 0, "P1"), self.OUTCOME)
        with pytest.raises(ConditionEvalError):
            eval_condition(MemEquals("zz", 0), self.OUTCOME)

    def test_unbound_atom_is_an_error(self):
        with pytest.raises(ConditionEvalError):
            eval_condition(RegEquals("r1", 0, None), self.OUTCOME)
        with pytest.raises(ConditionEvalError):
            eval_condition(RegEquals("r1", "a", "P1"), self.OUTCOME)


# Random condition ASTs over a small pool of atoms, for the algebra laws.
_ATOMS = st.sampled_from([
    RegEquals("r1", 0, "P1"), RegEquals("r1", 1, "P1"),
    RegEquals("r2", 1, "P1"), MemEquals("a", 0), MemEquals("a", 2),
])
_CONDS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(lambda a, b: And((a, b)), inner, inner),
        st.builds(lambda a, b: Or((a, b)), inner, inner),
    ),
    max_leaves=8,
)
_OUTCOMES = st.builds(
    lambda r1, r2, a: Outcome(
        regs=((("P1", "r1"), r1), (("P1", "r2"), r2)), mem=(("a", a),)),
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
)


class TestConditionAlgebra:
    @given(_CONDS, _OUTCOMES)
    def test_double_negation(self, cond, outcome):
        assert eval_condition(Not(Not(cond)), outcome) == eval_condition(cond, outcome)

    @given(_CONDS, _CONDS, _OUTCOMES)
    def test_de_morgan(self, x, y, outcome):
        lhs = eval_condition(Not(And((x, y))), outcome)
        rhs = eval_condition(Or((Not(x), Not(y))), outcome)
        assert lhs == rhs

    @given(_CONDS, _CONDS, _OUTCOMES)
    def test_commutativity(self, x, y, outcome):
        assert (eval_condition(And((x, y)), outcome)
                == eval_condition(And((y, x)), outcome))
        assert (eval_condition(Or((x, y)), outcome)
                == eval_condition(Or((y, x)), outcome))

    @given(_CONDS, _OUTCOMES)
    def test_render_reparses_to_same_valuation(self, cond, outcome):
        text = render_condition(cond)
        toks = litmus._Tokens(litmus._tokenize(text, 1), 1)
        reparsed = litmus._parse_condition(toks)
        bound = litmus._resolve_condition(
            reparsed, parse(minimal("  r1 = Ld a\n  r2 = Ld a")), {"a": 0})
        assert eval_condition(bound, outcome) == eval_condition(cond, outcome)


class TestRoundTrip:
    def test_corpus_fixpoint(self, corpus):
        for entry in corpus:
            test = parse(entry.text)
            printed = format_test(test)
            again = parse(printed)
            assert again == test, entry.name
            assert format_test(again) == printed, entry.name

    def test_labels_survive(self):
        text = minimal("  r1 = Ld a\n  bnez r1 out\n  St a 1\n  out:")
        test = parse(text)
        assert parse(format_test(test)) == test


class TestBind:
    def test_resolves_threads_and_symbols(self):
        test = parse(DEKKER)
        bound = bind(test)
        (check,) = bound.checks
        atoms = list(litmus.condition_atoms(check.cond))
        assert {(a.thread, a.reg) for a in atoms} == {("P1", "r1"), ("P2", "r2")}
        assert bound.observed == (("P1", "r1"), ("P2", "r2"))

    def test_symbolic_rhs_resolved(self):
        text = ("i2e-litmus v1\ninit:\n  b = 0\n  a = 0\n"
                "thread P1:\n  St b a\nthread P2:\n  r1 = Ld b\n"
                "check allowed: r1 = a\n")
        bound = bind(parse(text))
        (check,) = bound.checks
        (atom,) = litmus.condition_atoms(check.cond)
        assert atom == RegEquals("r1", 1024, "P2")

    def test_ambiguous_register_needs_qualifier(self):
        text = ("i2e-litmus v1\nthread P1:\n  r1 = Ld a\nthread P2:\n  r1 = Ld a\n"
                "check allowed: r1 = 0\n")
        with pytest.raises(LitmusBindError, match="ambiguous"):
            bind(parse(text))
        qualified = text.replace("check allowed: r1 = 0",
                                 "check allowed: P1:r1 = 0 & P2:r1 = 0")
        bound = bind(parse(qualified))
        assert bound.observed == (("P1", "r1"), ("P2", "r1"))

    def test_unknown_register(self):
        with pytest.raises(LitmusBindError, match="no thread"):
            bind(parse(minimal("  St a 1", checks="check allowed: r7 = 0")))


class TestCorpus:
    def test_size(self, corpus):
        assert len(corpus) >= 14

    def test_dekker_annotations(self, corpus_by_name):
        entry = corpus_by_name["dekker"]
        assert entry.test.checks[0].polarity == "forbidden"
        assert entry.expected["wmm"] is False

    def test_wwc_annotations(self, corpus_by_name):
        entry = corpus_by_name["wwc"]
        assert entry.expected["wmm"] is False
        assert entry.expected["wmm-s"] is True

    def test_every_entry_has_all_models_annotated(self, corpus):
        from i2e_litmus.models import MODEL_IDS
        for entry in corpus:
            assert set(entry.expected) == set(MODEL_IDS)

    def test_export_dir(self, corpus):
        """The packaged corpus directory, given to the CLI as a directory
        input (``i2e-litmus src/i2e_litmus/corpus/``), reads as the corpus."""
        from importlib.resources import files
        from pathlib import Path
        from i2e_litmus.cli import _collect_inputs
        directory = Path(str(files("i2e_litmus.corpus")))
        jobs, errors = _collect_inputs([str(directory)])
        assert errors == []
        assert {name: test for name, _, test in jobs} == {entry.name: entry.test
                                                          for entry in corpus}
        assert {source for _, source, _ in jobs} == {str(directory / f"{entry.name}.litmus")
                                                     for entry in corpus}

    def test_checked_in_corpus_dir_matches_embedded(self):
        """The checked-in .litmus files and the expectation table embedded
        in the corpus module name the same tests."""
        from importlib.resources import files
        from i2e_litmus.corpus import _EXPECTED
        from i2e_litmus.models import MODEL_IDS
        found = {path.name.removesuffix(".litmus"): path
                 for path in files("i2e_litmus.corpus").iterdir()
                 if path.name.endswith(".litmus")}
        assert sorted(found) == sorted(_EXPECTED)
        assert len(found) == 22
        for stem, path in found.items():
            assert parse(path.read_text(encoding="utf-8")).name == stem
        for name, row in _EXPECTED.items():
            assert set(row) == set(MODEL_IDS), name
