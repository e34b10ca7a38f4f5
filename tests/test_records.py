"""Records: parsed tests, instructions, conditions, outcomes and reports are
NamedTuples that compare like frozen dataclasses, and importing the
package generates no dataclass code."""

import subprocess
import sys

import pytest

from i2e_litmus import corpus_test, isa
from i2e_litmus.cli import build_arg_parser
from i2e_litmus.explorer import ExploreLimits, check
from i2e_litmus.litmus import Assign, Exit, Expr, Load, bind, parse
from i2e_litmus.models import build_model
from oracle import explore_complete

EVERY_FORM = """i2e-litmus v1
name: forms
init:
  a = 0
thread P1:
  r1 = Ld a
  beqz r1 out
  r2 = r1 + 1
  St a r2
  Commit
  Reconcile
  exit
  out:
thread P2:
  St a 1
check allowed: !(r1 = 1 | m[a] = 2) & P1:r2 = 0
"""


def sample_records():
    """One record of every class the package builds, from parse to report."""
    test = parse(EVERY_FORM)
    bound = bind(test)
    report = check(bound, "wmm", limits=ExploreLimits(max_states=100_000),
                   want_witness=True)
    instrs = test.threads[0].instrs[:-1]  # all but exit, which has no fields
    cond = bound.checks[0].cond           # And(Not(Or(reg, mem)), reg)
    return [test, bound, *test.threads, *instrs, instrs[0].addr, test.checks[0],
            bound.checks[0], cond, cond.items[0], cond.items[0].item, *cond.items[0].item.items,
            cond.items[1], corpus_test("mp"), min(report.result.outcomes), report,
            *report.verdicts, report.result, report.result.stats, ExploreLimits(),
            isa.Nm(None, 0, 1), isa.Ld(0, "r1"), isa.St(0, 1)]


def test_import_generates_no_dataclass_code():
    code = ("import sys; sys.modules.pop('dataclasses', None); "
            "import i2e_litmus, i2e_litmus.cli; print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_records_of_two_classes_with_equal_fields_differ():
    addr = Expr(((1, "sym", "a"),))
    assert Load("r1", addr) != Assign("r1", addr)
    assert not Load("r1", addr) == Assign("r1", addr)
    assert Load("r1", addr) == Load("r1", Expr(((1, "sym", "a"),)))
    assert not Load("r1", addr) != Load("r1", addr)


@pytest.mark.parametrize("rec", sample_records(), ids=lambda rec: type(rec).__name__)
def test_no_record_equals_a_plain_tuple(rec):
    plain = tuple(rec)
    assert rec != plain and plain != rec
    assert not rec == plain and not plain == rec
    assert rec == rec._replace() and not rec != rec._replace()


def test_records_without_fields_are_distinct_and_truthy():
    units = [isa.HALT, isa.COMMIT, isa.RECONCILE, Exit()]
    assert all(units)
    for a in units:
        for b in units:
            assert (a == b) == (a is b) and (a != b) == (a is not b)
        assert a != () and () != a
    assert Exit() == Exit() and hash(Exit()) == hash(Exit())
    assert isa.Halt() == isa.HALT and hash(isa.Halt()) == hash(isa.HALT)
    assert repr(Exit()) == "Exit()"
    assert (isa.COMMIT, ()) != (isa.HALT, ())


def test_explore_result_repr_omits_the_parent_map():
    result = explore_complete(build_model("sc", corpus_test("mp").test))
    text = repr(result)
    assert text.startswith("ExploreResult(outcomes=")
    assert repr(result.stats) in text
    init = next(iter(result.parents))
    assert "parents" not in text and "terminal_keys" not in text
    assert repr(init) not in text


def test_explore_stats_is_final():
    stats = explore_complete(build_model("sc", corpus_test("mp").test)).stats
    with pytest.raises(AttributeError):
        stats.visited = 0


def test_cli_budgets_default_to_explore_limits():
    args = build_arg_parser().parse_args([])
    assert ExploreLimits(args.max_states, args.timeout) == ExploreLimits()
