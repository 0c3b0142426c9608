"""Command machine: effect synthesis, explore desugaring, tandem verdicts."""
from pathlib import Path

import pytest

from reggio.command import (TandemRunner, Verdict, desugar_explore,
                            synth_effect)
from reggio.machine import (Bind, FreezeEff, Halloc, Load, MergeEff, Salloc,
                            Swap)
from reggio.model import Cap
from reggio.syntax import (Assign, Deref, Enter, Freeze, LVal, Let, Merge,
                           New, Use, VarAlloc, parse_program)
from reggio.typecheck import check_program

from subst_reference import FreshNames, alpha_rename

CORPUS = Path(__file__).parent.parent / "corpus"


def _run(src: str, **kw) -> Verdict:
    prog = parse_program(src)
    check_program(prog)
    return TandemRunner(prog, **kw).run().verdict


# -- synth_effect rows ---------------------------------------------------------

def test_synth_deref_field_and_var():
    assert synth_effect("x", Deref(LVal("y", "f"))) == Load("x", "y", "f")
    assert synth_effect("x", Deref(LVal("y", None))) == Load("x", "y", "val")


def test_synth_assign_field_and_var():
    u = Use("u", True)
    assert synth_effect("x", Assign(LVal("y", "f"), u)) == Swap("x", "y", "f", u)
    assert synth_effect("x", Assign(LVal("y", None), u)) == Swap("x", "y", "val", u)


def test_synth_new_tmp_is_stack_else_heap():
    assert synth_effect("x", New(Cap.TMP, "C", ())) == Salloc("x", Cap.TMP, "C", ())
    assert synth_effect("x", New(Cap.ISO, "C", ())) == Halloc("x", Cap.ISO, "C", ())
    assert synth_effect("x", New(Cap.MUT, "C", ())) == Halloc("x", Cap.MUT, "C", ())


def test_synth_var_freeze_merge_use():
    u = Use("u", True)
    assert synth_effect("x", VarAlloc(u)) == Salloc("x", Cap.VAR, "Cell", (u,))
    assert synth_effect("x", Freeze(u)) == FreezeEff("x", u)
    assert synth_effect("x", Merge(u)) == MergeEff("x", u)
    assert synth_effect("x", Use("y")) == Bind((("x", Use("y")),))


def test_synth_rejects_compound():
    with pytest.raises(AssertionError):
        synth_effect("x", Let("y", New(Cap.MUT, "C", ()), Use("y")))


# -- explore desugaring --------------------------------------------------------

def test_desugar_explore_shape():
    e = Enter(LVal("u", None), (("c", Use("c0")),), "z", Use("z"), True)
    d = desugar_explore(e)
    assert isinstance(d, Enter) and not d.explore
    assert d.target == e.target
    assert d.binder == "z~o"
    assert d.captures == (("c~o", Use("c0")),)
    # outer body: let v~x = *z~o.val in let t~x = new iso Unit() in
    #             let c~x = var t~x in let r~x = enter ... in r~x, drop
    body = d.body
    assert isinstance(body, Let) and body.name == "v~x"
    assert isinstance(body.binding, Deref)
    inner_new = body.body
    assert isinstance(inner_new.binding, New) and inner_new.binding.cls == "Unit"
    cell = inner_new.body
    assert isinstance(cell.binding, VarAlloc)
    inner = cell.body.binding
    assert isinstance(inner, Enter) and inner.target.name == "c~x"
    # binder z is rebound as a capture of the paused object
    assert ("z", Use("v~x", False, inner.pos)) in inner.captures


def test_alpha_rename_freshens_lets():
    e = Let("a", New(Cap.MUT, "A", ()), Let("a", Use("a"), Use("a")))
    out = alpha_rename(e, FreshNames(), {})
    assert out.name != out.body.name
    assert out.body.body.name == out.body.name


# -- verdicts ------------------------------------------------------------------

def test_done_trivial():
    src = "class A { }\nlet x = new mut A() in x"
    assert _run(src) is Verdict.DONE


def test_budget_on_recursion():
    src = ("class A { }\n"
           "fn spin(a: mut A): mut A { let r = spin(a) in r }\n"
           "let x = new mut A() in let y = spin(x) in y")
    prog = parse_program(src)
    check_program(prog)
    res = TandemRunner(prog, budget=200).run()
    assert res.verdict is Verdict.BUDGET
    assert res.steps == 200


def test_failed_on_reentering_open_region():
    prog = parse_program((CORPUS / "reenter_open.rgo").read_text())
    check_program(prog)
    res = TandemRunner(prog, check="each-step").run()
    assert res.verdict is Verdict.FAILED
    assert "badenter" in res.detail


def test_corpus_each_step_verdicts():
    expected = {
        "listing1.rgo": Verdict.DONE,
        "store_accept.rgo": Verdict.DONE,
        "bridge_swap.rgo": Verdict.DONE,
        "deep_freeze.rgo": Verdict.DONE,
        "merge_nested.rgo": Verdict.DONE,
        "explore.rgo": Verdict.DONE,
        "reenter_open.rgo": Verdict.FAILED,
    }
    for name, want in expected.items():
        prog = parse_program((CORPUS / name).read_text())
        check_program(prog)
        got = TandemRunner(prog, check="each-step").run().verdict
        assert got is want, name


def test_observer_sees_every_effect():
    seen = []
    prog = parse_program("class A { }\nlet x = new mut A() in x")
    check_program(prog)
    TandemRunner(prog,
                 observer=lambda step, eff, ok: seen.append(eff)).run()
    assert any(isinstance(e, Halloc) for e in seen)


def test_buggy_machine_caught_by_each_step():
    prog = parse_program((CORPUS / "deep_freeze.rgo").read_text())
    check_program(prog)
    res = TandemRunner(prog, check="each-step",
                       bugs=frozenset({"shallow-freeze"})).run()
    assert res.verdict is Verdict.VIOLATION
