"""Command machine: effect synthesis, explore desugaring, tandem verdicts."""
import dataclasses
from pathlib import Path

import pytest

from reggio.command import (TandemRunner, Verdict, desugar_explore,
                            desugar_program, replace, synth_effect)
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


# -- node rebuilds ------------------------------------------------------------

@pytest.mark.parametrize("node, changes", [
    (Use("u", True, (1, 2)), {"name": "u$1"}),
    (LVal("y", "f", (1, 2)), {"name": "y$1"}),
    (Deref(LVal("y"), (3, 4)), {"target": LVal("y$1")}),
    (Assign(LVal("y", "f"), Use("u")),
     {"target": LVal("y$1", "f"), "use": Use("u$2")}),
    (VarAlloc(Use("u", True)), {"use": Use("u$1", True)}),
    (Freeze(Use("u", True)), {"use": Use("u$1", True)}),
    (Merge(Use("u", True)), {"use": Use("u$1", True)}),
    (New(Cap.ISO, "C", (Use("a"), Use("b", True))),
     {"args": (Use("a$1"), Use("b$2", True))}),
], ids=["Use", "LVal", "Deref", "Assign", "VarAlloc", "Freeze", "Merge",
        "New"])
def test_replace_matches_dataclasses_replace(node, changes):
    """Every class rename rebuilds: the same node dataclasses.replace
    gives, still frozen, and the original unchanged."""
    original = dataclasses.replace(node)
    got = replace(node, **changes)
    want = dataclasses.replace(node, **changes)
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want) and got != node
    assert node == original and hash(node) == hash(original)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.pos = (0, 0)


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


def _trace(prog):
    effects = []
    result = TandemRunner(prog, check="each-step", observer=lambda step,
                          eff, ok: effects.append(eff)).run()
    return effects, result


def test_runner_desugars_explore():
    # An explore given straight to the runner runs as its desugaring, not
    # as a plain enter.
    prog = parse_program((CORPUS / "explore.rgo").read_text())
    check_program(prog)
    effects, result = _trace(prog)
    assert (result.verdict, result.steps) == (Verdict.DONE, 10)
    assert (effects, result) == _trace(desugar_program(prog))


def test_desugar_program_leaves_its_input_unchanged():
    # f's explore also moves the fresh names after each call by the
    # binders of its desugaring.
    src = ("class I { }\n"
           "fn f(): iso I { let i = new iso I() in let u = var drop i in "
           "let r = explore u [] { z => let d = new iso I() in drop d } "
           "in drop r }\n"
           "let a = f() in let b = f() in let i = new iso I() in "
           "let u = var drop i in "
           "let r = explore u [] { z => let d = new iso I() in drop d } "
           "in drop r")
    prog = parse_program(src)
    check_program(prog)
    out = desugar_program(prog)
    assert prog.main.body.body.body.body.binding.explore
    assert prog.functions.lookup("f").body.body.body.binding.explore
    assert not out.main.body.body.body.body.binding.explore
    assert not out.functions.lookup("f").body.body.body.binding.explore
    effects, result = _trace(prog)
    assert result.verdict is Verdict.DONE
    assert (effects, result) == _trace(out)


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
