"""Command machine: effect synthesis, explore desugaring, tandem verdicts."""
import dataclasses
from pathlib import Path

import pytest

from reggio import machine
from reggio.command import (TandemRunner, Verdict, desugar_explore,
                            desugar_program, replace, synth_effect)
from reggio.fuzz import GenConfig, generate
from reggio.machine import (EFFECT_NAMES, BadEnter, Bind, CastEff, EnterEff,
                            Eps, ExitEff, FreezeEff, Halloc, Load, MergeEff,
                            NoCastEff, Salloc, Swap)
from reggio.model import Cap, CapType, ClassName
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
    assert synth_effect("x", Deref(LVal("y", "f")), {}) == Load("x", "y", "f")
    assert synth_effect("x", Deref(LVal("y", None)), {}) == Load("x", "y", "val")


def test_synth_assign_field_and_var():
    u = Use("u", True)
    assert synth_effect("x", Assign(LVal("y", "f"), u), {}) == Swap("x", "y", "f", u)
    assert synth_effect("x", Assign(LVal("y", None), u), {}) == Swap("x", "y", "val", u)


def test_synth_new_tmp_is_stack_else_heap():
    assert synth_effect("x", New(Cap.TMP, "C", ()), {}) == Salloc("x", Cap.TMP, "C", ())
    assert synth_effect("x", New(Cap.ISO, "C", ()), {}) == Halloc("x", Cap.ISO, "C", ())
    assert synth_effect("x", New(Cap.MUT, "C", ()), {}) == Halloc("x", Cap.MUT, "C", ())


def test_synth_var_freeze_merge_use():
    u = Use("u", True)
    assert synth_effect("x", VarAlloc(u), {}) == Salloc("x", Cap.VAR, "Cell", (u,))
    assert synth_effect("x", Freeze(u), {}) == FreezeEff("x", u)
    assert synth_effect("x", Merge(u), {}) == MergeEff("x", u)
    assert synth_effect("x", Use("y"), {}) == Bind((("x", Use("y")),))


def test_synth_rejects_compound():
    with pytest.raises(AssertionError):
        synth_effect("x", Let("y", New(Cap.MUT, "C", ()), Use("y")), {})
    with pytest.raises(AssertionError):
        synth_effect("x", Let("y", New(Cap.MUT, "C", ()), Use("y")),
                     {"y": "y$3"})


# -- synth_effect through an environment ---------------------------------------

# Source name -> runtime name.  "a$1" is a source name that happens to look
# like a runtime one: it renames to "a$7", and "a$1" as a runtime name is
# never renamed again.  "free" is not in the environment.
ENV = {"a": "a$1", "a$1": "a$7", "y": "y$3", "c": "c$4"}
AT = (2, 5)


@pytest.mark.parametrize("b, want", [
    (Use("a", False, AT), Bind((("x", Use("a$1", False, AT)),))),
    (Use("a$1", True, AT), Bind((("x", Use("a$7", True, AT)),))),
    (Use("free", True, AT), Bind((("x", Use("free", True, AT)),))),
    (New(Cap.TMP, "C", (Use("a"), Use("c", True))),
     Salloc("x", Cap.TMP, "C", (Use("a$1"), Use("c$4", True)))),
    (New(Cap.ISO, "C", (Use("free"),)),
     Halloc("x", Cap.ISO, "C", (Use("free"),))),
    (New(Cap.MUT, "C", ()), Halloc("x", Cap.MUT, "C", ())),
    (Deref(LVal("y", "f")), Load("x", "y$3", "f")),
    (Deref(LVal("y", None)), Load("x", "y$3", "val")),
    (Deref(LVal("free", "f")), Load("x", "free", "f")),
    (Assign(LVal("y", "f"), Use("a$1", True, AT)),
     Swap("x", "y$3", "f", Use("a$7", True, AT))),
    (Assign(LVal("a$1", None), Use("free")),
     Swap("x", "a$7", "val", Use("free"))),
    (VarAlloc(Use("c", True, AT)),
     Salloc("x", Cap.VAR, "Cell", (Use("c$4", True, AT),))),
    (Freeze(Use("c", True)), FreezeEff("x", Use("c$4", True))),
    (Merge(Use("a", True)), MergeEff("x", Use("a$1", True))),
], ids=["use", "use-dollar-drop", "use-free", "new-tmp", "new-iso-free",
        "new-mut-noargs", "deref-field", "deref-bare", "deref-free",
        "assign-field", "assign-bare-dollar", "var", "freeze", "merge"])
def test_synth_renames_through_env(b, want):
    before = dataclasses.replace(b)
    got = synth_effect("x", b, ENV)
    assert type(got) is type(want) and got == want
    assert b == before  # the source binding is read, not rebuilt
    # A name the environment does not bind stands for itself.
    same = {n: n for n in [*ENV, "free"]}
    assert synth_effect("x", b, {}) == synth_effect("x", b, same)


def test_synth_without_env_keeps_every_use():
    # The substituting reference machine passes already renamed bindings.
    u = Use("u$2", True, AT)
    assert synth_effect("x", Freeze(u), {}).use is u
    assert synth_effect("x", New(Cap.MUT, "C", (u,)), {}).uses[0] is u


# -- effects as values ---------------------------------------------------------

U = Use("u", True, (1, 2))
T = CapType(Cap.MUT, ClassName("C"))

EFFECTS = [
    (Load("x", "y", "f"), "Load(x='x', y='y', f='f')"),
    (Swap("x", "y", "val", U),
     "Swap(x='x', y='y', f='val', use=Use(name='u', drop=True, "
     "pos=(1, 2)))"),
    (Halloc("x", Cap.ISO, "C", (U,)),
     "Halloc(x='x', cap=<Cap.ISO: 'iso'>, cls='C', "
     "uses=(Use(name='u', drop=True, pos=(1, 2)),))"),
    (Salloc("x", Cap.VAR, "Cell", ()),
     "Salloc(x='x', cap=<Cap.VAR: 'var'>, cls='Cell', uses=())"),
    (EnterEff("w", Cap.TMP, "y", "f", (("z", U),)),
     "EnterEff(w='w', cap=<Cap.TMP: 'tmp'>, y='y', f='f', "
     "captures=(('z', Use(name='u', drop=True, pos=(1, 2))),))"),
    (BadEnter("y", "f"), "BadEnter(y='y', f='f')"),
    (ExitEff("x", U, "y", "f", "w", "val"),
     "ExitEff(x='x', use=Use(name='u', drop=True, pos=(1, 2)), y='y', "
     "f='f', w='w', g='val')"),
    (FreezeEff("x", U),
     "FreezeEff(x='x', use=Use(name='u', drop=True, pos=(1, 2)))"),
    (MergeEff("x", U),
     "MergeEff(x='x', use=Use(name='u', drop=True, pos=(1, 2)))"),
    (CastEff("x", U, T),
     "CastEff(x='x', use=Use(name='u', drop=True, pos=(1, 2)), "
     "ty=CapType(cap=<Cap.MUT: 'mut'>, head=ClassName(name='C')))"),
    (NoCastEff("x", U, T),
     "NoCastEff(x='x', use=Use(name='u', drop=True, pos=(1, 2)), "
     "ty=CapType(cap=<Cap.MUT: 'mut'>, head=ClassName(name='C')))"),
    (Bind((("x", U),)),
     "Bind(pairs=(('x', Use(name='u', drop=True, pos=(1, 2))),))"),
    (Eps(), "Eps()"),
]


def test_one_literal_repr_per_effect_kind():
    assert [type(e) for e, _ in EFFECTS] == list(EFFECT_NAMES)
    for eff, want in EFFECTS:
        assert repr(eff) == want


@pytest.mark.parametrize("a, b", [
    (FreezeEff("x", U), MergeEff("x", U)),
    (CastEff("x", U, T), NoCastEff("x", U, T)),
    (Halloc("x", Cap.MUT, "C", (U,)), Salloc("x", Cap.MUT, "C", (U,))),
], ids=["freeze-merge", "cast-nocast", "halloc-salloc"])
def test_effects_with_equal_fields_differ_by_kind(a, b):
    assert a != b and not a == b
    assert a == dataclasses.replace(a) and b == dataclasses.replace(b)


def test_effects_are_unchanged_by_the_steps_that_read_them(monkeypatch):
    # Each effect is recorded as the region machine gets it; by the end of
    # the run wf-eff and the fast path have read it too.
    seen = []
    step_effect = machine.Machine.step_effect

    def recorded(self, eff):
        seen.append((eff, repr(eff)))
        return step_effect(self, eff)

    monkeypatch.setattr(machine.Machine, "step_effect", recorded)
    kinds = set()
    progs = [generate(GenConfig(seed=s, max_depth=8)) for s in range(30)]
    for name in ("explore.rgo", "reenter_open.rgo", "bridge_swap.rgo"):
        progs.append(parse_program((CORPUS / name).read_text()))
    for prog in progs:
        TandemRunner(prog, check="each-step", budget=2_000).run()
    for eff, before in seen:
        kinds.add(type(eff))
        assert repr(eff) == before
        with pytest.raises(AttributeError):
            eff.note = "an effect has no attribute but its fields"
    assert kinds == set(EFFECT_NAMES)


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


def test_a_run_that_ends_on_its_last_budgeted_step_is_not_cut():
    for name, ending in (("listing1.rgo", Verdict.DONE),
                         ("reenter_open.rgo", Verdict.FAILED)):
        prog = parse_program((CORPUS / name).read_text())
        check_program(prog)
        for check in ("off", "final", "each-step"):
            steps = TandemRunner(prog, check=check).run().steps
            res = TandemRunner(prog, check=check, budget=steps).run()
            assert (res.verdict, res.steps) == (ending, steps)
            res = TandemRunner(prog, check=check, budget=steps - 1).run()
            assert (res.verdict, res.steps) == (Verdict.BUDGET, steps - 1)


def test_unknown_check_mode_is_an_error():
    # Raised, not asserted: under python -O an assert would let "each"
    # run unchecked.
    prog = parse_program("class A { }\nlet x = new mut A() in x")
    with pytest.raises(ValueError, match="'each'"):
        TandemRunner(prog, check="each")


def test_final_mode_checks_the_final_state_of_a_failed_run():
    # Seed 4 under shallow-freeze ends badenter after 23 steps, with a
    # final state that each-step rejects at step 4: final must reject it
    # too, whatever the run's own verdict.
    prog = generate(GenConfig(seed=4, max_depth=8))
    bugs = frozenset({"shallow-freeze"})
    off = TandemRunner(prog, check="off", budget=3_000, bugs=bugs).run()
    assert (off.verdict, off.steps, off.detail) == (Verdict.FAILED, 23,
                                                    "badenter")
    final = TandemRunner(prog, check="final", budget=3_000, bugs=bugs).run()
    assert (final.verdict, final.steps, final.detail) == (
        Verdict.VIOLATION, 23, "final state ill-formed")
    assert not final.report["verdict"]
    each = TandemRunner(prog, check="each-step", budget=3_000,
                        bugs=bugs).run()
    assert (each.verdict, each.steps) == (Verdict.VIOLATION, 4)


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
