"""The environment machine against the substituting machine it replaced.

``subst_reference.SubstRunner`` is the reduction semantics read literally;
``TandemRunner`` must emit the same effects, fresh names included, and end
with the same verdict, step count, detail and report.
"""
from pathlib import Path

import pytest

from reggio.command import (TandemRunner, Verdict, binder_count,
                            desugar_program)
from reggio.fuzz import GenConfig, _Tree, _unused_sites, generate
from reggio.machine import KNOWN_BUGS, effect_args, effect_name
from reggio.model import Cap, ClassTable, FunctionTable
from reggio.syntax import Let, New, Program, Use, parse_program, pretty_expr
from reggio.typecheck import check_program

from subst_reference import SubstRunner

CORPUS = Path(__file__).parent.parent / "corpus"


def _trace(runner_cls, prog, **kw):
    effects = []
    result = runner_cls(
        prog, observer=lambda step, eff, ok: effects.append(
            (effect_name(eff), effect_args(eff))), **kw).run()
    return effects, (result.verdict, result.steps, result.detail,
                     result.report)


def _assert_same(prog, **kw):
    new_effects, new_result = _trace(TandemRunner, prog, **kw)
    old_effects, old_result = _trace(SubstRunner, prog, **kw)
    assert new_effects == old_effects
    assert new_result == old_result
    return new_result


@pytest.mark.parametrize("bug", [None, *sorted(KNOWN_BUGS)])
@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.rgo")),
                         ids=lambda p: p.stem)
def test_corpus_matches_substituting_machine(path, bug):
    prog = desugar_program(parse_program(path.read_text()))
    bugs = frozenset() if bug is None else frozenset({bug})
    for check in ("off", "each-step"):
        _assert_same(prog, check=check, bugs=bugs)


def test_campaign_matches_substituting_machine():
    verdicts = set()
    for seed in range(200):
        prog = generate(GenConfig(seed=seed))
        verdicts.add(_assert_same(prog, check="off", budget=2000)[0])
    # The seeds end in more than one verdict, Done among them.
    assert Verdict.DONE in verdicts and len(verdicts) > 1


def test_call_keeps_fresh_names_in_order():
    src = ("class A { }\n"
           "fn f(a: mut A): mut A { let b = a in "
           "if typetest(b, mut A) { c => c } else { c => c } }\n"
           "let x = new mut A() in let y = (let z = f(x) in z) in "
           "let w = f(y) in w")
    prog = parse_program(src)
    check_program(prog)
    # Each call takes the parameter's name and then skips two, one per
    # binder of f; each let reached under a let frame skips one.
    assert _assert_same(prog)[2] == "w$17"


def test_frames_restore_the_outer_scope():
    # x is shadowed inside a let binding and inside an enter body; after
    # each, x is the outer x$1 again.
    src = ("class A { }\n"
           "class H { h: iso A }\n"
           "let x = new mut A() in\n"
           "let y = (let x = new mut A() in x) in\n"
           "let a = new iso A() in\n"
           "let hol = new mut H(drop a) in\n"
           "let r = enter hol.h [] { z => let x = new iso A() in drop x } in\n"
           "x")
    prog = parse_program(src)
    check_program(prog)
    result = _assert_same(prog, check="each-step")
    assert result[:3] == (Verdict.DONE, 8, "x$1")


def test_failed_enter_under_let_frames():
    # Both enters sit in parenthesized let bindings, so when the inner enter
    # fails, let frames lie above and below the open region's entered frame.
    # They are dropped without a step; the entered frame takes one eps step.
    src = ("class Link2 { }\n"
           "class Holder { h: iso Link2 }\n"
           "let b = new iso Link2() in\n"
           "let hol = new mut Holder(drop b) in\n"
           "let s = (let r = enter hol.h [h2 = hol] { z =>\n"
           "  let q = (let r2 = enter h2.h [] { w =>\n"
           "    let d = new iso Link2() in drop d } in drop r2) in\n"
           "  drop q } in drop r) in\n"
           "drop s")
    prog = parse_program(src)
    check_program(prog)
    effects, result = _trace(TandemRunner, prog, check="each-step")
    assert _assert_same(prog, check="each-step") == result
    assert [name for name, _ in effects[-3:]] == ["enter", "badenter", "eps"]
    assert result[:3] == (Verdict.FAILED, 5, "badenter")


def test_source_names_with_dollar_are_not_captured():
    # x runs as x$1; the substituting machine renamed the later use of x to
    # x$1 and then let the binder x$1 capture it, returning the iso object.
    src = ("class A { }\n"
           "let x = new mut A() in let x$1 = new iso A() in x")
    prog = parse_program(src)
    check_program(prog)
    result = TandemRunner(prog, check="each-step").run()
    assert (result.verdict, result.detail) == (Verdict.DONE, "x$1")


def _chain(n: int) -> Program:
    """let x0 = new mut A() in let x1 = x0 in ... in x(n-1), built bottom up."""
    classes = ClassTable()
    classes.declare("A", [])
    e = Use(f"x{n - 1}")
    for i in range(n - 1, 0, -1):
        e = Let(f"x{i}", Use(f"x{i - 1}"), e)
    main = Let("x0", New(Cap.MUT, "A", ()), e)
    return Program(classes, FunctionTable(), main, ["A"], [])


def test_long_chain_checks_and_runs_without_recursion():
    # 5000 lets are far past the interpreter's recursion limit, so this
    # fails if the checker or the stepper recurses once per let.
    prog = _chain(5000)
    check_program(prog)
    result = TandemRunner(prog, check="off").run()
    assert (result.verdict, result.steps) == (Verdict.DONE, 5000)
    assert result.detail == "x4999$5000"


def test_long_chain_desugars_and_runs():
    # desugar_program walks a let spine in a loop, as the CLI's run and
    # trace do for every program.
    prog = desugar_program(_chain(5000))
    check_program(prog)
    result = TandemRunner(prog, check="off").run()
    assert (result.verdict, result.steps) == (Verdict.DONE, 5000)
    assert result.detail == "x4999$5000"


def test_long_chain_walks_without_recursion():
    # Every walker over the AST finishes on 5000 lets.
    main = _chain(5000).main
    text = pretty_expr(main)
    assert str(main) == text
    assert text.endswith("let x4998 = x4997 in let x4999 = x4998 in x4999")
    assert binder_count(main) == 5000
    assert _unused_sites(main) == ([], [])
    # The let binding x4999 is node 2 * 4999 in preorder.
    shorter = pretty_expr(_Tree.of(main).without(2 * 4999).main)
    assert shorter == text.replace("let x4999 = x4998 in ", "")
