"""Static semantics: rule-named diagnostics and flow-sensitive properties."""
import pytest

from subst_reference import FreshNames, alpha_rename
from reggio.fuzz import GenConfig, generate
from reggio.model import Cap, CapType, CellHead, UnionType
from reggio.syntax import Use, parse_program, parse_type, pretty_program
from reggio.typecheck import (Checker, TypeCheckError, UNDEF, check_program,
                              fresult_keep_iso, merge_contexts)

_PRELUDE = """
class C { }
class D { f: mut C | imm C, g: imm C }
class H { h: iso C }
"""


def _check(src: str):
    return check_program(parse_program(_PRELUDE + src))


def _rule(src: str) -> str:
    with pytest.raises(TypeCheckError) as exc:
        _check(src)
    return exc.value.diagnostic.rule


def _t(src: str):
    return parse_type(src)


def test_main_type_simple():
    assert _check("let x = new mut C() in x") == _t("mut C")


def test_use_keep_rejects_iso_and_var():
    assert _rule("let x = new iso C() in x") == "cmd-ty-use-keep"
    assert _rule("let m = new mut C() in let x = var m in x") \
        == "cmd-ty-use-keep"


def test_use_drop_buries():
    assert _rule("let x = new iso C() in let y = freeze drop x in "
                 "let z = freeze drop x in z") == "cmd-ty-use-drop"


def test_deref_field_rules():
    assert _rule("let x = new iso C() in let y = *x.f in y") \
        == "cmd-ty-deref-field"
    assert _rule("let m = new mut C() in let y = *m.f in y") \
        == "cmd-ty-deref-field"  # C has no field f
    # reading an iso field through a mut receiver is undefined
    assert _rule("let c = new iso C() in let h = new mut H(drop c) in "
                 "let y = *h.h in y") == "cmd-ty-deref-field"


def test_deref_var_rules():
    assert _rule("let m = new mut C() in let y = *m in y") \
        == "cmd-ty-deref-var"
    # iso content cannot be read out of a cell
    assert _rule("let c = new iso C() in let v = var drop c in "
                 "let y = *v in y") == "cmd-ty-deref-var"


def test_assign_rules():
    assert _rule("let i = new iso C() in let m = freeze drop i in "
                 "let x = (m.g := m) in x") == "cmd-ty-assign"
    assert _rule("let m = new mut C() in let n = new mut C() in "
                 "let x = (m := n) in x") == "cmd-ty-assign-var"


def test_assign_field_result_is_old_field_type():
    t = _check("let i = new iso C() in let im = freeze drop i in "
               "let m = new mut C() in let d = new mut D(im, im) in "
               "let old = (d.f := m) in old")
    assert t == _t("mut C | imm C")


def test_assign_var_strong_update():
    t = _check("let m = new mut C() in let v = var m in "
               "let i0 = new iso C() in let im = freeze drop i0 in "
               "let old = (v := im) in old")
    assert t == _t("mut C")


def test_create_var_single_cell():
    prog = parse_program(
        _PRELUDE + "let i = new iso C() in let im = freeze drop i in "
        "let m = new mut C() in "
        "let x = (if typetest(m, imm C) { y => y } else { y => y }) in "
        "let v = var x in drop v")
    # `var u` wraps the whole union in one cell (no distribution)
    checker = Checker(prog.classes, prog.functions)
    t, _ = checker.check_expr({}, prog.main)
    assert t == CapType(Cap.VAR, CellHead(
        UnionType(_t("imm C"), _t("mut C"))))


def test_new_rules():
    assert _rule("let x = new mut Nope() in x") == "cmd-ty-new"
    assert _rule("let x = new paused C() in x") == "cmd-ty-new"
    assert _rule("let x = new mut D() in x") == "cmd-ty-new"  # arity
    assert _rule("let m = new mut C() in let x = new iso H(m) in x") \
        == "cmd-ty-new"  # iso ctor args must be iso/imm
    assert _rule("let m = new mut C() in "
                 "let x = new mut H(m) in x") == "cmd-ty-new"  # subtype


def test_freeze_merge_rules():
    assert _rule("let m = new mut C() in let x = freeze m in x") \
        == "cmd-ty-freeze"
    assert _rule("let m = new mut C() in let x = merge m in x") \
        == "cmd-ty-merge"


def test_enter_field_rules():
    assert _rule("let c = new iso C() in let h = new mut H(drop c) in "
                 "let x = enter h.h [] { z => z } in x") == "cmd-ty-enter"
    # body must return iso/imm
    assert _rule(
        "let c = new iso C() in let h = new mut H(drop c) in "
        "let x = enter h.h [] { z => let m = new mut C() in m } in x") \
        == "cmd-ty-enter"
    # entering a non-iso field
    assert _rule("let i = new iso C() in let im = freeze drop i in "
                 "let d = new mut D(im, im) in "
                 "let x = enter d.g [] { z => z } in x") == "cmd-ty-enter"


def test_enter_var_rules():
    # target must hold an iso
    assert _rule("let m = new mut C() in let v = var m in "
                 "let x = enter v [] { z => z } in x") == "cmd-ty-enter-var"


def _diag(src: str) -> tuple[str, str]:
    with pytest.raises(TypeCheckError) as exc:
        _check(src)
    return exc.value.diagnostic.rule, exc.value.diagnostic.msg


_HOLDER = "let c = new iso C() in let h = new mut H(drop c) in "
_CELL = "let c = new iso C() in let v = var drop c in "
_ISO = "let r = new iso C() in drop r"


def test_enter_block_end_premises():
    # Each premise checked at the end of a block that a program can fail,
    # in both forms: the result, and the binder.
    assert _diag(_HOLDER + "let x = enter h.h [] { z => "
                 "let m = new mut C() in m } in x") == (
        "cmd-ty-enter", "the block may only return iso's and imm's, got "
        "mut C")
    assert _diag(_HOLDER + "let x = enter h.h [] { z => "
                 f"let d = drop z in {_ISO} }} in x") == (
        "cmd-ty-enter",
        "the binding of z must be unchanged at the end of the block")
    assert _diag(_CELL + "let x = enter v [] { z => "
                 "let m = new mut C() in m } in x") == (
        "cmd-ty-enter-var", "the block may only return iso's and imm's, "
        "got mut C")
    assert _diag(_CELL + "let x = enter v [] { z => "
                 f"let d = drop z in {_ISO} }} in x") == (
        "cmd-ty-enter-var",
        "the ref cell z must remain bound at the end of the block")


def test_enter_var_out_binding():
    # The cell's final mut content is its iso again after the block.
    src = ("class C { } class D { } " + _CELL +
           "let x = enter v [] { z => let m = new mut D() in "
           f"let o = (z := m) in {_ISO} }} in "
           "let y = enter v [] { z => let o = *z in "
           f"{_ISO} }} in drop v")
    assert check_program(parse_program(src)) == _t("var Cell[iso D]")


def test_capture_suspension():
    # mut captures appear paused inside the block
    src = ("let c = new iso C() in let h = new mut H(drop c) in "
           "let m = new mut C() in "
           "let x = enter h.h [k = m] { z => "
           "let w = (z.val := k) in let r = new iso C() in drop r } in x")
    assert _rule(src) == "cmd-ty-assign"  # paused k is not <: mut C


def test_capture_of_var_is_rejected_as_paused_location():
    src = ("let c = new iso C() in let h = new mut H(drop c) in "
           "let m = new mut C() in let v = var m in "
           "let x = enter h.h [k = drop v] { z => "
           "let r = new iso C() in drop r } in x")
    with pytest.raises(TypeCheckError) as exc:
        _check(src)
    assert exc.value.diagnostic.rule == "cmd-ty-enter"
    assert "the v storage location is paused" in exc.value.diagnostic.msg


def test_enter_var_adjacent_assign():
    src = ("let c = new iso C() in let v = var drop c in "
           "let m = new mut C() in "
           "let x = enter v [k = m] { z => "
           "let o = (z := k) in let r = new iso C() in drop r } in x")
    with pytest.raises(TypeCheckError) as exc:
        _check(src)
    d = exc.value.diagnostic
    assert d.rule == "cmd-ty-assign-var-adjacent"
    assert "rejected: k is paused C, not mut C" in d.msg


def test_typetest_rules():
    assert _rule("let m = new mut C() in let x = "
                 "(if typetest(m, mut Nope) { y => y } else { y => y }) "
                 "in x") == "cmd-ty-typetest"


def test_diagnostic_render_format():
    with pytest.raises(TypeCheckError) as exc:
        _check("let x = new iso C() in x")
    line = exc.value.diagnostic.render("file.rgo")
    import re
    assert re.match(r"^file\.rgo:\d+:\d+: error\[[a-z-]+\]: ", line)


def test_fresult_keep_iso():
    prog = parse_program(_PRELUDE + "let x = new mut C() in x")
    cls = prog.classes
    assert fresult_keep_iso(_t("mut H"), "h", cls) == _t("iso C")
    assert fresult_keep_iso(_t("paused H"), "h", cls) == _t("iso C")
    assert fresult_keep_iso(_t("var Cell[iso C]"), "val", cls) \
        == _t("iso C")
    # imm is not an open capability: the iso leaf stays unreadable
    assert fresult_keep_iso(_t("imm H"), "h", cls) == _t("imm C")


def test_merge_contexts_undef_absorbs():
    g = merge_contexts({"x": _t("mut C"), "y": UNDEF},
                       {"x": _t("imm C"), "y": _t("mut C")})
    assert g["x"] == UnionType(_t("mut C"), _t("imm C"))
    assert g["y"] is UNDEF
    with pytest.raises(ValueError):
        merge_contexts({"x": _t("mut C")}, {})


def test_let_spine_drops_leave_the_callers_context():
    # A let spine drops from its own copy of the context, in place; the
    # context it was given stays as it was.
    prog = parse_program(_PRELUDE + "let b = drop a in "
                         "let c = freeze drop b in c")
    checker = Checker(prog.classes, prog.functions)
    gamma = {"a": _t("iso C")}
    t, g_out = checker.check_expr(gamma, prog.main)
    assert t == _t("imm C")
    assert gamma == {"a": _t("iso C")}
    assert g_out == {"a": UNDEF}


def _checker() -> Checker:
    prog = parse_program(_PRELUDE + "let m = new mut C() in m")
    return Checker(prog.classes, prog.functions)


def test_check_use_drop_buries_in_the_context_it_is_given():
    # A rule writes the context it is handed: the drop buries the name in
    # the caller's own dict.
    gamma = {"a": _t("iso C"), "m": _t("mut C")}
    t, g_out = _checker().check_use(gamma, Use("a", True))
    assert t == _t("iso C")
    assert g_out is gamma
    assert gamma == {"a": UNDEF, "m": _t("mut C")}


def test_exit_context_var_form_writes_the_context_it_is_given():
    # Leaving enter v, the cell's final mut content goes back into v as
    # iso, in the dict enter_context was given.
    gamma = {"v": _t("var Cell[iso C]")}
    g_out = _checker().exit_context(gamma, {"z": _t("var Cell[mut D]")},
                                    _t("iso C"), "z", "v", None, (0, 0))
    assert g_out is gamma
    assert gamma == {"v": _t("var Cell[iso D]")}


# -- properties over generated programs ----------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_alpha_conversion_preserves_type(seed):
    prog = generate(GenConfig(seed=seed))
    t1 = check_program(prog)
    renamed = alpha_rename(prog.main, FreshNames(), {})
    prog2 = parse_program(pretty_program(prog))
    prog2.main = renamed
    assert check_program(prog2) == t1


@pytest.mark.parametrize("seed", range(15))
def test_weakening_with_unused_binding(seed):
    from reggio.syntax import Let, New
    prog = generate(GenConfig(seed=seed))
    t1 = check_program(prog)
    prog2 = parse_program(pretty_program(prog))
    prog2.main = Let("unused~w", New(Cap.MUT, "A", ()), prog2.main)
    assert check_program(prog2) == t1
