"""Program generator, differential soundness runs, shrinking, campaigns."""
import pytest

from dataclasses import replace
from pathlib import Path

from reggio import cli, fuzz
from reggio.command import TandemRunner, Verdict
from reggio.fuzz import (CampaignResult, GenConfig, _Tree, _prune_decls,
                         _unused_sites, campaign, generate, shrink,
                         soundness_run)
from reggio.machine import KNOWN_BUGS
from reggio.model import Cap, ClassName, FunctionTable, cap_not_in, leaves
from reggio.syntax import (Assign, Call, Deref, Enter, Freeze, Let, LVal,
                           Merge, New, TypeTest, Use, VarAlloc, parse_program,
                           parse_type, pretty_expr, pretty_program, rebuild,
                           walk)
from reggio.typecheck import (Checker, Diagnostic, TypeCheckError,
                              check_program)

GOLDEN = Path(__file__).parent / "golden"


def _count(e, kind) -> int:
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            n += 1
        if isinstance(node, Let):
            stack += [node.binding, node.body]
        elif isinstance(node, Enter):
            stack.append(node.body)
            stack += [u for _, u in node.captures]
    return n


def test_generated_programs_typecheck():
    for depth in (1, 4, 8):
        for seed in range(40):
            prog = generate(GenConfig(seed=seed, max_depth=depth))
            check_program(prog)  # raises on failure


def test_generation_needs_no_whole_program_check(monkeypatch):
    # The generator types each statement as it emits it; the checker's
    # whole-program pass only confirms the result.
    def refuse(prog):
        raise AssertionError("generate called check_program")

    monkeypatch.setattr(fuzz, "check_program", refuse)
    for depth in (1, 4, 8):
        for seed in range(50):
            prog = generate(GenConfig(seed=seed, max_depth=depth))
            check_program(prog)  # the checker's own, not patched


def test_menu_always_offers_a_constructor_argument():
    # Asks the premises the generator draws through.  Every leaf of a field
    # names a class, and for each capability new takes, cmd-ty-new takes
    # some leaf of each field, so every class can be built.  No class has
    # two fields with a leaf that cmd-ty-use-keep cannot keep, so a drawn
    # drop is taken by the next statement the generator emits.
    checker = Checker(fuzz._menu_classes(), FunctionTable())
    for cls, fields in fuzz._MENU:
        drops = 0
        for fname, src in fields:
            lfs = list(leaves(parse_type(src)))
            assert all(isinstance(lf.head, ClassName) for lf in lfs), fname
            for cap in (Cap.MUT, Cap.TMP, Cap.ISO):
                assert any(checker.new_arg(cap, lf) for lf in lfs), (
                    cls, fname, cap)
            drops += any(not checker.keeps(lf) for lf in lfs)
        assert drops <= 1, cls


def test_a_generator_fault_raises_from_the_one_attempt(monkeypatch, capsys):
    # A rule that refuses a generated statement means the generator drew
    # what the rules do not allow: generate builds the program once and
    # raises, and reggio fuzz reports it as an internal error.
    attempts = []
    program = fuzz._Gen.program

    def counted(gen):
        attempts.append(gen)
        return program(gen)

    def refuse(self, gamma, e, adjacent=frozenset()):
        raise TypeCheckError(Diagnostic("cmd-ty-new", "refused", (0, 0)))

    monkeypatch.setattr(fuzz._Gen, "program", counted)
    monkeypatch.setattr(Checker, "check_expr", refuse)
    with pytest.raises(TypeCheckError):
        generate(GenConfig(seed=3))
    assert len(attempts) == 1
    assert cli.main(["fuzz", "--seeds", "1"]) == cli.EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


# Single-rule weakenings of the checker (ROADMAP item 14's faults, and one
# of cmd-ty-assign-var-adjacent), each a patch of the premise that the rule
# calls and the generator draws through, with the rules by which the
# shipped checker rejects the weakened form.  deref-iso-receiver has no
# row: fresult already refuses a read through an iso, so weakening the
# receiver premise changes nothing.
_FAULTS = {
    "use-keep-iso": ("keeps", lambda self, t: cap_not_in({Cap.VAR}, t),
                     {"cmd-ty-use-keep"}),
    "freeze-any": ("freezes", lambda self, t: True, {"cmd-ty-freeze"}),
    "new-iso-any-arg": ("new_arg", lambda self, cap, t_a: True,
                        {"cmd-ty-new"}),
    "assign-any-receiver": ("writes_through", lambda self, t_x: True,
                            {"cmd-ty-assign"}),
    "exit-any-result": ("exits", lambda self, t: True,
                        {"cmd-ty-enter", "cmd-ty-enter-var"}),
    "assign-var-adjacent-any": ("bridges", lambda self, t_u: True,
                                {"cmd-ty-assign-var-adjacent"}),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_weakened_rule_reaches_the_generated_programs(fault):
    # The generator draws operands through the checker's own premises, so
    # under a weakened rule it generates, within seeds 0-199, a program
    # that the shipped rules reject by that rule.
    premise, weak, rules = _FAULTS[fault]
    for seed in range(200):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Checker, premise, weak)
            prog = generate(GenConfig(seed=seed, max_depth=8))
        try:
            check_program(prog)
        except TypeCheckError as exc:
            assert exc.diagnostic.rule in rules, (seed, exc)
            return
    pytest.fail(f"no program of seeds 0-199 reaches {fault}")


@pytest.mark.parametrize("fault", ["freeze-any", "exit-any-result"])
def test_a_weakened_rule_never_draws_a_drop_of_the_enter_var_binder(fault):
    # A weakened freeze or block result takes a var cell, but the generator
    # never drops the enter-var binder, which the exit rule needs bound:
    # every seed generates a program.
    premise, weak, _ = _FAULTS[fault]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Checker, premise, weak)
        for seed in range(200):
            generate(GenConfig(seed=seed, max_depth=8))


def test_generation_is_deterministic():
    a = pretty_program(generate(GenConfig(seed=7)))
    b = pretty_program(generate(GenConfig(seed=7)))
    assert a == b


def test_depth_one_is_a_single_allocation():
    prog = generate(GenConfig(seed=0, max_depth=1))
    assert isinstance(prog.main, Let)
    assert isinstance(prog.main.binding, New)
    assert _count(prog.main, Let) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=0)


def test_coverage_enter_and_freeze_or_merge():
    hits = 0
    n = 60
    for seed in range(n):
        prog = generate(GenConfig(seed=seed))
        if (_count(prog.main, Enter)
                and (_count(prog.main, Freeze) or _count(prog.main, Merge))):
            hits += 1
    assert hits / n >= 0.30


def test_soundness_run_done_and_budget():
    prog = generate(GenConfig(seed=3))
    verdict, _ = soundness_run(prog, budget=10_000, bugs=frozenset())
    assert verdict in (Verdict.DONE, Verdict.FAILED, Verdict.BUDGET)
    # a trivial program finishes
    trivial = parse_program("class A { }\nlet x = new mut A() in x")
    check_program(trivial)
    verdict, _ = soundness_run(trivial, budget=100, bugs=frozenset())
    assert verdict is Verdict.DONE


def test_shrink_keeps_non_trigger_untouched():
    # With no planted bug, no run trips.
    prog = generate(GenConfig(seed=5))
    out = shrink(prog, 10_000, frozenset())
    assert pretty_program(out) == pretty_program(prog)


# The shrinker's sites by their first definition: one _names_in scan of
# the body per let and per enter.  It is quadratic in the program's length,
# and kept here as the oracle for fuzz._unused_sites.

def _names_in(e) -> set[str]:
    out: set[str] = set()

    def walk(x) -> None:
        if isinstance(x, (Use, LVal)):
            out.add(x.name)
        elif isinstance(x, Deref):
            walk(x.target)
        elif isinstance(x, Assign):
            walk(x.target)
            walk(x.use)
        elif isinstance(x, (VarAlloc, Freeze, Merge)):
            walk(x.use)
        elif isinstance(x, (New, Call)):
            for a in x.args:
                walk(a)
        elif isinstance(x, Enter):
            walk(x.target)
            for _, u in x.captures:
                walk(u)
            walk(x.body)
        elif isinstance(x, Let):
            walk(x.binding)
            walk(x.body)
        elif isinstance(x, TypeTest):
            walk(x.use)
            walk(x.then)
            walk(x.els)

    walk(e)
    return out


def _sites_by_rescan(e):
    let_sites: list[int] = []
    capture_sites: list[tuple[int, int]] = []
    count = [0]  # the nodes numbered so far, in preorder

    def walk(x) -> None:
        here = count[0]
        count[0] += 1
        if isinstance(x, Let):
            if x.name not in _names_in(x.body):
                let_sites.append(here)
            walk(x.binding)
            walk(x.body)
        elif isinstance(x, Enter):
            used = _names_in(x.body)
            for i, (y, _u) in enumerate(x.captures):
                if y not in used:
                    capture_sites.append((here, i))
            walk(x.body)
        elif isinstance(x, TypeTest):
            walk(x.then)
            walk(x.els)

    walk(e)
    return let_sites, capture_sites


def test_unused_sites_match_rescan_oracle():
    found = [0, 0]
    for seed in range(200):
        main = generate(GenConfig(seed=seed)).main
        lets, captures = _unused_sites(main)
        assert (lets, captures) == _sites_by_rescan(main), seed
        found[0] += len(lets)
        found[1] += len(captures)
    # Both kinds of site occur, so the comparison is not vacuous.
    assert min(found) > 0


def test_unused_sites_with_reused_names():
    # The generator never reuses a name; here a let's binding, an enter's
    # target and its capture uses mention the binder being asked about.
    src = ("class A { }\nclass H { h: iso A }\n"
           "let a = new mut A() in let a = a in let b = a in "
           "let h = new mut H(drop a) in "
           "let r = enter h.h [h = h, k = b, b = k] { z => let k = k in a } "
           "in if typetest(r, mut A) { y => let y = y in y } "
           "else { y => let u = u in b }")
    main = parse_program(src).main
    assert _unused_sites(main) == _sites_by_rescan(main)
    assert _unused_sites(main) == ([10, 17], [(9, 0), (9, 2)])


# The shrinker's removals by their first definition: a rebuild pass that
# visits every node of the tree.  Kept here as the oracle for the
# shrinker's _Tree.without, which copies only the path from the root to the
# site.

def _remove_let_by_rebuild(e, target):
    return rebuild(e, lambda x, i: x.body if i == target else x)


def _remove_capture_by_rebuild(e, target):
    enter, k = target

    def visit(x, i):
        if i != enter:
            return x
        return replace(x, captures=x.captures[:k] + x.captures[k + 1:])

    return rebuild(e, visit)


def _subtree_ends(e):
    """Each node's preorder index -> the index of its subtree's last node."""
    ends, last = {}, -1
    for _, index, kids, k in walk(e):
        last = max(last, index)
        if k == len(kids):
            ends[index] = last
    return ends


def test_path_copy_removal_matches_rebuild_oracle():
    removed = [0, 0]
    for seed in range(100):
        main = generate(GenConfig(seed=seed)).main
        tree = _Tree.of(main)
        lets, captures = tree.lets, tree.captures
        nodes = {index: x for x, index, _, k in walk(main) if k == 0}
        ends = _subtree_ends(main)
        for site in lets + captures:
            got = tree.without(site).main
            if isinstance(site, int):
                target = site
                want = _remove_let_by_rebuild(main, site)
                # The let and its binding leave the tree; nothing is new
                # but the copied path.
                gone = set(range(target, ends[target + 1] + 1))
                made = 0
                removed[0] += 1
            else:
                target = site[0]
                want = _remove_capture_by_rebuild(main, site)
                gone, made = {target}, 1  # the enter, remade
                removed[1] += 1
            assert pretty_expr(got) == pretty_expr(want), (seed, site)
            path = {i for i in nodes if i < target and ends[i] >= target}
            got_ids = {id(x) for x, _, _, k in walk(got) if k == 0}
            old_ids = {id(x) for x in nodes.values()}
            # Every subtree off the path is shared by identity, and only
            # the path is copied.
            assert all(id(x) in got_ids for i, x in nodes.items()
                       if i not in path and i not in gone), (seed, site)
            assert len(got_ids - old_ids) == len(path) + made, (seed, site)
    assert min(removed) > 0


def test_incremental_sites_match_a_full_pass_in_the_hunts(monkeypatch):
    """After every accepted removal of the 18 pinned hunts (start seeds 0,
    1000 and 2000, each planted bug), the sites and nodes the shrinker
    derives from the parent's are those of a pass over the new main."""
    add = fuzz._Tree.add_freed_sites
    seen = [0, 0]  # accepted removals, and those that freed a site

    def checked(tree):
        before = len(tree.lets) + len(tree.captures)
        add(tree)
        assert (tree.lets, tree.captures) == _unused_sites(tree.main)
        nodes = [x for x, _, _, k in walk(tree.main) if k == 0]
        assert len(nodes) == len(tree.nodes)
        assert all(a is b for a, b in zip(nodes, tree.nodes))
        seen[0] += 1
        seen[1] += len(tree.lets) + len(tree.captures) > before

    monkeypatch.setattr(fuzz._Tree, "add_freed_sites", checked)
    for seed in (0, 1000, 2000):
        for bug in sorted(KNOWN_BUGS):
            res = campaign(1000, GenConfig(seed=seed), budget=10_000,
                           bugs=frozenset({bug}))
            assert res.counterexample is not None
    assert seen[0] > 500 and seen[1] > 0


def _kept_decls(prog):
    return prog.class_order, prog.fn_order


def test_used_decls_follow_every_leaf_of_a_union():
    prog = parse_program("class A { f: iso Cell[mut A] | imm B }\n"
                         "class B { }\nlet a = new mut A() in a")
    assert _kept_decls(_prune_decls(prog)) == (["A", "B"], [])


def test_used_decls_follow_a_callee_declared_earlier():
    # g, the only user of A, is declared before its caller f.
    prog = parse_program(
        "class A { } class B { } "
        "fn g(): mut A { let a = new mut A() in a } "
        "fn f(): mut B { let x = g() in let b = new mut B() in b } "
        "let c = f() in c")
    check_program(prog)
    pruned = _prune_decls(prog)
    assert _kept_decls(pruned) == (["A", "B"], ["g", "f"])
    check_program(pruned)


def test_pruning_drops_what_only_an_unused_declaration_names():
    # C, used by nothing, is declared before D, which only C names: the
    # first pass keeps D, which C still needs, and the second drops it.
    prog = parse_program("class C { d: imm D } class D { } class A { }\n"
                         "fn h(): mut A { let a = new mut A() in a }\n"
                         "let a = new mut A() in a")
    assert _kept_decls(_prune_decls(prog)) == (["A"], [])


def test_pruning_keeps_a_cycle_of_unused_declarations():
    # Neither class of the cycle type checks without the other, so neither
    # can go first.  The generator's class menu has no cycle.
    prog = parse_program("class C { d: imm D } class D { c: imm C }\n"
                         "class A { }\nlet a = new mut A() in a")
    assert _kept_decls(_prune_decls(prog)) == (["C", "D", "A"], [])


def _without_decl(prog, name):
    """prog's source without the declaration of name."""
    kept = [ln for ln in pretty_program(prog).splitlines()
            if not ln.startswith((f"class {name} ", f"fn {name}("))]
    return "\n".join(kept)


@pytest.mark.parametrize("bug", sorted(KNOWN_BUGS))
def test_shrunk_witnesses_keep_only_declarations_they_need(bug):
    # Each planted bug's shrunk witness type checks, and refuses to once
    # any one of its declarations is removed.
    prog = parse_program((GOLDEN / f"{bug}.witness").read_text())
    check_program(prog)
    for name in prog.class_order + prog.fn_order:
        with pytest.raises(TypeCheckError):
            check_program(parse_program(_without_decl(prog, name)))


_EXIT_KEEP_TEMPS = frozenset({"exit-keep-temps"})


def _triggers_exit_keep_temps(p) -> bool:
    try:
        check_program(p)
    except Exception:
        return False
    v, _ = soundness_run(p, budget=10_000, bugs=_EXIT_KEEP_TEMPS)
    return v in (Verdict.STUCK, Verdict.VIOLATION)


def test_shrink_planted_bug_to_small_witness():
    # find a generated program that trips the leaked-temps mutant, then
    # shrink it below ten bindings
    found = None
    for seed in range(200):
        prog = generate(GenConfig(seed=seed))
        if _triggers_exit_keep_temps(prog):
            found = prog
            break
    assert found is not None
    small = shrink(found, 10_000, _EXIT_KEEP_TEMPS)
    assert _triggers_exit_keep_temps(small)
    assert _count(small.main, Let) < 10


def test_shrink_predicate_sees_only_typed_programs(monkeypatch):
    # Every program shrink runs has type checked.
    found = next(p for p in (generate(GenConfig(seed=s)) for s in range(200))
                 if _triggers_exit_keep_temps(p))
    ill_typed = []
    runs = []

    def checked_run(p, *args):
        try:
            check_program(p)
        except TypeCheckError:
            ill_typed.append(pretty_program(p))
        runs.append(p)
        return soundness_run(p, *args)

    monkeypatch.setattr(fuzz, "soundness_run", checked_run)
    small = shrink(found, 10_000, _EXIT_KEEP_TEMPS)
    assert ill_typed == []
    assert len(runs) > 1
    assert _count(small.main, Let) < _count(found.main, Let)


def test_campaign_clean_machine_summary():
    res = campaign(25, GenConfig(seed=100), budget=10_000, bugs=frozenset())
    assert isinstance(res, CampaignResult)
    assert res.runs == 25
    assert res.abort_seed is None
    assert res.counterexample is None
    assert res.done + res.failed + res.budget_outs == 25
    assert "0 stuck, 0 violations" in res.summary()


def test_campaign_buggy_machine_aborts_with_counterexample():
    res = campaign(1000, GenConfig(seed=0), budget=10_000,
                   bugs=frozenset({"shallow-freeze"}))
    assert res.abort_seed is not None
    assert res.counterexample is not None
    assert res.summary().startswith("ABORT")
    # the counterexample is a self-contained, well-typed reproducer
    reproduced = parse_program(res.counterexample)
    check_program(reproduced)
    v = TandemRunner(reproduced, check="each-step", budget=10_000,
                     bugs=frozenset({"shallow-freeze"})).run().verdict
    assert v in (Verdict.STUCK, Verdict.VIOLATION)
