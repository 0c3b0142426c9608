"""The each-step fast path of check_config_wf against the brute-force spec.

``Fragments.passes`` must pass exactly the configurations the spec finds
well formed: a pass the spec refutes would hide a violation, and a refusal
the spec overturns means the summaries went stale.
"""
from pathlib import Path

import pytest

from reggio import invariants
from reggio.command import TandemRunner, Verdict, desugar_program
from reggio.fuzz import GenConfig, generate
from reggio.invariants import Fragments, GraphError, Temp, check_config_wf
from reggio.machine import (CLOSED, EFFECT_NAMES, FROZEN, KNOWN_BUGS,
                            V_UNDEF, Bind, EnterEff, Eps, FreezeEff, Halloc,
                            Machine, Object, Salloc, Swap)
from reggio.model import Cap, ClassTable
from reggio.syntax import Use, parse_program, parse_type

CORPUS = Path(__file__).parent.parent / "corpus"


class Lockstep(Fragments):
    """Fragments that also run the spec on every configuration they see
    and record each step where the two verdicts differ."""

    def __init__(self) -> None:
        super().__init__()
        self.checks = 0
        self.mismatches: list[tuple[int, str, bool, bool]] = []

    def passes(self, gammas, m) -> bool:
        try:
            fast = super().passes(gammas, m)
        except GraphError:
            fast = False
        spec = check_config_wf(gammas, m)["verdict"]
        self.checks += 1
        if fast != spec:
            self.mismatches.append(
                (self.checks, type(self.effect).__name__, fast, spec))
        return fast


def _lockstep(prog, bugs: frozenset[str], budget: int):
    runner = TandemRunner(prog, check="each-step", budget=budget, bugs=bugs)
    runner.fragments = Lockstep()
    result = runner.run()
    return result, runner.fragments


@pytest.mark.parametrize("bug", [None, *sorted(KNOWN_BUGS)])
def test_fast_path_agrees_with_spec_at_every_step(bug):
    """Every corpus program and campaign seeds 0-199 (budget 2,000), with
    no bug and with each planted bug."""
    bugs = frozenset() if bug is None else frozenset({bug})
    progs = [(p.stem, desugar_program(parse_program(p.read_text())))
             for p in sorted(CORPUS.glob("*.rgo"))]
    progs += [(f"seed {s}", generate(GenConfig(seed=s, max_depth=8)))
              for s in range(200)]
    checks = 0
    verdicts = set()
    for name, prog in progs:
        result, state = _lockstep(prog, bugs, budget=2000)
        assert not state.mismatches, (name, state.mismatches[:3])
        checks += state.checks
        verdicts.add(result.verdict)
    assert checks > len(progs)
    if bug is not None:
        assert Verdict.VIOLATION in verdicts


def _classes() -> ClassTable:
    t = ClassTable()
    t.declare("C", [])
    t.declare("H", [("h", parse_type("iso C"))])
    t.declare("B", [("f", parse_type("imm C"))])
    return t


def _check(m: Machine, state: Lockstep, eff) -> dict:
    state.effect = eff
    report = check_config_wf([{}], m, state)
    assert not state.mismatches
    return report


def test_write_to_untouched_store_is_rechecked():
    """A swap re-checks the store of the object it writes, though the
    step touches nothing else there."""
    m, state = Machine(_classes()), Lockstep()
    for eff in (Salloc("t", Cap.TMP, "C", ()),
                Halloc("c", Cap.ISO, "C", ()),
                FreezeEff("i", Use("c", True)),
                Halloc("b", Cap.MUT, "B", (Use("i"),))):
        m.step_effect(eff)
        assert _check(m, state, eff)["verdict"]
    # b.f := t stores a tmp ref in a heap object of region 0.
    eff = Swap("old", "b", "f", Use("t"))
    m.step_effect(eff)
    assert not _check(m, state, eff)["verdict"]
    assert state.checks == 5


def test_region_change_rechecks_refs_into_it():
    """A region that changes state is re-checked from the fragments that
    refer into it, though the step touches none of them."""
    m, state = Machine(_classes()), Lockstep()
    for eff in (Halloc("c", Cap.ISO, "C", ()),
                Halloc("h", Cap.MUT, "H", (Use("c", True),))):
        m.step_effect(eff)
        assert _check(m, state, eff)["verdict"]
    # Freeze c's region behind h's back: h.h is an iso ref from the open
    # region 0 into a frozen region.
    (r,) = [r for r, region in m.regions.items() if region.state == CLOSED]
    m.regions[r].state = FROZEN
    report = _check(m, state, Eps())
    assert not report["verdict"]
    assert report == check_config_wf([{}], m)


def test_entry_chain_is_rechecked():
    """An entered region's entry-point chain is checked again when the
    frame below it changes: here its root edge to the bridge object."""
    m, state = Machine(_classes()), Lockstep()
    gammas = [{}]
    for eff in (Halloc("c", Cap.ISO, "C", ()),
                Halloc("h", Cap.MUT, "H", (Use("c", True),))):
        m.step_effect(eff)
        state.effect = eff
        assert check_config_wf(gammas, m, state)["verdict"]
    eff = EnterEff("w", Cap.TMP, "h", "h", (("z", Use("h")),))
    m.step_effect(eff)
    gammas.append({})
    m.frames[0].vars["h"] = V_UNDEF  # only the paused z still reaches h
    state.effect = eff
    report = check_config_wf(gammas, m, state)
    assert [v["predicate"] for v in report["violations"]] == [
        "entrypoints_ok"]
    assert not state.mismatches


def test_var_unique_spans_refs():
    """Two refs into one var cell, left by a drop that does not bury."""
    m, state = Machine(_classes(), frozenset({"skip-bury"})), Lockstep()
    steps = (Halloc("c", Cap.MUT, "C", ()),
             Salloc("v", Cap.VAR, "Cell", (Use("c"),)),
             Bind((("u", Use("v", True)),)))
    for eff in steps:
        m.step_effect(eff)
        report = _check(m, state, eff)
    assert [v["predicate"] for v in report["violations"]] == ["var_unique"]
    assert state.checks == 3


def test_external_ref_moves_between_fragments():
    """An external ref into a region leaves one fragment, and on the next
    step another fragment gains one.  The running total must drop the
    first, or the second step reads as two refs into the region."""
    m, state = Machine(_classes()), Lockstep()
    eff = Halloc("c", Cap.ISO, "C", ())
    m.step_effect(eff)
    assert _check(m, state, eff)["verdict"]
    _, iota = m.frames[0].vars["c"]
    # The frame gives up its one ref into c's region ...
    m.frames[0].vars["c"] = V_UNDEF
    assert _check(m, state, Eps())["verdict"]
    # ... and region 0's store gains one on the next step.
    m.regions[0].store[m.fresh_iota()] = Object("H", {"h": (Cap.ISO, iota)})
    assert _check(m, state, Halloc("h", Cap.MUT, "H", ()))["verdict"]
    assert state.checks == 3


def test_second_external_ref_beside_untouched_one():
    """A second external ref into a region appears in a fragment the step
    extracts again, while the first sits in one the step does not touch."""
    m, state = Machine(_classes()), Lockstep()
    for eff in (Halloc("c", Cap.ISO, "C", ()),
                Halloc("h", Cap.MUT, "H", (Use("c", True),))):
        m.step_effect(eff)
        assert _check(m, state, eff)["verdict"]
    # h.h, in region 0's store, is the one external ref into c's region.
    _, iota_h = m.frames[0].vars["h"]
    _, iota = m.regions[0].store[iota_h].fields["h"]
    m.frames[0].vars["d"] = (Cap.ISO, iota)
    report = _check(m, state, Eps())
    assert [v["predicate"] for v in report["violations"]] == ["topology_ok"]


def test_paused_ref_into_var_cell_of_frame_below():
    """A paused ref from the top frame into the var cell of the frame below
    is a second ref into the cell: var_unique spans frames."""
    m, state = Machine(_classes()), Lockstep()
    gammas = [{}]
    for eff in (Halloc("a", Cap.MUT, "C", ()),
                Salloc("v", Cap.VAR, "Cell", (Use("a"),)),
                Halloc("c", Cap.ISO, "C", ()),
                Halloc("h", Cap.MUT, "H", (Use("c", True),)),
                EnterEff("w", Cap.TMP, "h", "h", ())):
        m.step_effect(eff)
        if isinstance(eff, EnterEff):
            gammas.append({})
        state.effect = eff
        assert check_config_wf(gammas, m, state)["verdict"]
    _, iota_v = m.frames[0].vars["v"]
    m.frames[1].vars["p"] = (Cap.PAUSED, iota_v)
    state.effect = Eps()
    report = check_config_wf(gammas, m, state)
    assert [v["predicate"] for v in report["violations"]] == ["var_unique"]
    assert not state.mismatches


def test_new_context_retypes_untouched_frame():
    """A frame the step did not touch is typed again when its context is
    not the one the last check saw."""
    m, state = Machine(_classes()), Lockstep()
    gammas = [{}]
    for eff in (Halloc("c", Cap.ISO, "C", ()),
                Halloc("h", Cap.MUT, "H", (Use("c", True),)),
                EnterEff("w", Cap.TMP, "h", "h", ())):
        m.step_effect(eff)
        if isinstance(eff, EnterEff):
            gammas.append({})
        state.effect = eff
        assert check_config_wf(gammas, m, state)["verdict"]
    # The bottom frame binds h to an H object; a new context types it C.
    gammas[0] = {"h": parse_type("mut C")}
    state.effect = Eps()
    assert not check_config_wf(gammas, m, state)["verdict"]
    assert not state.mismatches


def _three_frames(prefix, captures=()) -> tuple:
    """(machine, Lockstep, contexts) stepped, and checked, through prefix
    in frame 0, then two enters: frame 1 (c's region) through h.h,
    capturing h2 as the paused z and any other captures, and frame 2
    (c2's region) through z.h."""
    m, state = Machine(_classes()), Lockstep()
    gammas = [{}]
    steps = (*prefix,
             Halloc("c", Cap.ISO, "C", ()),
             Halloc("h", Cap.MUT, "H", (Use("c", True),)),
             Halloc("c2", Cap.ISO, "C", ()),
             Halloc("h2", Cap.MUT, "H", (Use("c2", True),)),
             EnterEff("w", Cap.TMP, "h", "h", (("z", Use("h2")), *captures)),
             EnterEff("w2", Cap.TMP, "z", "h", ()))
    for eff in steps:
        m.step_effect(eff)
        if isinstance(eff, EnterEff):
            gammas.append({})
        state.effect = eff
        assert check_config_wf(gammas, m, state)["verdict"]
    assert len(m.frames) == 3
    return m, state, gammas


def test_paused_ref_from_top_into_var_cell_two_frames_down():
    """The top frame gains a paused ref into frame 0's var cell while the
    middle frame is untouched: the re-extracted top frame's paused refs
    are tested against every frame below."""
    m, state, gammas = _three_frames(
        (Halloc("a", Cap.MUT, "C", ()),
         Salloc("v", Cap.VAR, "Cell", (Use("a"),))))
    _, iota_v = m.frames[0].vars["v"]
    m.frames[2].vars["p"] = (Cap.PAUSED, iota_v)
    state.effect = Eps()
    report = check_config_wf(gammas, m, state)
    assert [v["predicate"] for v in report["violations"]] == ["var_unique"]
    assert not state.mismatches
    assert state.checks == 9


def test_lower_frame_reextracted_under_paused_ref_into_its_var_cell():
    """Frame 1 holds a paused ref into frame 0's temporary t.  A region
    that frame 0 refers to changes state, so frame 0 is extracted again
    through the region -> fragments index, now with a var ref into t; the
    middle frame is untouched.  The re-extracted lower frame's var targets
    are tested against the frames above it."""
    m, state, gammas = _three_frames(
        (Salloc("t", Cap.TMP, "C", ()), Halloc("q", Cap.ISO, "C", ())),
        captures=(("s", Use("t")),))
    _, iota_t = m.frames[0].vars["t"]
    _, iota_q = m.frames[0].vars["q"]
    assert m.frames[1].vars["s"] == (Cap.PAUSED, iota_t)
    # Freeze q's region behind frame 0's back, with q now imm, and make
    # frame 0's ref into t a var ref.
    m.regions[m.region_of[iota_q]].state = FROZEN
    m.frames[0].vars["q"] = (Cap.IMM, iota_q)
    m.frames[0].vars["t"] = V_UNDEF
    m.frames[0].vars["v"] = (Cap.VAR, iota_t)
    state.effect = Eps()
    report = check_config_wf(gammas, m, state)
    assert [v["predicate"] for v in report["violations"]] == ["var_unique"]
    assert not state.mismatches
    assert state.checks == 9


class _Audit(Fragments):
    """Fragments that, after every check they pass, recompute each kept
    fragment's summary from its refs by the spec's definitions, and
    compare its objects with its store's."""

    def __init__(self) -> None:
        super().__init__()
        self.audited = 0

    def passes(self, gammas, m) -> bool:
        ok = super().passes(gammas, m)
        if ok:
            rho, fr = self.rho, self.ids[FROZEN]
            for key, frag in self.frags.items():
                r = key if key >= 0 else ~key  # a store, or a frame
                store = (m.regions[r].store if key >= 0
                         else self.frame_of[r].temps)
                assert set(frag.objs) == set(store)
                indegree, var_targets = invariants._in_degrees(frag.refs)
                groups = invariants._external_groups(rho, fr, frag.refs)
                assert frag.into == {loc.r for loc in indegree}
                assert frag.external == {rd: len(refs)
                                         for rd, refs in groups.items()}
                assert ({(Temp, r, iota) for iota in frag.var_targets}
                        == {(type(loc), loc.r, loc.iota)
                            for loc in var_targets})
                assert not frag.var_shared
                assert not any(indegree[loc] > 1 for loc in var_targets)
                assert ({(d.r, d.iota) for d in frag.paused}
                        == {(loc.r, loc.iota) for loc in indegree
                            if type(loc) is Temp and loc.r != r})
                self.audited += 1
        return ok


@pytest.mark.parametrize("bug", [None, *sorted(KNOWN_BUGS)])
def test_fragment_summary_matches_definition(bug):
    """Every fragment the fast path keeps, over campaign seeds 0-49, has
    the summary that _in_degrees and _external_groups give for its refs."""
    bugs = frozenset() if bug is None else frozenset({bug})
    audited = 0
    for seed in range(50):
        prog = generate(GenConfig(seed=seed, max_depth=8))
        runner = TandemRunner(prog, check="each-step", budget=2000,
                              bugs=bugs)
        runner.fragments = _Audit()
        runner.run()
        audited += runner.fragments.audited
    assert audited > 100


class _PassAll(Fragments):
    def passes(self, gammas, m) -> bool:
        return True


def test_final_state_goes_to_spec():
    """An each-step run's final state is checked by the spec, whatever
    the fast path said."""
    prog = generate(GenConfig(seed=0, max_depth=8))
    runner = TandemRunner(prog, check="each-step",
                          bugs=frozenset({"exit-mut-writeback"}))
    runner.fragments = _PassAll()
    result = runner.run()
    assert result.verdict is Verdict.VIOLATION
    assert result.report == check_config_wf(runner.gammas, runner.machine)


def test_effect_wf_leaves_input_contexts_unchanged(monkeypatch):
    """check_effect_wf copies the list and its top context, and the
    context below on exit before writing it: neither the input list nor
    any context in it changes."""
    evolve = invariants.check_effect_wf
    seen = set()

    def checked(gammas, eff, classes):
        before = [dict(g) for g in gammas]
        dicts = gammas[:]
        out = evolve(gammas, eff, classes)
        assert len(gammas) == len(dicts)
        assert all(a is b for a, b in zip(gammas, dicts))
        assert [dict(g) for g in gammas] == before
        seen.add(EFFECT_NAMES[type(eff)])
        return out

    monkeypatch.setattr(invariants, "check_effect_wf", checked)
    for seed in range(50):
        prog = generate(GenConfig(seed=seed, max_depth=8))
        TandemRunner(prog, check="final", budget=2000).run()
    assert seen == set(EFFECT_NAMES.values())
