"""Resuming a run from a snapshot, as the shrinker does for its candidates.

A candidate differs from the current program only at one removed let or
capture, and control moves forward through main in preorder, so the
candidate's run may start where the current program's stood just before
the edit (``fuzz.shrink``).  These tests check the property that rests on,
and that a resumed run is the fresh run's tail: same steps, same effects,
same verdicts, same result.
"""
import copy
from pathlib import Path

import pytest

from reggio import fuzz, invariants
from reggio.command import TandemRunner
from reggio.fuzz import GenConfig, campaign, generate
from reggio.machine import KNOWN_BUGS
from reggio.syntax import Let, parse_program, walk
from reggio.typecheck import check_program

CORPUS = Path(__file__).parent.parent / "corpus"
BUG_SETS = [frozenset()] + [frozenset({b}) for b in sorted(KNOWN_BUGS)]

# explore desugars into nodes that are not main's; its body is main's.  The
# let of w is a site inside the explore, that of v one after it.
EXPLORE_SITES = """
class Item { }
class Done3 { }

let i0 = new iso Item() in
let u = var drop i0 in
let r = explore u [] { z =>
  let w = new mut Item() in
  let d = new iso Done3() in
  drop d } in
let v = new mut Item() in
drop r
"""


def _index(main) -> dict[int, int]:
    return {id(x): i for x, i, _, k in walk(main) if k == 0}


def _explore_programs():
    progs = [parse_program(p.read_text()) for p in sorted(CORPUS.glob("*.rgo"))
             if "explore" in p.read_text()]
    return progs + [parse_program(EXPLORE_SITES)]


def test_control_moves_forward_through_main_in_preorder():
    """Generated seeds 0-199 with every bug set, and the programs that
    use explore: the control's index in main never decreases."""
    runs = [(generate(GenConfig(seed=s)), BUG_SETS, "off")
            for s in range(200)]
    runs += [(p, [frozenset()], "each-step") for p in _explore_programs()]
    outside = steps = 0
    for prog, bug_sets, check in runs:
        index = _index(prog.main)
        for bugs in bug_sets:
            runner = TandemRunner(prog, check=check, budget=1_000, bugs=bugs)
            seen = []
            runner.observer = lambda *_, r=runner: seen.append(
                index.get(id(r.control)))
            runner.run()
            last = -1
            for i in seen:
                steps += 1
                if i is None:
                    outside += 1  # a function body, explore's nodes, failure
                    continue
                assert i > last, (bugs, i, last)
                last = i
    # The runs also leave main, so the check is not vacuous.
    assert 0 < outside < steps


def test_snapshot_only_where_control_and_frames_are_in_main():
    for prog in _explore_programs() + [generate(GenConfig(seed=s))
                                       for s in range(20)]:
        check_program(prog)
        index = _index(prog.main)
        runner = TandemRunner(prog, check="each-step", budget=3_000)
        taken = []

        def observe(steps, eff, ok):
            snap = runner.snapshot(index)
            in_main = (id(runner.control) in index
                       and all(id(f.body) in index for f in runner.stack))
            assert (snap is not None) == in_main
            taken.append(snap)
        runner.observer = observe
        runner.run()
        assert any(s is not None for s in taken)


def test_no_snapshots_where_a_node_occurs_twice():
    # A node object met twice in main has no one preorder index, so the
    # shrinker takes no snapshot there and runs its candidates afresh.
    prog = parse_program("class A { }\nlet a = new mut A() in "
                         "let b = new mut A() in a")
    shared = prog.main.body.body
    main = Let("c", shared, prog.main)
    tree = fuzz._Tree.of(main)
    assert tree.lets and tree.index == {} and tree.marks() == {}


def test_explore_program_reaches_a_site():
    prog = parse_program(EXPLORE_SITES)
    check_program(prog)
    nodes = [x for x, _, _, k in walk(prog.main) if k == 0]
    w = next(i for i, x in enumerate(nodes) if getattr(x, "name", "") == "w")
    v = next(i for i, x in enumerate(nodes) if getattr(x, "name", "") == "v")
    assert fuzz._unused_sites(prog.main)[0] == [w, v]
    index = _index(prog.main)
    runner = TandemRunner(prog, check="each-step", budget=100)
    at = {}

    def observe(steps, eff, ok):
        i = index.get(id(runner.control))
        if i in (w, v):
            at[i] = runner.snapshot(index)
    runner.observer = observe
    fresh = runner.run()
    # Inside the explore a frame's body is a desugared node: no snapshot.
    # After it, one, and a run resumed there ends as the fresh run did.
    assert at[w] is None and at[v] is not None
    resumed = TandemRunner(prog, check="each-step", budget=100)
    resumed.resume(at[v], nodes.__getitem__)
    assert resumed.run() == fresh


# Names read and then bound again after the lets of u and v: a in main,
# c inside a nested binding, and b after the return that makes the nested
# binding's frame environment the current one.
SHADOWS = """
class Item { }

let a = new mut Item() in
let u = new mut Item() in
let b = a in
let a = new mut Item() in
let r = (let c = new mut Item() in let v = new mut Item() in
         let d = c in let c = new mut Item() in d) in
let e = b in
let b = new mut Item() in
e
"""


@pytest.mark.parametrize("src", [SHADOWS, None])
def test_a_snapshot_resumes_alike_twice(src):
    """Resuming writes neither the snapshot's environments nor its
    machine: every snapshot of a run, resumed twice, ends as the fresh
    run did."""
    progs = ([parse_program(src)] if src else
             [generate(GenConfig(seed=s)) for s in range(4)])
    for prog in progs:
        check_program(prog)
        index = _index(prog.main)
        nodes = [x for x, _, _, k in walk(prog.main) if k == 0]
        runner = TandemRunner(prog, check="each-step", budget=3_000)
        snaps = []

        def observe(steps, eff, ok):
            snaps.append(runner.snapshot(index))
        runner.observer = observe
        want = runner.run()
        snaps = [s for s in snaps if s is not None]
        assert snaps
        for snap in snaps * 2:
            resumed = TandemRunner(prog, check="each-step", budget=3_000)
            resumed.resume(snap, nodes.__getitem__)
            assert resumed.run() == want


def test_resumed_runs_match_fresh_runs_in_the_hunts(monkeypatch):
    """Every candidate run of the 18 pinned hunts, resumed as the
    campaign resumes it, gives the fresh run's observer stream (step,
    effect, verdict) after the snapshot, and its result."""
    real = fuzz.soundness_run
    resumed_steps = [0, 0]  # candidates resumed, steps they skipped

    def compared(prog, budget=10_000, bugs=frozenset(), start=None):
        verdict = real(prog, budget, bugs, start)
        if start is None:
            return verdict
        fresh_stream, stream = [], []
        fresh = TandemRunner(prog, check="each-step", budget=budget,
                             bugs=bugs,
                             observer=lambda *a: fresh_stream.append(a))
        want = fresh.run()
        runner = TandemRunner(prog, check="each-step", budget=budget,
                              bugs=bugs)
        start(runner)  # resumes, as for the run above
        first = runner.steps
        runner.observer = lambda *a: stream.append(a)
        assert runner.run() == want
        assert stream == fresh_stream[first:]
        assert verdict == (want.verdict, want.detail or "")
        resumed_steps[0] += first > 0
        resumed_steps[1] += first
        return verdict

    monkeypatch.setattr(fuzz, "soundness_run", compared)
    for seed in (0, 1000, 2000):
        for bug in sorted(KNOWN_BUGS):
            res = campaign(1000, GenConfig(seed=seed), budget=10_000,
                           bugs=frozenset({bug}))
            assert res.counterexample is not None
    assert resumed_steps[0] > 100 and resumed_steps[1] > 1000


def _midrun(seed: int, steps: int, bugs=frozenset()) -> TandemRunner:
    """A runner stopped after some steps of generated program seed."""
    prog = generate(GenConfig(seed=seed))
    runner = TandemRunner(prog, check="each-step", budget=steps, bugs=bugs)
    runner.run()
    return runner


def _machine_state(m):
    return (m._next_iota, m._next_region, m.region_of, m._field_names,
            [(f.r, {i: (o.tag, o.fields) for i, o in f.temps.items()},
              f.vars, f.entry, f.reinstate) for f in m.frames],
            {r: (g.state, {i: (o.tag, o.fields) for i, o in g.store.items()})
             for r, g in m.regions.items()})


def _summary_state(s):
    frags = {k: (f.objs, f.refs, f.into, f.external, f.var_targets,
                 f.var_shared, f.paused) for k, f in s.frags.items()}
    objects = {i: (o.tag, o.fields) for i, o in s.objects.items()}
    return (frags, s.where, objects,
            s.status, s.ids, s.external, s.into, s.rho.ids,
            [(f.r, f.vars) for f in s.frames],
            {r: f.r for r, f in s.frame_of.items()},
            [id(g) for g in s.gammas])  # shared: no check writes a context


def _mutate(m, s) -> None:
    """Change every store, field, frame, variable and summary of m, a
    clone, and s, its summaries."""
    for f in m.frames:
        f.vars["mutated"] = None
        f.reinstate.append(("mutated", None))
        for obj in f.temps.values():
            obj.fields["mutated"] = None
        f.temps[-1] = None
    m.frames.append(None)
    for g in m.regions.values():
        g.state = "mutated"
        for obj in g.store.values():
            obj.fields["mutated"] = None
        g.store[-1] = None
    m.regions[-1] = None
    m.region_of[-1] = -1
    m._field_names["mutated"] = []
    for rs in (*s.ids.values(), *s.into.values()):
        rs.add("mutated")
    for d in (s.frags, s.where, s.objects, s.status, s.external, s.into,
              s.frame_of):
        d["mutated"] = None
    s.frames.append(None)
    s.gammas.append(None)


@pytest.mark.parametrize("seed,steps", [(0, 20), (1, 40), (6, 40)])
def test_clone_shares_nothing_a_step_changes(seed, steps):
    runner = _midrun(seed, steps)
    m, s = runner.machine, runner.fragments
    assert s.frags and len(m.frames) > 1 and any(f.temps for f in m.frames)
    before = copy.deepcopy((_machine_state(m), _summary_state(s)))
    copies = {}
    m2 = m.clone(copies)
    s2 = s.clone(copies)
    # The clone's summaries describe the clone: its objects and frames.
    assert _summary_state(s2) == _summary_state(s)
    assert all(s2.objects[i] is m2.regions[r].store[i]
               for r, g in m2.regions.items() for i in g.store)
    assert [id(f) for f in s2.frames] == [id(f) for f in m2.frames]
    _mutate(m2, s2)
    assert (_machine_state(m), _summary_state(s)) == before


def test_resume_clones_the_summaries(monkeypatch):
    """A resumed run extracts, step by step, the fragments the original
    run extracted: the summaries go on from the snapshot's, not from
    empty ones that the first check would fill again."""
    prog = generate(GenConfig(seed=3))
    index = _index(prog.main)
    nodes = [x for x, _, _, k in walk(prog.main) if k == 0]
    made = [0]
    init = invariants._Fragment.__init__

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    monkeypatch.setattr(invariants._Fragment, "__init__", counted)
    per_step, snaps = {}, {}
    runner = TandemRunner(prog, check="each-step", budget=3_000)

    def observe(steps, eff, ok):
        per_step[steps] = made[0]
        snap = runner.snapshot(index)
        if snap is not None:
            snaps[steps] = snap
    runner.observer = observe
    want = runner.run()
    assert len(snaps) > 3
    for steps, snap in snaps.items():
        assert snap.fragments.frags
        resumed = TandemRunner(prog, check="each-step", budget=3_000)
        resumed.resume(snap, nodes.__getitem__)
        made[0] = per_step[steps]
        got = {}
        resumed.observer = lambda n, eff, ok: got.__setitem__(n, made[0])
        assert resumed.run() == want
        assert got == {n: c for n, c in per_step.items() if n > steps}
