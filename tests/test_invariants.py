"""Configuration graphs, region order, well-formedness predicates."""
import pytest

from reggio.command import TandemRunner, Verdict
from reggio.fuzz import GenConfig, generate
from reggio.invariants import (ConfigGraph, Fragments, GraphError, Heap, Ref,
                               RegionOrder, Root, Temp, _tag_matches,
                               build_graph, capability_ok, check_config_wf,
                               check_effect_wf, frame_entries,
                               region_order_of, topology_ok)
from reggio.machine import (CLOSED, FROZEN, KNOWN_BUGS, Bind, EnterEff,
                            ExitEff, Frame, FreezeEff, Halloc, Load, Machine,
                            MergeEff, Object, Region, Salloc, Swap, V_UNDEF)
from reggio.model import Cap, ClassTable, leaves, tag_matches
from reggio.syntax import Use, parse_program, parse_type
from reggio.typecheck import check_program

from test_core import LEAF_AND_UNION_TYPES


def _classes() -> ClassTable:
    t = ClassTable()
    t.declare("C", [])
    t.declare("H", [("h", parse_type("iso C"))])
    return t


# -- build_graph ---------------------------------------------------------------

def test_build_graph_of_simple_machine():
    m = Machine(_classes())
    m.step_effect(Halloc("x", Cap.MUT, "C", ()))
    g = build_graph(m)
    assert Root(0) in g.locs
    (iota,) = m.regions[0].store
    assert Heap(0, iota) in g.locs
    assert Ref(Root(0), "x", Cap.MUT, Heap(0, iota)) in g.refs


def test_build_graph_buried_vars_contribute_nothing():
    m = Machine(_classes())
    m.step_effect(Halloc("x", Cap.ISO, "C", ()))
    m.get(m.top.vars, Use("x", True))
    g = build_graph(m)
    assert not any(r.src == Root(0) for r in g.refs)


def test_build_graph_rejects_duplicate_object_id():
    m = Machine(_classes())
    m.regions[0].store[7] = Object("C", {})
    m.regions[1] = Region(CLOSED, {7: Object("C", {})})
    with pytest.raises(GraphError):
        build_graph(m)


def test_build_graph_rejects_dangling_reference():
    m = Machine(_classes())
    m.top.vars["x"] = (Cap.MUT, 99)
    with pytest.raises(GraphError):
        build_graph(m)


def test_build_graph_rejects_duplicate_root():
    m = Machine(_classes())
    m.frames.append(Frame(r=0))
    with pytest.raises(GraphError):
        build_graph(m)


def test_build_graph_rejects_undefined_heap_field():
    m = Machine(_classes())
    m.regions[0].store[1] = Object("H", {"h": V_UNDEF})
    with pytest.raises(GraphError):
        build_graph(m)


# -- RegionOrder ---------------------------------------------------------------

def test_region_order_lt_leq():
    rho = RegionOrder([4, 0])  # region 4 is the head, 0 below it
    assert rho.lt(0, 4)
    assert not rho.lt(4, 0)
    assert not rho.lt(4, 4)
    assert rho.leq(4, 4)
    assert rho.leq(0, 4)
    assert not rho.lt(0, 7)  # 7 not on the stack


def test_region_order_of_machine_is_head_first():
    m = Machine(_classes())
    assert region_order_of(m).ids == [0]


# -- capability_ok clause violations ---------------------------------------------

def _graph(*refs: Ref) -> ConfigGraph:
    locs = set()
    for r in refs:
        locs.add(r.src)
        locs.add(r.dst)
    return ConfigGraph(locs, set(refs))


def _clauses(violations):
    return {v["predicate"] for v in violations}


def test_mut_must_stay_in_region():
    g = _graph(Ref(Root(0), "x", Cap.MUT, Heap(1, 1)))
    ok, vs = capability_ok(RegionOrder([0]), set(), set(), g)
    assert not ok and "region_order" in _clauses(vs)


def test_imm_must_target_frozen():
    ref = Ref(Root(0), "x", Cap.IMM, Heap(2, 1))
    ok, _ = capability_ok(RegionOrder([0]), set(), {2}, _graph(ref))
    assert ok
    ok, vs = capability_ok(RegionOrder([0]), {2}, set(), _graph(ref))
    assert not ok and "region_order" in _clauses(vs)


def test_iso_must_leave_region_and_land_closed_or_above():
    same = Ref(Heap(0, 1), "f", Cap.ISO, Heap(0, 2))
    ok, vs = capability_ok(RegionOrder([0]), set(), set(), _graph(same))
    assert not ok and "region_order" in _clauses(vs)
    closed = Ref(Heap(0, 1), "f", Cap.ISO, Heap(3, 2))
    ok, _ = capability_ok(RegionOrder([0]), {3}, set(), _graph(closed))
    assert ok


def test_paused_points_below():
    down = Ref(Temp(1, 5), "z", Cap.PAUSED, Heap(0, 1))
    ok, _ = capability_ok(RegionOrder([1, 0]), set(), set(), _graph(down))
    assert ok
    up = Ref(Root(0), "z", Cap.PAUSED, Heap(1, 5))
    # paused must target something already on the stack *below*
    ok, vs = capability_ok(RegionOrder([1, 0]), set(), set(),
                           _graph(Ref(Temp(1, 9), "z", Cap.PAUSED,
                                      Heap(1, 5))))
    assert not ok and "region_order" in _clauses(vs)
    del up


def test_frozen_region_references_stay_frozen():
    ref = Ref(Heap(2, 1), "f", Cap.IMM, Heap(0, 3))
    ok, vs = capability_ok(RegionOrder([0]), set(), {2}, _graph(ref))
    assert not ok and "deep_freeze" in _clauses(vs)


def test_var_target_unique():
    cell = Temp(0, 9)
    g = _graph(Ref(Root(0), "v", Cap.VAR, cell),
               Ref(Root(0), "w", Cap.TMP, cell))
    ok, vs = capability_ok(RegionOrder([0]), set(), set(), g)
    assert not ok and "var_unique" in _clauses(vs)


def test_location_ok_shapes():
    # mut into a temp is malformed regardless of regions
    g = _graph(Ref(Root(0), "x", Cap.MUT, Temp(0, 1)))
    ok, vs = capability_ok(RegionOrder([0]), set(), set(), g)
    assert not ok and "location_ok" in _clauses(vs)
    # var edges must run from a frame root
    g = _graph(Ref(Heap(0, 2), "f", Cap.VAR, Temp(0, 1)))
    ok, vs = capability_ok(RegionOrder([0]), set(), set(), g)
    assert not ok and "location_ok" in _clauses(vs)


# The exact text of every region_order and location_ok clause.  Each case
# breaks one clause and no other: (ref, rho, closed, frozen, predicate,
# clause).
_CLAUSE_CASES = [
    (Ref(Root(0), "x", Cap.MUT, Heap(1, 1)), [0], set(), set(),
     "region_order", "k = mut implies r = r'"),
    (Ref(Root(0), "t", Cap.TMP, Temp(1, 2)), [0], set(), set(),
     "region_order", "k = tmp implies r = r'"),
    (Ref(Root(0), "v", Cap.VAR, Temp(1, 3)), [0], set(), set(),
     "region_order", "k = var implies r = r'"),
    (Ref(Temp(0, 4), "p", Cap.PAUSED, Heap(1, 5)), [0], set(), set(),
     "region_order", "k = paused implies rho |- r' < r"),
    (Ref(Heap(0, 6), "i", Cap.ISO, Heap(0, 7)), [0], set(), set(),
     "region_order",
     "k = iso implies r != r' and (r' closed or above or both frozen)"),
    (Ref(Heap(0, 8), "m", Cap.IMM, Heap(2, 9)), [0], set(), set(),
     "region_order", "k = imm implies r' in Fr"),
    (Ref(Root(0), "x", Cap.MUT, Temp(0, 1)), [0], set(), set(),
     "location_ok", "mut targets Heap"),
    (Ref(Heap(0, 1), "t", Cap.TMP, Temp(0, 2)), [0], set(), set(),
     "location_ok", "tmp sources Root/Temp and targets Temp"),
    (Ref(Heap(0, 2), "v", Cap.VAR, Temp(0, 1)), [0], set(), set(),
     "location_ok", "var sources Root and targets Temp"),
    (Ref(Heap(1, 3), "p", Cap.PAUSED, Heap(0, 4)), [1, 0], set(), set(),
     "location_ok", "paused sources Root/Temp"),
    (Ref(Root(0), "i", Cap.ISO, Temp(1, 5)), [0], {1}, set(),
     "location_ok", "iso targets Heap"),
    (Ref(Root(0), "m", Cap.IMM, Temp(2, 6)), [0], set(), {2},
     "location_ok", "imm targets Heap"),
]


@pytest.mark.parametrize(
    "ref, order, cl, fr, predicate, clause", _CLAUSE_CASES,
    ids=[f"{c[4]}-{c[0].cap.value}" for c in _CLAUSE_CASES])
def test_capability_clause_text(ref, order, cl, fr, predicate, clause):
    ok, vs = capability_ok(RegionOrder(order), cl, fr, _graph(ref))
    assert not ok
    assert vs == [{"predicate": predicate, "clause": clause,
                   "refs": [str(ref)],
                   "regions": sorted({ref.src.r, ref.dst.r})}]


# -- topology spot checks (hand-built graphs) ------------------------------------

def topology_pair_ok(rho: RegionOrder, fr: set[int], ref1: Ref,
                     ref2: Ref) -> bool:
    """The pairwise disjunction (clauses 1-5): the quadratic definition
    that the grouped topology_ok is compared against."""
    if ref1 == ref2:                                   # (1)
        return True
    r1d, r2d = ref1.dst.r, ref2.dst.r
    if r1d != r2d:                                     # (2)/(3) different dst
        return True
    if r1d in fr or r2d in fr:                         # (4)
        return True
    return (rho.leq(r1d, ref1.src.r)                   # (5) downward/intra
            or rho.leq(r2d, ref2.src.r))


def test_topology_paused_back_edge_allowed():
    # e lives in the active region 1; n sits in suspended region 0 below it.
    # The paused edge e->n plus the frame's own edge into region 0 are fine:
    # both destinations are at-or-below their sources.
    rho = RegionOrder([1, 0])
    e, n = Temp(1, 10), Heap(0, 11)
    r1 = Ref(e, "n", Cap.PAUSED, n)
    r2 = Ref(Root(0), "o", Cap.MUT, Heap(0, 12))
    assert topology_pair_ok(rho, set(), r1, r2)
    ok, vs = topology_ok(rho, set(), _graph(r1, r2))
    assert ok and not vs


def test_topology_two_refs_into_closed_region_rejected():
    # m keeps an iso to a *and* a mut into the same closed region: the mut
    # breaks the region order clause and the pair breaks topology.
    rho = RegionOrder([0])
    m_loc = Heap(0, 20)
    r_iso = Ref(m_loc, "a", Cap.ISO, Heap(1, 21))
    r_mut = Ref(m_loc, "e", Cap.MUT, Heap(1, 22))
    assert not topology_pair_ok(rho, set(), r_iso, r_mut)
    ok, vs = topology_ok(rho, set(), _graph(r_iso, r_mut))
    assert not ok and _clauses(vs) == {"topology_ok"}
    ok, vs = capability_ok(rho, {1}, set(), _graph(r_iso, r_mut))
    assert not ok and "region_order" in _clauses(vs)


def test_topology_shared_frozen_region_allowed():
    rho = RegionOrder([0])
    r1 = Ref(Heap(0, 30), "i", Cap.IMM, Heap(2, 32))
    r2 = Ref(Heap(0, 31), "i", Cap.IMM, Heap(2, 33))
    assert topology_pair_ok(rho, {2}, r1, r2)
    ok, _ = topology_ok(rho, {2}, _graph(r1, r2))
    assert ok
    ok, _ = capability_ok(rho, set(), {2}, _graph(r1, r2))
    assert ok


def test_entrypoint_chain_required():
    rho = RegionOrder([1, 0])
    bridge = Heap(0, 40)
    inner = Heap(1, 41)
    g = _graph(Ref(Root(0), "h", Cap.MUT, bridge),
               Ref(bridge, "f", Cap.ISO, inner))
    ok, _ = topology_ok(rho, set(), g, entries=[(0, (40, "f"), 1)])
    assert ok
    ok, vs = topology_ok(rho, set(), g, entries=[(0, (40, "g"), 1)])
    assert not ok and _clauses(vs) == {"entrypoints_ok"}


# -- effect well-formedness -------------------------------------------------------

def test_effect_wf_rejects_unbound_use():
    classes = _classes()
    out = check_effect_wf([{}], Bind((("x", Use("ghost")),)), classes)
    assert out is None


def test_effect_wf_accepts_alloc_then_bind():
    classes = _classes()
    gs = check_effect_wf([{}], Halloc("x", Cap.MUT, "C", ()), classes)
    assert gs is not None
    gs2 = check_effect_wf(gs, Bind((("y", Use("x")),)), classes)
    assert gs2 is not None
    # reading an iso field through a mut receiver is not viewpoint-adaptable
    gs3 = check_effect_wf(gs, Load("w", "x", "h"), classes)
    assert gs3 is None


def _wf_classes() -> ClassTable:
    t = ClassTable()
    t.declare("C", [])
    t.declare("D", [("f", parse_type("mut C"))])
    t.declare("H", [("f", parse_type("iso C"))])
    return t


_EXIT = ExitEff("x", Use("r", True), "y", "f", "w", "val")
_ENTER = EnterEff("w", Cap.TMP, "y", "f", ())

# (case, effect, context stack, and a variable whose retyping makes the
# effect well-formed, to show that the case fails on its premise alone)
_WF_REJECTS = [
    ("load through an iso", Load("x", "y", "f"),
     [{"y": "iso H"}], ("y", "imm H")),
    ("swap storing a var", Swap("x", "y", "f", Use("v", True)),
     [{"y": "mut D", "v": "var Cell[mut C]"}], ("v", "mut C")),
    ("field swap into an imm receiver", Swap("x", "y", "f", Use("c", True)),
     [{"y": "imm D", "c": "mut C"}], ("y", "mut D")),
    ("strong update of a non-var", Swap("x", "y", "val", Use("c", True)),
     [{"y": "mut C", "c": "mut C"}], ("y", "var Cell[mut C]")),
    ("new iso with a mut argument",
     Halloc("x", Cap.ISO, "D", (Use("c", True),)), [{"c": "mut C"}], None),
    ("argument not a subtype", Halloc("x", Cap.MUT, "D", (Use("c"),)),
     [{"c": "imm C"}], ("c", "mut C")),
    ("freeze of a non-iso", FreezeEff("x", Use("c", True)),
     [{"c": "mut C"}], ("c", "iso C")),
    ("merge of a non-iso", MergeEff("x", Use("c", True)),
     [{"c": "mut C"}], ("c", "iso C")),
    ("enter on a non-open target", _ENTER, [{"y": "imm H"}], ("y", "mut H")),
    ("enter on a non-iso field", _ENTER, [{"y": "mut D"}], ("y", "mut H")),
    ("var-cell form on a non-var", EnterEff("w", Cap.VAR, "y", "val", ()),
     [{"y": "tmp Cell[iso C]"}], ("y", "var Cell[iso C]")),
    ("capture that cannot be suspended",
     EnterEff("w", Cap.TMP, "y", "f", (("z", Use("v", True)),)),
     [{"y": "mut H", "v": "var Cell[mut C]"}], ("v", "mut C")),
    ("exit returning mut", _EXIT,
     [{"y": "mut H"}, {"w": "tmp Cell[mut C]", "r": "mut C"}],
     ("r", "iso C")),
    ("exit whose cell holds a non-mut", _EXIT,
     [{"y": "mut H"}, {"w": "tmp Cell[imm C]", "r": "iso C"}],
     ("w", "tmp Cell[mut C]")),
    ("field-form exit whose binder is a var cell", _EXIT,
     [{"y": "mut H"}, {"w": "var Cell[mut C]", "r": "iso C"}],
     ("w", "tmp Cell[mut C]")),
    ("field-form exit whose binder is a union", _EXIT,
     [{"y": "mut H"},
      {"w": "tmp Cell[mut C] | tmp Cell[mut C]", "r": "iso C"}],
     ("w", "tmp Cell[mut C]")),
    ("exit with one frame", _EXIT,
     [{"y": "mut H", "w": "tmp Cell[mut C]", "r": "iso C"}], None),
    # No program emits these two: the checker's `new` rejects both.
    ("new of an undeclared class", Halloc("x", Cap.MUT, "Nope", ()),
     [{}], None),
    ("tmp Cell allocation", Salloc("x", Cap.TMP, "Cell", (Use("c", True),)),
     [{"c": "mut C"}], None),
]


def _stack(frames) -> list:
    return [{x: parse_type(t) for x, t in g.items()} for g in frames]


@pytest.mark.parametrize("case,eff,frames,fix", _WF_REJECTS,
                         ids=[c[0] for c in _WF_REJECTS])
def test_effect_wf_rejects(case, eff, frames, fix):
    classes = _wf_classes()
    assert check_effect_wf(_stack(frames), eff, classes) is None
    if fix is not None:
        x, t = fix
        frames = frames[:-1] + [{**frames[-1], x: t}]
        assert check_effect_wf(_stack(frames), eff, classes) is not None


def test_effect_wf_exits_a_field_form_enter_of_a_var_cell():
    # enter v.val is the field form on a var cell: its exit effect is that
    # of enter v, and its binder, a tmp Cell, tells the two apart.
    prog = parse_program(
        "class C { } let c = new iso C() in let v = var drop c in "
        "let x = enter v.val [] { z => let r = new iso C() in drop r } in "
        "let y = enter v [] { z => let r = new iso C() in drop r } in drop y")
    check_program(prog)
    res = TandemRunner(prog, check="each-step").run()
    assert res.verdict is Verdict.DONE, res.detail


def test_config_wf_on_live_machine():
    m = Machine(_classes())
    m.step_effect(Halloc("x", Cap.MUT, "C", ()))
    report = check_config_wf(None, m)
    assert report["verdict"] is True
    assert report["violations"] == []


def test_config_wf_reports_graph_error():
    m = Machine(_classes())
    m.top.vars["x"] = (Cap.MUT, 99)
    report = check_config_wf(None, m)
    assert report["verdict"] is False
    assert any(v["predicate"] == "build_graph" for v in report["violations"])


def test_frame_entries_of_flat_machine_empty():
    assert frame_entries(Machine(_classes())) == []


# -- isolation corollary over generated programs ----------------------------------

def test_isolation_corollary_on_generated_programs():
    """Every intermediate configuration of a well-typed program satisfies
    all invariant predicates (checked at each step by the tandem runner)."""
    for seed in range(20):
        prog = generate(GenConfig(seed=seed, max_depth=5))
        check_program(prog)
        res = TandemRunner(prog, check="each-step", budget=4000).run()
        assert res.verdict in (Verdict.DONE, Verdict.FAILED,
                               Verdict.BUDGET), (seed, res.detail)


# -- reports do not depend on hash order -----------------------------------------

_REPORT_SCRIPT = """
import json
from reggio.command import TandemRunner
from reggio.fuzz import GenConfig, generate
prog = generate(GenConfig(seed=4, max_depth=8))
res = TandemRunner(prog, check="each-step",
                   bugs=frozenset({"skip-bury"})).run()
print(res.verdict.value, json.dumps(res.report))
"""


def test_violation_report_same_under_every_hash_seed():
    """The graph's refs form a set of str-hashed names; its iteration order
    changes with PYTHONHASHSEED, and the report must not."""
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(src), os.environ.get("PYTHONPATH"))
                       if p))
        proc = subprocess.run([sys.executable, "-c", _REPORT_SCRIPT],
                              env=env, capture_output=True, text=True,
                              check=True)
        outs.append(proc.stdout)
    assert outs[0].startswith("violation ")
    assert '"topology_ok"' in outs[0]
    assert outs[0] == outs[1]


# -- topology_ok against the pairwise definition ----------------------------------

class _PairwiseTopology(Fragments):
    """Each-step state that also compares, on every configuration the run
    checks, the regions topology_ok reports with the destination regions
    of the ref pairs topology_pair_ok rejects."""

    def __init__(self) -> None:
        super().__init__()
        self.configs = 0
        self.broken = 0
        self.mismatches: list[tuple[set[int], set[int]]] = []

    def passes(self, gammas, m) -> bool:
        try:
            g = build_graph(m)
        except GraphError:
            g = None
        if g is not None:
            rho = region_order_of(m)
            fr = {r for r, region in m.regions.items()
                  if region.state == FROZEN}
            _, violations = topology_ok(rho, fr, g)
            grouped = {r for v in violations for r in v["regions"]}
            pairwise = {r1.dst.r for r1 in g.refs for r2 in g.refs
                        if not topology_pair_ok(rho, fr, r1, r2)}
            if grouped != pairwise:
                self.mismatches.append((grouped, pairwise))
            self.configs += 1
            self.broken += bool(pairwise)
        return super().passes(gammas, m)


def test_topology_ok_matches_pairwise_definition():
    """topology_ok groups refs by destination region; on every
    configuration of each-step runs it finds the regions the quadratic
    pairwise definition finds: campaign seeds 0-49, and for each planted
    bug the first seed whose run it makes a violation."""
    runs = [(None, s) for s in range(50)]
    for bug in sorted(KNOWN_BUGS):
        seed = next(s for s in range(200) if TandemRunner(
            generate(GenConfig(seed=s, max_depth=8)), check="each-step",
            budget=2000, bugs=frozenset({bug})).run().verdict
            is Verdict.VIOLATION)
        runs.append((bug, seed))
    configs = broken = 0
    for bug, seed in runs:
        runner = TandemRunner(generate(GenConfig(seed=seed, max_depth=8)),
                              check="each-step", budget=2000,
                              bugs=frozenset() if bug is None
                              else frozenset({bug}))
        runner.fragments = state = _PairwiseTopology()
        runner.run()
        assert not state.mismatches, (bug, seed, state.mismatches[:3])
        configs += state.configs
        broken += state.broken
    assert configs > len(runs)
    assert broken > 0  # some configuration breaks the rule


def test_tag_matches_matches_leafwise_definition():
    """Some leaf has the value's capability and a head matching its tag."""
    outcomes = set()
    for t in LEAF_AND_UNION_TYPES:
        for cap in Cap:
            for tag in ("C", "D", "Cell"):
                want = any(leaf.cap is cap and tag_matches(tag, leaf.head)
                           for leaf in leaves(t))
                assert _tag_matches(tag, t, cap) == want, (tag, t, cap)
                outcomes.add(want)
    assert outcomes == {True, False}
