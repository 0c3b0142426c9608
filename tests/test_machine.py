"""Region machine: region table, frames, effect stepping, planted bugs."""
import pytest

from reggio.command import TandemRunner
from reggio.fuzz import GenConfig, generate
from reggio.machine import (CLOSED, FROZEN, OPEN, Bind, EnterEff, ExitEff,
                            FreezeEff, Halloc, KNOWN_BUGS, Load, Machine,
                            MergeEff, Salloc, Stuck, Swap, V_UNDEF,
                            effect_args, effect_name)
from reggio.model import Cap, ClassTable
from reggio.syntax import Use, parse_type


def _classes() -> ClassTable:
    t = ClassTable()
    t.declare("C", [])
    t.declare("H", [("h", parse_type("iso C"))])
    t.declare("K", [("k", parse_type("iso H"))])
    t.declare("P", [("p", parse_type("imm C"))])
    return t


def _machine(bugs=frozenset()) -> Machine:
    return Machine(_classes(), bugs)


def _in_state(m: Machine, state: str) -> list[int]:
    return [r for r, region in m.regions.items() if region.state == state]


def test_halloc_mut_allocates_in_active_region():
    m = _machine()
    m.step_effect(Halloc("x", Cap.MUT, "C", ()))
    (iota,) = m.regions[0].store
    assert m.top.vars["x"] == (Cap.MUT, iota)
    assert m.regions[0].store[iota].tag == "C"


def test_halloc_iso_creates_fresh_closed_region():
    m = _machine()
    m.step_effect(Halloc("x", Cap.ISO, "C", ()))
    (r,) = _in_state(m, CLOSED)
    cap, iota = m.top.vars["x"]
    assert cap is Cap.ISO and iota in m.regions[r].store


def test_salloc_tmp_and_var_live_in_frame_temps():
    m = _machine()
    m.step_effect(Salloc("t", Cap.TMP, "C", ()))
    m.step_effect(Salloc("v", Cap.VAR, "Cell", (Use("t"),)))
    assert len(m.top.temps) == 2
    cap, iota = m.top.vars["v"]
    assert cap is Cap.VAR
    assert m.top.temps[iota].tag == "Cell"


def test_get_drop_buries_and_plain_rejects_iso():
    m = _machine()
    m.step_effect(Halloc("x", Cap.ISO, "C", ()))
    with pytest.raises(Stuck):
        m.get(m.top.vars, Use("x"))
    v = m.get(m.top.vars, Use("x", True))
    assert v[0] is Cap.ISO
    assert m.top.vars["x"] is V_UNDEF
    with pytest.raises(Stuck):
        m.get(m.top.vars, Use("x", True))


def test_swap_returns_old_value():
    m = _machine()
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    m.step_effect(Halloc("h", Cap.MUT, "H", (Use("c", True),)))
    m.step_effect(Halloc("c2", Cap.ISO, "C", ()))
    m.step_effect(Swap("old", "h", "h", Use("c2", True)))
    old = m.top.vars["old"]
    assert old[0] is Cap.ISO
    _, h_iota = m.top.vars["h"]
    new_field = m.regions[0].store[h_iota].fields["h"]
    assert new_field != old


def test_enter_and_exit_move_region_between_heaps():
    m = _machine()
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    (r,) = _in_state(m, CLOSED)
    m.step_effect(Halloc("h", Cap.MUT, "H", (Use("c", True),)))
    assert m.enter_enabled("h", "h")
    m.step_effect(EnterEff("z", Cap.TMP, "h", "h", ()))
    assert m.regions[r].state == OPEN
    assert m.top.r == r
    assert m.top.entry is not None
    with pytest.raises(Stuck):
        m.enter_enabled("h", "h")  # shadowed: h not in top frame
    # bridge cell in temps points at the bridge object
    (cell_iota,) = m.top.temps
    assert m.top.temps[cell_iota].fields["val"][0] is Cap.MUT
    m.step_effect(Halloc("d", Cap.ISO, "C", ()))
    m.step_effect(ExitEff("ret", Use("d", True), "h", "h", "z", "val"))
    assert m.regions[r].state == CLOSED
    assert len(m.frames) == 1
    assert m.top.vars["ret"][0] is Cap.ISO
    # writeback preserved the old field capability (iso)
    _, h_iota = m.top.vars["h"]
    assert m.regions[0].store[h_iota].fields["h"][0] is Cap.ISO


def test_exit_discards_temps():
    m = _machine()
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    m.step_effect(Halloc("h", Cap.MUT, "H", (Use("c", True),)))
    m.step_effect(EnterEff("z", Cap.TMP, "h", "h", ()))
    m.step_effect(Salloc("t", Cap.TMP, "C", ()))
    m.step_effect(Halloc("d", Cap.ISO, "C", ()))
    m.step_effect(ExitEff("ret", Use("d", True), "h", "h", "z", "val"))
    assert m.top.temps == {}


def test_freeze_moves_reachable_regions():
    m = _machine()
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    m.step_effect(Halloc("h", Cap.ISO, "H", (Use("c", True),)))
    m.step_effect(Halloc("k", Cap.ISO, "K", (Use("h", True),)))
    assert len(_in_state(m, CLOSED)) == 3
    m.step_effect(FreezeEff("i", Use("k", True)))
    assert len(_in_state(m, FROZEN)) == 3 and not _in_state(m, CLOSED)
    assert m.top.vars["i"][0] is Cap.IMM


def test_merge_keeps_nested_region_closed():
    m = _machine()
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    _, c_iota = m.top.vars["c"]
    m.step_effect(Halloc("h", Cap.ISO, "H", (Use("c", True),)))
    m.step_effect(MergeEff("x", Use("h", True)))
    # The nested region, which holds c's object, survives intact; h's
    # region left the table.
    (nested,) = _in_state(m, CLOSED)
    assert m.closed_region_of(c_iota) == nested
    assert list(m.regions[nested].store) == [c_iota]
    assert set(m.regions) == {0, nested}
    assert m.top.vars["x"][0] is Cap.MUT
    assert len(m.regions[0].store) == 1  # the bridge object moved into 0


@pytest.mark.parametrize("bug", [None, *sorted(KNOWN_BUGS)])
def test_region_index_matches_region_table(bug):
    """After every step of campaign seeds 0-49 under each-step, the object
    -> region index equals a scan of the region table."""
    bugs = frozenset() if bug is None else frozenset({bug})
    steps = 0
    for seed in range(50):
        prog = generate(GenConfig(seed=seed, max_depth=8))
        runner = TandemRunner(prog, check="each-step", budget=3000,
                              bugs=bugs)
        m = runner.machine

        def compare(step, eff, verdict_ok) -> None:
            assert m.region_of == {iota: r for r, region in m.regions.items()
                                   for iota in region.store}, (seed, step)

        runner.observer = compare
        steps += runner.run().steps
    assert steps >= 50  # at least one step a run


def test_load_reads_fields():
    m = _machine()
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    m.step_effect(FreezeEff("i", Use("c", True)))
    m.step_effect(Halloc("p", Cap.MUT, "P", (Use("i"),)))
    m.step_effect(Load("y", "p", "p"))
    assert m.top.vars["y"][0] is Cap.IMM
    with pytest.raises(Stuck):
        m.step_effect(Load("w", "p", "nope"))
    # vpa-undefined pairs get stuck: mut receiver reading an iso field
    m.step_effect(Halloc("c2", Cap.ISO, "C", ()))
    m.step_effect(Halloc("h", Cap.MUT, "H", (Use("c2", True),)))
    with pytest.raises(Stuck):
        m.step_effect(Load("z", "h", "h"))


def test_bind_and_stuck_on_unbound():
    m = _machine()
    m.step_effect(Halloc("x", Cap.MUT, "C", ()))
    m.step_effect(Bind((("y", Use("x")),)))
    assert m.top.vars["y"] == m.top.vars["x"]
    with pytest.raises(Stuck):
        m.step_effect(Bind((("z", Use("ghost")),)))


def test_known_bugs_registry():
    assert KNOWN_BUGS == {"exit-keep-temps", "exit-mut-writeback",
                          "shallow-freeze", "skip-bury", "reinstate-iso",
                          "vpa-paused-identity"}
    with pytest.raises(ValueError,
                       match=r"^unknown bug switches: \['nonsense'\]$"):
        Machine(_classes(), frozenset({"nonsense"}))


def test_bug_skip_bury():
    m = _machine(frozenset({"skip-bury"}))
    m.step_effect(Halloc("x", Cap.ISO, "C", ()))
    m.get(m.top.vars, Use("x", True))
    assert m.top.vars["x"] is not V_UNDEF  # stale binding survives


def test_bug_shallow_freeze():
    m = _machine(frozenset({"shallow-freeze"}))
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    m.step_effect(Halloc("h", Cap.ISO, "H", (Use("c", True),)))
    m.step_effect(FreezeEff("i", Use("h", True)))
    assert len(_in_state(m, FROZEN)) == 1 and len(_in_state(m, CLOSED)) == 1


def test_bug_exit_keep_temps():
    m = _machine(frozenset({"exit-keep-temps"}))
    m.step_effect(Halloc("c", Cap.ISO, "C", ()))
    m.step_effect(Halloc("h", Cap.MUT, "H", (Use("c", True),)))
    m.step_effect(EnterEff("z", Cap.TMP, "h", "h", ()))
    m.step_effect(Halloc("d", Cap.ISO, "C", ()))
    m.step_effect(ExitEff("ret", Use("d", True), "h", "h", "z", "val"))
    assert m.top.temps  # leaked bridge cell


def test_effect_renderers():
    eff = Halloc("x", Cap.MUT, "C", (Use("y"),))
    assert effect_name(eff) == "halloc"
    assert effect_args(eff) == ["x", "mut", "#C", "y"]


def test_fields_for_keeps_field_order_and_arity_text():
    """The field names come in declaration order, from the first call on,
    and a wrong arity is Stuck with the same text before and after."""
    t = ClassTable()
    t.declare("C", [])
    t.declare("Q", [("b", parse_type("imm C")), ("a", parse_type("mut C"))])
    m = Machine(t)
    vals = [(Cap.IMM, 1), (Cap.MUT, 2)]
    for _ in range(2):
        with pytest.raises(Stuck) as exc:
            m._fields_for("Q", vals[:1])
        assert str(exc.value) == "halloc: arity mismatch for Q"
        fields = m._fields_for("Q", vals)
        assert list(fields.items()) == [("b", vals[0]), ("a", vals[1])]
    assert m._fields_for("C", []) == {}
