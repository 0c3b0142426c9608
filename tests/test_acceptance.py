"""Acceptance gate: end-to-end checks over the whole tool suite."""
import json
import time
from pathlib import Path

from reggio.command import TandemRunner, Verdict
from reggio.fuzz import GenConfig, campaign
from reggio.invariants import (Heap, Ref, RegionOrder, Root, Temp,
                               capability_ok, topology_ok, ConfigGraph)
from reggio.machine import CLOSED, FROZEN, KNOWN_BUGS, Machine
from reggio.model import Cap, vpa
from reggio.syntax import parse_program
from reggio.typecheck import TypeCheckError, check_program

from cli_harness import run_cli as _cli

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).parent / "golden"
CAPS = tuple(Cap)

from test_core import HAND_TABLE  # the independently transcribed table


class _Clock:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def _stores(m: Machine, state: str) -> list:
    return [region.store for region in m.regions.values()
            if region.state == state]


# -- 1: the viewpoint-adaptation table, all 36 pairs plus the var row ------------

def test_acceptance_1_vpa_table():
    with _Clock() as c:
        for outer in CAPS:
            for inner in CAPS:
                assert vpa(outer, inner) == HAND_TABLE[outer][inner], \
                    (outer, inner)
        for outer in CAPS:
            assert vpa(outer, Cap.VAR) is None
    assert c.elapsed < 1.0


# -- 2: the cyclic-list program runs to Done with the expected final heap --------

def test_acceptance_2_cyclic_list():
    with _Clock() as c:
        prog = parse_program((CORPUS / "listing1.rgo").read_text())
        check_program(prog)
        runner = TandemRunner(prog, check="each-step")
        res = runner.run()
        assert res.verdict is Verdict.DONE
        m = runner.machine
        (store,) = _stores(m, CLOSED)
        assert len(store) == 3
        assert all(obj.tag == "Link" for obj in store.values())
        # the next fields form a single 3-cycle inside the region
        start = next(iter(store))
        seen, cur = [], start
        for _ in range(3):
            seen.append(cur)
            cap, cur = store[cur].fields["next"]
            assert cap is Cap.MUT and cur in store
        assert cur == start and sorted(seen) == sorted(store)
        assert len(_stores(m, FROZEN)) == 2
    assert c.elapsed < 1.0


# -- 3: store rejections name their rules; the strong update is accepted ---------

def test_acceptance_3_store_rules():
    with _Clock() as c:
        def rule_of(name):
            try:
                check_program(parse_program((CORPUS / name).read_text()))
            except TypeCheckError as exc:
                return exc.diagnostic.rule
            raise AssertionError(f"{name} unexpectedly typechecked")

        assert rule_of("store_reject_y.rgo") == "cmd-ty-assign-var-adjacent"
        assert rule_of("store_reject_x.rgo") == "cmd-ty-enter-var"
        check_program(parse_program((CORPUS / "store_accept.rgo").read_text()))
    assert c.elapsed < 1.0


# -- 4: re-entering an open region fails exactly at the inner enter --------------

def test_acceptance_4_double_enter():
    with _Clock() as c:
        p = _cli("trace", "corpus/reenter_open.rgo")
        assert p.returncode == 2
        records = [json.loads(ln) for ln in p.stdout.splitlines()]
        bad = [r for r in records if r["effect"] == "badenter"]
        assert len(bad) == 1
        # the failing lval is the inner binding over the already-open region
        assert bad[0]["args"][0].startswith("h2")
        # every step before it succeeded; nothing ran after the failure mark
        assert records[-2]["effect"] == "badenter"
        assert records[-1]["effect"] == "eps"
    assert c.elapsed < 1.0


# -- 5: deep freeze and merge preserve nested regions -----------------------------

def test_acceptance_5_freeze_and_merge():
    with _Clock() as c:
        prog = parse_program((CORPUS / "deep_freeze.rgo").read_text())
        check_program(prog)
        runner = TandemRunner(prog, check="each-step")
        assert runner.run().verdict is Verdict.DONE
        assert len(_stores(runner.machine, FROZEN)) == 3
        assert not _stores(runner.machine, CLOSED)

        prog = parse_program((CORPUS / "merge_nested.rgo").read_text())
        check_program(prog)
        runner = TandemRunner(prog, check="each-step")
        assert runner.run().verdict is Verdict.DONE
        m = runner.machine
        # the nested region stayed closed, intact
        (store,) = _stores(m, CLOSED)
        assert len(store) == 1
    assert c.elapsed < 1.0


# -- 6: a thousand generated programs run soundly under each-step checking -------

def test_acceptance_6_soundness_campaign():
    with _Clock() as c:
        res = campaign(1000, GenConfig(seed=0, max_depth=8),
                       budget=10_000, bugs=frozenset())
        assert res.runs == 1000
        assert res.abort_seed is None, res.summary()
        assert res.summary() == ("1000 runs: 784 done, 195 failed, "
                                 "21 budget, 0 stuck, 0 violations")
    assert c.elapsed < 600.0


# -- 7: every planted machine bug is caught within a thousand programs ------------

def test_acceptance_7_planted_bugs_caught():
    with _Clock() as c:
        for bug in sorted(KNOWN_BUGS):
            res = campaign(1000, GenConfig(seed=0, max_depth=8),
                           budget=10_000, bugs=frozenset({bug}))
            assert res.abort_seed is not None, bug
            assert res.counterexample == (
                GOLDEN / f"{bug}.witness").read_text(), bug
    assert c.elapsed < 3600.0


# -- 8: topology spot checks on hand-built configuration graphs ------------------

def _graph(*refs):
    locs = set()
    for r in refs:
        locs.update((r.src, r.dst))
    return ConfigGraph(locs, set(refs))


def test_acceptance_8_topology_spot_checks():
    with _Clock() as c:
        # (a) a paused back-edge from the active region into the suspended
        # one coexists with the suspended frame's own references: each
        # destination is at-or-below its source.
        rho = RegionOrder([1, 0])
        e_to_n = Ref(Temp(1, 10), "n", Cap.PAUSED, Heap(0, 11))
        frame_edge = Ref(Root(0), "o", Cap.MUT, Heap(0, 12))
        ok, vs = topology_ok(rho, set(), _graph(e_to_n, frame_edge))
        assert ok and not vs
        ok, _ = capability_ok(rho, set(), set(), _graph(e_to_n, frame_edge))
        assert ok

        # (b) one object holding both an iso and a mut into the same closed
        # region: rejected, both as a topology pair and by the region order.
        rho = RegionOrder([0])
        m_loc = Heap(0, 20)
        m_to_a = Ref(m_loc, "a", Cap.ISO, Heap(1, 21))
        m_to_e = Ref(m_loc, "e", Cap.MUT, Heap(1, 22))
        ok, vs = topology_ok(rho, set(), _graph(m_to_a, m_to_e))
        assert not ok
        assert any(v["predicate"] == "topology_ok" for v in vs)
        ok, vs = capability_ok(rho, {1}, set(), _graph(m_to_a, m_to_e))
        assert not ok
        assert any(v["predicate"] == "region_order" for v in vs)

        # (c) two objects sharing an immutable target in a frozen region:
        # allowed, frozen destinations are exempt from the pair discipline.
        a_to_i = Ref(Heap(0, 30), "i", Cap.IMM, Heap(2, 32))
        o_to_i = Ref(Heap(0, 31), "i", Cap.IMM, Heap(2, 32))
        ok, _ = topology_ok(rho, {2}, _graph(a_to_i, o_to_i))
        assert ok
        ok, _ = capability_ok(rho, set(), {2}, _graph(a_to_i, o_to_i))
        assert ok
    assert c.elapsed < 1.0
