"""The substituting command machine, kept as a test oracle.

This is the reduction semantics read literally: every step substitutes
fresh names into the residual program, nested lets are re-associated, a
call renames the callee's body apart, and an open region is an
``Entered`` node in the residual program.  ``reggio.command.TandemRunner``
steps an environment and a continuation stack instead; the tests require
the two to emit the same effects, fresh names included, and to reach the
same verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from reggio.command import (FAILURE, FreshNames, RunResult, Verdict,
                            synth_effect)
from reggio.machine import (BadEnter, Bind, CastEff, Effect, EnterEff, Eps,
                            ExitEff, Machine, NoCastEff, Stuck)
from reggio.model import Cap
from reggio.syntax import (Assign, Call, Deref, Enter, Expr, Freeze, Let,
                           LVal, Merge, New, Program, TypeTest, Use,
                           VarAlloc)

__all__ = ["Entered", "FreshNames", "SubstRunner", "alpha_rename", "subst"]


@dataclass(frozen=True)
class Entered:
    """entered y.f w.val { body } — an open region awaiting its exit."""

    target: LVal
    bridge: str
    body: "DynExpr"
    pos: tuple[int, int] = (0, 0)

    def __str__(self) -> str:
        return (f"entered {self.target} {self.bridge}.val "
                f"{{ {self.body} }}")


DynExpr = object  # Expr | Let-with-Entered | FAILURE


# ---------------------------------------------------------------------------
# Substitution (all replacement names are globally fresh)
# ---------------------------------------------------------------------------

def subst_use(u: Use, m: dict[str, str]) -> Use:
    if u.name in m:
        return replace(u, name=m[u.name])
    return u


def subst_lval(lv: LVal, m: dict[str, str]) -> LVal:
    if lv.name in m:
        return replace(lv, name=m[lv.name])
    return lv


def subst(e, m: dict[str, str]):
    """Rename free variables of e per m (capture-avoiding because all
    substituted names are fresh)."""
    if not m:
        return e
    if e is FAILURE:
        return e
    if isinstance(e, Use):
        return subst_use(e, m)
    if isinstance(e, Deref):
        return replace(e, target=subst_lval(e.target, m))
    if isinstance(e, Assign):
        return replace(e, target=subst_lval(e.target, m),
                       use=subst_use(e.use, m))
    if isinstance(e, VarAlloc):
        return replace(e, use=subst_use(e.use, m))
    if isinstance(e, (New, Call)):
        return replace(e, args=tuple(subst_use(u, m) for u in e.args))
    if isinstance(e, (Freeze, Merge)):
        return replace(e, use=subst_use(e.use, m))
    if isinstance(e, Let):
        inner = {k: v for k, v in m.items() if k != e.name}
        return replace(e, binding=subst(e.binding, m),
                       body=subst(e.body, inner))
    if isinstance(e, TypeTest):
        inner = {k: v for k, v in m.items() if k != e.binder}
        return replace(e, use=subst_use(e.use, m),
                       then=subst(e.then, inner), els=subst(e.els, inner))
    if isinstance(e, Enter):
        captures = tuple((y, subst_use(u, m)) for y, u in e.captures)
        bound = {y for y, _ in e.captures} | {e.binder}
        inner = {k: v for k, v in m.items() if k not in bound}
        return replace(e, target=subst_lval(e.target, m), captures=captures,
                       body=subst(e.body, inner))
    if isinstance(e, Entered):
        inner = {k: v for k, v in m.items() if k != e.bridge}
        return replace(e, target=subst_lval(e.target, m),
                       body=subst(e.body, inner))
    raise AssertionError(f"unhandled node {e!r}")


def alpha_rename(e: Expr, names: FreshNames,
                 m: dict[str, str]) -> Expr:
    """Rename every binder in e to a fresh name, applying m to free uses."""
    if isinstance(e, Use):
        return subst_use(e, m)
    if isinstance(e, (Deref, Assign, VarAlloc, New, Call, Freeze, Merge)):
        return subst(e, m)
    if isinstance(e, Let):
        binding = alpha_rename(e.binding, names, m)
        x2 = names.fresh(e.name)
        inner = dict(m)
        inner[e.name] = x2
        return replace(e, name=x2, binding=binding,
                       body=alpha_rename(e.body, names, inner))
    if isinstance(e, TypeTest):
        y2 = names.fresh(e.binder)
        inner = dict(m)
        inner[e.binder] = y2
        return replace(e, use=subst_use(e.use, m), binder=y2,
                       then=alpha_rename(e.then, names, inner),
                       els=alpha_rename(e.els, names, inner))
    if isinstance(e, Enter):
        captures = []
        inner = dict(m)
        for y, u in e.captures:
            y2 = names.fresh(y)
            captures.append((y2, subst_use(u, m)))
            inner[y] = y2
        z2 = names.fresh(e.binder)
        inner[e.binder] = z2
        return replace(e, target=subst_lval(e.target, m),
                       captures=tuple(captures), binder=z2,
                       body=alpha_rename(e.body, names, inner))
    raise AssertionError(f"unhandled node {e!r}")


# ---------------------------------------------------------------------------
# Redex selection by rewriting, and the tandem loop around it
# ---------------------------------------------------------------------------

class SubstRunner:
    """Advances the command and region machines with one agreed effect."""

    def __init__(self, prog: Program, check: str = "off",
                 budget: int = 100_000,
                 bugs: frozenset[str] = frozenset(),
                 observer: Optional[Callable] = None) -> None:
        assert check in ("off", "final", "each-step")
        self.prog = prog
        self.check = check
        self.budget = budget
        self.machine = Machine(prog.classes, bugs)
        self.observer = observer
        self.names = FreshNames()
        self.de: DynExpr = prog.main
        self.steps = 0
        self._checking = check in ("final", "each-step")
        self.gammas = [{}] if self._checking else None

    # -- redex selection ---------------------------------------------------------

    def _step_dyn(self, de) -> tuple[Effect, DynExpr]:
        if isinstance(de, Let):
            b = de.binding
            if isinstance(b, Entered):
                if isinstance(b.body, Use):
                    x2 = self.names.fresh(de.name)
                    fld = b.target.fld if b.target.fld is not None else "val"
                    eff = ExitEff(x2, b.body, b.target.name, fld,
                                  b.bridge, "val")
                    return eff, subst(de.body, {de.name: x2})
                if b.body is FAILURE:
                    return Eps(), FAILURE
                eff, inner = self._step_dyn(b.body)
                return eff, replace(de, binding=replace(b, body=inner))
            if isinstance(b, Enter):
                return self._step_enter(de, b)
            if isinstance(b, TypeTest):
                eff, chosen = self._step_typetest(b)
                return eff, replace(de, binding=chosen)
            if isinstance(b, Call):
                return self._step_call(de, b)
            if isinstance(b, Let):
                # Re-associate: let x = (let y = b2 in e2) in e
                y2 = self.names.fresh(b.name)
                rotated = Let(y2, b.binding,
                              Let(de.name, subst(b.body, {b.name: y2}),
                                  de.body, de.pos), b.pos)
                return self._step_dyn(rotated)
            x2 = self.names.fresh(de.name)
            eff = synth_effect(x2, b, {})
            return eff, subst(de.body, {de.name: x2})
        if isinstance(de, TypeTest):
            eff, chosen = self._step_typetest(de)
            return eff, chosen
        raise Stuck(f"no step for {de!r}")

    def _step_enter(self, de: Let, b: Enter) -> tuple[Effect, DynExpr]:
        fld = b.target.fld if b.target.fld is not None else "val"
        if not self.machine.enter_enabled(b.target.name, fld):
            return BadEnter(b.target.name, fld), FAILURE
        mapping: dict[str, str] = {}
        captures = []
        for y, u in b.captures:
            y2 = self.names.fresh(y)
            mapping[y] = y2
            captures.append((y2, u))
        w2 = self.names.fresh(b.binder)
        mapping[b.binder] = w2
        body = subst(b.body, mapping)
        cap = Cap.TMP if b.target.fld is not None else Cap.VAR
        eff = EnterEff(w2, cap, b.target.name, fld, tuple(captures))
        ent = Entered(b.target, w2, body, b.pos)
        return eff, replace(de, binding=ent)

    def _step_typetest(self, b: TypeTest) -> tuple[Effect, Expr]:
        y2 = self.names.fresh(b.binder)
        if self.machine.cast_matches(b.use.name, b.ty):
            eff: Effect = CastEff(y2, b.use, b.ty)
            chosen = subst(b.then, {b.binder: y2})
        else:
            eff = NoCastEff(y2, b.use, b.ty)
            chosen = subst(b.els, {b.binder: y2})
        return eff, chosen

    def _step_call(self, de: Let, b: Call) -> tuple[Effect, DynExpr]:
        sig = self.prog.functions.lookup(b.fn)
        pairs = []
        mapping: dict[str, str] = {}
        for (pname, _), arg in zip(sig.params, b.args):
            p2 = self.names.fresh(pname)
            mapping[pname] = p2
            pairs.append((p2, arg))
        body = alpha_rename(sig.body, self.names, mapping)
        return Bind(tuple(pairs)), replace(de, binding=body)

    # -- driving -------------------------------------------------------------------

    def run(self) -> RunResult:
        from reggio.invariants import check_config_wf, check_effect_wf
        while True:
            if isinstance(self.de, Use):
                if self.check == "final":
                    report = check_config_wf(self.gammas, self.machine)
                    if not report["verdict"]:
                        return RunResult(Verdict.VIOLATION, self.steps,
                                         "final state ill-formed", report)
                return RunResult(Verdict.DONE, self.steps,
                                 str(self.de))
            if self.de is FAILURE:
                return RunResult(Verdict.FAILED, self.steps, "badenter")
            if self.steps >= self.budget:
                return RunResult(Verdict.BUDGET, self.steps)
            try:
                eff, succ = self._step_dyn(self.de)
            except Stuck as exc:
                return RunResult(Verdict.STUCK, self.steps,
                                 f"command machine: {exc}")
            try:
                self.machine.step_effect(eff)
            except Stuck as exc:
                return RunResult(Verdict.STUCK, self.steps,
                                 f"region machine: {exc}")
            self.steps += 1
            verdict_ok = None
            if self._checking:
                evolved = check_effect_wf(self.gammas, eff,
                                          self.prog.classes)
                if evolved is None:
                    return self._violation(
                        eff, f"effect {eff} rejected by wf-eff")
                self.gammas = evolved
                if self.check == "each-step":
                    report = check_config_wf(self.gammas, self.machine)
                    verdict_ok = report["verdict"]
                    if not verdict_ok:
                        return self._violation(eff, "invariant violation",
                                               report)
            if self.observer is not None:
                self.observer(self.steps, eff, verdict_ok)
            self.de = succ

    def _violation(self, eff: Effect, detail: str,
                   report: Optional[dict] = None) -> RunResult:
        """A step that a check rejected, shown to the observer first."""
        if self.observer is not None:
            self.observer(self.steps, eff, False)
        return RunResult(Verdict.VIOLATION, self.steps, detail, report)
