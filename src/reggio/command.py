"""Command-language dynamic semantics and the tandem driver.

The command machine is an environment machine: a control expression, an
environment renaming its free source names to fresh runtime names, and a
continuation stack of let frames and entered frames (an entered frame is
an open region awaiting its exit).  A failed enter unwinds the stack to
the entered frames, which collapse one step each.  Each step reduces one
redex, synthesizes its effect, and advances the region machine with the
same effect.  At the two nondeterministic points (enter vs badenter, cast
vs nocast) the driver asks the region machine which branch is enabled.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .invariants import ContextStack, Fragments
from .model import Cap, FunctionTable, FunSig
from .machine import (BadEnter, Bind, CastEff, Effect, EnterEff, Eps,
                      ExitEff, FreezeEff, Halloc, Load, Machine, MergeEff,
                      NoCastEff, Salloc, Stuck, Swap)
from .syntax import (Assign, Call, Deref, Enter, Expr, Freeze, Let, LVal,
                     Merge, New, Program, TypeTest, Use, VarAlloc, rebuild,
                     replace, walk)


class _Failure:
    def __repr__(self) -> str:
        return "Failure"


FAILURE = _Failure()


class FreshNames:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base.split('$')[0]}${self.counter}"


# ---------------------------------------------------------------------------
# Renaming through an environment (source name -> runtime name)
# ---------------------------------------------------------------------------

def rename_use(u: Use, env: dict[str, str]) -> Use:
    if u.name in env:
        return replace(u, name=env[u.name])
    return u


def rename_lval(lv: LVal, env: dict[str, str]) -> LVal:
    if lv.name in env:
        return replace(lv, name=env[lv.name])
    return lv


def rename(b: Expr, env: dict[str, str]) -> Expr:
    """A binder-free binding with its names renamed per env."""
    kind = type(b)  # no syntax class has a subclass
    if kind is Use:
        return rename_use(b, env)
    if kind is New:
        return replace(b, args=tuple(rename_use(u, env) for u in b.args))
    if kind is Deref:
        return replace(b, target=rename_lval(b.target, env))
    if kind is Assign:
        return replace(b, target=rename_lval(b.target, env),
                       use=rename_use(b.use, env))
    if kind is VarAlloc or kind is Freeze or kind is Merge:
        return replace(b, use=rename_use(b.use, env))
    raise AssertionError(f"unhandled node {b!r}")


def binder_count(e: Expr) -> int:
    """The binders in e: lets, typetest binders, enter captures and binders.

    A call advances the fresh-name counter by this much, as renaming the
    callee's body apart at the call would, so that every later fresh name
    keeps its number."""
    n = 0
    for x, _, _, k in walk(e):
        if k == 0 and isinstance(x, (Let, TypeTest)):
            n += 1
        elif k == 0 and isinstance(x, Enter):
            n += len(x.captures) + 1
    return n


# ---------------------------------------------------------------------------
# Continuation frames
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class LetFrame:
    """let name = [ ] in body: a let whose binding is being evaluated."""

    name: str
    body: Expr
    env: dict[str, str]


@dataclass(slots=True)
class EnteredFrame:
    """let name = entered target bridge.val { [ ] } in body: an open region
    awaiting its exit; target is already renamed."""

    name: str
    body: Expr
    env: dict[str, str]
    target: LVal
    bridge: str


# ---------------------------------------------------------------------------
# Explore desugaring
# ---------------------------------------------------------------------------

def desugar_explore(e: Enter) -> Enter:
    """explore lv [ȳ=ū] { z => body } opens the target region suspended.

    Desugars to entering the target normally and immediately entering a
    throwaway region (a fresh var cell over a new iso Unit) on top of it;
    the body then runs with the target suspended, seeing the bridge object
    and every capture through the paused viewpoint.
    """
    pos = e.pos
    outer_binder = e.binder + "~o"
    outer_caps = tuple((y + "~o", u) for y, u in e.captures)
    inner_caps = (tuple((y, Use(y + "~o", False, pos))
                        for y, _ in e.captures)
                  + ((e.binder, Use("v~x", False, pos)),))
    inner = Enter(LVal("c~x", None, pos), inner_caps, "z~i", e.body,
                  False, pos)
    outer_body = Let(
        "v~x", Deref(LVal(outer_binder, "val", pos), pos),
        Let("t~x", New(Cap.ISO, "Unit", (), pos),
            Let("c~x", VarAlloc(Use("t~x", True, pos), pos),
                Let("r~x", inner, Use("r~x", True, pos), pos),
                pos),
            pos),
        pos)
    return Enter(e.target, outer_caps, outer_binder, outer_body, False, pos)


def desugar(e: Expr) -> Expr:
    """e with every explore desugared."""
    return rebuild(e, lambda x, _: desugar_explore(x)
                   if isinstance(x, Enter) and x.explore else x)


def desugar_program(prog: Program) -> Program:
    """prog with every explore desugared; prog itself is left as it is."""
    functions = FunctionTable()
    for fname in prog.functions.names():
        sig = prog.functions.lookup(fname)
        functions.declare(fname, FunSig(sig.params, sig.result,
                                        desugar(sig.body)))
    return Program(prog.classes, functions, desugar(prog.main),
                   prog.class_order, prog.fn_order)


# ---------------------------------------------------------------------------
# Effect synthesis and stepping
# ---------------------------------------------------------------------------

def synth_effect(x: str, b: Expr) -> Effect:
    """The 11-row effect table for simple bound expressions."""
    kind = type(b)
    if kind is Use:
        return Bind(((x, b),))
    if kind is New:
        if b.cap is Cap.TMP:
            return Salloc(x, Cap.TMP, b.cls, b.args)
        return Halloc(x, b.cap, b.cls, b.args)
    if kind is Deref:
        return Load(x, b.target.name, b.target.field)
    if kind is Assign:
        return Swap(x, b.target.name, b.target.field, b.use)
    if kind is VarAlloc:
        return Salloc(x, Cap.VAR, "Cell", (b.use,))
    if kind is Freeze:
        return FreezeEff(x, b.use)
    if kind is Merge:
        return MergeEff(x, b.use)
    raise AssertionError(f"no effect row for {b!r}")


class Verdict(Enum):
    DONE = "done"
    FAILED = "failed"
    BUDGET = "budget"
    STUCK = "stuck"
    VIOLATION = "violation"


@dataclass
class RunResult:
    verdict: Verdict
    steps: int
    detail: str = ""
    report: Optional[dict] = None


@dataclass(slots=True)
class Snapshot:
    """A run's state between two steps (TandemRunner.snapshot), with the
    control and each frame's body held as their preorder indices in main:
    stack pairs a copy of each frame with its body's index."""

    steps: int
    counter: int  # the fresh-name counter
    control: int
    env: dict[str, str]
    stack: list[tuple[LetFrame | EnteredFrame, int]]
    gammas: Optional[ContextStack]
    machine: Machine
    fragments: Optional[Fragments]


def _copy_frame(frame: LetFrame | EnteredFrame,
                body: Expr) -> LetFrame | EnteredFrame:
    """frame with body and its own environment, which a return writes."""
    if type(frame) is LetFrame:
        return LetFrame(frame.name, body, dict(frame.env))
    return EnteredFrame(frame.name, body, dict(frame.env), frame.target,
                        frame.bridge)


class TandemRunner:
    """Advances the command and region machines with one agreed effect.

    The command machine's state is a control expression, the environment
    ``env`` that renames its free source names to runtime names, and a
    stack of continuation frames.  The control is a source subexpression
    and is never rewritten, so a step costs O(arguments of the redex).
    An explore is desugared when the control reaches it, so the runner
    behaves as on desugar_program(prog) without a pass over prog."""

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
        self.control: Expr | _Failure = prog.main
        self.env: dict[str, str] = {}
        self.stack: list[LetFrame | EnteredFrame] = []
        self._binders: dict[str, int] = {}
        self.steps = 0
        self._checking = check in ("final", "each-step")
        self.gammas: Optional[ContextStack] = None
        self.fragments: Optional[Fragments] = None
        if self._checking:
            self.gammas = ContextStack()
        if check == "each-step":
            self.fragments = Fragments()

    # -- redex selection ---------------------------------------------------------

    def _step(self) -> Effect:
        """Move to the next redex and reduce it; returns its effect.

        Fresh names are allocated in the order of the substituting
        semantics: a let reached with a let frame on top is where that
        semantics re-associates the nested lets, which costs one name."""
        names, stack = self.names, self.stack
        while True:
            c = self.control
            kind = type(c)
            if kind is Let:
                if stack and type(stack[-1]) is LetFrame:
                    names.fresh(c.name)
                b = c.binding
                kind = type(b)
                if kind is Let or kind is TypeTest:
                    stack.append(LetFrame(c.name, c.body, dict(self.env)))
                    self.control = b
                    continue
                if kind is Call:
                    return self._step_call(c, b)
                if kind is Enter:
                    return self._step_enter(c, b)
                x2 = names.fresh(c.name)
                eff = synth_effect(x2, rename(b, self.env))
                self.env[c.name] = x2
                self.control = c.body
                return eff
            if kind is Use:
                return self._step_return(c)
            if kind is TypeTest:
                return self._step_typetest(c)
            if c is FAILURE:
                # One Eps step collapses each entered frame.
                stack.pop()
                self._unwind()
                return Eps()
            raise Stuck(f"no step for {c!r}")

    def _step_return(self, u: Use) -> Effect:
        """The value of the top frame's hole is u: bind it or exit."""
        frame = self.stack.pop()
        x2 = self.names.fresh(frame.name)
        u = rename_use(u, self.env)
        if type(frame) is LetFrame:
            eff = synth_effect(x2, u)
        else:
            t = frame.target
            eff = ExitEff(x2, u, t.name, t.field, frame.bridge, "val")
        self.env = frame.env
        self.env[frame.name] = x2
        self.control = frame.body
        return eff

    def _unwind(self) -> None:
        """Drop the let frames above the nearest entered frame."""
        stack = self.stack
        while stack and type(stack[-1]) is LetFrame:
            stack.pop()

    def _step_enter(self, c: Let, b: Enter) -> Effect:
        if b.explore:
            b = desugar_explore(b)
        env = self.env
        target = rename_lval(b.target, env)
        fld = target.field
        if not self.machine.enter_enabled(target.name, fld):
            self.control = FAILURE
            self._unwind()
            return BadEnter(target.name, fld)
        inner = dict(env)
        captures = []
        for y, u in b.captures:
            y2 = self.names.fresh(y)
            inner[y] = y2
            captures.append((y2, rename_use(u, env)))
        w2 = self.names.fresh(b.binder)
        inner[b.binder] = w2
        self.stack.append(EnteredFrame(c.name, c.body, env, target, w2))
        self.env = inner
        self.control = b.body
        cap = Cap.TMP if target.fld is not None else Cap.VAR
        return EnterEff(w2, cap, target.name, fld, tuple(captures))

    def _step_typetest(self, b: TypeTest) -> Effect:
        y2 = self.names.fresh(b.binder)
        u = rename_use(b.use, self.env)
        if self.machine.cast_matches(u.name, b.ty):
            eff: Effect = CastEff(y2, u, b.ty)
            self.control = b.then
        else:
            eff = NoCastEff(y2, u, b.ty)
            self.control = b.els
        self.env[b.binder] = y2
        return eff

    def _step_call(self, c: Let, b: Call) -> Effect:
        sig = self.prog.functions.lookup(b.fn)
        pairs = []
        env: dict[str, str] = {}
        for (pname, _), arg in zip(sig.params, b.args):
            p2 = self.names.fresh(pname)
            env[pname] = p2
            pairs.append((p2, rename_use(arg, self.env)))
        if b.fn not in self._binders:
            self._binders[b.fn] = binder_count(desugar(sig.body))
        self.names.counter += self._binders[b.fn]
        self.stack.append(LetFrame(c.name, c.body, self.env))
        self.env = env
        self.control = sig.body
        return Bind(tuple(pairs))

    # -- snapshots -----------------------------------------------------------------

    def snapshot(self, index: dict[int, int]) -> Optional[Snapshot]:
        """The run's state, or None unless the control and every frame's
        body are nodes of main, which index maps by id to their preorder
        indices.  The machine and the summaries are cloned; the context
        stack is shared, as no check writes the stack it is given."""
        control = index.get(id(self.control))
        stack = [(_copy_frame(f, f.body), index.get(id(f.body)))
                 for f in self.stack]
        if control is None or any(i is None for _, i in stack):
            return None
        copies: dict[int, object] = {}
        machine = self.machine.clone(copies)
        fragments = (None if self.fragments is None
                     else self.fragments.clone(copies))
        return Snapshot(self.steps, self.names.counter, control,
                        dict(self.env), stack, self.gammas, machine,
                        fragments)

    def resume(self, snap: Snapshot, node: Callable[[int], Expr]) -> None:
        """Go on from snap, taken with the same check mode and bugs, where
        node(i) is this runner's node for index i of the snapshot's main.
        The run reaches the snapshot's state if its main differs only in
        nodes that control had not reached (see fuzz.shrink)."""
        self.steps, self.names.counter = snap.steps, snap.counter
        self.control = node(snap.control)
        self.env = dict(snap.env)
        self.stack = [_copy_frame(f, node(i)) for f, i in snap.stack]
        self.gammas = snap.gammas
        copies: dict[int, object] = {}
        self.machine = snap.machine.clone(copies)
        if snap.fragments is not None:
            self.fragments = snap.fragments.clone(copies)

    # -- driving -------------------------------------------------------------------

    def run(self) -> RunResult:
        from .invariants import check_config_wf, check_effect_wf
        while True:
            if not self.stack:
                if isinstance(self.control, Use):
                    if self.check == "final":
                        report = check_config_wf(self.gammas, self.machine)
                        if not report["verdict"]:
                            return RunResult(Verdict.VIOLATION, self.steps,
                                             "final state ill-formed",
                                             report)
                    return self._end(Verdict.DONE, str(
                        rename_use(self.control, self.env)))
                if self.control is FAILURE:
                    return self._end(Verdict.FAILED, "badenter")
            if self.steps >= self.budget:
                return self._end(Verdict.BUDGET)
            try:
                eff = self._step()
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
                if self.fragments is not None:
                    self.fragments.effect = eff
                    report = check_config_wf(self.gammas, self.machine,
                                             self.fragments)
                    verdict_ok = report["verdict"]
                    if not verdict_ok:
                        return self._violation(eff, "invariant violation",
                                               report)
            if self.observer is not None:
                self.observer(self.steps, eff, verdict_ok)

    def _violation(self, eff: Effect, detail: str,
                   report: Optional[dict] = None) -> RunResult:
        """A step that a check rejected, shown to the observer first."""
        if self.observer is not None:
            self.observer(self.steps, eff, False)
        return RunResult(Verdict.VIOLATION, self.steps, detail, report)

    def _end(self, verdict: Verdict, detail: str = "") -> RunResult:
        """The run's result.  Under each-step the final state also goes to
        the full check, so a run ends on the spec's verdict whatever the
        fast path passed."""
        if self.fragments is not None:
            from .invariants import check_config_wf
            report = check_config_wf(self.gammas, self.machine)
            if not report["verdict"]:
                return RunResult(Verdict.VIOLATION, self.steps,
                                 "invariant violation", report)
        return RunResult(verdict, self.steps, detail)
