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

from .invariants import Fragments
from .model import Cap
from .machine import (BadEnter, Bind, CastEff, Effect, EnterEff, Eps,
                      ExitEff, FreezeEff, Halloc, Load, Machine, MergeEff,
                      NoCastEff, Salloc, Stuck, Swap)
from .syntax import (Assign, Call, Deref, Enter, Expr, Freeze, Let, Merge,
                     New, Program, TypeTest, Use, VarAlloc, desugar,
                     desugar_explore, replace, walk)
from .typecheck import Gamma


class _Failure:
    def __repr__(self) -> str:
        return "Failure"


FAILURE = _Failure()


class FreshNames:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self, base: str) -> str:
        """base up to its first $, then $ and the next number."""
        self.counter += 1
        if "$" in base:
            base = base[:base.index("$")]
        return f"{base}${self.counter}"


# ---------------------------------------------------------------------------
# Renaming through an environment (source name -> runtime name)
# ---------------------------------------------------------------------------

def rename_use(u: Use, env: dict[str, str]) -> Use:
    name = env.get(u.name)
    return u if name is None else replace(u, name=name)


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
    """let name = entered y.f bridge.val { [ ] } in body: an open region
    awaiting its exit, entered through the field f of the runtime name y."""

    name: str
    body: Expr
    env: dict[str, str]
    y: str
    f: str
    bridge: str


# ---------------------------------------------------------------------------
# Effect synthesis and stepping
# ---------------------------------------------------------------------------

def synth_effect(x: str, b: Expr, env: dict[str, str]) -> Effect:
    """The 11-row effect table for simple bound expressions.  Each name b
    uses is renamed per env as the effect is filled; a name env does not
    bind stands for itself."""
    kind = type(b)
    if kind is New:
        args = b.args
        if args:
            args = tuple([rename_use(u, env) for u in args])
        if b.cap is Cap.TMP:
            return Salloc(x, Cap.TMP, b.cls, args)
        return Halloc(x, b.cap, b.cls, args)
    if kind is Use:
        return Bind(((x, rename_use(b, env)),))
    if kind is Deref:
        t = b.target
        return Load(x, env.get(t.name, t.name), t.field)
    if kind is Assign:
        t = b.target
        return Swap(x, env.get(t.name, t.name), t.field,
                    rename_use(b.use, env))
    if kind is VarAlloc:
        return Salloc(x, Cap.VAR, "Cell", (rename_use(b.use, env),))
    if kind is Freeze:
        return FreezeEff(x, rename_use(b.use, env))
    if kind is Merge:
        return MergeEff(x, rename_use(b.use, env))
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
    gammas: Optional[list[Gamma]]
    machine: Machine
    fragments: Optional[Fragments]


def _copy_frame(frame: LetFrame | EnteredFrame,
                body: Expr) -> LetFrame | EnteredFrame:
    """frame with body and its own environment, which a return writes."""
    if type(frame) is LetFrame:
        return LetFrame(frame.name, body, dict(frame.env))
    return EnteredFrame(frame.name, body, dict(frame.env), frame.y, frame.f,
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
        if check not in ("off", "final", "each-step"):
            raise ValueError(f"unknown check mode {check!r}")
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
        self.gammas: Optional[list[Gamma]] = None
        self.fragments: Optional[Fragments] = None
        if self._checking:
            self.gammas = [{}]
        if check == "each-step":
            self.fragments = Fragments()

    # -- redex selection ---------------------------------------------------------

    def _step(self) -> Optional[Effect]:
        """Move to the next redex and reduce it; returns its effect, or None
        if the run has ended: the control is a value or a failure, with an
        empty stack.

        Fresh names are allocated in the order of the substituting
        semantics: a let reached with a let frame on top is where that
        semantics re-associates the nested lets, which costs one name."""
        names, stack = self.names, self.stack
        while True:
            c = self.control
            kind = type(c)
            if kind is Let:
                if stack and type(stack[-1]) is LetFrame:
                    names.counter += 1
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
                env = self.env
                eff = synth_effect(x2, b, env)
                env[c.name] = x2
                self.control = c.body
                return eff
            if kind is Use:
                return self._step_return(c) if stack else None
            if kind is TypeTest:
                return self._step_typetest(c)
            if c is FAILURE:
                if not stack:
                    return None
                # One Eps step collapses each entered frame.
                stack.pop()
                self._unwind()
                return Eps()
            raise Stuck(f"no step for {c!r}")

    def _step_return(self, u: Use) -> Effect:
        """The value of the top frame's hole is u: bind it or exit."""
        frame = self.stack.pop()
        x2 = self.names.fresh(frame.name)
        if type(frame) is LetFrame:
            eff = synth_effect(x2, u, self.env)
        else:
            eff = ExitEff(x2, rename_use(u, self.env), frame.y, frame.f,
                          frame.bridge, "val")
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
        t = b.target
        y, f = env.get(t.name, t.name), t.field
        if not self.machine.enter_enabled(y, f):
            self.control = FAILURE
            self._unwind()
            return BadEnter(y, f)
        inner = dict(env)
        captures = []
        for z, u in b.captures:
            z2 = self.names.fresh(z)
            inner[z] = z2
            captures.append((z2, rename_use(u, env)))
        w2 = self.names.fresh(b.binder)
        inner[b.binder] = w2
        self.stack.append(EnteredFrame(c.name, c.body, env, y, f, w2))
        self.env = inner
        self.control = b.body
        cap = Cap.TMP if t.fld is not None else Cap.VAR
        return EnterEff(w2, cap, y, f, tuple(captures))

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
        step, step_effect = self._step, self.machine.step_effect
        checking, fragments = self._checking, self.fragments
        classes, budget = self.prog.classes, self.budget
        while self.steps < budget:
            try:
                eff = step()
            except Stuck as exc:
                return RunResult(Verdict.STUCK, self.steps,
                                 f"command machine: {exc}")
            if eff is None:
                return self._halt()
            try:
                step_effect(eff)
            except Stuck as exc:
                return RunResult(Verdict.STUCK, self.steps,
                                 f"region machine: {exc}")
            self.steps += 1
            verdict_ok = None
            if checking:
                evolved = check_effect_wf(self.gammas, eff, classes)
                if evolved is None:
                    return self._violation(
                        eff, f"effect {eff} rejected by wf-eff")
                self.gammas = evolved
                if fragments is not None:
                    fragments.effect = eff
                    report = check_config_wf(evolved, self.machine,
                                             fragments)
                    verdict_ok = report["verdict"]
                    if not verdict_ok:
                        return self._violation(eff, "invariant violation",
                                               report)
            if self.observer is not None:
                self.observer(self.steps, eff, verdict_ok)
        c = self.control
        if not self.stack and (type(c) is Use or c is FAILURE):
            return self._halt()
        return self._end(Verdict.BUDGET)

    def _halt(self) -> RunResult:
        """The result of a run whose control is a value or a failure, with
        an empty stack."""
        if self.control is FAILURE:
            return self._end(Verdict.FAILED, "badenter")
        return self._end(Verdict.DONE,
                         str(rename_use(self.control, self.env)))

    def _violation(self, eff: Effect, detail: str,
                   report: Optional[dict] = None) -> RunResult:
        """A step that a check rejected, shown to the observer first."""
        if self.observer is not None:
            self.observer(self.steps, eff, False)
        return RunResult(Verdict.VIOLATION, self.steps, detail, report)

    def _end(self, verdict: Verdict, detail: str = "") -> RunResult:
        """The run's result.  Under a checked mode the final state goes to
        the full check, whatever the run's verdict: under final it is the
        one configuration check, and under each-step a run ends on the
        spec's verdict whatever the fast path passed."""
        if self._checking:
            from .invariants import check_config_wf
            report = check_config_wf(self.gammas, self.machine)
            if not report["verdict"]:
                return RunResult(Verdict.VIOLATION, self.steps,
                                 "invariant violation"
                                 if self.fragments is not None
                                 else "final state ill-formed", report)
        return RunResult(verdict, self.steps, detail)
