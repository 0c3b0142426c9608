"""Typed-program generation and the soundness harness.

The generator works forward: it grows a typing context statement by
statement, filters the operands it draws by the checker's own rules, and
types each statement by the checker's own rule as it emits it, so every
output program type checks by construction.  Programs are then
executed under full each-step invariant checking; any Stuck verdict or
invariant violation aborts the campaign with a shrunk, still-well-typed
reproducer.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .command import Snapshot, TandemRunner, Verdict
from .model import (Cap, CapType, ClassName, ClassTable, FunSig,
                    FunctionTable, Type, cap_in, leaves)
from .syntax import (Assign, Call, Deref, Enter, Expr, Freeze, Let, LVal,
                     Merge, New, Program, TypeTest, Use, VarAlloc,
                     _with_children, fold, parse_type, pretty_program, walk)
from .typecheck import UNDEF, Checker, Gamma, TypeCheckError, check_program

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_depth: int = 8        # statements per block scale

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


# Each production's weight.  rng.choices draws by position, so this order
# (by name) fixes the program a seed generates.
_WEIGHTS = {
    "call": 0.05,
    "deref": 1.5,
    "enter": 3.0,
    "enter_var": 2.0,
    "freeze": 2.0,
    "merge": 1.0,
    "new": 3.0,
    "swap": 2.0,
    "swap_var": 1.0,
    "typetest": 1.0,
    "var": 1.5,
}

_ENTER_NESTING = 3  # how deeply enters nest


# The fixed class menu.  A is the zero-field base; D nests a region (its
# field is iso); E has a mutable field; HA/HD are holders whose iso field
# can be entered.  Every field has a class-headed leaf that an iso
# constructor can take (iso or imm) and one that any other can, so every
# class can be built; no class has two fields with an iso leaf, so a
# constructor's drawn drop is its only argument.
_MENU: list[tuple[str, list[tuple[str, str]]]] = [
    ("A", []),
    ("B", [("bi", "imm A")]),
    ("D", [("di", "iso A")]),
    ("E", [("em", "mut A | imm A"), ("ei", "imm A")]),
    ("HA", [("h", "iso A")]),
    ("HD", [("h", "iso D")]),
]


def _menu_classes() -> ClassTable:
    table = ClassTable()
    for name, fields in _MENU:
        table.declare(name, [(f, parse_type(src)) for f, src in fields])
    return table


_SPIN = "spin"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

@dataclass
class _Scope:
    stmts: list[tuple[str, Expr]] = field(default_factory=list)
    env: Gamma = field(default_factory=dict)
    adjacent: frozenset[str] = frozenset()
    depth: int = 0  # remaining enter nesting


class _Gen:
    """Draws a program statement by statement.  Each statement is typed,
    as it is emitted, by the checker's own rule for it (_emit), so
    scope.env is always the context the checker has after the statements
    emitted so far, less the names they buried.  A drawn drop (a Use with
    drop set) stays in scope.env until the statement that takes it is
    typed; with the menu's classes (see _MENU) that is always the next
    statement emitted in its scope.

    A production filters its operands by the rule that types them: by the
    premise methods the rule calls (Checker.keeps, ...) or by a trial of
    the rule (_holds).  A freeze, merge or block result never drops the
    enter-var binder (scope.adjacent), which the exit rule needs bound.
    Drawing less than a rule allows is a policy, named where it is made.
    One holds throughout: receivers, targets and cell contents have one
    leaf, whose head gives the field or class."""

    # The menu's table, built once: no program's table changes after it.
    menu: Optional[ClassTable] = None

    def __init__(self, cfg: GenConfig, seed: int) -> None:
        self.cfg = cfg
        self.rng = random.Random(seed)
        if _Gen.menu is None:
            _Gen.menu = _menu_classes()
        self.classes = _Gen.menu
        self.class_names = [n for n, _ in _MENU]
        self.holders = [n for n in self.class_names if n.startswith("H")]
        self.functions = FunctionTable()
        self.checker = Checker(self.classes, self.functions)
        self.fn_order: list[str] = []
        self.counter = 0
        self.productions = [getattr(self, "p_" + name) for name in _WEIGHTS]
        total = 0  # rng.choices' own running sums of the weights
        self.cum_weights = [total := total + w for w in _WEIGHTS.values()]
        if self.rng.random() < 0.3:
            body = Let("sr", Call(_SPIN, ()), Use("sr", True))
            self.functions.declare(
                _SPIN, FunSig((), CapType(Cap.ISO, ClassName("A")), body))
            self.fn_order.append(_SPIN)

    def fresh(self, base: str = "x") -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    # -- helpers --------------------------------------------------------------

    def _holds(self, rule: Callable, t: Type, *args: object) -> bool:
        """Whether the checker's rule takes x: t, in a context of its own."""
        try:
            rule({"x": t}, "x", *args, (0, 0))
        except TypeCheckError:
            return False
        return True

    def _use(self, scope: _Scope, n: str) -> Use:
        """A use of n, a drop unless cmd-ty-use-keep lets it be kept."""
        return Use(n, not self.checker.keeps(scope.env[n]))

    def _emit(self, scope: _Scope, binding: Expr, base: str) -> str:
        """Type binding in scope by the checker's rule for it and bind it
        to a fresh name; returns the name."""
        t, env = self.checker.check_expr(scope.env, binding, scope.adjacent)
        return self._bind(scope, env, binding, t, base)

    def _bind(self, scope: _Scope, env: Gamma, binding: Expr, t: Type,
              base: str) -> str:
        """Bind binding, whose rule left the context env and gave the type
        t, to a fresh name.  The names the rule buried are deleted from
        env, so that scope.env keeps its order and holds no UNDEF."""
        for n in [n for n, b in env.items() if b is UNDEF]:
            del env[n]
        name = self.fresh(base)
        scope.stmts.append((name, binding))
        env[name] = t
        scope.env = env
        return name

    def materialize(self, scope: _Scope, cap: Cap, cls: str,
                    fresh: bool = False) -> Use:
        """Return a use of type `cap cls`, reusing or synthesizing; cap is
        mut, tmp, iso or imm."""
        target = CapType(cap, ClassName(cls))
        drop = not self.checker.keeps(target)  # cmd-ty-use-keep
        if not fresh and self.rng.random() < 0.6:
            cands = [n for n, t in scope.env.items() if t == target]
            if cands:
                return Use(self.rng.choice(cands), drop)
        if cap is Cap.IMM:  # cmd-ty-new makes no imm: freeze an iso
            inner = self.materialize(scope, Cap.ISO, cls)
            return Use(self._emit(scope, Freeze(inner), "im"))
        args = []
        for fname, ftype in self.classes.ftypes(ClassName(cls)):
            lf = self.rng.choice([lf for lf in leaves(ftype)
                                  if self.checker.new_arg(cap, lf)])
            args.append(self.materialize(scope, lf.cap, lf.head.name))
        return Use(self._emit(scope, New(cap, cls, tuple(args)), "n"), drop)

    # -- productions ------------------------------------------------------------

    def p_new(self, scope: _Scope) -> bool:
        cap = self.rng.choice([Cap.MUT, Cap.MUT, Cap.TMP, Cap.ISO])
        cls = self.rng.choice(self.class_names)
        self.materialize(scope, cap, cls, fresh=True)
        return True

    def p_freeze(self, scope: _Scope, merge: bool = False) -> bool:
        takes = self.checker.merges if merge else self.checker.freezes
        names = [n for n, t in scope.env.items()
                 if n not in scope.adjacent and takes(t)]
        if names:
            u = self._use(scope, self.rng.choice(names))
        else:
            cls = self.rng.choice(self.class_names[:3])  # A, B, D
            u = self.materialize(scope, Cap.ISO, cls, fresh=True)
        self._emit(scope, Merge(u) if merge else Freeze(u),
                   "mg" if merge else "fz")
        return True

    def p_merge(self, scope: _Scope) -> bool:
        return self.p_freeze(scope, merge=True)

    def p_var(self, scope: _Scope) -> bool:
        # A cell holds what enter_var can enter or, by policy, a mut or imm,
        # as swap_var stores (cmd-ty-create-var takes any but a var).
        isos = [n for n, t in scope.env.items() if self.checker.enters(t)]
        if isos and self.rng.random() < 0.7:
            u = self._use(scope, self.rng.choice(isos))
        else:
            cands = [n for n, t in scope.env.items()
                     if cap_in({Cap.MUT, Cap.IMM}, t)]
            if not cands:
                return False
            u = Use(self.rng.choice(cands))
        self._emit(scope, VarAlloc(u), "v")
        return True

    def p_deref(self, scope: _Scope) -> bool:
        # A var cell is read whole (*v), any other receiver field by field.
        cands = [(n, f) for n, t in scope.env.items() if type(t) is CapType
                 for f in ([None] if self.checker.is_var(t) else
                           [g for g, _ in self.classes.ftypes(t.head)])
                 if self.checker.reads(t, f or "val") is not None]
        if not cands:
            return False
        n, f = self.rng.choice(cands)
        self._emit(scope, Deref(LVal(n, f)), "d")
        return True

    def p_swap(self, scope: _Scope) -> bool:
        cands = [(n, fname, ftype) for n, t in scope.env.items()
                 if type(t) is CapType and self.checker.writes_through(t)
                 for fname, ftype in self.classes.ftypes(t.head)]
        if not cands:
            return False
        self.rng.shuffle(cands)
        n, f, ftype = cands[0]
        lf = self.rng.choice(list(leaves(ftype)))
        u = self.materialize(scope, lf.cap, lf.head.name)
        self._emit(scope, Assign(LVal(n, f), u), "s")
        return True

    def p_swap_var(self, scope: _Scope) -> bool:
        cands = [n for n, t in scope.env.items()
                 if type(t) is CapType and self.checker.is_var(t)
                 and self.checker.reads(t, "val") is not None]
        if not cands:
            return False
        n = self.rng.choice(cands)
        cls = self.rng.choice(self.class_names)
        # p_var's policy: a mut or imm; an adjacent cell takes what bridges.
        caps = [c for c in (Cap.MUT, Cap.IMM) if n not in scope.adjacent
                or self.checker.bridges(CapType(c, ClassName(cls)))]
        cap = caps[0] if len(caps) == 1 else self.rng.choice(caps)
        u = self.materialize(scope, cap, cls)
        self._emit(scope, Assign(LVal(n), u), "o")
        return True

    def p_typetest(self, scope: _Scope) -> bool:
        # Policy: a value is tested at its own capability.  A one-leaf value
        # tested at another capability always takes the else branch.
        cands = [(n, t) for n, t in scope.env.items()
                 if type(t) is CapType and isinstance(t.head, ClassName)
                 and self.checker.keeps(t)]
        if not cands:
            return False
        n, t = self.rng.choice(cands)
        if self.rng.random() < 0.5:
            ty: Type = t  # dynamic cast succeeds
        else:
            other = self.rng.choice(
                [c for c in self.class_names if c != t.head.name])
            ty = CapType(t.cap, ClassName(other))
        binder = self.fresh("tt")
        self._emit(scope, TypeTest(Use(n), ty, binder,
                                   Use(binder), Use(binder)), "q")
        return True

    def p_call(self, scope: _Scope) -> bool:
        if _SPIN not in self.fn_order:
            return False
        self._emit(scope, Call(_SPIN, ()), "c")
        return True

    # -- enters -----------------------------------------------------------------

    def _enter(self, scope: _Scope, n: str, f: Optional[str]) -> None:
        """Emit a block entering n.f, or the var cell n if f is None.

        Each name in scope.env is drawn as a capture with probability 0.4
        if the entry rule can suspend it, and dropped unless it can be
        kept.  The entry rule (Checker.enter_context) gives the block's
        context and buries the dropped captures in scope.env; the exit rule
        (Checker.exit_context) leaves the block, and the enter is bound at
        the type it checked."""
        caps: list[tuple[str, Use]] = []
        for m in list(scope.env):
            if self.rng.random() > 0.4:
                continue
            t = scope.env[m]
            y = self.fresh("k")
            if self.checker.suspends(t) is not None:
                caps.append((y, self._use(scope, m)))
        binder = self.fresh("z" if f is not None else "w")
        block = self.checker.enter_context(scope.env, tuple(caps), binder,
                                           n, f, (0, 0))
        inner = _Scope(env=block, depth=scope.depth - 1,
                       adjacent=frozenset() if f else frozenset({binder}))
        body, t_body = self._gen_body(inner)
        env = self.checker.exit_context(scope.env, inner.env, t_body, binder,
                                        n, f, (0, 0))
        self._bind(scope, env, Enter(LVal(n, f), tuple(caps), binder, body),
                   t_body, "e")

    def _body_result(self, scope: _Scope) -> tuple[Use, Type]:
        results = [(n, self.checker.keeps(t)) for n, t in scope.env.items()
                   if n not in scope.adjacent and self.checker.exits(t)]
        kept = [n for n, keep in results if keep]
        if kept and self.rng.random() < 0.5:
            u = Use(self.rng.choice(kept))
        else:
            dropped = [n for n, keep in results if not keep]
            if dropped and self.rng.random() < 0.5:
                u = Use(self.rng.choice(dropped), True)
            else:
                u = self.materialize(scope, Cap.ISO, "A", fresh=True)
        return u, self.checker.check_use(scope.env, u)[0]

    def _gen_body(self, scope: _Scope) -> tuple[Expr, Type]:
        for _ in range(self.rng.randint(1, 3 + self.cfg.max_depth // 3)):
            self.step(scope)
        # Consume captured isos inside the block now and then: this is what
        # makes stale-reinstatement and freeze bugs observable.
        for n in [n for n, t in scope.env.items()
                  if self.checker.freezes(t) and self.checker.merges(t)]:
            if self.rng.random() < 0.5:
                u = self._use(scope, n)
                self._emit(scope, Merge(u) if self.rng.random() < 0.5
                           else Freeze(u), "u")
        ret, t = self._body_result(scope)
        return _fold(scope.stmts, ret), t

    def p_enter(self, scope: _Scope) -> bool:
        if scope.depth <= 0:
            return False
        holders = [n for n, t in scope.env.items()
                   if type(t) is CapType and isinstance(t.head, ClassName)
                   and t.head.name in self.holders
                   and self._holds(self.checker.binder_type, t, "h")]
        if holders and self.rng.random() < 0.5:
            n = self.rng.choice(holders)
        else:
            cls = self.rng.choice(self.holders)
            n = self.materialize(scope, Cap.MUT, cls, fresh=True).name
        self._enter(scope, n, "h")
        return True

    def p_enter_var(self, scope: _Scope) -> bool:
        if scope.depth <= 0:
            return False
        targets = [n for n, t in scope.env.items()
                   if type(t) is CapType and self.checker.is_var(t)
                   and type(t.head.param) is CapType
                   and self._holds(self.checker.binder_type, t, None)]
        if targets and self.rng.random() < 0.5:
            n = self.rng.choice(targets)
        else:
            cls = self.rng.choice(["A", "D"])
            u = self.materialize(scope, Cap.ISO, cls)
            n = self._emit(scope, VarAlloc(u), "v")
        self._enter(scope, n, None)
        return True

    # -- program ----------------------------------------------------------------

    def step(self, scope: _Scope) -> None:
        for _ in range(6):
            production = self.rng.choices(
                self.productions, cum_weights=self.cum_weights)[0]
            if production(scope):
                return
        self.p_new(scope)

    def program(self) -> Program:
        scope = _Scope(depth=_ENTER_NESTING)
        if self.cfg.max_depth == 1:
            self.materialize(scope, Cap.MUT, "A", fresh=True)
        else:
            for _ in range(self.rng.randint(3, 4 + self.cfg.max_depth)):
                self.step(scope)
        finals = [n for n, t in scope.env.items() if self.checker.keeps(t)]
        ret = (Use(self.rng.choice(finals)) if finals
               else self.materialize(scope, Cap.MUT, "A"))
        self.checker.check_use(scope.env, ret)  # typed like a statement
        main = _fold(scope.stmts, ret)
        return Program(self.classes, self.functions, main,
                       list(self.class_names), list(self.fn_order))


def _fold(stmts: list[tuple[str, Expr]], ret: Expr) -> Expr:
    e = ret
    for name, binding in reversed(stmts):
        e = Let(name, binding, e)
    return e


def generate(cfg: GenConfig) -> Program:
    """Generate a well-typed program: every statement is typed by the
    checker's rule as it is emitted, so the program type checks by
    construction.  A TypeCheckError is a generator fault, and propagates."""
    return _Gen(cfg, seed=cfg.seed * 1_000_003).program()


# ---------------------------------------------------------------------------
# Soundness runs
# ---------------------------------------------------------------------------

def soundness_run(prog: Program, budget: int = 10_000,
                  bugs: frozenset[str] = frozenset(),
                  start: Optional[Callable[[TandemRunner], None]] = None
                  ) -> tuple[Verdict, str]:
    """The verdict and detail of prog's each-step run.  start, if given,
    is called with the runner before it runs: it may resume the runner
    from a snapshot and set its observer."""
    runner = TandemRunner(prog, check="each-step", budget=budget, bugs=bugs)
    if start is not None:
        start(runner)
    result = runner.run()
    return result.verdict, result.detail or ""


_TRIPPED = (Verdict.STUCK, Verdict.VIOLATION)


class Trips:
    """shrink's predicate: whether a candidate trips the planted bugs, its
    each-step run ending stuck or in violation.

    It resumes each candidate's run (see shrink) from the snapshot of the
    current program's run with the largest index at or before the edit, of
    those it keeps, at most one per mark of the current tree.  A run
    snapshots at the marks it passes up to its edit and at the first one
    after it, where the next candidate most often starts, and then stops:
    the next accepted edit leaves the later states behind, and a snapshot
    costs about what a checked step does.  A candidate that trips becomes
    the current program: the snapshots before its edit carry over and its
    own join them."""

    def __init__(self, budget: int, bugs: frozenset[str]) -> None:
        self.budget, self.bugs = budget, bugs
        self.snaps: dict[int, Snapshot] = {}  # by the control's index
        self.taken: dict[int, Snapshot] = {}  # by the last run

    def __call__(self, prog: Program, tree: _Tree) -> bool:
        """Whether prog, the program of tree, trips."""
        verdict, _ = soundness_run(prog, self.budget, self.bugs,
                                   self._start(tree))
        if verdict not in _TRIPPED:
            return False
        j, size = tree.edit
        snaps = {i: replace(snap, stack=[
            (f, b - size * (b > j)) for f, b in snap.stack])
            for i, snap in self.snaps.items() if i <= j}
        self.snaps = {**snaps, **self.taken}
        return True

    def _start(self, tree: _Tree) -> Callable[[TandemRunner], None]:
        j, size = tree.edit
        base = max((i for i in self.snaps if i <= j), default=None)
        nodes, index, marks = tree.nodes, tree.index, tree.marks()
        taken = self.taken = {}

        def start(runner: TandemRunner) -> None:
            if base is not None:
                runner.resume(self.snaps[base],
                              lambda i: nodes[i - size * (i > j)])

            def observe(steps: int, eff, ok: Optional[bool]) -> None:
                i = marks.get(id(runner.control))
                if i is not None and ok and (snap := runner.snapshot(index)):
                    taken[i] = snap
                    if i > j:
                        runner.observer = None
            runner.observer = observe
        return start


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _mentions(x: Expr) -> tuple[str, ...]:
    """The names node x mentions itself, not through its children."""
    kind = type(x)
    if kind is Use:
        return (x.name,)
    if kind is Let:
        return ()
    if kind is Enter:
        return (x.target.name, *(u.name for _y, u in x.captures))
    if kind is TypeTest:
        return (x.use.name,)
    if kind is Deref:
        return (x.target.name,)
    if kind is Assign:
        return (x.target.name, x.use.name)
    if kind is VarAlloc or kind is Freeze or kind is Merge:
        return (x.use.name,)
    return tuple(a.name for a in x.args)  # New, Call


def _names_in(e: Expr) -> set[str]:
    """The names the nodes of e mention."""
    return {n for x, _, _, k in walk(e) if k == 0 for n in _mentions(x)}


def _unused_sites(e: Expr) -> tuple[list[int], list[tuple[int, int]]]:
    """The shrinker's removal sites in e, found in one bottom-up pass.

    Let sites are the preorder indices of Let nodes whose bound name does
    not occur in their body; capture sites are (enter-index,
    capture-position) pairs, in preorder, for captures whose name does not
    occur in the enter's body.  A name occurs in an expression when a node
    in it mentions the name (_mentions), which over-approximates its free
    names."""
    lets: list[int] = []
    captures: list[tuple[int, int]] = []

    def names(x: Expr, index: int, kids: list[set[str]]) -> set[str]:
        # A fresh set that the caller may extend.
        kind = type(x)
        if kind is Let:
            binding, body = kids
            if x.name not in body:
                lets.append(index)
            body |= binding
            return body
        if kind is Enter:
            (body,) = kids
            captures.extend((index, i) for i, (y, _u) in enumerate(x.captures)
                            if y not in body)
        elif kind is TypeTest:
            body, els = kids
            body |= els
        else:
            return set(_mentions(x))
        body.update(_mentions(x))
        return body

    fold(e, names)
    return sorted(lets), sorted(captures)


def _change_path(e: Expr, target: int, change: Callable[[Expr], Expr]
                 ) -> tuple[Expr, list[tuple[int, Expr, Optional[int]]]]:
    """e with the node at preorder index target replaced by change(node),
    and the path to it in the result: (index, node, the kid on the path)
    for each ancestor, root first, then (target, change(node), None).  The
    walk stops at target, and only the path is copied."""
    path = []  # (ancestor, its index, its kids, the kid on the path)
    for node, index, kids, k in walk(e):
        if k:
            path.pop()  # back from kid k - 1
        if index == target:
            break
        if k < len(kids):
            path.append((node, index, kids, k))
    e = change(node)
    copied: list[tuple[int, Expr, Optional[int]]] = [(target, e, None)]
    for node, index, kids, k in reversed(path):
        e = _with_children(node, [*kids[:k], e, *kids[k + 1:]])
        copied.append((index, e, k))
    copied.reverse()
    return e, copied


def _removal(site: int | tuple[int, int]
             ) -> tuple[int, Callable[[Expr], Expr]]:
    """The index of the node that removing site changes, and the change."""
    if isinstance(site, int):
        return site, lambda x: x.body
    enter, k = site
    return enter, lambda x: replace(
        x, captures=x.captures[:k] + x.captures[k + 1:])


class _Tree:
    """A main as the shrinker keeps it: its nodes in preorder, the index of
    each by id (none if a node occurs twice), its removal sites
    (_unused_sites), and the edit that made it from its parent's: the
    index j of the node removed or changed and the number of nodes
    removed, so that a parent's index i > j is i - size here."""

    def __init__(self, main: Expr, nodes: list[Expr], lets: list[int],
                 captures: list[tuple[int, int]],
                 edit: tuple[int, int] = (-1, 0),
                 path: Sequence[tuple[int, Expr, Optional[int]]] = (),
                 removed: Optional[Expr] = None) -> None:
        self.main, self.nodes = main, nodes
        self.lets, self.captures = lets, captures
        self.edit, self.path, self.removed = edit, path, removed
        index = {id(x): i for i, x in enumerate(nodes)}
        self.index = index if len(index) == len(nodes) else {}

    @staticmethod
    def of(main: Expr) -> _Tree:
        return _Tree(main, [x for x, _, _, k in walk(main) if k == 0],
                     *_unused_sites(main))

    def marks(self) -> dict[int, int]:
        """Where a run snapshots, by the node's id: each let site, and the
        let whose binding is an enter with a capture site."""
        marks = ([*self.lets, *(e - 1 for e, _ in self.captures)]
                 if self.index else [])
        return {id(self.nodes[i]): i for i in marks}

    def without(self, site: int | tuple[int, int]) -> _Tree:
        """The tree with site removed.  Its sites are this tree's, past the
        edit shifted, less those removed; add_freed_sites adds the ones the
        removal may have freed."""
        j, change = _removal(site)
        main, path = _change_path(self.main, j, change)
        nodes, lets, captures = self.nodes, self.lets, self.captures
        if isinstance(site, int):
            removed = nodes[j].binding
            size = 1 + sum(k == 0 for _, _, _, k in walk(removed))
            gone = range(j, j + size)
            nodes = nodes[:j] + nodes[j + size:]
            lets = [i - size * (i > j) for i in lets if i not in gone]
            captures = [(e - size * (e > j), k) for e, k in captures
                        if e not in gone]
        else:
            removed, size = nodes[j].captures[site[1]][1], 0
            nodes, lets = nodes[:], lets[:]
            captures = [(e, k - (e == j and k > site[1]))
                        for e, k in captures if (e, k) != site]
        for i, x, _ in path:
            nodes[i] = x
        return _Tree(main, nodes, lets, captures, (j, size), path, removed)

    def add_freed_sites(self) -> None:
        """Add the sites that the edit freed: the lets and the captures of
        enters on the path to it whose name the removed binding or capture
        use mentioned, and that their body no longer mentions."""
        lost = _names_in(self.removed)
        lets, captures = self.lets, self.captures
        for i, x, k in self.path:
            if type(x) is Let and k == 1:
                if (x.name in lost and i not in lets
                        and x.name not in _names_in(x.body)):
                    lets.append(i)
            elif type(x) is Enter and k == 0:
                ys = [(c, y) for c, (y, _u) in enumerate(x.captures)
                      if y in lost and (i, c) not in captures]
                if ys:
                    body = _names_in(x.body)
                    captures.extend((i, c) for c, y in ys if y not in body)
        lets.sort()
        captures.sort()


def _prune_decls(prog: Program) -> Program:
    """prog without each class and function declaration that check_program
    accepts it without.  A pass tries the declarations from the last to
    the first, so one that only later ones use goes in the same pass;
    passes repeat while one removes something."""
    decls = [(c, prog.classes.ftypes(ClassName(c))) for c in prog.class_order]
    decls += [(f, prog.functions.lookup(f)) for f in prog.fn_order]
    pruned = True
    while pruned:
        pruned = False
        for i in reversed(range(len(decls))):
            rest = decls[:i] + decls[i + 1:]
            cand = Program(ClassTable(), FunctionTable(), prog.main)
            for name, d in rest:
                fn = type(d) is FunSig
                (cand.functions if fn else cand.classes).declare(name, d)
                (cand.fn_order if fn else cand.class_order).append(name)
            try:
                check_program(cand)
            except TypeCheckError:
                continue
            prog, decls, pruned = cand, rest, True
    return prog


def shrink(prog: Program, budget: int, bugs: frozenset[str]) -> Program:
    """Greedy removal of unused lets/captures/declarations while the
    program keeps type checking and its each-step run under bugs keeps
    tripping (Trips).

    Only programs that have type checked are run.  Candidates keep the
    declarations, which neither type checking nor a run reads unless main
    names them; the result drops each one that check_program accepts it
    without (_prune_decls).

    A candidate differs from the current program only at its edit: one
    let or capture removed.  Control moves forward through main in
    preorder (main has no loops, calls return to it, and a failed enter
    unwinds forward), so up to the edit a candidate's run repeats the
    current program's.  So it resumes from a snapshot of the current
    program's run taken at or before the edit: the step count, the
    fresh-name counter, the environment and continuation stack, the
    context stack (shared), and clones of the machine and the fast path's
    summaries, with every node of main held as its preorder index."""
    try:
        check_program(prog)
    except TypeCheckError:
        return prog
    trips = Trips(budget, bugs)
    tree = _Tree.of(prog.main)
    if not trips(prog, tree):
        return prog
    current = prog
    progress = True
    while progress:
        progress = False
        for site in tree.lets + tree.captures:
            cand_tree = tree.without(site)
            cand = replace(current, main=cand_tree.main)
            try:
                check_program(cand)
            except TypeCheckError:
                continue
            if trips(cand, cand_tree):
                current, tree = cand, cand_tree
                tree.add_freed_sites()
                progress = True
                break
    return _prune_decls(current)


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    runs: int = 0
    done: int = 0
    failed: int = 0
    budget_outs: int = 0
    abort_seed: Optional[int] = None
    abort_detail: Optional[str] = None
    counterexample: Optional[str] = None

    def summary(self) -> str:
        if self.counterexample is not None:
            return (f"ABORT at seed {self.abort_seed} after {self.runs} "
                    f"runs: {self.abort_detail}")
        return (f"{self.runs} runs: {self.done} done, {self.failed} failed, "
                f"{self.budget_outs} budget, 0 stuck, 0 violations")


def campaign(n: int, cfg: GenConfig, budget: int = 10_000,
             bugs: frozenset[str] = frozenset()) -> CampaignResult:
    result = CampaignResult()
    for i in range(n):
        sub = replace(cfg, seed=cfg.seed + i)
        prog = generate(sub)
        verdict, detail = soundness_run(prog, budget, bugs)
        result.runs += 1
        if verdict is Verdict.DONE:
            result.done += 1
        elif verdict is Verdict.FAILED:
            result.failed += 1
        elif verdict is Verdict.BUDGET:
            result.budget_outs += 1
        else:
            small = shrink(prog, budget, bugs)
            result.abort_seed = sub.seed
            result.abort_detail = f"{verdict.value}: {detail}"
            result.counterexample = pretty_program(small)
            return result
    return result
