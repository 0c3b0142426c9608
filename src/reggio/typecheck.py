"""Flow-sensitive static semantics.

Typing contexts map variables to a type or UNDEF (buried).  Checking is
syntax-directed; subsumption (cmd-ty-sub) is applied only at demand sites
(argument passing, field writes, body-result checks, branch merges), and
union-typed receivers are handled leafwise, which realizes cmd-ty-split.

A rule writes the context it is handed in place (a drop buries the name
there) and returns it, or a new context where it must (a type test's
merge); a caller that still needs its old context passes a copy.

Diagnostics carry the name of the violated rule verbatim and print as
``<file>:<line>:<col>: error[<rule-name>]: <message>``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import (Cap, CapType, CellHead, ClassName, ClassTable,
                    FunctionTable, OPEN_CAPS, Type, UnionType, cap_in,
                    cap_not_in, fresult, is_open, leaves, make_cell,
                    make_imm, make_iso, make_mut, map_leaves, subtype,
                    type_wf, vpa, vpa_type)
from .syntax import (Assign, Call, Deref, Enter, Expr, Freeze, Let, Merge,
                     New, Pos, Program, TypeTest, Use, VarAlloc, pretty_type)


class _Undef:
    """Sentinel binding for buried (dropped) variables."""

    def __repr__(self) -> str:
        return "UNDEF"


UNDEF = _Undef()
Binding = Type | _Undef
Gamma = dict[str, Binding]


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    msg: str
    pos: Pos

    def render(self, path: str) -> str:
        line, col = self.pos
        return f"{path}:{line}:{col}: error[{self.rule}]: {self.msg}"


class TypeCheckError(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(f"{diagnostic.rule}: {diagnostic.msg}")
        self.diagnostic = diagnostic


def _fail(rule: str, msg: str, pos: Pos) -> None:
    raise TypeCheckError(Diagnostic(rule, msg, pos))


def merge_contexts(g1: Gamma, g2: Gamma) -> Gamma:
    """Pointwise (Γ₁|Γ₂): UNDEF absorbs; differing types union."""
    if g1.keys() != g2.keys():
        raise ValueError("context domain mismatch")
    out: Gamma = {}
    for x, b1 in g1.items():
        b2 = g2[x]
        if b1 is UNDEF or b2 is UNDEF:
            out[x] = UNDEF
        elif b1 == b2:
            out[x] = b1
        else:
            out[x] = UnionType(b1, b2)
    return out


def fresult_keep_iso(t: Type, f: str, classes: ClassTable) -> Type | None:
    """Field lookup used by the enter rules: like fresult, but an iso field
    keeps its iso-ness instead of the read table's undefined entry.

    The read table makes open-capability views of iso fields inaccessible
    (non-destructive reads cannot move them); entering consumes the field's
    uniqueness instead, so the enter rules see the iso as iso.
    """
    if isinstance(t, UnionType):
        left = fresult_keep_iso(t.left, f, classes)
        right = fresult_keep_iso(t.right, f, classes)
        if left is None or right is None:
            return None
        return UnionType(left, right)
    ftype = classes.ftype(t.head, f)
    if ftype is None:
        return None

    def adapt(leaf: CapType) -> CapType | None:
        if leaf.cap is Cap.ISO and is_open(t.cap):
            return leaf
        k = vpa(t.cap, leaf.cap)
        return None if k is None else CapType(k, leaf.head)

    return map_leaves(ftype, adapt)


class Checker:
    """Type checker over a fixed class/function table."""

    def __init__(self, classes: ClassTable,
                 functions: FunctionTable) -> None:
        self.classes = classes
        self.functions = functions
        # check_new's field types and result type, by (cap, class).
        self._new_heads: dict[tuple[Cap, str], tuple[list, CapType]] = {}

    # -- uses -----------------------------------------------------------------

    def lookup(self, gamma: Gamma, name: str, rule: str, pos: Pos) -> Type:
        if name not in gamma:
            _fail(rule, f"unbound variable {name}", pos)
        b = gamma[name]
        if b is UNDEF:
            _fail(rule, f"variable {name} is undefined here "
                        "(consumed by an earlier drop)", pos)
        return b

    # -- premises, shared by the rules named beside them and the generator

    def keeps(self, t: Type) -> bool:  # cmd-ty-use-keep
        return cap_not_in({Cap.ISO, Cap.VAR}, t)

    def new_arg(self, cap: Cap, t_a: Type) -> bool:  # cmd-ty-new
        return cap is not Cap.ISO or cap_in({Cap.ISO, Cap.IMM}, t_a)

    def is_var(self, t_x: Type) -> bool:  # cmd-ty-deref-var, -assign-var,
        return cap_in({Cap.VAR}, t_x)      # -enter-var

    def reads(self, t_x: Type, f: str) -> Type | None:  # cmd-ty-deref-*,
        return fresult(t_x, f, self.classes)             # -assign-var

    def writes_through(self, t_x: Type) -> bool:  # cmd-ty-assign
        return cap_in({Cap.MUT, Cap.TMP}, t_x)

    def bridges(self, t_u: Type) -> bool:  # cmd-ty-assign-var-adjacent,
        return cap_in({Cap.MUT}, t_u)         # -enter-var's exit

    def freezes(self, t: Type) -> bool:  # cmd-ty-freeze
        return cap_in({Cap.ISO}, t)

    def merges(self, t: Type) -> bool:  # cmd-ty-merge
        return cap_in({Cap.ISO}, t)

    def suspends(self, t: Type) -> Type | None:  # cmd-ty-enter(-var)
        return t if cap_in({Cap.ISO}, t) else vpa_type(Cap.PAUSED, t)

    def enters(self, t_f: Type) -> bool:  # cmd-ty-enter(-var)
        return cap_in({Cap.ISO}, t_f)

    def exits(self, t: Type) -> bool:  # cmd-ty-enter(-var)
        return cap_in({Cap.ISO, Cap.IMM}, t)

    def check_use(self, gamma: Gamma, u: Use) -> tuple[Type, Gamma]:
        if u.drop:
            t = self.lookup(gamma, u.name, "cmd-ty-use-drop", u.pos)
            gamma[u.name] = UNDEF
            return t, gamma
        t = self.lookup(gamma, u.name, "cmd-ty-use-keep", u.pos)
        if not self.keeps(t):
            _fail("cmd-ty-use-keep",
                  f"plain read of {u.name}: {pretty_type(t)} would "
                  f"duplicate an iso/var; use `drop {u.name}`", u.pos)
        return t, gamma

    # -- expressions -----------------------------------------------------------

    def check_expr(self, gamma: Gamma, e: Expr,
                   adjacent: frozenset[str] = frozenset()
                   ) -> tuple[Type, Gamma]:
        if isinstance(e, Use):
            return self.check_use(gamma, e)
        if isinstance(e, Deref):
            return self.check_deref(gamma, e.target.name, e.target.fld, e.pos)
        if isinstance(e, Assign):
            return self.check_assign(gamma, e.target.name, e.target.fld,
                                     e.use, e.pos, adjacent)
        if isinstance(e, VarAlloc):
            return self.check_var_alloc(gamma, e.use, e.pos)
        if isinstance(e, New):
            return self.check_new(gamma, e.cap, e.cls, e.args, e.pos)
        if isinstance(e, Freeze):
            return self.check_freeze(gamma, e.use, e.pos)
        if isinstance(e, Merge):
            return self.check_merge(gamma, e.use, e.pos)
        if isinstance(e, Call):
            return self._check_call(gamma, e)
        if isinstance(e, Enter):
            return self._check_enter(gamma, e)
        if isinstance(e, Let):
            return self._check_let_spine(gamma, e, adjacent)
        if isinstance(e, TypeTest):
            return self._check_typetest(gamma, e, adjacent)
        raise AssertionError(f"unhandled expression {e!r}")

    def _check_let_spine(self, gamma: Gamma, e: Let,
                         adjacent: frozenset[str]) -> tuple[Type, Gamma]:
        """let x1 = b1 in ... let xn = bn in body, checked in a loop.

        The spine copies gamma once, so the caller keeps its context, and
        its rules extend and bury in that copy; an undo list of (name,
        shadowed, saved) restores the outer bindings of x1..xn after the
        body."""
        gamma = dict(gamma)
        undo: list[tuple[str, bool, Binding | None]] = []
        while isinstance(e, Let):
            t_b, gamma = self.check_expr(gamma, e.binding, adjacent)
            undo.append((e.name, e.name in gamma, gamma.get(e.name)))
            gamma[e.name] = t_b
            if e.name in adjacent:
                adjacent = adjacent - {e.name}
            e = e.body
        t, gamma = self.check_expr(gamma, e, adjacent)
        for name, shadow, saved in reversed(undo):
            if shadow:
                gamma[name] = saved
            else:
                del gamma[name]
        return t, gamma

    def check_deref(self, gamma: Gamma, x: str, f: str | None,
                    pos: Pos) -> tuple[Type, Gamma]:
        """*x, or *x.f unless f is None."""
        if f is None:
            t_x = self.lookup(gamma, x, "cmd-ty-deref-var", pos)
            if not self.is_var(t_x):
                _fail("cmd-ty-deref-var",
                      f"*{x} requires a var binding, got "
                      f"{pretty_type(t_x)}", pos)
            t = self.reads(t_x, "val")
            if t is None:
                _fail("cmd-ty-deref-var",
                      f"viewpoint adaptation of *{x} is undefined "
                      f"(content of {pretty_type(t_x)} cannot be read)", pos)
            return t, gamma
        t_x = self.lookup(gamma, x, "cmd-ty-deref-field", pos)
        if not cap_not_in({Cap.ISO}, t_x):
            _fail("cmd-ty-deref-field",
                  f"receiver {x}: {pretty_type(t_x)} may not be iso", pos)
        t = self.reads(t_x, f)
        if t is None:
            _fail("cmd-ty-deref-field",
                  f"*{x}.{f} is undefined through {pretty_type(t_x)} "
                  "(missing field or inaccessible viewpoint)", pos)
        return t, gamma

    def check_assign(self, gamma: Gamma, x: str, f: str | None, use: Use,
                     pos: Pos, adjacent: frozenset[str]
                     ) -> tuple[Type, Gamma]:
        """x := use, or x.f := use unless f is None."""
        t_u, g2 = self.check_use(gamma, use)
        if not cap_not_in({Cap.VAR}, t_u):
            _fail("cmd-ty-assign",
                  f"a var binding cannot be stored ({pretty_type(t_u)})",
                  pos)
        if f is not None:
            t_x = self.lookup(g2, x, "cmd-ty-assign", pos)
            if not self.writes_through(t_x):
                _fail("cmd-ty-assign",
                      f"field update needs a mut/tmp receiver, "
                      f"{x} is {pretty_type(t_x)}", pos)
            old: Type | None = None
            for leaf in leaves(t_x):
                ftype = self.classes.ftype(leaf.head, f)
                if ftype is None:
                    _fail("cmd-ty-assign",
                          f"{leaf.head} has no field {f}", pos)
                if not subtype(t_u, ftype):
                    _fail("cmd-ty-assign",
                          f"{pretty_type(t_u)} is not a subtype of field type "
                          f"{pretty_type(ftype)}", pos)
                old = ftype if old is None else UnionType(old, ftype)
            return old, g2
        # Strong update of a var cell.
        t_x = self.lookup(g2, x, "cmd-ty-assign-var", pos)
        if not self.is_var(t_x):
            _fail("cmd-ty-assign-var",
                  f"{x} := requires a var binding, got {pretty_type(t_x)}",
                  pos)
        if x in adjacent and not self.bridges(t_u):
            t_mut = map_leaves(t_u, lambda l: CapType(Cap.MUT, l.head))
            _fail("cmd-ty-assign-var-adjacent",
                  f"rejected: {use} is {pretty_type(t_u)}, not "
                  f"{pretty_type(t_mut)}"
                  " — the bridge cell of an entered region must hold a mut",
                  pos)
        t_f = self.reads(t_x, "val")
        if t_f is None:
            _fail("cmd-ty-assign-var",
                  f"the old content of {x}: {pretty_type(t_x)} cannot be "
                  "read out (viewpoint adaptation undefined)", pos)
        g2[x] = make_cell(t_u)
        return t_f, g2

    def check_var_alloc(self, gamma: Gamma, use: Use,
                        pos: Pos) -> tuple[Type, Gamma]:
        t_u, g2 = self.check_use(gamma, use)
        if not cap_not_in({Cap.VAR}, t_u):
            _fail("cmd-ty-create-var",
                  f"a var binding cannot be stored in a cell "
                  f"({pretty_type(t_u)})", pos)
        return CapType(Cap.VAR, CellHead(t_u)), g2

    def check_new(self, gamma: Gamma, cap: Cap, cls: str,
                  args: tuple[Use, ...], pos: Pos) -> tuple[Type, Gamma]:
        head = self._new_heads.get((cap, cls))
        if head is None:
            if cls not in self.classes:
                _fail("cmd-ty-new", f"unknown class {cls}", pos)
            if cap not in (Cap.MUT, Cap.TMP, Cap.ISO):
                _fail("cmd-ty-new",
                      f"new requires mut, tmp, or iso, got {cap}", pos)
            head = self._new_heads[cap, cls] = (
                self.classes.ftypes(ClassName(cls)),
                CapType(cap, ClassName(cls)))
        ftypes, result = head
        if len(ftypes) != len(args):
            _fail("cmd-ty-new",
                  f"{cls} has {len(ftypes)} fields, got "
                  f"{len(args)} arguments", pos)
        for (fname, ftype), arg in zip(ftypes, args):
            t_a, gamma = self.check_use(gamma, arg)
            if not subtype(t_a, ftype):
                _fail("cmd-ty-new",
                      f"argument for {cls}.{fname}: {pretty_type(t_a)} "
                      f"is not a subtype of {pretty_type(ftype)}", arg.pos)
            if not self.new_arg(cap, t_a):
                _fail("cmd-ty-new",
                      f"iso constructor arguments must be iso or imm, "
                      f"{fname} gets {pretty_type(t_a)}", arg.pos)
        return result, gamma

    def check_freeze(self, gamma: Gamma, use: Use,
                     pos: Pos) -> tuple[Type, Gamma]:
        t, g2 = self.check_use(gamma, use)
        if not self.freezes(t):
            _fail("cmd-ty-freeze",
                  f"freeze demands an iso value, got {pretty_type(t)}",
                  pos)
        return make_imm(t), g2

    def check_merge(self, gamma: Gamma, use: Use,
                    pos: Pos) -> tuple[Type, Gamma]:
        t, g2 = self.check_use(gamma, use)
        if not self.merges(t):
            _fail("cmd-ty-merge",
                  f"merge demands an iso value, got {pretty_type(t)}",
                  pos)
        return make_mut(t), g2

    def _check_call(self, gamma: Gamma, e: Call) -> tuple[Type, Gamma]:
        if e.fn not in self.functions:
            _fail("cmd-ty-call", f"unknown function {e.fn}", e.pos)
        sig = self.functions.lookup(e.fn)
        if len(sig.params) != len(e.args):
            _fail("cmd-ty-call",
                  f"{e.fn} takes {len(sig.params)} arguments, got "
                  f"{len(e.args)}", e.pos)
        for (pname, ptype), arg in zip(sig.params, e.args):
            t_a, gamma = self.check_use(gamma, arg)
            if not subtype(t_a, ptype):
                _fail("cmd-ty-call",
                      f"argument {pname}: {pretty_type(t_a)} is not a subtype "
                      f"of {pretty_type(ptype)}", arg.pos)
        return sig.result, gamma

    def enter_context(self, gamma: Gamma,
                      captures: tuple[tuple[str, Use], ...], binder: str,
                      x: str, f: str | None,
                      pos: Pos) -> Gamma:
        """The entry premises of cmd-ty-enter (target x.f) and
        cmd-ty-enter-var (target x, f None): take the capture uses from
        gamma, burying the dropped ones there, check the target, and
        return the block's context of suspended captures and the binder."""
        rule = "cmd-ty-enter-var" if f is None else "cmd-ty-enter"
        seen: set[str] = set()
        body_ctx: Gamma = {}
        for y, u in captures:
            if y in seen or y == binder:
                _fail(rule, f"duplicate capture name {y}", u.pos)
            seen.add(y)
            t_i, gamma = self.check_use(gamma, u)
            adapted = self.suspends(t_i)
            if adapted is None:
                if any(leaf.cap is Cap.VAR for leaf in leaves(t_i)):
                    _fail(rule,
                          f"the {u.name} storage location is paused inside "
                          "the block and cannot be captured", u.pos)
                _fail(rule,
                      f"capture {y}: {pretty_type(t_i)} cannot be suspended "
                      "(viewpoint adaptation undefined)", u.pos)
            body_ctx[y] = adapted
        body_ctx[binder] = self.binder_type(gamma, x, f, pos)
        return body_ctx

    def binder_type(self, gamma: Gamma, x: str, f: str | None,
                    pos: Pos) -> Type:
        """The binder's type on entry, from the target's type in gamma:
        tmp Cell[mut t_f] for a field x.f, var Cell[mut t_f] (over each
        leaf) for a var cell x, where t_f is the iso the target holds."""
        rule = "cmd-ty-enter-var" if f is None else "cmd-ty-enter"
        t_x = self.lookup(gamma, x, rule, pos)
        if f is None:
            if not self.is_var(t_x):
                _fail(rule, f"enter target {x}: {pretty_type(t_x)} must be a "
                            "var binding", pos)
            t_f = fresult_keep_iso(t_x, "val", self.classes)
            if t_f is None:
                _fail(rule, f"content of {x}: {pretty_type(t_x)} is undefined",
                      pos)
            if not self.enters(t_f):
                _fail(rule, f"cell content capability must be iso, {x} holds "
                            f"{pretty_type(t_f)}", pos)
            return make_cell(make_mut(t_f))
        if not cap_in(OPEN_CAPS, t_x):
            _fail(rule, f"enter target {x}: {pretty_type(t_x)} must have an "
                        "open capability (mut, tmp, var, or paused)", pos)
        t_f = fresult_keep_iso(t_x, f, self.classes)
        if t_f is None:
            _fail(rule, f"{x}.{f} is undefined through {pretty_type(t_x)}",
                  pos)
        if not self.enters(t_f):
            _fail(rule, f"field capability must be iso, {x}.{f} is "
                        f"{pretty_type(t_f)}", pos)
        return CapType(Cap.TMP, CellHead(make_mut(t_f)))

    def exit_context(self, gamma: Gamma, g_out: Gamma, t_body: Type,
                     binder: str, x: str, f: str | None, pos: Pos) -> Gamma:
        """The block-end premises of cmd-ty-enter (target x.f) and
        cmd-ty-enter-var (target x, f None), given gamma as enter_context
        left it and the block's result type and final context: the result
        is iso or imm; a field's binder still has its entry type; a var
        cell's binder is still a var Cell, whose mut contents the target
        then holds as iso, written into gamma, which is returned."""
        rule = "cmd-ty-enter-var" if f is None else "cmd-ty-enter"
        if not self.exits(t_body):
            _fail(rule, f"the block may only return iso's and imm's, got "
                        f"{pretty_type(t_body)}", pos)
        t_z = g_out.get(binder)
        if f is not None:
            if t_z != self.binder_type(gamma, x, f, pos):
                _fail(rule, f"the binding of {binder} must be unchanged at "
                            "the end of the block", pos)
            return gamma
        if t_z is UNDEF or t_z is None:
            _fail(rule, f"the ref cell {binder} must remain bound at the end "
                        "of the block", pos)
        contents: Type | None = None
        for leaf in leaves(t_z):
            if leaf.cap is not Cap.VAR or not isinstance(leaf.head, CellHead):
                _fail(rule, f"the ref cell {binder} must stay a var Cell, "
                            f"got {pretty_type(t_z)}", pos)
            p = leaf.head.param
            contents = p if contents is None else UnionType(contents, p)
        if not self.bridges(contents):
            _fail(rule, f"the final content of {binder} must be mut, got "
                        f"{pretty_type(contents)}", pos)
        gamma[x] = make_cell(make_iso(contents))
        return gamma

    def _check_enter(self, gamma: Gamma, e: Enter) -> tuple[Type, Gamma]:
        if e.explore:
            from .command import desugar_explore
            return self.check_expr(gamma, desugar_explore(e))
        x, f = e.target.name, e.target.fld
        body_ctx = self.enter_context(gamma, e.captures, e.binder, x, f,
                                      e.pos)
        adjacent = frozenset() if f is not None else frozenset({e.binder})
        t_body, g_out = self.check_expr(body_ctx, e.body, adjacent)
        return t_body, self.exit_context(gamma, g_out, t_body, e.binder, x,
                                         f, e.pos)

    def _check_typetest(self, gamma: Gamma, e: TypeTest,
                        adjacent: frozenset[str]) -> tuple[Type, Gamma]:
        if not type_wf(e.ty, self.classes):
            _fail("cmd-ty-typetest",
                  f"tested type {pretty_type(e.ty)} names an unknown class",
                  e.pos)
        t_u, g0 = self.check_use(gamma, e.use)
        shadow = e.binder in g0
        saved = g0.get(e.binder)
        inner_adj = adjacent - {e.binder}

        def branch(g: Gamma, bind_t: Type, body: Expr) -> tuple[Type, Gamma]:
            g[e.binder] = bind_t
            t, g_out = self.check_expr(g, body, inner_adj)
            if shadow:
                g_out[e.binder] = saved
            else:
                del g_out[e.binder]
            return t, g_out

        t1, g1 = branch(dict(g0), e.ty, e.then)
        t2, g2 = branch(g0, t_u, e.els)
        merged = merge_contexts(g1, g2)
        result = t1 if t1 == t2 else UnionType(t1, t2)
        return result, merged


# ---------------------------------------------------------------------------
# Whole-program checking
# ---------------------------------------------------------------------------

def check_program(prog: Program) -> Type:
    """Check declarations and the main expression; returns main's type."""
    checker = Checker(prog.classes, prog.functions)
    for cname in prog.class_order:
        for f, ftype in prog.classes.ftypes(ClassName(cname)):
            if not type_wf(ftype, prog.classes):
                _fail("cmd-ty-new",
                      f"field {cname}.{f} names an unknown class", (0, 0))
    for fname in prog.fn_order:
        sig = prog.functions.lookup(fname)
        gamma: Gamma = {}
        for pname, ptype in sig.params:
            if not type_wf(ptype, prog.classes):
                _fail("cmd-ty-call",
                      f"parameter {fname}({pname}) names an unknown class",
                      (0, 0))
            gamma[pname] = ptype
        if not type_wf(sig.result, prog.classes):
            _fail("cmd-ty-call",
                  f"result type of {fname} names an unknown class", (0, 0))
        t_body, _ = checker.check_expr(gamma, sig.body)
        if not subtype(t_body, sig.result):
            _fail("cmd-ty-sub",
                  f"body of {fname}: {pretty_type(t_body)} is not a subtype "
                  f"of the declared result {pretty_type(sig.result)}", (0, 0))
    t_main, _ = checker.check_expr({}, prog.main)
    return t_main
