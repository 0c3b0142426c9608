"""Concrete syntax: AST, traversal, lexer, recursive-descent parser,
pretty-printer.

Grammar sketch (programs live in `.rgo` files):

    program  ::= (classdecl | fndecl)* expr
    classdecl::= "class" C "{" (f ":" type ("," f ":" type)*)? "}"
    fndecl   ::= "fn" g "(" (x ":" type ("," x ":" type)*)? ")" ":" type "{" expr "}"
    type     ::= captype ("|" captype)*            (right-associated)
    captype  ::= cap (C | "Cell" "[" type "]")
    cap      ::= "iso" | "var" | "mut" | "tmp" | "paused" | "imm"
    expr     ::= "let" x "=" binding "in" expr
               | "if" "typetest" "(" use "," type ")" "{" x "=>" expr "}"
                 "else" "{" x "=>" expr "}"
               | use
    binding  ::= "*" lval | lval ":=" use | "var" use
               | "new" cap C "(" (use ("," use)*)? ")"
               | "freeze" use | "merge" use
               | ("enter" | "explore") lval "[" (y "=" use ("," y "=" use)*)? "]"
                 "{" z "=>" expr "}"
               | g "(" (use ("," use)*)? ")"
               | "(" expr ")" | use
    use      ::= x | "drop" x
    lval     ::= x | x "." f
"""
from __future__ import annotations

import string
from dataclasses import dataclass, field
from operator import is_not
from typing import Callable, Iterator, TypeVar

from .model import (Cap, CapType, CellHead, ClassName, FunSig, Type,
                    UnionType, ClassTable, FunctionTable)

Pos = tuple[int, int]  # (line, col), 1-based
T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, msg: str, pos: Pos) -> None:
        super().__init__(msg)
        self.msg = msg
        self.pos = pos


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Use:
    """A variable occurrence, optionally consuming (drop x)."""

    name: str
    drop: bool = False
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return f"drop {self.name}" if self.drop else self.name


@dataclass(frozen=True)
class LVal:
    """x or x.f."""

    name: str
    fld: str | None = None
    pos: Pos = (0, 0)

    @property
    def field(self) -> str:
        """The field the lval names: a bare variable names its cell's val."""
        return self.fld if self.fld is not None else "val"

    def __str__(self) -> str:
        return self.name if self.fld is None else f"{self.name}.{self.fld}"


@dataclass(frozen=True)
class Deref:
    """*x or *x.f."""

    target: LVal
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return f"*{self.target}"


@dataclass(frozen=True)
class Assign:
    """x := use or x.f := use (swap: evaluates to the old content)."""

    target: LVal
    use: Use
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return f"{self.target} := {self.use}"


@dataclass(frozen=True)
class VarAlloc:
    """var use — allocate a fresh var cell holding the used value."""

    use: Use
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return f"var {self.use}"


@dataclass(frozen=True)
class New:
    """new k C(ū)."""

    cap: Cap
    cls: str
    args: tuple[Use, ...]
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"new {self.cap} {self.cls}({args})"


@dataclass(frozen=True)
class Freeze:
    use: Use
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return f"freeze {self.use}"


@dataclass(frozen=True)
class Merge:
    use: Use
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return f"merge {self.use}"


@dataclass(frozen=True)
class Enter:
    """enter lval [y=u, ...] { z => body }; `explore` is the same shape."""

    target: LVal
    captures: tuple[tuple[str, Use], ...]
    binder: str
    body: "Expr"
    explore: bool = False
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return pretty_expr(self)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple[Use, ...]
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.fn}({args})"


@dataclass(frozen=True)
class Let:
    """let x = binding in body."""

    name: str
    binding: "Expr"
    body: "Expr"
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return pretty_expr(self)


@dataclass(frozen=True)
class TypeTest:
    """if typetest(u, t) { y => e1 } else { y => e2 }."""

    use: Use
    ty: Type
    binder: str
    then: "Expr"
    els: "Expr"
    pos: Pos = (0, 0)

    def __str__(self) -> str:
        return pretty_expr(self)


Expr = (Use | Deref | Assign | VarAlloc | New | Freeze | Merge | Enter
        | Call | Let | TypeTest)


@dataclass
class Program:
    classes: ClassTable
    functions: FunctionTable
    main: Expr
    class_order: list[str] = field(default_factory=list)
    fn_order: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def children(e: Expr) -> tuple[Expr, ...]:
    """The sub-expressions of e, in source order."""
    if isinstance(e, Let):
        return e.binding, e.body
    if isinstance(e, Enter):
        return (e.body,)
    if isinstance(e, TypeTest):
        return e.then, e.els
    return ()


def replace(node, **changes):
    """dataclasses.replace for a frozen syntax node: a copy of its fields
    with changes applied, without inspecting the class on every call.  No
    syntax class has a __post_init__ or an init-only field."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__, **changes)
    return new


def _with_children(e: Expr, kids: list[Expr]) -> Expr:
    """e with its sub-expressions replaced by kids."""
    if isinstance(e, Let):
        return replace(e, binding=kids[0], body=kids[1])
    if isinstance(e, Enter):
        return replace(e, body=kids[0])
    return replace(e, then=kids[0], els=kids[1])


def walk(e: Expr) -> Iterator[tuple[Expr, int, tuple[Expr, ...], int]]:
    """The visits to the nodes of e in source order, driven by an explicit
    stack, so the depth of e is not bounded by the recursion limit.

    A node with n children is visited n + 1 times, as (node, index, kids,
    k): before its k-th child for k < n, and after its last child for
    k = n.  index is the node's preorder index and kids its children."""
    count = 0
    stack = [(e, 0, children(e), 0)]
    while stack:
        visit = stack.pop()
        yield visit
        node, index, kids, k = visit
        if k < len(kids):
            count += 1
            stack.append((node, index, kids, k + 1))
            stack.append((kids[k], count, children(kids[k]), 0))


def fold(e: Expr, leave: Callable[[Expr, int, list[T]], T]) -> T:
    """leave(node, index, the results at its children), bottom up; the
    result at e."""
    results: list[T] = []
    for node, index, kids, k in walk(e):
        if k == len(kids):
            first = len(results) - k
            value = leave(node, index, results[first:])
            del results[first:]
            results.append(value)
    return results[0]


def rebuild(e: Expr, visit: Callable[[Expr, int], Expr]) -> Expr:
    """e with each node replaced by visit(node, index), bottom up, so that
    visit sees a node with its children already replaced.  A node none of
    whose children changed is passed on as it is: a pass that changes
    nothing returns e itself and allocates no node."""
    def leave(node: Expr, index: int, kids: list[Expr]) -> Expr:
        if any(map(is_not, kids, children(node))):
            node = _with_children(node, kids)
        return visit(node, index)

    return fold(e, leave)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {"class", "fn", "let", "in", "if", "else", "typetest", "drop",
            "var", "new", "freeze", "merge", "enter", "explore",
            "iso", "mut", "tmp", "paused", "imm", "Cell"}

_PUNCT = ("=>", ":=", "{", "}", "(", ")", "[", "]", ",", ":", "=", "|",
          "*", ".")

_IDENT_START = set(string.ascii_letters + "_")
_IDENT_CONT = set(string.ascii_letters + string.digits + "_$")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "kw", or the punctuation itself
    text: str
    pos: Pos


def lex(src: str) -> Iterator[Token]:
    """The tokens of src, ending with an eof token, one at a time."""
    line, col, i = 1, 1, 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < n and src[j] in _IDENT_CONT:
                j += 1
            text = src[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            yield Token(kind, text, (line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if src.startswith(p, i):
                yield Token(p, p, (line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", (line, col))
    yield Token("eof", "", (line, col))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CAP_WORDS = {k.value: k for k in Cap}


class Parser:
    """Recursive descent over a token stream, looking one token ahead.

    Use it through ``parse``, which reports a lexical error anywhere in the
    source before any parse error."""

    def __init__(self, src: str) -> None:
        self.toks = lex(src)
        self.tok = next(self.toks)

    def parse(self, rule: Callable[[], T]) -> T:
        """rule() followed by the end of the source."""
        try:
            result = rule()
            self.expect("eof")
        except (ParseError, RecursionError):
            # A lexical error anywhere in the source comes before a parse
            # error, so the rest of the source is lexed first.
            for _ in self.toks:
                pass
            raise
        return result

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tok

    def next(self) -> Token:
        tok = self.tok
        if tok.kind != "eof":
            self.tok = next(self.toks)
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.pos)
        return self.next()

    def ident(self) -> Token:
        return self.expect("ident")

    # -- program ------------------------------------------------------------

    def program(self) -> Program:
        classes = ClassTable()
        functions = FunctionTable()
        prog = Program(classes, functions, Use("_"))
        while True:
            if self.at("kw", "class"):
                self.parse_class(prog)
            elif self.at("kw", "fn"):
                self.parse_fn(prog)
            else:
                break
        prog.main = self.expr()
        return prog

    def parse_class(self, prog: Program) -> None:
        self.expect("kw", "class")
        name = self.ident()
        self.expect("{")
        fields = self.items_until("}", self.typed_name)
        try:
            prog.classes.declare(name.text, fields)
        except KeyError as exc:
            raise ParseError(str(exc.args[0]), name.pos) from None
        prog.class_order.append(name.text)

    def parse_fn(self, prog: Program) -> None:
        self.expect("kw", "fn")
        name = self.ident()
        self.expect("(")
        params = self.items_until(")", self.typed_name)
        self.expect(":")
        result = self.type()
        self.expect("{")
        body = self.expr()
        self.expect("}")
        try:
            prog.functions.declare(name.text,
                                   FunSig(tuple(params), result, body))
        except KeyError as exc:
            raise ParseError(str(exc.args[0]), name.pos) from None
        prog.fn_order.append(name.text)

    def typed_name(self) -> tuple[str, Type]:
        """x ":" type: a class field or a function parameter."""
        x = self.ident()
        self.expect(":")
        return x.text, self.type()

    def items_until(self, closer: str, item: Callable[[], T]) -> list[T]:
        """item ("," item)*, or nothing, up to and including closer."""
        items: list[T] = []
        if not self.at(closer):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect(closer)
        return items

    # -- types ---------------------------------------------------------------

    def type(self) -> Type:
        t = self.captype()
        if self.at("|"):
            self.next()
            return UnionType(t, self.type())
        return t

    def cap(self) -> Cap:
        tok = self.peek()
        if tok.kind != "kw" or tok.text not in _CAP_WORDS:
            raise ParseError(f"expected capability, found {tok.text!r}",
                             tok.pos)
        self.next()
        return _CAP_WORDS[tok.text]

    def captype(self) -> CapType:
        k = self.cap()
        if self.at("kw", "Cell"):
            self.next()
            self.expect("[")
            param = self.type()
            self.expect("]")
            return CapType(k, CellHead(param))
        cname = self.ident()
        return CapType(k, ClassName(cname.text))

    # -- expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        if self.at("kw", "let"):
            pos = self.next().pos
            x = self.ident()
            self.expect("=")
            binding = self.binding()
            self.expect("kw", "in")
            body = self.expr()
            return Let(x.text, binding, body, pos)
        if self.at("kw", "if"):
            pos = self.next().pos
            self.expect("kw", "typetest")
            self.expect("(")
            u = self.use()
            self.expect(",")
            t = self.type()
            self.expect(")")
            self.expect("{")
            y = self.ident()
            self.expect("=>")
            then = self.expr()
            self.expect("}")
            self.expect("kw", "else")
            self.expect("{")
            y2 = self.ident()
            if y2.text != y.text:
                raise ParseError("typetest branches must bind the same name",
                                 y2.pos)
            self.expect("=>")
            els = self.expr()
            self.expect("}")
            return TypeTest(u, t, y.text, then, els, pos)
        return self.use()

    def use(self) -> Use:
        if self.at("kw", "drop"):
            pos = self.next().pos
            x = self.ident()
            return Use(x.text, True, pos)
        x = self.ident()
        return Use(x.text, False, x.pos)

    def lval(self) -> LVal:
        x = self.ident()
        if self.at("."):
            self.next()
            f = self.ident()
            return LVal(x.text, f.text, x.pos)
        return LVal(x.text, None, x.pos)

    def binding(self) -> Expr:
        tok = self.peek()
        if tok.kind == "*":
            self.next()
            return Deref(self.lval(), tok.pos)
        if tok.kind == "(":
            self.next()
            if self.at("kw", "let") or self.at("kw", "if"):
                e: Expr = self.expr()
            else:
                e = self.binding()
            self.expect(")")
            return e
        if self.at("kw", "var"):
            self.next()
            return VarAlloc(self.use(), tok.pos)
        if self.at("kw", "new"):
            self.next()
            cap = self.cap()
            cls = self.ident()
            self.expect("(")
            args = tuple(self.items_until(")", self.use))
            return New(cap, cls.text, args, tok.pos)
        if self.at("kw", "freeze"):
            self.next()
            return Freeze(self.use(), tok.pos)
        if self.at("kw", "merge"):
            self.next()
            return Merge(self.use(), tok.pos)
        if self.at("kw", "enter") or self.at("kw", "explore"):
            explore = tok.text == "explore"
            self.next()
            target = self.lval()
            self.expect("[")
            captures = self.items_until("]", self.capture)
            self.expect("{")
            z = self.ident()
            self.expect("=>")
            body = self.expr()
            self.expect("}")
            return Enter(target, tuple(captures), z.text, body, explore,
                         tok.pos)
        if self.at("kw", "drop"):
            return self.use()
        # ident: call, assignment, or bare use
        x = self.ident()
        if self.at("("):
            self.next()
            args = tuple(self.items_until(")", self.use))
            return Call(x.text, args, x.pos)
        if self.at("."):
            self.next()
            f = self.ident()
            self.expect(":=")
            return Assign(LVal(x.text, f.text, x.pos), self.use(), x.pos)
        if self.at(":="):
            self.next()
            return Assign(LVal(x.text, None, x.pos), self.use(), x.pos)
        return Use(x.text, False, x.pos)

    def capture(self) -> tuple[str, Use]:
        """y "=" use: an enter capture."""
        y = self.ident()
        self.expect("=")
        return y.text, self.use()


def parse_program(src: str) -> Program:
    p = Parser(src)
    return p.parse(p.program)


def parse_expr(src: str) -> Expr:
    p = Parser(src)
    return p.parse(p.expr)


def parse_type(src: str) -> Type:
    p = Parser(src)
    return p.parse(p.type)


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through the parser)
# ---------------------------------------------------------------------------

def pretty_type(t: Type) -> str:
    return str(t)


def _layout(e: Expr) -> tuple[str, ...]:
    """The text of e around its children: before each one, then after the
    last."""
    if isinstance(e, Let):
        if isinstance(e.binding, (Let, TypeTest)):  # the parser needs ()
            return f"let {e.name} = (", ") in ", ""
        return f"let {e.name} = ", " in ", ""
    if isinstance(e, Enter):
        kw = "explore" if e.explore else "enter"
        caps = ", ".join(f"{y} = {u}" for y, u in e.captures)
        return f"{kw} {e.target} [{caps}] {{ {e.binder} => ", " }"
    if isinstance(e, TypeTest):
        return (f"if typetest({e.use}, {pretty_type(e.ty)}) "
                f"{{ {e.binder} => ", f" }} else {{ {e.binder} => ", " }")
    return (str(e),)


def pretty_expr(e: Expr) -> str:
    return "".join(_layout(x)[k] for x, _, _, k in walk(e))


def pretty_program(prog: Program) -> str:
    parts: list[str] = []
    for cname in prog.class_order:
        fields = ", ".join(f"{f}: {pretty_type(t)}"
                           for f, t in prog.classes.ftypes(ClassName(cname)))
        parts.append(f"class {cname} {{ {fields} }}" if fields
                     else f"class {cname} {{}}")
    for fname in prog.fn_order:
        sig = prog.functions.lookup(fname)
        params = ", ".join(f"{x}: {pretty_type(t)}" for x, t in sig.params)
        parts.append(f"fn {fname}({params}): {pretty_type(sig.result)} "
                     f"{{ {pretty_expr(sig.body)} }}")
    parts.append(pretty_expr(prog.main))
    return "\n".join(parts) + "\n"
