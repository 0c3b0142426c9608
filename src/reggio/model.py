"""Core model: capabilities, types, tables, viewpoint adaptation, subtyping.

Everything here is a pure function over immutable (frozen dataclass) values.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional


class Cap(str, Enum):
    """The six reference capabilities."""

    ISO = "iso"
    VAR = "var"
    MUT = "mut"
    TMP = "tmp"
    PAUSED = "paused"
    IMM = "imm"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


OPEN_CAPS = frozenset({Cap.MUT, Cap.TMP, Cap.VAR, Cap.PAUSED})


def is_open(k: Cap) -> bool:
    """open(k) holds iff k denotes a reference into an open region."""
    return k in OPEN_CAPS


# ---------------------------------------------------------------------------
# Class heads and types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassName:
    """A plain class head C."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class CellHead:
    """The built-in Cell[t] head; its single field is named `val`."""

    param: "Type"

    def __str__(self) -> str:
        return f"Cell[{self.param}]"


ClassHead = ClassName | CellHead


def tag_matches(tag: str, head: ClassHead) -> bool:
    """Tag subtyping on one head: #C <#: C and #Cell <#: Cell[_]."""
    if isinstance(head, CellHead):
        return tag == "Cell"
    return head.name == tag


@dataclass(frozen=True)
class CapType:
    """A leaf type k CL."""

    cap: Cap
    head: ClassHead

    def __str__(self) -> str:
        return f"{self.cap} {self.head}"


@dataclass(frozen=True)
class UnionType:
    """A binary union t | t (kept structural, never normalized)."""

    left: "Type"
    right: "Type"

    def __str__(self) -> str:
        return f"{self.left} | {self.right}"


Type = CapType | UnionType


def leaves(t: Type) -> Iterator[CapType]:
    """Iterate the k CL leaves of a union tree, left to right."""
    if isinstance(t, CapType):
        yield t
    else:
        yield from leaves(t.left)
        yield from leaves(t.right)


def map_leaves(t: Type, fn) -> Optional[Type]:
    """Rebuild t applying fn to each leaf; None if fn is undefined anywhere."""
    if isinstance(t, CapType):
        return fn(t)
    left = map_leaves(t.left, fn)
    right = map_leaves(t.right, fn)
    if left is None or right is None:
        return None
    return UnionType(left, right)


# ---------------------------------------------------------------------------
# Viewpoint adaptation
# ---------------------------------------------------------------------------

# Rows: the capability of the reference being read through (outer).
# Columns: the capability stored in the field (inner).  None is ↓.
_VPA_TABLE: dict[Cap, dict[Cap, Optional[Cap]]] = {
    Cap.MUT: {
        Cap.MUT: Cap.MUT, Cap.TMP: None, Cap.IMM: Cap.IMM,
        Cap.ISO: None, Cap.PAUSED: None,
    },
    Cap.TMP: {
        Cap.MUT: Cap.MUT, Cap.TMP: Cap.TMP, Cap.IMM: Cap.IMM,
        Cap.ISO: None, Cap.PAUSED: Cap.PAUSED,
    },
    Cap.VAR: {
        Cap.MUT: Cap.MUT, Cap.TMP: Cap.TMP, Cap.IMM: Cap.IMM,
        Cap.ISO: None, Cap.PAUSED: Cap.PAUSED,
    },
    Cap.IMM: {
        Cap.MUT: Cap.IMM, Cap.TMP: Cap.IMM, Cap.IMM: Cap.IMM,
        Cap.ISO: Cap.IMM, Cap.PAUSED: Cap.IMM,
    },
    Cap.ISO: {
        Cap.MUT: None, Cap.TMP: None, Cap.IMM: None,
        Cap.ISO: None, Cap.PAUSED: None,
    },
    Cap.PAUSED: {
        Cap.MUT: Cap.PAUSED, Cap.TMP: Cap.PAUSED, Cap.IMM: Cap.IMM,
        Cap.ISO: None, Cap.PAUSED: Cap.PAUSED,
    },
}


def vpa(outer: Cap, inner: Cap) -> Optional[Cap]:
    """Viewpoint adaptation outer ▷ inner; None models ↓ (undefined).

    No field ever has capability var, so the var column is uniformly ↓.
    """
    if inner is Cap.VAR:
        return None
    return _VPA_TABLE[outer][inner]


def vpa_type(outer: Cap, t: Type) -> Optional[Type]:
    """Extend vpa leafwise to types: undefined if any leaf is undefined."""
    def adapt(leaf: CapType) -> Optional[CapType]:
        k = vpa(outer, leaf.cap)
        if k is None:
            return None
        return CapType(k, leaf.head)
    return map_leaves(t, adapt)


# ---------------------------------------------------------------------------
# Capability predicates and type transformers
# ---------------------------------------------------------------------------

def cap_in(ks: frozenset[Cap] | set[Cap], t: Type) -> bool:
    """cap(k̄, t): every leaf capability of t is in ks (Cell params ignored)."""
    if type(t) is CapType:  # one leaf: no walk
        return t.cap in ks
    return all(leaf.cap in ks for leaf in leaves(t))


def cap_not_in(ks: frozenset[Cap] | set[Cap], t: Type) -> bool:
    """cap(k̄ᶜ, t): no leaf capability of t is in ks."""
    if type(t) is CapType:
        return t.cap not in ks
    return all(leaf.cap not in ks for leaf in leaves(t))


def _swap_cap(src: Cap, dst: Cap):
    def rewrite(leaf: CapType) -> CapType:
        if leaf.cap is src:
            return CapType(dst, leaf.head)
        return leaf
    return rewrite


def make_iso(t: Type) -> Type:
    """Rewrite mut leaves to iso."""
    return map_leaves(t, _swap_cap(Cap.MUT, Cap.ISO))


def make_mut(t: Type) -> Type:
    """Rewrite iso leaves to mut."""
    return map_leaves(t, _swap_cap(Cap.ISO, Cap.MUT))


def make_imm(t: Type) -> Type:
    """Rewrite iso leaves to imm."""
    return map_leaves(t, _swap_cap(Cap.ISO, Cap.IMM))


def make_cell(t: Type) -> Type:
    """Wrap each leaf in a var Cell, distributing over unions."""
    return map_leaves(t, lambda leaf: CapType(Cap.VAR, CellHead(leaf)))


# ---------------------------------------------------------------------------
# Subtyping
# ---------------------------------------------------------------------------

def subtype(t1: Type, t2: Type) -> bool:
    """t1 <: t2 (reflexive; unions split on the left, choose on the right;
    Cell parameters must be equivalent)."""
    if isinstance(t1, UnionType):
        return subtype(t1.left, t2) and subtype(t1.right, t2)
    if t1 == t2:
        return True
    if isinstance(t2, UnionType):
        return subtype(t1, t2.left) or subtype(t1, t2.right)
    # Both leaves.
    if t1.cap is not t2.cap:
        return False
    h1, h2 = t1.head, t2.head
    if isinstance(h1, CellHead) and isinstance(h2, CellHead):
        return subtype(h1.param, h2.param) and subtype(h2.param, h1.param)
    return h1 == h2


# ---------------------------------------------------------------------------
# Class and function tables
# ---------------------------------------------------------------------------

class ClassTable:
    """Declared classes mapped to their ordered (field, type) lists.

    Cell is implicit: its head carries its own parameter and its only field
    is `val`.  `Unit` is reserved (zero fields) for the explore desugaring.
    """

    def __init__(self) -> None:
        self._classes: dict[str, list[tuple[str, Type]]] = {"Unit": []}

    def declare(self, name: str, fields: list[tuple[str, Type]]) -> None:
        if name in self._classes:
            raise KeyError(f"duplicate class {name}")
        seen: set[str] = set()
        for fname, ftype in fields:
            if fname in seen:
                raise KeyError(f"duplicate field {name}.{fname}")
            seen.add(fname)
            if any(leaf.cap is Cap.VAR for leaf in leaves(ftype)):
                raise KeyError(f"field {name}.{fname} may not be var")
        self._classes[name] = list(fields)

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def ftypes(self, head: ClassHead) -> list[tuple[str, Type]]:
        if isinstance(head, CellHead):
            return [("val", head.param)]
        return list(self._classes[head.name])

    def ftype(self, head: ClassHead, f: str) -> Optional[Type]:
        for fname, ftype in self.ftypes(head):
            if fname == f:
                return ftype
        return None


@dataclass(frozen=True)
class FunSig:
    """A function's parameters, result type, and body expression."""

    params: tuple[tuple[str, Type], ...]
    result: Type
    body: object  # syntax.Expr; kept loose to avoid an import cycle


class FunctionTable:
    def __init__(self) -> None:
        self._funcs: dict[str, FunSig] = {}

    def declare(self, name: str, sig: FunSig) -> None:
        if name in self._funcs:
            raise KeyError(f"duplicate function {name}")
        self._funcs[name] = sig

    def __contains__(self, name: str) -> bool:
        return name in self._funcs

    def names(self) -> list[str]:
        return list(self._funcs)

    def lookup(self, name: str) -> FunSig:
        return self._funcs[name]


def fresult(t: Type, f: str, classes: ClassTable) -> Optional[Type]:
    """The type of reading field f through a value of type t.

    fresult(k CL, f) = vpa(k, ftype(CL, f)); distributes over unions;
    undefined (None) if any branch is undefined or lacks the field.
    """
    if isinstance(t, CapType):
        ftype = classes.ftype(t.head, f)
        if ftype is None:
            return None
        return vpa_type(t.cap, ftype)
    left = fresult(t.left, f, classes)
    right = fresult(t.right, f, classes)
    if left is None or right is None:
        return None
    return UnionType(left, right)


def type_wf(t: Type, classes: ClassTable) -> bool:
    """⊢ t: every leaf names a declared class (or a well-formed Cell)."""
    for leaf in leaves(t):
        head = leaf.head
        if isinstance(head, CellHead):
            if not type_wf(head.param, classes):
                return False
        elif head.name not in classes:
            return False
    return True
