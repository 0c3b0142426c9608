"""Verification oracle: configuration graphs, capability and topology
invariants, configuration well-formedness, and effect well-formedness.

The oracle is deliberately brute force: the graph is rebuilt from scratch
and the topology predicate is checked pairwise.  Violation reports are
plain dicts of the shape {verdict, violations: [{predicate, clause, refs,
regions}]} so they serialize directly to JSON.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .model import (Cap, CapType, CellHead, ClassTable, Type, cap_in,
                    cap_not_in, fresult, leaves, make_cell, make_imm,
                    make_iso, make_mut, subtype, vpa)
from .machine import (BadEnter, Bind, CastEff, Effect, EnterEff, Eps,
                      ExitEff, FreezeEff, Halloc, Load, Machine, MergeEff,
                      NoCastEff, Object, Salloc, Swap, V_UNDEF)
from .typecheck import (UNDEF, Checker, Gamma, TypeCheckError,
                        fresult_keep_iso)


# ---------------------------------------------------------------------------
# Locations, references, graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Heap:
    r: int
    iota: int

    def __str__(self) -> str:
        return f"Heap({self.r},{self.iota})"


@dataclass(frozen=True)
class Temp:
    r: int
    iota: int

    def __str__(self) -> str:
        return f"Temp({self.r},{self.iota})"


@dataclass(frozen=True)
class Root:
    r: int

    def __str__(self) -> str:
        return f"Root({self.r})"


Loc = Heap | Temp | Root


def loc_region(loc: Loc) -> int:
    return loc.r


@dataclass(frozen=True)
class Ref:
    src: Loc
    name: str  # field or variable name
    cap: Cap
    dst: Loc

    def __str__(self) -> str:
        return f"{self.src} -[{self.name},{self.cap}]-> {self.dst}"


@dataclass
class ConfigGraph:
    locs: set[Loc]
    refs: set[Ref]


class GraphError(Exception):
    """A separation violation while rebuilding the graph."""


def build_graph(m: Machine) -> ConfigGraph:
    """Rebuild (L, R) from a machine state.

    Frames contribute Root(r), Temp locations, and variable edges (buried
    bindings contribute nothing); heaps contribute Heap locations and field
    edges.  Duplicate object-ids or duplicate roots are separation errors.
    """
    locs: set[Loc] = set()
    where: dict[int, Loc] = {}
    roots: dict[int, Root] = {}

    def add_obj(loc: Loc) -> None:
        if loc.iota in where:
            raise GraphError(f"object id {loc.iota} appears at "
                             f"{where[loc.iota]} and {loc}")
        where[loc.iota] = loc
        locs.add(loc)

    for frame in m.frames:
        if frame.r in roots:
            raise GraphError(f"two root locations for region {frame.r}")
        root = Root(frame.r)
        roots[frame.r] = root
        locs.add(root)
        for iota in frame.temps:
            add_obj(Temp(frame.r, iota))
    for heap in (m.h_op, m.h_cl, m.h_fr):
        for r, store in heap.items():
            for iota in store:
                add_obj(Heap(r, iota))

    refs: set[Ref] = set()

    def add_ref(src: Loc, name: str, cap: Cap, iota: int) -> None:
        dst = where.get(iota)
        if dst is None:
            raise GraphError(f"dangling reference {src}.{name} -> {iota}")
        refs.add(Ref(src, name, cap, dst))

    for frame in m.frames:
        root = roots[frame.r]
        for x, v in frame.vars.items():
            if v is not V_UNDEF:
                add_ref(root, x, v[0], v[1])
        for iota, obj in frame.temps.items():
            src = Temp(frame.r, iota)
            for f, v in obj.fields.items():
                add_ref(src, f, v[0], v[1])
    for heap in (m.h_op, m.h_cl, m.h_fr):
        for r, store in heap.items():
            for iota, obj in store.items():
                src = Heap(r, iota)
                for f, v in obj.fields.items():
                    if v is V_UNDEF:
                        raise GraphError(
                            f"heap object {iota} has undefined field {f}")
                    add_ref(src, f, v[0], v[1])
    return ConfigGraph(locs, refs)


# ---------------------------------------------------------------------------
# Region order ρ
# ---------------------------------------------------------------------------

@dataclass
class RegionOrder:
    """The region stack order: index 0 is the head (active region)."""

    ids: list[int]
    index: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.index = {r: i for i, r in enumerate(self.ids)}

    def lt(self, a: int, b: int) -> bool:
        """ρ ⊢ a < b: both on the stack and b opened later (nearer head)."""
        return (a in self.index and b in self.index
                and self.index[a] > self.index[b])

    def leq(self, a: int, b: int) -> bool:
        return a == b or self.lt(a, b)


def region_order_of(m: Machine) -> RegionOrder:
    return RegionOrder(list(reversed(m.region_stack_ids())))


# ---------------------------------------------------------------------------
# capability_ok
# ---------------------------------------------------------------------------

def _violation(predicate: str, clause: str, refs: list[Ref],
               regions: list[int]) -> dict:
    return {"predicate": predicate, "clause": clause,
            "refs": [str(r) for r in refs],
            "regions": sorted(set(regions))}


# Reports list refs and violations in these orders, not in the hash order
# of the graph's ref set, so that they read the same in every process.

def _loc_key(loc: Loc) -> tuple:
    return (type(loc).__name__, loc.r, getattr(loc, "iota", -1))


def _ref_key(ref: Ref) -> tuple:
    return (_loc_key(ref.src), ref.name, ref.cap.value, _loc_key(ref.dst))


def _violation_key(v: dict) -> tuple:
    return (v["predicate"], v["clause"], v["refs"], v["regions"])


def capability_ok(rho: RegionOrder, cl: set[int], fr: set[int],
                  g: ConfigGraph) -> tuple[bool, list[dict]]:
    violations: list[dict] = []
    indegree: dict[Loc, int] = {}
    var_target: dict[Loc, Ref] = {}
    for ref in g.refs:
        indegree[ref.dst] = indegree.get(ref.dst, 0) + 1
        if ref.cap is Cap.VAR:
            var_target[ref.dst] = ref
        _check_region_order(rho, cl, fr, ref, violations)
        _check_location(ref, violations)
        if loc_region(ref.src) in fr and loc_region(ref.dst) not in fr:
            violations.append(_violation(
                "deep_freeze", "r in Fr implies r' in Fr", [ref],
                [loc_region(ref.src), loc_region(ref.dst)]))
    for loc, ref in var_target.items():
        if indegree[loc] > 1:
            violations.append(_violation(
                "var_unique", "var target has in-degree > 1",
                sorted((r for r in g.refs if r.dst == loc), key=_ref_key),
                [loc_region(loc)]))
    if violations:
        violations.sort(key=_violation_key)
    return not violations, violations


def _check_region_order(rho: RegionOrder, cl: set[int], fr: set[int],
                        ref: Ref, violations: list[dict]) -> None:
    # Each branch returns when the ref passes, so the clause text is built
    # only for a ref that fails.
    r, r2 = ref.src.r, ref.dst.r
    k = ref.cap
    if k is Cap.MUT or k is Cap.TMP or k is Cap.VAR:
        if r == r2:
            return
        clause = f"k = {k} implies r = r'"
    elif k is Cap.PAUSED:
        if rho.lt(r2, r):
            return
        clause = "k = paused implies rho |- r' < r"
    elif k is Cap.ISO:
        if r != r2 and (r2 in cl or rho.lt(r, r2) or (r in fr and r2 in fr)):
            return
        clause = "k = iso implies r != r' and (r' closed or above or both frozen)"
    else:  # imm
        if r2 in fr:
            return
        clause = "k = imm implies r' in Fr"
    violations.append(_violation("region_order", clause, [ref], [r, r2]))


def _check_location(ref: Ref, violations: list[dict]) -> None:
    k, src, dst = ref.cap, ref.src, ref.dst
    if k is Cap.MUT:
        if isinstance(dst, Heap):
            return
        clause = "mut targets Heap"
    elif k is Cap.TMP:
        if isinstance(src, (Root, Temp)) and isinstance(dst, Temp):
            return
        clause = "tmp sources Root/Temp and targets Temp"
    elif k is Cap.VAR:
        if isinstance(src, Root) and isinstance(dst, Temp):
            return
        clause = "var sources Root and targets Temp"
    elif k is Cap.PAUSED:
        if isinstance(src, (Root, Temp)):
            return
        clause = "paused sources Root/Temp"
    else:  # iso, imm
        if isinstance(dst, Heap):
            return
        clause = f"{k} targets Heap"
    violations.append(_violation("location_ok", clause, [ref],
                                 [src.r, dst.r]))


# ---------------------------------------------------------------------------
# topology_ok
# ---------------------------------------------------------------------------

def topology_pair_ok(rho: RegionOrder, fr: set[int], ref1: Ref,
                     ref2: Ref) -> bool:
    """The pairwise disjunction (clauses 1-5)."""
    if ref1 == ref2:                                   # (1)
        return True
    r1d, r2d = loc_region(ref1.dst), loc_region(ref2.dst)
    if r1d != r2d:                                     # (2)/(3) different dst
        return True
    if r1d in fr or r2d in fr:                         # (4)
        return True
    return (rho.leq(r1d, loc_region(ref1.src))         # (5) downward/intra
            or rho.leq(r2d, loc_region(ref2.src)))


def topology_ok(rho: RegionOrder, fr: set[int], g: ConfigGraph,
                entries: Optional[list[tuple[int, tuple[int, str], int]]]
                = None) -> tuple[bool, list[dict]]:
    """Pairwise topology clauses, grouped by destination region (equivalent
    to the quadratic definition: pairs with distinct destination regions or
    a frozen destination satisfy the disjunction trivially), plus the
    entrypoint chains for every region-stack cons, looked up through the
    refs indexed by source."""
    violations: list[dict] = []
    groups: dict[int, list[Ref]] = {}
    for ref in g.refs:
        rd = loc_region(ref.dst)
        if rd in fr:
            continue
        if rho.leq(rd, loc_region(ref.src)):
            continue  # satisfies the disjunction with any partner
        groups.setdefault(rd, []).append(ref)
    for rd, refs in groups.items():
        if len(refs) > 1:
            violations.append(_violation(
                "topology_ok", "two external references into one region",
                sorted(refs, key=_ref_key)[:4], [rd]))
    if entries:
        by_iota = {}
        for loc in g.locs:
            if not isinstance(loc, Root):
                by_iota[loc.iota] = loc
        out_refs: dict[Loc, list[Ref]] = {}
        for ref in g.refs:
            out_refs.setdefault(ref.src, []).append(ref)
        for r_below, (iota_y, f), r_above in entries:
            loc_y = by_iota.get(iota_y)
            root_edge = loc_y is not None and any(
                ref.dst == loc_y for ref in out_refs.get(Root(r_below), ()))
            entry_edge = loc_y is not None and any(
                ref.name == f and isinstance(ref.dst, Heap)
                and ref.dst.r == r_above
                for ref in out_refs.get(loc_y, ()))
            if not (root_edge and entry_edge):
                violations.append(_violation(
                    "entrypoints_ok",
                    f"missing Root({r_below}) -> loc -> Heap({r_above}) "
                    f"chain via field {f}",
                    [], [r_below, r_above]))
    if violations:
        violations.sort(key=_violation_key)
    return not violations, violations


def frame_entries(m: Machine) -> list[tuple[int, tuple[int, str], int]]:
    entries = []
    for below, above in zip(m.frames, m.frames[1:]):
        if above.entry is not None:
            entries.append((below.r, above.entry, above.r))
    return entries


# ---------------------------------------------------------------------------
# Context stacks and configuration well-formedness
# ---------------------------------------------------------------------------

@dataclass
class ContextStack:
    """Typing contexts mirroring the region stack; bottom first.

    Each cons above the root carries the entry lval (y, f) tag."""

    frames: list[tuple[Gamma, Optional[tuple[str, str]]]] = field(
        default_factory=lambda: [({}, None)])

    def copy(self) -> "ContextStack":
        return ContextStack([(dict(g), tag) for g, tag in self.frames])

    @property
    def top(self) -> Gamma:
        return self.frames[-1][0]

    def gammas(self) -> list[Gamma]:
        return [g for g, _ in self.frames]


def _tag_matches(obj_tag: str, t: Type, cap: Cap) -> bool:
    """Tag-subtyping: some leaf of t has the value's capability and a head
    matching the dynamic tag (#C <#: C, #Cell <#: Cell[_])."""
    for leaf in leaves(t):
        if leaf.cap is not cap:
            continue
        if isinstance(leaf.head, CellHead):
            if obj_tag == "Cell":
                return True
        elif leaf.head.name == obj_tag:
            return True
    return False


def check_config_wf(gammas: Optional[ContextStack], m: Machine) -> dict:
    """Full well-formedness: frame/context agreement (tag-subtyping mode),
    store integrity, capability_ok, and topology_ok."""
    violations: list[dict] = []
    # Structural checks.
    stack_ids = m.region_stack_ids()
    if sorted(stack_ids) != sorted(m.h_op.keys()):
        violations.append(_violation(
            "wf-rcfg", "region stack ids differ from open heap ids", [],
            stack_ids + list(m.h_op)))
    all_ids = list(m.h_op) + list(m.h_cl) + list(m.h_fr)
    if len(all_ids) != len(set(all_ids)):
        violations.append(_violation(
            "wf-rcfg", "heaps share a region id", [], all_ids))
    for kind, r, iota, obj in m.all_objects():
        if kind != "temp":
            for f, v in obj.fields.items():
                if v is V_UNDEF:
                    violations.append(_violation(
                        "wf-heap", f"heap object {iota} field {f} is "
                        "undefined", [], [r]))
    # Frame typing (tag-subtyping mode).
    if gammas is not None:
        if len(gammas.frames) != len(m.frames):
            violations.append(_violation(
                "wf-rs-cons", "context stack height differs from region "
                "stack height", [], stack_ids))
        else:
            objects = _objects_by_id(m)
            for (gamma, _), frame in zip(gammas.frames, m.frames):
                _check_frame_typing(gamma, frame, objects, violations)
    try:
        g = build_graph(m)
    except GraphError as exc:
        violations.append(_violation("build_graph", str(exc), [], []))
        return {"verdict": False, "violations": violations}
    rho = region_order_of(m)
    cl, fr = set(m.h_cl), set(m.h_fr)
    ok1, v1 = capability_ok(rho, cl, fr, g)
    ok2, v2 = topology_ok(rho, fr, g, frame_entries(m))
    violations.extend(v1)
    violations.extend(v2)
    return {"verdict": not violations, "violations": violations}


def _objects_by_id(m: Machine) -> dict[int, Object]:
    """Every object of the configuration by id.  Where an id repeats, the
    object is the one m.cfg_load finds first: the temps of the topmost
    frame holding it, else the first store of the open, closed and frozen
    heaps, in that order.  Later updates win, so sources go in reverse."""
    objects: dict[int, Object] = {}
    for heap in (m.h_fr, m.h_cl, m.h_op):
        for store in reversed(heap.values()):
            objects.update(store)
    for frame in m.frames:
        objects.update(frame.temps)
    return objects


def _check_frame_typing(gamma: Gamma, frame, objects: dict[int, Object],
                        violations: list[dict]) -> None:
    for x, t in gamma.items():
        v = frame.vars.get(x)
        if t is UNDEF:
            continue  # buried statically; runtime may retain or bury
        if v is V_UNDEF or v is None:
            violations.append(_violation(
                "wf-vars", f"variable {x} is typed but unbound", [],
                [frame.r]))
            continue
        cap, iota = v
        obj = objects.get(iota)
        if obj is None:
            violations.append(_violation(
                "wf-vars", f"variable {x} dangles ({iota})", [], [frame.r]))
            continue
        if not _tag_matches(obj.tag, t, cap):
            violations.append(_violation(
                "wf-ty", f"value ({cap}, #{obj.tag}) of {x} does not "
                f"subtag its type {t}", [], [frame.r]))


# ---------------------------------------------------------------------------
# Effect well-formedness (wf-eff-*)
# ---------------------------------------------------------------------------

def _use_type(checker: Checker, gamma: Gamma, u) -> Optional[Type]:
    try:
        t, _ = checker.check_use(gamma, u)
    except TypeCheckError:
        return None
    return t


def _consume(checker: Checker, gamma: Gamma, u) -> Optional[Type]:
    try:
        t, g2 = checker.check_use(gamma, u)
    except TypeCheckError:
        return None
    if g2 is not gamma:
        gamma.clear()
        gamma.update(g2)
    return t


def check_effect_wf(gammas: ContextStack, eff: Effect,
                    classes: ClassTable) -> Optional[ContextStack]:
    """Evolve the context stack by one effect; None if any premise fails."""
    out = gammas.copy()
    checker = Checker(classes, _EMPTY_FUNCS)
    gamma = out.top
    if isinstance(eff, Eps):
        return out
    if isinstance(eff, Bind):
        for x, u in eff.pairs:
            t = _consume(checker, gamma, u)
            if t is None:
                return None
            gamma[x] = t
        return out
    if isinstance(eff, Load):
        t_y = gamma.get(eff.y)
        if t_y is None or t_y is UNDEF or not cap_not_in({Cap.ISO}, t_y):
            return None
        t = fresult(t_y, eff.f, classes)
        if t is None:
            return None
        gamma[eff.x] = t
        return out
    if isinstance(eff, Swap):
        return _wf_swap(checker, out, gamma, eff, classes)
    if isinstance(eff, Halloc):
        ftypes = classes.ftypes(_cls(eff.cls))
        ts = []
        for u in eff.uses:
            t = _consume(checker, gamma, u)
            if t is None:
                return None
            ts.append(t)
        for (fname, ftype), t in zip(ftypes, ts):
            if not subtype(t, ftype):
                return None
            if eff.cap is Cap.ISO and not cap_in({Cap.ISO, Cap.IMM}, t):
                return None
        gamma[eff.x] = CapType(eff.cap, _cls(eff.cls))
        return out
    if isinstance(eff, Salloc):
        if eff.cap not in (Cap.TMP, Cap.VAR):
            return None
        if eff.cls == "Cell":
            if len(eff.uses) != 1:
                return None
            t = _consume(checker, gamma, eff.uses[0])
            if t is None or not cap_not_in({Cap.VAR}, t):
                return None
            gamma[eff.x] = CapType(eff.cap, CellHead(t))
            return out
        ftypes = classes.ftypes(_cls(eff.cls))
        for (fname, ftype), u in zip(ftypes, eff.uses):
            t = _consume(checker, gamma, u)
            if t is None or not subtype(t, ftype):
                return None
        gamma[eff.x] = CapType(eff.cap, _cls(eff.cls))
        return out
    if isinstance(eff, EnterEff):
        return _wf_enter(checker, out, gamma, eff, classes)
    if isinstance(eff, BadEnter):
        return out
    if isinstance(eff, ExitEff):
        return _wf_exit(checker, out, eff, classes)
    if isinstance(eff, FreezeEff):
        t = _consume(checker, gamma, eff.use)
        if t is None or not cap_in({Cap.ISO}, t):
            return None
        gamma[eff.x] = make_imm(t)
        return out
    if isinstance(eff, MergeEff):
        t = _consume(checker, gamma, eff.use)
        if t is None or not cap_in({Cap.ISO}, t):
            return None
        gamma[eff.x] = make_mut(t)
        return out
    if isinstance(eff, CastEff):
        t = _consume(checker, gamma, eff.use)
        if t is None:
            return None
        gamma[eff.x] = eff.ty
        return out
    if isinstance(eff, NoCastEff):
        t = _consume(checker, gamma, eff.use)
        if t is None:
            return None
        gamma[eff.x] = t
        return out
    return None


def _wf_swap(checker: Checker, out: ContextStack, gamma: Gamma, eff: Swap,
             classes: ClassTable) -> Optional[ContextStack]:
    t_u = _consume(checker, gamma, eff.use)
    if t_u is None or not cap_not_in({Cap.VAR}, t_u):
        return None
    t_y = gamma.get(eff.y)
    if t_y is None or t_y is UNDEF:
        return None
    if eff.f == "val" and cap_in({Cap.VAR}, t_y):
        old = fresult(t_y, "val", classes)
        if old is None:
            return None
        gamma[eff.y] = make_cell(t_u)
        gamma[eff.x] = old
        return out
    if not cap_in({Cap.MUT, Cap.TMP}, t_y):
        return None
    old = None
    for leaf in leaves(t_y):
        ftype = classes.ftype(leaf.head, eff.f)
        if ftype is None or not subtype(t_u, ftype):
            return None
        from .model import UnionType
        old = ftype if old is None else UnionType(old, ftype)
    gamma[eff.x] = old
    return out


def _wf_enter(checker: Checker, out: ContextStack, gamma: Gamma,
              eff: EnterEff, classes: ClassTable
              ) -> Optional[ContextStack]:
    if eff.cap not in (Cap.TMP, Cap.VAR):
        return None
    new_gamma: Gamma = {}
    for z, u in eff.captures:
        t = _consume(checker, gamma, u)
        if t is None:
            return None
        if cap_in({Cap.ISO}, t):
            new_gamma[z] = t
        else:
            from .model import vpa_type
            adapted = vpa_type(Cap.PAUSED, t)
            if adapted is None:
                return None
            new_gamma[z] = adapted
    t_y = gamma.get(eff.y)
    if t_y is None or t_y is UNDEF:
        return None
    if eff.cap is Cap.VAR and not cap_in({Cap.VAR}, t_y):
        return None
    if not cap_in({Cap.MUT, Cap.TMP, Cap.VAR, Cap.PAUSED}, t_y):
        return None
    t_f = fresult_keep_iso(t_y, eff.f, classes)
    if t_f is None or not cap_in({Cap.ISO}, t_f):
        return None
    if eff.cap is Cap.VAR:
        new_gamma[eff.w] = make_cell(make_mut(t_f))
    else:
        new_gamma[eff.w] = CapType(Cap.TMP, CellHead(make_mut(t_f)))
    out.frames.append((new_gamma, (eff.y, eff.f)))
    return out


def _wf_exit(checker: Checker, out: ContextStack, eff: ExitEff,
             classes: ClassTable) -> Optional[ContextStack]:
    if len(out.frames) < 2:
        return None
    popped, _tag = out.frames.pop()
    t_ret = _consume(checker, popped, eff.use)
    if t_ret is None or not cap_in({Cap.ISO, Cap.IMM}, t_ret):
        return None
    t_w = popped.get(eff.w)
    if t_w is None or t_w is UNDEF:
        return None
    if not all(leaf.cap in (Cap.TMP, Cap.VAR)
               and isinstance(leaf.head, CellHead) for leaf in leaves(t_w)):
        return None
    t_new = fresult(t_w, eff.g, classes)
    if t_new is None or not cap_in({Cap.MUT}, t_new):
        return None
    gamma = out.top
    t_y = gamma.get(eff.y)
    if t_y is None or t_y is UNDEF:
        return None
    if eff.f == "val" and all(
            leaf.cap is Cap.VAR and isinstance(leaf.head, CellHead)
            for leaf in leaves(t_y)):
        gamma[eff.y] = make_cell(make_iso(t_new))
    gamma[eff.x] = t_ret
    return out


def _cls(name: str):
    from .model import ClassName
    return ClassName(name)


class _NoFuncs:
    def __contains__(self, name: str) -> bool:
        return False

    def lookup(self, name: str):  # pragma: no cover
        raise KeyError(name)


_EMPTY_FUNCS = _NoFuncs()
