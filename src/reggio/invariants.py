"""Verification oracle: configuration graphs, capability and topology
invariants, configuration well-formedness, and effect well-formedness.

Effect well-formedness evolves the typing contexts by the checker's own
rules (typecheck.Checker), so the two cannot drift apart: an enter opens
its block through Checker.enter_context and an exit leaves it through
Checker.exit_context, as the checker's own enter rules do.

The oracle is deliberately brute force: the graph is rebuilt from scratch,
the topology predicate is checked over all its refs, and frame typing
finds each object by the machine's own lookup (Machine.cfg_load).  It is
the executable spec; each-step runs first try a fast path (Fragments) that
re-checks only the frames and region stores a step touched, through the
same extraction functions and per-ref clauses, and falls back to the spec
for any configuration it does not pass.  Violation reports are plain
dicts of the shape {verdict, violations: [{predicate, clause, refs,
regions}]} so they serialize directly to JSON.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional

from .model import (Cap, CapType, ClassTable, FunctionTable, Type, cap_in,
                    leaves, tag_matches)
from .machine import (CLOSED, FROZEN, OPEN, STATES, BadEnter, Bind, CastEff,
                      Effect, EnterEff, Eps, ExitEff, Frame, FreezeEff,
                      Halloc, Load, Machine, MergeEff, NoCastEff, Object,
                      Salloc, Store, Swap, V_UNDEF)
from .typecheck import UNDEF, Binding, Checker, Gamma, TypeCheckError


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


# A configuration splits into fragments: each frame's variables and
# temporaries, and each region's store.  build_graph extracts every
# fragment; the each-step fast path (Fragments) re-extracts only the ones
# a step touched, through the same functions.

def _add_objects(where: dict[int, Loc], store, make_loc, r: int) -> None:
    """Index a fragment's objects by id as make_loc(r, iota)."""
    for iota in store:
        loc = make_loc(r, iota)
        if iota in where:
            raise GraphError(f"object id {iota} appears at "
                             f"{where[iota]} and {loc}")
        where[iota] = loc


def _ref(where: dict[int, Loc], src: Loc, name: str, v) -> Ref:
    dst = where.get(v[1])
    if dst is None:
        raise GraphError(f"dangling reference {src}.{name} -> {v[1]}")
    return Ref(src, name, v[0], dst)


def _frame_refs(frame: Frame, where: dict[int, Loc]) -> list[Ref]:
    """Variable edges from the frame's root (buried bindings contribute
    nothing) and the field edges of its temporaries, whose locations where
    holds, as it does a store's for _store_refs."""
    root = Root(frame.r)
    refs = [_ref(where, root, x, v) for x, v in frame.vars.items()
            if v is not V_UNDEF]
    for iota, obj in frame.temps.items():
        src = where[iota]
        for f, v in obj.fields.items():
            refs.append(_ref(where, src, f, v))
    return refs


def _store_refs(store: Store, where: dict[int, Loc]) -> list[Ref]:
    refs = []
    for iota, obj in store.items():
        src = where[iota]
        for f, v in obj.fields.items():
            if v is V_UNDEF:
                raise GraphError(f"heap object {iota} has undefined field {f}")
            refs.append(_ref(where, src, f, v))
    return refs


def build_graph(m: Machine) -> ConfigGraph:
    """Rebuild (L, R) from a machine state.

    Frames contribute Root(r), Temp locations, and variable edges (buried
    bindings contribute nothing); region stores contribute Heap locations
    and field edges.  Duplicate object-ids or duplicate roots are
    separation errors.
    """
    where: dict[int, Loc] = {}
    roots: set[Loc] = set()
    for frame in m.frames:
        root = Root(frame.r)
        if root in roots:
            raise GraphError(f"two root locations for region {frame.r}")
        roots.add(root)
        _add_objects(where, frame.temps, Temp, frame.r)
    for r, region in m.regions.items():
        _add_objects(where, region.store, Heap, r)
    refs: set[Ref] = set()
    for frame in m.frames:
        refs.update(_frame_refs(frame, where))
    for r, region in m.regions.items():
        refs.update(_store_refs(region.store, where))
    return ConfigGraph(roots | set(where.values()), refs)


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
    for ref in g.refs:
        _ref_violations(rho, cl, fr, ref, violations)
    indegree, var_targets = _in_degrees(g.refs)
    for loc in var_targets:
        if indegree[loc] > 1:
            violations.append(_violation(
                "var_unique", "var target has in-degree > 1",
                sorted((r for r in g.refs if r.dst == loc), key=_ref_key),
                [loc.r]))
    if violations:
        violations.sort(key=_violation_key)
    return not violations, violations


def _ref_violations(rho: RegionOrder, cl, fr, ref: Ref,
                    violations: list[dict]) -> None:
    """The per-ref clauses: region order, location and deep freeze."""
    clause = _region_order_clause(rho, cl, fr, ref)
    if clause is not None:
        violations.append(_violation("region_order", clause, [ref],
                                     [ref.src.r, ref.dst.r]))
    clause = _location_clause(ref)
    if clause is not None:
        violations.append(_violation("location_ok", clause, [ref],
                                     [ref.src.r, ref.dst.r]))
    if ref.src.r in fr and ref.dst.r not in fr:
        violations.append(_violation(
            "deep_freeze", "r in Fr implies r' in Fr", [ref],
            [ref.src.r, ref.dst.r]))


def _in_degrees(refs) -> tuple[dict[Loc, int], set[Loc]]:
    """The refs into each target, and the targets of var refs."""
    indegree: dict[Loc, int] = {}
    var_targets: set[Loc] = set()
    for ref in refs:
        indegree[ref.dst] = indegree.get(ref.dst, 0) + 1
        if ref.cap is Cap.VAR:
            var_targets.add(ref.dst)
    return indegree, var_targets


# Each clause returns None for a ref that passes, so its text is built
# only for a ref that fails.

def _region_order_clause(rho: RegionOrder, cl, fr, ref: Ref
                         ) -> Optional[str]:
    r, r2 = ref.src.r, ref.dst.r
    k = ref.cap
    if k is Cap.MUT or k is Cap.TMP or k is Cap.VAR:
        if r == r2:
            return None
        return f"k = {k} implies r = r'"
    if k is Cap.PAUSED:
        if rho.lt(r2, r):
            return None
        return "k = paused implies rho |- r' < r"
    if k is Cap.ISO:
        if r != r2 and (r2 in cl or rho.lt(r, r2) or (r in fr and r2 in fr)):
            return None
        return "k = iso implies r != r' and (r' closed or above or both frozen)"
    if r2 in fr:  # imm
        return None
    return "k = imm implies r' in Fr"


def _location_clause(ref: Ref) -> Optional[str]:
    k, src, dst = ref.cap, ref.src, ref.dst
    if k is Cap.MUT:
        if isinstance(dst, Heap):
            return None
        return "mut targets Heap"
    if k is Cap.TMP:
        if isinstance(src, (Root, Temp)) and isinstance(dst, Temp):
            return None
        return "tmp sources Root/Temp and targets Temp"
    if k is Cap.VAR:
        if isinstance(src, Root) and isinstance(dst, Temp):
            return None
        return "var sources Root and targets Temp"
    if k is Cap.PAUSED:
        if isinstance(src, (Root, Temp)):
            return None
        return "paused sources Root/Temp"
    if isinstance(dst, Heap):  # iso, imm
        return None
    return f"{k} targets Heap"


# ---------------------------------------------------------------------------
# topology_ok
# ---------------------------------------------------------------------------

def _external(rho: RegionOrder, fr, ref: Ref) -> bool:
    """Whether ref can break the pairwise disjunction with a partner: its
    destination is not frozen and not at-or-below its source."""
    rd = ref.dst.r
    return rd not in fr and not rho.leq(rd, ref.src.r)


def _external_groups(rho: RegionOrder, fr, refs) -> dict[int, list[Ref]]:
    """The external refs, by destination region."""
    groups: dict[int, list[Ref]] = {}
    for ref in refs:
        if _external(rho, fr, ref):
            groups.setdefault(ref.dst.r, []).append(ref)
    return groups


def _chain_ok(out_refs, loc_y: Optional[Loc], r_below: int, f: str,
              r_above: int) -> bool:
    """The entry-point chain Root(r_below) -> loc_y -> Heap(r_above) via
    field f; out_refs(loc) gives the refs leaving loc."""
    return (loc_y is not None
            and any(ref.dst == loc_y for ref in out_refs(Root(r_below)))
            and any(ref.name == f and isinstance(ref.dst, Heap)
                    and ref.dst.r == r_above for ref in out_refs(loc_y)))


def topology_ok(rho: RegionOrder, fr: set[int], g: ConfigGraph,
                entries: Optional[list[tuple[int, tuple[int, str], int]]]
                = None) -> tuple[bool, list[dict]]:
    """Pairwise topology clauses, grouped by destination region (equivalent
    to the quadratic definition: pairs with distinct destination regions or
    a frozen destination satisfy the disjunction trivially), plus the
    entrypoint chains for every region-stack cons, looked up through the
    refs indexed by source."""
    violations: list[dict] = []
    for rd, refs in _external_groups(rho, fr, g.refs).items():
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
            if not _chain_ok(lambda loc: out_refs.get(loc, ()),
                             by_iota.get(iota_y), r_below, f, r_above):
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
# Configuration well-formedness
# ---------------------------------------------------------------------------

def _tag_matches(obj_tag: str, t: Type, cap: Cap) -> bool:
    """Tag-subtyping: some leaf of t has the value's capability and a head
    matching the dynamic tag."""
    if type(t) is CapType:  # one leaf: no walk
        return t.cap is cap and tag_matches(obj_tag, t.head)
    for leaf in leaves(t):
        if leaf.cap is cap and tag_matches(obj_tag, leaf.head):
            return True
    return False


def _ids_in(status: dict[int, str], state: str) -> set[int]:
    return {r for r, s in status.items() if s == state}


def check_config_wf(gammas: Optional[list[Gamma]], m: Machine,
                    state: Optional["Fragments"] = None) -> dict:
    """Full well-formedness: frame/context agreement (tag-subtyping mode),
    store integrity, capability_ok, and topology_ok.

    Without state this is the brute-force spec.  With the per-run state of
    an each-step run, the fast path re-checks only what the step touched;
    a configuration it does not pass goes to the spec, which decides and
    writes the report."""
    if state is not None:
        try:
            if state.passes(gammas, m):
                return {"verdict": True, "violations": []}
        except GraphError:
            pass
        state.reset()
    violations: list[dict] = []
    # Structural checks.
    stack_ids = m.region_stack_ids()
    status = {r: region.state for r, region in m.regions.items()}
    open_ids = _ids_in(status, OPEN)
    if sorted(stack_ids) != sorted(open_ids):
        violations.append(_violation(
            "wf-rcfg", "region stack ids differ from open heap ids", [],
            stack_ids + list(open_ids)))
    for kind, r, iota, obj in m.all_objects():
        if kind != "temp":
            for f, v in obj.fields.items():
                if v is V_UNDEF:
                    violations.append(_violation(
                        "wf-heap", f"heap object {iota} field {f} is "
                        "undefined", [], [r]))
    # Frame typing (tag-subtyping mode).
    if gammas is not None:
        if len(gammas) != len(m.frames):
            violations.append(_violation(
                "wf-rs-cons", "context stack height differs from region "
                "stack height", [], stack_ids))
        else:
            load = partial(m.cfg_load, states=STATES)
            for gamma, frame in zip(gammas, m.frames):
                _check_frame_typing(gamma, frame, load, violations)
    try:
        g = build_graph(m)
    except GraphError as exc:
        violations.append(_violation("build_graph", str(exc), [], []))
        return {"verdict": False, "violations": violations}
    rho = region_order_of(m)
    cl, fr = _ids_in(status, CLOSED), _ids_in(status, FROZEN)
    ok1, v1 = capability_ok(rho, cl, fr, g)
    ok2, v2 = topology_ok(rho, fr, g, frame_entries(m))
    violations.extend(v1)
    violations.extend(v2)
    return {"verdict": not violations, "violations": violations}


# ---------------------------------------------------------------------------
# The each-step fast path
# ---------------------------------------------------------------------------

def _fragment_of(loc: Loc) -> int:
    """loc's fragment key: r for region r's store, ~r for its frame."""
    return loc.r if type(loc) is Heap else ~loc.r


class _Fragment:
    """One fragment's objects and refs, and what the refs count towards
    the predicates that span fragments, by region and object id:
    - into: the regions they point into;
    - external: their external refs into each region (topology_ok);
    - for a frame, var_targets, var_shared (one of them has a second ref
      from the frame) and paused, the temporaries of other frames it
      points to (var_unique).  A ref that passes location_ok and leaves a
      heap object targets a heap object, so only frames count here.
    One pass over the refs applies the per-ref clauses, adding what fails
    to violations, and builds the summary, which holds if nothing failed.
    The refs are indexed by source on first use (entry-point chains)."""

    __slots__ = ("objs", "refs", "into", "external", "var_targets",
                 "var_shared", "paused", "out")

    def __init__(self, r: int, objs: tuple[int, ...], refs: list[Ref],
                 rho: RegionOrder, cl, fr, violations: list[dict]) -> None:
        self.objs = objs
        self.refs = refs
        self.out: Optional[dict[Loc, list[Ref]]] = None
        self.into = into = set()
        self.external = external = {}
        self.var_targets = var_targets = set()
        self.paused = paused = []
        temp_in: dict[int, int] = {}  # refs into each of the frame's temps
        for ref in refs:
            _ref_violations(rho, cl, fr, ref, violations)
            dst = ref.dst
            rd = dst.r
            into.add(rd)
            if _external(rho, fr, ref):
                external[rd] = external.get(rd, 0) + 1
            if type(dst) is Temp:
                if rd != r:
                    paused.append(dst)
                else:
                    temp_in[dst.iota] = temp_in.get(dst.iota, 0) + 1
                    if ref.cap is Cap.VAR:
                        var_targets.add(dst.iota)
        self.var_shared = bool(var_targets) and max(
            map(temp_in.get, var_targets)) > 1


class Fragments:
    """Per-run summaries for check_config_wf's each-step fast path.

    A fragment is one frame's variables and temporaries, or one region's
    store.  The summaries describe the configuration of the last check
    that passed, so every ref they hold passed every per-ref clause.  A
    check extracts and checks again only the fragments the step touched:
    the top frame before and after, any frame pushed or popped, the store
    of every region that changed state (and so joined or left the stack)
    or left the table, and the fragment of the object the effect writes or
    moves objects into.  Fragments with refs into such a region, found
    through a region -> fragments index, are checked again too.

    The rest of a check costs what changed, not the size of the
    configuration:
    - topology_ok: the external refs into each region are running totals.
      A re-extracted fragment's old counts are subtracted and its new ones
      added, and only the regions it counts are tested;
    - var_unique spans frames only.  A frame extracted again is tested
      against the others: its paused refs into the frames below, and the
      paused refs of the frames above into its var targets;
    - entry-point chains through a fragment extracted again are checked,
      and frames extracted again or given a new context are typed;
    - the open, closed and frozen sets and the region order are updated
      from the regions whose state changed.  Finding them compares each
      region's state with the last check's, the one pass over the region
      table left.

    The runner sets ``effect`` to the step's effect before each check."""

    def __init__(self) -> None:
        self.effect: Optional[Effect] = None
        self.reset()

    def reset(self) -> None:
        """Forget every summary: the next check extracts everything."""
        self.frags: dict[int, _Fragment] = {}  # by _fragment_of key
        self.where: dict[int, Loc] = {}
        self.objects: dict[int, Object] = {}
        self.status: dict[int, str] = {}  # region -> its state
        self.ids: dict[str, set[int]] = {s: set() for s in STATES}
        self.external: dict[int, int] = {}  # region -> external refs in
        self.into: dict[int, set[int]] = {}  # region -> frags with refs in
        self.rho = RegionOrder([])
        self.frames: list[Frame] = []
        self.frame_of: dict[int, Frame] = {}  # region -> its frame
        self.gammas: list[Gamma] = []

    def clone(self, copies: dict[int, object]) -> Fragments:
        """The summaries for a clone of the machine, where copies maps the
        id of each of its frames and objects to the copy (Machine.clone).
        Fragments, the region order and the contexts are shared: nothing
        changes them once made but a fragment's cache of refs by source."""
        new = object.__new__(Fragments)
        new.effect, new.rho = self.effect, self.rho
        new.frags, new.where = self.frags.copy(), self.where.copy()
        new.status, new.external = self.status.copy(), self.external.copy()
        new.objects = {i: copies[id(o)] for i, o in self.objects.items()}
        new.ids = {s: set(rs) for s, rs in self.ids.items()}
        new.into = {r: set(keys) for r, keys in self.into.items()}
        new.frames = [copies[id(f)] for f in self.frames]
        new.frame_of = {r: copies[id(f)] for r, f in self.frame_of.items()}
        new.gammas = self.gammas[:]
        return new

    def passes(self, gammas: Optional[list[Gamma]], m: Machine) -> bool:
        """True if the configuration is well formed; False if the spec
        must decide.  A False leaves the summaries inconsistent, to be
        reset."""
        frames, regions = m.frames, m.regions
        if gammas is None or len(gammas) != len(frames):
            return False
        # The regions whose state changed or that left the table (merge).
        status, ids = self.status, self.ids
        changed: list[int] = []
        for r, region in regions.items():
            s = region.state
            old = status.get(r)
            if old != s:
                changed.append(r)
                if old is not None:
                    ids[old].discard(r)
                ids[s].add(r)
                status[r] = s
        if len(status) > len(regions):
            for r in [r for r in status if r not in regions]:
                changed.append(r)
                ids[status.pop(r)].discard(r)
        prev = self.frames
        n = 0  # the frames kept since the last check
        for a, b in zip(prev, frames):
            if a is not b:
                break
            n += 1
        moved = n != len(frames) or n != len(prev)
        if changed or moved:
            stack = [f.r for f in frames]
            open_ids = ids[OPEN]
            if len(stack) != len(open_ids) or set(stack) != open_ids:
                return False  # also rules out two roots for one region
            if moved:
                self.rho = RegionOrder(stack[::-1])
                self.frame_of = {f.r: f for f in frames}
        touched = self._touched(frames, n, changed)
        if touched is None:
            return False
        # Take every touched fragment out before indexing any (merge moves
        # objects between two of them); queue those still present.
        for key in touched:
            self._drop(key)
        where, objects, frame_of = self.where, self.objects, self.frame_of
        queue = []
        for key in touched:
            frame = frame_of.get(~key) if key < 0 else None
            if frame is not None:
                store = frame.temps
                _add_objects(where, store, Temp, frame.r)
            elif key >= 0 and key in regions:
                store = regions[key].store
                _add_objects(where, store, Heap, key)
            else:
                continue
            objects.update(store)
            queue.append((key, frame, store))
        rho = self.rho
        cl, fr = ids[CLOSED], ids[FROZEN]
        violations: list[dict] = []
        for key, frame, store in queue:
            refs = (_store_refs(store, where) if frame is None
                    else _frame_refs(frame, where))
            frag = _Fragment(key if frame is None else frame.r, tuple(store),
                             refs, rho, cl, fr, violations)
            if violations or frag.var_shared or not self._keep(key, frag):
                return False
        if len(frames) > 1:
            frags = self.frags
            for key, frame, _ in queue:
                if frame is None:
                    continue
                # var_unique across frames: a paused ref into a var target
                # of a lower frame is a second ref into it.
                frag = frags[key]
                for dst in frag.paused:
                    if dst.iota in frags[~dst.r].var_targets:
                        return False
                if frag.var_targets:
                    for r in rho.ids[:rho.index[frame.r]]:
                        for dst in frags[~r].paused:
                            if dst.iota in frag.var_targets:
                                return False
            # Entry-point chains that run through a fragment checked again.
            # A frame is pushed onto the top frame, which is always checked
            # again.
            for below, above in zip(frames, frames[1:]):
                if above.entry is None:
                    continue
                iota_y, f = above.entry
                loc_y = where.get(iota_y)
                if loc_y is None:
                    return False
                if ((~below.r in touched or _fragment_of(loc_y) in touched)
                        and not _chain_ok(self._out_refs, loc_y, below.r, f,
                                          above.r)):
                    return False
        # Frame typing, for the frames checked again or given a new context.
        old_gammas = self.gammas
        for i, (gamma, frame) in enumerate(zip(gammas, frames)):
            if (i < len(old_gammas) and old_gammas[i] is gamma
                    and ~frame.r not in touched):
                continue
            _check_frame_typing(gamma, frame, objects.get, violations)
            if violations:
                return False
        self.frames = frames[:]
        self.gammas = gammas[:]
        return True

    def _drop(self, key: int) -> None:
        """Take a fragment out of the summaries, the totals and indexes."""
        frag = self.frags.pop(key, None)
        if frag is None:
            return
        external, into = self.external, self.into
        for rd, n in frag.external.items():
            n = external[rd] - n
            if n:
                external[rd] = n
            else:
                del external[rd]
        for rd in frag.into:
            keys = into[rd]
            keys.discard(key)
            if not keys:
                del into[rd]
        where, objects = self.where, self.objects
        for iota in frag.objs:
            del where[iota], objects[iota]

    def _keep(self, key: int, frag: _Fragment) -> bool:
        """Put a fragment back; False if a total of external refs it adds
        to, the only ones that can, exceeds one."""
        self.frags[key] = frag
        external, into = self.external, self.into
        ok = True
        for rd, n in frag.external.items():
            external[rd] = n = external.get(rd, 0) + n
            ok = ok and n < 2
        for rd in frag.into:
            keys = into.get(rd)
            if keys is None:
                into[rd] = {key}
            else:
                keys.add(key)
        return ok

    def _touched(self, frames: list[Frame], n: int, changed: list[int]
                 ) -> Optional[set[int]]:
        """The fragments to extract again, where the first n frames are
        the last check's: the ones the step touched and the ones with refs
        into a region in changed; None if the effect writes an object the
        summaries do not know."""
        prev = self.frames
        touched = {~frames[-1].r}
        if prev:
            touched.add(~prev[-1].r)
        for f in prev[n:]:
            touched.add(~f.r)
        for f in frames[n:]:
            touched.add(~f.r)
        for r in changed:
            touched.add(r)
            touched.update(self.into.get(r, ()))
        eff = self.effect
        kind = type(eff)
        if kind is Swap or kind is ExitEff:
            # The object y names: swap's target, exit's bridge.
            v = frames[-1].vars.get(eff.y)
            loc = self.where.get(v[1]) if v else None
            if loc is None:
                return touched if not prev else None
            touched.add(_fragment_of(loc))
        elif (kind is Halloc and eff.cap is Cap.MUT) or kind is MergeEff:
            # The active region, which gains objects.
            touched.add(frames[-1].r)
        return touched

    def _out_refs(self, loc: Loc) -> list[Ref]:
        frag = self.frags[_fragment_of(loc)]
        if frag.out is None:
            frag.out = {}
            for ref in frag.refs:
                frag.out.setdefault(ref.src, []).append(ref)
        return frag.out.get(loc, [])


def _check_frame_typing(gamma: Gamma, frame, load: Callable,
                        violations: list[dict]) -> None:
    """Type frame's variables by gamma.  load(iota) is the object iota or
    None: the spec's is Machine.cfg_load, the fast path's its own index."""
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
        obj = load(iota)
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

def _is_var(t: Optional[Binding]) -> bool:
    return t is not None and t is not UNDEF and cap_in({Cap.VAR}, t)


@lru_cache(maxsize=1)
def _checker(classes: ClassTable) -> Checker:
    """The checker whose rules type a run's effects: one for a run's class
    table, not one per step."""
    return Checker(classes, FunctionTable())


def check_effect_wf(gammas: list[Gamma], eff: Effect,
                    classes: ClassTable) -> Optional[list[Gamma]]:
    """Evolve the context stack (bottom first) by one effect; None if any
    premise fails.

    Each effect is typed by the checker's rule for the let binding it
    stands for, on a copy of the top context, which the rule writes in
    place; a failed premise is the checker's TypeCheckError.  An enter
    pushes the block's context from Checker.enter_context.  An exit pops
    the block's context and takes the block-end premises
    (Checker.exit_context) on a copy of the context below, which the block
    left as its enter made it: so a field's binder is held to its entry
    type, computed again from the target's.  The result shares every
    context it does not write with gammas, which is left unchanged."""
    out = gammas[:]
    gamma = out[-1] = dict(gammas[-1])
    checker = _checker(classes)
    kind = type(eff)
    try:
        if kind is Bind:
            for x, u in eff.pairs:
                gamma[x], _ = checker.check_use(gamma, u)
            return out
        if kind is Salloc and eff.cap is Cap.VAR and eff.cls == "Cell":
            t, gamma = checker.check_var_alloc(gamma, eff.uses[0], (0, 0))
        elif kind is Halloc or kind is Salloc:
            t, gamma = checker.check_new(gamma, eff.cap, eff.cls, eff.uses,
                                         (0, 0))
        elif kind is Load:
            t, gamma = checker.check_deref(gamma, eff.y, eff.f, (0, 0))
        elif kind is Swap:
            bare = eff.f == "val" and _is_var(gamma.get(eff.y))
            t, gamma = checker.check_assign(gamma, eff.y,
                                            None if bare else eff.f,
                                            eff.use, (0, 0), frozenset())
        elif kind is FreezeEff:
            t, gamma = checker.check_freeze(gamma, eff.use, (0, 0))
        elif kind is MergeEff:
            t, gamma = checker.check_merge(gamma, eff.use, (0, 0))
        elif kind is CastEff:
            _, gamma = checker.check_use(gamma, eff.use)
            t = eff.ty
        elif kind is NoCastEff:
            t, gamma = checker.check_use(gamma, eff.use)
        elif kind is EnterEff:
            f = None if eff.cap is Cap.VAR else eff.f
            out.append(checker.enter_context(gamma, eff.captures, eff.w,
                                             eff.y, f, (0, 0)))
            return out
        elif kind is ExitEff:
            if len(out) < 2:
                return None
            out.pop()
            t, g_out = checker.check_use(gamma, eff.use)
            below = dict(out[-1])
            # enter x and enter x.val exit alike; the binder's capability
            # tells them apart, as EnterEff's does.
            bare = (eff.f == "val" and _is_var(below.get(eff.y))
                    and _is_var(g_out.get(eff.w)))
            gamma = checker.exit_context(below, g_out, t, eff.w, eff.y,
                                         None if bare else eff.f, (0, 0))
        elif kind is Eps or kind is BadEnter:
            return out
        else:
            return None
    except TypeCheckError:
        return None
    gamma[eff.x] = t
    out[-1] = gamma
    return out
