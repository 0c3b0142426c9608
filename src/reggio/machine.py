"""Region-language dynamic semantics.

A configuration is a region stack (frames, top = last) and a region table
mapping region-id -> Region, whose state is open (on the stack), closed
(isolated behind one iso) or frozen (deeply immutable), and whose store
maps object-id -> Object; region_of indexes each heap object's region.
Enter, exit and freeze change a region's state in place; merge moves a
closed region's store into the active region.  The machine consumes
effects emitted by the command machine and mutates the configuration in
place.

``bugs`` is a set of named, deliberately planted faults used to validate
the invariant checker by mutation testing; the shipped default is empty.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .model import Cap, ClassTable, ClassName, leaves, tag_matches, vpa
from .syntax import Use

Value = tuple[Cap, int]

V_UNDEF = None  # buried variable binding
_UNBOUND = object()  # no binding at all

KNOWN_BUGS = frozenset({
    "exit-keep-temps",     # exit leaks the popped frame's temporary store
    "exit-mut-writeback",  # exit writes the bridge back as mut, not iso
    "shallow-freeze",      # freeze does not freeze nested regions
    "skip-bury",           # drop does not invalidate the variable
    "reinstate-iso",       # exit restores iso captures consumed on enter
    "vpa-paused-identity",  # captures keep their capability unsuspended
})


def check_bugs(bugs: frozenset[str]) -> frozenset[str]:
    """bugs, if each one names a planted bug; else ValueError naming the
    others."""
    unknown = bugs - KNOWN_BUGS
    if unknown:
        raise ValueError(f"unknown bug switches: {sorted(unknown)}")
    return bugs


class Stuck(Exception):
    """An undefined lookup: unreachable from well-typed programs."""


@dataclass
class Object:
    tag: str  # class name, or "Cell"
    fields: dict[str, Value]


Store = dict[int, Object]

OPEN, CLOSED, FROZEN = "open", "closed", "frozen"
STATES = (OPEN, CLOSED, FROZEN)


@dataclass(slots=True)
class Region:
    state: str  # OPEN, CLOSED or FROZEN
    store: Store


@dataclass
class Frame:
    r: int
    temps: Store = field(default_factory=dict)
    vars: dict[str, Optional[Value]] = field(default_factory=dict)
    entry: Optional[tuple[int, str]] = None  # (object-id, field) entered via
    reinstate: list[tuple[str, Value]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Effects
#
# An effect is a value built once per tandem step.  Each kind is a slotted
# dataclass, which builds in about a quarter of a frozen one's time; equality
# still compares the kind first, and no code writes an effect once built.
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Load:
    x: str
    y: str
    f: str


@dataclass(slots=True)
class Swap:
    x: str
    y: str
    f: str
    use: Use


@dataclass(slots=True)
class Halloc:
    x: str
    cap: Cap  # mut or iso
    cls: str
    uses: tuple[Use, ...]


@dataclass(slots=True)
class Salloc:
    x: str
    cap: Cap  # tmp or var
    cls: str  # class name or "Cell"
    uses: tuple[Use, ...]


@dataclass(slots=True)
class EnterEff:
    w: str
    cap: Cap  # tmp (field form) or var (cell form)
    y: str
    f: str
    captures: tuple[tuple[str, Use], ...]


@dataclass(slots=True)
class BadEnter:
    y: str
    f: str


@dataclass(slots=True)
class ExitEff:
    x: str
    use: Use
    y: str
    f: str
    w: str
    g: str


@dataclass(slots=True)
class FreezeEff:
    x: str
    use: Use


@dataclass(slots=True)
class MergeEff:
    x: str
    use: Use


@dataclass(slots=True)
class CastEff:
    x: str
    use: Use
    ty: object  # model.Type


@dataclass(slots=True)
class NoCastEff:
    x: str
    use: Use
    ty: object


@dataclass(slots=True)
class Bind:
    pairs: tuple[tuple[str, Use], ...]


@dataclass(slots=True)
class Eps:
    pass


Effect = (Load | Swap | Halloc | Salloc | EnterEff | BadEnter | ExitEff
          | FreezeEff | MergeEff | CastEff | NoCastEff | Bind | Eps)


EFFECT_NAMES: dict[type, str] = {
    Load: "load", Swap: "swap", Halloc: "halloc", Salloc: "salloc",
    EnterEff: "enter", BadEnter: "badenter", ExitEff: "exit",
    FreezeEff: "freeze", MergeEff: "merge", CastEff: "cast",
    NoCastEff: "nocast", Bind: "bind", Eps: "eps",
}


def effect_name(eff: Effect) -> str:
    return EFFECT_NAMES[type(eff)]


def effect_args(eff: Effect) -> list[str]:
    if isinstance(eff, Load):
        return [eff.x, f"{eff.y}.{eff.f}"]
    if isinstance(eff, Swap):
        return [eff.x, f"{eff.y}.{eff.f}", str(eff.use)]
    if isinstance(eff, (Halloc, Salloc)):
        return [eff.x, str(eff.cap), f"#{eff.cls}",
                *(str(u) for u in eff.uses)]
    if isinstance(eff, EnterEff):
        return [eff.w, str(eff.cap), f"{eff.y}.{eff.f}",
                *(f"{z}={u}" for z, u in eff.captures)]
    if isinstance(eff, BadEnter):
        return [f"{eff.y}.{eff.f}"]
    if isinstance(eff, ExitEff):
        return [eff.x, str(eff.use), f"{eff.y}.{eff.f}",
                f"{eff.w}.{eff.g}"]
    if isinstance(eff, (FreezeEff, MergeEff)):
        return [eff.x, str(eff.use)]
    if isinstance(eff, (CastEff, NoCastEff)):
        return [eff.x, str(eff.use), str(eff.ty)]
    if isinstance(eff, Bind):
        return [f"{x}={u}" for x, u in eff.pairs]
    return []


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

class Machine:
    def __init__(self, classes: ClassTable,
                 bugs: frozenset[str] = frozenset()) -> None:
        self.classes = classes
        self.bugs = check_bugs(bugs)
        self._next_iota = 0
        self._next_region = 1
        self.frames: list[Frame] = [Frame(r=0)]
        self.regions: dict[int, Region] = {0: Region(OPEN, {})}
        self.region_of: dict[int, int] = {}  # heap object id -> its region
        self._field_names: dict[str, list[str]] = {}  # class -> its fields

    def clone(self, copies: dict[int, object]) -> Machine:
        """A copy sharing nothing that a step changes: every frame, region
        and object is new.  copies gains the id of each frame and object of
        this machine, mapped to its copy."""

        def store(objs: Store) -> Store:
            out = {}
            for iota, o in objs.items():
                out[iota] = copies[id(o)] = Object(o.tag, o.fields.copy())
            return out

        m = object.__new__(Machine)
        m.__dict__.update(self.__dict__)  # classes, bugs and the counters
        m.frames = []
        for f in self.frames:
            copies[id(f)] = g = Frame(f.r, store(f.temps), f.vars.copy(),
                                      f.entry, f.reinstate[:])
            m.frames.append(g)
        m.regions = {r: Region(g.state, store(g.store))
                     for r, g in self.regions.items()}
        m.region_of = self.region_of.copy()
        m._field_names = self._field_names.copy()
        return m

    # -- helpers ---------------------------------------------------------------

    def fresh_iota(self) -> int:
        self._next_iota += 1
        return self._next_iota

    def fresh_region(self) -> int:
        self._next_region += 1
        return self._next_region

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def get(self, vars: dict[str, Optional[Value]], u: Use) -> Value:
        """Destructive/non-destructive variable read per the use form."""
        v = vars.get(u.name, _UNBOUND)
        if v is _UNBOUND:
            raise Stuck(f"get: unbound variable {u.name}")
        if v is V_UNDEF:
            raise Stuck(f"get: read of buried variable {u.name}")
        if u.drop:
            if "skip-bury" not in self.bugs:
                vars[u.name] = V_UNDEF
            return v
        if v[0] in (Cap.VAR, Cap.ISO):
            raise Stuck(f"get: plain read of {v[0]} variable {u.name}")
        return v

    def peek(self, name: str) -> Value:
        v = self.frames[-1].vars.get(name)
        if v is V_UNDEF or v is None:
            raise Stuck(f"peek: variable {name} is not bound")
        return v

    def stack_load(self, iota: int) -> Optional[Object]:
        for frame in reversed(self.frames):
            if iota in frame.temps:
                return frame.temps[iota]
        return None

    def heap_load(self, iota: int,
                  states: tuple[str, ...]) -> Optional[Object]:
        """The object iota in a region whose state is one of states."""
        region = self.regions.get(self.region_of.get(iota))
        if region is not None and region.state in states:
            return region.store[iota]
        return None

    def cfg_load(self, iota: int,
                 states: tuple[str, ...]) -> Optional[Object]:
        obj = self.stack_load(iota)
        if obj is not None:
            return obj
        return self.heap_load(iota, states)

    def closed_region_of(self, iota: int) -> Optional[int]:
        r = self.region_of.get(iota)
        if r is not None and self.regions[r].state == CLOSED:
            return r
        return None

    def _fields_for(self, cls: str, vals: list[Value]) -> dict[str, Value]:
        names = self._field_names.get(cls)
        if names is None:
            names = self._field_names[cls] = [
                f for f, _ in self.classes.ftypes(ClassName(cls))]
        if len(names) != len(vals):
            raise Stuck(f"halloc: arity mismatch for {cls}")
        return dict(zip(names, vals))

    # -- dynamic checks used by the driver --------------------------------------

    def bridge_holder(self, op: str, y: str, f: str) -> tuple[int, Object]:
        """The object-id bound to y and its object, which has a field f:
        the holder of the bridge y.f that op (enter or exit) crosses."""
        _, iota_y = self.peek(y)
        obj = self.cfg_load(iota_y, (OPEN,))
        if obj is None or f not in obj.fields:
            raise Stuck(f"{op}: cannot resolve {y}.{f}")
        return iota_y, obj

    def bridge_target(self, y: str, f: str) -> int:
        """The object-id stored at y.f (entry lval of an enter)."""
        _, obj = self.bridge_holder("enter", y, f)
        v = obj.fields[f]
        if v is V_UNDEF:
            raise Stuck(f"enter: {y}.{f} is undefined")
        return v[1]

    def enter_enabled(self, y: str, f: str) -> bool:
        """True iff the region holding the bridge y.f is currently closed."""
        iota = self.bridge_target(y, f)
        return self.closed_region_of(iota) is not None

    def cast_matches(self, name: str, ty) -> bool:
        """True iff some leaf of ty has the capability of the value bound to
        name and a head its object's dynamic tag matches."""
        v = self.frames[-1].vars.get(name)
        if v is V_UNDEF or v is None:
            raise Stuck(f"cast: variable {name} is not bound")
        obj = self.cfg_load(v[1], STATES)
        if obj is None:
            raise Stuck(f"cast: dangling object id {v[1]}")
        return any(leaf.cap is v[0] and tag_matches(obj.tag, leaf.head)
                   for leaf in leaves(ty))

    # -- stepping -----------------------------------------------------------------

    def step_effect(self, eff: Effect) -> None:
        _HANDLERS[type(eff)](self, eff)

    def _step_eps(self, eff: Eps) -> None:
        pass

    def _step_bind(self, eff: Bind) -> None:
        top = self.frames[-1]
        for x, u in eff.pairs:
            top.vars[x] = self.get(top.vars, u)

    def _step_load(self, eff: Load) -> None:
        top = self.frames[-1]
        k_y, iota_y = self.peek(eff.y)
        obj = self.cfg_load(iota_y, (OPEN, FROZEN))
        if obj is None:
            raise Stuck(f"load: dangling object id {iota_y}")
        if eff.f not in obj.fields:
            raise Stuck(f"load: no field {eff.f} on {obj.tag}")
        k_f, iota_f = obj.fields[eff.f]
        k = vpa(k_y, k_f)
        if k is None:
            raise Stuck(f"load: {k_y} cannot see {k_f}")
        top.vars[eff.x] = (k, iota_f)

    def _step_swap(self, eff: Swap) -> None:
        top = self.frames[-1]
        v_new = self.get(top.vars, eff.use)
        _, iota_y = self.peek(eff.y)
        obj = top.temps.get(iota_y)
        if obj is None:
            obj = self.heap_load(iota_y, (OPEN,))
        if obj is None:
            raise Stuck(f"swap: {eff.y} does not refer to a writable object")
        if eff.f not in obj.fields:
            raise Stuck(f"swap: no field {eff.f} on {obj.tag}")
        old = obj.fields[eff.f]
        obj.fields[eff.f] = v_new
        top.vars[eff.x] = old

    def _step_halloc(self, eff: Halloc) -> None:
        top = self.frames[-1]
        vals = [self.get(top.vars, u) for u in eff.uses]
        iota = self.fresh_iota()
        obj = Object(eff.cls, self._fields_for(eff.cls, vals))
        if eff.cap is Cap.MUT:
            r = top.r
            self.regions[r].store[iota] = obj
        elif eff.cap is Cap.ISO:
            r = self.fresh_region()
            self.regions[r] = Region(CLOSED, {iota: obj})
        else:
            raise Stuck(f"halloc: bad capability {eff.cap}")
        self.region_of[iota] = r
        top.vars[eff.x] = (eff.cap, iota)

    def _step_salloc(self, eff: Salloc) -> None:
        top = self.frames[-1]
        vals = [self.get(top.vars, u) for u in eff.uses]
        iota = self.fresh_iota()
        if eff.cls == "Cell":
            if len(vals) != 1:
                raise Stuck("salloc: Cell takes exactly one value")
            obj = Object("Cell", {"val": vals[0]})
        else:
            obj = Object(eff.cls, self._fields_for(eff.cls, vals))
        if eff.cap not in (Cap.TMP, Cap.VAR):
            raise Stuck(f"salloc: bad capability {eff.cap}")
        top.temps[iota] = obj
        top.vars[eff.x] = (eff.cap, iota)

    def _step_enter(self, eff: EnterEff) -> None:
        top = self.frames[-1]
        new_vars: dict[str, Optional[Value]] = {}
        reinstate: list[tuple[str, Value]] = []
        for z, u in eff.captures:
            v = self.get(top.vars, u)
            k, iota = v
            if k is Cap.ISO:
                k2 = k
                if u.drop:
                    reinstate.append((u.name, v))
            elif "vpa-paused-identity" in self.bugs:
                k2 = k
            else:
                k2 = vpa(Cap.PAUSED, k)
                if k2 is None:
                    raise Stuck(f"enter: capture {z} has capability {k}")
            new_vars[z] = (k2, iota)
        iota_y, obj_y = self.bridge_holder("enter", eff.y, eff.f)
        _, bridge = obj_y.fields[eff.f]
        r = self.closed_region_of(bridge)
        if r is None:
            raise Stuck("enter: target region is not closed "
                        "(badenter should have been selected)")
        self.regions[r].state = OPEN
        iota_cell = self.fresh_iota()
        cell = Object("Cell", {"val": (Cap.MUT, bridge)})
        new_vars[eff.w] = (eff.cap, iota_cell)
        self.frames.append(Frame(r=r, temps={iota_cell: cell},
                                 vars=new_vars, entry=(iota_y, eff.f),
                                 reinstate=reinstate))

    def _step_badenter(self, eff: BadEnter) -> None:
        if self.enter_enabled(eff.y, eff.f):
            raise Stuck("badenter: target region is closed "
                        "(enter should have been selected)")

    def _step_exit(self, eff: ExitEff) -> None:
        if len(self.frames) < 2:
            raise Stuck("exit: no region to exit")
        popped = self.frames.pop()
        ret = self.get(popped.vars, eff.use)
        w_v = popped.vars.get(eff.w)
        if w_v is V_UNDEF or w_v is None:
            raise Stuck(f"exit: bridge cell {eff.w} is not bound")
        cell = popped.temps.get(w_v[1])
        if cell is None or eff.g not in cell.fields:
            raise Stuck(f"exit: {eff.w}.{eff.g} does not name the cell")
        _, new_bridge = cell.fields[eff.g]
        top = self.frames[-1]
        _, obj_y = self.bridge_holder("exit", eff.y, eff.f)
        k_f, _ = obj_y.fields[eff.f]
        if "exit-mut-writeback" in self.bugs:
            k_f = Cap.MUT
        obj_y.fields[eff.f] = (k_f, new_bridge)
        self.regions[popped.r].state = CLOSED
        if "exit-keep-temps" in self.bugs:
            top.temps.update(popped.temps)
        if "reinstate-iso" in self.bugs:
            for name, val in popped.reinstate:
                top.vars[name] = val
        top.vars[eff.x] = ret

    def reachable_regions(self, r: int) -> set[int]:
        """Closed regions transitively reachable from region r's objects."""
        seen: set[int] = set()
        work = [r]
        while work:
            cur = work.pop()
            region = self.regions.get(cur)
            if region is None or region.state != CLOSED:
                continue
            for obj in region.store.values():
                for v in obj.fields.values():
                    if v is V_UNDEF:
                        continue
                    r2 = self.closed_region_of(v[1])
                    if r2 is not None and r2 != cur and r2 not in seen:
                        seen.add(r2)
                        work.append(r2)
        return seen - {r}

    def _step_freeze(self, eff: FreezeEff) -> None:
        top = self.frames[-1]
        k, iota = self.get(top.vars, eff.use)
        if k is not Cap.ISO:
            raise Stuck(f"freeze: expected an iso value, got {k}")
        r = self.closed_region_of(iota)
        if r is None:
            raise Stuck("freeze: target region is not closed")
        regions = {r}
        if "shallow-freeze" not in self.bugs:
            regions |= self.reachable_regions(r)
        for rid in regions:
            self.regions[rid].state = FROZEN
        top.vars[eff.x] = (Cap.IMM, iota)

    def _step_merge(self, eff: MergeEff) -> None:
        top = self.frames[-1]
        k, iota = self.get(top.vars, eff.use)
        if k is not Cap.ISO:
            raise Stuck(f"merge: expected an iso value, got {k}")
        r = self.closed_region_of(iota)
        if r is None:
            raise Stuck("merge: target region is not closed")
        store = self.regions.pop(r).store
        self.regions[top.r].store.update(store)
        self.region_of.update(dict.fromkeys(store, top.r))
        top.vars[eff.x] = (Cap.MUT, iota)

    def _step_cast(self, eff: CastEff | NoCastEff) -> None:
        """Either outcome of a type test rebinds the value unchanged."""
        top = self.frames[-1]
        top.vars[eff.x] = self.get(top.vars, eff.use)

    # -- reporting ---------------------------------------------------------------

    def region_stack_ids(self) -> list[int]:
        return [f.r for f in self.frames]

    def all_objects(self) -> Iterator[tuple[str, int, int, Object]]:
        """(kind, region, object-id, object) over the whole configuration."""
        for frame in self.frames:
            for iota, obj in frame.temps.items():
                yield "temp", frame.r, iota, obj
        for r, region in self.regions.items():
            for iota, obj in region.store.items():
                yield region.state, r, iota, obj


# Effect type -> the Machine method that steps it.
_HANDLERS = {kind: getattr(Machine, "_step_" + name)
             for kind, name in EFFECT_NAMES.items() if kind is not NoCastEff}
_HANDLERS[NoCastEff] = Machine._step_cast
