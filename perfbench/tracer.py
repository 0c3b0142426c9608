"""Layer tracing for the traced run, installed from outside the program.

The tracer replaces reggio's functions at each layer boundary with
wrappers that record a span per call.  Spans are aggregated as they close:
a span's self time is its duration minus the time its child spans cover,
and the time a wrapper spends on its own bookkeeping is charged to no
layer.  Only non-recursive boundaries are wrapped, so the traced run
needs at most a few more stack frames than the untraced one; wrapping a
recursive walker such as ``subst`` would multiply the stack depth.

Each function is patched in the module where its caller looks it up.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

# The effect kinds of reggio.machine.effect_name, counted one by one.
EFFECT_KINDS = ("load", "swap", "halloc", "salloc", "enter", "badenter",
                "exit", "freeze", "merge", "cast", "nocast", "bind", "eps")


def count_lets(e) -> int:
    """The lets in an expression, walked without recursion."""
    lets = 0
    work = [e]
    while work:
        x = work.pop()
        kind = type(x).__name__
        if kind == "Let":
            lets += 1
            work += (x.binding, x.body)
        elif kind == "Enter":
            work.append(x.body)
        elif kind == "TypeTest":
            work += (x.then, x.els)
    return lets


class Tracer:
    """Self time and call count per span name, plus named counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.regions_max = 0
        # One [name, seconds covered by children] entry per open span.
        self._open: list[list] = []

    def inside(self, name: str) -> bool:
        return any(entry[0] == name for entry in self._open)

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span called name around each call.

        after(args, result, exc) runs once the span has closed; its time is
        charged to no layer."""
        open_spans, self_s, calls = self._open, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entry = [name, 0.0]
            open_spans.append(entry)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self_s[name] += clock() - t0 - entry[1]
                calls[name] += 1
                open_spans.pop()
                if after is not None:
                    after(args, result, exc)
                if open_spans:
                    open_spans[-1][1] += clock() - t0

        return traced


class Patches:
    """Module and class attributes replaced for one traced pass."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer, mods) -> Patches:
    """Wrap the layer boundaries of the reggio modules in mods."""
    p = Patches()
    counts = tracer.counts
    wrap = tracer.wrap

    # syntax: the benchmark parses; the campaign pretty-prints witnesses.
    p.set(mods.syntax, "parse_program",
          wrap("syntax.parse", mods.syntax.parse_program))
    p.set(mods.fuzz, "pretty_program",
          wrap("syntax.pretty", mods.fuzz.pretty_program))

    # typecheck: called by the benchmark and by generate, shrink and the
    # shrinker's predicate in fuzz.
    def after_check(args, result, exc):
        if isinstance(exc, mods.typecheck.TypeCheckError):
            counts["typecheck.rejects"] += 1

    check = wrap("typecheck.check", mods.typecheck.check_program, after_check)
    p.set(mods.typecheck, "check_program", check)
    p.set(mods.fuzz, "check_program", check)

    # fuzz
    p.set(mods.fuzz, "generate", wrap("fuzz.generate", mods.fuzz.generate))

    def after_shrink(args, result, exc):
        counts["fuzz.witness_lets_before"] += count_lets(args[0].main)

    p.set(mods.fuzz, "shrink",
          wrap("fuzz.shrink", mods.fuzz.shrink, after_shrink))
    tripped = (mods.command.Verdict.STUCK, mods.command.Verdict.VIOLATION)

    def after_soundness(args, result, exc):
        if tracer.inside("fuzz.shrink"):
            counts["fuzz.shrink_runs"] += 1
            if result is not None and result[0] in tripped:
                counts["fuzz.shrink_tripped"] += 1

    p.set(mods.fuzz, "soundness_run",
          wrap("fuzz.soundness_run", mods.fuzz.soundness_run,
               after_soundness))

    # command: TandemRunner.run is the stepping loop; replace() rebuilds
    # one AST node and is counted, not timed.
    def after_run(args, result, exc):
        if result is not None:
            counts["command.steps"] += result.steps
        regions = {r for _, r, _, _ in args[0].machine.all_objects()}
        tracer.regions_max = max(tracer.regions_max, len(regions))

    p.set(mods.command.TandemRunner, "run",
          wrap("command.run", mods.command.TandemRunner.run, after_run))
    replace = mods.command.replace

    def counted_replace(obj, **changes):
        counts["command.nodes_rebuilt"] += 1
        return replace(obj, **changes)

    p.set(mods.command, "replace", counted_replace)

    # machine
    effect_name = mods.machine.effect_name

    def after_step(args, result, exc):
        counts["machine.effects." + effect_name(args[1])] += 1

    p.set(mods.machine.Machine, "step_effect",
          wrap("machine.step_effect", mods.machine.Machine.step_effect,
               after_step))

    # invariants: TandemRunner.run imports both checks from the module on
    # each call, and check_config_wf looks up its helpers there too.
    inv = mods.invariants

    def after_effect_wf(args, result, exc):
        if exc is None and result is None:
            counts["invariants.violations"] += 1

    def after_config_wf(args, result, exc):
        counts["invariants.checks"] += 1
        if result is not None and not result["verdict"]:
            counts["invariants.violations"] += 1

    def after_graph(args, result, exc):
        if result is not None:
            counts["invariants.refs"] += len(result.refs)

    p.set(inv, "check_effect_wf",
          wrap("invariants.effect_wf", inv.check_effect_wf, after_effect_wf))
    p.set(inv, "check_config_wf",
          wrap("invariants.config_wf", inv.check_config_wf, after_config_wf))
    p.set(inv, "build_graph",
          wrap("invariants.build_graph", inv.build_graph, after_graph))
    p.set(inv, "capability_ok",
          wrap("invariants.capability_ok", inv.capability_ok))
    p.set(inv, "topology_ok", wrap("invariants.topology_ok", inv.topology_ok))
    return p


# Units of the per-layer counts that are not plain counts.
COUNT_UNITS = {"invariants.refs_per_check": "refs/check",
               "command.nodes_per_step": "nodes/step",
               "typecheck.reject_ratio": "ratio",
               "fuzz.shrink_accept_ratio": "ratio"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_times(t: Tracer) -> dict[str, float]:
    """Per-layer self seconds of one traced pass."""
    s = t.self_s
    return {
        "invariants.effect_wf_s": s["invariants.effect_wf"],
        "invariants.config_wf_self_s": s["invariants.config_wf"],
        "invariants.build_graph_s": s["invariants.build_graph"],
        "invariants.capability_ok_s": s["invariants.capability_ok"],
        "invariants.topology_ok_s": s["invariants.topology_ok"],
        "command.step_s": s["command.run"],
        "machine.step_effect_s": s["machine.step_effect"],
        "typecheck.check_s": s["typecheck.check"],
        "syntax.parse_s": s["syntax.parse"],
        "syntax.pretty_s": s["syntax.pretty"],
        "fuzz.generate_s": s["fuzz.generate"],
        "fuzz.shrink_s": s["fuzz.shrink"],
    }


def layer_counts(t: Tracer) -> dict[str, float]:
    """Per-layer counts of one traced pass; they repeat exactly per seed."""
    c, calls = t.counts, t.calls
    out = {
        "invariants.checks": c["invariants.checks"],
        "invariants.refs_per_check": _ratio(c["invariants.refs"],
                                            calls["invariants.build_graph"]),
        "invariants.violations": c["invariants.violations"],
        "command.steps": c["command.steps"],
        "command.nodes_rebuilt": c["command.nodes_rebuilt"],
        "command.nodes_per_step": _ratio(c["command.nodes_rebuilt"],
                                         c["command.steps"]),
        "machine.regions_max": t.regions_max,
        "typecheck.check_calls": calls["typecheck.check"],
        "typecheck.reject_ratio": _ratio(c["typecheck.rejects"],
                                         calls["typecheck.check"]),
        "syntax.parse_calls": calls["syntax.parse"],
        "fuzz.generate_calls": calls["fuzz.generate"],
        "fuzz.shrink_runs": c["fuzz.shrink_runs"],
        # shrink first re-runs its input; every later run is a candidate,
        # kept when it still trips the bug.
        "fuzz.shrink_accept_ratio": _ratio(
            c["fuzz.shrink_tripped"] - calls["fuzz.shrink"],
            c["fuzz.shrink_runs"] - calls["fuzz.shrink"]),
        "fuzz.witness_lets_before": c["fuzz.witness_lets_before"],
    }
    for kind in EFFECT_KINDS:
        out["machine.effects." + kind] = c["machine.effects." + kind]
    return out
