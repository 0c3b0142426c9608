"""The three workloads: their inputs, timed rounds and correctness checks.

Every workload calls reggio only through the module objects in ``mods``,
so the tracer can patch them.  The expected results come from the
semantics, never from reggio's own output:

* a well-typed program never ends stuck or in violation, and checking
  invariants does not change its verdict or its step count;
* a straight-line chain of n simple lets takes exactly one tandem step per
  let and ends Done;
* a planted machine bug is caught, and its shrunk witness still trips it,
  while the clean machine runs the witness without a violation;
* reggio is deterministic, so every round repeats the first one's results.

A run repeats rounds over a fixed set of inputs until its time is up, and
times each small unit of work (a program's generation or run, a step of a
chain run, a run inside a hunt) in every round.  A workload's figures come
from the fastest time of each unit over the rounds.  Other tenants of a
shared host only ever add time to a unit, in bursts and in spells that
last seconds to minutes, so the fastest of several rounds estimates the
unit's own cost where a mean or median would follow the host.  The cyclic
garbage collector runs before each program, chain and hunt, so the
collections inside fall at the same points in every round.

Spells can outlast a whole run: in one, the fastest of twelve rounds of
the same six hunts came out 35% slower than in the runs around it.  So a
fixed pure-Python reference loop is timed between units too, about ten
times a second, and each time a unit takes is scaled by REFERENCE_S over
the reference's fastest time within a second of that unit, before the
fastest over the rounds is taken.  A unit is so compared with the host's
speed at the moment it ran, not with the best moment of the run, which
a unit timed in a few rounds may never have met.  In a six-minute trace
cut into 15-s windows, the fastest times of two reggio units spread by
0.23 and 0.24 of their medians (interquartile range), and their ratios to
the reference's by 0.08 and 0.13.  The reference calls no reggio code, so
a change to reggio moves the scaled times as it moves the real ones.
"""
from __future__ import annotations

import bisect
import dataclasses
import gc
import math
import random
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

from tracer import count_lets

clock = time.perf_counter

DEPTH = 8                 # GenConfig.max_depth of every generated program
CAMPAIGN_BUDGET = 10_000  # the step budget fuzz.campaign runs with
HUNT_PROGRAMS = 1000      # a bug must be caught within this many programs


class Checks:
    """Operations attempted and failed; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures that are wrong results, not known defects
        self.messages: list[str] = []

    def record(self, ok: bool, what: str, known_defect: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not known_defect:
            self.wrong += 1
        if len(self.messages) < 10:
            self.messages.append(what)

    def tally(self) -> tuple[int, int, int]:
        return self.attempted, self.failed, self.wrong


class Metric(NamedTuple):
    value: float
    unit: str
    samples: str  # how many samples the value summarises


# The reference loop's fastest time on the machine the benchmark was
# written on (2 vCPUs, Python 3.11.7): a scaled time reads as seconds on
# a host of that speed.
REFERENCE_S = 0.0073
REFERENCE_EVERY_S = 0.1  # the least time between two reference samples
REFERENCE_NEAR_S = 1.0   # how far from a unit its reference samples lie


class _Node:
    __slots__ = ("left", "right", "name")

    def __init__(self, left, right, name) -> None:
        self.left = left
        self.right = right
        self.name = name


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(None, None, f"x{i}")
    return _Node(_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1), None)


def _walk(node: _Node, env: dict) -> int:
    if node.name is not None:
        return env.get(node.name, 0) + len(node.name)
    return _walk(node.left, env) + _walk(node.right, env)


def reference_loop() -> int:
    """Fixed work of the kind reggio does: build trees of small objects,
    walk them recursively and look names up in a dict."""
    env = {f"x{i}": i for i in range(0, 4096, 3)}
    return sum(_walk(_tree(11, 1), env) for _ in range(4))


class Reference:
    """Times of the reference loop, sampled between units of work at most
    every REFERENCE_EVERY_S."""

    def __init__(self) -> None:
        self.ends: list[float] = []     # when each sample ended
        self.seconds: list[float] = []  # and how long it took
        self.spent = 0.0  # seconds spent sampling, collection included
        self.last = -math.inf

    def sample(self) -> None:
        start = clock()
        if start - self.last < REFERENCE_EVERY_S:
            return
        gc.collect()
        t0 = clock()
        reference_loop()
        self.last = clock()
        self.ends.append(self.last)
        self.seconds.append(self.last - t0)
        self.spent += self.last - start

    @property
    def best(self) -> float:
        return min(self.seconds)

    def scale_near(self, start: float, end: float) -> float:
        """REFERENCE_S over the fastest sample within REFERENCE_NEAR_S of
        [start, end]; without one, over the faster of the nearest sample
        before and the nearest after."""
        lo = bisect.bisect_left(self.ends, start - REFERENCE_NEAR_S)
        hi = bisect.bisect_right(self.ends, end + REFERENCE_NEAR_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        return REFERENCE_S / min(self.seconds[lo:hi])


class Rounds:
    """The first outcome and the times of each unit of work; settle()
    makes ``best``, the fastest time of each unit."""

    def __init__(self, reference: Reference | None = None) -> None:
        self.first: dict = {}
        self.changed: set = set()
        self.times: dict = {}
        self.best: dict = {}
        self.reference = reference

    def sample_reference(self) -> float:
        """Time the reference, if one is kept and a sample is due; the
        seconds this took."""
        if self.reference is None:
            return 0.0
        spent = self.reference.spent
        self.reference.sample()
        return self.reference.spent - spent

    def outcome(self, key, out) -> None:
        if key not in self.first:
            self.first[key] = out
        elif out != self.first[key]:
            self.changed.add(key)

    def time(self, key, seconds: float, end: float | None = None,
             start: float | None = None) -> None:
        """Record that a unit took seconds, ending at end (by default
        now) and starting at start (by default seconds before end)."""
        end = clock() if end is None else end
        start = end - seconds if start is None else start
        self.times.setdefault(key, []).append((start, end, seconds))

    def settle(self) -> tuple[float, float]:
        """The fastest time of each unit, each sample scaled by the
        reference near it if one is kept; the least and the greatest
        scale applied."""
        scales = [1.0]
        for key, samples in self.times.items():
            if self.reference is None:
                self.best[key] = min(t for _, _, t in samples)
                continue
            scaled = []
            for start, end, seconds in samples:
                scales.append(self.reference.scale_near(start, end))
                scaled.append(seconds * scales[-1])
            self.best[key] = min(scaled)
        if self.reference is not None:
            scales.pop(0)
        return min(scales), max(scales)


def percentile(xs: list[float], p: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def trimmed_mean(xs: list[float], share: float) -> float:
    """The mean of xs without its lowest and highest share."""
    xs = sorted(xs)
    k = int(len(xs) * share)
    return statistics.fmean(xs[k:len(xs) - k])


def rotated(xs: list, seed: int) -> list:
    k = seed % len(xs)
    return xs[k:] + xs[:k]


@contextmanager
def timed_runs(command, out: list, between):
    """Append (seconds, steps, end) of every TandemRunner.run in the
    block, and call between() after each run.

    fuzz.campaign has no per-program hook, so the untraced bug-hunt times
    its runs here: two clock reads per program, and one stack frame."""
    run = command.TandemRunner.run

    def timed(self):
        t0 = clock()
        result = run(self)
        t1 = clock()
        out.append((t1 - t0, result.steps, t1))
        between()
        return result

    command.TandemRunner.run = timed
    try:
        yield
    finally:
        command.TandemRunner.run = run


class Workload:
    """Rounds over a fixed list of inputs.

    A subclass sets ``name`` and ``inputs`` and defines ``run`` (one input,
    timed into a Rounds; returns its outcome), ``check`` (records the
    semantic checks of a first outcome) and ``metrics``."""

    name = ""
    inputs: list = []
    traced_inputs: list = []

    def repeat(self, key, outcome) -> bool:
        """Whether an input with this first outcome runs in later rounds."""
        return True

    def measure(self, seconds: float, checks: Checks):
        """One whole round, then more until the time is up; the last may
        stop part way, after the unit that crosses the deadline.  Times
        come out scaled by the reference.

        Each input is one operation per check, whatever the number of
        rounds, plus one that its outcome repeated in every round."""
        deadline = clock() + seconds
        reference = Reference()
        rounds = Rounds(reference)
        n = 0
        while n == 0 or clock() < deadline:
            for key in self.inputs:
                if n and clock() >= deadline:
                    break
                if n == 0 or self.repeat(key, rounds.first[key]):
                    rounds.sample_reference()
                    rounds.outcome(key, self.run(key, rounds))
            n += 1
        reference.sample()
        for key in self.inputs:
            self.check(key, rounds.first[key], checks)
            checks.record(key not in rounds.changed,
                          f"{self.name} {key}: a later round's outcome "
                          "differs from the first")
        low, high = rounds.settle()
        metrics, extra, lines = self.metrics(rounds, n, checks)
        lines.append(f"reference loop: {len(reference.seconds)} samples, "
                     f"fastest {1000 * reference.best:.3f} ms; unit times "
                     f"scaled by {low:.4f} to {high:.4f}")
        return metrics, extra, lines

    def fixed_pass(self, checks: Checks) -> None:
        """One untimed pass over traced_inputs, for the traced run."""
        rounds = Rounds()
        for key in self.traced_inputs:
            out = self.run(key, rounds)
            rounds.outcome(key, out)
            self.check(key, out, checks)


def _clean(mods) -> set:
    v = mods.command.Verdict
    return {v.DONE, v.FAILED, v.BUDGET}


# ---------------------------------------------------------------------------
# campaign: the `reggio fuzz` loop
# ---------------------------------------------------------------------------

class Campaign(Workload):
    """Generate and type check, run with each-step checking as
    fuzz.campaign does, then run the same program with off.

    The programs come from generator seeds 0..99 whatever the benchmark
    seed S, which only rotates the order a round visits them in.  Windows
    [S, S+N) of distinct programs are not steady enough to gate: over ten
    disjoint windows of 100 programs the per-program p50 time spread by
    0.24 of its median (0.25 over five windows of 200), and a run has no
    time for enough programs to narrow that.  A program that runs out of
    budget is timed in the first round only: it takes about two seconds
    under each-step checking."""

    name = "campaign"
    PROGRAMS = 100

    def __init__(self, mods, seed: int) -> None:
        self.mods = mods
        self.cfg = mods.fuzz.GenConfig(seed=0, max_depth=DEPTH)
        self.inputs = self.traced_inputs = rotated(
            list(range(self.PROGRAMS)), seed)
        self.clean = _clean(mods)
        self.budget = mods.command.Verdict.BUDGET

    def run(self, seed: int, rounds: Rounds) -> tuple:
        runner = self.mods.command.TandemRunner
        gc.collect()
        t0 = clock()
        prog = self.mods.fuzz.generate(dataclasses.replace(self.cfg,
                                                           seed=seed))
        t1 = clock()
        each = runner(prog, check="each-step", budget=CAMPAIGN_BUDGET).run()
        t2 = clock()
        off = runner(prog, check="off", budget=CAMPAIGN_BUDGET).run()
        t3 = clock()
        rounds.time((seed, "gen"), t1 - t0, t1)
        rounds.time((seed, "each"), t2 - t1, t2)
        rounds.time((seed, "off"), t3 - t2, t3)
        return each.verdict, each.steps, off.verdict, off.steps, each.detail

    def repeat(self, seed: int, outcome) -> bool:
        return outcome[0] is not self.budget

    def check(self, seed: int, out: tuple, checks: Checks) -> None:
        each, steps, off, off_steps, detail = out
        checks.record(each in self.clean,
                      f"campaign seed {seed}: each-step ended "
                      f"{each.value}: {detail}")
        checks.record((off, off_steps) == (each, steps),
                      f"campaign seed {seed}: off ended {off.value} after "
                      f"{off_steps} steps, each-step {each.value} after "
                      f"{steps}")

    def metrics(self, rounds: Rounds, n: int, checks: Checks):
        b, first = rounds.best, rounds.first
        seeds = self.inputs
        verdict_s = [b[s, "gen"] + b[s, "each"] for s in seeds]
        stepped = [s for s in seeds if first[s][1]]
        per = (f"{len(seeds)} programs, fastest of {n} rounds "
               "(budget-outs: of 1)")
        metrics = {
            "programs_per_s": Metric(1 / trimmed_mean(verdict_s, 0.05),
                                     "1/s", per),
            "verdict_ms_p50": Metric(1000 * percentile(verdict_s, 50), "ms",
                                     per),
            "verdict_ms_p90": Metric(1000 * percentile(verdict_s, 90), "ms",
                                     per),
            "steps_per_s_off": Metric(statistics.median(
                first[s][1] / b[s, "off"] for s in stepped), "1/s", per),
            "steps_per_s_each": Metric(statistics.median(
                first[s][1] / b[s, "each"] for s in stepped), "1/s", per),
        }
        lines = [f"generator seeds 0..{self.PROGRAMS - 1}, depth {DEPTH}, "
                 f"budget {CAMPAIGN_BUDGET}, {n} rounds"]
        for kind in ("done", "failed", "budget"):
            part = [s for s in seeds if first[s][0].value == kind]
            steps = sum(first[s][1] for s in part)
            each = sum(b[s, "each"] for s in part)
            off = sum(b[s, "off"] for s in part)
            lines.append(
                f"verdict {kind}: {len(part)} programs, {steps} steps, "
                f"each-step {each:.3f} s ({steps / each if each else 0:.1f} "
                f"steps/s), off {off:.3f} s "
                f"({steps / off if off else 0:.1f} steps/s)")
        return metrics, {}, lines


# ---------------------------------------------------------------------------
# long-chain: straight-line let chains
# ---------------------------------------------------------------------------

CHAIN_HEADER = "class A { }\nclass B { f: imm A }\n"

# Statement templates and their weights in the seeded mix.
TEMPLATES = (("new_mut", 2.0), ("new_tmp", 1.0), ("new_iso", 2.0),
             ("new_b", 1.0), ("freeze", 1.5), ("merge", 1.0), ("var", 1.5),
             ("deref", 1.5), ("swap", 1.5))


def build_chain(n: int, seed: int) -> str:
    """A well-typed program of n lets, each binding a simple expression.

    Each let is one tandem step, so the chain ends Done after n steps.
    The templates come in fixed shares and the seed shuffles their order,
    so that chains from different seeds do the same mix of work; a
    template that cannot apply yet waits until it can."""
    rng = random.Random(f"{seed}/{n}")
    pools: dict[str, list[str]] = {"mutA": [], "immA": [], "isoA": [],
                                   "mutB": [], "var": []}
    lines: list[str] = []

    def emit(binding: str, pool) -> None:
        x = f"x{len(lines) + 1}"
        lines.append(f"let {x} = {binding} in")
        if pool is not None:
            pools[pool].append(x)

    def apply(t: str) -> bool:
        if t == "new_mut":
            emit("new mut A()", "mutA")
        elif t == "new_tmp":
            emit("new tmp A()", None)
        elif t == "new_iso":
            emit("new iso A()", "isoA")
        elif t == "new_b" and pools["immA"]:
            emit(f"new mut B({rng.choice(pools['immA'])})", "mutB")
        elif t in ("freeze", "merge") and pools["isoA"]:
            x = pools["isoA"].pop(rng.randrange(len(pools["isoA"])))
            emit(f"{t} drop {x}", "immA" if t == "freeze" else "mutA")
        elif t == "var":
            src = pools[rng.choice(["mutA", "immA"])] or pools["mutA"]
            emit(f"var {rng.choice(src)}", "var")
        elif t == "deref" and pools["mutB"] and rng.random() < 0.5:
            emit(f"*{rng.choice(pools['mutB'])}.f", "immA")
        elif t == "deref" and pools["var"]:
            emit(f"*{rng.choice(pools['var'])}", None)
        elif t == "swap" and pools["mutB"] and pools["immA"]:
            emit(f"{rng.choice(pools['mutB'])}.f := "
                 f"{rng.choice(pools['immA'])}", "immA")
        else:
            return False
        return True

    apply("new_mut")
    total = sum(w for _, w in TEMPLATES)
    deck = [t for t, w in TEMPLATES for _ in range(round((n - 1) * w / total))]
    rng.shuffle(deck)
    waiting: list[str] = []
    for t in deck:
        if len(lines) >= n:
            break
        if not apply(t):
            waiting.append(t)
            continue
        still = []
        for w in waiting:
            if len(lines) >= n or not apply(w):
                still.append(w)
        waiting = still
    while len(lines) < n:
        apply("new_mut")
    return CHAIN_HEADER + "\n".join(lines) + f"\n{pools['mutA'][0]}\n"


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


class LongChain(Workload):
    """Chains of 200, 400 and 800 lets, built from S: parse, type check,
    run with off and with each-step.  Chains of 1200 and 5000 lets are
    only parsed and type checked, once per run and untimed, as probes of
    the recursion limit.

    The 800-let chain runs in the first round only.  Its two runs take
    about 8 s, so a run could repeat it three times at most, too few for a
    steady fastest time; it is checked, and gives the third point of the
    length exponents, which are not gated.  The gated figures come from
    the 200- and 400-let chains, which repeat in every round."""

    name = "long-chain"
    SIZES = (200, 400, 800)
    TIMED = (200, 400)
    PROBES = (1200, 5000)

    def __init__(self, mods, seed: int) -> None:
        self.mods = mods
        self.sources = {n: build_chain(n, seed)
                        for n in self.SIZES + self.PROBES}
        self.inputs = self.traced_inputs = list(self.SIZES)
        self.done = mods.command.Verdict.DONE

    def run(self, n: int, rounds: Rounds) -> tuple:
        m = self.mods
        gc.collect()
        t0 = clock()
        prog = m.syntax.parse_program(self.sources[n])
        m.typecheck.check_program(prog)
        t1 = clock()
        rounds.time((n, "front"), t1 - t0, t1)
        return (self.stepped(prog, "off", n, rounds),
                self.stepped(prog, "each-step", n, rounds))

    def stepped(self, prog, mode: str, n: int, rounds: Rounds) -> tuple:
        """One run, timed step by step through the runner's observer.

        A run of the 800-let chain takes seconds, longer than the host's
        fast spells, while its steps take milliseconds; the fastest time
        of each step over the rounds is far steadier than the fastest
        whole run.  The observer costs a few clock reads per step, and
        takes the reference samples that fall due during the run outside
        the steps' times."""
        times: list[tuple[float, float]] = []  # (seconds, end) per step
        start = [0.0]

        def mark(step, effect, verdict_ok) -> None:
            end = clock()
            times.append((end - start[0], end))
            rounds.sample_reference()
            start[0] = clock()

        runner = self.mods.command.TandemRunner(prog, check=mode,
                                                observer=mark)
        start[0] = clock()
        result = runner.run()
        end = clock()
        times.append((end - start[0], end))
        for k, (seconds, end) in enumerate(times, 1):
            rounds.time((n, mode, k), seconds, end)
        rounds.time((n, mode), sum(t for t, _ in times), end)
        return result.verdict, result.steps, result.detail[:80]

    def run_s(self, rounds: Rounds, n: int, mode: str) -> float:
        """A run's time: the sum of its steps' fastest times."""
        return sum(rounds.best[n, mode, k] for k in range(1, n + 2))

    def repeat(self, n: int, outcome) -> bool:
        return n in self.TIMED

    def check(self, n: int, out: tuple, checks: Checks) -> None:
        for mode, (verdict, steps, detail) in zip(("off", "each-step"), out):
            checks.record((verdict, steps) == (self.done, n),
                          f"{n}-let chain, {mode}: {verdict.value} after "
                          f"{steps} steps: {detail}")

    def probe(self, n: int, checks: Checks) -> str:
        m = self.mods
        try:
            m.typecheck.check_program(m.syntax.parse_program(self.sources[n]))
        except Exception as exc:  # the probe records any failure to check
            checks.record(False, f"{n}-let check probe: "
                          f"{type(exc).__name__}", known_defect=True)
            return f"{n}-let check probe: {type(exc).__name__}"
        checks.record(True, "")
        return f"{n}-let check probe: ok"

    def metrics(self, rounds: Rounds, n: int, checks: Checks):
        sizes = list(self.SIZES)
        front = {k: rounds.best[k, "front"] for k in sizes}
        off = {k: self.run_s(rounds, k, "off") for k in sizes}
        each = {k: self.run_s(rounds, k, "each-step") for k in sizes}
        timed = list(self.TIMED)
        verdict_ms = [1000 * (front[k] + each[k]) for k in timed]
        per = (f"{len(timed)} chains, fastest of {n} rounds for each step "
               "and for parse plus check")
        metrics = {
            "programs_per_s": Metric(
                len(timed) / sum(front[k] + off[k] + each[k] for k in timed),
                "1/s", per),
            "verdict_ms_p50": Metric(percentile(verdict_ms, 50), "ms", per),
            "verdict_ms_p90": Metric(percentile(verdict_ms, 90), "ms", per),
            "steps_per_s_off": Metric(
                sum(timed) / sum(off[k] for k in timed), "1/s", per),
            "steps_per_s_each": Metric(
                sum(timed) / sum(each[k] for k in timed), "1/s", per),
        }
        per = f"{len(sizes)} chains, the longest timed in one round"
        extra = {
            "length_exponent_off": Metric(
                slope(sizes, [off[k] for k in sizes]), "1", per),
            "length_exponent_each": Metric(
                slope(sizes, [each[k] for k in sizes]), "1", per),
        }
        lines = [self.probe(k, checks) for k in self.PROBES]
        for k in sizes:
            lines.append(f"{k} lets: off {off[k]:.3f} s, each-step "
                         f"{each[k]:.3f} s "
                         f"(fastest whole runs {rounds.best[k, 'off']:.3f} s "
                         f"and {rounds.best[k, 'each-step']:.3f} s)")
        return metrics, extra, lines


# ---------------------------------------------------------------------------
# bug-hunt: catch and shrink each planted bug
# ---------------------------------------------------------------------------

class BugHunt(Workload):
    """Each planted bug hunted by fuzz.campaign from GenConfig(seed=0)
    until it is caught and its witness shrunk; a round is the six hunts.

    The hunts do not depend on the benchmark seed, which only rotates the
    order of the bugs.  Across start seeds the cost of a hunt is heavy
    tailed: of 177 hunts from distinct seeds the median took 0.2 s and the
    longest 31.7 s, a shallow-freeze witness whose shrink candidates ran the
    spin recursion to the step budget.  A run of the length the benchmark
    allows cannot hold enough hunts to make seed-drawn figures steady, and
    one unlucky seed could outlast the run's time limit."""

    name = "bug-hunt"
    START_SEED = 0
    OFF_REPEATS = 20  # off reruns of each witness per round

    def __init__(self, mods, seed: int) -> None:
        self.mods = mods
        self.inputs = self.traced_inputs = rotated(
            sorted(mods.machine.KNOWN_BUGS), seed)
        self.clean = _clean(mods)
        v = mods.command.Verdict
        self.tripped = {v.STUCK, v.VIOLATION}

    def run(self, bug: str, rounds: Rounds) -> tuple:
        """One hunt, its witness re-checked; the outcome holds every
        result that a later round must repeat."""
        m = self.mods
        runner = m.command.TandemRunner
        cfg = m.fuzz.GenConfig(seed=self.START_SEED, max_depth=DEPTH)
        runs: list[tuple[float, int, float]] = []
        sampling = [0.0]

        def between() -> None:
            sampling[0] += rounds.sample_reference()

        gc.collect()
        with timed_runs(m.command, runs, between):
            t0 = clock()
            res = m.fuzz.campaign(HUNT_PROGRAMS, cfg, budget=CAMPAIGN_BUDGET,
                                  bugs=frozenset({bug}))
            t1 = clock()
        # The hunt's time outside its runs and the reference samples
        # (generating, type checking, shrinking) is one unit; each run is
        # another.
        rounds.time((bug, "rest"),
                    t1 - t0 - sum(t for t, _, _ in runs) - sampling[0],
                    t1, t0)
        for k, (seconds, _, end) in enumerate(runs):
            rounds.time((bug, "run", k), seconds, end)
        steps = tuple(s for _, s, _ in runs)
        if res.counterexample is None:
            return res.runs, steps, None, None
        try:
            witness = m.syntax.parse_program(res.counterexample)
            m.typecheck.check_program(witness)
        except (m.syntax.ParseError, m.typecheck.TypeCheckError) as exc:
            return res.runs, steps, res.counterexample, str(exc)
        buggy = runner(witness, check="each-step", budget=CAMPAIGN_BUDGET,
                       bugs=frozenset({bug})).run()
        each = runner(witness, check="each-step",
                      budget=CAMPAIGN_BUDGET).run()
        # The reruns take well under a millisecond each: the fastest of a
        # round's reruns is one sample, so that a round's reruns share one
        # reference scale.
        off_s = []
        t2 = clock()
        for _ in range(self.OFF_REPEATS):
            t3 = clock()
            off = runner(witness, check="off", budget=CAMPAIGN_BUDGET).run()
            off_s.append(clock() - t3)
        rounds.time((bug, "off"), min(off_s), clock(), t2)
        return (res.runs, steps, res.counterexample,
                (count_lets(witness.main), buggy.verdict,
                 (each.verdict, each.steps, each.detail),
                 (off.verdict, off.steps)))

    def check(self, bug: str, out: tuple, checks: Checks) -> None:
        n_runs, _, witness, result = out
        where = f"bug-hunt {bug} from seed {self.START_SEED}"
        checks.record(witness is not None,
                      f"{where}: not caught in {n_runs} programs")
        if witness is None:
            return
        checks.record(not isinstance(result, str),
                      f"{where}: witness does not check: {result}")
        if isinstance(result, str):
            return
        _, buggy, (each, steps, detail), off = result
        checks.record(buggy in self.tripped,
                      f"{where}: witness no longer trips the bug "
                      f"({buggy.value})")
        checks.record(each in self.clean,
                      f"{where}: clean machine ends {each.value} on the "
                      f"witness: {detail}")
        checks.record(off == (each, steps),
                      f"{where}: witness off ended {off[0].value} after "
                      f"{off[1]} steps, each-step {each.value} after {steps}")

    def metrics(self, rounds: Rounds, n: int, checks: Checks):
        b, first = rounds.best, rounds.first
        bugs = [bug for bug in self.inputs if isinstance(first[bug][3], tuple)]
        run_s = {bug: [b[bug, "run", k] for k in range(len(first[bug][1]))]
                 for bug in self.inputs}
        hunt = {bug: b[bug, "rest"] + sum(run_s[bug]) for bug in self.inputs}
        run_ms = [1000 * t for ts in run_s.values() for t in ts]
        steps = sum(sum(first[bug][1]) for bug in self.inputs)
        per = f"{len(self.inputs)} hunts, fastest of {n} rounds"
        n_runs = f"{len(run_ms)} runs, fastest of {n} rounds"
        metrics = {
            "programs_per_s": Metric(len(run_ms) / sum(hunt.values()), "1/s",
                                     per),
            "verdict_ms_p50": Metric(percentile(run_ms, 50), "ms", n_runs),
            "verdict_ms_p90": Metric(percentile(run_ms, 90), "ms", n_runs),
            "steps_per_s_off": Metric(
                sum(first[bug][3][3][1] for bug in bugs)
                / sum(b[bug, "off"] for bug in bugs), "1/s",
                f"{len(bugs)} witnesses, fastest of {self.OFF_REPEATS} "
                f"x {n} runs each"),
            "steps_per_s_each": Metric(
                steps / sum(sum(ts) for ts in run_s.values()), "1/s",
                n_runs),
        }
        extra = {
            "hunt_s": Metric(sum(hunt.values()), "s", per),
            "witness_lets": Metric(sum(first[bug][3][0] for bug in bugs),
                                   "count", f"{len(bugs)} witnesses"),
        }
        lines = [f"hunts from seed {self.START_SEED}: " + ", ".join(
            f"{bug} {hunt[bug]:.2f} s, {first[bug][0]} programs"
            for bug in self.inputs)]
        return metrics, extra, lines


WORKLOADS = {"campaign": Campaign, "long-chain": LongChain,
             "bug-hunt": BugHunt}
