"""Run outcomes of generated programs, pinned so a change to the runner
cannot alter behaviour unnoticed.

Each run is a generated program (``GenConfig(seed=s, max_depth=8)``) run
at budget 3,000 with no planted bug or one of ``KNOWN_BUGS``, under each
``--invariant-check`` mode.  ``tests/golden/runs.txt`` holds one line per
run for seeds 0-49; ``test_golden_runs.py`` regenerates the lines and
compares them with the file.

``tests/golden/effect_wf.digest`` pins effect well-formedness on its own:
the sha256 over every ``check_effect_wf`` call of the each-step runs with
no planted bug over seeds 0-49, each the effect and the evolved context
stack or None.

``tests/golden/programs.digest`` pins the generator: the sha256 over the
pretty text of ``generate(GenConfig(seed=s, max_depth=d))`` for d in 1, 4
and 8, then s in 0-299.  ``tests/golden/witnesses.digest`` pins the bug
hunts: the sha256 over each ``campaign`` from start seeds 0, 1000 and
2000 against each planted bug, its abort seed, run count and shrunk
counterexample.

    python tests/golden_runs.py --write      rewrite runs.txt and the
                                             four digest files
    python tests/golden_runs.py --check      compute the four digests,
                                             compare each with its file,
                                             and exit 1 naming any that
                                             differ
    python tests/golden_runs.py --digest     print the sha256 over seeds
                                             0-199, pinned in runs.digest
    python tests/golden_runs.py --effect-wf  print the effect
                                             well-formedness sha256,
                                             pinned in effect_wf.digest
    python tests/golden_runs.py --programs   print the generator's sha256,
                                             pinned in programs.digest
    python tests/golden_runs.py --witnesses  print the bug hunts' sha256,
                                             pinned in witnesses.digest
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reggio import invariants  # noqa: E402
from reggio.command import TandemRunner  # noqa: E402
from reggio.fuzz import GenConfig, campaign, generate  # noqa: E402
from reggio.machine import KNOWN_BUGS  # noqa: E402
from reggio.syntax import pretty_program  # noqa: E402

RUNS_TXT = Path(__file__).parent / "golden" / "runs.txt"
RUNS_DIGEST = Path(__file__).parent / "golden" / "runs.digest"
EFFECT_WF_DIGEST = Path(__file__).parent / "golden" / "effect_wf.digest"
PROGRAMS_DIGEST = Path(__file__).parent / "golden" / "programs.digest"
WITNESSES_DIGEST = Path(__file__).parent / "golden" / "witnesses.digest"
GOLDEN_SEEDS = range(50)
DIGEST_SEEDS = range(200)
BUDGET = 3_000
MODES = ("off", "final", "each-step")
BUG_SETS = [frozenset()] + [frozenset({b}) for b in sorted(KNOWN_BUGS)]


def runs(seeds):
    """(seed, bugs, mode, result) for every run over seeds, in order."""
    for seed in seeds:
        prog = generate(GenConfig(seed=seed, max_depth=8))
        for bugs in BUG_SETS:
            for mode in MODES:
                result = TandemRunner(prog, check=mode, budget=BUDGET,
                                      bugs=bugs).run()
                yield seed, bugs, mode, result


def run_lines(seeds=GOLDEN_SEEDS) -> list[str]:
    """One tab-separated line per run: seed, bug (or -), mode, verdict,
    steps, the detail as JSON, and the sha256 of the sorted-key JSON
    report."""
    lines = []
    for seed, bugs, mode, r in runs(seeds):
        report = json.dumps(r.report, sort_keys=True).encode()
        lines.append("\t".join((
            str(seed), ",".join(sorted(bugs)) or "-", mode, r.verdict.value,
            str(r.steps), json.dumps(r.detail),
            hashlib.sha256(report).hexdigest())))
    return lines


def digest(seeds=DIGEST_SEEDS) -> str:
    """One sha256 over every run's JSON record, in run order."""
    h = hashlib.sha256()
    for seed, bugs, mode, r in runs(seeds):
        h.update(json.dumps([seed, sorted(bugs), mode, r.verdict.value,
                             r.steps, r.detail, r.report],
                            sort_keys=True).encode())
    return h.hexdigest()


def effect_wf_digest(seeds=GOLDEN_SEEDS) -> str:
    """One sha256 over every check_effect_wf call of the each-step runs
    with no planted bug: the effect, then the evolved stack's contexts as
    sorted (name, binding) lists, or None."""
    h = hashlib.sha256()
    evolve = invariants.check_effect_wf

    def recorded(gammas, eff, classes):
        out = evolve(gammas, eff, classes)
        frames = None if out is None else [sorted(g.items()) for g in out]
        h.update(repr((eff, frames)).encode())
        return out

    invariants.check_effect_wf = recorded
    try:
        for seed in seeds:
            prog = generate(GenConfig(seed=seed, max_depth=8))
            TandemRunner(prog, check="each-step", budget=BUDGET).run()
    finally:
        invariants.check_effect_wf = evolve
    return h.hexdigest()


def programs_digest() -> str:
    """One sha256 over the pretty text of every generated program, for
    depths 1, 4 and 8 and seeds 0-299."""
    h = hashlib.sha256()
    for depth in (1, 4, 8):
        for seed in range(300):
            prog = generate(GenConfig(seed=seed, max_depth=depth))
            h.update(pretty_program(prog).encode())
    return h.hexdigest()


def witnesses_digest() -> str:
    """One sha256 over the hunt for each planted bug from start seeds 0,
    1000 and 2000: where it aborted, after how many runs, and the shrunk
    counterexample."""
    h = hashlib.sha256()
    for seed in (0, 1000, 2000):
        for bug in sorted(KNOWN_BUGS):
            res = campaign(1000, GenConfig(seed=seed, max_depth=8),
                           budget=10_000, bugs=frozenset({bug}))
            h.update(f"{seed} {bug} {res.abort_seed} {res.runs}\n"
                     f"{res.counterexample}\n".encode())
    return h.hexdigest()


# Each digest's option, its function and the file that pins it.
DIGESTS = {"--digest": (digest, RUNS_DIGEST),
           "--effect-wf": (effect_wf_digest, EFFECT_WF_DIGEST),
           "--programs": (programs_digest, PROGRAMS_DIGEST),
           "--witnesses": (witnesses_digest, WITNESSES_DIGEST)}

if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        RUNS_TXT.write_text("\n".join(run_lines()) + "\n")
        for compute, path in DIGESTS.values():
            path.write_text(compute() + "\n")
    elif args == ["--check"]:
        differ = [path.name for compute, path in DIGESTS.values()
                  if compute() != path.read_text().strip()]
        if differ:
            raise SystemExit("differ from their files: " + ", ".join(differ))
        print(f"all {len(DIGESTS)} digests match their files")
    elif len(args) == 1 and args[0] in DIGESTS:
        print(DIGESTS[args[0]][0]())
    else:
        raise SystemExit(__doc__)
