"""Command-line entry point.

Subcommands:
  check <file>                      type check, print the main type
  run <file> [--invariant-check=..] execute; exit code reports the outcome
  trace <file>                      execute, emitting one JSON line per step
                                    and, on a violation, one with its report
  fuzz [--seeds=N] [--depth=D] ...  soundness campaign

Exit codes: 0 done; 1 type error; 2 failed (badenter); 3 stuck or invariant
violation; 4 budget exhausted; 5 internal error (a defect of reggio,
reported in one line); 10 I/O error or a bad option value: an unknown
--bugs name, --budget below 1, or fuzz --seeds below 0 or --depth below 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from .command import TandemRunner, Verdict
from .machine import (CLOSED, FROZEN, OPEN, check_bugs, effect_args,
                      effect_name)
from .syntax import ParseError, parse_program, pretty_type
from .typecheck import TypeCheckError, check_program

EXIT_DONE = 0
EXIT_TYPE_ERROR = 1
EXIT_FAILED = 2
EXIT_STUCK = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5
EXIT_IO = 10

_VERDICT_CODES = {
    Verdict.DONE: EXIT_DONE,
    Verdict.FAILED: EXIT_FAILED,
    Verdict.STUCK: EXIT_STUCK,
    Verdict.VIOLATION: EXIT_STUCK,
    Verdict.BUDGET: EXIT_BUDGET,
}


def _io_error(path: str, exc: OSError) -> NoReturn:
    print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
    raise SystemExit(EXIT_IO)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
    except OSError as exc:
        _io_error(path, exc)
    try:
        return parse_program(src)
    except ParseError as exc:
        line, col = exc.pos
        print(f"{path}:{line}:{col}: error[parse]: {exc.msg}",
              file=sys.stderr)
        raise SystemExit(EXIT_TYPE_ERROR)


def _check(path: str):
    prog = _load(path)
    try:
        t = check_program(prog)
    except TypeCheckError as exc:
        print(exc.diagnostic.render(path), file=sys.stderr)
        raise SystemExit(EXIT_TYPE_ERROR)
    return prog, t


def cmd_check(args) -> int:
    _, t = _check(args.file)
    print(pretty_type(t))
    return EXIT_DONE


def _parse_bugs(arg: str) -> frozenset[str]:
    if not arg:
        return frozenset()
    try:
        return check_bugs(frozenset(arg.split(",")))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _at_least(*options: tuple[str, int, int]) -> None:
    """Reject an option value below its least, before any work starts."""
    for opt, value, least in options:
        if value < least:
            print(f"{opt} must be at least {least}, got {value}",
                  file=sys.stderr)
            raise SystemExit(EXIT_IO)


def _runner(args, observer=None) -> TandemRunner:
    """The runner of run and trace over a program that type checks."""
    _at_least(("--budget", args.budget, 1))
    prog, _ = _check(args.file)
    return TandemRunner(prog, check=args.invariant_check, budget=args.budget,
                        bugs=_parse_bugs(args.bugs), observer=observer)


def cmd_run(args) -> int:
    result = _runner(args).run()
    if result.verdict is Verdict.DONE:
        print(f"Done in {result.steps} steps")
    else:
        print(f"{result.verdict.value.capitalize()} after {result.steps} "
              f"steps: {result.detail}", file=sys.stderr)
        if result.report is not None:
            print(json.dumps(result.report, indent=2), file=sys.stderr)
    return _VERDICT_CODES[result.verdict]


def cmd_trace(args) -> int:
    def observer(step, eff, verdict_ok) -> None:
        m = runner.machine
        states = [region.state for region in m.regions.values()]
        record = {
            "step": step,
            "effect": effect_name(eff),
            "args": effect_args(eff),
            "rs": m.region_stack_ids(),
            "open": states.count(OPEN),
            "closed": states.count(CLOSED),
            "frozen": states.count(FROZEN),
        }
        if verdict_ok is not None:
            record["verdict"] = "ok" if verdict_ok else "violation"
        print(json.dumps(record))

    runner = _runner(args, observer)
    result = runner.run()
    if result.report is not None:
        print(json.dumps(result.report))
    if result.verdict is not Verdict.DONE:
        print(f"{result.verdict.value} after {result.steps} steps: "
              f"{result.detail}", file=sys.stderr)
    return _VERDICT_CODES[result.verdict]


def cmd_fuzz(args) -> int:
    from .fuzz import GenConfig, campaign
    _at_least(("--seeds", args.seeds, 0), ("--depth", args.depth, 1),
              ("--budget", args.budget, 1))
    cfg = GenConfig(seed=args.seed, max_depth=args.depth)
    result = campaign(n=args.seeds, cfg=cfg, budget=args.budget,
                      bugs=_parse_bugs(args.bugs))
    print(result.summary())
    if result.counterexample is not None:
        out = args.reproducer
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(result.counterexample)
        except OSError as exc:
            _io_error(out, exc)
        print(f"reproducer written to {out}", file=sys.stderr)
        return EXIT_STUCK
    return EXIT_DONE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reggio",
        description="Region-capability language tool suite")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="type check a program")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_check)

    for name, fn in (("run", cmd_run), ("trace", cmd_trace)):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--invariant-check", default="off",
                       choices=["off", "final", "each-step"])
        p.add_argument("--budget", type=int, default=100_000)
        p.add_argument("--bugs", default="",
                       help="comma-separated planted machine bugs")
        p.set_defaults(fn=fn)

    p_fuzz = sub.add_parser("fuzz", help="typed-program soundness campaign")
    p_fuzz.add_argument("--seeds", type=int, default=1000)
    p_fuzz.add_argument("--depth", type=int, default=8)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--budget", type=int, default=10_000)
    p_fuzz.add_argument("--bugs", default="")
    p_fuzz.add_argument("--reproducer", default="reproducer.rgo")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # not an expected failure: a defect of reggio
        print(f"reggio: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
