"""CLI: exit codes, diagnostic format, golden traces."""
import json
import re
from pathlib import Path

import pytest

from cli_harness import run_cli as _cli

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).parent / "golden"

DIAG_RE = re.compile(
    r"^.+:\d+:\d+: error\[[a-z0-9-]+\]: .+$")


def test_check_prints_main_type():
    p = _cli("check", "corpus/listing1.rgo")
    assert p.returncode == 0
    assert p.stdout.strip() == "mut Holder"


def test_check_type_error_exit_1_and_format():
    for name in ("store_reject_x.rgo", "store_reject_y.rgo"):
        p = _cli("check", f"corpus/{name}")
        assert p.returncode == 1
        assert DIAG_RE.match(p.stderr.strip()), p.stderr


def test_parse_error_exit_1():
    p = _cli("check", "/dev/stdin", input="class class { }")
    assert p.returncode == 1
    assert "error[parse]" in p.stderr


def test_missing_file_exit_10():
    p = _cli("run", "corpus/no_such_file.rgo")
    assert p.returncode == 10


def test_internal_error_exit_5_without_traceback(tmp_path):
    # The parser recurses once per let, so 1200 lets exceed its recursion
    # limit: an error no other exit code describes.
    n = 1200
    f = tmp_path / "chain.rgo"
    f.write_text("class A { }\nlet x0 = new mut A() in\n"
                 + "".join(f"let x{i} = x{i - 1} in\n" for i in range(1, n))
                 + f"x{n - 1}\n")
    p = _cli("check", str(f))
    assert p.returncode == 5
    assert "Traceback" not in p.stderr
    assert len(p.stderr.splitlines()) == 1, p.stderr


def test_run_exit_codes():
    cases = {
        "listing1.rgo": 0,
        "store_accept.rgo": 0,
        "reenter_open.rgo": 2,
    }
    for name, code in cases.items():
        p = _cli("run", name, cwd=CORPUS)
        assert p.returncode == code, (name, p.stderr)


def test_run_budget_exit_4(tmp_path):
    src = ("class A { }\n"
           "fn spin(a: mut A): mut A { let r = spin(a) in r }\n"
           "let x = new mut A() in let y = spin(x) in y")
    f = tmp_path / "spin.rgo"
    f.write_text(src)
    p = _cli("run", str(f), "--budget", "100")
    assert p.returncode == 4
    assert "Budget" in p.stderr


def test_run_buggy_machine_violation_exit_3():
    p = _cli("run", "corpus/deep_freeze.rgo", "--bugs", "shallow-freeze",
             "--invariant-check", "each-step")
    assert p.returncode == 3
    assert "Violation" in p.stderr


def test_run_unknown_bug_exit_10():
    p = _cli("run", "corpus/listing1.rgo", "--bugs", "bogus")
    assert p.returncode == 10
    assert p.stdout == ""
    assert p.stderr == "unknown bug switches: ['bogus']\n"


def test_fuzz_unknown_bug_exit_10_before_any_run(tmp_path):
    out = tmp_path / "repro.rgo"
    p = _cli("fuzz", "--seeds", "3", "--bugs", "skip-bury,zz,aa",
             "--reproducer", str(out))
    assert p.returncode == 10
    assert p.stdout == ""
    assert p.stderr == "unknown bug switches: ['aa', 'zz']\n"
    assert not out.exists()


def test_trace_lines_are_json_with_expected_keys():
    p = _cli("trace", "corpus/deep_freeze.rgo", "--invariant-check",
             "each-step")
    assert p.returncode == 0
    lines = [json.loads(ln) for ln in p.stdout.splitlines()]
    assert lines
    for i, rec in enumerate(lines, 1):
        assert rec["step"] == i
        assert set(rec) == {"step", "effect", "args", "rs", "open",
                            "closed", "frozen", "verdict"}
        assert rec["verdict"] == "ok"


def test_trace_shows_the_violating_step_and_its_report():
    args = ("tests/golden/skip-bury.witness", "--invariant-check",
            "each-step", "--bugs", "skip-bury")
    p = _cli("trace", *args)
    assert p.returncode == 3
    assert p.stderr == "violation after 2 steps: invariant violation\n"
    *steps, report = [json.loads(ln) for ln in p.stdout.splitlines()]
    assert [rec["step"] for rec in steps] == [1, 2]
    assert [rec["verdict"] for rec in steps] == ["ok", "violation"]
    # The same report that run prints after its summary line.
    run = _cli("run", *args)
    assert run.returncode == 3
    assert report == json.loads(run.stderr.split("\n", 1)[1])
    assert report["verdict"] is False and report["violations"]


@pytest.mark.parametrize("name", [
    "listing1", "store_accept", "bridge_swap", "deep_freeze",
    "merge_nested", "explore", "reenter_open", "typetest_cap"])
def test_golden_traces(name):
    p = _cli("trace", f"corpus/{name}.rgo", "--invariant-check",
             "each-step")
    got = p.stdout + p.stderr
    assert got == (GOLDEN / f"{name}.trace").read_text()


@pytest.mark.parametrize("name", ["store_reject_x", "store_reject_y"])
def test_golden_diagnostics(name):
    p = _cli("check", f"corpus/{name}.rgo")
    got = p.stdout + p.stderr
    assert got == (GOLDEN / f"{name}.diag").read_text()


def test_fuzz_smoke(tmp_path):
    p = _cli("fuzz", "--seeds", "5", "--depth", "5",
             "--reproducer", str(tmp_path / "r.rgo"))
    assert p.returncode == 0
    assert "5 runs" in p.stdout
    assert "0 stuck, 0 violations" in p.stdout


@pytest.mark.parametrize("option", [("--depth", "0"), ("--seeds", "-3"),
                                    ("--budget", "0"), ("--budget", "-1")])
def test_fuzz_bad_option_value_exit_10(option):
    """A bad option value is a user error, reported before any run."""
    p = _cli("fuzz", *option)
    assert p.returncode == 10
    assert p.stdout == ""
    assert p.stderr.startswith(option[0]) and p.stderr.count("\n") == 1


@pytest.mark.parametrize("cmd", ["run", "trace"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_run_bad_budget_exit_10(cmd, budget):
    """A budget below 1 runs nothing: rejected before the file is read."""
    p = _cli(cmd, "corpus/no_such_file.rgo", "--budget", budget)
    assert p.returncode == 10
    assert p.stdout == ""
    assert p.stderr == f"--budget must be at least 1, got {budget}\n"


def test_fuzz_buggy_machine_writes_reproducer(tmp_path):
    out = tmp_path / "repro.rgo"
    p = _cli("fuzz", "--seeds", "50", "--depth", "8",
             "--bugs", "shallow-freeze", "--reproducer", str(out))
    assert p.returncode == 3
    assert p.stdout.startswith("ABORT")
    assert out.exists()


def test_fuzz_unwritable_reproducer_exit_10(tmp_path):
    out = tmp_path / "no_such_dir" / "x.rgo"
    p = _cli("fuzz", "--seeds", "3", "--bugs", "exit-keep-temps",
             "--reproducer", str(out))
    assert p.returncode == 10
    assert p.stdout.startswith("ABORT")
    assert p.stderr == f"{out}: No such file or directory\n"
