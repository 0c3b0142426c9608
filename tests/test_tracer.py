"""perfbench/tracer.py patches reggio by attribute name: every name it
patches must exist, take effect, and be put back."""
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("syntax", "typecheck", "machine", "command", "invariants", "fuzz")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.fixture
def fresh_reggio():
    """The reggio modules imported afresh, as the traced benchmark run
    imports them; the modules the other tests use are put back after."""
    saved = {n: m for n, m in sys.modules.items()
             if n == "reggio" or n.startswith("reggio.")}
    for name in saved:
        del sys.modules[name]
    try:
        yield SimpleNamespace(**{n: importlib.import_module("reggio." + n)
                                 for n in MODULES})
    finally:
        for name in [n for n in sys.modules
                     if n == "reggio" or n.startswith("reggio.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def _namespaces(mods):
    """Every module namespace and class namespace the tracer may patch."""
    spaces = {}
    for name in MODULES:
        mod = getattr(mods, name)
        spaces[name] = vars(mod)
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                spaces[f"{name}.{attr}"] = vars(value)
    return {key: dict(space) for key, space in spaces.items()}


def test_install_patches_and_restore_puts_back(fresh_reggio):
    mods = fresh_reggio
    tracer_mod = _load_tracer()
    before = _namespaces(mods)
    tracer = tracer_mod.Tracer()
    patches = tracer_mod.install(tracer, mods)
    patched = list(patches._saved)
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is not original, attr
    # The patches take effect: a run is timed and its rebuilt nodes counted.
    src = (ROOT / "corpus" / "listing1.rgo").read_text()
    prog = mods.syntax.parse_program(src)
    mods.typecheck.check_program(prog)
    result = mods.command.TandemRunner(prog, check="each-step").run()
    assert result.verdict is mods.command.Verdict.DONE
    assert tracer.calls["command.run"] == 1
    assert tracer.counts["command.steps"] == result.steps
    assert tracer.counts["command.nodes_rebuilt"] > 0
    assert tracer.counts["invariants.checks"] == result.steps + 1
    patches.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    after = _namespaces(mods)
    assert after.keys() == before.keys()
    for key, space in before.items():
        assert after[key].keys() == space.keys(), key
        for attr, value in space.items():
            assert after[key][attr] is value, (key, attr)
