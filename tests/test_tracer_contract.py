"""perfbench's tracer wraps the program's functions by rebinding module
attributes (perfbench/tracing.py). These tests run a small pipeline of every
command under it, so that a function the program reaches some other way, for
example through a container built at import time, shows up as a span that is
never recorded."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fourierstab import cli
from fourierstab.network import BinaryMlp
from fourierstab.neuron import LinearThresholdNeuron

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(cli.__file__).resolve().parents[1]
# The modules tracing.install looks up in sys.modules right after `import fourierstab.cli`.
TRACED_MODULES = {f"fourierstab.{name}" for name in ("fourier", "network", "neuron", "selection", "attack", "uniformize")}


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _pipeline(tmp_path, rng):
    raw = tmp_path / "raw.csv"
    np.savetxt(raw, rng.normal(size=(40, 3)), delimiter=",")
    d, m = tmp_path / "d", tmp_path / "m.txt"
    exact = ["--p", 2, "--chow-mode", "exact"]
    commands = [
        ["gen-data", "--kind", "planted-mlp", "--n", 6, "--train", 80, "--val", 40, "--test", 20, "--out", d],
        ["gen-data", "--kind", "uniformize", "--input", raw, "--out", tmp_path / "u"],
        ["train", "--data", d, "--width", 4, "--epochs", 2, "--out", m],
        ["adv-train", "--data", d, "--width", 4, "--at-epochs", 1, "--out", tmp_path / "adv.txt"],
        *(["select", "--model", m, "--data", d, "--algorithm", algo, "--beta", 0.0, *exact,
           "--out-model", tmp_path / f"{algo}.txt", "--out-trace", tmp_path / f"{algo}.csv"]
          for algo in ("gmb", "gmb-fast", "gmbc")),
        ["stabilize", "--model", m, *exact, "--out", tmp_path / "s.txt"],
        ["chow", "--model", m, "--unit", 0, "--chow-mode", "mc", "--chow-epsilon", 0.2, "--out", tmp_path / "c.csv"],
        ["bounds", "--model", m, "--unit", 0, "--out", tmp_path / "b.csv"],
        ["eval", "--model", m, "--data", d, "--epsilons", "0,2", "--out", tmp_path / "e.csv"],
        ["attack", "--model", m, "--data", d, "--epsilon", 2, "--out", tmp_path / "a.csv"],
    ]
    for argv in commands:
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK


def _bindings():
    """Every module attribute of the package, and the two methods the tracer patches."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "fourierstab"]
    out = {(m.__name__, attr): value for m in mods for attr, value in vars(m).items()}
    for cls in (BinaryMlp, LinearThresholdNeuron):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_every_traced_function_records_spans_and_uninstall_restores_them(tracing, tmp_path, rng):
    before = _bindings()
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    try:
        _pipeline(tmp_path, rng)
    finally:
        uninstall()
    names = [s.name for s in rec.spans]
    # attack.jsma, the single-example attack, is library API that no command calls.
    missing = {name for name, *_ in tracing.TARGETS if name != "attack.jsma" and name not in names}
    assert missing == set()
    assert names.count("selection") == 3  # gmb, gmb-fast and gmbc, each through its own wrapper
    # Exact Chow parameters are counted from (w, theta) alone: no command builds a cube row.
    assert rec.counts["fourier.cube_rows"] == 0 and rec.counts["network.forward_rows"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def _submodules_after(statement: str) -> set[str]:
    """The fourierstab.* modules a fresh interpreter has loaded after running statement."""
    code = f"import json, sys; {statement}; print(json.dumps([m for m in sys.modules if m.startswith('fourierstab.')]))"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


def test_the_package_root_loads_no_module_and_the_cli_loads_every_traced_one():
    # The root is a namespace: every name is imported from the module that defines it.
    assert _submodules_after("import fourierstab") == set()
    assert TRACED_MODULES <= _submodules_after("import fourierstab.cli")
