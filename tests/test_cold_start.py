"""A fresh interpreter executes numpy only when an array engine first runs.

rsskit binds numpy through core.lazy_module, so importing rsskit.cli,
building the configs and running safe-distance, simulate (worst or gentle
POV) and audit never execute it; simulate --pov random:SEED and the
campaigns do, and give the same bytes as a run in this process, where
numpy is loaded.  numpy counts as executed once any "numpy." submodule is
in sys.modules: the lazy module's own attributes are never read, since
that would load it.  numpy stays a hard dependency: with a meta path
finder that refuses it, importing rsskit.cli raises ModuleNotFoundError.

rsskit's own verify, batch, trajio and report modules are bound the same
way, so a command executes only the module files it runs.  An audit hook
on the "exec" event records each file as it executes, reading only the
code object, so recording never loads a lazy module.
"""
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rsskit
from rsskit.cli import main
from rsskit.core import lazy_module

SRC = str(Path(rsskit.__file__).resolve().parent.parent)
PAPER = {"rho": 0.3, "a_max": 2.0, "a_brake_min": 4.0, "a_brake_max": 8.0}

# (name, argv, whether the command executes numpy), run in this order from
# a directory holding params.json and campaign.json
COMMANDS = [
    ("safe_distance", ["safe-distance", "--v-r", "20", "--v-f", "15"], False),
    ("worst", ["simulate", "--gap", "80", "--v-r", "20", "--v-f", "20", "--out", "worst.csv"], False),
    ("gentle", ["simulate", "--gap", "80", "--v-r", "20", "--v-f", "20", "--pov", "gentle",
                "--ac", "adversarial", "--out", "gentle.csv"], False),
    ("audit", ["audit", "--trajectory", "worst.csv", "--out", "audit.json",
               "--metric-csv", "metric.csv"], False),
    ("random", ["simulate", "--gap", "60", "--v-r", "15", "--v-f", "15", "--pov", "random:3",
                "--out", "random.csv"], True),
    ("verify", ["verify", "--campaign", "campaign.json", "--out", "verify.json"], True),
]
FILES = ["worst.csv", "gentle.csv", "audit.json", "metric.csv", "random.csv", "verify.json"]

CHILD = """
import contextlib, io, json, os, sys
ran = lambda: any(key.startswith("numpy.") for key in sys.modules)
executed = []  # the basenames of the rsskit files executed, in order
package = os.path.join(sys.argv[1], "rsskit")

def record(event, args):
    if event == "exec" and os.path.dirname(getattr(args[0], "co_filename", "")) == package:
        executed.append(os.path.basename(args[0].co_filename))

sys.addaudithook(record)

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.path.insert(0, sys.argv[1])
sys.meta_path.insert(0, Refuse())
try:
    import rsskit.cli
    refused = False
except ModuleNotFoundError:
    refused = True
del sys.meta_path[0]
for key in [k for k in sys.modules if k == "rsskit" or k.startswith("rsskit.")]:
    del sys.modules[key]
result = {"refused": refused, "before": ran(), "executed": {}}
executed.clear()

def step(name):
    result["executed"][name] = executed[:]
    executed.clear()

import rsskit.cli
step("import")
from rsskit.core import validate_params
from rsskit.supervisor import SupervisorConfig
from rsskit.verify import CampaignConfig
params = validate_params(json.loads(sys.argv[2]))
SupervisorConfig().validate_against(params)
CampaignConfig(seed=0, n_trials=1000)
result["probe"] = ran()
step("probe")
for name, argv, _ in json.loads(sys.argv[3]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = rsskit.cli.main(argv + ["--params", "params.json"])
    result[name] = [rc, out.getvalue(), ran()]
    step(name)
print(json.dumps(result))
"""


def _prepare(directory):
    (directory / "params.json").write_text(json.dumps(PAPER))
    (directory / "campaign.json").write_text(json.dumps({"seed": 5, "n_trials": 20}))


def _read(path):
    """The file's text without the report's generation time, the one line
    that differs between two runs."""
    return "".join(line for line in path.read_text().splitlines(True)
                   if '"generated_at"' not in line)


def test_numpy_is_executed_only_by_the_array_engines(tmp_path, monkeypatch):
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    _prepare(cold)
    _prepare(warm)
    child = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, json.dumps(PAPER), json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=60, cwd=cold,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["refused"]
    assert not result["before"] and not result["probe"]

    monkeypatch.chdir(warm)
    for name, argv, executes_numpy in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(argv + ["--params", "params.json"])
        assert result[name] == [rc, out.getvalue(), executes_numpy], name
    assert result["audit"][0] == 0 and result["verify"][0] == 0
    for name in FILES:
        assert _read(cold / name) == _read(warm / name), name

    # the array engines and the file writers are executed where they run
    executed = result["executed"]
    assert "cli.py" in executed["import"] and "verify.py" not in executed["import"]
    assert not {"batch.py", "trajio.py", "report.py"} & {*executed["import"], *executed["probe"]}
    for name in ("safe_distance", "worst", "gentle", "audit"):
        assert "batch.py" not in executed[name], name
    assert "trajio.py" in executed["worst"] and "report.py" in executed["audit"]
    assert "batch.py" in executed["verify"]


BINDING_CHILD = """
import importlib, inspect, sys
sys.path.insert(0, sys.argv[1])
import rsskit.cli
import rsskit.verify
rsskit.verify.CampaignConfig  # executes verify, which binds batch lazily
import rsskit.batch
assert callable(rsskit.batch.analyze_gaps) and callable(rsskit.trajio.read_trajectory)
from rsskit import audit
assert inspect.isfunction(audit) and inspect.ismodule(importlib.import_module("rsskit.audit"))
"""


def test_a_lazily_bound_module_is_an_attribute_of_its_package():
    # import finds a lazy module in sys.modules and, unlike a first import,
    # binds nothing on the package, so lazy_module binds it there itself
    child = subprocess.run([sys.executable, "-c", BINDING_CHILD, SRC],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


def test_a_module_that_cannot_be_found_raises_and_binds_nothing():
    name = "rsskit.no_such_module"
    with pytest.raises(ModuleNotFoundError) as raised:
        lazy_module(name)
    assert raised.value.name == name
    assert name not in sys.modules and not hasattr(rsskit, "no_such_module")
