"""The package namespace: submodules load on first use, and only the ones a name needs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import absentdriver

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = ("classical", "model", "optimize", "quantum", "scenario", "selection", "simulate")


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the package from ``src`` and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout


def test_import_loads_only_the_package_root():
    probe = ("import sys\nstartup = set(sys.modules)\nimport absentdriver\n"
             "print(sorted(set(sys.modules) - startup))")
    assert fresh(probe) == "['absentdriver']\n"


def test_a_name_loads_only_its_submodule_and_what_that_imports():
    probe = ("import sys\nstartup = set(sys.modules)\nfrom absentdriver import expected_payoff\n"
             "print(sorted(m for m in set(sys.modules) - startup"
             " if m.startswith('absentdriver') or m == 'json'))")
    loaded = ["absentdriver", "absentdriver.classical", "absentdriver.model", "absentdriver.quantum"]
    assert fresh(probe) == f"{loaded}\n"


def test_each_submodule_loads_on_first_access():
    # in this order no submodule is loaded by the one before it
    order = ("model", "quantum", "classical", "optimize", "selection", "scenario", "simulate")
    assert sorted(order) == sorted(SUBMODULES)
    probe = (
        "import sys\nimport absentdriver\n"
        f"for name in {order!r}:\n"
        "    full = 'absentdriver.' + name\n"
        "    print(full in sys.modules, getattr(absentdriver, name) is sys.modules[full])\n"
    )
    assert fresh(probe) == "False True\n" * len(order)


@pytest.mark.parametrize("name", absentdriver.__all__)
def test_public_name_is_the_object_of_its_home_submodule(name):
    home = importlib.import_module(f"absentdriver.{absentdriver._HOME[name]}")
    assert getattr(absentdriver, name) is vars(home)[name]
    assert vars(absentdriver)[name] is vars(home)[name]  # cached after the first access


def test_table_lists_exactly_the_public_names():
    assert set(absentdriver._HOME) == set(absentdriver.__all__)
    assert len(absentdriver.__all__) == len(set(absentdriver.__all__))
    assert set(absentdriver._HOME.values()) == set(SUBMODULES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from absentdriver import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(absentdriver.__all__)
    assert all(namespace[name] is getattr(absentdriver, name) for name in absentdriver.__all__)


def test_dir_lists_public_names_and_submodules():
    listed = dir(absentdriver)
    assert {*absentdriver.__all__, *SUBMODULES, "__version__"} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'absentdriver' has no attribute 'nope'$"):
        absentdriver.nope
    assert not hasattr(absentdriver, "cli_main")
    with pytest.raises(ImportError, match="nope"):
        exec("from absentdriver import nope", {})
