"""Every name a module of the package imports is used in that module,
every public top-level function and class is used by the package or is
on an allow-list that says why it stays, and scipy is imported only by
the runs that call it."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import TINY_CONFIGS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nsslab"
CONFIGS = PACKAGE.parent.parent / "configs"

# public API that no other code in the package reads, each with the claim
# of the paper it implements or "shared test reference"; claim letters
# follow the README's claims table
UNREFERENCED_ALLOWED = {
    "classify_evidence": "claims (a)-(c): falsifies the declared class of a "
                         "PL modulus, which decides scNSS, NSS or iNSS",
    "inss_accumulation_check": "claim (c): PD-PL gives integral NSS",
    "eta_schedule_lqr": "claim (d): the learning-rate half of step-size "
                        "tuning",
    "set_D_threshold": "claim (e): the level of the recurrence set",
    "supermartingale_diagnostic": "claim (e): V decreases outside the level",
    "entry_exit_times": "claim (e): entry into and exit from the level",
    "half_norm_squared": "shared test reference",
    "random_stabilizing_gains": "shared test reference",
    "gradient_bound_check": "shared test reference",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Public top-level functions and classes whose name no code reads
    outside their own definition, as a bare name or as an attribute."""
    trees = [ast.parse(s) for s in sources]
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]

    def names_read(tree, skip):
        out, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
        return out

    return sorted(d.name for d in defs
                  if not any(d.name in names_read(t, d) for t in trees))


def test_scan_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Callable, Sequence\n"
              "def f(x: Callable) -> int:\n    return np.size(x)\n")
    assert unused_imports(source) == ["Sequence", "os"]


def test_definition_scan_sees_reads_across_modules_only():
    a = ("class Used:\n    pass\n"
         "def recursive(n):\n    return recursive(n - 1)\n"
         "def _private():\n    pass\n")
    b = "import a\ndef caller():\n    return a.Used()\n"
    assert unreferenced_definitions([a, b]) == ["caller", "recursive"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_public_api_is_used_or_allowed():
    found = unreferenced_definitions(
        [p.read_text() for p in sorted(PACKAGE.glob("*.py"))])
    assert sorted(set(found) - set(UNREFERENCED_ALLOWED)) == []
    # an entry whose function is gone or now used has no reason to stay
    assert sorted(set(UNREFERENCED_ALLOWED) - set(found)) == []


def modules_after(statements: str, package: str = "scipy"
                        ) -> list[str]:
    """The ``package`` (default ``scipy``) and ``package.*`` modules loaded
    after ``statements`` run in a fresh interpreter that imports nsslab
    from this source tree."""
    probe = (f"import sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n"
             f"{statements}\nimport json\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             f"                        if m.split('.')[0] == {package!r})))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_probe_sees_scipy():
    assert "scipy.special" in modules_after("import scipy.special")
    assert "multiprocessing" in modules_after("import nsslab.nssmc",
                                                    "multiprocessing")


def test_integrator_loads_no_multiprocessing():
    # only the sweep in nssmc forks; sde integrates in one process
    assert modules_after("import nsslab.sde", "multiprocessing") == []


def test_cli_import_loads_no_scipy():
    assert modules_after("import nsslab.cli") == []


def test_validate_loads_no_scipy():
    configs = sorted(str(p) for p in CONFIGS.glob("*.ini"))
    assert len(configs) == 10
    assert modules_after(
        "from nsslab.cli import main\n"
        f"for path in {configs!r}:\n"
        "    assert main(['validate', path]) == 0, path") == []


def test_scipy_free_run_loads_no_scipy(tmp_path):
    config = CONFIGS / "certify_dissipation.ini"
    assert modules_after(
        "from nsslab.cli import main\n"
        f"assert main(['run', {str(config)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}]) == 0") == []


@pytest.mark.parametrize("name", ["lqr-po-overdamped", "lqr-po-underdamped"])
def test_scalar_lqr_run_loads_no_scipy(name, tmp_path):
    # a scalar problem's stabilizability has a closed form
    config = tmp_path / f"{name}.ini"
    config.write_text(f"[experiment]\nname = {name}\noutput = out\n"
                      + TINY_CONFIGS[name])
    assert modules_after(
        "from nsslab.cli import main\n"
        f"assert main(['run', {str(config)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}]) in (0, 1)") == []
