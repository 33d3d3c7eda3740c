"""Every name a module of the package imports is used in that module,
every public top-level function and class, every public method, property
and class field, and every defaulted parameter of a public function or
method is used by the package or is on an allow-list that says why it
stays, every member name that two classes share says where each is read,
and scipy is imported only by the runs that call it."""

import ast
import json
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from test_acceptance import TINY_CONFIGS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nsslab"
CONFIGS = PACKAGE.parent.parent / "configs"

# public API that no other code in the package reads, each with the claim
# of the paper it implements; claim letters follow the README's claims
# table
UNREFERENCED_ALLOWED = {
    "classify_evidence": "claims (a)-(c): falsifies the declared class of a "
                         "PL modulus, which decides scNSS, NSS or iNSS",
    "inss_accumulation_check": "claim (c): PD-PL gives integral NSS",
    "eta_schedule_lqr": "claim (d): the learning-rate half of step-size "
                        "tuning",
    "set_D_threshold": "claim (e): the level of the recurrence set",
    "Supermartingale": "claim (e): V decreases outside the level",
    "entry_exit_times": "claim (e): entry into and exit from the level",
}

# public methods, properties and class fields that no code in the package
# reads, each with the claim it reports or the code outside the package
# that reads it
UNREAD_MEMBERS_ALLOWED = {
    "ClassEvidenceReport.consistent": "claims (a)-(c): the verdict of "
                                      "classify_evidence",
    "AccumulationReport.passed": "claim (c): the verdict of "
                                 "inss_accumulation_check",
    "AccumulationReport.integral_gain_final": "claim (c): the integral of "
                                              "gamma over the horizon",
    "SetDLevel.level": "claim (e): the level of the recurrence set",
    "SetDLevel.d1": "claim (e): the scNSS bound on the noise intensity",
    "PhiLadder.phi1": "the bound |grad J|^2 <= phi1(J - J*) that the "
                      "acceptance tests check",
    "LqrPlProfile.Pstar": "P at K*, checked by the LQR tests",
    "LqrPlProfile.Ystar": "Y at K*, checked by the LQR tests",
    "TrajectoryEnsemble.valid_counts": "the shard and reference tests "
                                       "compare ensembles field by field",
    "TrajectoryEnsemble.exited": "the shard and reference tests compare "
                                 "ensembles field by field; perfbench's "
                                 "tracer counts exits from it",
    "TrajectoryEnsemble.blowup": "read by perfbench",
    "TrajectoryPath.blowup": "read by perfbench",
    "TrajectoryPath.exited_domain": "read by perfbench",
    "_PathKey.generate_state": "read by numpy's Philox, which takes its key "
                               "from its seed sequence",
    "Objective.label": "read by perfbench's per-layer metric names",
}

# public members whose name another class of the package also defines, so
# that a read of one counts for all in unread_members; each says where
# that class's member is read
SHARED_MEMBER_NAMES = {
    "AccumulationReport.epsilon": "AccumulationReport.passed",
    "NssExperiment.epsilon": "_SweepEnsemble.stats, inss_accumulation_check",
    "CovarianceSchedule.intensities": "sup_noise_intensity, "
                                      "inss_accumulation_check",
    "GainCurve.intensities": "scnss_threshold_scan, the gain-curve writer",
    "NssExperiment.intensities": "run_experiment, NssExperiment's check",
    "DiffusionModel.domain_test": "_simulate_batch, _validate_sim_args",
    "Objective.domain_test": "build_overdamped, build_underdamped",
    "DissipationCertificate.d": "check_dissipation, certificate_summary",
    "ScalarClassFunction.d": "ScalarClassFunction.__call__, "
                             "classify_evidence",
    "DissipationCertificate.violations": "certificate_summary, the "
                                         "certificate writer",
    "PLViolationReport.violations": "PLViolationReport.clean, pl-envelope",
    "Exceedance.shard": "_run_batch",
    "WindowValues.shard": "_run_batch",
    "NssExperiment.dt": "_run_batch, inss_accumulation_check",
    "TrajectoryEnsemble.dt": "perfbench's path-step count",
    "TrajectoryEnsemble.times": "perfbench's path-step count",
    "TrajectoryEnsemble.states": "perfbench's state-byte count",
    "TrajectoryEnsemble.blowup": "perfbench (unread in the package)",
    "TrajectoryPath.blowup": "perfbench (unread in the package)",
    "TrajectoryPath.times": "the trajectory writer",
    "TrajectoryPath.states": "the trajectory writer, entry_exit_times",
    "Objective.value": "verify_pl, the drifts, the size functions",
    "SizeFunction.value": "self_values, check_dissipation",
    "Objective.evaluate": "the size functions, _scheduled_terms",
    "SizeFunction.evaluate": "generator_apply",
    "Objective.gradient_at": "estimate_kpl_envelope, logistic-overdamped",
    "SizeFunction.gradient_at": "perfbench's tracer, which binds it",
    "Objective.hessian_at": "build_smoothness_ladder, "
                            "quadratic-underdamped",
    "SizeFunction.hessian_at": "perfbench's tracer, which binds it",
    "OverdampedConfig.eta": "build_overdamped",
    "UnderdampedConfig.eta": "lambdas, build_underdamped, v2_certificate",
    "OverdampedConfig.k_g": "overdamped_certificate",
    "UnderdampedConfig.k_g": "v2_certificate, v3_certificate",
    "OverdampedConfig.objective": "build_overdamped, "
                                  "overdamped_certificate",
    "UnderdampedConfig.objective": "build_underdamped, the V2 and V3 "
                                   "builders",
    "PhiLadder.h_max": "v3_size_function, the PhiLadder methods",
    "SmoothnessLadder.h_max": "phi_functions",
}

# defaulted parameters that no call in the package passes, each with the
# claim its tests set it for
UNSET_PARAMETERS_ALLOWED = {
    "phi_functions.delta": "claim (d): the tests shrink delta to check "
                           "that phi2 tracks phi1, the bound behind V3",
    "overdamped_certificate.cap": "claim (a): the scNSS certificate of a "
                                  "bounded PL modulus, which the "
                                  "acceptance tests falsify",
    "default_theta_samples.cap": "claim (a): keeps the sampled "
                                 "intensities below that scNSS cap",
    "set_D_threshold.bracket": "claim (e): the range of a bounded alpha "
                               "in the admissibility test",
    "set_D_threshold.small_covariance": "claim (e): the tests reject an "
                                        "intensity at or above d1",
    "Exceedance.window": "claim (e): the tests check the exceedance of "
                         "sub-windows against the recorded reference",
    "Supermartingale.min_population": "claim (e): the tests check floors "
                                      "of 1, 10 and 100 against the "
                                      "recorded reference",
    "default_state_samples.count": "claims (b) and (d): the tests compare "
                                   "certificates with the per-point "
                                   "reference at several sample sizes",
    "main.argv": "the tests run the CLI in-process; the console script "
                 "passes none",
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


def _reads(node, name_of) -> Counter:
    """How often ``name_of`` (ast node -> name or None) names each name
    in the tree under ``node``."""
    return Counter(filter(None, map(name_of, ast.walk(node))))


def _name_or_attribute(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _attribute_load(node):
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """Public top-level functions and classes whose name no code reads
    outside their own definition, as a bare name or as an attribute."""
    trees = [ast.parse(s) for s in sources]
    total = sum((_reads(t, _name_or_attribute) for t in trees), Counter())
    return sorted(d.name for tree in trees for d in tree.body
                  if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                  and not d.name.startswith("_")
                  and total[d.name] == _reads(d, _name_or_attribute)[d.name])


def _members(trees):
    """(class name, node, member name) of each public method, property
    and annotated class field."""
    for cls in (c for t in trees for c in ast.walk(t)
                if isinstance(c, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield cls.name, node, name


def unread_members(sources: list[str]) -> list[str]:
    """Public methods, properties and annotated class fields, as
    ``Class.name``, whose name no code reads as an attribute outside
    their own definition.  Setting a field, by keyword or assignment, is
    not a read."""
    trees = [ast.parse(s) for s in sources]
    total = sum((_reads(t, _attribute_load) for t in trees), Counter())
    return sorted(f"{cls}.{name}" for cls, node, name in _members(trees)
                  if total[name] == _reads(node, _attribute_load)[name])


def shared_members(sources: list[str]) -> list[str]:
    """Public members, as ``Class.name``, whose name two or more classes
    define.  :func:`unread_members` counts reads by name, so a read of one
    such member also counts for its namesakes."""
    members = list(_members([ast.parse(s) for s in sources]))
    classes = Counter(name for _, _, name in members)
    return sorted(f"{cls}.{name}" for cls, _, name in members
                  if classes[name] > 1)


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, positional index or None) of each defaulted parameter, the
    index counted as a call passes it (after ``self`` for a method)."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    return ([(p.arg, i - method)
             for i, p in enumerate(positional[first:], first)]
            + [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def unset_parameters(sources: list[str]) -> list[str]:
    """Defaulted parameters of public top-level functions, of public
    methods of public classes and of every ``__init__``, as
    ``function.parameter`` (``Class.parameter`` for an ``__init__``), that
    no call of a function of that name passes, by keyword or by position.
    A call with ``*args`` passes every position, one with ``**kwargs``
    every keyword."""
    trees = [ast.parse(s) for s in sources]
    keywords, positions = defaultdict(set), Counter()
    for call in (n for t in trees for n in ast.walk(t)
                 if isinstance(n, ast.Call)):
        name = _name_or_attribute(call.func)  # f of f(...) and x.f(...)
        star = any(isinstance(a, ast.Starred) for a in call.args)
        positions[name] = max(positions[name],
                              float("inf") if star else len(call.args))
        keywords[name].update(k.arg for k in call.keywords)  # None: **
    found = []

    def check(fn, callee, owner, method):
        for param, pos in _defaulted(fn, method):
            if not ({param, None} & keywords[callee]
                    or pos is not None and positions[callee] > pos):
                found.append(f"{owner}.{param}")

    for node in (n for t in trees for n in t.body):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            check(node, node.name, node.name, False)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    check(fn, node.name, node.name, True)
                elif not (fn.name.startswith("_")
                          or node.name.startswith("_")):
                    check(fn, fn.name, f"{node.name}.{fn.name}", not static)
    return sorted(found)


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


def test_member_scan_sees_attribute_reads_only():
    a = ("class Report:\n    read: int\n    stored: int\n    _own: int\n"
         "    def again(self):\n        return self.again()\n"
         "    @property\n    def shown(self):\n        return self.read\n")
    b = ("def caller(r):\n    r.stored = 1\n"
         "    return Report(read=1, stored=2).shown\n")
    assert unread_members([a, b]) == ["Report.again", "Report.stored"]


def test_shared_member_scan_sees_names_of_two_classes():
    a = ("class Report:\n    value: int\n    _own: int\n"
         "    def show(self):\n        pass\n")
    b = ("class Probe:\n    value: int\n    _own: int\n"
         "    @property\n    def show(self):\n        return 0\n"
         "class Alone:\n    count: int\n"
         "def caller(r):\n    return r.value\n")
    assert shared_members([a, b]) == ["Probe.show", "Probe.value",
                                      "Report.show", "Report.value"]
    # the read of r.value counts for both classes, so neither is unread
    assert unread_members([a, b]) == ["Alone.count", "Probe.show",
                                      "Report.show"]


def test_parameter_scan_sees_passed_values_only():
    a = ("def f(x, y=1, z=2, *, k=3):\n    pass\n"
         "def g(u=0, v=0):\n    pass\n"
         "def _private(w=0):\n    pass\n"
         "class Box:\n"
         "    def __init__(self, p, q=1):\n        pass\n"
         "    def put(self, r, s=0, t=0):\n        pass\n"
         "    @staticmethod\n    def make(e=0):\n        pass\n")
    b = ("def caller(box, args):\n"
         "    f(1, 2)\n    g(*args)\n    Box(0, 1)\n"
         "    box.put(0, t=1)\n    Box.make(0)\n")
    assert unset_parameters([a, b]) == ["Box.put.s", "f.k", "f.z"]
    # **kwargs passes every keyword, a keyword any position
    assert unset_parameters([a, b + "    f(0, **kw)\n    box.put(0, s=1)\n"
                             ]) == []


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


def test_public_members_are_read_or_allowed():
    found = unread_members(
        [p.read_text() for p in sorted(PACKAGE.glob("*.py"))])
    assert sorted(set(found) - set(UNREAD_MEMBERS_ALLOWED)) == []
    assert sorted(set(UNREAD_MEMBERS_ALLOWED) - set(found)) == []


def test_shared_member_names_say_where_each_is_read():
    found = shared_members(
        [p.read_text() for p in sorted(PACKAGE.glob("*.py"))])
    assert sorted(set(found) - set(SHARED_MEMBER_NAMES)) == []
    # an entry whose namesake is gone has no reason to stay
    assert sorted(set(SHARED_MEMBER_NAMES) - set(found)) == []


def test_defaulted_parameters_are_passed_or_allowed():
    found = unset_parameters(
        [p.read_text() for p in sorted(PACKAGE.glob("*.py"))])
    assert sorted(set(found) - set(UNSET_PARAMETERS_ALLOWED)) == []
    assert sorted(set(UNSET_PARAMETERS_ALLOWED) - set(found)) == []


def test_only_the_integrator_names_recorded_ensembles():
    # every statistic is a reducer the integrator feeds; a dense
    # (N, R, n) ensemble is the integrator's default output alone
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if "TrajectoryEnsemble" in p.read_text()] == ["sde.py"]


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


def test_cli_import_loads_no_numpy_random():
    # the integrator imports numpy.random at its first draw
    assert "numpy.random" not in modules_after("import nsslab.cli", "numpy")


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
    # quadratic-underdamped's flow oracle has a closed form
    for stem in ("certify_dissipation", "quadratic_underdamped"):
        config = CONFIGS / f"{stem}.ini"
        assert modules_after(
            "from nsslab.cli import main\n"
            f"assert main(['run', {str(config)!r}, '--out', "
            f"{str(tmp_path / stem)!r}]) == 0") == []


@pytest.mark.parametrize("name", ["logistic-overdamped",
                                  "logistic-underdamped", "pl-envelope"])
def test_dataset_run_loads_no_scipy_optimize(name, tmp_path):
    # the certificate settles the shipped dataset (the logistic oracles
    # may still load scipy.special)
    config = tmp_path / f"{name}.ini"
    config.write_text(f"[experiment]\nname = {name}\noutput = out\n"
                      + TINY_CONFIGS[name].format(
                          csv=CONFIGS / "logistic_demo.csv"))
    loaded = modules_after(
        "from nsslab.cli import main\n"
        f"assert main(['run', {str(config)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}]) in (0, 1)")
    assert [m for m in loaded if m.startswith("scipy.optimize")] == []


# a separable dataset, and one whose M has rank 1
UNCERTIFIED_DATASETS = {"separable": "1,0,1\n2,1,1\n-1,0,0\n-2,-1,0\n",
                        "rank-deficient": "1,1,1\n-1,-1,1\n1,1,0\n-1,-1,0\n"}


@pytest.mark.parametrize("rows", list(UNCERTIFIED_DATASETS.values()),
                         ids=list(UNCERTIFIED_DATASETS))
def test_uncertified_dataset_run_loads_scipy_optimize(rows, tmp_path):
    # the linear programs decide what the certificate cannot; run then
    # exits 2 before any output
    (tmp_path / "data.csv").write_text("x1,x2,label\n" + rows)
    config = tmp_path / "pl-envelope.ini"
    config.write_text("[experiment]\nname = pl-envelope\noutput = out\n"
                      "[problem]\ndataset = data.csv\n")
    assert "scipy.optimize" in modules_after(
        "from nsslab.cli import main\n"
        f"assert main(['run', {str(config)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}]) == 2")
    assert not (tmp_path / "out").exists()


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
