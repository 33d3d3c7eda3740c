"""Unit tests for the configuration-driven experiment runner."""

import configparser
import csv
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nsslab.cli import (REGISTRY, _csv_table, _damped_flow, _parse,
                        _write_certificate, _write_gain_curve,
                        list_experiments, main, run, validate)
from nsslab.langevin import (OverdampedConfig, build_overdamped,
                             objective_size_function)
from nsslab.nssmc import NssExperiment, run_experiment
from nsslab.objectives import check_nonseparable, quadratic_objective
from nsslab.sde import CovarianceSchedule

EXPECTED = {"ou-sanity", "quadratic-overdamped", "quadratic-underdamped",
            "logistic-overdamped", "logistic-underdamped",
            "lqr-po-overdamped", "lqr-po-underdamped", "gain-sweep",
            "certify-dissipation", "pl-envelope"}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEMO_CSV = CONFIGS / "logistic_demo.csv"
DATASET_EXPERIMENTS = ["logistic-overdamped", "logistic-underdamped",
                       "pl-envelope"]


def write_config(tmp_path, name, extra=""):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nname = {name}\noutput = out\n{extra}")
    return str(cfg)


FAST_CONFIG = """
[problem]
diag = 1

[dynamics]
eta = 1.0
c = 1.0

[mc]
dt = 1e-3
T = 100
master_seed = 7
store_every = 100
"""


def scaled_demo(scale) -> np.ndarray:
    """The shipped dataset's rows with every feature times ``scale``."""
    rows = np.loadtxt(DEMO_CSV, delimiter=",", skiprows=1)
    rows[:, :-1] *= scale
    return rows


def write_dataset(path, rows) -> None:
    """A two-feature dataset CSV whose cells read back bit for bit."""
    with open(path, "w") as fh:
        fh.write("x1,x2,label\n")
        fh.writelines(f"{float(a)!r},{float(b)!r},{int(y)}\n"
                      for a, b, y in rows)


def exits_2_with_one_line(capsys, argv, out) -> str:
    """The one stderr line of a command that exits 2 before ``out``
    exists."""
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert captured.out == ""
    assert not out.exists()
    return lines[0]


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(REGISTRY) == EXPECTED

    def test_list_mentions_every_name(self):
        text = list_experiments()
        for name in EXPECTED:
            assert name in text


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "quadratic-underdamped")
        assert validate(cfg) == 0
        assert "ok" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert validate(str(tmp_path / "nope.ini")) == 2

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, "not-an-experiment")
        assert validate(cfg) == 2

    def test_missing_name_section(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mc]\nN = 10\n")
        assert validate(str(cfg)) == 2


class TestRun:
    def test_fast_experiment_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "quadratic-underdamped", FAST_CONFIG)
        out = tmp_path / "artifacts"
        assert run(cfg, out_dir=str(out)) == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        summary = (out / "summary.txt").read_text()
        assert summary.strip().endswith("PASS overall")
        assert (out / "trajectory.csv").is_file()

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "quadratic-underdamped", FAST_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(cfg, out_dir=str(out1))
        run(cfg, out_dir=str(out2))
        for f in sorted(p.name for p in out1.iterdir()):
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    def test_threads_flag_inert(self, tmp_path):
        cfg = write_config(tmp_path, "quadratic-underdamped", FAST_CONFIG)
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        assert main(["run", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", cfg, "--out", str(out2), "--threads", "8"]) == 0
        for f in sorted(p.name for p in out1.iterdir()):
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2_with_one_line(self, tmp_path, capsys,
                                                      threads):
        cfg = write_config(tmp_path, "quadratic-underdamped", FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--threads" in err, err
        assert not out.exists()

    def test_seed_override_below_zero_exits_2_with_one_line(self, tmp_path,
                                                             capsys):
        cfg = write_config(tmp_path, "quadratic-underdamped", FAST_CONFIG)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--seed-override",
                     "-5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--seed-override" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("target, reason", [
        ("file", "File exists"), ("file/sub", "Not a directory")])
    def test_unusable_out_exits_2_with_one_line(self, tmp_path, capsys,
                                                target, reason):
        cfg = write_config(tmp_path, "quadratic-underdamped", FAST_CONFIG)
        (tmp_path / "file").write_text("kept\n")
        out = tmp_path / target
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out {out}: {reason}\n", err
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_seed_override_changes_noise_draws(self, tmp_path):
        extra = """
[noise]
sigma = 0.3

[mc]
N = 120
dt = 1e-2
T = 5
master_seed = 1
store_every = 10
"""
        cfg = write_config(tmp_path, "ou-sanity", extra)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run(cfg, out_dir=str(out1))
        run(cfg, out_dir=str(out2), seed_override=999)
        a = (out1 / "moments.csv").read_bytes()
        b = (out2 / "moments.csv").read_bytes()
        assert a != b

    def test_missing_blowup_onset_fails(self, tmp_path, capsys):
        # small intensities never reach the 50% blow-up fraction
        extra = """
[noise]
sigmas = 0.01, 0.02

[mc]
N = 100
dt = 1e-2
T = 1
master_seed = 3
store_every = 10
"""
        cfg = write_config(tmp_path, "lqr-po-overdamped", extra)
        out = tmp_path / "onset"
        assert main(["run", cfg, "--out", str(out)]) == 1
        stdout = capsys.readouterr().out
        assert "FAIL blowup-onset: " in stdout
        assert "no upper onset detected" in stdout
        assert "PASS bottom-grid-stable" in stdout
        summary = (out / "summary.txt").read_text()
        assert summary.strip().endswith("FAIL overall")

    def test_unknown_experiment_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "bogus")
        assert run(cfg) == 2

    def test_logistic_dataset_resolved_relative_to_config(self, tmp_path):
        repo_csv = Path(__file__).resolve().parent.parent / "configs" \
            / "logistic_demo.csv"
        (tmp_path / "data.csv").write_bytes(repo_csv.read_bytes())
        extra = """
[problem]
dataset = data.csv

[dynamics]
n_dirs = 32

[mc]
master_seed = 3
"""
        cfg = write_config(tmp_path, "pl-envelope", extra)
        out = tmp_path / "env"
        code = run(cfg, out_dir=str(out))
        assert (out / "envelope.csv").is_file()
        assert code in (0, 1)  # few directions may leave violations

    def test_missing_dataset_reported(self, tmp_path):
        extra = "[problem]\ndataset = nope.csv\n"
        cfg = write_config(tmp_path, "pl-envelope", extra)
        assert run(cfg, out_dir=str(tmp_path / "x")) == 2


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCsvTable:
    def test_doubles_round_trip_exactly(self, tmp_path):
        # 17 significant digits read back to the same double, sign of
        # zero and subnormals included
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.1]
        rng = np.random.default_rng(0)
        scaled = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300,
                                                                 200)
        vals = np.array(special + scaled.tolist())
        f, g = tmp_path / "py.csv", tmp_path / "np.csv"
        _csv_table(f, ["i", "x"], [[i, v] for i, v in
                                   enumerate(vals.tolist())])
        _csv_table(g, ["i", "x"], zip(range(vals.size), vals))
        assert f.read_bytes() == g.read_bytes()  # numpy scalars alike
        rows = read_rows(f)
        assert rows[0] == ["i", "x"]
        assert [int(r[0]) for r in rows[1:]] == list(range(vals.size))
        back = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(back, vals)
        assert np.array_equal(np.signbit(back), np.signbit(vals))

    def test_gain_curve_rows(self, tmp_path):
        obj = quadratic_objective(np.array([[1.0]]), np.zeros(1))
        model = build_overdamped(OverdampedConfig(objective=obj))
        T = 5.0
        exp = NssExperiment(
            dynamics=model, V=objective_size_function(obj),
            schedule_family=[CovarianceSchedule.constant(np.array([[s]]), T)
                             for s in (0.1, 0.2)],
            x0=np.ones(1), N=200, dt=1e-2, T=T, master_seed=0, store_every=5)
        curve = run_experiment(exp)
        f = tmp_path / "curve.csv"
        _write_gain_curve(f, curve)
        rows = read_rows(f)
        assert rows[0] == ["intensity", "tail_quantile", "blowup_fraction"]
        data = np.array(rows[1:], dtype=float)
        assert data.shape == (2, 3)
        assert np.array_equal(data, np.column_stack(
            [curve.intensities, curve.tail_quantiles,
             curve.blowup_fractions]))

    def test_certificate_rows_and_trailer(self, tmp_path):
        cert = SimpleNamespace(kind="NSS", violations=[
            (np.array([0.1, -0.0]), 0.5 * np.eye(2), 1.5, 0.25)])
        f = tmp_path / "cert.csv"
        _write_certificate(f, cert)
        # csv rows end in CRLF; the summary comment ends in a bare LF
        assert f.read_bytes() == (b"state,theta_intensity,lhs,rhs\r\n"
                                  b"0.10000000000000001 -0,0.25,1.5,0.25\r\n"
                                  b"# kind=NSS violations=1\n")
        _write_certificate(f, SimpleNamespace(kind="scNSS", violations=[]))
        assert f.read_bytes() == (b"state,theta_intensity,lhs,rhs\r\n"
                                  b"# kind=scNSS violations=0\n")

    def test_envelope_rows(self, tmp_path):
        extra = f"""
[problem]
dataset = {DEMO_CSV}

[dynamics]
n_dirs = 32
"""
        cfg = write_config(tmp_path, "pl-envelope", extra)
        out = tmp_path / "env"
        assert run(cfg, out_dir=str(out)) in (0, 1)
        rows = read_rows(out / "envelope.csv")
        assert rows[0] == ["h", "mu"]
        data = np.array(rows[1:], dtype=float)
        assert np.array_equal(data[:, 0], np.geomspace(1e-6, 10.0, 200))
        assert np.all(np.diff(data[:, 0]) > 0)
        assert np.all(np.diff(data[:, 1]) >= 0)


class TestConfigValues:
    @pytest.mark.parametrize("experiment,section,key,value", [
        ("ou-sanity", "mc", "N", "abc"),
        ("ou-sanity", "noise", "sigma", "x"),
        ("ou-sanity", "mc", "master_seed", "seven"),
        ("quadratic-overdamped", "noise", "sigmas", "0.1, zz"),
        ("quadratic-overdamped", "noise", "sigmas", ","),
        ("quadratic-underdamped", "problem", "diag", "1,two"),
        ("lqr-po-overdamped", "problem", "a", "one"),
    ])
    def test_bad_value_exits_2_with_one_line(self, tmp_path, capsys,
                                             experiment, section, key,
                                             value):
        cfg = write_config(tmp_path, experiment,
                           f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main(["run", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: [{section}] {key} = {value!r}")
        assert captured.out == ""


def lower_cased_copy(src: Path, dst: Path) -> Path:
    """A shipped config read and written back by configparser, which
    lower-cases every key, with the dataset path made absolute."""
    cfg = configparser.ConfigParser()
    cfg.read(src)
    if cfg.has_option("problem", "dataset"):
        cfg.set("problem", "dataset",
                str((src.parent / cfg.get("problem", "dataset")).resolve()))
    with open(dst, "w") as fh:
        cfg.write(fh)
    return dst


class TestSchema:
    """``validate`` and ``run`` read every config through one schema."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                             ids=lambda p: p.stem)
    def test_shipped_and_lower_cased_configs_validate(self, tmp_path, path,
                                                      capsys):
        assert validate(str(path)) == 0
        copy = lower_cased_copy(path, tmp_path / path.name)
        assert validate(str(copy)) == 0
        assert "ok: " in capsys.readouterr().out

    def test_lower_cased_keys_are_read_not_defaulted(self, tmp_path):
        # N and T of gain_sweep differ from the code defaults (2000, 50)
        copy = lower_cased_copy(CONFIGS / "gain_sweep.ini",
                                tmp_path / "gain_sweep.ini")
        copy.write_text(copy.read_text().replace("t = 50", "t = 8"))
        assert "\nn = 10000\n" in copy.read_text()
        fn, v = _parse(str(copy))
        assert fn is REGISTRY["gain-sweep"][0]
        assert (v.N, v.T, v.dt, v.diag) == (10000, 8.0, 1e-3, [1.0])

    # experiment, config body, section and key the one error line names
    # (None: the section has no key to name)
    BAD = [
        ("quadratic-overdamped", "[mc]\nN = 10\n", "mc", "N"),
        ("ou-sanity", "[mc]\nmaster_seed = -1\n", "mc", "master_seed"),
        ("quadratic-overdamped", "[noise]\nsigmas = 0.4, 0.2, 0.1\n",
         "noise", "sigmas"),
        ("quadratic-overdamped", "[noise]\nsigmas = -0.1, 0.2\n", "noise",
         "sigmas"),
        ("quadratic-underdamped", "[problem]\ndiag = 1, -1\n", "problem",
         "diag"),
        ("ou-sanity", "[mc]\nT = 50.0005\n", "mc", "T"),
        ("ou-sanity", "[mc]\ndt = -1\n", "mc", "dt"),
        ("ou-sanity", "[mc]\ndt = 60\n", "mc", "dt"),
        ("ou-sanity", "[mc]\nstore_every = 0\n", "mc", "store_every"),
        ("ou-sanity", "[mc]\nT = inf\n", "mc", "T"),
        ("gain-sweep", "[problem]\ndiag = 1\n[nosie]\nsigmas = 0.1\n",
         "nosie", "sigmas"),
        ("gain-sweep", "[problem]\ndiag = 1\n[mc]\nstore_evry = 5\n",
         "mc", "store_evry"),
        ("gain-sweep", "[problem]\ndiag = 1, 1\n", "problem", "diag"),
        ("gain-sweep", "[mc]\nN = 100\n", "problem", "diag"),
        ("quadratic-overdamped", "[mc]\nepsilon = 1.5\n", "mc", "epsilon"),
        ("lqr-po-overdamped", "[noise]\nsigmas = 0.5\n", "noise", "sigmas"),
        ("lqr-po-overdamped", "[problem]\nr = 0\n", "problem", "r"),
        ("ou-sanity", "[plots]\n", "plots", None),
        ("ou-sanity", "[dynamics]\nn_dirs = 8\n", "dynamics", "n_dirs"),
        ("lqr-po-underdamped", "[dynamics]\ntol = 1e-2\n[mc]\nT = 30\n",
         "mc", "dt"),
        ("lqr-po-underdamped", "[dynamics]\ntol = 1e-2\n[mc]\ndt = 1e-3\n",
         "mc", "T"),
        ("lqr-po-underdamped", "[mc]\ndt = 1e-3\nT = 30\n", "dynamics",
         "tol"),
        ("pl-envelope", "[dynamics]\nn_dirs = 8\n", "problem", "dataset"),
        ("pl-envelope", "[problem]\ndataset = nope.csv\n", "problem",
         "dataset"),
        # K0 = 2 leaves a - f K0 = 1 unstable
        ("lqr-po-overdamped", "[problem]\na = 3.0\n", "problem", "a"),
        ("lqr-po-underdamped", "[problem]\na = 3.0\n[dynamics]\ntol = 1e-2"
         "\n[mc]\ndt = 1e-3\nT = 30\n", "problem", "a"),
        # f = 0 passes the K0 rule when a < 0, but the K-PL modulus
        # divides by |F|
        ("lqr-po-overdamped", "[problem]\nf = 0\na = -1\n", "problem", "f"),
        ("lqr-po-underdamped", "[problem]\nf = 0\na = -1\n[dynamics]\n"
         "tol = 1e-2\n[mc]\ndt = 1e-3\nT = 30\n", "problem", "f"),
        # gain-sweep's chi-square oracle divides by sigma^2
        ("gain-sweep", "[problem]\ndiag = 1\n[noise]\nsigmas = 0, 0.2\n",
         "noise", "sigmas"),
        # ou-sanity's relative error divides by sigma^2 / 2
        ("ou-sanity", "[noise]\nsigma = 0\n", "noise", "sigma"),
        # gain-sweep's decay envelope V0 (1 - dt)^(2k) needs dt < 1
        ("gain-sweep", "[problem]\ndiag = 1\n[mc]\ndt = 1\nT = 50\n",
         "mc", "dt"),
        # q / r overflows the Riccati iteration's cost from K0 = 2
        ("lqr-po-overdamped", "[problem]\nq = 1e300\nr = 1e-300\n",
         "problem", "q"),
        ("lqr-po-underdamped", "[problem]\nq = 1e300\nr = 1e-300\n"
         "[dynamics]\ntol = 1e-2\n[mc]\ndt = 1e-3\nT = 30\n", "problem",
         "q"),
    ]

    @pytest.mark.parametrize("experiment,body,section,key", BAD)
    def test_bad_config_exits_2_before_any_output(self, tmp_path, capsys,
                                                  experiment, body, section,
                                                  key):
        cfg = write_config(tmp_path, experiment, body)
        out = tmp_path / "o"
        for argv in (["validate", cfg], ["run", cfg, "--out", str(out)]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert f"[{section}]" in lines[0], lines
            assert key is None or key in lines[0], lines
            assert captured.out == ""
            assert not out.exists()

    # dataset files with no logistic table: empty, a cell that is no
    # number, a label that is neither 0 nor 1
    BAD_DATASETS = {"empty": "", "not-a-number": "x1,label\n0.5,1\nabc,0\n",
                    "label-2": "x1,label\n0.5,1\n-0.5,2\n"}

    @pytest.mark.parametrize("body", list(BAD_DATASETS.values()),
                             ids=list(BAD_DATASETS))
    def test_malformed_dataset_exits_2_before_any_output(self, tmp_path,
                                                         capsys, body):
        (tmp_path / "data.csv").write_text(body)
        cfg = write_config(tmp_path, "pl-envelope",
                           "[problem]\ndataset = data.csv\n")
        out = tmp_path / "o"
        for argv in (["validate", cfg], ["run", cfg, "--out", str(out)]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1, lines
            assert lines[0].startswith("error: [problem] dataset "), lines
            assert captured.out == ""
            assert not out.exists()

    @pytest.mark.parametrize("experiment", DATASET_EXPERIMENTS)
    def test_separable_dataset_exits_2_before_any_output(self, tmp_path,
                                                         capsys,
                                                         experiment):
        # x1 separates the labels, so the loss has no minimizer; the LP
        # that decides it loads scipy, which validate does not
        (tmp_path / "data.csv").write_text(
            "x1,x2,label\n1,0,1\n2,1,1\n-1,0,0\n-2,-1,0\n")
        cfg = write_config(tmp_path, experiment,
                           "[problem]\ndataset = data.csv\n")
        out = tmp_path / "o"
        assert main(["validate", cfg]) == 0
        capsys.readouterr()
        assert main(["run", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: [problem] dataset "), lines
        assert "separable" in lines[0], lines
        assert captured.out == ""
        assert not out.exists()

    # datasets at the ends of the float range, each with the commands that
    # reject it and a word of the one line they print: a separable set whose
    # unscaled margin LP failed (HiGHS "Model error"), features whose scaling
    # by a power of two loses a subnormal entry, and the demo at 1e300,
    # whose X X^T overflows
    EXTREME_DATASETS = {
        "separable-1e16": ([[1e16, 2e16, 1], [-1e16, 1e15, 0],
                            [3e15, -1e16, 1]], ["run"], "separable"),
        "inexact-scaling": ([[1e10, 5e-324, 1], [-1, 1, 0], [1, -1, 1]],
                            ["run"], "power of two"),
        "demo-1e300": (1e300, ["validate", "run"], "overflow")}

    @pytest.mark.parametrize("case", list(EXTREME_DATASETS))
    def test_extreme_scale_dataset_exits_2_before_any_output(self, tmp_path,
                                                             capsys, case):
        rows, commands, word = self.EXTREME_DATASETS[case]
        if np.ndim(rows) == 0:
            rows = scaled_demo(rows)
        write_dataset(tmp_path / "data.csv", rows)
        cfg = write_config(tmp_path, "pl-envelope",
                           "[problem]\ndataset = data.csv\n")
        out = tmp_path / "o"
        assert main(["validate", cfg]) == (2 if "validate" in commands
                                           else 0)
        capsys.readouterr()
        line = exits_2_with_one_line(capsys, ["run", cfg, "--out", str(out)],
                                     out)
        assert line.startswith("error: [problem] dataset "), line
        assert word in line, line

    def test_large_scale_demo_fits_at_once(self, tmp_path):
        # the demo's features times 1e8: nonseparable and certified, but
        # |grad| <= 1e-10 is out of reach at that scale; the fit stops at
        # the step that leaves theta unchanged instead of running 2e6 steps
        write_dataset(tmp_path / "data.csv", scaled_demo(1e8))
        cfg = write_config(tmp_path, "pl-envelope",
                           "[problem]\ndataset = data.csv\n"
                           "[dynamics]\nn_dirs = 8\n")
        start = time.perf_counter()
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("experiment", DATASET_EXPERIMENTS)
    def test_non_finite_feature_exits_2_before_any_output(self, tmp_path,
                                                          capsys, experiment,
                                                          cell):
        (tmp_path / "data.csv").write_text(
            f"x1,x2,label\n0.5,{cell},1\n-0.5,1,0\n1,-1,1\n")
        cfg = write_config(tmp_path, experiment,
                           "[problem]\ndataset = data.csv\n")
        out = tmp_path / "o"
        for argv in (["validate", cfg], ["run", cfg, "--out", str(out)]):
            line = exits_2_with_one_line(capsys, argv, out)
            assert line.startswith("error: [problem] dataset "), line
            assert "finite" in line, line

    def test_undecodable_config_exits_2_before_any_output(self, tmp_path,
                                                          capsys):
        # a UTF-16 byte-order mark, which UTF-8 cannot decode
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(b"\xff\xfe[experiment]\nname = ou-sanity\n")
        out = tmp_path / "o"
        for argv in (["validate", str(cfg)],
                     ["run", str(cfg), "--out", str(out)]):
            line = exits_2_with_one_line(capsys, argv, out)
            assert line.startswith(f"error: {cfg}: "), line

    @pytest.mark.parametrize("experiment", DATASET_EXPERIMENTS)
    def test_run_decides_separability_once(self, tmp_path, monkeypatch,
                                           experiment):
        # the margin LPs of run's check also give logistic-overdamped's
        # dataset-nonseparable line
        body = {"logistic-overdamped": "[mc]\nN = 10\nT = 1\n",
                "logistic-underdamped": "[mc]\nT = 1\n",
                "pl-envelope": "[dynamics]\nn_dirs = 8\n"}[experiment]
        reports = []

        def counted(model):
            reports.append(check_nonseparable(model))
            return reports[-1]

        monkeypatch.setattr("nsslab.objectives.check_nonseparable", counted)
        cfg = write_config(tmp_path, experiment,
                           f"[problem]\ndataset = {DEMO_CSV}\n{body}")
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) in (0, 1)
        assert len(reports) == 1

    def test_logistic_overdamped_accepts_zero_sigma(self, tmp_path):
        # its tail check needs no division by sigma
        cfg = write_config(tmp_path, "logistic-overdamped",
                           f"[problem]\ndataset = {DEMO_CSV}\n"
                           "[noise]\nsigma = 0\n[mc]\nN = 10\nT = 1\n")
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_logistic_overdamped_without_valid_tail_pair_fails(self,
                                                               tmp_path,
                                                               capsys):
        # sigma = 1e13 leaves no path valid in the tail window: the tail
        # quantile is NaN, which fails the tail line instead of crashing
        cfg = write_config(tmp_path, "logistic-overdamped",
                           f"[problem]\ndataset = {DEMO_CSV}\n"
                           "[noise]\nsigma = 1e13\n[mc]\nN = 100\nT = 1\n")
        out = tmp_path / "o"
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAIL noisy-tail-bounded: " in captured.out
        assert "Traceback" not in captured.err
        assert read_rows(out / "tail.csv") == [["tail_quantile_95"], ["nan"]]

    def test_gain_sweep_accepts_a_horizon_on_the_dt_grid(self, tmp_path,
                                                          capsys):
        # T = 30 is 10,000 steps of dt = 0.003, the one grid gain-sweep
        # integrates on
        cfg = write_config(tmp_path, "gain-sweep",
                           "[problem]\ndiag = 1\n[mc]\ndt = 0.003\nT = 30\n")
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out.startswith("ok: ")


class TestMain:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quadratic-overdamped" in out

    def test_validate_command(self, tmp_path):
        cfg = write_config(tmp_path, "ou-sanity")
        assert main(["validate", cfg]) == 0



def assert_flow_is_expm(a, eta, c):
    from scipy.linalg import expm

    M = np.array([[0.0, 1.0], [-eta * a, -c]])
    for t in (0.0, 1e-3, 0.7, 5.0, 100.0):
        want = expm(M * t)
        # expm itself is about 1e-11 off at t = 100
        err = np.abs(_damped_flow(a, eta, c, t) - want).max()
        assert err <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("a", [0.25, 1.0, 2.0, 37.0])
@pytest.mark.parametrize("eta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("c", [0.1, 1.0, 2.0, 4.0])
def test_damped_flow_is_the_matrix_exponential(a, eta, c):
    # under- and overdamped blocks, and critical damping (eta a = c^2 / 4
    # exactly) at (1, 1, 2), (0.25, 1, 1) and (2, 0.5, 2)
    assert_flow_is_expm(a, eta, c)

