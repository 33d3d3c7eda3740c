"""nsslab benchmark: shipped ``nsslab run`` workloads, timed end to end,
plus a traced in-process run that attributes the time to the eight layers.

Run from the repository root::

    python3 perfbench/run.py --workload ensemble-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload lqr-policy --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --check          # golden digests of all 10 shipped configs
    python3 perfbench/run.py --record-golden  # rewrite perfbench/golden_digests.json

``--trace 0`` runs the workload as fresh ``python -m nsslab.cli run``
subprocesses in a closed loop (one run at a time) and reports the
end-to-end metrics: the median over the iterations that fit in
``--seconds`` (at least one), with quartiles and the sample count.
``--trace 1`` runs the workload in-process through ``nsslab.cli.main``,
once untraced and once under :class:`spans.Tracer`, and reports the
per-layer metrics.  Both modes check every run: exit status 0, only PASS
lines in ``summary.txt``, and SHA-256 digests of every output file equal
to the reference (the committed table at seed 0 for unmodified shipped
configs, else the first repeat of the same run).

``--seed n`` sets each config's master seed to its shipped value plus n,
so seed 0 reproduces the shipped runs.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the full report with quartiles and
machine facts.  Scratch files go to ``.perfbench_work/`` under the
repository root and are removed after each run.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench_work"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"

THREADS = 2  # passed as --threads; inert today, fixed so sharding can show
SETUP_REPS = 3

WORKLOADS = {
    "ensemble-sweep": {
        "why": "dense B=1e4 ensembles: sde noise and steps, nssmc reductions "
               "and the batched quadratic gradient; little lqr or lyapcert",
        # T shortened from 50 to fit the run budget; N, dt and sigmas kept
        "configs": [("gain_sweep", {"mc": {"T": "8"}})],
    },
    "lqr-policy": {
        "why": "small batches (B=100, B=1 for 30k steps): per-step overhead, "
               "batched_gain_stats on 1x1 gains and FD Hessians",
        "configs": [("lqr_po_overdamped", {}), ("lqr_po_underdamped", {})],
    },
    "certify-oracles": {
        "why": "scalar generator_apply over 29,970 pairs, class functions, "
               "logistic oracles, PL envelope and short single paths",
        "configs": [("certify_dissipation", {}), ("pl_envelope", {}),
                    ("logistic_overdamped", {}), ("logistic_underdamped", {}),
                    ("quadratic_underdamped", {})],
        "sizes": {"certify_dissipation": "3 certificates x 999 states x "
                                         "10 thetas = 29,970 pairs",
                  "pl_envelope": "256 directions, 1,002 held-out points"},
    },
}

SHIPPED = ["certify_dissipation", "gain_sweep", "logistic_overdamped",
           "logistic_underdamped", "lqr_po_overdamped", "lqr_po_underdamped",
           "ou_sanity", "pl_envelope", "quadratic_overdamped",
           "quadratic_underdamped"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or configs)."""


# ------------------------------------------------------------------ configs

@dataclass(frozen=True)
class Job:
    stem: str
    config: Path
    seed: int
    modified: bool


def read_config(path: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise BenchError(f"config not found: {path}")
    return cfg


def derive_config(src: Path, overrides: dict, dst: Path) -> Path:
    """Copy of a shipped config with overrides; the dataset path is made
    absolute because nsslab resolves it relative to the config file."""
    cfg = read_config(src)
    for section, values in overrides.items():
        for key, value in values.items():
            cfg.set(section, key, value)
    if cfg.has_option("problem", "dataset"):
        cfg.set("problem", "dataset",
                str((src.parent / cfg.get("problem", "dataset")).resolve()))
    with open(dst, "w") as fh:
        cfg.write(fh)
    return dst


def shipped_seed(path: Path) -> int:
    return read_config(path).getint("mc", "master_seed", fallback=0)


def prepare(workload: str, seed: int, work: Path) -> list[Job]:
    jobs = []
    for stem, overrides in WORKLOADS[workload]["configs"]:
        src = CONFIGS / f"{stem}.ini"
        base = shipped_seed(src)
        path = derive_config(src, overrides, work / f"{stem}.ini") \
            if overrides else src
        jobs.append(Job(stem, path, base + seed, bool(overrides)))
    return jobs


def input_sizes(workload: str, jobs: list[Job]) -> dict:
    out = {}
    stated = WORKLOADS[workload].get("sizes", {})
    for job in jobs:
        cfg = read_config(job.config)
        info = {f"{s}.{k}": v for s in ("problem", "dynamics", "noise", "mc")
                if cfg.has_section(s) for k, v in cfg.items(s)
                if k not in ("dataset", "master_seed")}
        if cfg.has_option("mc", "T") and cfg.has_option("mc", "dt"):
            info["steps"] = round(cfg.getfloat("mc", "T")
                                  / cfg.getfloat("mc", "dt"))
        if job.stem in stated:
            info["stated"] = stated[job.stem]
        info["master_seed"] = job.seed
        out[job.stem] = info
    return out


# ------------------------------------------------------- outputs and checks

def digest_dir(path: Path) -> dict[str, str]:
    """SHA-256 of every file under ``path``, keyed by relative path."""
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def digest_mismatches(got: dict, want: dict) -> list[str]:
    """Files that differ, are missing or are extra, sorted by name."""
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def judge_run(exit_code: int, out: Path, reference: dict | None
              ) -> tuple[dict, list[str]]:
    """Digests of a run's outputs and the reasons it failed (empty if ok).

    A run fails on a non-zero exit, on a missing summary or any line of it
    that is not PASS, and on a digest that differs from the reference.
    """
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit {exit_code}")
    summary = out / "summary.txt"
    if not summary.is_file():
        reasons.append("no summary.txt")
    else:
        bad = [ln for ln in summary.read_text().splitlines()
               if not ln.startswith("PASS ")]
        if bad:
            reasons.append(f"not PASS: {bad[0]}")
    digests = digest_dir(out) if out.is_dir() else {}
    if reference is not None:
        diff = digest_mismatches(digests, reference)
        if diff:
            reasons.append(f"digest mismatch: {', '.join(diff)}")
    return digests, reasons


def failed_frac(outcomes: list[list[str]]) -> float:
    return sum(1 for r in outcomes if r) / len(outcomes) if outcomes else 0.0


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}


def reference_for(job: Job, seed: int, golden: dict) -> dict | None:
    if seed == 0 and not job.modified:
        return golden.get(job.stem)
    return None


# ------------------------------------------------------------- processes

@dataclass
class Proc:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def nsslab_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(args: list[str], log: Path) -> Proc:
    """Run ``python -m nsslab.cli <args>`` and take its own rusage.

    ``os.wait4`` gives the rusage of this child alone; RUSAGE_CHILDREN
    would keep the maximum RSS of every earlier child.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-m", "nsslab.cli", *args],
                             stdout=fh, stderr=subprocess.STDOUT,
                             env=nsslab_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)


def run_args(job: Job, out: Path) -> list[str]:
    return ["run", str(job.config), "--out", str(out), "--seed-override",
            str(job.seed), "--threads", str(THREADS)]


# ------------------------------------------------------------- statistics

def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------- timed mode

@dataclass
class Tally:
    outcomes: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # checks beyond runs

    def add(self, label: str, reasons: list[str]) -> None:
        """Record one nsslab run and the reasons it failed, if any."""
        self.outcomes.append(reasons)
        if reasons:
            self.notes.append(f"{label}: {'; '.join(reasons)}")



def timed(workload: str, seed: int, seconds: float, work: Path):
    jobs = prepare(workload, seed, work)
    golden = load_golden()
    tally = Tally()

    setup = []
    for i in range(SETUP_REPS):
        job = jobs[i % len(jobs)]
        proc = run_process(["validate", str(job.config)], work / "validate.log")
        if proc.exit_code != 0:
            raise BenchError(f"validate {job.stem} exited {proc.exit_code}")
        setup.append(proc.wall_s)

    refs = {job.stem: reference_for(job, seed, golden) for job in jobs}
    walls, cpus, rss = [], [], []
    t0 = time.perf_counter()
    while True:
        it = len(walls)
        wall = cpu = peak = 0.0
        for job in jobs:
            out = work / f"it{it}" / job.stem
            proc = run_process(run_args(job, out), work / f"{job.stem}.log")
            digests, reasons = judge_run(proc.exit_code, out, refs[job.stem])
            tally.add(f"{job.stem} iteration {it}", reasons)
            if refs[job.stem] is None and not reasons:
                refs[job.stem] = digests
            wall += proc.wall_s
            cpu += proc.cpu_s
            peak = max(peak, proc.rss_mb)
            shutil.rmtree(out, ignore_errors=True)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        # stop before an iteration of the mean length would overrun
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(walls) > seconds:
            break

    stats = {"setup_s": summarize(setup), "wall_s": summarize(walls),
             "cpu_s": summarize(cpus), "peak_rss_mb": summarize(rss)}
    return stats, tally, jobs


# -------------------------------------------------------------- trace mode

def import_nsslab():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nsslab.cli
    if Path(nsslab.cli.__file__).resolve().parent != (SRC / "nsslab"):
        raise BenchError(f"nsslab imported from {nsslab.cli.__file__}, "
                         f"not from {SRC}")
    return nsslab.cli


def step_probe(sde, batch: int, steps: int, reps: int = 3) -> float:
    """Microseconds per integrator step of a fixed OU model at batch size
    ``batch``, from the difference of a 2*steps and a steps run, so the
    per-path seeding and generator set-up cancel."""
    model = sde.DiffusionModel(state_dim=1, noise_dim=1, drift=lambda z: -z)
    dt = 1e-3

    def once(n):
        sched = sde.CovarianceSchedule.constant(np.array([[0.5]]), n * dt)
        t0 = time.perf_counter()
        sde.simulate_ensemble(model, sched, np.zeros(1), dt, n * dt, batch,
                              7, store_every=25)
        return time.perf_counter() - t0

    per = [(once(2 * steps) - once(steps)) / steps for _ in range(reps)]
    return statistics.median(per) * 1e6


def run_inprocess(cli, jobs: list[Job], work: Path, tag: str,
                  refs: dict, tally: Tally) -> tuple[float, dict, int]:
    wall, digests, nbytes = 0.0, {}, 0
    for job in jobs:
        out = work / tag / job.stem
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            code = cli.main(run_args(job, out))
        wall += time.perf_counter() - t0
        digests[job.stem], reasons = judge_run(code, out, refs.get(job.stem))
        tally.add(f"{job.stem} {tag}", reasons)
        nbytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
    return wall, digests, nbytes


def traced(workload: str, seed: int, work: Path):
    jobs = prepare(workload, seed, work)
    cli = import_nsslab()
    import nsslab.sde as sde
    probes = {f"sde.us_per_step.b{b}": step_probe(sde, b, s)
              for b, s in ((1, 5000), (100, 2000), (10000, 1000))}

    golden = load_golden()
    tally = Tally()
    refs = {job.stem: reference_for(job, seed, golden) for job in jobs}
    # traced first: first-call costs then land on it, so the overhead is
    # not understated; the untraced repeat must reproduce its digests
    log = spans.SpanLog()
    with spans.Tracer(log):
        traced_wall, traced_digests, nbytes = run_inprocess(
            cli, jobs, work, "traced", refs, tally)
    plain_wall, _, _ = run_inprocess(cli, jobs, work, "untraced",
                                     traced_digests, tally)
    metrics = spans.layer_metrics(log, traced_wall, plain_wall, nbytes)
    metrics.update(probes)
    share = metrics["cli.unattributed_s"] / traced_wall
    if share > 0.10:
        tally.problems.append(f"unattributed {share:.1%} of traced wall "
                              "(> 10%)")
    return metrics, tally, jobs


# ----------------------------------------------------------- machine facts

def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked of the
    library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return str(fn())
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import scipy
    mem_kb = cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/meminfo") as fh:
            mem_kb = next(int(ln.split()[1]) for ln in fh
                          if ln.startswith("MemTotal"))
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": None if mem_kb is None else round(mem_kb / 1024),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
        "threads_flag": THREADS,
    }


# -------------------------------------------------------------- check mode

def check_golden(record: bool, work: Path) -> int:
    golden = {} if record else load_golden()
    status = 0
    for stem in SHIPPED:
        path = CONFIGS / f"{stem}.ini"
        job = Job(stem, path, shipped_seed(path), False)
        out = work / "check" / stem
        proc = run_process(run_args(job, out), work / f"{stem}.log")
        digests, reasons = judge_run(proc.exit_code, out,
                                     None if record else golden.get(stem, {}))
        if record and not reasons:
            golden[stem] = digests
        print(f"{'ok  ' if not reasons else 'FAIL'} {stem:<22} "
              f"{proc.wall_s:7.2f} s  {'; '.join(reasons)}", flush=True)
        status |= bool(reasons)
        shutil.rmtree(out, ignore_errors=True)
    if record and not status:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    return 1 if status else 0


# -------------------------------------------------------------------- main

def check_checkout() -> None:
    for need in (SRC / "nsslab" / "cli.py", CONFIGS):
        if not need.exists():
            raise BenchError(f"{need} is missing: run from a full checkout")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run all shipped configs at their shipped seeds "
                         "and compare digests with the committed table")
    ap.add_argument("--record-golden", action="store_true",
                    help="like --check, but rewrite the digest table")
    args = ap.parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (args.check or args.record_golden) and args.workload is None:
        ap.error("--workload is required")

    # a SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.check or args.record_golden:
            return check_golden(args.record_golden, work)
        if args.trace:
            values, tally, jobs = traced(args.workload, args.seed, work)
            units = spans.PER_LAYER
            stats = {k: {"median": v, "n": 1} for k, v in values.items()}
        else:
            stats, tally, jobs = timed(args.workload, args.seed, args.seconds,
                                       work)
            units = END_TO_END
        sizes = input_sizes(args.workload, jobs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(tally.outcomes)
    failed = sum(1 for r in tally.outcomes if r)
    correct = failed == 0 and not tally.problems
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"failed_frac {failed_frac(tally.outcomes):.3f} "
          f"({failed}/{attempted} runs)")
    for note in tally.notes + tally.problems:
        print(f"  FAILED {note}")
    for name, unit in units.items():
        s = stats[name]
        spread = (f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else "")
        print(f"  {name:<40} {s['median']:>14.6g} {unit:<6} "
              f"n={s['n']}{spread}")
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "failed_frac": failed_frac(tally.outcomes),
              "stats": stats, "inputs": sizes, "machine": machine_facts()}
    print(json.dumps({"report": report}, sort_keys=True))
    result = {"correct": correct, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": stats[k]["median"], "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
