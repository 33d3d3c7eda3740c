"""Tests of the benchmark's own logic: span arithmetic, run judging,
digest comparison and repeatable trace counts.

Run from the repository root with ``python -m pytest -q perfbench``.
"""

import json

import numpy as np
import pytest

import run
import spans


def test_self_time_subtracts_direct_children_on_nested_tree():
    #   0 [0, 10]
    #   +-- 1 [1, 4]
    #   |   +-- 2 [2, 3]
    #   +-- 3 [5, 9]
    #       +-- 4 [6, 7]
    #       +-- 5 [7.5, 8]
    #   6 [11, 12]  (second root)
    parent = [-1, 0, 1, 0, 3, 3, -1]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.5, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 12.0]
    got = spans.self_times(parent, start, end)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 2.5, 1.0, 0.5, 1.0])


def _fake_log(events):
    """SpanLog built from (name, start, end, parent) tuples in start order."""
    log = spans.SpanLog()
    open_ = []
    for name, t0, t1, parent in events:
        while open_ and open_[-1][1] <= t0:
            log.close(open_.pop()[0])
        idx = log.open(log.name_index(name))
        assert log.parent[idx] == parent
        log.start[idx] = t0
        open_.append((idx, t1))
    while open_:
        log.close(open_.pop()[0])
    for idx, (_, _, t1, _) in enumerate(events):
        log.end[idx] = t1
    return log


def test_span_stats_count_recursion_once_and_root_coverage():
    log = _fake_log([("a", 0.0, 6.0, -1), ("a", 1.0, 3.0, 0),
                     ("b", 3.5, 5.0, 0), ("b", 7.0, 8.0, -1)])
    stats = spans.span_stats(log)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(6.0)  # nested call not added
    assert stats["a"].self_s == pytest.approx((6.0 - 2.0 - 1.5) + 2.0)
    assert stats["b"] == spans.SpanStat(2, pytest.approx(2.5),
                                        pytest.approx(2.5))
    assert spans.root_covered_s(log) == pytest.approx(7.0)


def _out_dir(tmp_path, name, summary):
    out = tmp_path / name
    out.mkdir()
    if summary is not None:
        (out / "summary.txt").write_text(summary)
    return out


def test_failed_frac_counts_exit_codes_fail_lines_and_missing_summary(
        tmp_path):
    ok = "PASS a: x\nPASS overall\n"
    cases = [(0, _out_dir(tmp_path, "ok", ok)),
             (1, _out_dir(tmp_path, "exit", ok)),
             (0, _out_dir(tmp_path, "fail", "FAIL a: x\nFAIL overall\n")),
             (0, _out_dir(tmp_path, "none", None))]
    outcomes = [run.judge_run(code, out, None)[1] for code, out in cases]
    assert outcomes[0] == []
    assert outcomes[1] == ["exit 1"]
    assert outcomes[2] == ["not PASS: FAIL a: x"]
    assert outcomes[3] == ["no summary.txt"]
    assert run.failed_frac(outcomes) == pytest.approx(0.75)
    assert run.failed_frac([]) == 0.0


def test_digest_mismatch_fails_a_run(tmp_path):
    out = _out_dir(tmp_path, "run", "PASS overall\n")
    (out / "a.csv").write_text("1\n")
    digests, reasons = run.judge_run(0, out, None)
    assert sorted(digests) == ["a.csv", "summary.txt"] and reasons == []
    assert run.judge_run(0, out, digests)[1] == []

    changed = dict(digests, **{"a.csv": "0" * 64})
    extra = dict(digests, **{"b.csv": "0" * 64})
    missing = {"summary.txt": digests["summary.txt"]}
    assert run.digest_mismatches(digests, changed) == ["a.csv"]
    assert run.digest_mismatches(digests, extra) == ["b.csv"]
    assert run.digest_mismatches(digests, missing) == ["a.csv"]
    assert run.judge_run(0, out, changed)[1] == ["digest mismatch: a.csv"]


def test_generated_config_resolves_dataset_absolutely(tmp_path):
    src = run.CONFIGS / "logistic_overdamped.ini"
    dst = run.derive_config(src, {"mc": {"T": "2"}}, tmp_path / "c.ini")
    cfg = run.read_config(dst)
    dataset = cfg.get("problem", "dataset")
    assert dataset == str((run.CONFIGS / "logistic_demo.csv").resolve())
    assert cfg.get("mc", "T") == "2"


SMALL = [("certify_dissipation", {}), ("pl_envelope", {}),
         ("logistic_underdamped", {"mc": {"T": "5"}}),
         ("gain_sweep", {"mc": {"N": "100", "T": "0.5"}}),
         ("lqr_po_overdamped", {"mc": {"T": "0.2"}}),
         ("lqr_po_underdamped", {"mc": {"T": "0.3"}})]


def _traced(cli, jobs, work):
    log = spans.SpanLog()
    with spans.Tracer(log):
        wall, digests, nbytes = run.run_inprocess(cli, jobs, work, "t", {},
                                                  run.Tally())
    return spans.layer_metrics(log, wall, wall, nbytes), digests


def test_count_metrics_repeat_exactly_across_traced_runs(tmp_path):
    cli = run.import_nsslab()
    jobs = [run.Job(stem, run.derive_config(run.CONFIGS / f"{stem}.ini", o,
                                            tmp_path / f"{stem}.ini"), 3, True)
            for stem, o in SMALL]
    first, digests1 = _traced(cli, jobs, tmp_path)
    second, digests2 = _traced(cli, jobs, tmp_path)
    counts = [k for k, unit in spans.PER_LAYER.items()
              if unit in ("count", "bytes", "ratio")]
    probes = {k for k in spans.PER_LAYER if k.startswith("sde.us_per_step")}
    assert set(first) == set(spans.PER_LAYER) - probes
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert digests1 == digests2
    for key in ("sde.path_steps", "lqr.batched_gain_stats.rows",
                "lyapcert.generator_apply.calls", "compfun.class_fn.calls",
                "objectives.value.calls.lqr", "langevin.drift.calls"):
        assert first[key] > 0, key
    assert first["lyapcert.violations"] == 0


def test_tracer_restores_every_binding():
    cli = run.import_nsslab()
    import nsslab.lqr as lqr
    import nsslab.nssmc as nssmc
    from nsslab.compfun import ScalarClassFunction
    before = (cli.run_experiment, nssmc.simulate_ensemble,
              lqr.batched_gain_stats, ScalarClassFunction.__call__)
    with spans.Tracer(spans.SpanLog()):
        assert cli.run_experiment is not before[0]
        assert nssmc.simulate_ensemble is not before[1]
    assert (cli.run_experiment, nssmc.simulate_ensemble,
            lqr.batched_gain_stats, ScalarClassFunction.__call__) == before


def test_benchmark_json_names_the_emitted_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == spans.PER_LAYER
