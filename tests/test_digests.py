"""Artifact digests of shortened shipped configs.

Each case runs a shipped config with a shorter horizon T and compares
the SHA-256 digest of every file it writes, and its exit status, with
``reduced_digests.json``.  A change that moves any bit of these runs
fails here, in seconds; ``perfbench/run.py --check`` stays the full
check of every shipped config.

A change that moves bits on purpose re-records the table, and says why::

    PYTHONPATH=src python tests/test_digests.py --record
"""

import configparser
import hashlib
import json
import sys
from pathlib import Path

import pytest

from nsslab import langevin
from nsslab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DIGESTS = Path(__file__).resolve().with_name("reduced_digests.json")
# shipped config -> shortened horizon T
REDUCED = {"gain_sweep": "2", "logistic_overdamped": "10",
           "logistic_underdamped": "20", "lqr_po_overdamped": "1",
           "lqr_po_underdamped": "3", "ou_sanity": "2",
           "quadratic_overdamped": "1", "quadratic_underdamped": "5"}


def run_reduced(stem: str, work: Path) -> dict:
    """Exit status and per-file digests of one shortened run."""
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read(CONFIGS / f"{stem}.ini")
    cfg["mc"]["T"] = REDUCED[stem]
    if cfg.has_option("problem", "dataset"):  # relative to the config
        cfg["problem"]["dataset"] = str(CONFIGS / cfg["problem"]["dataset"])
    path = work / f"{stem}.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    out = work / stem
    code = main(["run", str(path), "--out", str(out)])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())}
    return {"exit": code, "files": files}


@pytest.mark.parametrize("stem", sorted(REDUCED))
def test_reduced_run_matches_recorded_digests(stem, tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())[stem]
    assert run_reduced(stem, tmp_path) == want


def test_one_path_runs_split_between_the_two_loops(tmp_path, monkeypatch,
                                                   capsys):
    # the noiseless LQR and quadratic paths step on Python floats, so
    # their recorded digests come out with the batch drift refusing every
    # call; the logistic objective has no point oracle, so its path keeps
    # the array loop and calls the batch drift
    built, build = [], langevin.build_underdamped

    def refusing(config):
        model = build(config)
        built.append(model)
        if model.point_drift is not None:
            object.__setattr__(model, "drift", refuse)
        return model

    def refuse(x):
        raise AssertionError("a one-path run called the batch drift")

    monkeypatch.setattr(langevin, "build_underdamped", refusing)
    table = json.loads(DIGESTS.read_text())
    for stem in ("lqr_po_underdamped", "quadratic_underdamped",
                 "logistic_underdamped"):
        assert run_reduced(stem, tmp_path) == table[stem]
    assert [m.point_drift is None for m in built] == [False, False, True]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        table = {stem: run_reduced(stem, Path(tmp))
                 for stem in sorted(REDUCED)}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
