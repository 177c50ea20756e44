"""Row formatting, the experiment registry, and the execute() writer."""

import json
from pathlib import Path

import numpy as np
import pytest

from padsmooth import experiments
from padsmooth.cli import EXIT_OK, main
from padsmooth.experiments import (
    CSV_COLUMNS,
    EXPERIMENTS,
    THEOREM_CONSTANTS,
    _fmt,
    _floats,
    _ints,
    _row,
    _se,
    execute,
    rows_to_csv,
)
from padsmooth.smoothing import SmoothedClassifier
from padsmooth.tasks import two_discs_task

REDUCED = json.loads((Path(__file__).parent / "acceptance_config.json").read_text())["determinism_overrides"]


def test_fmt_is_repr_exact_for_floats():
    for v in (0.1, 1.0 / 3.0, 1e-17, 123456.789, float(np.float64(0.30000000000000004))):
        assert float(_fmt(v)) == v
    assert _fmt(None) == ""
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(7) == "7"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(np.float64(0.5)) == "0.5"


def test_fmt_rejects_embedded_commas():
    with pytest.raises(ValueError):
        _fmt("a,b")


def test_row_fills_schema_and_rejects_unknown_columns():
    r = _row("risk", 0.25, task="two_discs", d=2)
    assert set(r) == set(CSV_COLUMNS)
    assert r["metric"] == "risk" and r["value"] == 0.25 and r["d"] == 2
    assert r["sigma"] == ""
    with pytest.raises(KeyError):
        _row("risk", 0.1, not_a_column=1)


def test_rows_to_csv_layout():
    text = rows_to_csv([_row("m1", 1.5), _row("m2", 2)])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)
    assert text.endswith("\n")


def test_scalar_parsers():
    assert _floats("0.1, 0.2,0.3") == [0.1, 0.2, 0.3]
    assert _ints("10,20") == [10, 20]
    assert _floats("") == []
    assert _se(0.5, 100) == pytest.approx(0.05)
    assert _se(0.0, 10) == 0.0


def test_registry_shape():
    assert len(EXPERIMENTS) == 9
    for name, info in EXPERIMENTS.items():
        assert info.name == name
        assert info.group and info.description
        for key, default in info.defaults.items():
            assert isinstance(default, (int, float, str)), (name, key)
        assert "seed" not in info.defaults and "experiment" not in info.defaults


def test_frozen_constants_match_record():
    assert THEOREM_CONSTANTS == {
        "alpha": 0.1,
        "c_prime_ball": 5.0,
        "c_prime_cube": 1.0,
        "ratio_constant": 60.0,
        "linear_factor": 4.0,
    }


def test_execute_unknown_name():
    with pytest.raises(KeyError):
        execute("nonesuch", {"seed": 1}, "/tmp/never-used")


def test_execute_rejects_an_unknown_config_key_before_writing(tmp_path):
    with pytest.raises(KeyError, match="bogus_key"):
        execute("two_discs", {"seed": 3, "n": 2000, "bogus_key": 5}, tmp_path / "r")
    assert not (tmp_path / "r").exists()


def test_execute_writes_replayable_bundle(tmp_path):
    summary = execute("two_discs", {"seed": 3, "n": 2000}, tmp_path / "r")
    assert summary["failed"] == []
    assert summary["rows"] >= 3 and summary["checks"] >= 2
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert set(report) == {"experiment", "seed", "config", "checks", "rows"}  # no timing
    assert len(report["rows"]) == summary["rows"]
    assert all(c["name"] for c in report["checks"])
    echo = (tmp_path / "r" / "config.txt").read_text()
    assert "experiment = two_discs" in echo and "seed = 3" in echo
    assert "n = 2000" in echo
    # overrides echoed, untouched defaults echoed too: the echo is complete
    for key in EXPERIMENTS["two_discs"].defaults:
        assert f"{key} = " in echo


def test_cube_theorem_writes_replayable_artifacts(tmp_path, monkeypatch):
    built, smooth_exact = [], experiments.smooth_exact

    def recording_smooth_exact(*args, **kwargs):
        built.append(smooth_exact(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(experiments, "smooth_exact", recording_smooth_exact)
    cfg = tmp_path / "c.txt"
    cfg.write_text("experiment = cube_theorem\nseed = 5\nspheres_d = 3\ndelta_list = 0\n"
                   "eps_list_discs = 0.02\neps_list_spheres = 0.001\nn = 400\n"
                   "per_cell = 3\nmax_draws = 2000\nattack_trials = 1\n")
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "partition.json").is_file() and (out / "classifier.json").is_file()
    assert main(["verify", str(out)]) == EXIT_OK
    task = two_discs_task()
    saved = built[0]  # the discs block at delta 0 and its first epsilon
    text = (out / "classifier.json").read_text()
    assert text.endswith("}\n")
    back = SmoothedClassifier.from_dict(json.loads(text), base=task.ground_truth_classifier())
    assert back.cell_labels == saved.cell_labels
    X, _ = task.sample(np.random.default_rng(3), 2000)
    assert np.array_equal(back.evaluate(X), saved.evaluate(X))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_check_has_its_bound_row(name, tmp_path):
    # in report.json the checks' verdicts, in order, are the ok column of the
    # rows that carry one; packing_size rows carry a verdict but are no check
    execute(name, {"seed": 11, **REDUCED[name]}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    judged = [r for r in report["rows"] if r["ok"] and r["metric"] != "packing_size"]
    assert report["checks"] and all(r["bound"] != "" for r in judged)
    assert [c["ok"] for c in report["checks"]] == [r["ok"] == "pass" for r in judged]
