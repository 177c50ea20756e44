"""Config parsing, the run/list/verify commands, and their exit codes.

End-to-end runs use the two_discs experiment because it is the cheapest
entry in the catalog; byte-identical replay is what `verify` enforces.
"""

import pytest

from padsmooth.cli import (
    ENV_OUT,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    main,
    parse_config_text,
    resolve_config,
)
from padsmooth.experiments import CSV_COLUMNS, EXPERIMENTS


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv(ENV_OUT, raising=False)


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return path


# ---------------------------------------------------------------------------
# parsing and resolution


def test_catalog_lists_all_experiments(capsys):
    assert len(EXPERIMENTS) == 9
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
        assert EXPERIMENTS[name].description.splitlines()[0] in out


def test_parse_config_text_basics():
    raw = parse_config_text(
        "\n".join(
            [
                "# full line comment",
                "",
                "experiment = two_discs  # trailing comment",
                "seed=3",
                "sigma =  1.5",
            ]
        )
    )
    assert raw == {"experiment": "two_discs", "seed": "3", "sigma": "1.5"}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("just words\n", ":1:"),
        ("a = 1\na = 2\n", ":2: duplicate"),
        ("bad-key = 1\n", "bad key"),
        ("empty =\n", "empty value"),
        ("empty = # only a comment\n", "empty value"),
    ],
)
def test_parse_config_text_rejects(text, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert fragment in str(info.value)


def test_resolve_config_coerces_to_default_types():
    cfg = resolve_config(
        {"experiment": "two_discs", "seed": "11", "sigma": "2.5", "n": "500"}
    )
    assert cfg["seed"] == 11
    assert cfg["sigma"] == 2.5 and isinstance(cfg["sigma"], float)
    assert cfg["n"] == 500 and isinstance(cfg["n"], int)


@pytest.mark.parametrize(
    "raw,fragment",
    [
        ({"seed": "1"}, "missing required key 'experiment'"),
        ({"experiment": "nope", "seed": "1"}, "unknown experiment"),
        ({"experiment": "two_discs"}, "missing required key 'seed'"),
        ({"experiment": "two_discs", "seed": "x"}, "must be an integer"),
        ({"experiment": "two_discs", "seed": "-4"}, "non-negative"),
        ({"experiment": "two_discs", "seed": "1", "bogus": "1"}, "unknown key 'bogus'"),
        ({"experiment": "two_discs", "seed": "1", "n": "many"}, "expects int"),
    ],
)
def test_resolve_config_rejects(raw, fragment):
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    assert fragment in str(info.value)


def test_unknown_key_error_names_the_alternatives():
    with pytest.raises(ConfigError) as info:
        resolve_config({"experiment": "two_discs", "seed": "1", "sgima": "1.0"})
    assert "sigma" in str(info.value)


# ---------------------------------------------------------------------------
# run


def test_run_writes_artifacts_and_replays_identically(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", experiment="two_discs", seed=7)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert "two_discs" in capsys.readouterr().out
    csv1 = (out1 / "results.csv").read_bytes()
    assert csv1.decode().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert (out1 / "report.json").is_file()
    echo = parse_config_text((out1 / "config.txt").read_text())
    assert echo["experiment"] == "two_discs" and echo["seed"] == "7"
    assert main(["run", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out2 / "results.csv").read_bytes() == csv1


def test_run_output_dir_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.txt", experiment="two_discs", seed=5)
    via_env = tmp_path / "env"
    monkeypatch.setenv(ENV_OUT, str(via_env))
    assert main(["run", str(cfg), "--out", str(tmp_path / "flag")]) == EXIT_OK
    assert (via_env / "results.csv").is_file()
    assert not (tmp_path / "flag").exists()


def test_run_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.txt")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", experiment="two_discs", seed=1, bogus=3)
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_run_infeasible_budget_exits_3(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.txt",
        experiment="hard_distribution",
        seed=1,
        d_grid=10,
        min_packing=10 ** 6,
        packing_trials=2000,
        pool=200,
        n=200,
        n_trend=200,
        max_draws=2000,
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("per_cell", 0), ("sigma", "nan")])
def test_run_out_of_range_value_exits_2(key, value, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.txt", experiment="two_discs", seed=1, **{key: value})
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (out / "results.csv").exists()


def test_verify_out_of_range_config_echo_exits_2(tmp_path, capsys):
    _, out = run_small(tmp_path)
    echo = out / "config.txt"
    echo.write_text(echo.read_text().replace("per_cell = 25", "per_cell = 0"))
    assert main(["verify", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors_exit_2(capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["frobnicate"]) == EXIT_CONFIG
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def run_small(tmp_path) -> tuple:
    cfg = write_config(tmp_path / "c.txt", experiment="two_discs", seed=9)
    out = tmp_path / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    return cfg, out


def test_verify_accepts_intact_run(tmp_path, capsys):
    _, out = run_small(tmp_path)
    assert main(["verify", str(out)]) == EXIT_OK
    assert "byte-identical" in capsys.readouterr().out


def test_verify_flags_tampered_values(tmp_path, capsys):
    _, out = run_small(tmp_path)
    csv_path = out / "results.csv"
    lines = csv_path.read_text().splitlines()
    cols = lines[1].split(",")
    value_idx = CSV_COLUMNS.index("value")
    cols[value_idx] = "0.123456"
    lines[1] = ",".join(cols)
    csv_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "different results.csv bytes" in capsys.readouterr().err


def test_verify_flags_structural_damage(tmp_path, capsys):
    _, out = run_small(tmp_path)
    csv_path = out / "results.csv"
    csv_path.write_text("not,a,results,file\n")
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "header" in capsys.readouterr().err


def test_verify_flags_bad_config_echo(tmp_path, capsys):
    _, out = run_small(tmp_path)
    with (out / "config.txt").open("a") as fh:
        fh.write("bogus = 1\n")
    assert main(["verify", str(out)]) == EXIT_VERIFY
    assert "config echo invalid" in capsys.readouterr().err


def test_verify_missing_run_dir(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "ghost")]) == EXIT_VERIFY
    assert "missing results.csv" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, name", [
    ("max_draws", -5, "max_draws"), ("partition_epsilon", "inf", "epsilon"), ("sigma", "inf", "sigma"),
    ("ambient_list", 10, "ambient_list"), ("ambient_list", "10,10", "ambient_list"),
    ("replicates", 1, "replicates"), ("k_list", 2, "k_list"), ("k_list", "4,4", "k_list"),
    ("attack_trials", -3, "attack_trials"), ("pool", 0, "pool"), ("net_source", 0, "net_source"),
])
def test_run_invalid_argument_exits_2_with_one_error_line(key, value, name, tmp_path, capsys):
    # each fails where it enters: smooth_exact, sample_cube_partition and
    # gaussian_smoothing (two_discs), the circles_manifold and
    # oblivious_game runners before any work, oblivious_game_simulate before
    # any draw, and adversarial_risk_curve (cube_theorem's first call) name
    # the argument, and nothing is written
    experiment = {"ambient_list": "circles_manifold", "replicates": "circles_manifold", "k_list": "oblivious_game",
                  "pool": "oblivious_game", "net_source": "oblivious_game",
                  "attack_trials": "cube_theorem"}.get(key, "two_discs")
    cfg = write_config(tmp_path / "c.txt", experiment=experiment, seed=1, **{key: value})
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{name} must be" in err
    assert not (out / "results.csv").exists()
