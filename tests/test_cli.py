import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swipt_relay
from swipt_relay.baselines import PolicyId
from swipt_relay.cli import main
from swipt_relay.model import config_to_dict, default_config
from swipt_relay.montecarlo import SweepSpec, sweep

from conftest import REF_RATE_10MW, fresh_python


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(default_config()), indent=2))
    return str(path)


@pytest.fixture
def single_pair_paths(tmp_path):
    data = config_to_dict(default_config())
    data.update(n_subcarriers=1, taps=1, p_max_mw=10.0)
    cfg = tmp_path / "single.json"
    cfg.write_text(json.dumps(data))
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"h_sq": [0.9], "g_sq": [0.9]}))
    return str(cfg), str(chan)


# -------------------------------------------------------------------- solve

def test_solve_writes_allocation_json(cfg_path, tmp_path):
    out = tmp_path / "alloc.json"
    assert main(["solve", cfg_path, "--seed", "42", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"pairing", "rho_i", "powers", "pair_rates", "total_rate"}
    assert sorted(payload["pairing"]) == [0, 1, 2, 3]
    assert math.fsum(payload["powers"]) == pytest.approx(1000.0, abs=1e-9)
    assert payload["total_rate"] == pytest.approx(sum(payload["pair_rates"]), rel=1e-12)


def test_solve_stdout(cfg_path, capsys):
    assert main(["solve", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["powers"]) == 4


def test_solve_pinned_channel_override(single_pair_paths, capsys):
    cfg, chan = single_pair_paths
    assert main(["solve", cfg, "--channel-file", chan]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_rate"] == pytest.approx(REF_RATE_10MW, rel=1e-9)


def test_solve_huge_outgoing_gain(single_pair_paths, tmp_path, capsys):
    cfg, _ = single_pair_paths
    chan = tmp_path / "strong.json"
    chan.write_text(json.dumps({"h_sq": [1.0], "g_sq": [1e160]}))
    assert main(["solve", cfg, "--channel-file", str(chan)]) == 0
    assert json.loads(capsys.readouterr().out)["total_rate"] > 0.0


def test_solve_rejects_a_negative_seed(cfg_path, capsys):
    assert main(["solve", cfg_path, "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "seed must be a nonnegative integer, got -1\n")


def test_solve_missing_config_is_io_failure(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_solve_unparseable_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", str(path)]) == 1
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["sweep", "--variable", "p_max_dbm", "--values", "10,20", "--trials", "2"], ["verify"]],
)
def test_non_utf8_config_exits_1(argv, tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert "invalid config" in capsys.readouterr().err


def test_solve_invalid_config_lists_violations(tmp_path, capsys):
    data = config_to_dict(default_config())
    data["eta"] = 1.5
    data["dr"] = 2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert "eta out of [0,1]" in err
    assert "relay must lie strictly between" in err


def test_a_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr() == ("", f"invalid config '{path}':\n  - config must be a JSON object\n")


@pytest.mark.parametrize("noise", [1e-160, 5e-324])
def test_relay_noise_too_small_for_the_split_exits_1(noise, tmp_path, capsys):
    # at 1e-160 mW verify failed its equal_rate check, and at 5e-324 mW it
    # ended in a ZeroDivisionError traceback from the split
    data = config_to_dict(default_config())
    data["noise"] = dict.fromkeys(data["noise"], noise)
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--seeds", "2"]) == 1
    lines = "".join(
        f"  - noise.{name} ({noise}): below 2**-511 mW the split's term "
        "4 * sigma_ra_sq * sigma_rb_sq underflows a float\n"
        for name in ("sigma_ra_sq", "sigma_rb_sq")
    )
    assert capsys.readouterr() == ("", f"invalid config '{path}':\n{lines}")


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["sweep", "--variable", "p_max_dbm", "--values", "10,20", "--trials", "2"], ["verify"]],
)
def test_fewer_subcarriers_than_taps_rejected_at_load(argv, tmp_path, capsys):
    data = config_to_dict(default_config())
    data.update(n_subcarriers=2, taps=4)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "n_subcarriers (2) must be >= taps (4)" in err


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["sweep", "--variable", "p_max_dbm", "--values", "10,20", "--trials", "2"], ["verify"]],
)
def test_path_loss_overflow_rejected_at_load(argv, tmp_path, capsys):
    # (1 + d)**2000 overflows a float in the channel draw of every command
    data = config_to_dict(default_config())
    data["alpha"] = 2000.0
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "the source-relay path loss (1 + 0.5)**alpha overflows a float" in err


def test_path_loss_times_taps_overflow_rejected_at_load(tmp_path, capsys):
    # the path loss fits a float but 4 taps times it does not, which would
    # draw an all-zero channel
    data = config_to_dict(default_config())
    data["alpha"] = 1750.09
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "the source-relay tap-variance divisor 4 * (1 + 0.5)**alpha overflows a float" in err


def test_overflowing_dbm_budget_exits_1(tmp_path, capsys):
    data = config_to_dict(default_config())
    del data["p_max_mw"]
    data["p_max_dbm"] = 4000
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "p_max_dbm: 4000.0 dBm overflows a float in mW" in err


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["sweep", "--variable", "p_max_dbm", "--values", "10,20", "--trials", "2"], ["verify"]],
)
def test_an_integer_budget_past_the_float_range_exits_1(argv, tmp_path, capsys):
    # a 401-digit JSON integer reads as inf, an out-of-range budget like any other
    data = config_to_dict(default_config())
    data["p_max_mw"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "p_max must be a positive, finite number" in err


def test_sweep_overflowing_dbm_value_exits_1(cfg_path, capsys):
    argv = ["sweep", cfg_path, "--variable", "p_max_dbm", "--values", "4000", "--trials", "2"]
    assert main(argv) == 1
    assert "4000.0 dBm overflows a float in mW" in capsys.readouterr().err


def test_solve_rejects_a_channel_file_with_an_extra_key(single_pair_paths, tmp_path, capsys):
    cfg, _ = single_pair_paths
    chan = tmp_path / "extra.json"
    chan.write_text(json.dumps({"h_sq": [0.9], "g_sq": [0.9], "taps": 1}))
    assert main(["solve", cfg, "--channel-file", str(chan)]) == 1
    assert "exactly h_sq and g_sq" in capsys.readouterr().err


def test_solve_rejects_a_channel_file_of_bools(tmp_path, capsys):
    data = config_to_dict(default_config())
    data.update(n_subcarriers=2, taps=2)
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(data))
    chan = tmp_path / "bools.json"
    chan.write_text(json.dumps({"h_sq": [True, True], "g_sq": [True, False]}))
    assert main(["solve", str(cfg), "--channel-file", str(chan)]) == 1
    assert "entries must be numbers, not bools" in capsys.readouterr().err


def test_solve_rejects_a_channel_file_of_strings(tmp_path, capsys):
    data = config_to_dict(default_config())
    data.update(n_subcarriers=2, taps=2)
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(data))
    chan = tmp_path / "strings.json"
    chan.write_text(json.dumps({"h_sq": ["1.5", "2"], "g_sq": ["3", "0.5"]}))
    assert main(["solve", str(cfg), "--channel-file", str(chan)]) == 1
    assert "entries must be numbers, not bools or strings" in capsys.readouterr().err


def test_solve_rejects_a_channel_file_gain_past_the_float_range(tmp_path, capsys):
    # a 401-digit JSON integer reads as inf, not as an OverflowError
    data = config_to_dict(default_config())
    data.update(n_subcarriers=2, taps=2)
    cfg = tmp_path / "two.json"
    cfg.write_text(json.dumps(data))
    chan = tmp_path / "huge.json"
    chan.write_text(json.dumps({"h_sq": [1.5, 10**400], "g_sq": [3.0, 0.5]}))
    assert main(["solve", str(cfg), "--channel-file", str(chan)]) == 1
    assert "h_sq entries must be finite and nonnegative" in capsys.readouterr().err


def test_solve_refuses_an_effective_gain_past_the_float_range(tmp_path, capsys):
    # at 1e-3 mW noise the split gain of a 1e306 incoming gain overflows
    data = config_to_dict(default_config())
    data.update(n_subcarriers=1, taps=1, noise={key: 1e-3 for key in data["noise"]})
    cfg = tmp_path / "quiet.json"
    cfg.write_text(json.dumps(data))
    chan = tmp_path / "strong.json"
    chan.write_text(json.dumps({"h_sq": [1e306], "g_sq": [1.0]}))
    assert main(["solve", str(cfg), "--channel-file", str(chan)]) == 1
    err = capsys.readouterr().err
    assert "an effective gain passes the float range: the channel is too strong for the noise" in err


def test_solve_channel_size_mismatch(cfg_path, tmp_path, capsys):
    chan = tmp_path / "chan.json"
    chan.write_text(json.dumps({"h_sq": [0.9], "g_sq": [0.9]}))
    assert main(["solve", cfg_path, "--channel-file", str(chan)]) == 1
    assert "subcarriers" in capsys.readouterr().err


def test_solve_missing_channel_file(cfg_path, tmp_path, capsys):
    assert main(["solve", cfg_path, "--channel-file", str(tmp_path / "no.json")]) == 2


def test_solve_unwritable_output(cfg_path, tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "alloc.json"
    assert main(["solve", cfg_path, "--output", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


# -------------------------------------------------------------------- sweep

def test_sweep_row_count_and_columns(cfg_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            cfg_path,
            "--variable",
            "p_max_dbm",
            "--values",
            "10,20,30,40",
            "--trials",
            "3",
            "--policies",
            "proposed,conventional",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# swipt-relay ")
    assert lines[1] == "sweep_variable,sweep_value,policy,mean_rate_bps_hz,std_rate,trials,seed"
    assert len(lines) == 2 + 8  # banner + header + 4 values x 2 policies


def test_sweep_range_syntax(cfg_path, capsys):
    code = main(
        [
            "sweep",
            cfg_path,
            "--variable",
            "relay_position",
            "--values",
            "0.1..0.9 step 0.1",
            "--trials",
            "2",
            "--policies",
            "proposed",
            "--no-banner",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 9
    values = [line.split(",")[1] for line in lines[1:]]
    assert values == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9"]


def test_sweep_colon_range_syntax(cfg_path, capsys):
    code = main(
        [
            "sweep",
            cfg_path,
            "--variable",
            "p_max_dbm",
            "--values",
            "10..40:10",
            "--trials",
            "1",
            "--policies",
            "proposed",
            "--no-banner",
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4


def test_sweep_rejects_non_increasing_values(cfg_path, capsys):
    code = main(
        [
            "sweep",
            cfg_path,
            "--variable",
            "p_max_dbm",
            "--values",
            "10,10,20",
            "--trials",
            "1",
        ]
    )
    assert code == 1
    assert "strictly increasing" in capsys.readouterr().err


def test_sweep_rejects_unknown_policy(cfg_path, capsys):
    code = main(
        [
            "sweep",
            cfg_path,
            "--variable",
            "p_max_dbm",
            "--values",
            "10,20",
            "--policies",
            "proposed,warp-drive",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown policy 'warp-drive'" in err
    for name in ("proposed", "opa-nopair", "uniform-pair", "uniform-nopair", "conventional"):
        assert name in err


def test_sweep_rejects_repeated_policy(cfg_path, capsys):
    code = main(
        [
            "sweep",
            cfg_path,
            "--variable",
            "p_max_dbm",
            "--values",
            "10",
            "--trials",
            "1",
            "--policies",
            "proposed,proposed",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "must not repeat" in captured.err
    assert captured.out == ""


def test_sweep_rejects_bad_range(cfg_path, capsys):
    assert (
        main(
            ["sweep", cfg_path, "--variable", "p_max_dbm", "--values", "10..40:11", "--trials", "1"]
        )
        == 1
    )
    assert "divide evenly" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, message",
    [
        ("10..40", "cannot parse range '10..40'; expected 'START..STOP step S'"),
        ("a..b step 1", "cannot parse range 'a..b step 1': could not convert string to float: 'a'"),
        ("10..40 step 0", "range step must be positive"),
        ("10..40 step -5", "range step must be positive"),
        ("10,abc", "cannot parse values '10,abc': could not convert string to float: 'abc'"),
        ("3..1:1", "range '3..1:1' ends below its start"),
        ("40..10 step 5", "range '40..10 step 5' ends below its start"),
        ("3..1:5", "range '3..1:5' ends below its start"),
    ],
)
def test_sweep_rejects_values_it_cannot_parse(values, message, cfg_path, capsys):
    assert main(["sweep", cfg_path, "--variable", "p_max_dbm", "--values", values, "--trials", "1"]) == 1
    assert capsys.readouterr() == ("", message + "\n")


@pytest.mark.parametrize("values", ["10..inf step 1", "1e308..-1e308 step 1e-300", "nan..10 step 1", "10..20 step nan"])
def test_sweep_rejects_a_range_that_is_not_finite(values, cfg_path, capsys):
    # an infinite bound or a span past the float range overflowed the step
    # count, and a NaN could not be rounded to one
    assert main(["sweep", cfg_path, "--variable", "p_max_dbm", "--values", values, "--trials", "1"]) == 1
    assert f"cannot parse range '{values}'" in capsys.readouterr().err


def test_sweep_refuses_a_range_of_too_many_points_before_building_it(cfg_path):
    # a child under a 1 GB address-space cap and a timeout, so that a parser
    # that builds every point first fails here instead of exhausting memory
    src = str(Path(swipt_relay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1")
    argv = ["sweep", cfg_path, "--variable", "p_max_dbm", "--values", "0..1e9 step 1", "--trials", "1"]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from swipt_relay.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "range '0..1e9 step 1' has 1000000001 points; at most 1000000 are allowed" in proc.stderr


def test_sweep_rejects_trials_beyond_seed_stride(cfg_path, capsys):
    code = main(
        ["sweep", cfg_path, "--variable", "p_max_dbm", "--values", "10,20", "--trials", "1000005"]
    )
    assert code == 1
    assert "below 1000000" in capsys.readouterr().err


def test_sweep_relay_position_outside_the_link_exits_1(cfg_path, capsys):
    argv = ["sweep", cfg_path, "--variable", "relay_position", "--values", "0.5,1.5", "--trials", "2"]
    assert main(argv) == 1
    assert "sweep produced an invalid config" in capsys.readouterr().err


def test_sweep_byte_identical_reruns(cfg_path, tmp_path):
    args = [
        "sweep",
        cfg_path,
        "--variable",
        "p_max_dbm",
        "--values",
        "10,30",
        "--trials",
        "10",
        "--seed",
        "6",
        "--no-banner",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------------------- verify

def test_verify_passes_on_default_config(cfg_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", cfg_path, "--seeds", "3", "--output", str(out)]) == 0
    table = capsys.readouterr().out
    assert "equal_rate" in table and "PASS" in table and "FAIL" not in table
    report = json.loads(out.read_text())
    assert all(entry["pass"] for entry in report)
    assert {"check_name", "pass", "residual", "tolerance"} == set(report[0])


def test_verify_hundred_seeds_all_pass(cfg_path, capsys):
    assert main(["verify", cfg_path, "--seeds", "100"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_verify_folds_each_seed_into_one_merged_report(cfg_path, tmp_path, monkeypatch, capsys):
    """``verify`` holds one merged report whatever ``--seeds`` is: every
    merge takes at most two reports, and the JSON is the merge of all seeds'
    reports at once."""
    from swipt_relay.channel import generate_channel
    from swipt_relay.oracle import VerificationReport, verify

    cfg = default_config()
    merge = VerificationReport.merge
    expected = merge([verify(generate_channel(cfg, seed), cfg) for seed in range(1, 6)]).to_json() + "\n"
    sizes = []

    def counting_merge(cls, reports):
        reports = list(reports)
        sizes.append(len(reports))
        return merge(reports)

    monkeypatch.setattr(VerificationReport, "merge", classmethod(counting_merge))
    out = tmp_path / "report.json"
    assert main(["verify", cfg_path, "--seeds", "5", "-o", str(out)]) == 0
    assert sizes and max(sizes) <= 2
    assert out.read_text() == expected


@pytest.mark.parametrize("n_subcarriers", [9, 10**12])
def test_verify_caps_subcarrier_count(n_subcarriers, tmp_path, capsys):
    # checked before the first channel, which would not fit in memory at 10**12
    data = config_to_dict(default_config())
    data["n_subcarriers"] = n_subcarriers
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--seeds", "1"]) == 1
    assert "at most 8" in capsys.readouterr().err


def test_verify_on_a_dead_config_exits_3(tmp_path, capsys):
    data = config_to_dict(default_config())
    data["eta"] = 0.0
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--seeds", "2"]) == 3
    assert "seed 1: no usable pair" in capsys.readouterr().err


def test_verify_writes_a_failing_report_and_exits_3(tmp_path, capsys):
    # at 5e-21 mW of destination noise equal_rate and root_bounds fail; the
    # report is still written, with JSON booleans
    data = config_to_dict(default_config())
    data["noise"].update(sigma_da_sq=5e-21, sigma_db_sq=5e-21)
    path, out = tmp_path / "quiet.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--seeds", "2", "-o", str(out)]) == 3
    table, err = capsys.readouterr()
    assert "overall: FAIL" in table and err == ""
    verdicts = {entry["check_name"]: entry["pass"] for entry in json.loads(out.read_text())}
    assert verdicts["root_bounds"] is False and verdicts["monotone_rho_in_b"] is True


def test_verify_rejects_nonpositive_tolerance(cfg_path, capsys):
    assert main(["verify", cfg_path, "--tol", "0"]) == 1
    assert "tolerance must be positive" in capsys.readouterr().err


def test_verify_rejects_an_infinite_tolerance(cfg_path, capsys):
    assert main(["verify", cfg_path, "--tol", "inf"]) == 1
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_verify_rejects_zero_seeds(cfg_path, capsys):
    assert main(["verify", cfg_path, "--seeds", "0"]) == 1


# --------------------------------------------------------------------- misc

@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["sweep", "--help"], ["verify", "--help"]])
def test_help_exits_cleanly(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_module_run_prints_the_usage():
    src = str(Path(swipt_relay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "swipt_relay.cli", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: swipt-relay")


@pytest.mark.parametrize("argv, code, engine", [
    (["--help"], 0, []),
    (["--version"], 0, []),
    (["solve", "BAD"], 1, []),
    (["solve", "CFG", "--no-such-flag"], 1, []),
    (["sweep", "CFG", "--variable", "p_max_dbm", "--values", "10", "--policies", "nope"], 1, []),
    (["solve", "CFG", "-o", "OUT"], 0, ["allocator", "channel"]),
    (["sweep", "CFG", "--variable", "p_max_dbm", "--values", "30", "--trials", "1", "-o", "OUT"], 0,
     ["allocator", "baselines", "channel", "montecarlo"]),
    (["verify", "CFG", "--seeds", "1", "-o", "OUT"], 0, ["allocator", "baselines", "channel", "oracle"]),
], ids=["help", "version", "invalid-config", "unknown-flag", "unknown-policy", "solve", "sweep", "verify"])
def test_a_command_loads_only_the_engine_it_runs(cfg_path, tmp_path, argv, code, engine):
    # the parser and the config load use ``model`` alone, so a usage error
    # or a refused config is answered without NumPy; each command then
    # imports only the engine modules it runs
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**config_to_dict(default_config()), "eta": 2.0}))
    paths = {"CFG": cfg_path, "BAD": str(bad), "OUT": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in argv]
    run = (
        "import sys\nfrom swipt_relay.cli import main\n"
        f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
        "print(code, sorted(m.removeprefix('swipt_relay.') for m in sys.modules if m.startswith('swipt_relay.')),"
        " 'numpy' in sys.modules)"
    )
    loaded = sorted(["cli", "model", *engine])
    assert fresh_python(run).splitlines()[-1] == f"{code} {loaded} {bool(engine)}"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "swipt-relay" in capsys.readouterr().out


# argparse's own exit code for a usage error is 2, which means an I/O failure here
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep", "CFG", "--variable", "p_max_dbm", "--values", "10", "--trials", "abc"], id="bad-int"),
        pytest.param(["sweep", "CFG", "--values", "10"], id="missing-flag"),
        pytest.param(["sweep", "CFG", "--variable", "eta", "--values", "10"], id="bad-choice"),
        pytest.param(["verify", "CFG", "--tol", "x"], id="bad-float"),
        pytest.param(["solve", "CFG", "--bogus"], id="unknown-flag"),
        pytest.param(["plot", "CFG"], id="unknown-command"),
        pytest.param([], id="no-command"),
    ],
)
def test_a_usage_error_exits_1(argv, cfg_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([cfg_path if arg == "CFG" else arg for arg in argv])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: swipt-relay")
    assert "error: " in captured.err


# ------------------------------------------------------ scripts/run_figures.py

def test_run_figures_writes_both_sweeps_of_the_default_config(tmp_path):
    """The script's two CSVs are the sweeps of the default config over the
    power budget (10..40 dBm in 5 dB steps) and the relay position (0.1..0.9),
    for all five policies, byte for byte."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"
    src = str(Path(swipt_relay.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script), "--trials", "3", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    specs = {
        "rate_vs_power.csv": SweepSpec("p_max_dbm", (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0), 3, 1, tuple(PolicyId)),
        "rate_vs_position.csv": SweepSpec(
            "relay_position", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), 3, 1, tuple(PolicyId)
        ),
    }
    for name, spec in specs.items():
        assert (tmp_path / name).read_text() == sweep(default_config(), spec).to_csv(), name
    assert [len((tmp_path / name).read_text().splitlines()) - 1 for name in specs] == [35, 45]
