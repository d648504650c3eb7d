"""The byte comparison of scripts/cli_bytes.py, on two small fake trees."""

import importlib
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from swipt_relay.model import ConfigError, config_from_dict, default_config

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# a stand-in CLI: echoes its arguments, reads its config, writes an output
# file where ``-o`` names one, and exits with the config's "exit" value
_FAKE_CLI = '''
import json, sys
args = sys.argv[1:]
config = json.load(open(args[1]))
print("args", args)
print("config", config["tag"], file=sys.stderr)
if "-o" in args:
    open(args[args.index("-o") + 1], "w").write(OUTPUT)
sys.exit(config.get("exit", 0))
'''


@pytest.fixture
def cli_bytes(monkeypatch):
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    return importlib.import_module("cli_bytes")


def _fake_tree(root: Path, output: str) -> Path:
    package = root / "src" / "swipt_relay"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"OUTPUT = {output!r}\n" + textwrap.dedent(_FAKE_CLI))
    return root


COMMANDS = [
    ("writes", {"tag": "a"}, ["sweep", "--trials", "3", "-o", "out.csv"]),
    ("prints", {"tag": "b", "exit": 3}, ["verify", "--seeds", "2"]),
]


def test_identical_trees_compare_equal(cli_bytes, tmp_path, capsys):
    trees = {side: _fake_tree(tmp_path / side, "x,y\n1,2\n") for side in ("base", "head")}
    assert cli_bytes.compare(trees, tmp_path / "runs", COMMANDS) == []
    assert capsys.readouterr().out.splitlines() == ["writes: exit 0, byte-identical", "prints: exit 3, byte-identical"]
    run = cli_bytes.run_command(trees["base"], tmp_path / "one", *COMMANDS[0][1:])
    assert run["exit"] == 0
    assert run["stdout"] == b"args ['sweep', 'config.json', '--trials', '3', '-o', 'out.csv']\n"
    assert run["stderr"] == b"config a\n"
    assert sorted(run["files"]) == ["config.json", "out.csv"] and run["files"]["out.csv"] == b"x,y\n1,2\n"


def test_a_changed_output_file_differs(cli_bytes, tmp_path):
    trees = {"base": _fake_tree(tmp_path / "base", "x,y\n1,2\n"), "head": _fake_tree(tmp_path / "head", "x,y\n1,3\n")}
    failures = cli_bytes.compare(trees, tmp_path / "runs", COMMANDS)
    # the command that writes no file prints the same from both trees
    assert failures == ["writes: exit 0, DIFFERS in file out.csv"]


def test_differences_name_every_field_and_file(cli_bytes):
    base = {"exit": 0, "stdout": b"a", "stderr": b"", "files": {"out.csv": b"1", "config.json": b"{}"}}
    assert cli_bytes.differences(base, dict(base)) == []
    head = {"exit": 1, "stdout": b"a", "stderr": b"boom", "files": {"config.json": b"{}", "extra": b""}}
    assert cli_bytes.differences(base, head) == ["exit", "stderr", "file extra", "file out.csv"]
    assert cli_bytes.differences(base, {"exit": "timed out after 600 s"}) == [
        "exit", "stdout", "stderr", "file config.json", "file out.csv"]


def test_config_literals_are_the_configs_they_name(cli_bytes):
    cfg = default_config()
    assert config_from_dict(cli_bytes.DEFAULT_CONFIG) == cfg
    assert config_from_dict(cli_bytes.WIDE_CONFIG) == replace(cfg, n_subcarriers=256, taps=16)
    assert config_from_dict(cli_bytes.NO_HARVEST_CONFIG) == replace(cfg, eta=0.0)
    assert config_from_dict(cli_bytes.VERIFY_CONFIG) == replace(cfg, n_subcarriers=6)
    assert config_from_dict(cli_bytes.FLOAT_BODY_CONFIG) == replace(cfg, n_subcarriers=7)
    assert config_from_dict(cli_bytes.ARRAY_BODY_CONFIG) == replace(cfg, n_subcarriers=8)
    assert config_from_dict(cli_bytes.UNVERIFIABLE_CONFIG) == replace(cfg, n_subcarriers=9)
    with pytest.raises(ConfigError) as refused:
        config_from_dict(cli_bytes.INVALID_CONFIG)
    assert len(refused.value.errors) == 2


# what each command that fails, or prints help, before any expensive work
# answers: its exit code, and a piece of its stdout and of its stderr
_EARLY_ANSWERS = {
    "solve-help": (0, b"usage: swipt-relay solve [-h]", b""),
    "solve-invalid-config": (1, b"", b"invalid config 'config.json':\n  - eta out of [0,1]\n  - dr: relay"),
    "solve-mistyped-config": (
        1, b"", b"invalid config 'config.json':\n  - eta must be a number\n  - d0 must be a number\n"),
    "sweep-unknown-policy": (1, b"", b"unknown policy 'nope'; valid policies: proposed,"),
    "solve-malformed-seed": (1, b"", b"error: argument --seed: invalid int value: 'x'"),
    "solve-negative-seed": (1, b"", b"seed must be a nonnegative integer, got -1\n"),
    "sweep-zero-trials": (1, b"", b"trials must be an integer >= 1\n"),
    "verify-n9": (1, b"", b"n_subcarriers must be at most 8 for verification"),
    "verify-eta-0": (3, b"", b"seed 1: no usable pair: every effective gain is zero\n"),
}


def test_the_early_answers_are_the_paths_they_name(cli_bytes, tmp_path):
    tree = Path(__file__).resolve().parents[1]
    commands = {name: (config, args) for name, config, args in cli_bytes.COMMANDS}
    assert len(commands) == len(cli_bytes.COMMANDS)
    # the answers named here are the last commands of the list
    assert list(commands)[-len(_EARLY_ANSWERS):] == list(_EARLY_ANSWERS)
    for name, (code, out, err) in _EARLY_ANSWERS.items():
        run = cli_bytes.run_command(tree, tmp_path / name, *commands[name])
        assert (run["exit"], out in run["stdout"], err in run["stderr"]) == (code, True, True), (name, run)
