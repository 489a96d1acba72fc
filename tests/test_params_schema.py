"""The ``[params]`` schema: each kind declares its keys once, on its record.

An undeclared key fails at load, at override and at the CLI (exit 2),
naming the kind and the key; ``docs/scenarios.md`` documents every
declared key with its default.
"""

import pathlib
import re

import pytest

from repro.errors import ConfigurationError
from repro.runner.cli import main
from repro.runner.scenarios import available_scenarios, get_scenario
from repro.runner.spec import ScenarioSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]
KINDS = sorted(available_scenarios())


def _message(kind: str, key: str) -> str:
    return re.escape(f"scenario '{kind}' has no [params] key '{key}'")


@pytest.mark.parametrize("kind", KINDS)
def test_undeclared_toml_key_rejected(tmp_path, kind):
    path = tmp_path / "spec.toml"
    path.write_text(f'[scenario]\nkind = "{kind}"\n\n'
                    "[params]\nbogus_key = 2\n")
    with pytest.raises(ConfigurationError, match=_message(kind, "bogus_key")):
        ScenarioSpec.from_toml(path)


@pytest.mark.parametrize("kind", KINDS)
def test_undeclared_bare_set_key_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "spec.toml"
    path.write_text(f'[scenario]\nkind = "{kind}"\n')
    assert main(["run", str(path), "--set", "bogus_key=2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert re.search(_message(kind, "bogus_key"), err)


@pytest.mark.parametrize("kind", KINDS)
def test_declared_keys_load_and_read_back(kind):
    """Every declared key is accepted, and ``param`` returns its default
    when the spec does not set it."""
    declared = get_scenario(kind).params
    spec = ScenarioSpec(kind=kind)
    for key, default in declared.items():
        assert spec.param(key) == default
    given = {key: value for key, value in declared.items()
             if value is not None}
    loaded = ScenarioSpec.from_dict({"scenario": {"kind": kind},
                                     "params": given})
    assert dict(loaded.params) == given


def test_runner_gate_rejects_an_undeclared_key():
    """A spec built directly (no from_dict) is still checked before any
    trial runs."""
    from repro.runner.runner import MonteCarloRunner
    spec = ScenarioSpec(kind="schedule_failure", params={"n_sender": 3})
    with pytest.raises(ConfigurationError,
                       match=_message("schedule_failure", "n_sender")):
        MonteCarloRunner().run(spec)


@pytest.mark.parametrize("override", ["max_rounds=2", "params.bogus_key=2"])
def test_pair_collision_rejects_undeclared_overrides(capsys, override):
    scenario = ROOT / "examples" / "scenarios" / "pair_collision.toml"
    assert main(["run", str(scenario), "--trials", "1",
                 "--set", override]) == 2
    key = override.removeprefix("params.").partition("=")[0]
    assert re.search(_message("pair", key), capsys.readouterr().err)


def test_three_senders_stream_rejects_hidden_pairs():
    """The kind builds its own clique; a topology key is not its to take."""
    with pytest.raises(ConfigurationError,
                       match=_message("three_senders_stream",
                                      "hidden_pairs")):
        ScenarioSpec.from_dict({"scenario": {"kind": "three_senders_stream"},
                                "params": {"hidden_pairs": "A:B"}})


def _docs_tables() -> dict[str, dict[str, str]]:
    """``{kind: {key: default cell}}`` from the docs' ``[params]`` section."""
    text = (ROOT / "docs" / "scenarios.md").read_text()
    section = text.split("### `[params]`", 1)[1].split("\n### ", 1)[0]
    tables = {}
    for block in section.split("\n#### ")[1:]:
        kind = re.match(r"`(\w+)`", block).group(1)
        tables[kind] = {
            row.group(1): row.group(2).strip()
            for row in re.finditer(r"^\| `(\w+)` \|([^|]*)\|", block,
                                   re.MULTILINE)}
    return tables


def test_docs_list_every_declared_key_with_its_default():
    tables = _docs_tables()
    assert sorted(tables) == KINDS
    for kind in KINDS:
        declared = get_scenario(kind).params
        assert sorted(tables[kind]) == sorted(declared), kind
        for key, default in declared.items():
            want = "unset" if default is None else f"`{default}`"
            assert tables[kind][key] == want, (kind, key)


def test_list_prints_every_kind_with_its_declared_keys(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    width = max(map(len, KINDS))
    for kind in KINDS:
        row = next(i for i, line in enumerate(lines)
                   if line.split(" ", 1)[0] == kind)
        # The doc column starts at the same place on every row.
        assert lines[row][width:width + 2] == "  "
        assert lines[row][width + 2] != " "
        declared = get_scenario(kind).params
        params_line = lines[row + 1].strip()
        assert params_line.startswith("params: ")
        for key in declared:
            assert f"{key}=" in params_line
        if not declared:
            assert params_line == "params: none"
