"""The ``python -m repro`` command line: run, sweep, list, overrides."""

import json

import pytest

from repro.runner.cli import main

PAIR_TOML = """
[scenario]
kind = "schedule_failure"
n_trials = 8
seed = 1

[backoff]
kind = "fixed"
cw = 16

[params]
n_senders = 3
"""


# Scenario heads that run in well under a second; each ends in the table
# the removed key is appended to.
REMOVED_KEY_HEADS = {
    "channel": '[scenario]\nkind = "schedule_failure"\n[channel]\n',
    "scenario": '[scenario]\nkind = "pair"\nn_trials = 1\nn_packets = 1\n',
    "params": ('[scenario]\nkind = "ap_stream"\nn_trials = 1\n'
               'n_packets = 1\npayload_bits = 64\n[params]\n'),
    "deployment": ('[scenario]\nkind = "city_multicell"\nn_trials = 1\n'
                   'n_packets = 1\npayload_bits = 64\n[deployment]\n'
                   'n_aps = 1\nn_clients = 2\narea_m = 20.0\n'),
}
# Every key whose single value became a module constant, at that value.
REMOVED_KEYS = [
    ("channel", "noise_power", "1.0"),
    ("channel", "phase_noise_std", "1e-3"),
    ("channel", "tx_evm", "0.03"),
    ("channel", "freq_spread", "4e-3"),
    ("scenario", "slot_samples", "20"),
    ("scenario", "max_rounds", "4"),
    ("scenario", "modulation", '"bpsk"'),
    ("scenario", "preamble_length", "32"),
    ("params", "max_attempts", "6"),
    ("params", "chunk_samples", "1024"),
    ("params", "buffer_max_age", "24"),
    ("params", "max_collision_packets", "2"),
    ("deployment", "exponent", "3.2"),
    ("deployment", "shadowing_db", "4.0"),
    ("deployment", "cs_full_db", "4.0"),
    ("deployment", "cs_none_db", "2.0"),
    ("deployment", "reachable_db", "3.0"),
    ("deployment", "horizon_chunks", "4"),
]


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.toml"
    path.write_text(PAIR_TOML)
    return str(path)


class TestCli:
    def test_run(self, scenario_file, capsys):
        assert main(["run", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "scenario=schedule_failure" in out
        assert "failed" in out

    def test_run_json_and_overrides(self, scenario_file, capsys):
        assert main(["run", scenario_file, "--json", "--trials", "4",
                     "--seed", "9", "--set", "backoff.cw=8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_trials"] == 4
        assert payload["seed"] == 9
        assert "failed" in payload["metrics"]

    def test_run_parallel_matches_serial(self, scenario_file, capsys):
        assert main(["run", scenario_file, "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["run", scenario_file, "--json", "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["metrics"] == parallel["metrics"]

    def test_sweep(self, scenario_file, capsys):
        assert main(["sweep", scenario_file, "--trials", "6",
                     "--param", "params.n_senders=2,4",
                     "--metrics", "failed"]) == 0
        out = capsys.readouterr().out
        assert "params.n_senders" in out
        assert out.count("\n") >= 4   # header + rule + two grid rows

    def test_sweep_json(self, scenario_file, capsys):
        assert main(["sweep", scenario_file, "--json", "--trials", "4",
                     "--param", "backoff.cw=8:16:8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["value"] for p in payload["points"]] == [8, 16]

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pair" in out and "schedule_failure" in out
        assert "hidden_pair_impaired" in out
        assert "city_multicell" in out

    def test_run_impaired_scenario(self, tmp_path, capsys):
        """End-to-end CLI smoke over a TOML file with [impairments]."""
        path = tmp_path / "impaired.toml"
        path.write_text("""
[scenario]
kind = "hidden_pair_impaired"
n_trials = 2
seed = 3
payload_bits = 200

[[impairments.sender]]
kind = "rayleigh"
coherence_samples = 2000
""")
        assert main(["run", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ber_zigzag" in payload["metrics"]
        assert "ber_standard" in payload["metrics"]
        assert payload["design"] == "n/a"

    def test_sweep_impairment_stage_field(self, tmp_path, capsys):
        """--param can address an impairment-stage field by dotted path."""
        path = tmp_path / "impaired.toml"
        path.write_text("""
[scenario]
kind = "hidden_pair_impaired"
n_trials = 1
seed = 5
payload_bits = 200

[[impairments.capture]]
kind = "quantize"
enob = 8.0
""")
        assert main(["sweep", str(path), "--json",
                     "--param", "impairments.capture.0.enob=4,8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["value"] for p in payload["points"]] == [4, 8]
        assert all("ber_zigzag" in p["metrics"] for p in payload["points"])

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_override_is_an_error(self, scenario_file, capsys):
        assert main(["run", scenario_file, "--set", "nosuch.field=1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("table, body", [
        ("[backoff]", "bogus = 1"),
        ("[[sender]]", 'name = "a"\nsnr_db = 10.0\nbogus = 1'),
        ("[deployment]", "tx_power_dbm = 0.0"),
        ("[deployment]", "interference_floor_db = -2.0"),
    ])
    def test_unknown_table_key_is_an_error(self, tmp_path, capsys, table,
                                           body):
        """An unknown key, or one the schema dropped, names its table."""
        path = tmp_path / "bad.toml"
        path.write_text('[scenario]\nkind = "schedule_failure"\n'
                        f"{table}\n{body}\n")
        assert main(["run", str(path)]) == 2
        assert f"bad {table} table" in capsys.readouterr().err

    @pytest.mark.parametrize("table, key, value", REMOVED_KEYS,
                             ids=[f"{t}.{k}" for t, k, _ in REMOVED_KEYS])
    def test_removed_key_is_an_error(self, tmp_path, capsys, table, key,
                                     value):
        """A key whose setting became a constant fails loudly, naming
        its table (and the key, unless the whole table is gone), even
        at the constant's own value."""
        path = tmp_path / "removed.toml"
        path.write_text(f"{REMOVED_KEY_HEADS[table]}{key} = {value}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert table in err
        assert table == "channel" or key in err
