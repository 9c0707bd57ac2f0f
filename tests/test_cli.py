"""End-to-end tests of the command line interface."""

import csv
import json
import os
import subprocess
import sys

import pytest

import rrdps
from rrdps import __version__
from rrdps import cli


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith(f"# rrdps {__version__} ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


KEYRATE_CFG = {
    "group_size": 8,
    "corr_len_list": [0, 1],
    "delta": 0.2,
    "e_bit": 0.03,
    "eta_grid": {"min": 0.05, "max": 0.5, "points": 3, "log": True},
    "mu_mode": {"fixed": 0.08},
}


class TestKeyrateCommand:
    def test_writes_sorted_rows(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", KEYRATE_CFG)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[:2] == ["corr_len", "eta"]
        assert len(rows) == 6
        keys = [(int(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", KEYRATE_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_path_from_config(self, tmp_path):
        payload = dict(KEYRATE_CFG, output_path=str(tmp_path / "cfg.csv"))
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["keyrate", "--config", cfg]) == 0
        assert (tmp_path / "cfg.csv").exists()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RRDPS_OUT_DIR", str(tmp_path / "sink"))
        cfg = write_config(tmp_path / "c.json", KEYRATE_CFG)
        assert cli.main(["keyrate", "--config", cfg, "--out", "rel.csv"]) == 0
        assert (tmp_path / "sink" / "rel.csv").exists()

    def test_missing_config_is_usage_error(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["keyrate", "--config", missing, "--out", "x.csv"]) == 1

    def test_incomplete_config_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"group_size": 8})
        assert cli.main(["keyrate", "--config", cfg, "--out", "x.csv"]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_invalid_grid_is_usage_error(self, tmp_path):
        payload = dict(KEYRATE_CFG, eta_grid={"min": 0.0, "max": 1.0, "points": 3})
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["keyrate", "--config", cfg, "--out", "x.csv"]) == 1

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_is_usage_error(self, tmp_path, capsys, constant):
        payload = dict(KEYRATE_CFG, mu_mode={"fixed": json.loads(constant)})
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 1
        assert f"non-finite number {constant} is not allowed" in capsys.readouterr().err
        assert not out.exists()

    def test_no_rotation_reduces_to_memoryless(self, tmp_path):
        payload = dict(KEYRATE_CFG, delta=0.0)
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col = header.index("rate_per_pulse")
        by_corr = {}
        for r in rows:
            by_corr.setdefault(int(r[0]), []).append(r[col])
        # Bitwise equality of the formatted rates, not mere closeness.
        assert by_corr[0] == by_corr[1]

    def test_fixed_error_correction_cost(self, tmp_path):
        payload = dict(KEYRATE_CFG, f_ec_mode="fixed", f_ec_fixed=0.25)
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        col = header.index("f_ec")
        assert [r[col] for r in rows] == ["0.25"] * len(rows)


class TestSweepCommand:
    def test_grid_expansion(self, tmp_path):
        payload = {
            "group_size_list": [8, 16],
            "delta_list": [0.1, 0.3],
            "corr_len_list": [1],
            "e_bit": 0.03,
            "eta_grid": {"min": 0.2, "max": 0.2, "points": 1},
            "mu_mode": {"fixed": 0.08},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header[:4] == ["group_size", "delta", "corr_len", "eta"]
        assert len(rows) == 4
        combos = {(r[0], r[1]) for r in rows}
        assert len(combos) == 4


SIM_CFG = {
    "group_size": 8,
    "corr_len": 1,
    "delta": 0.2,
    "e_bit": 0.03,
    "eta": 0.3,
    "mu_mode": {"fixed": 0.08},
    "n_blocks": 2000,
    "seed": 5,
}


class TestSimulateCommand:
    def test_single_row_with_groups(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_CFG)
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        assert "q_hat_w1" in header and "q_hat_w2" in header
        assert "analytic_rate" in header

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SIM_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert (
            cli.main(
                ["simulate", "--config", cfg, "--seed", "99", "--out", str(out2)]
            )
            == 0
        )
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path):
        payload = {k: v for k, v in SIM_CFG.items() if k != "seed"}
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["simulate", "--config", cfg, "--out", "x.csv"]) == 1

    def test_fixed_mu_characterises_the_source_once(self, tmp_path, monkeypatch):
        # The session and its analytic rate share one characterisation.
        real = rrdps.sources.characterize
        calls = []

        def counting(model):
            calls.append(model)
            return real(model)

        # Count the calls made through every module that imports the name.
        for module in (rrdps.sources, rrdps.simulate, cli):
            if hasattr(module, "characterize"):
                monkeypatch.setattr(module, "characterize", counting)
        cfg = write_config(tmp_path / "c.json", SIM_CFG)
        out = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == 1


class TestOracleCommand:
    def test_clean_run_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        code = cli.main(
            ["oracle", "--trials", "15", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "summary trials=15 failed=0 status=PASS" in text
        assert "fidelity-floor" in text
        assert text.count("trial=") == 15

    def test_fault_injection_detected(self, tmp_path):
        out = tmp_path / "report.txt"
        code = cli.main(
            [
                "oracle",
                "--trials",
                "40",
                "--seed",
                "3",
                "--fault-injection",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "fault-injection DETECTED" in out.read_text(encoding="utf-8")

    def test_ineffective_injection_fails(self, tmp_path):
        # Scaling by 1 corrupts nothing, so no violations can appear and
        # the command must report that as a failed campaign.
        out = tmp_path / "report.txt"
        code = cli.main(
            [
                "oracle",
                "--trials",
                "10",
                "--seed",
                "3",
                "--fault-injection",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "fault-injection MISSED" in out.read_text(encoding="utf-8")

    def test_stdout_report(self, capsys):
        code = cli.main(["oracle", "--trials", "5", "--seed", "3"])
        assert code == 0
        assert "summary trials=5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--trials", "0"], "--trials"),
            (["--trials", "-3"], "--trials"),
            (["--fault-injection", "nan"], "--fault-injection"),
            (["--fock", "5"], "--fock"),
            # (2 * 20)^4 amplitudes exceed MAX_STATE_DIM.
            (["--fock", "20"], "--fock"),
        ],
        ids=["trials-0", "trials-negative", "injection-nan", "fock-5", "fock-20"],
    )
    def test_bad_flag_rejected(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "report.txt"
        args = ["oracle", "--trials", "3", "--seed", "3", *flags, "--out", str(out)]
        assert cli.main(args) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_import_leaves_optimizer_unloaded(self, tmp_path):
        # mu optimisation runs an in-package golden-section search, so not
        # even an optimising keyrate run loads scipy.optimize.
        payload = dict(
            KEYRATE_CFG,
            eta_grid={"min": 0.2, "max": 0.2, "points": 1},
            mu_mode="optimize",
        )
        cfg = write_config(tmp_path / "c.json", payload)
        code = (
            "import sys, rrdps.cli\n"
            "loaded = ['scipy.optimize' in sys.modules]\n"
            "assert rrdps.cli.main(sys.argv[1:]) == 0\n"
            "loaded.append('scipy.optimize' in sys.modules)\n"
            "print(loaded)"
        )
        args = ["keyrate", "--config", cfg, "--out", str(tmp_path / "r.csv")]
        out = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "[False, False]"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])


SWEEP_CFG = {
    "group_size_list": [8],
    "delta_list": [0.2],
    "corr_len_list": [1],
    "e_bit": 0.03,
    "eta_grid": {"min": 0.2, "max": 0.2, "points": 1},
    "mu_mode": {"fixed": 0.08},
}


class TestStrictConfigs:
    @pytest.mark.parametrize(
        "command, payload, message",
        [
            (
                "keyrate",
                dict(KEYRATE_CFG, f_ec_mod="fixed"),
                "unknown key 'f_ec_mod'",
            ),
            ("sweep", dict(SWEEP_CFG, group_size=8), "unknown key 'group_size'"),
            ("simulate", dict(SIM_CFG, blocks=10), "unknown key 'blocks'"),
            (
                "keyrate",
                dict(KEYRATE_CFG, eta_grid=dict(KEYRATE_CFG["eta_grid"], step=0.1)),
                "eta_grid: unknown key 'step'",
            ),
            (
                "sweep",
                dict(SWEEP_CFG, eta_grid=dict(SWEEP_CFG["eta_grid"], log="no")),
                "eta_grid: key 'log' must be true or false",
            ),
            ("keyrate", dict(KEYRATE_CFG, corr_len_list=[False, True]), "corr_len_list"),
            ("keyrate", dict(KEYRATE_CFG, mu_mode=0.05), "mu_mode"),
        ],
        ids=[
            "keyrate",
            "sweep",
            "simulate",
            "eta-grid-key",
            "eta-grid-log",
            "bool-list",
            "bare-mu",
        ],
    )
    def test_rejected(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


CONFIGS = {"keyrate": KEYRATE_CFG, "sweep": SWEEP_CFG, "simulate": SIM_CFG}

# Error-correction settings that ProtocolConfig or the type check refuse.
BAD_F_EC = {
    "fixed-without-value": {"f_ec_mode": "fixed"},
    "value-under-shannon": {"f_ec_mode": "shannon", "f_ec_fixed": 0.2},
    "negative-value": {"f_ec_mode": "fixed", "f_ec_fixed": -0.1},
    "boolean-value": {"f_ec_mode": "fixed", "f_ec_fixed": True},
    "unknown-mode": {"f_ec_mode": "ldpc"},
}


class TestErrorCorrectionOptions:
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("case", sorted(BAD_F_EC))
    def test_rejected(self, tmp_path, capsys, command, case):
        cfg = write_config(tmp_path / "c.json", dict(CONFIGS[command], **BAD_F_EC[case]))
        out = tmp_path / "r.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not out.exists()


# Config errors of every kind: ranges left to ProtocolConfig, a bad entry
# behind good ones, and keys only the command reads itself.
LATE_ERRORS = [
    ("keyrate", dict(KEYRATE_CFG, e_bit=0.7)),
    ("keyrate", dict(KEYRATE_CFG, group_size=2)),
    ("keyrate", dict(KEYRATE_CFG, corr_len_list=[0, -1])),
    ("keyrate", dict(KEYRATE_CFG, mu_mode="optimize", f_ec_mode="fixed")),
    ("sweep", dict(SWEEP_CFG, group_size_list=[8, 2])),
    ("sweep", dict(SWEEP_CFG, mu_mode="optimize", e_bit=-0.1)),
    ("sweep", dict(SWEEP_CFG, delta_list=[0.1, "x"])),
    ("simulate", dict(SIM_CFG, e_bit=0.7)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", e_bit=0.7)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", corr_len=-1)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", f_ec_fixed=0.2)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", eta=1.5)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", n_blocks=0)),
    ("simulate", dict(SIM_CFG, n_blocks=0)),
]


def test_config_errors_precede_rate_evaluation(tmp_path, monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError("a rate was evaluated before the config was checked")

    entries = ("optimize_mu", "rate_at_mu", "_coherent_point", "key_rate", "run_simulation")
    for entry in entries:
        monkeypatch.setattr(cli, entry, evaluated)
    for i, (command, payload) in enumerate(LATE_ERRORS):
        cfg = write_config(tmp_path / f"c{i}.json", payload)
        out = tmp_path / f"r{i}.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1, payload
        assert not out.exists()
