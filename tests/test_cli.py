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

    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_overflowing_exposure_rates_zero(self, tmp_path, delta):
        # group_size * eta * mu overflows to inf; its click rate is the limit 0.
        # At delta 0, the deficit's 2 * mu would overflow too.
        payload = dict(
            KEYRATE_CFG,
            delta=delta,
            eta_grid={"min": 1.0, "max": 1.0, "points": 1},
            mu_mode={"fixed": 1e308},
        )
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            values = dict(zip(header, row))
            assert float(values["q"]) == float(values["rate_per_pulse"]) == 0.0

    def test_memory_past_lag_1024(self, tmp_path):
        # From lag 1025 on, the kick's divisor 2**(lag - 1) is past the float
        # range; the kick is tiny or exactly 0, and the row an ordinary one.
        payload = dict(
            KEYRATE_CFG, corr_len_list=[1100], eta_grid={"min": 0.2, "max": 0.2, "points": 1}
        )
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert [row[0] for row in rows] == ["1100"]

    def test_optimizes_through_the_public_optimizer(self, tmp_path, monkeypatch):
        # The one optimiser the package exports is the one the CLI runs.
        payload = dict(
            KEYRATE_CFG, eta_grid={"min": 0.2, "max": 0.2, "points": 1}, mu_mode="optimize"
        )
        cfg = write_config(tmp_path / "c.json", payload)
        plain, counted_out = tmp_path / "plain.csv", tmp_path / "counted.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(plain)]) == 0
        calls = []

        def counted(*args, real=cli.optimize_mu):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "optimize_mu", counted)
        assert cli.main(["keyrate", "--config", cfg, "--out", str(counted_out)]) == 0
        assert len(calls) == 2
        assert counted_out.read_bytes() == plain.read_bytes()

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

    @pytest.mark.parametrize(
        "command, key, value, number",
        [
            pytest.param("keyrate", "mu_mode", {"fixed": "@"}, c, id=c)
            for c in ("NaN", "Infinity", "-Infinity")
        ]
        + [
            # Past the float range: 1e400 would load as inf, and a 400-digit
            # integer would overflow at its first float conversion.
            pytest.param("keyrate", "mu_mode", {"fixed": "@"}, "1e400", id="mu-1e400"),
            pytest.param("keyrate", "mu_mode", {"fixed": "@"}, "9" * 400, id="mu-int"),
            pytest.param("keyrate", "delta", "@", "1e400", id="delta-1e400"),
            pytest.param("keyrate", "delta", "@", "9" * 400, id="delta-int"),
            pytest.param("keyrate", "group_size", "@", "9" * 400, id="group-size-int"),
            pytest.param("simulate", "delta", "@", "1e400", id="simulate-delta-1e400"),
            pytest.param(
                "sweep", "delta_list", [0.1, "@"], "-1e400", id="sweep-delta-list-1e400"
            ),
        ],
    )
    def test_non_finite_number_is_usage_error(
        self, tmp_path, capsys, command, key, value, number
    ):
        payload = dict(CONFIGS[command], **{key: value})
        # Raw JSON text: json.dumps writes no number past the float range.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload).replace('"@"', number), encoding="utf-8")
        out = tmp_path / "r.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"non-finite number {number} is not allowed" in capsys.readouterr().err
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

    def test_linear_grid_reaches_eta_zero(self, tmp_path):
        grid = {"min": 0.0, "max": 0.5, "points": 3, "log": False}
        cfg = write_config(tmp_path / "c.json", dict(KEYRATE_CFG, eta_grid=grid))
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert [float(r[1]) for r in rows] == [0.0, 0.25, 0.5] * 2
        dark = [dict(zip(header, r)) for r in rows if float(r[1]) == 0.0]
        assert [float(r["rate_per_pulse"]) for r in dark] == [0.0, 0.0]

    def test_fixed_error_correction_cost(self, tmp_path):
        payload = dict(KEYRATE_CFG, f_ec_fixed=0.25)
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

    @pytest.mark.parametrize(
        "flags, verdict",
        [
            ([], "summary trials=200 failed=0 status=PASS"),
            (["--fault-injection"], "fault-injection DETECTED"),
        ],
        ids=["clean", "injected"],
    )
    def test_long_pulse_trains(self, tmp_path, flags, verdict):
        # Twelve pulses at corr_len 2 hold 2 * 8 * 43 amplitudes, well inside
        # the table budget.
        out = tmp_path / "report.txt"
        args = ["oracle", "--pulses", "12", "--trials", "200", "--seed", "1", *flags]
        assert cli.main([*args, "--out", str(out)]) == 0
        assert verdict in out.read_text(encoding="utf-8")

    def test_stdout_report(self, capsys):
        code = cli.main(["oracle", "--trials", "5", "--seed", "3"])
        assert code == 0
        assert "summary trials=5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, blamed",
        [
            (["--trials", "0"], ["--trials"]),
            (["--trials", "-3"], ["--trials"]),
            (["--fault-injection", "nan"], ["--fault-injection"]),
            (["--fock", "5"], ["--fock"]),
            # 4 pulses of 100000 Fock levels hold 2 * 100000 * 11 amplitudes,
            # beyond the table budget of 2**21, which both flags set.
            (["--fock", "100000"], ["--pulses", "--fock"]),
            (["--seed", "-1"], ["--seed"]),
        ],
        ids=[
            "trials-0",
            "trials-negative",
            "injection-nan",
            "fock-5",
            "fock-100000",
            "seed-negative",
        ],
    )
    def test_bad_flag_rejected(self, tmp_path, capsys, flags, blamed):
        # The message names the flags at fault, with their values, and no
        # other flag.
        out = tmp_path / "report.txt"
        args = ["oracle", "--trials", "3", "--seed", "3", *flags, "--out", str(out)]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        every = ["--trials", "--seed", "--pulses", "--fock", "--fault-injection"]
        assert [f for f in every if f in err] == blamed
        named = dict(zip(args[1::2], args[2::2]))
        for flag in blamed:
            assert f"{flag} {named.get(flag, '4')}" in err
        assert not out.exists()

    def test_empty_out_rejected_before_first_trial(self, monkeypatch, capsys):
        # keyrate, sweep and simulate reject an empty output path too; an
        # empty --out must not send the report to stdout.
        def ran(*args, **kwargs):
            raise AssertionError("a campaign ran before --out was checked")

        monkeypatch.setattr(cli, "run_family_campaign", ran)
        assert cli.main(["oracle", "--trials", "3", "--out", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--out must be a nonempty string" in err


def assert_usage_error(capsys, argv, message):
    """argparse rejects argv with exit code 1, since 2 reports a failed
    verification, and prints its usage and message on stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: rrdps")
    assert message in err


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

    def test_unknown_command_rejected(self, capsys):
        assert_usage_error(capsys, ["frobnicate"], "invalid choice: 'frobnicate'")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle", "--trials", "abc"], "invalid int value: 'abc'"),
            (["oracle", "--fault-injection", "x"], "invalid float value: 'x'"),
            (["keyrate"], "the following arguments are required: --config"),
        ],
        ids=["trials-abc", "injection-x", "keyrate-no-config"],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv, message):
        assert_usage_error(capsys, argv, message)

    @pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rrdps")


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
            (
                "keyrate",
                dict(KEYRATE_CFG, eta_grid={"min": 0.1, "max": 0.2, "points": 0}),
                "eta grid needs at least one point",
            ),
            (
                "sweep",
                dict(SWEEP_CFG, eta_grid={"min": 0.3, "max": 0.2, "points": 2}),
                "eta grid must satisfy 0 <= min <= max <= 1",
            ),
            (
                "keyrate",
                dict(KEYRATE_CFG, eta_grid={"min": 0.5, "max": 1.5, "points": 2}),
                "eta grid must satisfy 0 <= min <= max <= 1",
            ),
        ],
        ids=[
            "keyrate",
            "sweep",
            "simulate",
            "eta-grid-key",
            "eta-grid-log",
            "bool-list",
            "bare-mu",
            "eta-grid-no-points",
            "eta-grid-min-above-max",
            "eta-grid-max-above-1",
        ],
    )
    def test_rejected(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "r.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "payload, message",
        [
            (KEYRATE_CFG, "no output path (use --out or output_path)"),
            (
                dict(KEYRATE_CFG, output_path=3),
                "output_path must be a nonempty string, got 3",
            ),
        ],
        ids=["missing", "not-a-string"],
    )
    def test_output_path_rejected(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["keyrate", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize(
        "text",
        [
            b'{"group_size": 32,',
            b"\xff\xfe{}",
            b"[1, 2]",
            b"[" * 100000 + b"]" * 100000,
        ],
        ids=["truncated", "utf-16-bom", "list-root", "deeply-nested"],
    )
    def test_unreadable_config_names_its_path(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(text)
        out = tmp_path / "r.csv"
        assert cli.main(["keyrate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not out.exists()


CONFIGS = {"keyrate": KEYRATE_CFG, "sweep": SWEEP_CFG, "simulate": SIM_CFG}

# Error-correction settings that the config reader or ProtocolConfig
# refuse, with what the message says.  f_ec_fixed alone selects the fixed
# cost, so a mode key is unknown, whatever its value.
MODE_KEY = "unknown key 'f_ec_mode'"
BAD_F_EC = {
    "fixed-without-value": ({"f_ec_mode": "fixed"}, MODE_KEY),
    "value-under-shannon": ({"f_ec_mode": "shannon", "f_ec_fixed": 0.2}, MODE_KEY),
    "unknown-mode": ({"f_ec_mode": "ldpc"}, MODE_KEY),
    "mode-not-a-string": ({"f_ec_mode": 1}, MODE_KEY),
    "negative-value": ({"f_ec_fixed": -0.1}, "f_ec_fixed must be a finite number >= 0"),
    "boolean-value": ({"f_ec_fixed": True}, "key 'f_ec_fixed' has wrong type"),
}


class TestErrorCorrectionOptions:
    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("case", sorted(BAD_F_EC))
    def test_rejected(self, tmp_path, capsys, command, case):
        keys, message = BAD_F_EC[case]
        cfg = write_config(tmp_path / "c.json", dict(CONFIGS[command], **keys))
        out = tmp_path / "r.csv"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and message in err
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
    ("simulate", dict(SIM_CFG, mu_mode="optimize", eta=1.5)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", n_blocks=0)),
    ("simulate", dict(SIM_CFG, n_blocks=0)),
    ("simulate", dict(SIM_CFG, mu_mode="optimize", n_blocks=2**44)),
    ("simulate", dict(SIM_CFG, n_blocks=2**44)),
]


def test_config_errors_precede_rate_evaluation(tmp_path, monkeypatch, capsys):
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
    # A bad seed, output path or block count, from the config or from a
    # flag, is named after the config; a flag that overrides a bad key does
    # not hide it.
    seed, path = "seed must be a non-negative integer", "output_path must be a nonempty"
    bad_keys = [
        (dict(SIM_CFG, seed=-3), [], seed),
        (dict(SIM_CFG, seed=True), [], seed),
        (SIM_CFG, ["--seed", "-1"], seed),
        (dict(SIM_CFG, seed="abc"), ["--seed", "1"], seed),
        (dict(SIM_CFG, seed=-5), ["--seed", "1"], seed),
        (dict(SIM_CFG, seed=True), ["--seed", "1"], seed),
        (dict(SIM_CFG, output_path=3), [], path),
        (dict(SIM_CFG, output_path=""), [], path),
        (dict(SIM_CFG, n_blocks=2**44), [], "n_blocks must lie in [1, 17592186044415]"),
    ]
    capsys.readouterr()
    for i, (payload, flags, message) in enumerate(bad_keys):
        cfg = write_config(tmp_path / f"s{i}.json", payload)
        out = tmp_path / f"s{i}.csv"
        args = ["simulate", "--config", cfg, *flags, "--out", str(out)]
        assert cli.main(args) == 1, args
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}"), args
        assert not out.exists()
