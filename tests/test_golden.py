"""Byte-for-byte golden outputs of the CLI and the block-record iterator.

The files under ``tests/golden/`` pin the exact bytes of the README
keyrate run (mu optimised, 100 rows), a sweep that reaches group size
1024, a short corr_len = 10 simulate session, a simulate session with mu
optimised and a fixed error-correction cost, a prefix of the per-block
transcript (bits included) on both sides of a chunk boundary, a
300-trial oracle report, the same campaign with every measured deficit
halved, whose report must detect the violations, and a 200-trial oracle
report with up to 12 pulses and 64 Fock levels, which pins long families
and high-Fock coherent tables.  A change that only reorganises
computation must leave them untouched.  Regenerate, after a deliberate
output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from rrdps import cli
from rrdps import simulate as sim
from rrdps.security import ProtocolConfig

GOLDEN = Path(__file__).parent / "golden"

# The README keyrate example: 4 corr_len x 25 eta, mu optimised per row.
KEYRATE_CFG = {
    "group_size": 32,
    "corr_len_list": [0, 1, 2, 10],
    "delta": 0.2,
    "e_bit": 0.03,
    "eta_grid": {"min": 1e-3, "max": 1.0, "points": 25, "log": True},
    "mu_mode": "optimize",
}

SWEEP_CFG = {
    "group_size_list": [3, 32, 1024],
    "delta_list": [0.2],
    "corr_len_list": [0, 10],
    "e_bit": 0.03,
    "eta_grid": {"min": 0.01, "max": 0.5, "points": 2, "log": True},
    "mu_mode": {"fixed": 0.05},
}

SIMULATE_CFG = {
    "group_size": 32,
    "corr_len": 10,
    "delta": 0.2,
    "e_bit": 0.03,
    "eta": 0.2,
    "mu_mode": {"fixed": 0.05},
    "n_blocks": 5000,
    "seed": 11,
}

SIMULATE_OPT_CFG = {
    "group_size": 32,
    "corr_len": 1,
    "delta": 0.2,
    "e_bit": 0.03,
    "eta": 0.2,
    "mu_mode": "optimize",
    "f_ec_mode": "fixed",
    "f_ec_fixed": 0.25,
    "n_blocks": 5000,
    "seed": 13,
}

# Blocks 1-4 come from chunk 0, blocks 4097-4100 from chunk 1.
RECORD_BLOCKS = (1, 2, 3, 4, 4097, 4098, 4099, 4100)

ORACLE_ARGS = ["oracle", "--trials", "300", "--seed", "1"]
ORACLE_FAULT_ARGS = [*ORACLE_ARGS, "--fault-injection", "0.5"]
ORACLE_WIDE_ARGS = ["oracle", "--trials", "200", "--seed", "1", "--pulses", "12"]
ORACLE_WIDE_ARGS += ["--fock", "64"]
# The last digits of the mu-optimised runs depend on the BLAS thread count,
# which is fixed when the library loads, so those runs are pinned in a fresh
# one-thread interpreter.  The oracle reports do not depend on it; they run
# in the same interpreter only to capture their stdout.
ONE_BLAS_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _cli_output(command: str, config: dict, work: Path) -> bytes:
    cfg_path = work / f"{command}.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / f"{command}.csv"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    return out.read_bytes()


def _records() -> bytes:
    cfg = ProtocolConfig(group_size=4, corr_len=2, e_bit=0.25)
    lines = [
        json.dumps(dataclasses.asdict(rec)) + "\n"
        for rec in sim.iter_block_records(cfg, 0.5, max(RECORD_BLOCKS), seed=3)
        if rec.block in RECORD_BLOCKS
    ]
    return "".join(lines).encode("utf-8")


def _fresh_cli(args: list[str], threads: dict = ONE_BLAS_THREAD) -> bytes:
    """Stdout of the CLI run in a fresh interpreter, one BLAS thread unless
    ``threads`` says otherwise; a warning there is an error, as in the suite."""
    code = "import sys; from rrdps.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **threads)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *args],
        env=env,
        capture_output=True,
        check=True,
    )
    return done.stdout


def _fresh_cli_output(command: str, config: dict, work: Path) -> bytes:
    cfg_path = work / f"{command}.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / f"{command}.csv"
    _fresh_cli([command, "--config", str(cfg_path), "--out", str(out)])
    return out.read_bytes()


def _outputs(work: Path) -> dict[str, bytes]:
    return {
        "keyrate-readme.csv": _fresh_cli_output("keyrate", KEYRATE_CFG, work),
        "sweep.csv": _cli_output("sweep", SWEEP_CFG, work),
        "simulate-lc10.csv": _cli_output("simulate", SIMULATE_CFG, work),
        "simulate-optimize.csv": _fresh_cli_output("simulate", SIMULATE_OPT_CFG, work),
        "records.jsonl": _records(),
        "oracle-seed1.txt": _fresh_cli(ORACLE_ARGS),
        "oracle-fault-seed1.txt": _fresh_cli(ORACLE_FAULT_ARGS),
        "oracle-wide-seed1.txt": _fresh_cli(ORACLE_WIDE_ARGS),
    }


def test_keyrate_readme_mu_optimised(tmp_path):
    got = _fresh_cli_output("keyrate", KEYRATE_CFG, tmp_path)
    assert got == (GOLDEN / "keyrate-readme.csv").read_bytes()


def test_sweep_up_to_group_size_1024(tmp_path):
    assert _cli_output("sweep", SWEEP_CFG, tmp_path) == (GOLDEN / "sweep.csv").read_bytes()


def test_simulate_corr_len_10(tmp_path):
    got = _cli_output("simulate", SIMULATE_CFG, tmp_path)
    assert got == (GOLDEN / "simulate-lc10.csv").read_bytes()


def test_simulate_mu_optimised_fixed_f_ec(tmp_path):
    got = _fresh_cli_output("simulate", SIMULATE_OPT_CFG, tmp_path)
    assert got == (GOLDEN / "simulate-optimize.csv").read_bytes()


def test_block_record_prefix():
    assert _records() == (GOLDEN / "records.jsonl").read_bytes()


def test_oracle_report_seed_1():
    assert _fresh_cli(ORACLE_ARGS) == (GOLDEN / "oracle-seed1.txt").read_bytes()


def test_fault_injected_oracle_report_seed_1():
    assert _fresh_cli(ORACLE_FAULT_ARGS) == (GOLDEN / "oracle-fault-seed1.txt").read_bytes()


def test_wide_oracle_report_seed_1():
    assert _fresh_cli(ORACLE_WIDE_ARGS) == (GOLDEN / "oracle-wide-seed1.txt").read_bytes()


def test_oracle_report_independent_of_blas_threads():
    two = {var: "2" for var in ONE_BLAS_THREAD}
    assert _fresh_cli(ORACLE_ARGS, two) == _fresh_cli(ORACLE_ARGS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in _outputs(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}")
