"""Tests of the benchmark's output checks and tracing.

    python3 -m pytest perfbench

They show that a corrupted output is counted as failed operations, that
tolerated deviations are not, and that the traced run sees calls made
through names bound by ``from .x import y`` without changing the output.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import tracer

KEYRATE_REF = run._read_ref(run.REF / "keyrate-opt.csv")
SIM_REF = run._read_ref(run.REF / "simulate-lc10" / "seed-1.csv")
ORACLE_REF = run._read_ref(run.REF / "oracle-campaign" / "seed-1.txt.gz")
SIM_EXPECT = {"group_size": 32, "corr_len": 10, "delta": 0.2, "e_bit": 0.03,
              "eta": 0.2, "mu": 0.05, "n_blocks": 1_000_000, "seed": 1}


def _edit_csv(text: str, row: int, column: str, edit) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[1].rstrip("\n").split(",")
    cells = lines[2 + row].rstrip("\n").split(",")
    j = header.index(column)
    cells[j] = edit(cells[j])
    lines[2 + row] = ",".join(cells) + "\n"
    return "".join(lines)


def _scale(factor: float):
    return lambda cell: format(float(cell) * factor, ".12g")


def _edit_trial(text: str, trial: int, key: str, edit) -> str:
    lines = text.splitlines(keepends=True)
    tokens = lines[1 + trial].rstrip("\n").split(" ")
    for i, token in enumerate(tokens):
        k, _, value = token.partition("=")
        if k == key:
            tokens[i] = f"{k}={edit(value)}"
    lines[1 + trial] = " ".join(tokens) + "\n"
    return "".join(lines)


def test_references_pass_their_own_check():
    assert check.check_rate_csv(KEYRATE_REF, KEYRATE_REF, 0).failed == 0
    assert check.check_simulate_csv(SIM_REF, SIM_REF, 0, SIM_EXPECT).failed == 0
    assert check.check_simulate_csv(SIM_REF, None, 0, SIM_EXPECT).failed == 0
    assert check.check_oracle_report(ORACLE_REF, ORACLE_REF, 0, 1, 1000).failed == 0
    assert check.check_oracle_report(ORACLE_REF, None, 0, 1, 1000).failed == 0


@pytest.mark.parametrize("column, edit, failed", [
    ("rate_per_pulse", _scale(1 + 1e-6), 1),
    ("rate_per_pulse", _scale(1 + 1e-11), 0),
    ("n_groups", lambda c: str(int(c) + 1), 1),
    ("mu", lambda c: "nan", 1),
])
def test_rate_row_corruption_fails_one_row(column, edit, failed):
    bad = _edit_csv(KEYRATE_REF, 5, column, edit)
    assert check.check_rate_csv(bad, KEYRATE_REF, 0).failed == failed


def test_rate_invocation_level_failures_fail_every_row():
    rows = len(KEYRATE_REF.splitlines()) - 2
    dropped = "".join(KEYRATE_REF.splitlines(keepends=True)[:-1])
    assert check.check_rate_csv(dropped, KEYRATE_REF, 0).failed == rows
    assert check.check_rate_csv(KEYRATE_REF, KEYRATE_REF, 1).failed == rows


@pytest.mark.parametrize("ref", [SIM_REF, None])
def test_simulate_corruption_fails(ref):
    bad = _edit_csv(SIM_REF, 0, "n_suc_w3", lambda c: str(int(c) + 2000))
    bad = _edit_csv(bad, 0, "q_hat_w3", lambda c: format((float(c) * 1e6 + 2000) / 1e6, ".12g"))
    assert check.check_simulate_csv(bad, ref, 0, SIM_EXPECT).failed == 1


def test_simulate_without_reference_checks_deviation_in_standard_errors():
    row = dict(zip(SIM_REF.splitlines()[1].split(","), SIM_REF.splitlines()[2].split(",")))
    q = float(row["q_success"])
    shift = round(6 * math.sqrt(q * (1 - q) / 1_000_000) * 1_000_000)
    bad = _edit_csv(SIM_REF, 0, "n_suc_w1", lambda c: str(int(c) + shift))
    bad = _edit_csv(bad, 0, "q_hat_w1", lambda c: format(int(row["n_suc_w1"]) + shift, "d") + "e-6")
    verdict = check.check_simulate_csv(bad, None, 0, SIM_EXPECT)
    assert verdict.failed == 1 and "SE from q" in verdict.problems[0]


@pytest.mark.parametrize("ref", [ORACLE_REF, None])
def test_oracle_failed_trial_fails_one_line(ref):
    bad = _edit_trial(ORACLE_REF, 17, "status", lambda v: "FAIL")
    verdict = check.check_oracle_report(bad, ref, 0, 1, 1000)
    assert verdict.failed == 1


@pytest.mark.parametrize("key, delta, failed", [
    ("transfer", 1e-5, 1),
    ("transfer", 1e-7, 0),
    ("p_act", 1e-8, 1),
])
def test_oracle_float_tolerances(key, delta, failed):
    bad = _edit_trial(ORACLE_REF, 3, key, lambda v: f"{float(v) + delta:.9f}")
    assert check.check_oracle_report(bad, ORACLE_REF, 0, 1, 1000).failed == failed


@pytest.mark.parametrize("ref", [ORACLE_REF, None])
def test_oracle_verdict_lines_fail_every_trial(ref):
    lines = ORACLE_REF.splitlines(keepends=True)
    lines[-2] = lines[-2].replace("failed=0", "failed=1")
    assert check.check_oracle_report("".join(lines), ref, 0, 1, 1000).failed == 1000
    assert check.check_oracle_report(ORACLE_REF, ref, 2, 1, 1000).failed == 1000


def test_corrupted_output_raises_error_rate(monkeypatch, tmp_path):
    """The run loop counts what the checker rejects and clears ``correct``."""

    def corrupt_invoke(argv, work, env, tag, traced):
        out = Path(argv[-1])
        out.write_text(_edit_csv(KEYRATE_REF, 2, "q", _scale(1.01)), encoding="utf-8")
        return {"exit_code": 0, "wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.5,
                "peak_rss_mb": 80.0, "traced": traced}

    monkeypatch.setattr(run, "invoke", corrupt_invoke)
    diagnostics, result = run.run("keyrate-opt", 1, 0.0, False, tmp_path)
    assert result["failed"] == 3 and result["attempted"] == 3 * 12
    assert not result["correct"]
    assert diagnostics["error_rate"] == pytest.approx(1 / 12)


def test_traced_invocation_sees_imported_names(tmp_path):
    """Spans include calls made through names other modules imported."""
    config = tmp_path / "kr.json"
    config.write_text(json.dumps({
        "group_size": 4, "corr_len_list": [0, 1], "delta": 0.2, "e_bit": 0.03,
        "eta_grid": {"min": 0.1, "max": 0.1, "points": 1}, "mu_mode": "optimize",
    }))
    env = run.pinned_env()
    outputs = []
    for traced in (False, True):
        out = tmp_path / f"out-{traced}.csv"
        rec = run.invoke(["keyrate", "--config", str(config), "--out", str(out)],
                         tmp_path, env, str(traced), traced)
        assert rec["exit_code"] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    spans = rec["trace"]["spans"]
    assert spans["cli.main"]["calls"] == 1
    # cli -> optimize_mu and sources -> key_rate go through imported names.
    assert spans["sources.optimize_mu"]["calls"] == 2
    assert spans["security.key_rate"]["calls"] == spans["sources.rate_at_mu"]["calls"] > 400
    assert 0 < spans["cli.main"]["self_s"] < spans["cli.main"]["total_s"]


def test_summarize_self_time_excludes_children(tmp_path):
    t = tracer.Tracer()

    def leaf():
        return None

    def outer():
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = t._wrap("m.leaf", leaf)
    t._wrap("m.outer", outer)()
    path = tmp_path / "spans.npz"
    t.dump(str(path))
    spans = tracer.summarize(str(path))["spans"]
    assert spans["m.leaf"]["calls"] == 2 and spans["m.outer"]["calls"] == 1
    outer_s = spans["m.outer"]
    assert outer_s["self_s"] == pytest.approx(outer_s["total_s"] - spans["m.leaf"]["total_s"])


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "keyrate-opt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
