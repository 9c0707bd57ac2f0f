"""Checks of one CLI invocation's output, counted per operation.

An operation is one keyrate or sweep row, one simulate session, or one
oracle trial line.  A check that concerns a single operation fails only
that operation; a check on the invocation as a whole (exit code, header,
the oracle summary and fidelity-floor verdicts, the row count) fails every
operation of the invocation.

Where a reference output for the workload and seed is committed under
``ref/``, every field is compared with it: integer columns and verdicts
exactly, floats within the tolerances below.  Without a reference only
what holds for any seed is checked.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

# CSV floats carry 12 significant digits; reordered float arithmetic may
# move the last of them, which this relative tolerance admits.
CSV_REL_TOL = 1e-9
# Oracle report floats carry 9 decimals; allow a flip of the last one.
ORACLE_ABS_TOL = 2e-9
# ``transfer`` goes through sqrt(1 - fid^2): at fid near 1 the BLAS
# summation order in ``vdot`` moves its 8th decimal.  With 1 against 2
# OpenBLAS threads, ``oracle --trials 1000`` differs by up to 6.8e-8 on
# seeds 1 and 2, in 8 and 7 trial lines.
TRANSFER_ABS_TOL = 1e-6
# Simulated rates must lie within this many standard errors of the
# expected ones.  There are corr_len + 2 such tests per session (one per
# group plus the error rate); at 3 standard errors 3% of seeds would fail
# by chance at corr_len 10, at 5 fewer than 1e-5 do.
SIM_MAX_SE = 5.0

INT_COLUMNS = {"group_size", "corr_len", "n_groups", "n_blocks", "seed", "key_length"}
ORACLE_EXACT = ("trial", "seed", "n", "lc", "fock", "t", "hist", "status")
ORACLE_FLOATS = (
    "refcap", "fidfloor", "actcap", "p_ref", "p_act", "fid", "transfer", "a1", "a1floor",
)


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        self.problems.append(what)

    def fail_all(self, what: str) -> None:
        self.fail(what, self.attempted)


def _is_int_column(name: str) -> bool:
    return name in INT_COLUMNS or name.startswith(("n_suc_w", "n_err_w"))


def _fields_match(header: list[str], row: list[str], ref: list[str]) -> str | None:
    """None if ``row`` matches ``ref``, else the first differing column."""
    if len(row) != len(ref):
        return "column count"
    for name, got, want in zip(header, row, ref):
        if _is_int_column(name):
            if got != want:
                return name
            continue
        try:
            ok = math.isclose(float(got), float(want), rel_tol=CSV_REL_TOL, abs_tol=1e-300)
        except ValueError:
            ok = False
        if not ok:
            return name
    return None


def _split_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    first, _, rest = text.partition("\n")
    rows = list(csv.reader(rest.splitlines()))
    if not rows:
        return first, [], []
    return first, rows[0], rows[1:]


def _tag(first_line: str) -> str:
    """The part of the ``# rrdps <version> <tag...>`` line after the version."""
    parts = first_line.split(" ", 3)
    return parts[3] if len(parts) == 4 and parts[:2] == ["#", "rrdps"] else ""


def check_rate_csv(text: str, ref_text: str, exit_code: int) -> Verdict:
    """keyrate and sweep: every row against the reference, which is required."""
    ref_first, ref_header, ref_rows = _split_csv(ref_text)
    v = Verdict(attempted=len(ref_rows))
    first, header, rows = _split_csv(text)
    if exit_code != 0:
        v.fail_all(f"exit code {exit_code}")
    if _tag(first) != _tag(ref_first) or header != ref_header:
        v.fail_all("header differs from reference")
        return v
    if len(rows) != len(ref_rows):
        v.fail_all(f"{len(rows)} rows, reference has {len(ref_rows)}")
        return v
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        bad = _fields_match(header, row, ref)
        if bad:
            v.fail(f"row {i}: {bad} differs from reference")
    return v


def check_simulate_csv(
    text: str, ref_text: str | None, exit_code: int, expect: dict
) -> Verdict:
    """simulate: one session, against the reference or statistically."""
    v = Verdict(attempted=1)
    if exit_code != 0:
        v.fail_all(f"exit code {exit_code}")
        return v
    first, header, rows = _split_csv(text)
    if _tag(first) != "simulate" or len(rows) != 1 or len(rows[0]) != len(header):
        v.fail_all("not one simulate row")
        return v
    if ref_text is not None:
        _, ref_header, ref_rows = _split_csv(ref_text)
        bad = "header" if header != ref_header else _fields_match(header, rows[0], ref_rows[0])
        if bad:
            v.fail(f"{bad} differs from reference")
        return v
    try:
        _check_session(dict(zip(header, rows[0])), expect)
    except (KeyError, ValueError) as exc:
        v.fail(str(exc))
    return v


def _check_session(row: dict, expect: dict) -> None:
    """Raise ValueError unless the session is consistent and plausible."""
    for key, want in expect.items():
        if float(row[key]) != float(want):
            raise ValueError(f"{key}={row[key]}, expected {want}")
    n_blocks = int(row["n_blocks"])
    q = float(row["q_success"])
    q_se = math.sqrt(q * (1.0 - q) / n_blocks)
    n_suc = n_err = 0
    for w in range(1, int(row["corr_len"]) + 2):
        suc = int(row[f"n_suc_w{w}"])
        q_hat = float(row[f"q_hat_w{w}"])
        if not math.isclose(q_hat, suc / n_blocks, rel_tol=CSV_REL_TOL):
            raise ValueError(f"q_hat_w{w}={q_hat} is not n_suc_w{w}/n_blocks")
        if abs(q_hat - q) > SIM_MAX_SE * q_se:
            raise ValueError(f"q_hat_w{w}={q_hat} is {abs(q_hat - q) / q_se:.1f} SE from q={q}")
        n_suc += suc
        n_err += int(row[f"n_err_w{w}"])
    e_bit, e_hat = float(expect["e_bit"]), float(row["e_bit_hat"])
    if not math.isclose(e_hat, n_err / n_suc, rel_tol=CSV_REL_TOL):
        raise ValueError(f"e_bit_hat={e_hat} is not the error count over successes")
    e_se = math.sqrt(e_bit * (1.0 - e_bit) / n_suc)
    if abs(e_hat - e_bit) > SIM_MAX_SE * e_se:
        raise ValueError(f"e_bit_hat={e_hat} is {abs(e_hat - e_bit) / e_se:.1f} SE from {e_bit}")
    if int(row["key_length"]) < 0:
        raise ValueError("negative key length")


def _parse_trial(line: str) -> dict:
    return dict(token.partition("=")[::2] for token in line.split(" "))


def check_oracle_report(
    text: str, ref_text: str | None, exit_code: int, seed: int, trials: int
) -> Verdict:
    """oracle: one operation per trial line, plus the report's verdicts."""
    v = Verdict(attempted=trials)
    if exit_code != 0:
        v.fail_all(f"exit code {exit_code}")
    lines = text.splitlines()
    if len(lines) != trials + 3:
        v.fail_all(f"{len(lines)} lines, expected {trials + 3}")
        return v
    head, body, (summary, fidelity) = lines[0], lines[1:-2], lines[-2:]
    if _tag(head) != f"oracle seed={seed} trials={trials}":
        v.fail_all(f"header {head!r}")
    if ref_text is not None:
        ref = ref_text.splitlines()
        if len(ref) != len(lines):
            raise ValueError("reference report has another trial count")
        summary_ok, fidelity_ok = summary == ref[-2], fidelity == ref[-1]
    else:
        ref = None
        summary_ok = summary == f"summary trials={trials} failed=0 status=PASS"
        fidelity_ok = fidelity.startswith(
            "fidelity-floor dim=6 trials=2000 failed=0 "
        ) and fidelity.endswith(" status=PASS")
    if not summary_ok:
        v.fail_all(f"summary {summary!r}")
    if not fidelity_ok:
        v.fail_all(f"fidelity line {fidelity!r}")
    for i, line in enumerate(body):
        got = _parse_trial(line)
        want = _parse_trial(ref[i + 1]) if ref is not None else {"trial": str(i), "status": "PASS"}
        bad = _trial_mismatch(got, want, exact_only=ref is None)
        if bad:
            v.fail(f"trial line {i}: {bad}")
    return v


def _trial_mismatch(got: dict, want: dict, exact_only: bool) -> str | None:
    if set(got) != set(ORACLE_EXACT + ORACLE_FLOATS):
        return "fields"
    for key in ORACLE_EXACT:
        if key in want and got[key] != want[key]:
            return key
    for key in ORACLE_FLOATS:
        try:
            value = float(got[key])
        except ValueError:
            return key
        if exact_only:
            continue
        tol = TRANSFER_ABS_TOL if key == "transfer" else ORACLE_ABS_TOL
        if not abs(value - float(want[key])) <= tol:
            return key
    return None
