"""Command line front end.

Subcommands:

``keyrate``   analytic rate curves over a detector-efficiency grid,
              one row per (corr_len, eta), written as CSV.
``sweep``     the same rates over grids of group size and rotation
              strength as well.
``simulate``  one Monte Carlo session compared against the analytic
              prediction, written as a single CSV row.
``oracle``    randomized exact verification of the bound derivation,
              written as a line-oriented report.

Configs are JSON files; numeric output uses 12 significant digits and no
timestamps, so reruns with the same config and seed are byte identical
at a fixed BLAS thread count.
Relative output paths are resolved against ``RRDPS_OUT_DIR`` when that is
set.  Exit codes: 0 on success, 1 on usage or config errors (unknown
keys and non-finite numbers included), 2 when a verification campaign
reports violations (or fault injection fails to produce them).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .oracle import run_family_campaign, verify_fidelity_proposition
from .security import ProtocolConfig, SecurityBounds
from .simulate import analytic_prediction, run_simulation
from .sources import (
    PhaseRotationModel,
    characterize,
    detection_rate,
    optimize_mu,
    rate_at_mu,
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get("RRDPS_OUT_DIR")
        if base:
            p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_csv(path: Path, tag: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(f"# rrdps {__version__} {tag}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_config(path: str) -> dict:
    def reject_constant(name: str):
        raise ValueError(f"{path}: non-finite number {name} is not allowed")

    with open(path, "r", encoding="utf-8") as f:
        cfg = json.load(f, parse_constant=reject_constant)
    if not isinstance(cfg, dict):
        raise ValueError("config root must be a JSON object")
    return cfg


# Every key each config may hold; anything else is a config error.
_COMMON_KEYS = {"e_bit", "mu_mode", "f_ec_mode", "f_ec_fixed", "output_path"}
_RATE_KEYS = _COMMON_KEYS | {"corr_len_list", "eta_grid"}
_KEYRATE_KEYS = _RATE_KEYS | {"group_size", "delta"}
_SWEEP_KEYS = _RATE_KEYS | {"group_size_list", "delta_list"}
_SIMULATE_KEYS = _COMMON_KEYS | {
    "group_size", "corr_len", "delta", "eta", "n_blocks", "seed"
}
_ETA_GRID_KEYS = {"min", "max", "points", "log"}


def _reject_unknown(cfg: dict, known: set, where: str) -> None:
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def _get(cfg: dict, key: str, kinds, where: str):
    if key not in cfg:
        raise ValueError(f"{where}: missing required key {key!r}")
    value = cfg[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"{where}: key {key!r} has wrong type")
    return value


def _eta_grid(cfg: dict, where: str) -> list[float]:
    grid = _get(cfg, "eta_grid", dict, where)
    _reject_unknown(grid, _ETA_GRID_KEYS, where + ".eta_grid")
    lo = float(_get(grid, "min", (int, float), where + ".eta_grid"))
    hi = float(_get(grid, "max", (int, float), where + ".eta_grid"))
    points = _get(grid, "points", int, where + ".eta_grid")
    log = grid.get("log", True)
    if not isinstance(log, bool):
        raise ValueError(f"{where}.eta_grid: key 'log' must be true or false")
    if points < 1:
        raise ValueError(f"{where}: eta grid needs at least one point")
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"{where}: eta grid must satisfy 0 <= min <= max <= 1")
    if log and lo <= 0.0:
        raise ValueError(f"{where}: log-spaced eta grid needs min > 0")
    if points == 1:
        return [lo]
    if log:
        return [float(x) for x in np.geomspace(lo, hi, points)]
    return [float(x) for x in np.linspace(lo, hi, points)]


def _mu_mode(cfg: dict, where: str):
    mode = cfg.get("mu_mode", "optimize")
    if mode == "optimize":
        return ("optimize", None)
    if isinstance(mode, (int, float)) and not isinstance(mode, bool):
        if mode <= 0:
            raise ValueError(f"{where}: fixed mu must be > 0")
        return ("fixed", float(mode))
    if isinstance(mode, dict) and set(mode) == {"fixed"}:
        v = mode["fixed"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            raise ValueError(f"{where}: fixed mu must be a number > 0")
        return ("fixed", float(v))
    raise ValueError(
        f"{where}: mu_mode must be \"optimize\", a number, or {{\"fixed\": mu}}"
    )


def _f_ec_options(cfg: dict, where: str):
    mode = cfg.get("f_ec_mode", "shannon")
    if mode not in ("shannon", "fixed"):
        raise ValueError(f"{where}: f_ec_mode must be \"shannon\" or \"fixed\"")
    fixed = cfg.get("f_ec_fixed")
    if mode == "fixed":
        if not isinstance(fixed, (int, float)) or isinstance(fixed, bool):
            raise ValueError(f"{where}: f_ec_mode \"fixed\" needs f_ec_fixed")
        fixed = float(fixed)
    elif fixed is not None:
        raise ValueError(f"{where}: f_ec_fixed is only valid with f_ec_mode \"fixed\"")
    return mode, fixed


def _rate_rows(
    group_size: int,
    delta: float,
    e_bit: float,
    corr_lens: list[int],
    etas: list[float],
    mu_mode: tuple,
    f_ec_mode: str,
    f_ec_fixed: Optional[float],
) -> list[list]:
    rows = []
    for corr_len in sorted(corr_lens):
        cfg = ProtocolConfig(
            group_size=group_size,
            corr_len=corr_len,
            e_bit=e_bit,
            f_ec_mode=f_ec_mode,
            f_ec_fixed=f_ec_fixed,
        )
        for eta in etas:
            if mu_mode[0] == "optimize":
                mu, res = optimize_mu(
                    group_size,
                    corr_len,
                    delta,
                    eta,
                    e_bit,
                    f_ec_mode=f_ec_mode,
                    f_ec_fixed=f_ec_fixed,
                )
            else:
                mu = mu_mode[1]
                res = rate_at_mu(cfg, delta, eta, mu)
            g = res.per_group[0]
            rows.append(
                [
                    corr_len,
                    eta,
                    mu,
                    cfg.n_groups,
                    g.q,
                    g.e_ph_upper,
                    g.f_pa,
                    res.f_ec,
                    res.rate_per_pulse,
                ]
            )
    return rows


_RATE_HEADER = [
    "corr_len",
    "eta",
    "mu",
    "n_groups",
    "q",
    "e_ph_upper",
    "f_pa",
    "f_ec",
    "rate_per_pulse",
]


def _cmd_keyrate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    where = args.config
    _reject_unknown(cfg, _KEYRATE_KEYS, where)
    group_size = _get(cfg, "group_size", int, where)
    delta = float(_get(cfg, "delta", (int, float), where))
    e_bit = float(_get(cfg, "e_bit", (int, float), where))
    corr_lens = _get(cfg, "corr_len_list", list, where)
    if not corr_lens or not all(isinstance(c, int) and c >= 0 for c in corr_lens):
        raise ValueError(f"{where}: corr_len_list must be nonempty ints >= 0")
    etas = _eta_grid(cfg, where)
    mu_mode = _mu_mode(cfg, where)
    f_ec_mode, f_ec_fixed = _f_ec_options(cfg, where)
    out = args.out or cfg.get("output_path")
    if not out:
        raise ValueError(f"{where}: no output path (use --out or output_path)")
    rows = _rate_rows(
        group_size, delta, e_bit, corr_lens, etas, mu_mode, f_ec_mode, f_ec_fixed
    )
    path = _resolve_out(out)
    _write_csv(path, "keyrate", _RATE_HEADER, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    where = args.config
    _reject_unknown(cfg, _SWEEP_KEYS, where)
    group_sizes = _get(cfg, "group_size_list", list, where)
    deltas = _get(cfg, "delta_list", list, where)
    if not group_sizes or not all(isinstance(g, int) and g >= 3 for g in group_sizes):
        raise ValueError(f"{where}: group_size_list must be nonempty ints >= 3")
    if not deltas or not all(
        isinstance(d, (int, float)) and not isinstance(d, bool) for d in deltas
    ):
        raise ValueError(f"{where}: delta_list must be nonempty numbers")
    e_bit = float(_get(cfg, "e_bit", (int, float), where))
    corr_lens = _get(cfg, "corr_len_list", list, where)
    if not corr_lens or not all(isinstance(c, int) and c >= 0 for c in corr_lens):
        raise ValueError(f"{where}: corr_len_list must be nonempty ints >= 0")
    etas = _eta_grid(cfg, where)
    mu_mode = _mu_mode(cfg, where)
    f_ec_mode, f_ec_fixed = _f_ec_options(cfg, where)
    out = args.out or cfg.get("output_path")
    if not out:
        raise ValueError(f"{where}: no output path (use --out or output_path)")
    rows = []
    for group_size in sorted(group_sizes):
        for delta in sorted(float(d) for d in deltas):
            for base in _rate_rows(
                group_size,
                delta,
                e_bit,
                corr_lens,
                etas,
                mu_mode,
                f_ec_mode,
                f_ec_fixed,
            ):
                rows.append([group_size, delta] + base)
    path = _resolve_out(out)
    _write_csv(path, "sweep", ["group_size", "delta"] + _RATE_HEADER, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    where = args.config
    _reject_unknown(cfg, _SIMULATE_KEYS, where)
    group_size = _get(cfg, "group_size", int, where)
    corr_len = _get(cfg, "corr_len", int, where)
    delta = float(_get(cfg, "delta", (int, float), where))
    e_bit = float(_get(cfg, "e_bit", (int, float), where))
    eta = float(_get(cfg, "eta", (int, float), where))
    n_blocks = _get(cfg, "n_blocks", int, where)
    mu_mode = _mu_mode(cfg, where)
    f_ec_mode, f_ec_fixed = _f_ec_options(cfg, where)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"{where}: no seed (use --seed or a \"seed\" key)")
    out = args.out or cfg.get("output_path")
    if not out:
        raise ValueError(f"{where}: no output path (use --out or output_path)")

    if mu_mode[0] == "optimize":
        mu, _ = optimize_mu(
            group_size,
            corr_len,
            delta,
            eta,
            e_bit,
            f_ec_mode=f_ec_mode,
            f_ec_fixed=f_ec_fixed,
        )
    else:
        mu = mu_mode[1]
    protocol = ProtocolConfig(
        group_size=group_size,
        corr_len=corr_len,
        e_bit=e_bit,
        f_ec_mode=f_ec_mode,
        f_ec_fixed=f_ec_fixed,
    )
    bounds = SecurityBounds.from_source(
        characterize(PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len))
    )
    q = detection_rate(group_size, eta, mu)
    result = run_simulation(protocol, bounds, q, n_blocks, seed, mu_used=mu)
    analytic = analytic_prediction(protocol, bounds, q)

    header = [
        "group_size",
        "corr_len",
        "delta",
        "e_bit",
        "eta",
        "mu",
        "n_blocks",
        "seed",
        "q_success",
        "e_bit_hat",
        "f_ec",
        "key_length",
        "rate_per_pulse",
        "analytic_rate",
    ]
    row = [
        group_size,
        corr_len,
        delta,
        e_bit,
        eta,
        mu,
        n_blocks,
        seed,
        result.q_success,
        result.e_bit_hat,
        result.f_ec,
        result.key_length,
        result.rate_per_pulse,
        analytic.rate_per_pulse,
    ]
    for w in range(result.n_groups):
        header += [
            f"q_hat_w{w + 1}",
            f"n_suc_w{w + 1}",
            f"n_err_w{w + 1}",
            f"e_ph_w{w + 1}",
            f"f_pa_w{w + 1}",
        ]
        row += [
            result.q_hat[w],
            result.n_success[w],
            result.n_errors[w],
            result.e_ph_upper[w],
            result.f_pa[w],
        ]
    path = _resolve_out(out)
    _write_csv(path, "simulate", header, [row])
    print(
        f"key_length={result.key_length} rate={result.rate_per_pulse:.6g} "
        f"analytic={analytic.rate_per_pulse:.6g} wrote {path}"
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    campaign = run_family_campaign(
        n_trials=args.trials,
        seed=args.seed,
        max_pulses=args.pulses,
        max_fock=args.fock,
        eps_scale=args.fault_injection,
    )
    lines = [f"# rrdps {__version__} oracle seed={args.seed} trials={args.trials}"]
    if args.fault_injection is not None:
        lines.append(f"# fault injection: eps scaled by {_fmt(args.fault_injection)}")
    lines += campaign.lines()
    injected = args.fault_injection is not None
    if not injected:
        prop = verify_fidelity_proposition(dim=6, n_trials=2000, seed=args.seed)
        lines += prop.lines()
        ok = campaign.passed and prop.passed
    else:
        # Understated correlations must be caught, so here failures are
        # the expected outcome.
        ok = campaign.n_failed > 0
        lines.append(
            "fault-injection "
            + ("DETECTED" if ok else "MISSED")
            + f" violations={campaign.n_failed}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        path = _resolve_out(args.out)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {campaign.n_trials} trial lines to {path}")
    else:
        sys.stdout.write(text)
    return 0 if ok else 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrdps",
        description="Key-rate analysis for delayed-interference QKD with "
        "correlated pulse sources",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("keyrate", help="analytic rate curves over an eta grid")
    p_rate.add_argument("--config", required=True, help="JSON config path")
    p_rate.add_argument("--out", help="output CSV path")
    p_rate.set_defaults(func=_cmd_keyrate)

    p_sweep = sub.add_parser("sweep", help="rate curves over size/rotation grids")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte Carlo session vs analytic rate")
    p_sim.add_argument("--config", required=True, help="JSON config path")
    p_sim.add_argument("--seed", type=int, help="overrides the config seed")
    p_sim.add_argument("--out", help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_oracle = sub.add_parser(
        "oracle", help="randomized exact verification of the bound derivation"
    )
    p_oracle.add_argument("--trials", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=1)
    p_oracle.add_argument("--pulses", type=int, default=4, help="max pulses per family")
    p_oracle.add_argument("--fock", type=int, default=8, help="max Fock levels")
    p_oracle.add_argument(
        "--fault-injection",
        type=float,
        nargs="?",
        const=0.0,
        default=None,
        metavar="SCALE",
        help="scale measured correlation deficits by SCALE (default 0) and "
        "require the checks to catch it",
    )
    p_oracle.add_argument("--out", help="report path (default: stdout)")
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
