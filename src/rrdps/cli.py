"""Command line front end.

Subcommands:

``keyrate``   analytic rate curves over a detector-efficiency grid,
              one row per (corr_len, eta), written as CSV: the sweep at
              one group size and one rotation strength, without the two
              columns that would only repeat them.
``sweep``     the same rates over grids of group size and rotation
              strength as well.
``simulate``  one Monte Carlo session compared against the analytic
              rate at the same mu, written as a single CSV row.
``oracle``    randomized exact verification of the bound derivation,
              written as a line-oriented report.

Configs are JSON files; numeric output uses 12 significant digits and no
timestamps, so reruns with the same config and seed are byte identical
at a fixed BLAS thread count.  The CLI checks the type of each config
value and the ``f_ec_mode`` key, which only it reads; ``ProtocolConfig``
checks the ranges of the protocol parameters.  Every config error, a file
that is not UTF-8 JSON included, is printed with the config path in front
and raised before the first rate is evaluated.
Relative output paths are resolved against ``RRDPS_OUT_DIR`` when that is
set.  Exit codes: 0 on success, 1 on usage or config errors (unknown
keys and non-finite numbers included), 2 when a verification campaign
reports violations (or fault injection fails to produce them).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .oracle import run_family_campaign, verify_fidelity_proposition
from .security import KeyRateResult, ProtocolConfig, key_rate
from .simulate import run_simulation
from .sources import _coherent_point, optimize_mu, rate_at_mu


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
    def reject(text: str):
        raise ValueError(f"{path}: non-finite number {text} is not allowed")

    def finite(convert):
        # A number past the float range, such as 1e400 or a 400-digit
        # integer, is as non-finite as Infinity.
        return lambda text: convert(text) if math.isfinite(float(text)) else reject(text)

    with open(path, "r", encoding="utf-8") as f:
        hooks = {"parse_float": finite(float), "parse_int": finite(int)}
        try:
            cfg = json.load(f, parse_constant=reject, **hooks)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
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
_NUMBER = (int, float)


def _reject_unknown(cfg: dict, known: set, where: str) -> None:
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def _is(value, kinds) -> bool:
    # JSON true and false load as bools, which Python counts as ints.
    return isinstance(value, kinds) and not isinstance(value, bool)


def _get(cfg: dict, key: str, kinds, where: str):
    if key not in cfg:
        raise ValueError(f"{where}: missing required key {key!r}")
    value = cfg[key]
    if not _is(value, kinds):
        raise ValueError(f"{where}: key {key!r} has wrong type")
    return value


def _get_list(cfg: dict, key: str, kinds, where: str) -> list:
    values = _get(cfg, key, list, where)
    if not values or not all(_is(v, kinds) for v in values):
        what = "integers" if kinds is int else "numbers"
        raise ValueError(f"{where}: {key} must be a nonempty list of {what}")
    return values


def _eta_grid(cfg: dict, where: str) -> list[float]:
    grid = _get(cfg, "eta_grid", dict, where)
    _reject_unknown(grid, _ETA_GRID_KEYS, where + ".eta_grid")
    lo = float(_get(grid, "min", _NUMBER, where + ".eta_grid"))
    hi = float(_get(grid, "max", _NUMBER, where + ".eta_grid"))
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
    if log:
        return [float(x) for x in np.geomspace(lo, hi, points)]
    return [float(x) for x in np.linspace(lo, hi, points)]


def _mu_mode(cfg: dict, where: str) -> Optional[float]:
    """The fixed mu, or None when mu is to be optimised."""
    mode = cfg.get("mu_mode", "optimize")
    if mode == "optimize":
        return None
    if isinstance(mode, dict) and set(mode) == {"fixed"}:
        mu = mode["fixed"]
        if _is(mu, _NUMBER) and mu > 0:
            return float(mu)
    raise ValueError(
        f"{where}: mu_mode must be \"optimize\" or {{\"fixed\": mu}} with mu > 0"
    )


@dataclass(frozen=True)
class _Common:
    """The keys that keyrate, sweep and simulate share, read once."""

    where: str
    e_bit: float
    f_ec_fixed: Optional[float]
    fixed_mu: Optional[float]
    out: str

    def protocol(self, group_size: int, corr_len: int) -> ProtocolConfig:
        """The protocol at one grid point; ``ProtocolConfig`` range-checks it."""
        try:
            return ProtocolConfig(group_size, corr_len, self.e_bit, self.f_ec_fixed)
        except ValueError as exc:
            raise ValueError(f"{self.where}: {exc}") from None


def _read_config(args: argparse.Namespace, known: set) -> tuple[dict, _Common]:
    where = args.config
    cfg = _load_config(where)
    _reject_unknown(cfg, known, where)
    f_ec_mode = cfg.get("f_ec_mode", "shannon")
    if f_ec_mode not in ("shannon", "fixed"):
        raise ValueError(f"{where}: f_ec_mode must be 'shannon' or 'fixed'")
    f_ec_fixed = None
    if "f_ec_fixed" in cfg:
        f_ec_fixed = float(_get(cfg, "f_ec_fixed", _NUMBER, where))
    if (f_ec_fixed is None) == (f_ec_mode == "fixed"):
        message = "f_ec_fixed must be given exactly when f_ec_mode is 'fixed'"
        raise ValueError(f"{where}: {message}")
    out = args.out or cfg.get("output_path")
    if not out:
        raise ValueError(f"{where}: no output path (use --out or output_path)")
    if not isinstance(out, str):
        raise ValueError(f"{where}: key 'output_path' has wrong type")
    common = _Common(
        where=where,
        e_bit=float(_get(cfg, "e_bit", _NUMBER, where)),
        f_ec_fixed=f_ec_fixed,
        fixed_mu=_mu_mode(cfg, where),
        out=out,
    )
    return cfg, common


def _mu_step(
    protocol: ProtocolConfig, delta: float, eta: float, fixed_mu: Optional[float]
) -> tuple[float, KeyRateResult]:
    """The mu of one rate point, optimised unless fixed, and its rate."""
    if fixed_mu is None:
        return optimize_mu(protocol, delta, eta)
    return fixed_mu, rate_at_mu(protocol, delta, eta, fixed_mu)


_RATE_HEADER = [
    "group_size",
    "delta",
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


def _cmd_rates(args: argparse.Namespace) -> int:
    """keyrate and sweep: keyrate is the sweep over one group size and one
    delta, written without the group_size and delta columns."""
    sweep = args.command == "sweep"
    cfg, common = _read_config(args, _SWEEP_KEYS if sweep else _KEYRATE_KEYS)
    where = common.where
    if sweep:
        group_sizes = _get_list(cfg, "group_size_list", int, where)
        deltas = _get_list(cfg, "delta_list", _NUMBER, where)
    else:
        group_sizes = [_get(cfg, "group_size", int, where)]
        deltas = [_get(cfg, "delta", _NUMBER, where)]
    deltas = sorted(float(d) for d in deltas)
    corr_lens = sorted(_get_list(cfg, "corr_len_list", int, where))
    etas = _eta_grid(cfg, where)
    # Every grid point's protocol is checked before any rate is evaluated.
    protocols = [
        [common.protocol(group_size, corr_len) for corr_len in corr_lens]
        for group_size in sorted(group_sizes)
    ]
    rows = []
    for same_size, delta in product(protocols, deltas):
        for protocol, eta in product(same_size, etas):
            mu, res = _mu_step(protocol, delta, eta, common.fixed_mu)
            g = res.per_group[0]
            rows.append(
                [
                    protocol.group_size,
                    delta,
                    protocol.corr_len,
                    eta,
                    mu,
                    protocol.n_groups,
                    g.q,
                    g.e_ph_upper,
                    g.f_pa,
                    res.f_ec,
                    res.rate_per_pulse,
                ]
            )
    first = 0 if sweep else 2
    path = _resolve_out(common.out)
    _write_csv(path, args.command, _RATE_HEADER[first:], [r[first:] for r in rows])
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg, common = _read_config(args, _SIMULATE_KEYS)
    where = common.where
    group_size = _get(cfg, "group_size", int, where)
    corr_len = _get(cfg, "corr_len", int, where)
    delta = float(_get(cfg, "delta", _NUMBER, where))
    eta = float(_get(cfg, "eta", _NUMBER, where))
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"{where}: eta must lie in [0, 1], got {eta}")
    n_blocks = _get(cfg, "n_blocks", int, where)
    if n_blocks < 1:
        raise ValueError(f"{where}: n_blocks must be >= 1, got {n_blocks}")
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ValueError(f"{where}: no seed (use --seed or a \"seed\" key)")
    if not _is(seed, int) or seed < 0:
        raise ValueError(f"{where}: seed must be a non-negative integer, got {seed!r}")
    protocol = common.protocol(group_size, corr_len)

    mu = common.fixed_mu
    if mu is None:
        mu, _ = optimize_mu(protocol, delta, eta)
    # The session and its analytic rate share one characterisation of the
    # source; at the optimised mu the rate is the optimiser's own result.
    source, q = _coherent_point(protocol, delta, eta, mu)
    analytic = key_rate(protocol, source, [q] * protocol.n_groups)
    result = run_simulation(protocol, source, q, n_blocks, seed)
    columns = [
        ("group_size", group_size),
        ("corr_len", corr_len),
        ("delta", delta),
        ("e_bit", protocol.e_bit),
        ("eta", eta),
        ("mu", mu),
        ("n_blocks", n_blocks),
        ("seed", seed),
        ("q_success", result.q_success),
        ("e_bit_hat", result.e_bit_hat),
        ("f_ec", result.f_ec),
        ("key_length", result.key_length),
        ("rate_per_pulse", result.rate_per_pulse),
        ("analytic_rate", analytic.rate_per_pulse),
    ]
    per_group = zip(
        result.q_hat, result.n_success, result.n_errors, result.e_ph_upper, result.f_pa
    )
    for w, values in enumerate(per_group, start=1):
        names = ("q_hat", "n_suc", "n_err", "e_ph", "f_pa")
        columns += [(f"{name}_w{w}", v) for name, v in zip(names, values)]
    path = _resolve_out(common.out)
    _write_csv(path, "simulate", [c for c, _ in columns], [[v for _, v in columns]])
    print(
        f"key_length={result.key_length} rate={result.rate_per_pulse:.6g} "
        f"analytic={analytic.rate_per_pulse:.6g} wrote {path}"
    )
    return 0


# The oracle flag (as its argparse attribute) that sets each argument of
# run_family_campaign.
_CAMPAIGN_FLAGS = {
    "n_trials": "trials",
    "seed": "seed",
    "max_pulses": "pulses",
    "max_fock": "fock",
    "eps_scale": "fault_injection",
}


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        campaign = run_family_campaign(
            **{name: getattr(args, attr) for name, attr in _CAMPAIGN_FLAGS.items()}
        )
    except ValueError as exc:
        # Put the flags the message names in front of it; every set flag if
        # it names none.
        words = set(re.findall(r"\w+", str(exc)))
        named = [a for n, a in _CAMPAIGN_FLAGS.items() if n in words]
        flags = " ".join(
            f"--{attr.replace('_', '-')} {getattr(args, attr)}"
            for attr in named or _CAMPAIGN_FLAGS.values()
            if getattr(args, attr) is not None
        )
        raise ValueError(f"{flags}: {exc}") from None
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
    p_rate.set_defaults(func=_cmd_rates)

    p_sweep = sub.add_parser("sweep", help="rate curves over size/rotation grids")
    p_sweep.add_argument("--config", required=True, help="JSON config path")
    p_sweep.add_argument("--out", help="output CSV path")
    p_sweep.set_defaults(func=_cmd_rates)

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
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
