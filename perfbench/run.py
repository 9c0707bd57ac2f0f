"""Benchmark of the four ``rrdps`` CLI workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each invocation is one closed-loop job: a fresh
interpreter (``invoke.py``) with one BLAS thread runs ``rrdps.cli.main``
once, and invocations run one after another until ``--seconds`` have
passed (at least 3, or 4 when traced).  Nothing is warmed between
invocations, because CLI users pay the imports and the binomial-row cache
fill on every call; only one untimed import beforehand compiles bytecode.

Every output is checked (``check.py``) and must be byte-identical across
the invocations of a run.  With ``--trace 0`` the last line reports the
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1``
untraced and traced invocations alternate, traced outputs must equal
untraced ones byte for byte and traced counts must repeat exactly, and the
last line reports the per-layer medians from the traced invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REF = HERE / "ref"
INVOKE_TIMEOUT_S = 120
# The whole run must end within 180 s, set-up included.
RUN_LIMIT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Input sizes are cut from the README-scale runs so that one invocation
# takes a few seconds at the commit that introduced the benchmark; see
# README.md for why each workload exists and what it must keep.
KEYRATE = {
    "group_size": 32,
    "corr_len_list": [0, 1, 2, 10],
    "delta": 0.2,
    "e_bit": 0.03,
    "eta_grid": {"min": 1e-3, "max": 1.0, "points": 3, "log": True},
    "mu_mode": "optimize",
}
SWEEP = {
    "group_size_list": [64, 256, 1024],
    "delta_list": [0.1, 0.3],
    "corr_len_list": [0, 2],
    "e_bit": 0.03,
    "eta_grid": {"min": 0.01, "max": 0.5, "points": 2, "log": True},
    "mu_mode": {"fixed": 0.05},
}
SIMULATE = {
    "group_size": 32,
    "corr_len": 10,
    "delta": 0.2,
    "e_bit": 0.03,
    "eta": 0.2,
    "mu_mode": {"fixed": 0.05},
    "n_blocks": 1_000_000,
}
ORACLE_TRIALS = 1000

# name -> (subcommand, config); simulate and oracle take the workload seed.
WORKLOADS = {
    "keyrate-opt": ("keyrate", KEYRATE),
    "sweep-large-n": ("sweep", SWEEP),
    "simulate-lc10": ("simulate", SIMULATE),
    "oracle-campaign": ("oracle", None),
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "sources.optimize_mu.calls": "count",
    "sources.rate_at_mu.calls": "count",
    "sources.rate_at_mu.self_s": "s",
    "sources.characterize.calls": "count",
    "security.key_rate.calls": "count",
    "security.phase_error_upper.calls": "count",
    "security.phase_error_upper.self_s": "s",
    "security.phase_error_upper.distinct_ratio": "ratio",
    "security.binomial_tail.calls": "count",
    "security.binomial_tail.self_s": "s",
    "simulate.run_simulation.self_s": "s",
    "simulate.blocks_per_s": "1/s",
    "oracle.conditioned_state.self_s": "s",
    "oracle.reference_state.self_s": "s",
    "oracle.decompose_side_channel.self_s": "s",
    "oracle.check_proof_chain.calls": "count",
    "oracle.check_proof_chain.self_s": "s",
    "oracle.measured_characterization.self_s": "s",
    "oracle.family_build_s": "s",
    "oracle.verify_fidelity_proposition.self_s": "s",
    "oracle.dense_amplitudes": "count",
    "trace.overhead_ratio": "ratio",
}


class Job:
    """The CLI arguments of one workload and the check of its output."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.cmd, config = WORKLOADS[workload]
        self.seed = seed
        self.n_blocks = SIMULATE["n_blocks"] if self.cmd == "simulate" else 0
        if self.cmd in ("keyrate", "sweep"):
            self.ref_path = REF / f"{workload}.csv"
        else:
            suffix = ".txt.gz" if self.cmd == "oracle" else ".csv"
            self.ref_path = REF / workload / f"seed-{seed}{suffix}"
        self.ref = _read_ref(self.ref_path)
        if config is not None:
            self.config = work / "config.json"
            self.config.write_text(json.dumps(config), encoding="utf-8")

    def argv(self, out: Path) -> list[str]:
        if self.cmd == "oracle":
            args = ["oracle", "--trials", str(ORACLE_TRIALS), "--seed", str(self.seed)]
        else:
            args = [self.cmd, "--config", str(self.config)]
            if self.cmd == "simulate":
                args += ["--seed", str(self.seed)]
        return args + ["--out", str(out)]

    @property
    def ops(self) -> int:
        if self.cmd == "oracle":
            return ORACLE_TRIALS
        if self.cmd == "simulate":
            return 1
        return len(self.ref.splitlines()) - 2

    def check(self, text: str, exit_code: int) -> check.Verdict:
        if self.cmd == "oracle":
            return check.check_oracle_report(
                text, self.ref, exit_code, self.seed, ORACLE_TRIALS
            )
        if self.cmd == "simulate":
            expect = {k: v for k, v in SIMULATE.items() if k != "mu_mode"}
            expect.update(seed=self.seed, mu=SIMULATE["mu_mode"]["fixed"])
            return check.check_simulate_csv(text, self.ref, exit_code, expect)
        if self.ref is None:
            raise FileNotFoundError(f"missing reference output {self.ref_path}")
        return check.check_rate_csv(text, self.ref, exit_code)


def _read_ref(path: Path) -> str | None:
    if not path.is_file():
        return None
    if path.suffix == ".gz":
        return gzip.decompress(path.read_bytes()).decode("utf-8")
    return path.read_text(encoding="utf-8")


def pinned_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    env.pop("RRDPS_OUT_DIR", None)
    # Let the untimed first import write bytecode, as an installed package has.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(argv: list[str], work: Path, env: dict, tag: str, traced: bool) -> dict:
    """Run one CLI invocation in a fresh interpreter; return its record."""
    res = work / f"res-{tag}.json"
    spans = work / f"spans-{tag}.npz"
    proc = subprocess.run(
        [sys.executable, str(HERE / "invoke.py"), str(res), str(spans) if traced else "-",
         "--", *argv],
        cwd=work, env=env, capture_output=True, text=True, timeout=INVOKE_TIMEOUT_S,
    )
    if proc.returncode != 0 or not res.is_file():
        return {"crashed": proc.stderr[-2000:] or f"exit {proc.returncode}", "traced": traced}
    rec = json.loads(res.read_text(encoding="utf-8"))
    if Path(rec["rrdps_file"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported rrdps from {rec['rrdps_file']}, not from {SRC}")
    rec["traced"] = traced
    if traced:
        rec["trace"] = tracer.summarize(str(spans))
        spans.unlink()
    return rec


def layer_metrics(summary: dict, n_blocks: int) -> dict:
    spans = summary["spans"]

    def get(name: str, key: str):
        return spans.get(name, {}).get(key, 0)

    pe_calls = get("security.phase_error_upper", "calls")
    sim_self = get("simulate.run_simulation", "self_s")
    sim_blocks = n_blocks * get("simulate.run_simulation", "calls")
    out = {
        "cli.self_s": sum(v["self_s"] for k, v in spans.items() if k.startswith("cli.")),
        "security.phase_error_upper.distinct_ratio":
            summary["distinct_args"] / pe_calls if pe_calls else 0.0,
        "simulate.blocks_per_s": sim_blocks / sim_self if sim_self else 0.0,
        "oracle.family_build_s":
            get("oracle.random_family", "total_s") + get("oracle.coherent_family", "total_s"),
        "oracle.dense_amplitudes": summary["dense_amplitudes"],
    }
    for metric in PER_LAYER_UNITS:
        if metric not in out and metric != "trace.overhead_ratio":
            name, key = metric.rsplit(".", 1)
            out[metric] = get(name, key)
    return out


def trace_counts(summary: dict) -> dict:
    counts = {k: v["calls"] for k, v in summary["spans"].items()}
    counts["distinct_args"] = summary["distinct_args"]
    counts["dense_amplitudes"] = summary["dense_amplitudes"]
    return counts


def environment(records: list[dict]) -> dict:
    first = next((r for r in records if "crashed" not in r), {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "rrdps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "blas_threads": BLAS_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    env = pinned_env()
    # Compile bytecode and fill the file cache before anything is timed.
    subprocess.run([sys.executable, "-c", "import rrdps.cli"], cwd=work, env=env,
                   check=True, timeout=INVOKE_TIMEOUT_S)
    job = Job(workload, seed, work)
    min_runs = 4 if trace else 3
    records, verdicts = [], []
    first_output = first_counts = None
    start = time.perf_counter()
    last_s = 0.0
    while len(records) < min_runs or time.perf_counter() < start + seconds:
        # Start no invocation that would end the run past the time limit.
        if time.perf_counter() - start + last_s > RUN_LIMIT_S:
            break
        i = len(records)
        t0 = time.perf_counter()
        traced = trace and i % 2 == 1
        out = work / f"out-{i}"
        rec = invoke(job.argv(out), work, env, str(i), traced)
        last_s = time.perf_counter() - t0
        records.append(rec)
        if "crashed" in rec:
            verdict = check.Verdict(attempted=job.ops)
            verdict.fail_all(f"invocation {i} crashed: {rec['crashed']}")
            verdicts.append(verdict)
            continue
        data = out.read_bytes() if out.is_file() else b""
        out.unlink(missing_ok=True)
        verdict = job.check(data.decode("utf-8", "replace"), rec["exit_code"])
        first_output = data if first_output is None else first_output
        if data != first_output:
            verdict.fail_all(f"invocation {i} output differs from invocation 0")
        if traced:
            counts = trace_counts(rec["trace"])
            first_counts = counts if first_counts is None else first_counts
            if counts != first_counts:
                verdict.fail_all(f"invocation {i} trace counts differ")
        verdicts.append(verdict)

    ok = [r for r in records if "crashed" not in r]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    if trace:
        traced = [r for r in ok if r["traced"]]
        plain = [r for r in ok if not r["traced"]]
        per_inv = [layer_metrics(r["trace"], job.n_blocks) for r in traced]
        values = {m: statistics.median(p[m] for p in per_inv) for m in per_inv[0]} if per_inv else {}
        if traced and plain:
            values["trace.overhead_ratio"] = statistics.median(
                r["wall_s"] for r in traced
            ) / statistics.median(r["wall_s"] for r in plain)
        metrics = {m: {"value": values.get(m, 0.0), "unit": u} for m, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            m: {"value": statistics.median(r[m] for r in ok) if ok else 0.0, "unit": u}
            for m, u in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
        }
    problems = [p for v in verdicts for p in v.problems]
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "reference": job.ref_path.relative_to(ROOT).as_posix() if job.ref else None,
        "env": environment(records),
        "error_rate": failed / attempted,
        "problems": problems[:20],
        "invocations": [
            {k: r.get(k) for k in ("traced", "exit_code", "wall_s", "cpu_s", "setup_s",
                                   "peak_rss_mb")} | ({"crashed": True} if "crashed" in r else {})
            for r in records
        ],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return diagnostics, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rrdps" / "cli.py").is_file():
        print(f"perfbench: no rrdps sources at {SRC}/rrdps", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        diagnostics, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps({"perfbench": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
