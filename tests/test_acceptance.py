"""Acceptance criteria, one test and one printed verdict line each.

Each criterion prints ``ACCEPTANCE <name>: PASS/FAIL (...)`` with the
headline numbers behind the verdict. The lines bypass output capture so
they appear in any ``pytest`` run.
"""

import math
import time
from fractions import Fraction

import numpy as np

from rrdps import cli
from rrdps import oracle as orc
from rrdps import security as sec
from rrdps import simulate as sim
from rrdps import sources as src


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def _exact_tail(n: int, s: int, p: float) -> Fraction:
    pf = Fraction(p)
    one = Fraction(1)
    return sum(
        (
            Fraction(math.comb(n, k)) * pf**k * (one - pf) ** (n - k)
            for k in range(s + 1, n + 1)
        ),
        Fraction(0),
    )


def test_criterion_1_binomial_tail_exact(capsys):
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    caps = [i / 20.0 for i in range(21)]
    for n in range(3, 21):
        for s in range(n - 1):
            for c in caps:
                got = sec.binomial_tail(n, s, c)
                want = float(_exact_tail(n, s, c))
                worst = max(worst, abs(got - want))
                cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(
        capsys,
        "C1 binomial-tail-exactness",
        ok,
        f"{cases} cases, max abs dev {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_transfer_bound_properties(capsys):
    t0 = time.monotonic()
    xs = [i / 99.0 for i in range(100)]
    ys = [j / 99.0 for j in range(100)]
    worst_route = 0.0
    range_ok = True
    mono_x_ok = True
    mono_y_ok = True
    table = [[sec.transfer_bound(x, y) for y in ys] for x in xs]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            g = table[i][j]
            if x > y * y:
                other = 1.0
            else:
                other = math.sin(math.asin(math.sqrt(x)) + math.acos(y)) ** 2
            worst_route = max(worst_route, abs(g - other))
            if not (max(x, 1.0 - y * y) - 1e-12 <= g <= 1.0):
                range_ok = False
            if i > 0 and g < table[i - 1][j] - 1e-12:
                mono_x_ok = False
            if j > 0 and g > table[i][j - 1] + 1e-12:
                mono_y_ok = False
    elapsed = time.monotonic() - t0
    ok = worst_route <= 1e-12 and range_ok and mono_x_ok and mono_y_ok
    _verdict(
        capsys,
        "C2 transfer-bound-properties",
        ok,
        f"10000 grid points, route dev {worst_route:.3e}, "
        f"range {range_ok}, mono x {mono_x_ok}, mono y {mono_y_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_rate_curves_vs_memory_length(capsys):
    t0 = time.monotonic()
    group_size, e_bit, delta = 32, 0.03, 0.2
    etas = [float(x) for x in np.geomspace(1e-3, 1.0, 25)]
    curves = {}
    for corr_len in (0, 1, 2, 10, 16, 32, 64):
        cfg = sec.ProtocolConfig(group_size=group_size, corr_len=corr_len, e_bit=e_bit)
        rates = []
        for eta in etas:
            _, res = src.optimize_mu(cfg, delta, eta)
            rates.append(res.rate_per_pulse)
        curves[corr_len] = rates

    dominance = all(
        curves[0][i] > curves[lc][i]
        for lc in (1, 2, 10)
        for i in range(len(etas))
    )
    positive = all(r > 0.0 for lc in (0, 1, 2, 10) for r in curves[lc])

    pair_gap = 0.0
    for a, b in ((1, 2), (1, 10), (2, 10)):
        for i in range(len(etas)):
            ra, rb = curves[a][i], curves[b][i]
            if ra > 0.0 and rb > 0.0:
                pair_gap = max(pair_gap, abs(ra - rb) / min(ra, rb))
    pairwise_ok = pair_gap <= 0.10

    ratios = [
        curves[1][i] / curves[0][i]
        for i in range(len(etas))
        if etas[i] <= 0.3 and curves[0][i] > 0.0
    ]
    ratio_ok = all(0.5 <= r <= 0.9 for r in ratios)

    # The paper's headline past corr_len 10: a longer memory never raises
    # the rate, not even by rounding, and from 32 on it no longer moves it.
    lens = sorted(curves)
    rise = max(
        (curves[b][i] - curves[a][i]) / curves[a][i]
        for a, b in zip(lens, lens[1:])
        for i in range(len(etas))
    )
    saturated = curves[64] == curves[32]
    saturation_ok = rise <= 0.0 and saturated

    elapsed = time.monotonic() - t0
    ok = (
        dominance and positive and pairwise_ok and ratio_ok and saturation_ok
        and elapsed < 120.0
    )
    _verdict(
        capsys,
        "C3 rate-curves-vs-memory",
        ok,
        f"dominance {dominance}, positive {positive}, "
        f"max pair gap {pair_gap:.3f}, mid-range ratio "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], max rise with corr_len "
        f"{rise:.1e}, corr_len 32 equals 64 {saturated}, {elapsed:.1f}s",
    )


def test_criterion_4_randomized_proof_chain(capsys):
    t0 = time.monotonic()
    assert orc.CHECK_TOL == 1e-9
    camp = orc.run_family_campaign(
        n_trials=1000, seed=20240815, max_pulses=4, max_fock=8
    )
    fault = orc.run_family_campaign(
        n_trials=200, seed=20240815, max_pulses=4, max_fock=8, eps_scale=0.0
    )
    elapsed = time.monotonic() - t0
    ok = camp.passed and fault.n_failed > 0 and elapsed < 300.0
    _verdict(
        capsys,
        "C4 randomized-proof-chain",
        ok,
        f"{camp.n_trials} trials, {camp.n_failed} violations; fault "
        f"injection tripped {fault.n_failed}/{fault.n_trials}, {elapsed:.1f}s",
    )


def test_criterion_5_vacuum_overlap_floor(capsys):
    t0 = time.monotonic()
    assert orc.FIDELITY_TOL == 1e-12
    res = orc.verify_fidelity_proposition(dim=6, n_trials=10000, seed=7)
    elapsed = time.monotonic() - t0
    ok = res.passed and elapsed < 10.0
    _verdict(
        capsys,
        "C5 vacuum-overlap-floor",
        ok,
        f"{res.n_trials} pairs, {res.n_failed} violations, worst margin "
        f"{res.worst_margin:.3e}, {elapsed:.1f}s",
    )


def test_criterion_6_simulation_matches_analytics(tmp_path, capsys):
    group_size, e_bit, delta = 32, 0.03, 0.2
    n_blocks = 10**6
    seed = 60
    all_ok = True
    details = []
    for corr_len in (0, 1, 10):
        for eta in (0.05, 0.2):
            t0 = time.monotonic()
            cfg = sec.ProtocolConfig(
                group_size=group_size, corr_len=corr_len, e_bit=e_bit
            )
            mu, _ = src.optimize_mu(cfg, delta, eta)
            source = src.characterize(
                src.PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
            )
            q = src.detection_rate(group_size, eta, mu)
            result = sim.run_simulation(cfg, source, q, n_blocks, seed)
            analytic = sec.key_rate(cfg, source, [q] * cfg.n_groups)

            # Success rates: plain binomial standard errors.
            se_q = math.sqrt(q * (1.0 - q) / n_blocks)
            q_ok = all(abs(qh - q) <= 3.0 * se_q for qh in result.q_hat)

            # Key rate: delta method through the extraction formula.
            cap = source.minus_act
            block = cfg.block_size

            def rate_fn(qs, e):
                total = 0.0
                for qw in qs:
                    if qw <= 0.0:
                        continue
                    eph = sec.phase_error_upper(group_size, cap, qw)
                    total += qw * (
                        1.0 - sec.binary_entropy(e) - sec.binary_entropy(eph)
                    )
                return max(0.0, total) / block

            base = [q] * cfg.n_groups
            var = 0.0
            for w in range(cfg.n_groups):
                hi = list(base)
                lo = list(base)
                step = q * 1e-4
                hi[w] += step
                lo[w] -= step
                grad = (rate_fn(hi, e_bit) - rate_fn(lo, e_bit)) / (2 * step)
                var += grad**2 * q * (1.0 - q) / n_blocks
            step_e = max(e_bit * 1e-4, 1e-8)
            grad_e = (
                rate_fn(base, e_bit + step_e) - rate_fn(base, e_bit - step_e)
            ) / (2 * step_e)
            exp_successes = n_blocks * cfg.n_groups * q
            var += grad_e**2 * e_bit * (1.0 - e_bit) / exp_successes
            se_rate = math.sqrt(var)
            tol = 3.0 * se_rate + 2.0 / (n_blocks * block)
            rate_ok = abs(result.rate_per_pulse - analytic.rate_per_pulse) <= tol

            elapsed = time.monotonic() - t0
            cell_ok = q_ok and rate_ok and elapsed < 120.0
            all_ok = all_ok and cell_ok
            details.append(
                f"lc={corr_len} eta={eta}: q {'ok' if q_ok else 'OFF'}, "
                f"rate dev {abs(result.rate_per_pulse - analytic.rate_per_pulse):.2e}"
                f"<=tol {tol:.2e} {'ok' if rate_ok else 'OFF'}, {elapsed:.1f}s"
            )

    # Determinism at the file level: one cell rerun through the CLI.
    sim_cfg = {
        "group_size": group_size,
        "corr_len": 1,
        "delta": delta,
        "e_bit": e_bit,
        "eta": 0.2,
        "mu_mode": {"fixed": 0.05},
        "n_blocks": n_blocks,
        "seed": seed,
    }
    import json

    cfg_path = tmp_path / "cell.json"
    cfg_path.write_text(json.dumps(sim_cfg), encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    all_ok = all_ok and identical

    _verdict(
        capsys,
        "C6 simulation-vs-analytics",
        all_ok,
        "; ".join(details) + f"; csv identical {identical}",
    )


def test_criterion_7_degenerate_limits(capsys):
    t0 = time.monotonic()

    # No phase-flip weight: the bound vanishes for any detection rate.
    zero_ok = all(
        sec.phase_error_upper(n, 0.0, q) == 0.0
        for n in (3, 8, 32)
        for q in (1e-6, 0.3, 1.0)
    )

    # Certain flips: the bound saturates and no key survives.
    one_ok = all(
        sec.phase_error_upper(n, 1.0, q) == 1.0 for n in (3, 8, 32) for q in (0.5, 1.0)
    )
    dead = sec.SourceCharacterization(eps=(), p_vac0=0.0, p_vac1=0.0)
    cfg0 = sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=0.0)
    one_ok = one_ok and dead.minus_act == 1.0
    one_ok = one_ok and sec.key_rate(cfg0, dead, [0.5]).rate_per_pulse == 0.0

    # No rotation: correlated analysis collapses onto the memoryless one,
    # bit for bit, both at fixed mu and through the optimizer.
    exact_ok = True
    for mu in (0.02, 0.1, 0.4):
        for eta in (0.01, 0.3, 1.0):
            r1 = src.rate_at_mu(
                sec.ProtocolConfig(group_size=32, corr_len=1, e_bit=0.03),
                0.0,
                eta,
                mu,
            ).rate_per_pulse
            r0 = src.rate_at_mu(
                sec.ProtocolConfig(group_size=32, corr_len=0, e_bit=0.03),
                0.0,
                eta,
                mu,
            ).rate_per_pulse
            exact_ok = exact_ok and (r1 == r0)
    mu1, res1 = src.optimize_mu(
        sec.ProtocolConfig(group_size=32, corr_len=1, e_bit=0.03), 0.0, 0.3
    )
    mu0, res0 = src.optimize_mu(
        sec.ProtocolConfig(group_size=32, corr_len=0, e_bit=0.03), 0.0, 0.3
    )
    exact_ok = exact_ok and mu1 == mu0 and res1.rate_per_pulse == res0.rate_per_pulse

    # Dark detector: zero rate, no exceptions anywhere in the stack.
    source = src.characterize(src.PhaseRotationModel(mu=0.1, delta=0.2, corr_len=1))
    cfg1 = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.03)
    dark_rate = src.rate_at_mu(cfg1, 0.2, 0.0, 0.1).rate_per_pulse
    dark_sim = sim.run_simulation(cfg1, source, 0.0, 200, seed=1)
    dark_ok = dark_rate == 0.0 and dark_sim.key_length == 0

    elapsed = time.monotonic() - t0
    ok = zero_ok and one_ok and exact_ok and dark_ok
    _verdict(
        capsys,
        "C7 degenerate-limits",
        ok,
        f"zero-cap {zero_ok}, saturated-cap {one_ok}, no-rotation-exact "
        f"{exact_ok}, dark-detector {dark_ok}, {elapsed:.1f}s",
    )


def test_criterion_8_proof_chain_at_paper_memory_lengths(capsys):
    t0 = time.monotonic()
    group_size, e_bit, delta = 32, 0.03, 0.2
    n_checks = n_failed = 0
    worst_gap = 0.0
    for corr_len in (4, 10):
        cfg = sec.ProtocolConfig(group_size=group_size, corr_len=corr_len, e_bit=e_bit)
        cases = []
        for eta in (1e-3, 0.03, 1.0):
            mu, _ = src.optimize_mu(cfg, delta, eta)
            fam = orc.coherent_family(
                corr_len + 2, corr_len, mu, delta=delta, fock_dim=8
            )
            # The analytic rate rests on the model's own characterisation,
            # so the chain must hold under it as under the measured one.
            model = src.PhaseRotationModel(mu, delta, corr_len)
            cases.append((fam, orc.measured_characterization(fam), True))
            cases.append((fam, src.characterize(model), True))
        fam = orc.random_family(corr_len + 2, corr_len, 8, seed=20240815 + corr_len)
        cases.append((fam, orc.measured_characterization(fam), False))
        for fam, char, coherent in cases:
            for t, hist in ((1, ()), (2, (1,))):
                chk = orc.check_proof_chain(fam, t, hist, characterization=char)
                n_checks += 1
                n_failed += not chk.passed
                if coherent:  # context-independent overlaps: a1 meets its floor
                    worst_gap = max(worst_gap, abs(chk.a1 - chk.a1_floor))
    elapsed = time.monotonic() - t0
    ok = n_failed == 0 and worst_gap <= 1e-9 and elapsed < 60.0
    _verdict(
        capsys,
        "C8 proof-chain-at-corr-len-4-and-10",
        ok,
        f"{n_checks} checks, {n_failed} violations, coherent max |a1 - floor| "
        f"{worst_gap:.3e}, {elapsed:.1f}s",
    )
