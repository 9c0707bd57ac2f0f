"""Unit tests for the coherent phase-rotation source model."""

import inspect
import math

import numpy as np
import pytest

from rrdps import security as sec
from rrdps import sources as src

# Frozen from independent evaluations at 50-digit working precision.
OVERLAP_01_02 = 0.9980086431713144892
Q_32_01_001 = 0.015496105313267161352


def fock_overlap_mag(mu: float, theta: float, terms: int = 40) -> float:
    """Photon-number expansion of the overlap, an independent route."""
    a = math.sqrt(mu)
    b_re, b_im = a * math.cos(theta), a * math.sin(theta)
    re = im = 0.0
    log_fact = 0.0
    for n in range(terms):
        if n > 0:
            log_fact += math.log(n)
        # conj(a)^n * b^n / n!
        mag = (a * a) ** n * math.exp(-log_fact) if n else 1.0
        re += mag * math.cos(n * theta)
        im += mag * math.sin(n * theta)
    scale = math.exp(-mu)
    return scale * math.hypot(re, im)


class TestCoherentOverlap:
    def test_frozen_value(self):
        assert src.coherent_overlap_mag(0.1, 0.2) == pytest.approx(
            OVERLAP_01_02, abs=1e-15
        )

    def test_matches_fock_expansion(self):
        for mu in (0.0, 0.05, 0.3, 1.0):
            for theta in (0.0, 0.1, 0.7, math.pi):
                assert src.coherent_overlap_mag(mu, theta) == pytest.approx(
                    fock_overlap_mag(mu, theta), abs=1e-12
                )

    def test_identical_states(self):
        assert src.coherent_overlap_mag(0.4, 0.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            src.coherent_overlap_mag(-0.1, 0.2)


class TestPhaseRotationModel:
    def test_rotation_halves_per_lag(self):
        m = src.PhaseRotationModel(mu=0.1, delta=0.4, corr_len=3)
        assert m.rotation(1) == 0.4
        assert m.rotation(2) == 0.2
        assert m.rotation(3) == 0.1

    def test_rotation_lag_validation(self):
        m = src.PhaseRotationModel(mu=0.1, delta=0.4, corr_len=2)
        with pytest.raises(ValueError):
            m.rotation(0)
        with pytest.raises(ValueError):
            m.rotation(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            src.PhaseRotationModel(mu=-0.1, delta=0.4, corr_len=1)
        with pytest.raises(ValueError):
            src.PhaseRotationModel(mu=0.1, delta=0.4, corr_len=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mu", math.nan),
            ("mu", math.inf),
            ("delta", math.nan),
            ("delta", -math.inf),
            ("corr_len", 1.5),
            ("corr_len", True),
        ],
    )
    def test_rejects_non_finite_or_non_integer(self, field, value):
        kwargs = {"mu": 0.1, "delta": 0.4, "corr_len": 1, field: value}
        with pytest.raises(ValueError, match=field):
            src.PhaseRotationModel(**kwargs)


class TestCharacterize:
    def test_epsilon_is_overlap_deficit(self):
        m = src.PhaseRotationModel(mu=0.1, delta=0.2, corr_len=2)
        char = src.characterize(m)
        for d in (1, 2):
            ov = src.coherent_overlap_mag(0.1, m.rotation(d))
            assert char.eps[d - 1] == pytest.approx(1.0 - ov * ov, rel=1e-12)

    def test_vacuum_floor(self):
        char = src.characterize(src.PhaseRotationModel(mu=0.3, delta=0.2, corr_len=1))
        assert char.p_vac0 == pytest.approx(math.exp(-0.3), abs=1e-15)
        assert char.p_vac1 == char.p_vac0

    def test_no_correlations(self):
        char = src.characterize(src.PhaseRotationModel(mu=0.3, delta=0.2, corr_len=0))
        assert char.eps == ()

    def test_zero_rotation_is_exactly_clean(self):
        char = src.characterize(src.PhaseRotationModel(mu=0.3, delta=0.0, corr_len=4))
        assert char.eps == (0.0, 0.0, 0.0, 0.0)
        assert sec.fidelity_bound(char) == 1.0

    def test_tiny_deficit_keeps_precision(self):
        m = src.PhaseRotationModel(mu=1e-6, delta=1e-4, corr_len=1)
        eps = src.characterize(m).eps[0]
        # 2 mu (1 - cos delta) to leading order; naive 1 - overlap^2 would
        # round to zero here.
        assert eps == pytest.approx(2e-6 * (1 - math.cos(1e-4)), rel=1e-6)
        assert eps > 0.0


class TestDetectionRate:
    def test_frozen_value(self):
        assert src.detection_rate(32, 0.1, 0.01) == pytest.approx(
            Q_32_01_001, abs=1e-15
        )

    def test_peak_at_inverse_exposure(self):
        size, eta = 16, 0.4
        peak = 1.0 / (size * eta)
        grid = [peak * (0.2 + 0.05 * i) for i in range(40)]
        best = max(grid, key=lambda mu: src.detection_rate(size, eta, mu))
        assert best == pytest.approx(peak, rel=0.06)
        assert src.detection_rate(size, eta, peak) == pytest.approx(
            math.exp(-1.0) / 2.0, abs=1e-15
        )

    def test_dark_cases(self):
        assert src.detection_rate(16, 0.0, 0.1) == 0.0
        assert src.detection_rate(16, 0.1, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            src.detection_rate(0, 0.1, 0.1)
        with pytest.raises(ValueError):
            src.detection_rate(16, 1.5, 0.1)
        with pytest.raises(ValueError):
            src.detection_rate(16, 0.1, -0.1)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((32, 0.2, math.nan), "mean photon number"),
            ((32, 0.2, math.inf), "mean photon number"),
            ((True, 0.2, 0.1), "group_size"),
            ((32.0, 0.2, 0.1), "group_size"),
        ],
    )
    def test_bad_values_rejected(self, args, name):
        with pytest.raises(ValueError, match=name):
            src.detection_rate(*args)


class TestRateAtMu:
    def test_matches_manual_assembly(self):
        cfg = sec.ProtocolConfig(group_size=16, corr_len=1, e_bit=0.03)
        res = src.rate_at_mu(cfg, delta=0.2, eta=0.3, mu=0.08)
        char = src.characterize(src.PhaseRotationModel(mu=0.08, delta=0.2, corr_len=1))
        bounds = sec.SecurityBounds.from_source(char)
        q = src.detection_rate(16, 0.3, 0.08)
        want = sec.key_rate(cfg, bounds, [q, q])
        assert res == want


class TestOptimizeMu:
    def test_result_beats_coarse_grid(self):
        cfg = sec.ProtocolConfig(group_size=16, corr_len=1, e_bit=0.03)
        mu_opt, res = src.optimize_mu(16, 1, 0.2, 0.3, 0.03)
        for i in range(30):
            mu = 10 ** (-4 + 4 * i / 29.0)
            other = src.rate_at_mu(cfg, 0.2, 0.3, mu)
            assert res.rate_per_pulse >= other.rate_per_pulse - 1e-12

    def test_dark_detector_yields_zero(self):
        mu_opt, res = src.optimize_mu(16, 0, 0.2, 0.0, 0.03)
        assert res.rate_per_pulse == 0.0
        assert mu_opt > 0.0

    def test_bounds_respected(self):
        assert (src.MU_MIN, src.MU_MAX, src.MU_GRID_POINTS) == (1e-6, 10.0, 200)
        for eta in (1e-3, 0.3, 1.0):
            mu_opt, _ = src.optimize_mu(16, 0, 0.2, eta, 0.03)
            assert src.MU_MIN <= mu_opt <= src.MU_MAX

    def test_domain(self):
        with pytest.raises(ValueError, match="group size"):
            src.optimize_mu(2, 0, 0.2, 0.3, 0.03)
        with pytest.raises(ValueError, match="transmittance"):
            src.optimize_mu(16, 0, 0.2, 1.5, 0.03)

    def test_result_is_the_rate_at_the_returned_mu(self):
        cfg = sec.ProtocolConfig(group_size=16, corr_len=1, e_bit=0.03)
        mu_opt, res = src.optimize_mu(16, 1, 0.2, 0.3, 0.03)
        assert res == src.rate_at_mu(cfg, 0.2, 0.3, mu_opt)


# The README keyrate config: group size 32, delta 0.2, e_bit 0.03.
README_ROWS = [
    (corr_len, float(eta))
    for corr_len in (0, 1, 2, 10)
    for eta in np.geomspace(1e-3, 1.0, 25)
]


class TestGoldenSection:
    """``_golden`` against ``scipy.optimize.golden``, imported only here."""

    @staticmethod
    def _compare(func, brack):
        from scipy.optimize import golden

        calls = []

        def counted(x):
            calls.append(x)
            return func(x)

        got = src._golden(counted, *brack)
        want, _, nfev = golden(func, brack=brack, full_output=True)
        assert got == want
        assert len(calls) == nfev - 3

    def test_stop_rule_is_scipys_default(self):
        # A slightly different xtol changes no iterate on most objectives.
        from scipy.optimize import golden

        defaults = inspect.signature(golden).parameters
        assert src._GOLDEN_XTOL == defaults["tol"].default
        assert inspect.signature(src._golden).parameters["maxiter"].default == (
            defaults["maxiter"].default
        )

    def test_readme_rows_match_scipy(self, monkeypatch):
        real_golden, real_rate = src._golden, src.rate_at_mu
        searches = []  # (objective, bracket, rate evaluations in the search)
        n_rate = 0

        def count_rate(*args):
            nonlocal n_rate
            n_rate += 1
            return real_rate(*args)

        def record_golden(func, *brack):
            start = n_rate
            x = real_golden(func, *brack)
            searches.append((func, brack, n_rate - start))
            return x

        monkeypatch.setattr(src, "rate_at_mu", count_rate)
        monkeypatch.setattr(src, "_golden", record_golden)
        for corr_len, eta in README_ROWS:
            start = n_rate
            src.optimize_mu(32, corr_len, 0.2, eta, 0.03)
            # The grid and the search; nothing is re-evaluated afterwards.
            assert n_rate - start == 200 + searches[-1][2]
        assert len(searches) == len(README_ROWS)
        monkeypatch.undo()
        for func, brack, _ in searches:
            self._compare(func, brack)

    @pytest.mark.parametrize(
        "brack",
        [(0.1, 0.85, 1.2), (0.5, 0.85, 3.0), (0.5, 0.85, 1.2)],
        ids=["wider-left", "wider-right", "even"],
    )
    @pytest.mark.parametrize(
        "func",
        [lambda x: (x - 0.7) ** 2, lambda x: -x * math.exp(-x)],
        ids=["parabola", "exposure"],
    )
    def test_analytic_objectives_match_scipy(self, func, brack):
        self._compare(func, brack)
