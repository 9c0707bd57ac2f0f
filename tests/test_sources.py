"""Unit tests for the coherent phase-rotation source model."""

import dataclasses
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
    """The overlap behind ``characterize``'s deficits: 1 - eps = overlap^2."""

    def test_frozen_value(self):
        char = src.characterize(src.PhaseRotationModel(mu=0.1, delta=0.2, corr_len=1))
        assert char.eps[0] == pytest.approx(1.0 - OVERLAP_01_02**2, abs=1e-15)

    def test_matches_fock_expansion(self):
        for mu in (0.0, 0.05, 0.3, 1.0):
            for theta in (0.0, 0.1, 0.7, math.pi):
                char = src.characterize(
                    src.PhaseRotationModel(mu=mu, delta=theta, corr_len=1)
                )
                assert char.eps[0] == pytest.approx(
                    1.0 - fock_overlap_mag(mu, theta) ** 2, abs=1e-12
                )


class TestPhaseRotationModel:
    def test_rotation_halves_per_lag(self):
        m = src.PhaseRotationModel(mu=0.1, delta=0.4, corr_len=3)
        assert m.rotation(1) == 0.4
        assert m.rotation(2) == 0.2
        assert m.rotation(3) == 0.1

    def test_rotation_past_lag_1024(self):
        # delta / 2**(lag - 1) cannot convert 2**1024 to a float; the kick is
        # the same float wherever that form is finite, and 0.0 past it.
        m = src.PhaseRotationModel(mu=0.1, delta=0.2, corr_len=1100)
        assert m.rotation(1100) == 0.0
        for delta in (0.2, -3.0, 1e300, 5e-324, 3e-310):
            m = src.PhaseRotationModel(mu=0.1, delta=delta, corr_len=1024)
            for lag in (1, 2, 53, 1000, 1024):
                assert m.rotation(lag).hex() == (delta / 2 ** (lag - 1)).hex()

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
            ov = math.exp(0.1 * (math.cos(m.rotation(d)) - 1.0))
            assert char.eps[d - 1] == pytest.approx(1.0 - ov * ov, rel=1e-12)

    def test_vacuum_floor(self):
        char = src.characterize(src.PhaseRotationModel(mu=0.3, delta=0.2, corr_len=1))
        assert char.p_vac0 == pytest.approx(math.exp(-0.3), abs=1e-15)
        assert char.p_vac1 == char.p_vac0

    def test_no_correlations(self):
        char = src.characterize(src.PhaseRotationModel(mu=0.3, delta=0.2, corr_len=0))
        assert char.eps == ()

    def test_zero_rotation_is_exactly_clean(self):
        # At mu 1e308, 2 * mu overflows to inf, and inf * 0 would be NaN.
        for mu in (0.3, 1e308):
            model = src.PhaseRotationModel(mu=mu, delta=0.0, corr_len=4)
            char = src.characterize(model)
            assert char.eps == (0.0, 0.0, 0.0, 0.0)
            assert char.fidelity == 1.0

    def test_overflowing_exponent_gives_the_limit(self):
        # At mu 1e308 the exponent 2 * (cos(pi) - 1) * mu is -inf, so eps is
        # its limit 1, on an array as on a float, without an overflow warning.
        mus = [0.1, 1e308]
        batch = src.characterize(
            src.PhaseRotationModel(mu=np.array(mus), delta=math.pi, corr_len=1)
        )
        points = [
            src.characterize(src.PhaseRotationModel(mu=mu, delta=math.pi, corr_len=1))
            for mu in mus
        ]
        assert batch.eps[0].tolist() == [char.eps[0] for char in points]
        assert batch.eps[0][1] == 1.0

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

    def test_overflowing_exposure_gives_the_limit(self):
        # 32 * 1e308 overflows to inf, where x * exp(-x) would be inf * 0.
        assert src.detection_rate(32, 1.0, 1e308) == 0.0
        mu = np.array([0.01, 1e308, sec._LARGEST, 1e300])
        want = [src.detection_rate(32, 1.0, 0.01), 0.0, 0.0, 0.0]
        assert src.detection_rate(32, 1.0, mu).tolist() == want

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
        q = src.detection_rate(16, 0.3, 0.08)
        want = sec.key_rate(cfg, char, [q, q])
        assert res == want


def protocol(group_size, corr_len):
    return sec.ProtocolConfig(group_size=group_size, corr_len=corr_len, e_bit=0.03)


class TestOptimizeMu:
    def test_result_beats_coarse_grid(self):
        cfg = protocol(16, 1)
        mu_opt, res = src.optimize_mu(cfg, 0.2, 0.3)
        for i in range(30):
            mu = 10 ** (-4 + 4 * i / 29.0)
            other = src.rate_at_mu(cfg, 0.2, 0.3, mu)
            assert res.rate_per_pulse >= other.rate_per_pulse - 1e-12

    def test_dark_detector_yields_zero(self):
        mu_opt, res = src.optimize_mu(protocol(16, 0), 0.2, 0.0)
        assert res.rate_per_pulse == 0.0
        assert mu_opt > 0.0

    def test_bounds_respected(self):
        assert (src.MU_MIN, src.MU_MAX, src.MU_GRID_POINTS) == (1e-6, 10.0, 200)
        for eta in (1e-3, 0.3, 1.0):
            mu_opt, _ = src.optimize_mu(protocol(16, 0), 0.2, eta)
            assert src.MU_MIN <= mu_opt <= src.MU_MAX

    def test_domain(self):
        with pytest.raises(ValueError, match="group_size"):
            src.optimize_mu(protocol(2, 0), 0.2, 0.3)
        with pytest.raises(ValueError, match="transmittance"):
            src.optimize_mu(protocol(16, 0), 0.2, 1.5)

    def test_result_is_the_rate_at_the_returned_mu(self):
        cfg = protocol(16, 1)
        # At eta 0 every grid rate is 0, so no search runs.
        for eta in (0.3, 0.0):
            mu_opt, res = src.optimize_mu(cfg, 0.2, eta)
            want = src.rate_at_mu(cfg, 0.2, eta, mu_opt)
            assert res == want
            assert repr(res) == repr(want)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((16, 1, math.nan, 0.3), "delta must be finite, got nan"),
            ((16, 1, math.inf, 0.3), "delta must be finite, got inf"),
            ((16, 1, -math.inf, 0.3), "delta must be finite, got -inf"),
            ((16, 1, 0.2, math.nan), "transmittance must lie in [0, 1], got nan"),
            ((16, 1, 0.2, -0.1), "transmittance must lie in [0, 1], got -0.1"),
            ((16, 1, 0.2, 1.5), "transmittance must lie in [0, 1], got 1.5"),
            ((2, 1, 0.2, 0.3), "group_size must be >= 3, got 2"),
        ],
        ids=["delta-nan", "delta-inf", "delta-minus-inf", "eta-nan", "eta-negative",
             "eta-above-one", "group-size-2"],
    )
    def test_bad_input_is_rejected_before_any_rate(self, monkeypatch, args, message):
        # The messages are the ones the per-mu grid raised at its first point;
        # the group size is ProtocolConfig's to check.  A grid source counts
        # as work: a cached one would hide a check that runs only on a miss.
        def evaluated(*_):
            raise AssertionError("a rate was evaluated before the input was checked")

        monkeypatch.setattr(sec, "_tail_row", evaluated)
        monkeypatch.setattr(sec, "_phase_errors", evaluated)
        monkeypatch.setattr(src, "_grid_source", evaluated)
        group_size, corr_len, delta, eta = args
        with pytest.raises(ValueError) as err:
            src.optimize_mu(protocol(group_size, corr_len), delta, eta)
        assert str(err.value) == message

    def test_cached_grid_keeps_every_check(self, monkeypatch):
        # True == 1.0 and both hash alike, so a cache looked up before the
        # check would hand True the source of delta 1.0, and price it.
        cfg = protocol(16, 1)
        first = src.optimize_mu(cfg, 1.0, 0.3)
        assert src._grid_source(1, True) is src._grid_source(1, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            src._grid_source(1, 1.0).minus_act[0] = 0.0
        assert src.optimize_mu(cfg, 1.0, 0.3) == first

        def evaluated(*_):
            raise AssertionError("a rate was evaluated before delta was checked")

        monkeypatch.setattr(sec, "_tail_row", evaluated)
        for delta in (True, np.True_):
            with pytest.raises(ValueError, match=f"^delta must be finite, got {delta}$"):
                src.optimize_mu(cfg, delta, 0.3)

    def test_searched_row_makes_one_rate_record(self, monkeypatch):
        # The search runs on the rate's private steps; the one rate_at_mu
        # call of a row is the returned result, at one mu.
        calls = []
        real = src.rate_at_mu

        def record(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(src, "rate_at_mu", record)
        searched = []
        real_golden = src._golden
        monkeypatch.setattr(
            src, "_golden", lambda *a: searched.append(a) or real_golden(*a)
        )
        cfg = protocol(32, 2)
        mu_opt, _ = src.optimize_mu(cfg, 0.2, 0.03)
        assert len(searched) == 1
        assert calls == [(cfg, 0.2, 0.03, mu_opt)]
        assert isinstance(mu_opt, float)


class TestGridBatch:
    """One array pass over the grid against a per-mu loop of rate_at_mu."""

    @pytest.mark.parametrize("eta", [0.0, 0.03, 1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 3.0])
    @pytest.mark.parametrize("corr_len", [0, 10])
    @pytest.mark.parametrize("group_size", [3, 32, 1024])
    def test_bitwise_equal_to_per_mu_loop(self, group_size, corr_len, delta, eta):
        cfg = sec.ProtocolConfig(group_size=group_size, corr_len=corr_len, e_bit=0.03)
        grid = np.geomspace(src.MU_MIN, src.MU_MAX, src.MU_GRID_POINTS)
        reference = [src.rate_at_mu(cfg, delta, eta, mu) for mu in grid.tolist()]
        batch = src.rate_at_mu(cfg, delta, eta, grid)
        assert [repr(r.f_ec) for r in reference] == [repr(batch.f_ec)] * len(grid)
        assert len(batch.per_group) == cfg.n_groups
        # Each array of the batch against the one-point values it stands for.
        pairs = [(batch.rate_per_pulse, [r.rate_per_pulse for r in reference])]
        for w, group in enumerate(batch.per_group):
            for field in dataclasses.fields(sec.GroupRate):
                want = [getattr(r.per_group[w], field.name) for r in reference]
                pairs.append((getattr(group, field.name), want))
        for got, want in pairs:
            assert got.tolist() == want
            # repr tells -0.0 from 0.0 and an int from a float, which == does not.
            assert repr(got.tolist()) == repr(want)

    def test_source_front_rounds_as_libm(self):
        # numpy's exp and expm1 differ from libm in the last bit on some
        # inputs, for floats and arrays alike, so the comparison above
        # cannot see them swapped in; pin the libm values instead.
        mu = np.geomspace(src.MU_MIN, src.MU_MAX, src.MU_GRID_POINTS)
        for point in (mu, *mu.tolist()[::20]):
            model = src.PhaseRotationModel(mu=point, delta=0.7, corr_len=4)
            char = src.characterize(model)
            mus = np.atleast_1d(point).tolist()
            for lag, eps in enumerate(char.eps, start=1):
                c = math.cos(0.7 / 2 ** (lag - 1)) - 1.0
                assert np.atleast_1d(eps).tolist() == [
                    -math.expm1(2.0 * m * c) for m in mus
                ]
            assert np.atleast_1d(char.p_vac0).tolist() == [math.exp(-m) for m in mus]
            xs = [32 * 0.2 * m for m in mus]
            assert np.atleast_1d(src.detection_rate(32, 0.2, point)).tolist() == [
                x * math.exp(-x) / 2.0 for x in xs
            ]


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
        want, fval, nfev = golden(func, brack=brack, full_output=True)
        assert got == (want, fval)
        assert len(calls) == nfev - 3
        return len(calls)

    def test_stop_rule_is_scipys_default(self):
        # A slightly different xtol changes no iterate on most objectives.
        from scipy.optimize import golden

        defaults = inspect.signature(golden).parameters
        assert src._GOLDEN_XTOL == defaults["tol"].default
        assert src._GOLDEN_MAXITER == defaults["maxiter"].default

    def test_readme_rows_match_scipy(self, monkeypatch):
        real_golden, real_rate = src._golden, src.rate_at_mu
        searches = []  # (objective, bracket, objective evaluations)
        n_rate = 0

        def count_rate(*args):
            nonlocal n_rate
            n_rate += 1
            return real_rate(*args)

        def record_golden(func, *brack):
            calls = []

            def counted(x):
                calls.append(x)
                return func(x)

            found = real_golden(counted, *brack)
            searches.append((func, brack, len(calls)))
            return found

        monkeypatch.setattr(src, "rate_at_mu", count_rate)
        monkeypatch.setattr(src, "_golden", record_golden)
        for corr_len, eta in README_ROWS:
            start = n_rate
            src.optimize_mu(protocol(32, corr_len), 0.2, eta)
            # The search's objective, then one rate record for the result.
            assert n_rate - start == 1
        assert len(searches) == len(README_ROWS)
        monkeypatch.undo()
        for func, brack, n_objective in searches:
            # Again, and the same count as scipy's, fewer its three points.
            assert self._compare(func, brack) == n_objective

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
