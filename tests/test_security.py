"""Unit tests for the analytic bound layer."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rrdps import security as sec
from rrdps import sources as src

# Frozen from independent evaluations at 50-digit working precision.
H_011 = 0.49991595816452799564
G_02_09 = 0.62784072393492849576


def exact_binomial_tail(n: int, s: int, p: float) -> Fraction:
    """Strictly-greater binomial tail, exact in rational arithmetic.

    Fraction(float) is exact, so this evaluates the same polynomial the
    production code approximates, with no rounding at all.
    """
    pf = Fraction(p)
    one = Fraction(1)
    return sum(
        (
            Fraction(math.comb(n, k)) * pf**k * (one - pf) ** (n - k)
            for k in range(s + 1, n + 1)
        ),
        Fraction(0),
    )


def trig_transfer(x: float, y: float) -> float:
    # Independent route: the bound is the squared sine of the summed
    # rotation angles whenever it is nontrivial.
    if x > y * y:
        return 1.0
    return math.sin(math.asin(math.sqrt(x)) + math.acos(y)) ** 2


class TestBinaryEntropy:
    def test_endpoints(self):
        assert sec.binary_entropy(0.0) == 0.0
        assert sec.binary_entropy(1.0) == 1.0
        assert sec.binary_entropy(0.5) == 1.0

    def test_saturates_above_half(self):
        assert sec.binary_entropy(0.75) == 1.0
        assert sec.binary_entropy(0.500001) == 1.0

    def test_frozen_value(self):
        assert sec.binary_entropy(0.11) == pytest.approx(H_011, abs=1e-15)

    def test_matches_direct_formula_below_half(self):
        for i in range(1, 50):
            x = i / 100.0
            direct = -x * math.log2(x) - (1 - x) * math.log2(1 - x)
            assert sec.binary_entropy(x) == pytest.approx(direct, abs=1e-14)

    def test_monotone_on_lower_half(self):
        xs = [i / 200.0 for i in range(101)]
        vals = [sec.binary_entropy(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            sec.binary_entropy(-0.1)
        with pytest.raises(ValueError):
            sec.binary_entropy(1.1)


class TestTransferBound:
    def test_frozen_value(self):
        assert sec.transfer_bound(0.2, 0.9) == pytest.approx(G_02_09, abs=1e-15)

    def test_perfect_overlap_is_identity(self):
        assert sec.transfer_bound(0.3, 1.0) == pytest.approx(0.3, abs=1e-15)

    def test_zero_probability_input(self):
        assert sec.transfer_bound(0.0, 0.8) == pytest.approx(0.36, abs=1e-15)

    def test_trivial_branch(self):
        assert sec.transfer_bound(0.5, 0.6) == 1.0

    def test_two_routes_agree(self):
        for i in range(60):
            for j in range(60):
                x, y = i / 59.0, j / 59.0
                assert sec.transfer_bound(x, y) == pytest.approx(
                    trig_transfer(x, y), abs=1e-12
                )

    def test_monotone_in_probability(self):
        for j in range(21):
            y = j / 20.0
            vals = [sec.transfer_bound(i / 100.0, y) for i in range(101)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_antitone_in_overlap(self):
        for i in range(21):
            x = i / 20.0
            vals = [sec.transfer_bound(x, j / 100.0) for j in range(101)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for i in range(40):
            for j in range(40):
                x, y = i / 39.0, j / 39.0
                g = sec.transfer_bound(x, y)
                assert max(x, 1.0 - y * y) - 1e-12 <= g <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sec.transfer_bound(-0.1, 0.5)
        with pytest.raises(ValueError):
            sec.transfer_bound(0.5, 1.5)


class TestBinomialTail:
    def test_frozen_exact_values(self):
        assert sec.binomial_tail(4, 1, 0.5) == pytest.approx(11 / 16, abs=1e-15)
        assert sec.binomial_tail(5, 4, 0.3) == pytest.approx(0.00243, abs=1e-15)

    def test_against_exact_enumeration(self):
        for n in (1, 2, 3, 7, 16, 33, 64):
            for s in range(0, n, max(1, n // 7)):
                for p in (0.0, 0.013, 0.25, 0.5, 0.77, 1.0):
                    want = float(exact_binomial_tail(n, s, p))
                    assert sec.binomial_tail(n, s, p) == pytest.approx(
                        want, abs=1e-13
                    ), (n, s, p)

    def test_degenerate_probabilities(self):
        assert sec.binomial_tail(10, 3, 0.0) == 0.0
        assert sec.binomial_tail(10, 3, 1.0) == 1.0

    def test_top_threshold(self):
        # Only the all-successes outcome clears s = n - 1.
        assert sec.binomial_tail(6, 5, 0.3) == pytest.approx(0.3**6, rel=1e-13)

    def test_monotone_in_p(self):
        vals = [sec.binomial_tail(12, 4, i / 50.0) for i in range(51)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_antitone_in_s(self):
        for p in (0.1, 0.5, 0.9):
            vals = [sec.binomial_tail(12, s, p) for s in range(12)]
            assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_large_n_stays_sane(self):
        vals = [sec.binomial_tail(1024, s, 0.3) for s in range(0, 1024, 64)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))
        # Median-ish threshold keeps a tail near one half.
        assert 0.3 < sec.binomial_tail(1024, 306, 0.3) < 0.7

    def test_cached_row_is_read_only(self):
        # Every cached array is shared with later calls: the tail constants,
        # and optimize_mu's mu grid and the grid's minus_act.
        minus_act = src._grid_minus_act(2, 0.2)
        for array in [*sec._log_binom_row(16), src._mu_grid(), minus_act]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sec.binomial_tail(0, 0, 0.5)
        with pytest.raises(ValueError):
            sec.binomial_tail(5, 5, 0.5)
        with pytest.raises(ValueError):
            sec.binomial_tail(5, -1, 0.5)
        with pytest.raises(ValueError):
            sec.binomial_tail(5, 2, 1.5)


class TestVacuumBounds:
    def test_fidelity_bound_values(self):
        assert sec.vacuum_fidelity_bound(1.0, 1.0) == 1.0
        assert sec.vacuum_fidelity_bound(0.25, 0.25) == 0.0
        assert sec.vacuum_fidelity_bound(1.0, 0.81) == pytest.approx(0.8, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            sec.vacuum_fidelity_bound(-0.1, 0.5)
        with pytest.raises(ValueError):
            sec.vacuum_fidelity_bound(0.5, 1.2)


class TestSourceCharacterization:
    def test_corr_len_is_the_number_of_deficits(self):
        assert sec.SourceCharacterization(eps=(), p_vac0=0.9, p_vac1=0.9).corr_len == 0
        point = sec.SourceCharacterization(eps=(0.1, 0.2), p_vac0=0.9, p_vac1=0.9)
        assert point.corr_len == len(point.eps) == 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sec.SourceCharacterization(eps=(1.5,), p_vac0=0.9, p_vac1=0.9)
        with pytest.raises(ValueError):
            sec.SourceCharacterization(eps=(), p_vac0=-0.1, p_vac1=0.9)

    def test_eps_coerced_to_tuple(self):
        src = sec.SourceCharacterization(eps=[0.1, 0.2], p_vac0=0.9, p_vac1=0.9)
        assert src.eps == (0.1, 0.2)


class TestSecurityBounds:
    """The bounds a characterization derives when it is built."""

    def test_reference_cap(self):
        src = sec.SourceCharacterization(eps=(), p_vac0=1.0, p_vac1=1.0)
        assert src.minus_ref == 0.0
        src = sec.SourceCharacterization(eps=(), p_vac0=0.81, p_vac1=0.81)
        assert src.minus_ref == pytest.approx(0.19, abs=1e-15)

    def test_fidelity_floor(self):
        def fidelity(eps):
            return sec.SourceCharacterization(eps=eps, p_vac0=0.9, p_vac1=0.9).fidelity

        assert fidelity(()) == 1.0
        assert fidelity((0.0,)) == 1.0
        assert fidelity((1.0,)) == 0.5

    def test_from_source_chains_consistently(self):
        point = sec.SourceCharacterization(eps=(0.1, 0.3), p_vac0=0.9, p_vac1=0.85)
        assert point.plus_vac_floor == (math.sqrt(0.9) + math.sqrt(0.85)) ** 2 / 4.0
        assert point.a1_floor == math.sqrt(1.0 - 0.1) * math.sqrt(1.0 - 0.3)
        # The private batch form that the mu grid and the oracle derive on.
        eps = (np.array([0.1, 0.0, 1.0]), np.array([0.3, 0.0, 0.5]))
        p_vac0, p_vac1 = np.array([0.9, 1.0, 0.2]), np.array([0.85, 1.0, 0.1])
        batch = sec._derive(eps, p_vac0, p_vac1)
        for bounds in (vars(point), batch):
            assert np.array_equal(bounds["minus_ref"], 1.0 - bounds["plus_vac_floor"])
            assert np.array_equal(bounds["fidelity"], (1.0 + bounds["a1_floor"]) / 2.0)
        assert point.minus_act == sec.transfer_bound(point.minus_ref, point.fidelity)
        pairs = zip(batch["minus_ref"].tolist(), batch["fidelity"].tolist())
        want = [sec.transfer_bound(x, y) for x, y in pairs]
        assert batch["minus_act"].tolist() == want
        # Each entry of a batch is the bound of its source alone.
        for i in range(3):
            alone = sec.SourceCharacterization(
                eps=tuple(e[i].item() for e in eps),
                p_vac0=p_vac0[i].item(),
                p_vac1=p_vac1[i].item(),
            )
            for name in ("plus_vac_floor", "a1_floor", "minus_ref", "fidelity"):
                assert batch[name][i] == getattr(alone, name), name
            assert batch["minus_act"][i] == alone.minus_act

    def test_derived_fields_are_not_compared_and_rederived(self):
        src = sec.SourceCharacterization(eps=(0.1,), p_vac0=0.9, p_vac1=0.85)
        assert repr(src) == "SourceCharacterization(eps=(0.1,), p_vac0=0.9, p_vac1=0.85)"
        # A copy whose derived field was overwritten still equals the original.
        tampered = dataclasses.replace(src)
        object.__setattr__(tampered, "minus_act", 0.0)
        assert tampered == src and repr(tampered) == repr(src)
        again = dataclasses.replace(src, eps=(0.4,))
        fresh = sec.SourceCharacterization(eps=(0.4,), p_vac0=0.9, p_vac1=0.85)
        for name in ("plus_vac_floor", "a1_floor", "minus_ref", "fidelity", "minus_act"):
            assert getattr(again, name) == getattr(fresh, name), name
        assert again.a1_floor == math.sqrt(1.0 - 0.4) != src.a1_floor
        with pytest.raises(TypeError):
            sec.SourceCharacterization(eps=(), p_vac0=0.9, p_vac1=0.9, minus_act=0.0)


class TestProtocolConfig:
    def test_block_structure(self):
        cfg = sec.ProtocolConfig(group_size=10, corr_len=2, e_bit=0.03)
        assert cfg.n_groups == 3
        assert cfg.block_size == 30

    def test_f_ec_modes(self):
        shan = sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=0.03)
        assert shan.f_ec() == sec.binary_entropy(0.03)
        # An observed error rate replaces the configured one.
        assert shan.f_ec(0.11) == sec.binary_entropy(0.11)
        fixed = sec.ProtocolConfig(
            group_size=8, corr_len=0, e_bit=0.03, f_ec_fixed=0.25
        )
        assert fixed.f_ec() == fixed.f_ec(0.11) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            sec.ProtocolConfig(group_size=2, corr_len=0, e_bit=0.03)
        with pytest.raises(ValueError):
            sec.ProtocolConfig(group_size=8, corr_len=-1, e_bit=0.03)
        with pytest.raises(ValueError):
            sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=0.6)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("group_size", 8.5),
            ("group_size", True),
            ("corr_len", 0.5),
            ("corr_len", True),
            ("f_ec_fixed", math.nan),
            ("f_ec_fixed", math.inf),
        ],
    )
    def test_rejects_non_integer_or_nan(self, field, value):
        kwargs = {
            "group_size": 8,
            "corr_len": 1,
            "e_bit": 0.03,
            "f_ec_fixed": 0.2,
            field: value,
        }
        with pytest.raises(ValueError, match=field):
            sec.ProtocolConfig(**kwargs)


class TestPhaseErrorUpper:
    def test_frozen_example(self):
        assert sec.phase_error_upper(3, 0.5, 1.0) == pytest.approx(0.6875, abs=1e-12)

    def test_certain_flip_saturates(self):
        assert sec.phase_error_upper(8, 1.0, 0.7) == 1.0

    def test_no_flip_vanishes(self):
        assert sec.phase_error_upper(8, 0.0, 0.7) == 0.0

    def test_rare_detection_saturates(self):
        assert sec.phase_error_upper(8, 0.3, 1e-12) == 1.0

    def test_subnormal_detection_rate_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sec.phase_error_upper(8, 0.5, 1e-310) == 1.0

    def test_monotone_in_cap(self):
        vals = [sec.phase_error_upper(16, c / 40.0, 0.2) for c in range(41)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_antitone_in_detection_rate(self):
        qs = [10 ** (-3 + 3 * i / 30.0) for i in range(31)]
        vals = [sec.phase_error_upper(16, 0.2, q) for q in qs]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_matches_direct_sum(self):
        n, c, q = 9, 0.37, 0.05
        want = sum(
            min(sec.binomial_tail(n, s, c) / q, 1.0) for s in range(n - 1)
        ) / (n - 1)
        assert sec.phase_error_upper(n, c, q) == pytest.approx(want, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            sec.phase_error_upper(2, 0.5, 0.5)
        with pytest.raises(ValueError):
            sec.phase_error_upper(8, 0.5, 0.0)
        with pytest.raises(ValueError):
            sec.phase_error_upper(8, 1.1, 0.5)


class TestKeyRate:
    def _bounds(self, eps, p_vac):
        return sec.SourceCharacterization(eps=eps, p_vac0=p_vac, p_vac1=p_vac)

    def test_perfect_source_rate_is_one_third(self):
        cfg = sec.ProtocolConfig(group_size=3, corr_len=0, e_bit=0.0)
        res = sec.key_rate(cfg, self._bounds((), 1.0), [1.0])
        assert res.rate_per_pulse == pytest.approx(1 / 3, abs=1e-15)
        assert res.per_group[0].e_ph_upper == 0.0
        assert res.f_ec == 0.0

    def test_silent_group_contributes_nothing(self):
        cfg = sec.ProtocolConfig(group_size=4, corr_len=1, e_bit=0.0)
        res = sec.key_rate(cfg, self._bounds((0.0,), 1.0), [0.5, 0.0])
        assert res.per_group[1].q == 0.0
        solo = sec.key_rate(cfg, self._bounds((0.0,), 1.0), [0.5, 0.5])
        assert res.rate_per_pulse == pytest.approx(
            solo.rate_per_pulse / 2, abs=1e-15
        )

    def test_hopeless_source_clamps_to_zero(self):
        cfg = sec.ProtocolConfig(group_size=4, corr_len=1, e_bit=0.25)
        res = sec.key_rate(cfg, self._bounds((1.0,), 0.4), [0.3, 0.3])
        assert res.rate_per_pulse == 0.0

    def test_source_memory_must_fit_the_protocol(self, monkeypatch):
        # The groups' interleaving covers corr_len pulses of memory: a longer
        # one is refused before any rate work, in the rate and in a session,
        # and a shorter one is priced as the same source padded with zero
        # deficits, which is what it is.
        from rrdps import simulate as sim

        def evaluated(*_):
            raise AssertionError("work ran before the source was checked")

        cfg = sec.ProtocolConfig(group_size=8, corr_len=2, e_bit=0.02)
        short, padded = self._bounds((0.1,), 0.9), self._bounds((0.1, 0.0), 0.9)
        q_list = [0.2] * 3
        assert sec.key_rate(cfg, short, q_list) == sec.key_rate(cfg, padded, q_list)
        monkeypatch.setattr(sec, "_group_rate", evaluated)
        monkeypatch.setattr(sim, "_stream_keys", evaluated)
        monkeypatch.setattr(sim, "_count_draw", evaluated)
        long = self._bounds((0.1,) * 3, 0.9)
        message = "^source corr_len 3 exceeds the protocol's corr_len 2,"
        with pytest.raises(ValueError, match=message):
            sec.key_rate(cfg, long, q_list)
        with pytest.raises(ValueError, match=message):
            sim.run_simulation(cfg, long, 0.2, 10, 1)

    def test_group_count_enforced(self):
        cfg = sec.ProtocolConfig(group_size=4, corr_len=1, e_bit=0.0)
        with pytest.raises(ValueError):
            sec.key_rate(cfg, self._bounds((0.0,), 1.0), [0.5])

    def test_bound_evaluated_once_per_distinct_rate(self, monkeypatch):
        # The pricer runs once per distinct rate, and evaluates the bound
        # only where the rate is positive.
        priced, bounded = [], []
        real_price, real_bound = sec._group_rate, sec._phase_errors

        def price(*args):
            priced.append(args[2])
            return real_price(*args)

        def bound(*args):
            bounded.append(args[2])
            return real_bound(*args)

        monkeypatch.setattr(sec, "_group_rate", price)
        monkeypatch.setattr(sec, "_phase_errors", bound)
        cfg = sec.ProtocolConfig(group_size=8, corr_len=3, e_bit=0.02)
        bounds = self._bounds((0.01, 0.005, 0.002), 0.95)
        res = sec.key_rate(cfg, bounds, [0.2, 0.3, 0.2, 0.0])
        assert priced == [0.2, 0.3, 0.0]
        assert bounded == [0.2, 0.3]
        assert res.per_group[0] == res.per_group[2]
        want = sec.phase_error_upper(8, bounds.minus_act, 0.2)
        assert res.per_group[0].e_ph_upper == want
        priced.clear()
        cfg = sec.ProtocolConfig(group_size=8, corr_len=10, e_bit=0.02)
        sec.key_rate(cfg, self._bounds((0.01,) * 10, 0.95), [0.2] * 11)
        assert priced == [0.2]
