"""Tests for the Monte Carlo protocol runs."""

import math

import numpy as np
import pytest

from rrdps import security as sec
from rrdps import simulate as sim
from rrdps import sources as src


def _bounds(mu: float, delta: float, corr_len: int) -> sec.SourceCharacterization:
    model = src.PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
    return src.characterize(model)


def group_indices(block: int, group: int, corr_len: int, group_size: int):
    """Absolute 1-based pulse positions of one interleaved group, the
    reference the record positions are checked against.

    Within block ``block`` (1-based), group ``group`` (1-based, up to
    ``corr_len + 1``) collects every ``(corr_len + 1)``-th pulse starting
    at offset ``group``, so consecutive members are ``corr_len + 1`` apart.
    """
    stride = corr_len + 1
    base = (block - 1) * stride * group_size
    return tuple(base + stride * (m - 1) + group for m in range(1, group_size + 1))


class TestGroupIndices:
    def test_first_block_layout(self):
        assert group_indices(1, 1, 2, 10) == (1, 4, 7, 10, 13, 16, 19, 22, 25, 28)

    def test_second_block_offsets_by_block_size(self):
        base = group_indices(1, 2, 2, 10)
        shifted = group_indices(2, 2, 2, 10)
        assert shifted == tuple(i + 30 for i in base)

    def test_groups_partition_each_block(self):
        corr_len, size = 3, 5
        block_size = (corr_len + 1) * size
        for block in (1, 2, 5):
            seen = []
            for w in range(1, corr_len + 2):
                seen.extend(group_indices(block, w, corr_len, size))
            lo = (block - 1) * block_size + 1
            assert sorted(seen) == list(range(lo, lo + block_size))

    def test_members_spaced_beyond_memory(self):
        idx = group_indices(3, 2, 4, 6)
        gaps = [b - a for a, b in zip(idx, idx[1:])]
        assert all(g == 5 for g in gaps)


class TestRecords:
    CFG = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)

    def test_pair_geometry(self):
        for rec in sim.iter_block_records(self.CFG, 0.5, 200, seed=3):
            for o in rec.outcomes:
                if not o.success:
                    assert o.first is None and o.delay is None
                    continue
                members = group_indices(rec.block, o.group, 1, 8)
                assert o.first in members and o.second in members
                assert o.second - o.first == o.delay * 2
                assert 1 <= o.delay <= 7

    def test_parity_recomputable_from_bits(self):
        block_size = self.CFG.block_size
        for rec in sim.iter_block_records(self.CFG, 0.5, 100, seed=9):
            for o in rec.outcomes:
                if not o.success:
                    continue
                rel1 = (o.first - 1) % block_size
                rel2 = (o.second - 1) % block_size
                assert o.sent == rec.bits[rel1] ^ rec.bits[rel2]
                assert o.measured == o.sent ^ int(o.flipped)

    @pytest.mark.parametrize(
        "bad",
        [{"q_success": 1.5}, {"n_blocks": True}, {"n_blocks": 0}, {"seed": -1}],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    @pytest.mark.parametrize("records", [True, False], ids=["records", "counts"])
    def test_bad_arguments_rejected(self, records, bad):
        args = {"q_success": 0.5, "n_blocks": 10, "seed": 1, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            if records:
                next(sim.iter_block_records(self.CFG, **args))
            else:
                sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), **args)

    def test_prefix_property(self):
        short = list(sim.iter_block_records(self.CFG, 0.5, 300, seed=4))
        longer = list(sim.iter_block_records(self.CFG, 0.5, 9000, seed=4))
        assert short == longer[:300]

    def test_seed_sensitivity(self):
        a = list(sim.iter_block_records(self.CFG, 0.5, 50, seed=1))
        b = list(sim.iter_block_records(self.CFG, 0.5, 50, seed=2))
        assert a != b


class TestRunSimulation:
    CFG = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)

    def test_counts_draw_no_pulse_bits(self, monkeypatch):
        keys = []
        real = sim._stream

        def recording(seed, key, chunk):
            keys.append(key)
            return real(seed, key, chunk)

        monkeypatch.setattr(sim, "_stream", recording)
        sim.run_simulation(self.CFG, _bounds(0.2, 0.2, 1), 0.4, 5000, seed=6)
        assert sorted(set(keys)) == [1, 2]
        keys.clear()
        list(sim.iter_block_records(self.CFG, 0.4, 5000, seed=6))
        assert sorted(set(keys)) == [0, 1, 2]

    def test_counts_match_records(self):
        bounds = _bounds(0.2, 0.2, 1)
        res = sim.run_simulation(self.CFG, bounds, 0.4, 700, seed=6)
        ns = [0] * self.CFG.n_groups
        ne = [0] * self.CFG.n_groups
        for rec in sim.iter_block_records(self.CFG, 0.4, 700, seed=6):
            for o in rec.outcomes:
                if o.success:
                    ns[o.group - 1] += 1
                    ne[o.group - 1] += int(o.flipped)
        assert res.n_success == tuple(ns)
        assert res.n_errors == tuple(ne)
        assert res.q_hat == tuple(n / 700 for n in ns)
        assert res.e_bit_hat == sum(ne) / sum(ns)

    def test_deterministic(self):
        bounds = _bounds(0.2, 0.2, 1)
        a = sim.run_simulation(self.CFG, bounds, 0.4, 500, seed=6)
        b = sim.run_simulation(self.CFG, bounds, 0.4, 500, seed=6)
        assert a == b

    def test_key_length_formula(self):
        bounds = _bounds(0.2, 0.1, 1)
        res = sim.run_simulation(self.CFG, bounds, 0.6, 2000, seed=13)
        secret = sum(
            n * (1.0 - res.f_ec - f)
            for n, f in zip(res.n_success, res.f_pa)
            if n > 0
        )
        assert res.key_length == int(math.floor(max(0.0, secret)))
        assert res.rate_per_pulse == res.key_length / (2000 * self.CFG.block_size)

    def test_phase_error_uses_empirical_rates(self):
        bounds = _bounds(0.2, 0.1, 1)
        res = sim.run_simulation(self.CFG, bounds, 0.6, 2000, seed=13)
        for w in range(res.cfg.n_groups):
            if res.n_success[w] == 0:
                continue
            want = sec.phase_error_upper(8, bounds.minus_act, res.q_hat[w])
            assert res.e_ph_upper[w] == want
            assert res.f_pa[w] == sec.binary_entropy(want)

    @pytest.mark.parametrize(
        "group_size, corr_len, q_success, n_blocks, seed",
        [(8, 3, 0.01, 100, 0), (32, 10, 0.116, 20000, 1)],
        ids=["dark-group", "corr-len-10"],
    )
    def test_group_bounds_are_key_rates(
        self, group_size, corr_len, q_success, n_blocks, seed
    ):
        cfg = sec.ProtocolConfig(group_size=group_size, corr_len=corr_len, e_bit=0.03)
        bounds = _bounds(0.05, 0.2, corr_len)
        res = sim.run_simulation(cfg, bounds, q_success, n_blocks, seed)
        if corr_len == 3:
            assert 0 in res.n_success and max(res.n_success) > 0
        per_group = sec.key_rate(cfg, bounds, res.q_hat).per_group
        assert res.e_ph_upper == tuple(g.e_ph_upper for g in per_group)
        assert res.f_pa == tuple(g.f_pa for g in per_group)

    def test_clean_channel_has_no_errors(self):
        cfg = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.0)
        res = sim.run_simulation(cfg, _bounds(0.2, 0.1, 1), 0.5, 400, seed=2)
        assert res.n_errors == (0, 0)
        assert res.e_bit_hat == 0.0
        assert res.f_ec == 0.0

    def test_dark_detector_is_silent_but_valid(self):
        res = sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), 0.0, 300, seed=2)
        assert res.n_success == (0, 0)
        assert res.key_length == 0
        assert res.e_ph_upper == (1.0, 1.0)
        assert res.e_bit_hat == 0.0

    def test_noisy_channel_yields_nothing(self):
        cfg = sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=0.5)
        res = sim.run_simulation(cfg, _bounds(0.2, 0.0, 0), 0.5, 500, seed=1)
        assert res.key_length == 0

    def test_fixed_correction_cost(self):
        cfg = sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=0.05, f_ec_fixed=0.3)
        res = sim.run_simulation(cfg, _bounds(0.2, 0.0, 0), 0.5, 500, seed=1)
        assert res.f_ec == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), 1.2, 100, seed=0)
        with pytest.raises(ValueError):
            sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), 0.5, 0, seed=0)

    @pytest.mark.parametrize(
        "n_blocks, seed, field",
        [
            (True, 1, "n_blocks"),
            (2.5, 1, "n_blocks"),
            (100, True, "seed"),
            (100, 1.5, "seed"),
            (100, -1, "seed"),
        ],
    )
    def test_integer_arguments(self, n_blocks, seed, field):
        with pytest.raises(ValueError, match=field):
            sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), 0.5, n_blocks, seed)


class TestCountDraw:
    """The counts' draw skips delay and u; succ and flip must not change."""

    @pytest.mark.parametrize(
        "group_size, fallbacks",
        [
            (3, "none"),
            (8, "none"),
            (32, "none"),
            (64, "none"),
            # 2**32 mod (group_size - 1) is about half of 2**32, so nearly
            # every delay half is rejected.
            (2**31 + 2, "all"),
            # About one rejection per stream: both paths run.
            (2**32 - 2**20 + 1, "some"),
        ],
    )
    def test_matches_full_draw(self, monkeypatch, group_size, fallbacks):
        full = sim._full_draw
        ran = []

        def recording(*args):
            ran.append(args)
            return full(*args)

        monkeypatch.setattr(sim, "_full_draw", recording)
        # The probabilities include both ends of [0, 1].
        streams = [
            (q, e_bit, seed, w, c)
            for q, e_bit in ((0.0, 0.5), (0.4, 0.05), (1.0, 0.0))
            for seed in (0, 1, 7)
            for w in (1, 2)
            for c in (0, 3)
        ]
        for q, e_bit, seed, w, c in streams:
            cfg = sec.ProtocolConfig(group_size=group_size, corr_len=1, e_bit=e_bit)
            succ, flip = sim._count_draw(cfg, q, seed, w, c)
            want_succ, _delay, _u, want_flip = full(cfg, q, seed, w, c)
            assert np.array_equal(succ, want_succ)
            assert np.array_equal(flip, want_flip)
        if fallbacks == "none":
            assert not ran
        elif fallbacks == "all":
            assert len(ran) == len(streams)
        else:
            assert 0 < len(ran) < len(streams)

    def test_threshold_exact_at_drawn_values(self):
        # p at, or one ulp either side of, a value that random() returns.
        words = np.random.Philox(5).random_raw(64)
        values = np.random.Generator(np.random.Philox(5)).random(64)
        for v in values[values < 0.5][:8]:
            for p in (np.nextafter(v, 0.0), v, np.nextafter(v, 1.0)):
                assert np.array_equal(sim._below(words, p), values < p)


class TestSimulateCoherent:
    def test_matches_manual_wiring(self):
        cfg = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)
        res = sim.simulate_coherent(
            cfg, delta=0.2, eta=0.3, mu=0.1, n_blocks=300, seed=21
        )
        q = src.detection_rate(8, 0.3, 0.1)
        want = sim.run_simulation(cfg, _bounds(0.1, 0.2, 1), q, 300, seed=21)
        assert res == want

    def test_result_keeps_its_protocol(self):
        cfg = sec.ProtocolConfig(group_size=8, corr_len=2, e_bit=0.05)
        assert sim.simulate_coherent(cfg, 0.2, 0.3, 0.1, 100, seed=1).cfg is cfg
