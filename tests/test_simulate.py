"""Tests for the Monte Carlo protocol runs."""

import math

import pytest

from rrdps import security as sec
from rrdps import simulate as sim
from rrdps import sources as src


def _bounds(mu: float, delta: float, corr_len: int) -> sec.SecurityBounds:
    model = src.PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
    return sec.SecurityBounds.from_source(src.characterize(model))


class TestGroupIndices:
    def test_first_block_layout(self):
        assert sim.group_indices(1, 1, 2, 10) == (1, 4, 7, 10, 13, 16, 19, 22, 25, 28)

    def test_second_block_offsets_by_block_size(self):
        base = sim.group_indices(1, 2, 2, 10)
        shifted = sim.group_indices(2, 2, 2, 10)
        assert shifted == tuple(i + 30 for i in base)

    def test_groups_partition_each_block(self):
        corr_len, size = 3, 5
        block_size = (corr_len + 1) * size
        for block in (1, 2, 5):
            seen = []
            for w in range(1, corr_len + 2):
                seen.extend(sim.group_indices(block, w, corr_len, size))
            lo = (block - 1) * block_size + 1
            assert sorted(seen) == list(range(lo, lo + block_size))

    def test_members_spaced_beyond_memory(self):
        idx = sim.group_indices(3, 2, 4, 6)
        gaps = [b - a for a, b in zip(idx, idx[1:])]
        assert all(g == 5 for g in gaps)

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.group_indices(0, 1, 2, 10)
        with pytest.raises(ValueError):
            sim.group_indices(1, 4, 2, 10)
        with pytest.raises(ValueError):
            sim.group_indices(1, 1, 2, 0)


class TestRecords:
    CFG = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)

    def test_pair_geometry(self):
        for rec in sim.iter_block_records(self.CFG, 0.5, 200, seed=3):
            for o in rec.outcomes:
                if not o.success:
                    assert o.first is None and o.delay is None
                    continue
                members = sim.group_indices(rec.block, o.group, 1, 8)
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
        for w in range(res.n_groups):
            if res.n_success[w] == 0:
                continue
            want = sec.phase_error_upper(8, bounds.minus_act, res.q_hat[w])
            assert res.e_ph_upper[w] == want
            assert res.f_pa[w] == sec.pa_fraction(want)

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
        cfg = sec.ProtocolConfig(
            group_size=8, corr_len=0, e_bit=0.05, f_ec_mode="fixed", f_ec_fixed=0.3
        )
        res = sim.run_simulation(cfg, _bounds(0.2, 0.0, 0), 0.5, 500, seed=1)
        assert res.f_ec == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), 1.2, 100, seed=0)
        with pytest.raises(ValueError):
            sim.run_simulation(self.CFG, _bounds(0.2, 0.1, 1), 0.5, 0, seed=0)


class TestSimulateCoherent:
    def test_matches_manual_wiring(self):
        res = sim.simulate_coherent(
            group_size=8,
            corr_len=1,
            delta=0.2,
            e_bit=0.05,
            eta=0.3,
            mu=0.1,
            n_blocks=300,
            seed=21,
        )
        cfg = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)
        q = src.detection_rate(8, 0.3, 0.1)
        want = sim.run_simulation(cfg, _bounds(0.1, 0.2, 1), q, 300, seed=21)
        assert res == want
