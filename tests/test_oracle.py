"""Tests for the exact small-system verification engine."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from rrdps import oracle as orc
from rrdps import security as sec
from rrdps import sources as src


def product_family(n_pulses: int, fock_dim: int, vecs) -> orc.EmissionFamily:
    """History-free family with the same per-bit state at every pulse."""
    states = {}
    for k in range(1, n_pulses + 1):
        for bit in (0, 1):
            states[(k, bit, ())] = np.asarray(vecs[bit], dtype=complex)
    return orc.EmissionFamily(
        n_pulses=n_pulses, corr_len=0, fock_dim=fock_dim, states=states
    )


def rotation_family(phi: float) -> orc.EmissionFamily:
    """Two pulses, one-bit memory: a prior 1 rotates pulse 2 by phi.

    Every overlap is known in closed form, which pins the measured
    characterization exactly.
    """
    e0 = np.array([1.0, 0.0], dtype=complex)
    rot = np.array([math.cos(phi), math.sin(phi)], dtype=complex)
    states = {
        (1, 0, ()): e0,
        (1, 1, ()): e0,
        (2, 0, (0,)): e0,
        (2, 0, (1,)): rot,
        (2, 1, (0,)): e0,
        (2, 1, (1,)): rot,
    }
    return orc.EmissionFamily(n_pulses=2, corr_len=1, fock_dim=2, states=states)


class TestEmissionFamily:
    def test_missing_entry_rejected(self):
        states = {(1, 0, ()): np.array([1.0, 0.0], dtype=complex)}
        with pytest.raises(ValueError):
            orc.EmissionFamily(n_pulses=1, corr_len=0, fock_dim=2, states=states)

    def test_unnormalized_rejected(self):
        states = {
            (1, 0, ()): np.array([1.0, 0.0], dtype=complex),
            (1, 1, ()): np.array([1.0, 1.0], dtype=complex),
        }
        with pytest.raises(ValueError):
            orc.EmissionFamily(n_pulses=1, corr_len=0, fock_dim=2, states=states)

    def test_non_finite_rejected(self):
        e0 = [1.0, 0.0]
        for bad in ([math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                product_family(1, 2, (bad, e0))

    def test_too_few_pulses_for_memory(self):
        with pytest.raises(ValueError):
            orc.EmissionFamily(n_pulses=1, corr_len=1, fock_dim=2, states={})

    def test_pulse_state_trims_history(self):
        fam = rotation_family(0.3)
        long_hist = (1, 0, 1, 1)
        want = fam.states[(2, 0, (1,))]
        assert np.array_equal(fam.pulse_state(2, 0, long_hist), want)

    def test_pulse_state_needs_full_window(self):
        fam = rotation_family(0.3)
        with pytest.raises(ValueError):
            fam.pulse_state(2, 0, ())


class TestCoherentFamily:
    def test_default_truncation_error_below_claim(self):
        # The docstring bound: fock 8 drops under 1e-9 of the photon-number
        # distribution for mu <= 0.29.  The dropped mass grows with mu, so
        # the largest mu is the binding case.
        mpmath = pytest.importorskip("mpmath")
        mu = 0.29
        fam = orc.coherent_family(2, 1, mu=mu, delta=0.4)
        assert fam.fock_dim == 8
        with mpmath.workdps(30):
            kept = mpmath.fsum(
                mpmath.exp(-mu) * mpmath.mpf(mu) ** n / mpmath.factorial(n)
                for n in range(8)
            )
            exact = float(1 - kept)
        for vec in fam.states.values():
            # Renormalizing the kept levels scales the vacuum weight
            # exp(-mu) by 1 / (1 - dropped).
            dropped = 1.0 - math.exp(-mu) / abs(vec[0]) ** 2
            assert dropped == pytest.approx(exact, abs=1e-14)
            assert dropped < 1e-9

    @pytest.mark.parametrize(
        "name, value",
        [("mu", math.nan), ("mu", math.inf), ("delta", math.nan), ("delta", math.inf)],
    )
    def test_non_finite_parameters_rejected(self, name, value):
        kwargs = {"mu": 0.1, "delta": 0.2, name: value}
        with pytest.raises(ValueError, match=name):
            orc.coherent_family(3, 1, **kwargs)


class TestCanonicalForm:
    def test_z_statistics_unchanged(self):
        # The phase conventions must not move any computational-basis weight.
        fam = orc.random_family(4, 2, 3, seed=3)
        raw = kron_blocks(fam, t=2, history=(1,), canonical=False)[0]
        can = kron_blocks(fam, t=2, history=(1,), canonical=True)[0]
        np.testing.assert_allclose(np.abs(raw), np.abs(can), atol=1e-12)

    def test_conditional_states_equal_up_to_phase(self):
        fam = orc.random_family(4, 2, 3, seed=5)
        raw = kron_blocks(fam, t=2, history=(0,), canonical=False)[0]
        can = kron_blocks(fam, t=2, history=(0,), canonical=True)[0]
        for bits in itertools.product((0, 1), repeat=3):
            a = condition_on_ancillas(raw, fam.fock_dim, bits)
            b = condition_on_ancillas(can, fam.fock_dim, bits)
            assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-12)


# Reference construction of the dense block states whose closed forms the
# proof-chain check evaluates: every ancilla enters as a kron by its basis
# vector, and each branch is added into a zero vector.
KRON_QUBIT = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


def bit_at(pos, t, jt, history, branch):
    """Bit at absolute pulse pos: a branch bit after t, jt at t, and a
    history bit (most recent first) before t."""
    if pos > t:
        return branch[pos - t - 1]
    if pos == t:
        return jt
    return history[t - 1 - pos]


def canonical_state(fam, t, k, bit, history):
    """Stored vector of pulse k in the proof's phase conventions for t.

    Pulse t gets a real nonnegative vacuum amplitude.  A pulse in the
    forward window of t whose history has bit 1 at t is rotated as a whole
    so that its overlap with the variant that has bit 0 there is real and
    nonnegative.  Every other vector is returned as stored.
    """
    vec = fam.pulse_state(k, bit, history)
    if k == t:
        anchor = vec[0]
    elif 0 <= k - t - 1 < fam.window(k) and history[k - t - 1] == 1:
        partner = list(history)
        partner[k - t - 1] = 0
        anchor = np.vdot(fam.pulse_state(k, bit, partner), vec)
    else:
        return vec
    return vec if abs(anchor) < 1e-12 else vec * (abs(anchor) / anchor)


def kron_tail(state, fam, t, jt, history):
    """Tail of pulses t+1..n under bit jt, with vectors read from state."""
    n = fam.n_pulses
    m = n - t
    amp = np.zeros((2 * fam.fock_dim) ** m, dtype=complex)
    for branch in itertools.product((0, 1), repeat=m):
        vec = np.ones(1, dtype=complex)
        for zeta in range(t + 1, n + 1):
            hist = tuple(
                bit_at(zeta - 1 - i, t, jt, history, branch)
                for i in range(fam.window(zeta))
            )
            vec = np.kron(vec, KRON_QUBIT[branch[zeta - t - 1]])
            vec = np.kron(vec, state(zeta, branch[zeta - t - 1], hist))
        amp += vec
    amp /= math.sqrt(2**m)
    return amp


def kron_block(state, t, history, tails):
    branches = []
    for jt in (0, 1):
        base = state(t, jt, history)
        branches.append(np.kron(KRON_QUBIT[jt], np.kron(base, tails[jt])))
    return (branches[0] + branches[1]) / math.sqrt(2.0)


def kron_blocks(fam, t, history, canonical=True):
    """Actual and reference block states of pulses t..n, and both tails.

    The actual block carries the bit-jt tail in its bit-jt branch, the
    reference block the bit-0 tail in both.  Without ``canonical`` the
    stored vectors enter as they are.
    """
    state = functools.partial(canonical_state, fam, t) if canonical else fam.pulse_state
    tails = [kron_tail(state, fam, t, jt, history) for jt in (0, 1)]
    act = kron_block(state, t, history, tails)
    ref = kron_block(state, t, history, (tails[0], tails[0]))
    return act, ref, tails


def condition_on_ancillas(block, fock_dim, bits):
    """Normalized Fock amplitudes of a block after Z outcomes ``bits`` on
    its ancillas, one per pulse in order."""
    arr = block.reshape((2, fock_dim) * len(bits))
    picked = arr[tuple(ix for b in bits for ix in (b, slice(None)))].reshape(-1)
    return picked / np.linalg.norm(picked)


def minus_probability(block):
    """X-basis minus probability of the block's pulse-t ancilla."""
    arr = block.reshape(2, -1)
    return min(1.0, float(np.linalg.norm(arr[0] - arr[1]) ** 2) / 2.0)


def plus_vacuum_probability(block, fock_dim):
    """Joint probability of X-basis plus and vacuum on pulse t."""
    arr = block.reshape(2, fock_dim, -1)
    return min(1.0, float(np.linalg.norm(arr[0, 0] + arr[1, 0]) ** 2) / 2.0)


def sample_families():
    """Perturbed, free and coherent families for n <= 4, corr_len <= 2."""
    for n in range(1, 5):
        for lc in range(min(2, n - 1) + 1):
            fock = 3 if n < 4 else 2
            seed = 10 * n + lc
            yield orc.random_family(n, lc, fock, seed=seed, style="perturbed")
            yield orc.random_family(n, lc, fock, seed=seed, style="free")
            yield orc.coherent_family(n, lc, mu=0.2, delta=0.4, fock_dim=fock + 3)


def analysis_cases():
    """Every valid (t, history) of every sample family."""
    for fam in sample_families():
        for t in range(1, fam.n_pulses - fam.corr_len + 1):
            for hist in itertools.product((0, 1), repeat=fam.window(t)):
                yield fam, t, hist


FLAGS = (
    "ok_ref_cap",
    "ok_plus_vac",
    "ok_fidelity_floor",
    "ok_side_channel",
    "ok_transfer",
    "ok_act_cap",
)


class TestClosedForms:
    def test_fields_match_dense_reference(self):
        # Under the measured characterization and with every per-lag
        # deficit denied, so that the flags are exercised both ways.
        n_cases = n_failed = 0
        for fam, t, hist in analysis_cases():
            act, ref, tails = kron_blocks(fam, t, hist)
            g = np.vdot(tails[0], tails[1])
            # The alignment the check relies on to read overlaps by modulus.
            assert abs(g.imag) <= 1e-12
            honest = orc.measured_characterization(fam)
            lying = dataclasses.replace(honest, eps=(0.0,) * fam.corr_len)
            for char in (honest, lying):
                chk = orc.check_proof_chain(fam, t, hist, characterization=char)
                p_ref = minus_probability(ref)
                fid = min(1.0, abs(np.vdot(ref, act)))
                dense = dataclasses.replace(
                    chk,
                    p_minus_act=minus_probability(act),
                    p_minus_ref=p_ref,
                    fidelity=fid,
                    transfer_value=sec.transfer_bound(p_ref, fid),
                    a1=min(1.0, max(0.0, g.real)),
                    plus_vac_prob=plus_vacuum_probability(ref, fam.fock_dim),
                )
                for name in (
                    "p_minus_act", "p_minus_ref", "fidelity", "a1", "plus_vac_prob"
                ):
                    assert getattr(chk, name) == pytest.approx(
                        getattr(dense, name), abs=1e-12
                    ), name
                assert chk.transfer_value == pytest.approx(
                    dense.transfer_value, abs=1e-6
                )
                assert [getattr(chk, f) for f in FLAGS] == [
                    getattr(dense, f) for f in FLAGS
                ]
                n_failed += not chk.passed
            n_cases += 1
        assert n_cases == 3 * 23  # 23 (n, lc, t, history) per family kind
        assert n_failed > 0

    def test_stored_phases_do_not_matter(self):
        # Every stored vector is defined only up to a global phase.
        rng = np.random.default_rng(7)
        n_cases = 0
        for fam, t, hist in analysis_cases():
            if fam.seed is None:  # coherent: phases fixed by the model
                continue
            phases = {
                key: vec * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                for key, vec in fam.states.items()
            }
            rotated = dataclasses.replace(fam, states=phases)
            a = orc.check_proof_chain(fam, t, hist)
            b = orc.check_proof_chain(rotated, t, hist)
            for name in ("p_minus_act", "p_minus_ref", "fidelity", "a1", "plus_vac_prob"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12), name
            assert [getattr(b, f) for f in FLAGS] == [getattr(a, f) for f in FLAGS]
            n_cases += 1
        assert n_cases == 2 * 23


class TestReach:
    """Checks far past ``MAX_STATE_DIM``, at the paper's correlation lengths."""

    @pytest.mark.parametrize("corr_len", [4, 10])
    def test_coherent_family_is_tight(self, corr_len):
        fam = orc.coherent_family(corr_len + 2, corr_len, mu=0.1, delta=0.2, fock_dim=8)
        chk = orc.check_proof_chain(fam, t=1, history=())
        assert chk.passed, chk.line()
        assert chk.a1 == pytest.approx(chk.a1_floor, abs=1e-9)

    @pytest.mark.parametrize("corr_len", [4, 10])
    def test_perturbed_family_passes(self, corr_len):
        fam = orc.random_family(corr_len + 2, corr_len, 8, seed=corr_len)
        chk = orc.check_proof_chain(fam, t=1, history=())
        assert chk.passed, chk.line()


class TestMeasuredCharacterization:
    def test_known_rotation(self):
        phi = 0.3
        char = orc.measured_characterization(rotation_family(phi))
        assert char.eps == (pytest.approx(math.sin(phi) ** 2, abs=1e-12),)
        assert char.p_vac0 == pytest.approx(math.cos(phi) ** 2, abs=1e-12)
        assert char.p_vac1 == pytest.approx(math.cos(phi) ** 2, abs=1e-12)

    def test_coherent_matches_model(self):
        mu, delta = 0.1, 0.2
        fam = orc.coherent_family(3, 1, mu=mu, delta=delta, fock_dim=16)
        char = orc.measured_characterization(fam)
        model = src.characterize(src.PhaseRotationModel(mu=mu, delta=delta, corr_len=1))
        assert char.eps[0] == pytest.approx(model.eps[0], abs=1e-12)
        assert char.p_vac0 == pytest.approx(model.p_vac0, abs=1e-12)

    def test_memoryless(self):
        fam = orc.random_family(2, 0, 3, seed=1)
        char = orc.measured_characterization(fam)
        assert char.eps == ()
        assert 0.0 <= char.p_vac0 <= 1.0


class TestProofChain:
    def test_coherent_side_channel_is_tight(self):
        # Context-independent overlaps make a1 meet its floor exactly.
        fam = orc.coherent_family(3, 1, mu=0.1, delta=0.2, fock_dim=12)
        chk = orc.check_proof_chain(fam, t=1, history=())
        assert chk.a1 == pytest.approx(chk.a1_floor, abs=1e-9)
        assert chk.passed

    def test_random_families_pass(self):
        for seed in range(10):
            fam = orc.random_family(3, 1, 4, seed=seed)
            chk = orc.check_proof_chain(fam, t=1, history=())
            assert chk.passed, chk.line()

    def test_analysis_window_validation(self):
        fam = orc.random_family(3, 1, 3, seed=0)
        with pytest.raises(ValueError):
            orc.check_proof_chain(fam, t=3, history=(0,))  # no room for the window
        with pytest.raises(ValueError):
            orc.check_proof_chain(fam, t=2, history=())  # missing history bit

    def test_corrupted_characterization_detected(self):
        fam = orc.coherent_family(3, 1, mu=0.2, delta=0.5, fock_dim=12)
        honest = orc.measured_characterization(fam)
        lying = sec.SourceCharacterization(
            corr_len=1, eps=(0.0,), p_vac0=honest.p_vac0, p_vac1=honest.p_vac1
        )
        chk = orc.check_proof_chain(fam, t=1, history=(), characterization=lying)
        assert not chk.passed
        assert not chk.ok_side_channel

    def test_line_format(self):
        fam = orc.random_family(2, 0, 3, seed=4)
        line = orc.check_proof_chain(fam, t=1, history=()).line()
        assert "status=PASS" in line
        assert "p_act=" in line and "actcap=" in line


class TestCampaigns:
    def test_deterministic(self):
        a = orc.run_family_campaign(n_trials=20, seed=11)
        b = orc.run_family_campaign(n_trials=20, seed=11)
        assert a.lines() == b.lines()
        assert a.passed

    def test_seed_changes_trials(self):
        a = orc.run_family_campaign(n_trials=10, seed=11)
        b = orc.run_family_campaign(n_trials=10, seed=12)
        assert a.lines() != b.lines()

    def test_fault_injection_detected(self):
        camp = orc.run_family_campaign(n_trials=40, seed=11, eps_scale=0.0)
        assert camp.n_failed > 0
        assert "status=FAIL" in camp.lines()[-1]

    def test_summary_line(self):
        camp = orc.run_family_campaign(n_trials=5, seed=2)
        assert camp.lines()[-1] == "summary trials=5 failed=0 status=PASS"

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_trials": 0},
            {"n_trials": -3},
            {"max_pulses": 1},
            {"max_fock": 5},
            {"max_fock": 20},
            {"max_pulses": 7},
            {"eps_scale": math.nan},
            {"eps_scale": -0.5},
            {"eps_scale": True},
            {"max_fock": 8.5},
            {"max_pulses": 3.5},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_arguments_rejected_before_first_trial(self, monkeypatch, bad):
        def checked(*args, **kwargs):
            raise AssertionError("a trial ran before the arguments were checked")

        monkeypatch.setattr(orc, "check_proof_chain", checked)
        with pytest.raises(ValueError, match=next(iter(bad))):
            orc.run_family_campaign(**{"n_trials": 5, "seed": 2, **bad})

    def test_flag_implications(self):
        # The bounds make three flags follow from others; a campaign that
        # breaks one of these implications has a wrong check.
        n_failed = 0
        for seed in (1, 2, 3):
            for eps_scale in (None, 0.0, 0.5, 0.9):
                camp = orc.run_family_campaign(60, seed, eps_scale=eps_scale)
                for c in camp.checks:
                    assert c.ok_ref_cap or not c.ok_plus_vac, c.line()
                    assert c.ok_fidelity_floor or not c.ok_side_channel, c.line()
                    assert c.ok_act_cap or not (
                        c.ok_transfer and c.ok_ref_cap and c.ok_fidelity_floor
                    ), c.line()
                n_failed += camp.n_failed
        assert n_failed > 0

    def test_size_limit_binds_campaigns_only(self):
        # The largest family at fock 20 spans (2*20)^4 = 2.56e6 amplitudes.
        with pytest.raises(ValueError, match="MAX_STATE_DIM"):
            orc.run_family_campaign(n_trials=1, seed=1, max_pulses=4, max_fock=20)
        # The proof-chain check forms no state of that size and has no limit.
        fam = orc.random_family(4, 0, 20, seed=1)
        assert orc.check_proof_chain(fam, 1, ()).passed


class TestFidelityProposition:
    def test_random_pairs_pass(self):
        res = orc.verify_fidelity_proposition(dim=5, n_trials=500, seed=8)
        assert res.passed
        assert res.worst_margin >= -orc.FIDELITY_TOL

    def test_vacuum_only_pair_saturates(self):
        # Both states exactly vacuum: overlap 1, floor 1.
        vac = np.zeros(4, dtype=complex)
        vac[0] = 1.0
        lhs = abs(np.vdot(vac, vac))
        rhs = sec.vacuum_fidelity_bound(1.0, 1.0)
        assert lhs == rhs == 1.0

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            orc.verify_fidelity_proposition(dim=1, n_trials=10, seed=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_trials": 0},
            {"n_trials": -3},
            {"n_trials": True},
            {"n_trials": 2.0},
            {"dim": 5.5},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_arguments_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            orc.verify_fidelity_proposition(**{"dim": 5, "n_trials": 10, "seed": 0, **bad})
