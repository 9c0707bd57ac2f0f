"""Tests for the exact small-system verification engine."""

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


class TestBuildJointState:
    def test_orthogonal_bits_give_maximal_entanglement(self):
        e0 = [1.0, 0.0]
        e1 = [0.0, 1.0]
        fam = product_family(2, 2, (e0, e1))
        joint = orc.build_joint_state(fam)
        assert joint.norm == pytest.approx(1.0, abs=1e-12)
        # Amplitude 1/4 on every |j1 j1 j2 j2> configuration, zero elsewhere.
        arr = joint.amplitudes.reshape(2, 2, 2, 2)
        for j1 in (0, 1):
            for j2 in (0, 1):
                for b1 in (0, 1):
                    for b2 in (0, 1):
                        want = 0.5 if (b1 == j1 and b2 == j2) else 0.0
                        assert abs(arr[j1, b1, j2, b2]) == pytest.approx(
                            want, abs=1e-12
                        )

    def test_layout_order(self):
        fam = rotation_family(0.3)
        joint = orc.build_joint_state(fam)
        assert [s.label for s in joint.layout] == ["A1", "B1", "A2", "B2"]
        assert [s.kind for s in joint.layout] == ["qubit", "fock", "qubit", "fock"]

    def test_dense_budget_enforced(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        fam = product_family(8, 8, (vec, vec))
        # (2*8)^8 = 2^32 exceeds the dense budget.
        with pytest.raises(ValueError):
            orc.build_joint_state(fam)

    def test_dense_budget_enforced_by_every_block_builder(self, monkeypatch):
        def built(*args):
            raise AssertionError("a dense state was built past the budget")

        fam = orc.random_family(4, 0, 20, seed=1)
        monkeypatch.setattr(orc, "_tail_state", built)
        # At t = 1 the block holds (2*20)^4 = 2.56e6 amplitudes.
        for builder in (
            orc.check_proof_chain,
            orc.conditioned_state,
            orc.reference_state,
            orc.decompose_side_channel,
        ):
            with pytest.raises(ValueError, match="dense budget"):
                builder(fam, 1, ())

    def test_dense_budget_counts_only_pulses_from_t(self):
        # At t = 2 the block holds (2*20)^3 = 64000 amplitudes.
        fam = orc.random_family(4, 0, 20, seed=1)
        assert orc.check_proof_chain(fam, 2, ()).passed

    def test_norm_always_unit(self):
        for seed in range(4):
            fam = orc.random_family(3, 1, 3, seed=seed)
            assert orc.build_joint_state(fam).norm == pytest.approx(1.0, abs=1e-12)


class TestConditionOnZ:
    def test_full_conditioning_gives_product(self):
        fam = orc.random_family(3, 1, 3, seed=7)
        joint = orc.build_joint_state(fam)
        bits = (1, 0, 1)
        cond = orc.condition_on_z(joint, {0: bits[0], 2: bits[1], 4: bits[2]})
        prod = np.kron(
            np.kron(
                fam.pulse_state(1, bits[0], ()),
                fam.pulse_state(2, bits[1], (bits[0],)),
            ),
            fam.pulse_state(3, bits[2], (bits[1],)),
        )
        assert abs(np.vdot(cond.amplitudes, prod)) == pytest.approx(1.0, abs=1e-12)

    def test_partial_conditioning_matches_direct_construction(self):
        fam = orc.random_family(3, 1, 3, seed=7)
        joint = orc.build_joint_state(fam)
        for j1 in (0, 1):
            cond = orc.condition_on_z(joint, {0: j1})
            direct = orc.conditioned_state(fam, t=2, history=(j1,), canonical=False)
            # The emitted mode of pulse 1 stays behind as a factor.
            expected = np.kron(fam.pulse_state(1, j1, ()), direct.amplitudes)
            assert abs(np.vdot(cond.amplitudes, expected)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_zero_probability_rejected(self):
        state = orc.JointState(
            amplitudes=np.array([1.0, 0.0], dtype=complex),
            layout=(orc.Subsystem("qubit", 2, "A1"),),
        )
        with pytest.raises(ValueError):
            orc.condition_on_z(state, {0: 1})

    def test_only_qubits_conditionable(self):
        fam = rotation_family(0.3)
        joint = orc.build_joint_state(fam)
        with pytest.raises(ValueError):
            orc.condition_on_z(joint, {1: 0})
        with pytest.raises(ValueError):
            orc.condition_on_z(joint, {9: 0})
        with pytest.raises(ValueError):
            orc.condition_on_z(joint, {0: 2})


class TestMinusProbability:
    def test_eigenstates(self):
        minus = orc.JointState(
            amplitudes=np.array([1.0, -1.0], dtype=complex) / math.sqrt(2),
            layout=(orc.Subsystem("qubit", 2, "A1"),),
        )
        plus = orc.JointState(
            amplitudes=np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
            layout=(orc.Subsystem("qubit", 2, "A1"),),
        )
        assert orc.minus_probability(minus, 0) == pytest.approx(1.0, abs=1e-12)
        assert orc.minus_probability(plus, 0) == pytest.approx(0.0, abs=1e-12)

    def test_index_validation(self):
        fam = rotation_family(0.3)
        joint = orc.build_joint_state(fam)
        with pytest.raises(ValueError):
            orc.minus_probability(joint, 1)

    def test_plus_vacuum_on_product(self):
        amp = np.kron(
            np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
            np.array([1.0, 0.0, 0.0], dtype=complex),
        )
        state = orc.JointState(
            amplitudes=amp,
            layout=(orc.Subsystem("qubit", 2, "A1"), orc.Subsystem("fock", 3, "B1")),
        )
        assert orc.plus_vacuum_probability(state, 0, 1) == pytest.approx(
            1.0, abs=1e-12
        )


class TestCanonicalForm:
    def test_z_statistics_unchanged(self):
        # The phase conventions must not move any computational-basis weight.
        fam = orc.random_family(4, 2, 3, seed=3)
        raw = orc.conditioned_state(fam, t=2, history=(1,), canonical=False)
        can = orc.conditioned_state(fam, t=2, history=(1,), canonical=True)
        np.testing.assert_allclose(
            np.abs(raw.amplitudes), np.abs(can.amplitudes), atol=1e-12
        )

    def test_conditional_states_equal_up_to_phase(self):
        fam = orc.random_family(4, 2, 3, seed=5)
        raw = orc.conditioned_state(fam, t=2, history=(0,), canonical=False)
        can = orc.conditioned_state(fam, t=2, history=(0,), canonical=True)
        for jt in (0, 1):
            for j3 in (0, 1):
                for j4 in (0, 1):
                    a = orc.condition_on_z(raw, {0: jt, 2: j3, 4: j4})
                    b = orc.condition_on_z(can, {0: jt, 2: j3, 4: j4})
                    assert abs(a.overlap(b)) == pytest.approx(1.0, abs=1e-12)


class TestDecomposition:
    def test_coefficients_consistent(self):
        for seed in range(6):
            fam = orc.random_family(4, 2, 4, seed=seed)
            d = orc.decompose_side_channel(fam, t=2, history=(1,))
            assert d.a0 == pytest.approx(1.0, abs=1e-12)
            assert d.b0 == pytest.approx(0.0, abs=1e-9)
            assert 0.0 <= d.a1 <= 1.0
            assert d.a1**2 + d.b1**2 == pytest.approx(1.0, abs=1e-9)
            assert d.phi_ref.norm == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_identity(self):
        # Overlap of reference and actual block states is (1 + a1) / 2.
        for seed in range(6):
            fam = orc.random_family(3, 1, 4, seed=seed)
            act = orc.conditioned_state(fam, t=1, history=(), canonical=True)
            ref = orc.reference_state(fam, t=1, history=())
            d = orc.decompose_side_channel(fam, t=1, history=())
            assert abs(ref.overlap(act)) == pytest.approx(
                (1.0 + d.a1) / 2.0, abs=1e-12
            )

    def test_memoryless_family_has_no_side_channel(self):
        fam = orc.random_family(3, 0, 4, seed=2)
        d = orc.decompose_side_channel(fam, t=2, history=())
        assert d.a1 == pytest.approx(1.0, abs=1e-12)
        assert d.b1 == pytest.approx(0.0, abs=1e-9)


# Reference construction: every ancilla enters as a kron by its basis
# vector, and each branch is added into a zero vector.  The module fills
# the same amplitudes by indexed outer products, which must match bit for
# bit because every product with an ancilla entry is by an exact 1 or 0.
KRON_QUBIT = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


def kron_joint_state(fam):
    n = fam.n_pulses
    amp = np.zeros((2 * fam.fock_dim) ** n, dtype=complex)
    for bits in itertools.product((0, 1), repeat=n):
        vec = np.ones(1, dtype=complex)
        for k in range(1, n + 1):
            hist = tuple(reversed(bits[max(0, k - 1 - fam.corr_len): k - 1]))
            vec = np.kron(vec, KRON_QUBIT[bits[k - 1]])
            vec = np.kron(vec, fam.pulse_state(k, bits[k - 1], hist))
        amp += vec
    amp /= math.sqrt(2**n)
    return amp


def kron_tail(states, jt, history):
    fam, t = states.family, states.t
    n = fam.n_pulses
    m = n - t
    amp = np.zeros((2 * fam.fock_dim) ** m, dtype=complex)
    for branch in itertools.product((0, 1), repeat=m):
        vec = np.ones(1, dtype=complex)
        for zeta in range(t + 1, n + 1):
            hist = tuple(
                orc._bit_at(zeta - 1 - i, t, jt, history, branch)
                for i in range(fam.window(zeta))
            )
            vec = np.kron(vec, KRON_QUBIT[branch[zeta - t - 1]])
            vec = np.kron(vec, states.pulse_state(zeta, branch[zeta - t - 1], hist))
        amp += vec
    amp /= math.sqrt(2**m)
    return amp


def kron_block(states, history, tails):
    branches = []
    for jt in (0, 1):
        base = states.pulse_state(states.t, jt, history)
        branches.append(np.kron(KRON_QUBIT[jt], np.kron(base, tails[jt])))
    return (branches[0] + branches[1]) / math.sqrt(2.0)


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


class TestKronFreeConstruction:
    def test_joint_state_bitwise(self):
        for fam in sample_families():
            got = orc.build_joint_state(fam).amplitudes
            assert np.array_equal(got, kron_joint_state(fam))

    def test_block_states_bitwise(self):
        n_cases = 0
        for fam, t, hist in analysis_cases():
            for canonical in (False, True):
                states = orc._CanonicalStates(fam, t, enabled=canonical)
                tails = [kron_tail(states, jt, hist) for jt in (0, 1)]
                got = orc.conditioned_state(fam, t, hist, canonical=canonical)
                assert np.array_equal(got.amplitudes, kron_block(states, hist, tails))
            # The loop leaves the canonical states and tails in place.
            ref = orc.reference_state(fam, t, hist)
            assert np.array_equal(
                ref.amplitudes, kron_block(states, hist, (tails[0], tails[0]))
            )
            phi = orc.decompose_side_channel(fam, t, hist).phi_ref
            assert np.array_equal(phi.amplitudes, tails[0])
            n_cases += 1
        assert n_cases == 3 * 23  # 23 (n, lc, t, history) per family kind

    def test_two_tails_per_check(self, monkeypatch):
        built = []
        real = orc._tail_state

        def counting(states, jt, history):
            built.append(jt)
            return real(states, jt, history)

        monkeypatch.setattr(orc, "_tail_state", counting)
        for fam, t, hist in analysis_cases():
            built.clear()
            orc.check_proof_chain(fam, t, hist)
            assert sorted(built) == [0, 1]


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
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_arguments_rejected_before_first_trial(self, monkeypatch, bad):
        def checked(*args, **kwargs):
            raise AssertionError("a trial ran before the arguments were checked")

        monkeypatch.setattr(orc, "check_proof_chain", checked)
        with pytest.raises(ValueError, match=next(iter(bad))):
            orc.run_family_campaign(**{"n_trials": 5, "seed": 2, **bad})


class TestFidelityProposition:
    def test_random_pairs_pass(self):
        res = orc.verify_fidelity_proposition(dim=5, n_trials=500, seed=8)
        assert res.passed
        assert res.worst_margin >= -res.tol

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
