"""Tests for the exact small-system verification engine."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rrdps import oracle as orc
from rrdps import security as sec
from rrdps import sources as src


def product_family(n_pulses: int, vecs) -> orc.EmissionFamily:
    """History-free family with the same per-bit state at every pulse."""
    table = np.asarray(vecs, dtype=complex)[:, None, :]
    return orc.EmissionFamily(corr_len=0, tables=[table] * n_pulses)


def rotation_family(phi: float) -> orc.EmissionFamily:
    """Two pulses, one-bit memory: a prior 1 rotates pulse 2 by phi.

    Every overlap is known in closed form, which pins the measured
    characterization exactly.
    """
    e0 = [1.0, 0.0]
    rot = [math.cos(phi), math.sin(phi)]
    return orc.EmissionFamily(
        corr_len=1, tables=[[[e0], [e0]], [[e0, rot], [e0, rot]]]
    )


class TestEmissionFamily:
    def test_fields_and_derived_sizes(self):
        assert [f.name for f in dataclasses.fields(orc.EmissionFamily)] == [
            "corr_len", "tables", "seed"
        ]
        fam = orc.random_family(5, 2, 3, seed=1)
        assert (fam.n_pulses, fam.fock_dim) == (5, 3)
        assert [t.shape for t in fam.tables] == [
            (2, 1, 3), (2, 2, 3), (2, 4, 3), (2, 4, 3), (2, 4, 3)
        ]

    def test_missing_entry_rejected(self):
        # Pulse 2 of a one-bit memory needs two history rows.
        e0 = [[[1.0, 0.0]], [[1.0, 0.0]]]
        with pytest.raises(ValueError, match="pulse 2 table has shape"):
            orc.EmissionFamily(corr_len=1, tables=[e0, e0])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            product_family(1, ([1.0, 0.0], [1.0, 1.0]))

    def test_non_finite_rejected(self):
        e0 = [1.0, 0.0]
        for bad in ([math.nan, 0.0], [math.inf, 0.0]):
            with pytest.raises(ValueError, match="not normalized"):
                product_family(1, (bad, e0))

    def test_too_few_pulses_for_memory(self):
        one_pulse = product_family(1, ([1.0, 0.0], [1.0, 0.0])).tables
        with pytest.raises(ValueError, match="n_pulses must be >= 2, got 1"):
            orc.EmissionFamily(corr_len=1, tables=one_pulse)

    @pytest.mark.parametrize("n_pulses", [True, 2.0])
    def test_random_family_needs_integer_pulses(self, n_pulses):
        with pytest.raises(ValueError, match="n_pulses"):
            orc.random_family(n_pulses, 0, 4, seed=1)

    @pytest.mark.parametrize(
        "bad", [{"corr_len": -1}, {"corr_len": 1.5}, {"fock_dim": 1}, {"fock_dim": 3.0}]
    )
    def test_random_family_checks_sizes_before_drawing(self, bad):
        # A draw at fock_dim 1 would divide 0 by 0.
        args = {"n_pulses": 3, "corr_len": 1, "fock_dim": 4, "seed": 1, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            orc.random_family(**args)

    @pytest.mark.parametrize(
        "history", [pytest.param((2,), id="bits1"), pytest.param((-1,), id="bits2")]
    )
    def test_pulse_state_rejects_non_bits(self, history):
        # A history bit outside {0, 1} selects no stored pulse state.
        fam = orc.random_family(3, 1, 3, seed=0)
        with pytest.raises(ValueError, match="0 or 1"):
            orc.check_proof_chain(fam, t=2, history=history)

    def test_history_types_read_the_same_vector(self):
        # A True inside a numpy index tuple would act as a mask.
        fam = orc.random_family(5, 3, 4, seed=2)
        want = orc.check_proof_chain(fam, 2, (1,))
        for cast in (bool, np.bool_, np.int64):
            assert orc.check_proof_chain(fam, 2, (cast(1),)) == want


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
        for vec in np.concatenate([t.reshape(-1, 8) for t in fam.tables]):
            # Renormalizing the kept levels scales the vacuum weight
            # exp(-mu) by 1 / (1 - dropped).
            dropped = 1.0 - math.exp(-mu) / abs(vec[0]) ** 2
            assert dropped == pytest.approx(exact, abs=1e-14)
            assert dropped < 1e-9

    def test_amplitudes_past_the_largest_factorial_are_zero(self):
        # sqrt(n!) overflows past about 300 levels; the amplitudes there are
        # zero, with no warning, and the levels below keep their values.
        deep = orc.coherent_family(3, 1, mu=0.3, delta=0.2, fock_dim=1000)
        shallow = orc.coherent_family(3, 1, mu=0.3, delta=0.2, fock_dim=100)
        for d, s in zip(deep.tables, shallow.tables):
            assert not np.any(d[..., 300:])
            np.testing.assert_allclose(d[..., :100], s, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "name, value",
        [("mu", math.nan), ("mu", math.inf), ("delta", math.nan), ("delta", math.inf)],
    )
    def test_non_finite_parameters_rejected(self, name, value):
        kwargs = {"mu": 0.1, "delta": 0.2, name: value}
        with pytest.raises(ValueError, match=name):
            orc.coherent_family(3, 1, **kwargs)


class TestBuildMemory:
    @pytest.mark.parametrize("style", ["perturbed", "free"])
    def test_build_peak_is_bounded_by_the_tables(self, style):
        # The float normals, the complex rows and the copy the norm check
        # makes are each as large as the tables; at most two are alive at
        # once.  A first build runs numpy's one-time set-up outside the
        # trace.
        orc.random_family(3, 1, 3, seed=2, style=style)
        tracemalloc.start()
        try:
            fam = orc.random_family(4, 2, 20000, seed=1, style=style)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(t.nbytes for t in fam.tables)
        assert stored == 22 * 20000 * 16
        assert peak <= 2.5 * stored

    def test_campaign_peak_is_bounded_by_its_largest_family(self):
        # A chunk holds at most _CHUNK_AMPLITUDES table amplitudes or one
        # family, so at a large max_fock each array step builds one family.
        orc.run_family_campaign(3, seed=1)
        tracemalloc.start()
        try:
            camp = orc.run_family_campaign(24, seed=5, max_pulses=4, max_fock=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Four pulses at corr_len 2 hold 1 + 2 + 4 + 4 entries of 2 * max_fock
        # amplitudes each; this campaign draws a family of nearly that size.
        largest = 22 * 20000 * 16
        drawn = max(c.fock_dim * orc._rows(c.n_pulses, c.corr_len) for c in camp.checks)
        assert drawn * 16 >= 0.99 * largest
        assert peak <= 2.5 * largest


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


def stored_state(fam, k, bit, history):
    """Stored vector of pulse k for ``bit`` and the first bits of
    ``history``, as many as pulse k's window holds."""
    w = orc._window(fam.corr_len, k)
    return orc._bit_axes(fam.tables[k - 1], fam.corr_len, k)[(bit, *history[:w])]


def canonical_state(fam, t, k, bit, history):
    """Stored vector of pulse k in the proof's phase conventions for t.

    Pulse t gets a real nonnegative vacuum amplitude.  A pulse in the
    forward window of t whose history has bit 1 at t is rotated as a whole
    so that its overlap with the variant that has bit 0 there is real and
    nonnegative.  Every other vector is returned as stored.
    """
    vec = stored_state(fam, k, bit, history)
    if k == t:
        anchor = vec[0]
    elif 0 <= k - t - 1 < orc._window(fam.corr_len, k) and history[k - t - 1] == 1:
        partner = list(history)
        partner[k - t - 1] = 0
        anchor = np.vdot(stored_state(fam, k, bit, partner), vec)
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
                for i in range(orc._window(fam.corr_len, zeta))
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
    if canonical:
        state = functools.partial(canonical_state, fam, t)
    else:
        state = functools.partial(stored_state, fam)
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


# Reference loops: the state tables built entry by entry into a dict keyed
# by (k, bit, history tuple), and the measured characterization and tail
# overlap read from that dict one context at a time.  The array code must
# reproduce them bit for bit.
def reference_vacuum_weighted_unit(rng, dim, weight):
    rest = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    rest *= math.sqrt(1.0 - weight) / np.linalg.norm(rest)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return np.concatenate(([math.sqrt(weight) * phase], rest))


def reference_random_states(n_pulses, corr_len, fock_dim, seed, style):
    rng = np.random.default_rng(seed)
    if style == "perturbed":
        base = {
            bit: reference_vacuum_weighted_unit(rng, fock_dim, rng.uniform(0.55, 0.95))
            for bit in (0, 1)
        }
        strength = 10.0 ** rng.uniform(-3.0, math.log10(0.6))
    states = {}
    for k in range(1, n_pulses + 1):
        for bit in (0, 1):
            for hist in itertools.product((0, 1), repeat=min(corr_len, k - 1)):
                vec = rng.normal(size=fock_dim) + 1j * rng.normal(size=fock_dim)
                vec = vec / np.linalg.norm(vec)
                if style == "perturbed":
                    vec = base[bit] + strength * vec
                    vec = vec / np.linalg.norm(vec)
                states[(k, bit, hist)] = vec
    return states


def reference_coherent_states(n_pulses, corr_len, mu, delta, fock_dim):
    model = src.PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
    ns = np.arange(fock_dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, fock_dim)))))
    states = {}
    for k in range(1, n_pulses + 1):
        for bit in (0, 1):
            for hist in itertools.product((0, 1), repeat=min(corr_len, k - 1)):
                phase = sum(
                    model.rotation(lag) for lag, b in enumerate(hist, start=1) if b
                )
                alpha = (-1) ** bit * math.sqrt(mu) * np.exp(1j * phase)
                vec = np.power(alpha, ns) / np.exp(0.5 * log_fact)
                states[(k, bit, hist)] = vec / np.linalg.norm(vec)
    return states


def square(x):
    return x * x


def reference_characterization(states, corr_len):
    eps = []
    for d in range(1, corr_len + 1):
        worst = 1.0
        for (k, bit, hist), vec in states.items():
            if len(hist) >= d and hist[d - 1] == 1:
                partner = states[(k, bit, hist[: d - 1] + (0,) + hist[d:])]
                worst = min(worst, square(float(abs(np.vdot(partner, vec)))))
        eps.append(min(1.0, max(0.0, 1.0 - worst)))
    p_vac = [1.0, 1.0]
    for (k, bit, hist), vec in states.items():
        p_vac[bit] = min(p_vac[bit], square(float(abs(vec[0]))))
    return sec.SourceCharacterization(eps=tuple(eps), p_vac0=p_vac[0], p_vac1=p_vac[1])


def reference_tail_overlap(states, fam, t, history):
    prod = np.ones(())
    for i in range(1, min(fam.corr_len, fam.n_pulses - t) + 1):
        w = orc._window(fam.corr_len, t + i)
        ov = np.empty((2,) * i)
        for bits in itertools.product((0, 1), repeat=i):
            v0, v1 = (
                states[(t + i, bits[-1], (bits[-2::-1] + (jt, *history))[:w])]
                for jt in (0, 1)
            )
            ov[bits] = abs(np.vdot(v0, v1))
        prod = prod[..., None] * ov
    return float(prod.mean())


def sample_families():
    """Perturbed, free and coherent families for n <= 4, corr_len <= 2."""
    for n in range(1, 5):
        for lc in range(min(2, n - 1) + 1):
            fock = 3 if n < 4 else 2
            seed = 10 * n + lc
            yield orc.random_family(n, lc, fock, seed=seed, style="perturbed")
            yield orc.random_family(n, lc, fock, seed=seed, style="free")
            yield orc.coherent_family(n, lc, mu=0.2, delta=0.4, fock_dim=fock + 3)


def analyzed_pulses(fam):
    """Every analyzed pulse t of a family, with every history before it."""
    for t in range(1, fam.n_pulses - fam.corr_len + 1):
        for hist in itertools.product((0, 1), repeat=orc._window(fam.corr_len, t)):
            yield t, hist


def analysis_cases():
    """Every valid (t, history) of every sample family."""
    for fam in sample_families():
        for t, hist in analyzed_pulses(fam):
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
            phases = [
                t * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (*t.shape[:2], 1)))
                for t in fam.tables
            ]
            rotated = dataclasses.replace(fam, tables=phases)
            a = orc.check_proof_chain(fam, t, hist)
            b = orc.check_proof_chain(rotated, t, hist)
            for name in ("p_minus_act", "p_minus_ref", "fidelity", "a1", "plus_vac_prob"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12), name
            assert [getattr(b, f) for f in FLAGS] == [getattr(a, f) for f in FLAGS]
            n_cases += 1
        assert n_cases == 2 * 23


REFERENCE_SIZES = [
    # (n_pulses, corr_len, fock_dim)
    (1, 0, 2), (2, 1, 3), (3, 2, 2), (4, 2, 8), (5, 1, 6),
    (7, 3, 4), (9, 6, 3), (12, 4, 5), (12, 10, 3), (12, 10, 8),
]


class TestTableLayout:
    @pytest.mark.parametrize(
        "n, lc, fock", REFERENCE_SIZES, ids=lambda v: str(v)
    )
    def test_matches_reference_loops(self, monkeypatch, n, lc, fock):
        seed = 100 * n + lc
        cases = [
            (
                orc.random_family(n, lc, fock, seed=seed, style=style),
                reference_random_states(n, lc, fock, seed, style),
            )
            for style in ("perturbed", "free")
        ]
        cases.append(
            (
                orc.coherent_family(n, lc, mu=0.2, delta=0.4, fock_dim=fock),
                reference_coherent_states(n, lc, 0.2, 0.4, fock),
            )
        )
        for fam, states in cases:
            assert sum(t.shape[0] * t.shape[1] for t in fam.tables) == len(states)
            for (k, bit, hist), vec in states.items():
                assert np.array_equal(stored_state(fam, k, bit, hist), vec)
            char = orc.measured_characterization(fam)
            assert char == reference_characterization(states, lc)
            checks = [
                dataclasses.replace(orc.check_proof_chain(fam, t, hist), trial=t)
                for t in range(1, n - lc + 1)
                for hist in itertools.product((0, 1), repeat=orc._window(lc, t))
            ]
            with monkeypatch.context() as m:
                m.setattr(
                    orc,
                    "_tail_overlap",
                    lambda lags, j, t, hist: reference_tail_overlap(states, fam, t, hist),
                )
                for chk in checks:
                    ref = orc.check_proof_chain(
                        fam, chk.t, chk.history, characterization=char
                    )
                    ref = dataclasses.replace(ref, trial=chk.t)
                    assert chk == ref
                    assert chk.line() == ref.line()

    def test_rows_closed_form_equals_the_pulse_sum(self):
        for n in range(1, 40):
            for lc in range(40):
                pulses = sum(2 * 2 ** orc._window(lc, k) for k in range(1, n + 1))
                assert orc._rows(n, lc) == pulses, (n, lc)

    def test_rows_of_numpy_integers_do_not_wrap(self):
        n = np.int64(10**5)
        assert orc._rows(n, 2) == 2 * (4 * (10**5 - 1) - 1)
        assert orc._rows(n, n) == 2 * (2**10**5 - 1)

    def test_stacked_forms_are_bitwise_equal_to_scalar_ones(self):
        # The array code relies on these equalities to keep every report
        # byte: a stacked overlap and np.vdot, its modulus and abs() of
        # np.vdot, np.hypot and abs() of a complex scalar, the stacked norm
        # and np.linalg.norm.
        rng = np.random.default_rng(5)
        for dim in range(2, 21):
            v = rng.normal(size=(2, 500, dim)) + 1j * rng.normal(size=(2, 500, dim))
            vdots = [np.vdot(a, b) for a, b in zip(v[0], v[1])]
            assert np.array_equal(orc._overlaps(v, 0), vdots)
            assert np.array_equal(orc._lag_overlaps(v, 0), [abs(z) for z in vdots])
            z = v[0, :, 0]
            assert np.array_equal(np.hypot(z.real, z.imag), [abs(c) for c in z])
            assert np.array_equal(orc._norms(v[1]), [np.linalg.norm(a) for a in v[1]])

    @pytest.mark.parametrize("style", ["perturbed", "free", "coherent"])
    def test_built_stacks_pass_the_table_checks(self, style):
        # A campaign does not check the stacks its builders make, so every
        # family of every layout it draws must pass the constructor's checks
        # as built: corr_len up to min(2, n - 1), and at 400 Fock levels
        # sqrt(n!) overflows in the coherent amplitudes.
        def check_each_family(lc, tables):
            assert len(tables[0]) == 3
            for j in range(len(tables[0])):
                orc._check_tables(lc, [table[j] for table in tables])

        for n in (2, 3, 4):
            for lc in range(orc._window(orc._DRAWN_CORR_LEN, n) + 1):
                if style == "coherent":
                    for fock in (6, 7, 8, 400):
                        mu, delta = [0.02, 0.17, 0.3], [0.05, 0.3, 0.6]
                        tables = orc._coherent_tables(n, lc, fock, mu, delta)
                        check_each_family(lc, tables)
                else:
                    for fock in range(2, 9):
                        tables = orc._random_tables(style, n, lc, fock, [1, 20, 300])
                        check_each_family(lc, tables)


class TestReach:
    """Checks at the paper's correlation lengths, far past any campaign's draw."""

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

    def test_builds_one_record_equal_to_the_batch_entry(self, monkeypatch):
        fam = orc.random_family(4, 2, 6, seed=1)
        batch = orc._characterizations(fam._lags())
        built = []
        real = sec.SourceCharacterization.__post_init__

        def counted(record):
            built.append(record)
            real(record)

        monkeypatch.setattr(sec.SourceCharacterization, "__post_init__", counted)
        char = orc.measured_characterization(fam)
        assert len(built) == 1
        assert char.eps == tuple(e.item() for e in batch.eps)
        derived = ("plus_vac_floor", "a1_floor", "minus_ref", "fidelity", "minus_act")
        for name in ("p_vac0", "p_vac1", *derived):
            value = getattr(char, name)
            assert type(value) is float and value == getattr(batch, name).item(), name


# A modulus whose correctly rounded square, x * x = 0.37804247084817577, is
# not what every libm's pow(x, 2) returns, and whose vacuum alignment
# x / x is exactly 1 in numpy's complex division.
ROUNDING_X = 0.614851584407307


class TestSquares:
    def test_product_is_the_correctly_rounded_square(self):
        x = ROUNDING_X
        exact = Fraction(x) ** 2
        assert x * x == 0.37804247084817577
        for neighbour in (math.nextafter(x * x, 0.0), math.nextafter(x * x, 1.0)):
            assert abs(Fraction(x * x) - exact) < abs(Fraction(neighbour) - exact)

    def test_oracle_squares_are_products(self):
        # Every vacuum modulus is x, so both vacuum floors are x * x, and so
        # is the plus-vacuum probability (2x)^2 / 4: scaling by 2 and by 1/4
        # is exact.
        x = ROUNDING_X
        rest = math.sqrt(1.0 - x * x)
        fam = product_family(2, ([x, rest], [x, 1j * rest]))
        m = np.abs(np.concatenate([t[..., 0] for t in fam.tables], axis=1)).min()
        assert m == x
        char = orc.measured_characterization(fam)
        assert (char.p_vac0, char.p_vac1) == (m * m, m * m)
        assert orc.check_proof_chain(fam, 1, ()).plus_vac_prob == m * m

    def test_canonical_vacuum_is_not_rotated(self):
        # numpy's complex division gives x / x = 0.9999999999999999 at this
        # x, so rotating a vacuum amplitude that is already real and
        # nonnegative would move the plus-vacuum probability off x * x.
        x = 0.37796883434360806
        assert np.divide(x, complex(x)) != 1.0
        rest = math.sqrt(1.0 - x * x)
        fam = product_family(2, ([x, rest], [x, 1j * rest]))
        assert x * x == 0.14286043973506582
        assert orc.check_proof_chain(fam, 1, ()).plus_vac_prob == x * x


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

    @pytest.mark.parametrize("size", [1, 2])
    def test_batch_characterization_rejected(self, monkeypatch, size):
        fam = orc.random_family(3, 1, 3, seed=0)
        honest = orc.measured_characterization(fam)
        batch = sec.SourceCharacterization(
            eps=(np.full(size, honest.eps[0]),),
            p_vac0=np.full(size, honest.p_vac0),
            p_vac1=np.full(size, honest.p_vac1),
        )

        def computed(*args):
            raise AssertionError("an overlap was computed before the check")

        monkeypatch.setattr(orc, "_overlaps", computed)
        with pytest.raises(ValueError, match="characterization"):
            orc.check_proof_chain(fam, t=1, history=(), characterization=batch)

    def test_each_overlap_computed_once(self, monkeypatch):
        # The measured characterization and the tail overlap share one
        # _LagOverlaps: at corr_len 2 on 4 pulses that is 5 (k, d) entries.
        calls = []

        def counted(states, d, real=orc._lag_overlaps):
            calls.append(d)
            return real(states, d)

        fam = orc.random_family(4, 2, 5, seed=3)
        monkeypatch.setattr(orc, "_lag_overlaps", counted)
        orc.check_proof_chain(fam, 1, ())
        assert len(calls) == 5

    def test_probability_range(self):
        # Entries within 1e-12 of [0, 1] are clipped; the first beyond raises.
        p = np.array([-1e-12, 0.25, 1.0 + 1e-12])
        assert orc._probability(p, "fidelity") == [0.0, 0.25, 1.0]
        with pytest.raises(ArithmeticError, match=r"^fidelity 1\.5 outside"):
            orc._probability(np.array([0.5, 1.5, -0.5]), "fidelity")

    def test_corrupted_characterization_detected(self):
        fam = orc.coherent_family(3, 1, mu=0.2, delta=0.5, fock_dim=12)
        honest = orc.measured_characterization(fam)
        lying = sec.SourceCharacterization(
            eps=(0.0,), p_vac0=honest.p_vac0, p_vac1=honest.p_vac1
        )
        chk = orc.check_proof_chain(fam, t=1, history=(), characterization=lying)
        assert not chk.passed
        assert not chk.ok_side_channel

    def test_line_format(self):
        fam = orc.random_family(2, 0, 3, seed=4)
        line = orc.check_proof_chain(fam, t=1, history=()).line()
        assert "status=PASS" in line
        assert "p_act=" in line and "actcap=" in line


def drawn_families(n_trials, seed):
    """Each trial of a campaign at the default max_pulses 4 and max_fock 8:
    its family drawn from the trial's streams and built alone by the public
    builders, its family seed, and its drawn analyzed pulse and history."""
    for i in range(n_trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.default_rng(ss)
        fam_seed = int(ss.generate_state(1, np.uint32)[0])
        n = int(rng.integers(2, 4 + 1))
        lc = int(rng.integers(0, min(2, n - 1) + 1))
        kind = rng.random()
        if kind < 0.1:
            fock = int(rng.integers(6, 8 + 1))
            mu, delta = float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.05, 0.6))
            fam = orc.coherent_family(n, lc, mu, delta, fock_dim=fock)
        else:
            style = "free" if kind > 0.85 else "perturbed"
            fock = int(rng.integers(2, 8 + 1))
            fam = orc.random_family(n, lc, fock, seed=fam_seed, style=style)
        t = int(rng.integers(1, n - lc + 1))
        history = tuple(int(b) for b in rng.integers(0, 2, size=min(lc, t - 1)))
        yield fam, fam_seed, t, history


def reference_campaign(n_trials, seed, eps_scale):
    """The checks of a campaign made trial by trial: each drawn family
    checked alone by check_proof_chain, labelled with its trial and seed."""
    for i, (fam, fam_seed, t, history) in enumerate(drawn_families(n_trials, seed)):
        char = orc.measured_characterization(fam)
        if eps_scale is not None:
            eps = tuple(min(1.0, max(0.0, e * eps_scale)) for e in char.eps)
            char = dataclasses.replace(char, eps=eps)
        chk = orc.check_proof_chain(fam, t, history, characterization=char)
        yield dataclasses.replace(chk, trial=i, seed=fam_seed)


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
        "flags", [[], ["--fault-injection"]], ids=["clean", "injected"]
    )
    def test_report_evaluates_each_verdict_once(self, monkeypatch, tmp_path, flags):
        # The report lines, the summary and the command's exit status all
        # read each check's verdict; each chunk derives its caps once, in
        # one batch over its trials: the characterization derives them when
        # it is built, and a campaign builds one per chunk.
        from rrdps import cli

        caps = ("plus_vac_floor", "a1_floor", "minus_ref", "fidelity", "minus_act")
        derived = []

        def post_init(char, real=sec.SourceCharacterization.__post_init__):
            real(char)
            derived.append([len(getattr(char, name)) for name in caps])

        monkeypatch.setattr(sec.SourceCharacterization, "__post_init__", post_init)
        chunks = record_chunks(monkeypatch)
        out = tmp_path / "report.txt"
        args = ["oracle", "--trials", "30", "--seed", "3", *flags, "--out", str(out)]
        assert cli.main(args) == 0
        assert "summary trials=30" in out.read_text()
        sizes = [count for _, count in chunks]
        assert sum(sizes) == 30
        assert derived == [[count] * len(caps) for count in sizes]

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_trials": 0},
            {"n_trials": -3},
            {"max_pulses": 1},
            {"max_fock": 5},
            # 2 * 10**5 * 11 and 16 * (4 * (10**5 - 1) - 1) amplitudes, both
            # beyond the table budget of 2**21.
            {"max_fock": 10**5},
            {"max_pulses": 10**5},
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

        # The draw step is the first thing a trial runs.
        monkeypatch.setattr(orc, "_draw_trial", checked)
        with pytest.raises(ValueError, match=next(iter(bad))):
            orc.run_family_campaign(**{"n_trials": 5, "seed": 2, **bad})

    @pytest.mark.parametrize("eps_scale", [None, 0.5], ids=["clean", "scaled"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_families_checked_one_by_one(self, seed, eps_scale):
        # The array step over groups and windows must give each trial the
        # check the public per-family functions give it.
        camp = orc.run_family_campaign(300, seed, eps_scale=eps_scale)
        want = list(reference_campaign(300, seed, eps_scale))
        assert len(camp.checks) == len(want)
        for got, ref in zip(camp.checks, want):
            assert got == ref
            assert got.line() == ref.line()

    def test_c4_families_pass_at_every_pulse_and_history(self):
        # A campaign checks one drawn (t, history) per family; the bound
        # needs every analyzed pulse under every history.
        n_checks = 0
        for fam, _, _, _ in drawn_families(1000, 20240815):
            for t, hist in analyzed_pulses(fam):
                chk = orc.check_proof_chain(fam, t, hist)
                assert chk.passed, chk.line()
                n_checks += 1
        assert n_checks == 2584

    def test_every_history_flags_what_the_drawn_one_does(self):
        # Zeroed deficits, as --fault-injection sets them: checked at every
        # (t, history), at least as many families fail as drawn checks do.
        flagged = 0
        for fam, _, _, _ in drawn_families(200, 20240815):
            char = orc.measured_characterization(fam)
            char = dataclasses.replace(char, eps=(0.0,) * fam.corr_len)
            flagged += any(
                not orc.check_proof_chain(fam, t, hist, characterization=char).passed
                for t, hist in analyzed_pulses(fam)
            )
        drawn = orc.run_family_campaign(200, 20240815, eps_scale=0.0).n_failed
        assert flagged >= drawn > 0

    @pytest.mark.parametrize("max_fock", [8, 64])
    def test_chunks_and_groups_leak_nothing(self, max_fock):
        # The first 300 of 1000 trials share their chunks with later trials
        # that a 300-trial campaign never draws.
        long = orc.run_family_campaign(1000, 4, max_fock=max_fock).lines()
        short = orc.run_family_campaign(300, 4, max_fock=max_fock).lines()
        assert long[:300] == short[:300]

    @pytest.mark.parametrize("eps_scale", [None, 0.5], ids=["clean", "scaled"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_chunks_of_one_trial_change_nothing(self, monkeypatch, seed, eps_scale):
        want = orc.run_family_campaign(300, seed, eps_scale=eps_scale).lines()
        chunks = record_chunks(monkeypatch)
        monkeypatch.setattr(orc, "_CHUNK_AMPLITUDES", 1)
        got = orc.run_family_campaign(300, seed, eps_scale=eps_scale).lines()
        assert [count for _, count in chunks] == [1] * 300
        assert got == want

    @pytest.mark.parametrize(
        "max_fock, bound", [(8, None), (8, 500), (20000, None)], ids=str
    )
    def test_chunks_hold_one_family_or_at_most_the_bound(
        self, monkeypatch, max_fock, bound
    ):
        # At 8 Fock levels layouts are shared, and a bound of 500 amplitudes
        # splits them; at 20000 most families exceed the bound on their own.
        if bound is not None:
            monkeypatch.setattr(orc, "_CHUNK_AMPLITUDES", bound)
        chunks = record_chunks(monkeypatch)
        n_trials = 24 if max_fock > 8 else 300
        orc.run_family_campaign(n_trials, 5, max_fock=max_fock)
        counts = [count for _, count in chunks]
        amplitudes = [c * orc._rows(n, lc) * fock for (_, n, lc, fock), c in chunks]
        assert sum(counts) == n_trials
        for count, held in zip(counts, amplitudes):
            assert count == 1 or held <= orc._CHUNK_AMPLITUDES
        if max_fock > 8:
            assert max(amplitudes) > orc._CHUNK_AMPLITUDES
        else:
            assert max(counts) > 1
        if bound is not None:
            layouts = [layout for layout, _ in chunks]
            assert len(set(layouts)) < len(layouts)

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
        # Four pulses at corr_len 2 hold 1 + 2 + 4 + 4 = 11 entries of
        # 2 * max_fock amplitudes each; 2 * 95326 * 11 exceeds 2**21.
        limit = (
            r"table amplitudes at max_pulses 4, max_fock 95326 "
            r"must lie in \[1, 2097152\], got 2097172"
        )
        with pytest.raises(ValueError, match=limit):
            orc.run_family_campaign(n_trials=1, seed=1, max_pulses=4, max_fock=95326)
        # The proof-chain check has no size limit of its own.
        fam = orc.random_family(4, 0, 20, seed=1)
        assert orc.check_proof_chain(fam, 1, ()).passed


def record_chunks(monkeypatch) -> list:
    """The layout and trial count of every chunk a campaign then evaluates."""
    chunks = []

    def recorded(layout, trials, eps_scale, real=orc._layout_checks):
        chunks.append((layout, len(trials)))
        return real(layout, trials, eps_scale)

    monkeypatch.setattr(orc, "_layout_checks", recorded)
    return chunks


def reference_fidelity_proposition(dim, n_trials, seed):
    """The fidelity check made pair by pair."""
    rng = np.random.default_rng(seed)
    failed, worst = 0, math.inf
    for _ in range(n_trials):
        pair = []
        for _ in range(2):
            if rng.random() < 0.5:
                weight = rng.uniform(0.4, 1.0)
                pair.append(reference_vacuum_weighted_unit(rng, dim, weight))
            else:
                vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                pair.append(vec / np.linalg.norm(vec))
        lhs = float(abs(np.vdot(pair[0], pair[1])))
        rhs = sec.vacuum_fidelity_bound(
            square(float(abs(pair[0][0]))), square(float(abs(pair[1][0])))
        )
        worst = min(worst, lhs - rhs)
        failed += lhs - rhs < -orc.FIDELITY_TOL
    return orc.FidelityPropositionResult(dim, n_trials, failed, worst)


class TestFidelityProposition:
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_equals_pairs_checked_one_by_one(self, dim):
        # 300 pairs span two windows.
        want = reference_fidelity_proposition(dim, 300, seed=dim)
        assert orc.verify_fidelity_proposition(dim, 300, seed=dim) == want

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
