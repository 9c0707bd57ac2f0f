"""Properties of the key rate, checked on drawn sources: a worse source
never rates higher, a batch entry is its one-point rate, and so is the
rate that ``optimize_mu``'s search evaluates.

Below a relative step of about 1e-14 in ``minus_act``, ``_transfer`` and
``phase_error_upper`` round either way (one ulp more ``minus_act`` can
lower the phase-error bound), so the monotone properties are asserted
wherever a step leaves ``minus_act`` as it is or moves it by a relative
1e-12 or more.  The examples are derandomized, so every run draws the same
ones.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rrdps import security as sec  # noqa: E402
from rrdps import sources as src  # noqa: E402

# On a failure hypothesis imports libcst to write a patch of the failing
# example, and libcst's import warns; as an error that warning would end
# the whole pytest run instead of failing the one test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Mostly sources with a positive rate, so that most steps move it.
SIZES = st.sampled_from([3, 8, 32, 128])
E_BITS = st.floats(0.0, 0.05)
DEFICITS = st.lists(st.floats(0.0, 0.01), min_size=1, max_size=6)
FLOORS = st.floats(0.9, 1.0)
RATES = st.floats(1e-6, 1.0)


def rate(group_size, e_bit, source, q):
    cfg = sec.ProtocolConfig(group_size, source.corr_len, e_bit)
    return sec.key_rate(cfg, source, [q] * cfg.n_groups).rate_per_pulse


def above_ulp_scale(before, after):
    a, b = before.minus_act, after.minus_act
    return a == b or abs(a - b) >= 1e-12 * max(a, b)


@PROPERTY
@given(SIZES, E_BITS, DEFICITS, st.data(), FLOORS, FLOORS, RATES, st.floats(1e-12, 1.0))
def test_larger_deficit_never_raises_the_rate(n, e_bit, eps, data, p0, p1, q, step):
    lag = data.draw(st.integers(0, len(eps) - 1))
    worse = list(eps)
    worse[lag] = min(1.0, eps[lag] * (1.0 + step))
    source = sec.SourceCharacterization(tuple(eps), p0, p1)
    worse_source = sec.SourceCharacterization(tuple(worse), p0, p1)
    assume(above_ulp_scale(source, worse_source))
    assert rate(n, e_bit, worse_source, q) <= rate(n, e_bit, source, q)


@PROPERTY
@given(SIZES, E_BITS, DEFICITS, st.floats(0.0, 1.0), FLOORS, FLOORS, RATES)
def test_appended_lag_never_raises_the_rate(n, e_bit, eps, extra, p0, p1, q):
    source = sec.SourceCharacterization(tuple(eps), p0, p1)
    longer = sec.SourceCharacterization((*eps, extra), p0, p1)
    assume(above_ulp_scale(source, longer))
    assert rate(n, e_bit, longer, q) <= rate(n, e_bit, source, q)


@PROPERTY
@given(SIZES, E_BITS, DEFICITS, FLOORS, FLOORS, RATES, st.floats(0, 1), st.booleans())
def test_higher_vacuum_floor_never_lowers_the_rate(n, e_bit, eps, p0, p1, q, up, bit1):
    floors = [p0, p1]
    floors[bit1] += (1.0 - floors[bit1]) * up
    source = sec.SourceCharacterization(tuple(eps), p0, p1)
    better = sec.SourceCharacterization(tuple(eps), *floors)
    assume(above_ulp_scale(source, better))
    assert rate(n, e_bit, better, q) >= rate(n, e_bit, source, q)


ENTRIES = st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
FIELDS = ("q", "e_ph_upper", "f_pa")


@PROPERTY
@given(SIZES, E_BITS, st.integers(0, 3), st.lists(ENTRIES, min_size=1, max_size=8))
def test_batch_entries_are_one_point_rates(n, e_bit, corr_len, entries):
    cfg = sec.ProtocolConfig(n, corr_len, e_bit)
    eps, p0, p1, q = (np.array(column) for column in zip(*entries))
    source = sec.SourceCharacterization(tuple(eps[:, :corr_len].T), p0, p1)
    batch = sec.key_rate(cfg, source, [q] * cfg.n_groups)
    for i, (deficits, floor0, floor1, rate_q) in enumerate(entries):
        one = sec.SourceCharacterization(tuple(deficits[:corr_len]), floor0, floor1)
        point = sec.key_rate(cfg, one, [rate_q] * cfg.n_groups)
        got = [batch.rate_per_pulse[i]]
        got += [getattr(batch.per_group[0], f)[i] for f in FIELDS]
        want = [point.rate_per_pulse] + [getattr(point.per_group[0], f) for f in FIELDS]
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]


# The search objective against the one-point rate.  Two examples always
# run: no detections (eta 0, so q = 0), and a source so correlated that
# minus_act is the trivial 1.
NO_CLICKS = (32, 1, 0.2, 0.0, 0.05)
TRIVIAL_CAP = (32, 2, 3.0, 0.3, 10.0)


def test_examples_reach_both_edges():
    n, _, _, eta, mu = NO_CLICKS
    assert src.detection_rate(n, eta, mu) == 0.0
    _, corr_len, delta, _, mu = TRIVIAL_CAP
    model = src.PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
    assert src.characterize(model).minus_act == 1.0


@PROPERTY
@example(*NO_CLICKS)
@example(*TRIVIAL_CAP)
@given(
    st.integers(3, 1024),
    st.integers(0, 64),
    st.one_of(st.just(0.0), st.floats(-4.0, 4.0)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.floats(src.MU_MIN, src.MU_MAX),
)
def test_search_objective_is_the_one_point_rate(n, corr_len, delta, eta, mu):
    cfg = sec.ProtocolConfig(n, corr_len, 0.03)
    got = src._rate_of_mu(cfg, delta, eta)(mu)
    want = src.rate_at_mu(cfg, delta, eta, mu).rate_per_pulse
    assert float(got).hex() == float(want).hex()
