"""Bad input at the package's float, size and seed boundaries, named in a
ValueError before any work is done."""

import pytest

from rrdps import oracle as orc
from rrdps import security as sec
from rrdps import simulate as sim
from rrdps import sources as src

CFG = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)
BOUNDS = sec.SecurityBounds(minus_ref=0.1, fidelity=0.9)

# A bool is an int, and so passes a bare range check as 0 or 1; a float
# size or seed, or a negative seed, otherwise fails deep inside numpy
# under another exception type or an unnamed message.
BAD_INPUTS = {
    "bounds-minus-ref-bool": (
        lambda: sec.SecurityBounds(minus_ref=True, fidelity=0.9), "minus_ref"
    ),
    "model-mu-bool": (
        lambda: src.PhaseRotationModel(mu=True, delta=0.2, corr_len=1), "mu must"
    ),
    "model-delta-bool": (
        lambda: src.PhaseRotationModel(mu=0.1, delta=True, corr_len=1),
        "delta must be finite, got True",
    ),
    "key-rate-q-bool": (
        lambda: sec.key_rate(CFG, BOUNDS, [True, True]), "detection rate"
    ),
    "simulation-q-bool": (
        lambda: sim.run_simulation(CFG, BOUNDS, True, 10, 1), "q_success"
    ),
    "optimize-eta-bool": (
        lambda: src.optimize_mu(16, 1, 0.2, True, 0.03), "transmittance"
    ),
    "detection-eta-bool": (lambda: src.detection_rate(32, True, 0.1), "transmittance"),
    "config-e-bit-bool": (
        lambda: sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=False),
        "bit error rate",
    ),
    "config-f-ec-fixed-bool": (
        lambda: sec.ProtocolConfig(
            group_size=8, corr_len=0, e_bit=0.05, f_ec_mode="fixed", f_ec_fixed=True
        ),
        "f_ec_fixed",
    ),
    "entropy-bool": (lambda: sec.binary_entropy(True), "entropy argument"),
    "transfer-x-bool": (lambda: sec.transfer_bound(True, 0.5), "probability bound"),
    "transfer-y-bool": (lambda: sec.transfer_bound(0.1, True), "overlap bound"),
    "tail-p-bool": (lambda: sec.binomial_tail(8, 2, True), "success probability"),
    "vacuum-bool": (
        lambda: sec.vacuum_fidelity_bound(True, 1.0), "vacuum probabilities"
    ),
    "tail-s-float": (lambda: sec.binomial_tail(8, 2.5, 0.3), "s must be an integer"),
    "tail-n-float": (lambda: sec.binomial_tail(8.5, 2, 0.3), "n must be an integer"),
    "tail-n-bool": (lambda: sec.binomial_tail(True, 0, 0.3), "n must be an integer"),
    "phase-error-size-float": (
        lambda: sec.phase_error_upper(8.5, 0.1, 0.3), "group_size must be an integer"
    ),
    "campaign-seed-float": (
        lambda: orc.run_family_campaign(2, 1.5), "seed must be an integer"
    ),
    "campaign-seed-negative": (
        lambda: orc.run_family_campaign(2, -1), "seed must be >= 0, got -1"
    ),
    "family-seed-float": (
        lambda: orc.random_family(2, 0, 3, seed=1.5), "seed must be an integer"
    ),
    "family-seed-negative": (
        lambda: orc.random_family(2, 0, 3, seed=-1), "seed must be >= 0, got -1"
    ),
    "fidelity-seed-negative": (
        lambda: orc.verify_fidelity_proposition(2, 1, -1), "seed must be >= 0, got -1"
    ),
}


@pytest.mark.parametrize("call, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
