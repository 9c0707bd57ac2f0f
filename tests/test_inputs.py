"""Bad input at the package's float, size and seed boundaries, named in a
ValueError before any work is done."""

import numpy as np
import pytest

from rrdps import oracle as orc
from rrdps import security as sec
from rrdps import simulate as sim
from rrdps import sources as src

CFG = sec.ProtocolConfig(group_size=8, corr_len=1, e_bit=0.05)
SOURCE = sec.SourceCharacterization(eps=(0.1,), p_vac0=0.9, p_vac1=0.9)
BATCH = sec.SourceCharacterization(
    eps=(np.full(3, 0.1),), p_vac0=np.full(3, 0.9), p_vac1=np.full(3, 0.9)
)
PAIR = np.array([0.03, 0.04])
FAMILY = orc.random_family(3, 1, 3, seed=1)

# A bool is an int, and so passes a bare range check as 0 or 1; a float
# size or seed, or a negative seed, otherwise fails deep inside numpy
# under another exception type or an unnamed message, or is used as is.
BAD_INPUTS = {
    "model-mu-bool": (
        lambda: src.PhaseRotationModel(mu=True, delta=0.2, corr_len=1), "mu must"
    ),
    "model-delta-bool": (
        lambda: src.PhaseRotationModel(mu=0.1, delta=True, corr_len=1),
        "delta must be finite, got True",
    ),
    "key-rate-q-bool": (
        lambda: sec.key_rate(CFG, SOURCE, [True, True]), "detection rate"
    ),
    "simulation-q-bool": (
        lambda: sim.run_simulation(CFG, SOURCE, True, 10, 1), "q_success"
    ),
    "optimize-eta-bool": (
        lambda: src.optimize_mu(CFG, 0.2, True), "transmittance"
    ),
    "detection-eta-bool": (lambda: src.detection_rate(32, True, 0.1), "transmittance"),
    "config-e-bit-bool": (
        lambda: sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=False),
        "bit error rate",
    ),
    "config-f-ec-fixed-bool": (
        lambda: sec.ProtocolConfig(
            group_size=8, corr_len=0, e_bit=0.05, f_ec_fixed=True
        ),
        "f_ec_fixed",
    ),
    "entropy-bool": (lambda: sec.binary_entropy(True), "entropy argument"),
    "transfer-x-bool": (lambda: sec.transfer_bound(True, 0.5), "probability bound"),
    "transfer-y-bool": (lambda: sec.transfer_bound(0.1, True), "overlap bound"),
    "tail-p-bool": (lambda: sec.binomial_tail(8, 2, True), "success probability"),
    "vacuum-bool": (
        lambda: sec.vacuum_fidelity_bound(True, 1.0),
        r"p_vac_a must lie in \[0, 1\], got True",
    ),
    "vacuum-out-of-range": (
        lambda: sec.vacuum_fidelity_bound(0.5, 1.5),
        r"p_vac_b must lie in \[0, 1\], got 1.5",
    ),
    "vacuum-array-entry": (
        lambda: sec.vacuum_fidelity_bound(np.array([0.5, 1.5]), np.full(2, 0.5)),
        r"p_vac_a must lie in \[0, 1\], got an array of shape \(2,\)",
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
    "proof-chain-t-bool": (
        lambda: orc.check_proof_chain(FAMILY, True, ()), "t must be an integer"
    ),
    "proof-chain-t-float": (
        lambda: orc.check_proof_chain(FAMILY, 1.5, ()), "t must be an integer, got 1.5"
    ),
    "proof-chain-corr-len-mismatch": (
        lambda: orc.check_proof_chain(
            FAMILY, 1, (), sec.SourceCharacterization(eps=(), p_vac0=0.9, p_vac1=0.9)
        ),
        "characterization correlation length mismatch",
    ),
    "family-style-unknown": (
        lambda: orc.random_family(2, 0, 3, seed=1, style="dense"),
        "unknown family style 'dense'",
    ),
    "coherent-fock-float": (
        lambda: orc.coherent_family(2, 0, 0.1, 0.2, fock_dim=1.5),
        "fock_dim must be an integer, got 1.5",
    ),
    "coherent-pulses-float": (
        lambda: orc.coherent_family(2.5, 0, 0.1, 0.2), "n_pulses must be an integer"
    ),
    "family-pulses-zero": (
        lambda: orc.random_family(0, 0, 3, seed=1), "n_pulses must be >= 1, got 0"
    ),
    "family-pulses-negative": (
        lambda: orc.random_family(-1, 0, 3, seed=1), "n_pulses must be >= 1, got -1"
    ),
    "coherent-pulses-negative": (
        lambda: orc.coherent_family(-2, 0, 0.1, 0.2), "n_pulses must be >= 1, got -2"
    ),
    "rotation-lag-float": (
        lambda: src.PhaseRotationModel(mu=0.1, delta=0.2, corr_len=2).rotation(1.5),
        "lag must be an integer, got 1.5",
    ),
    "config-e-bit-numpy-bool": (
        lambda: sec.ProtocolConfig(group_size=8, corr_len=0, e_bit=np.False_),
        "bit error rate",
    ),
    "phase-error-q-numpy-bool": (
        lambda: sec.phase_error_upper(8, 0.1, np.True_), "detection rate"
    ),
    "characterization-eps-bool": (
        lambda: sec.SourceCharacterization(eps=(True,), p_vac0=0.9, p_vac1=0.9),
        "eps at lag 1 must lie in",
    ),
    # The batch form of key_rate needs every rate shaped like the source.
    "key-rate-array-q-point-bounds": (
        lambda: sec.key_rate(CFG, SOURCE, [np.array([0.1, 0.2])] * 2),
        r"shape \(2,\) does not match source of shape \(\)",
    ),
    "key-rate-q-shorter-than-bounds": (
        lambda: sec.key_rate(CFG, BATCH, [np.array([0.1, 0.2])] * 2),
        r"shape \(2,\) does not match source of shape \(3,\)",
    ),
    "key-rate-float-q-batch-bounds": (
        lambda: sec.key_rate(CFG, BATCH, [0.1, 0.2]),
        r"shape \(\) does not match source of shape \(3,\)",
    ),
    # A batch's fields hold one entry per source, so they share one shape.
    "characterization-batch-lengths": (
        lambda: sec.SourceCharacterization(
            eps=(np.full(3, 0.1),), p_vac0=np.full(2, 0.9), p_vac1=0.9
        ),
        r"p_vac0 of shape \(2,\) does not match eps at lag 1 of shape \(3,\)",
    ),
    "characterization-batch-float-floor": (
        lambda: sec.SourceCharacterization(
            eps=(np.full(2, 0.1),), p_vac0=np.full(2, 0.9), p_vac1=0.9
        ),
        r"p_vac1 of shape \(\) does not match eps at lag 1 of shape \(2,\)",
    ),
    "coherent-array-mu": (
        lambda: orc.coherent_family(3, 1, np.array([0.1, 0.2]), 0.2),
        "mu must be a single number",
    ),
    # Only floats and 1-D arrays are numbers of this package.
    "rate-0d-mu": (
        lambda: src.rate_at_mu(CFG, 0.2, 0.2, np.array(0.1)),
        r"mu must be a finite number >= 0, got an array of shape \(\)",
    ),
    "model-2d-mu": (
        lambda: src.characterize(
            src.PhaseRotationModel(mu=np.full((2, 2), 0.1), delta=0.2, corr_len=1)
        ),
        r"mu must be a finite number >= 0, got an array of shape \(2, 2\)",
    ),
    "entropy-0d": (
        lambda: sec.binary_entropy(np.array(0.1)),
        r"entropy argument must lie in \[0, 1\], got an array of shape \(\)",
    ),
    "vacuum-2d": (
        lambda: sec.vacuum_fidelity_bound(np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
        r"p_vac_a must lie in \[0, 1\], got an array of shape \(2, 2\)",
    ),
    "family-0d-table": (
        lambda: orc.EmissionFamily(corr_len=0, tables=[np.array(1.0)]),
        "fock_dim must be >= 2, got 1",
    ),
    "characterization-2d-floors": (
        lambda: sec.SourceCharacterization(
            eps=(), p_vac0=np.full((2, 2), 0.9), p_vac1=np.full((2, 2), 0.9)
        ),
        r"p_vac0 must lie in \[0, 1\], got an array of shape \(2, 2\)",
    ),
    # Only the batch parameters take a 1-D array; every other number is one.
    "transfer-x-array": (
        lambda: sec.transfer_bound(PAIR, 0.5),
        r"probability bound must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "transfer-y-array": (
        lambda: sec.transfer_bound(0.1, PAIR),
        r"overlap bound must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "tail-p-array": (
        lambda: sec.binomial_tail(8, 2, PAIR),
        r"success probability must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "phase-error-minus-act-array": (
        lambda: sec.phase_error_upper(8, np.array([0.1, 0.2]), 0.5),
        r"minus_act must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "phase-error-q-array": (
        lambda: sec.phase_error_upper(8, 0.1, PAIR),
        r"detection rate must lie in \(0, 1\], got an array of shape \(2,\)",
    ),
    "config-e-bit-array": (
        lambda: sec.ProtocolConfig(8, 0, PAIR),
        r"bit error rate must lie in \[0, 0.5\], got an array of shape \(2,\)",
    ),
    "config-f-ec-fixed-array": (
        lambda: sec.ProtocolConfig(8, 0, 0.03, f_ec_fixed=PAIR),
        r"f_ec_fixed must be a finite number >= 0, got an array of shape \(2,\)",
    ),
    "model-delta-array": (
        lambda: src.PhaseRotationModel(mu=0.1, delta=PAIR, corr_len=1),
        r"delta must be finite, got an array of shape \(2,\)",
    ),
    "detection-eta-array": (
        lambda: src.detection_rate(32, PAIR, 0.1),
        r"transmittance must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "simulation-q-array": (
        lambda: sim.run_simulation(CFG, SOURCE, PAIR, 10, 1),
        r"q_success must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "records-q-array": (
        lambda: next(sim.iter_block_records(CFG, PAIR, 10, 1)),
        r"q_success must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "entropy-array": (
        lambda: sec.binary_entropy(PAIR),
        r"entropy argument must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "vacuum-b-array": (
        lambda: sec.vacuum_fidelity_bound(0.5, PAIR),
        r"p_vac_b must lie in \[0, 1\], got an array of shape \(2,\)",
    ),
    "model-mu-batch-entry": (
        lambda: src.PhaseRotationModel(mu=np.array([0.1, -1.0]), delta=0.2, corr_len=1),
        r"mu must be a finite number >= 0, got -1.0",
    ),
    "model-mu-bool-array": (
        lambda: src.PhaseRotationModel(mu=np.array([True, False]), delta=0.2, corr_len=1),
        r"mu must be a finite number >= 0, got True",
    ),
    "characterization-eps-batch-entry": (
        lambda: sec.SourceCharacterization(
            eps=(np.array([0.1, 1.5]),), p_vac0=np.full(2, 0.9), p_vac1=np.full(2, 0.9)
        ),
        r"eps at lag 1 must lie in \[0, 1\], got 1.5",
    ),
    "characterization-p-vac0-nan-entry": (
        lambda: sec.SourceCharacterization(
            eps=(), p_vac0=np.array([0.9, np.nan]), p_vac1=np.full(2, 0.9)
        ),
        r"p_vac0 must lie in \[0, 1\], got nan",
    ),
    "key-rate-q-batch-entry": (
        lambda: sec.key_rate(CFG, BATCH, [np.array([0.1, 0.2, 2.0])] * 2),
        r"detection rate must lie in \[0, 1\], got 2.0",
    ),
    "campaign-eps-scale-array": (
        lambda: orc.run_family_campaign(2, 1, eps_scale=PAIR),
        r"eps_scale must be a finite number >= 0, got an array of shape \(2,\)",
    ),
}


@pytest.mark.parametrize("call, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_named(call, message):
    with pytest.raises(ValueError, match=message):
        call()
