"""Security analysis for delayed-interference QKD with correlated sources.

The package computes asymptotic key rates for the interleaved-group
protocol from a small set of source quality numbers (per-lag fidelity
deficits and vacuum floors), provides a coherent phase-rotation source
model that produces those numbers, verifies the underlying operator
inequalities exactly on small systems, and simulates protocol sessions
against the analytic predictions.
"""

__version__ = "0.1.0"

from .security import ProtocolConfig, SecurityBounds, key_rate
from .simulate import simulate_coherent
from .sources import PhaseRotationModel, characterize, detection_rate, optimize_mu

# The Python API that the README documents; everything else is reached
# through its module (``rrdps.oracle``, ``rrdps.security``, ...).
__all__ = [
    "__version__",
    "PhaseRotationModel",
    "ProtocolConfig",
    "SecurityBounds",
    "characterize",
    "detection_rate",
    "key_rate",
    "optimize_mu",
    "simulate_coherent",
]
