"""SLO-aware serving: latency estimation for admission control.

Built on Olympian's predictability — the capability the paper's
introduction argues unpredictable GPU sharing forecloses.  The
estimate is consumed by :class:`~repro.serving.admission.AdmissionGate`
(pass a :class:`FairShareEstimator` as its ``estimator``), the repo's
one admission check.
"""

from .estimator import FairShareEstimator

__all__ = ["FairShareEstimator"]
