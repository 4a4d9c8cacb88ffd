"""Differential-privacy primitives: Laplace mechanism and sparse vector.

These are the two building blocks Sec. 6 composes:

* :func:`laplace_mechanism` — Definition 6.3, ``Q(D) + Lap(GS/ε)``;
* :func:`above_threshold` — the SVT variant used to learn the truncation
  threshold: scan a sequence of sensitivity-1 queries and stop at the first
  one whose noisy value exceeds a noisy threshold (Lyu–Su–Li, Alg. 1).

All randomness flows through an injected :class:`numpy.random.Generator`
so mechanisms are reproducible under a fixed seed; *privacy* of course
holds with respect to fresh randomness.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MechanismConfigError


def _is_count(value: object) -> bool:
    """An integer ``>= 1``: a ``bool`` is an ``int`` but never a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _is_real(value: object) -> bool:
    """A real number: a ``bool`` is an ``int`` but never a privacy parameter."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def validate_release(
    mechanism: str,
    epsilon: object,
    ell: object = None,
    delta: object = None,
    max_threshold: object = None,
) -> None:
    """Reject a bad parameter of a ``mechanism`` release with
    :class:`MechanismConfigError`.  ``PreparedQuery.release`` calls this
    before it spends any budget, and each one-shot runner first."""
    if not (_is_real(epsilon) and math.isfinite(epsilon) and epsilon > 0):
        raise MechanismConfigError(f"epsilon must be a finite real > 0, got {epsilon!r}")
    if mechanism == "tsensdp" and ell is None:
        raise MechanismConfigError("mechanism='tsensdp' needs ell=<public sensitivity bound>")
    if mechanism == "tsensdp" and not _is_count(ell):
        raise MechanismConfigError(f"ell must be an integer >= 1, got {ell!r}")
    if mechanism == "privsql" and not _is_count(max_threshold):
        raise MechanismConfigError(
            f"max_threshold must be an integer >= 1, got {max_threshold!r}"
        )
    if mechanism == "flexdp" and not (_is_real(delta) and 0 < delta < 1):
        raise MechanismConfigError(f"delta must be a real in (0, 1), got {delta!r}")


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise MechanismConfigError(f"{name} must be positive, got {value}")


def laplace_noise(scale: float, rng: np.random.Generator) -> float:
    """One draw of ``Lap(scale)`` (mean 0, variance ``2·scale²``)."""
    _require_positive("scale", scale)
    return float(rng.laplace(loc=0.0, scale=scale))


def laplace_mechanism(
    value: float,
    sensitivity: float,
    epsilon: float,
    rng: np.random.Generator,
) -> float:
    """``value + Lap(sensitivity/epsilon)`` — ε-DP for a query whose global
    sensitivity is at most ``sensitivity`` (Definition 6.3)."""
    _require_positive("epsilon", epsilon)
    if sensitivity < 0:
        raise MechanismConfigError(f"sensitivity must be non-negative, got {sensitivity}")
    if sensitivity == 0:
        return float(value)
    return float(value) + laplace_noise(sensitivity / epsilon, rng)


def above_threshold(
    values: Iterable[float],
    threshold: float,
    epsilon: float,
    rng: np.random.Generator,
    sensitivity: float = 1.0,
) -> Optional[int]:
    """AboveThreshold SVT: index of the first noisy value above the noisy
    threshold, or ``None`` if the stream is exhausted.

    Satisfies ε-DP for any (adaptively chosen) sequence of queries each of
    global sensitivity ``sensitivity``.  Noise scales are the standard
    ``2Δ/ε`` on the threshold and ``4Δ/ε`` on each query.

    Parameters
    ----------
    values:
        The query answers ``q_i(D)``, streamed lazily.
    threshold:
        The public threshold ``T``.
    epsilon:
        Total privacy budget of the scan.
    sensitivity:
        Global sensitivity ``Δ`` of each query (1 for TSensDP's rescaled
        threshold queries, Theorem 6.1).
    """
    _require_positive("epsilon", epsilon)
    _require_positive("sensitivity", sensitivity)
    noisy_threshold = threshold + laplace_noise(2.0 * sensitivity / epsilon, rng)
    for index, value in enumerate(values):
        noisy_value = value + laplace_noise(4.0 * sensitivity / epsilon, rng)
        if noisy_value >= noisy_threshold:
            return index
    return None


def laplace_confidence_radius(
    scale: float, confidence: float = 0.95
) -> float:
    """Radius ``r`` with ``P(|Lap(scale)| <= r) = confidence``.

    Convenience for experiment reporting (expected-error envelopes).
    """
    _require_positive("scale", scale)
    if not 0 < confidence < 1:
        raise MechanismConfigError(f"confidence must be in (0,1), got {confidence}")
    return float(-scale * np.log(1.0 - confidence))
