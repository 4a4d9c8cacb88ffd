"""Unit tests for DP primitives (Laplace, SVT, parameter validation)."""

import math

import numpy as np
import pytest

from repro.dp import (
    above_threshold,
    laplace_confidence_radius,
    laplace_mechanism,
    laplace_noise,
    run_flex_dp,
    run_privsql,
    run_tsens_dp,
)
from repro.engine import Database, Relation
from repro.query import parse_query
from repro.exceptions import MechanismConfigError


class TestLaplace:
    def test_deterministic_under_seed(self):
        a = laplace_mechanism(10.0, 2.0, 1.0, np.random.default_rng(5))
        b = laplace_mechanism(10.0, 2.0, 1.0, np.random.default_rng(5))
        assert a == b

    def test_zero_sensitivity_returns_exact(self):
        rng = np.random.default_rng(0)
        assert laplace_mechanism(42, 0.0, 1.0, rng) == 42.0

    def test_scale_controls_spread(self):
        rng = np.random.default_rng(1)
        tight = np.std([laplace_noise(1.0, rng) for _ in range(4000)])
        loose = np.std([laplace_noise(10.0, rng) for _ in range(4000)])
        assert loose > 5 * tight

    def test_noise_mean_near_zero(self):
        rng = np.random.default_rng(2)
        draws = [laplace_noise(1.0, rng) for _ in range(8000)]
        assert abs(np.mean(draws)) < 0.1

    def test_invalid_epsilon(self):
        with pytest.raises(MechanismConfigError):
            laplace_mechanism(1.0, 1.0, 0.0, np.random.default_rng(0))

    def test_negative_sensitivity(self):
        with pytest.raises(MechanismConfigError):
            laplace_mechanism(1.0, -1.0, 1.0, np.random.default_rng(0))


class TestConfidenceRadius:
    def test_radius_grows_with_confidence(self):
        assert laplace_confidence_radius(1.0, 0.99) > laplace_confidence_radius(
            1.0, 0.5
        )

    def test_radius_scales_linearly(self):
        assert laplace_confidence_radius(2.0, 0.9) == pytest.approx(
            2 * laplace_confidence_radius(1.0, 0.9)
        )

    def test_empirical_coverage(self):
        rng = np.random.default_rng(3)
        radius = laplace_confidence_radius(1.0, 0.95)
        draws = np.abs([laplace_noise(1.0, rng) for _ in range(8000)])
        coverage = np.mean(draws <= radius)
        assert 0.93 < coverage < 0.97

    def test_invalid_confidence(self):
        with pytest.raises(MechanismConfigError):
            laplace_confidence_radius(1.0, 1.5)


class TestAboveThreshold:
    def test_finds_obvious_crossing(self):
        rng = np.random.default_rng(4)
        # Huge budget => negligible noise: first value above 0 is index 3.
        values = [-100.0, -100.0, -100.0, 100.0, 100.0]
        assert above_threshold(values, 0.0, epsilon=1000.0, rng=rng) == 3

    def test_returns_none_when_all_below(self):
        rng = np.random.default_rng(5)
        values = [-100.0] * 5
        assert above_threshold(values, 0.0, epsilon=1000.0, rng=rng) is None

    def test_consumes_lazily(self):
        rng = np.random.default_rng(6)
        seen = []

        def stream():
            for i, v in enumerate([-100.0, 100.0, 100.0]):
                seen.append(i)
                yield v

        index = above_threshold(stream(), 0.0, epsilon=1000.0, rng=rng)
        assert index == 1
        assert seen == [0, 1]  # never touched the third query

    def test_sensitivity_scales_noise(self):
        # With a tiny budget and huge sensitivity, decisions become noisy:
        # over many trials the reported index should vary.
        outcomes = set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            outcomes.add(
                above_threshold(
                    [0.0] * 10, 0.0, epsilon=0.05, rng=rng, sensitivity=10.0
                )
            )
        assert len(outcomes) > 3

    def test_invalid_epsilon(self):
        with pytest.raises(MechanismConfigError):
            above_threshold([1.0], 0.0, epsilon=-1.0, rng=np.random.default_rng(0))


class TestParameterValidationAsValueError:
    """Mechanism parameter validation doubles as plain ValueError (so
    callers outside the library can catch it without importing repro)."""

    def test_mechanism_config_error_is_value_error(self):
        assert issubclass(MechanismConfigError, ValueError)

    def test_zero_scale_raises_value_error(self):
        with pytest.raises(ValueError):
            laplace_noise(0.0, np.random.default_rng(0))

    def test_negative_scale_raises_value_error(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0, np.random.default_rng(0))

    def test_zero_epsilon_raises_value_error(self):
        with pytest.raises(ValueError):
            laplace_mechanism(1.0, 1.0, 0.0, np.random.default_rng(0))

    def test_negative_epsilon_above_threshold(self):
        with pytest.raises(ValueError):
            above_threshold(
                iter([1.0]), threshold=0.0, epsilon=-1.0,
                rng=np.random.default_rng(0),
            )

    def test_zero_scale_confidence_radius(self):
        with pytest.raises(ValueError):
            laplace_confidence_radius(0.0, 0.9)


_RUNNERS = {
    # mechanism: (runner, its good parameters, its own bad parameter)
    "tsensdp": (run_tsens_dp, {"ell": 10}, {"ell": 10.0}),
    "flexdp": (run_flex_dp, {}, {"delta": "0.1"}),
    "privsql": (run_privsql, {}, {"max_threshold": 0}),
}
_BAD_EPSILONS = {"inf": math.inf, "nan": math.nan, "str": "1", "bool": True, "zero": 0}


@pytest.mark.parametrize("bad", [*_BAD_EPSILONS, "own"])
@pytest.mark.parametrize("mechanism", sorted(_RUNNERS))
def test_runner_validates_like_release(mechanism, bad):
    """Each one-shot runner rejects what ``PreparedQuery.release``
    rejects: an epsilon that is not a finite real > 0, and its own bad
    parameter."""
    run, good, own = _RUNNERS[mechanism]
    query = parse_query("R(A,B), S(B,C)")
    db = Database(
        {
            "R": Relation(["A", "B"], [(1, 2), (3, 2)]),
            "S": Relation(["B", "C"], [(2, 4)]),
        }
    )
    epsilon = _BAD_EPSILONS.get(bad, 1.0)
    params = {**good, **(own if bad == "own" else {})}
    with pytest.raises(MechanismConfigError):
        run(query, db, "R", epsilon, rng=np.random.default_rng(0), **params)
