"""Counterfactual what-if engine: re-timing accuracy, bounds, records."""

import json
from dataclasses import replace

import numpy as np
import pytest

import whatif_oracle

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Observation
from repro.obs.regress import Benchmark, compare, make_record
from repro.obs.requests import RequestLog
from repro.obs.schema import validate_def
from repro.obs.whatif import (
    KNOBS,
    percentile,
    predict,
    whatif_record,
    within_bounds,
)
from repro.serving.cluster import ClusterConfig, ClusterSim
from repro.serving.faults import ClusterFaultPlan, NodeCrash, NodeSlow
from repro.serving.router import HedgePolicy
from repro.serving.workload import poisson_arrivals

SCHEMA = json.loads(open("tools/trace_schema.json").read())

N_REQUESTS = 1200
INTERARRIVAL = 0.9
HORIZON = N_REQUESTS * INTERARRIVAL


def _arrivals():
    rng = SimConfig(seed=7).rng("whatif:arr")
    return poisson_arrivals(INTERARRIVAL, N_REQUESTS, rng)


def _noisy_config():
    """The slow-node scenario: hedges fire, no crash, replication 2."""
    return ClusterConfig(
        num_nodes=4, cores_per_node=4, mean_service_ms=2.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.1, call_timeout_ms=50.0,
        deadline_ms=100.0, placement="striped", routing="least_loaded",
        hedge=HedgePolicy(quantile=95.0, min_ms=12.0, window=128),
        faults=ClusterFaultPlan(
            [NodeSlow(0, 0.13 * HORIZON, 0.40 * HORIZON, factor=6.0)],
            seed=78,
        ),
        seed=78, label="t:whatif:noisy",
    )


def _kill_config():
    """The node-kill scenario: replication 1, failovers and misses."""
    return ClusterConfig(
        num_nodes=4, cores_per_node=4, mean_service_ms=2.0, num_shards=8,
        replication=1, gather_width=2, hop_ms=0.1, call_timeout_ms=25.0,
        deadline_ms=100.0, placement="striped", routing="least_loaded",
        faults=ClusterFaultPlan(
            [NodeCrash(1, 0.11 * HORIZON, 0.27 * HORIZON)], seed=77
        ),
        seed=77, label="t:whatif:kill",
    )


def _observed_records(config):
    obs = Observation(requests=RequestLog())
    with obs_hooks.session(obs):
        ClusterSim(config).run(_arrivals())
    return obs.requests.runs[-1].records


def _rerun_p99(config):
    result = ClusterSim(config).run(_arrivals())
    lat = result.request_latency_ms
    return float(np.percentile(lat[np.isfinite(lat)], 99.0))


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(2.0, size=257).tolist()
        for q in (50.0, 90.0, 99.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_degenerate_inputs(self):
        assert percentile([], 99.0) == 0.0
        assert percentile([4.2], 99.0) == 4.2

    def test_formula_is_pinned(self):
        """``xs[lo] * (1 - frac) + xs[hi] * frac``, bit for bit: the pinned
        critical-path observatory reports depend on it.  numpy's lerp is
        a different formula, which differs in the last bits on some
        inputs."""
        rng = np.random.default_rng(11)
        differs = 0
        for n in range(2, 97):
            values = rng.exponential(5.0, size=n).tolist()
            xs = sorted(values)
            for k in range(1, 81):
                q = 1.25 * k
                pos = (q / 100.0) * (n - 1)
                lo = int(pos)
                hi = min(lo + 1, n - 1)
                frac = pos - lo
                want = xs[lo] * (1.0 - frac) + xs[hi] * frac
                got = percentile(values, q)
                assert got.hex() == want.hex(), (n, q)
                differs += got != float(np.percentile(values, q))
        assert differs > 0


class TestBounds:
    def test_exact_match_is_in_bounds(self):
        assert within_bounds("t", 10.0, 10.0)

    def test_large_miss_is_out_of_bounds(self):
        assert not within_bounds("t", 10.0, 14.0, rel_threshold=0.25)
        assert not within_bounds("t", 14.0, 10.0, rel_threshold=0.25)

    def test_noise_floor_absorbs_small_absolute_misses(self):
        assert not within_bounds("t", 1.0, 1.5, rel_threshold=0.25)
        assert within_bounds(
            "t", 1.0, 1.5, rel_threshold=0.25, noise_floor=0.6
        )

    @pytest.mark.parametrize(
        "actual, predicted, rel, floor",
        [
            (0.0, 0.0, 0.25, 0.0),
            (0.0, 1.0, 0.25, 0.0),
            (1.0, 0.0, 0.25, 0.0),
            (0.0, 1.0, 0.25, 1.0),  # a miss exactly at the noise floor
            (1.0, 0.0, 0.25, 1.0),
            (10.0, 12.5, 0.25, 0.0),  # a miss exactly at rel_threshold
            (12.5, 10.0, 0.2, 0.0),
            (10.0, 12.5, 0.25, 2.5),
            (10.0, 12.5000001, 0.25, 2.5),
            (10.0, 12.5000001, 0.25, 2.4999999),
            (-2.0, -1.0, 0.25, 0.0),
            (-1.0, -2.0, 0.25, 0.0),
            (3.0, 3.0, 1e-9, 0.0),
            (float("nan"), 1.0, 0.25, 0.0),
            (1.0, float("inf"), 0.25, 0.0),
        ],
    )
    def test_matches_regress_compare_both_ways(self, actual, predicted, rel, floor):
        def record(value):
            return make_record(
                mode="whatif", repeats=1, timestamp="-",
                benchmarks=[Benchmark(
                    "t", value, "ms", direction="lower", noise_floor=floor
                )],
            )

        base, cand = record(actual), record(predicted)
        want = not compare(base, cand, rel) and not compare(cand, base, rel)
        assert within_bounds("t", actual, predicted, rel, floor) is want

    def test_rejects_what_regress_rejects(self):
        with pytest.raises(ConfigError):
            within_bounds("t", 1.0, 1.0, rel_threshold=0.0)
        with pytest.raises(ConfigError):
            within_bounds("t", 1.0, 1.0, noise_floor=-1.0)


#: Knob values around each scenario's logged setting (hedge floor 12 ms,
#: replication 1 or 2, gather width 2, 4 cores per node).
ORACLE_VALUES = {
    "hedge_min_ms": (2.0, 6.0, 20.0),
    "replication_delta": (1, 2),
    "gather_width": (1, 3),
    "extra_cores": (2,),
    "cat_partition": (0,),
}


@pytest.mark.parametrize("scenario", [_noisy_config, _kill_config])
def test_predict_matches_record_walking_oracle(scenario):
    """Every knob re-timed from the call table's columns matches the
    per-record slot walk bit for bit, re-timed latencies included."""
    config = scenario()
    records = list(_observed_records(config))
    for knob, values in ORACLE_VALUES.items():
        for value in values:
            assert predict(records, config, knob, value) == whatif_oracle.predict(
                records, config, knob, value
            ), (knob, value)


class TestPredict:
    def test_unknown_knob_raises(self):
        with pytest.raises(ValueError, match="unknown what-if knob"):
            predict([], _noisy_config(), "magic", 1.0)
        assert "hedge_min_ms" in KNOBS

    def test_baseline_is_logged_p99(self):
        config = _noisy_config()
        records = _observed_records(config)
        pred = predict(records, config, "hedge_min_ms", 6.0)
        logged = [
            r["latency_ms"] for r in records if r["latency_ms"] is not None
        ]
        assert pred.baseline == pytest.approx(
            float(np.percentile(logged, 99.0))
        )
        assert pred.metric == "p99_ms"
        assert pred.requests == len(logged)

    def test_hedge_floor_prediction_matches_rerun(self):
        config = _noisy_config()
        pred = predict(
            _observed_records(config), config, "hedge_min_ms", 6.0
        )
        actual = _rerun_p99(
            replace(config, hedge=replace(config.hedge, min_ms=6.0))
        )
        assert within_bounds(
            "hedge", actual, pred.predicted,
            rel_threshold=0.25, noise_floor=0.15 * actual,
        )

    def test_replication_delta_prediction_matches_rerun(self):
        config = _kill_config()
        pred = predict(
            _observed_records(config), config, "replication_delta", 1.0
        )
        actual = _rerun_p99(replace(config, replication=2))
        assert within_bounds(
            "repl", actual, pred.predicted,
            rel_threshold=0.25, noise_floor=0.15 * actual,
        )

    def test_gather_width_prediction_matches_rerun(self):
        config = _kill_config()
        pred = predict(
            _observed_records(config), config, "gather_width", 1.0
        )
        actual = _rerun_p99(replace(config, gather_width=1))
        assert within_bounds(
            "gather", actual, pred.predicted,
            rel_threshold=0.25, noise_floor=0.15 * actual,
        )

    def test_extra_cores_is_estimate_only_and_helps(self):
        config = _noisy_config()
        pred = predict(
            _observed_records(config), config, "extra_cores", 4.0
        )
        assert pred.estimated  # never gated: queue-scaling heuristic
        assert pred.predicted <= pred.baseline

    def test_prediction_is_deterministic(self):
        config = _noisy_config()
        records = _observed_records(config)
        a = predict(records, config, "hedge_min_ms", 6.0)
        b = predict(records, config, "hedge_min_ms", 6.0)
        assert a.predicted == b.predicted
        assert a.latencies_ms == b.latencies_ms


class TestRecords:
    def test_whatif_record_is_schema_valid(self):
        config = _noisy_config()
        pred = predict(
            _observed_records(config), config, "hedge_min_ms", 6.0
        )
        rec = whatif_record(
            pred, scenario="noisy", actual=pred.predicted, in_bounds=True
        )
        assert validate_def(rec, SCHEMA, "whatif_record") == []

    def test_record_allows_unvalidated_predictions(self):
        config = _noisy_config()
        pred = predict(
            _observed_records(config), config, "extra_cores", 4.0
        )
        rec = whatif_record(pred, scenario="noisy")
        assert rec["actual"] is None
        assert rec["within_bounds"] is None
        assert validate_def(rec, SCHEMA, "whatif_record") == []
