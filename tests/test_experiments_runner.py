"""CLI runner tests."""

import json
import time

import pytest

from repro.experiments import registry
from repro.experiments.base import ExperimentReport
from repro.experiments.runner import (
    CACHE_DIR,
    _load_cache_entry,
    _write_cache_entry,
    build_parser,
    main,
)


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig12" in out
    assert "table4" in out


def test_run_static_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "RMC2" in out
    assert "finished in" in out


def test_out_directory_written(tmp_path, capsys):
    assert main(["table2", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "table2.txt").read_text()
    assert "rm2_1" in report


def test_overrides_forwarded(capsys):
    # fig5 accepts scale/batch_size/num_batches; tiny values keep it fast.
    assert main(["fig5", "--scale", "0.01", "--batch-size", "8",
                 "--num-batches", "1"]) == 0
    out = capsys.readouterr().out
    assert "unique_fraction" in out


def test_seed_flag(capsys):
    assert main(["table1", "--seed", "5"]) == 0


def test_unknown_experiment_raises():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        main(["fig99"])


def test_parser_flags_exist():
    parser = build_parser()
    args = parser.parse_args(["fig4", "--scale", "0.5", "--num-cores", "8"])
    assert args.experiment == "fig4"
    assert args.scale == 0.5
    assert args.num_cores == 8


def test_irrelevant_overrides_not_forwarded(capsys):
    # table1's runner takes no scale; passing one must not crash.
    assert main(["table1", "--scale", "0.5"]) == 0


def test_new_parser_flags():
    args = build_parser().parse_args(
        ["fig4", "--timeout", "30", "--retries", "2", "--num-requests", "500"]
    )
    assert args.timeout == 30.0
    assert args.retries == 2
    assert args.num_requests == 500


def test_engine_and_mode_flags():
    args = build_parser().parse_args(["fig12", "--mode", "analytic"])
    assert args.model_mode == "analytic"


class TestResultCache:
    def test_write_is_atomic_and_readable(self, tmp_path):
        path = tmp_path / "entry.json"
        _write_cache_entry(path, "table1", 1.5, {"experiment_id": "table1"})
        # No temp droppings left behind.
        assert list(tmp_path.iterdir()) == [path]
        elapsed, report = _load_cache_entry(path)
        assert elapsed == 1.5
        assert report == {"experiment_id": "table1"}

    @pytest.mark.parametrize(
        "payload",
        [
            "",  # truncated
            "{not json",  # garbage
            '{"elapsed": 1.0}',  # missing report
            '{"report": "not-a-dict"}',  # wrong type
        ],
    )
    def test_corrupt_entry_is_miss_and_removed(self, tmp_path, payload):
        path = tmp_path / "entry.json"
        path.write_text(payload)
        assert _load_cache_entry(path) is None
        assert not path.exists()

    def test_corrupt_cache_regenerated_end_to_end(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--cache"]) == 0
        entries = list((tmp_path / CACHE_DIR).glob("*.json"))
        assert len(entries) == 1
        # A cached re-run serves the memo.
        assert main(["table1", "--cache"]) == 0
        assert "[table1 cached]" in capsys.readouterr().out
        # Corrupt the entry: the next run treats it as a miss and rebuilds.
        entries[0].write_text("{truncated")
        assert main(["table1", "--cache"]) == 0
        out = capsys.readouterr().out
        assert "cached" not in out
        rebuilt = list((tmp_path / CACHE_DIR).glob("*.json"))
        assert len(rebuilt) == 1
        assert isinstance(json.loads(rebuilt[0].read_text())["report"], dict)

    def test_key_distinguishes_engine_and_mode(self):
        # Mode switches must never serve each other's memos: the key
        # hashes every SimConfig field, so each mode is its own cache slot.
        from repro.config import SimConfig
        from repro.experiments.runner import _cache_key

        keys = {
            _cache_key("fig12", SimConfig(mode=mode), {})
            for mode in ("sim", "analytic")
        }
        assert len(keys) == 2
        # Overrides (the forwarded batching knobs) are part of the key too.
        base = _cache_key("fig12", SimConfig(), {})
        assert _cache_key("fig12", SimConfig(), {"batch_size": 8}) != base


_RESILIENCE_SMALL = [
    "resilience", "--scale", "0.01", "--num-requests", "150",
    "--batch-size", "8", "--num-batches", "1", "--num-cores", "4",
]


class TestRequestLogFlag:
    def test_request_log_written_and_nonempty(self, tmp_path, capsys):
        log = tmp_path / "req.jsonl"
        assert main(_RESILIENCE_SMALL + ["--request-log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "[request-log:" in out
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines[0]["kind"] == "request_log_meta"
        assert lines[0]["requests"] == len(lines) - 1 > 0
        labels = {rec["label"] for rec in lines[1:]}
        assert "none:static" in labels  # scenario:mode labels from resilience

    def test_request_logged_run_bypasses_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        """ISSUE acceptance: a cached result is never served with a stale
        or empty request log."""
        monkeypatch.chdir(tmp_path)
        assert main(_RESILIENCE_SMALL + ["--cache"]) == 0
        assert list((tmp_path / CACHE_DIR).glob("*.json"))
        capsys.readouterr()
        log = tmp_path / "req.jsonl"
        assert main(
            _RESILIENCE_SMALL + ["--cache", "--request-log", str(log)]
        ) == 0
        out = capsys.readouterr().out
        assert "cached" not in out  # ran fresh despite a warm cache
        assert json.loads(log.read_text().splitlines()[0])["requests"] > 0

    def test_request_log_deterministic_across_jobs(self, tmp_path, capsys):
        """Same seed + fault plan => byte-identical export at any --jobs."""
        exports = []
        for jobs in ("1", "3"):
            log = tmp_path / f"req{jobs}.jsonl"
            assert main(
                _RESILIENCE_SMALL
                + ["--jobs", jobs, "--request-log", str(log)]
            ) == 0
            exports.append(log.read_bytes())
        assert exports[0] == exports[1]


def test_bench_record_flag_appends_wall_records(tmp_path, capsys):
    from repro.obs.regress import load_history

    history = tmp_path / "hist.jsonl"
    assert main(["table1", "--bench-record", str(history)]) == 0
    assert "[bench-record: 1 experiment(s)" in capsys.readouterr().out
    records = load_history(history)
    assert len(records) == 1
    bench = records[0]["benchmarks"]["experiment.table1.wall_s"]
    assert bench["kind"] == "wall"
    assert bench["direction"] == "lower"
    assert bench["value"] >= 0.0


def _flaky_factory(fail_times):
    calls = {"n": 0}

    def run(config=None, **overrides):
        calls["n"] += 1
        if calls["n"] <= fail_times:
            raise RuntimeError(f"transient failure {calls['n']}")
        return ExperimentReport(experiment_id="flaky", title="flaky test stub")

    return run, calls


class TestRetriesAndTimeout:
    def test_retries_recover_transient_failure(self, monkeypatch, capsys):
        run, calls = _flaky_factory(fail_times=1)
        monkeypatch.setitem(registry._REGISTRY, "flaky", run)
        assert main(["flaky", "--retries", "2"]) == 0
        assert calls["n"] == 2
        assert "retrying 1 failed experiment(s)" in capsys.readouterr().err

    def test_retries_exhausted_reports_failure(self, monkeypatch, capsys):
        run, calls = _flaky_factory(fail_times=10)
        monkeypatch.setitem(registry._REGISTRY, "flaky", run)
        assert main(["flaky", "--retries", "1"]) == 1
        assert calls["n"] == 2
        assert "RuntimeError" in capsys.readouterr().err

    def test_single_target_without_retries_raises_inline(self, monkeypatch):
        run, _ = _flaky_factory(fail_times=10)
        monkeypatch.setitem(registry._REGISTRY, "flaky", run)
        with pytest.raises(RuntimeError):
            main(["flaky"])

    def test_timeout_abandons_stuck_experiment(self, monkeypatch, capsys):
        def stuck(config=None, **overrides):
            time.sleep(60.0)
            return ExperimentReport(experiment_id="stuck", title="never")

        monkeypatch.setitem(registry._REGISTRY, "stuck", stuck)
        start = time.time()
        # The fork pool inherits the monkeypatched registry.
        assert main(["stuck", "--timeout", "1"]) == 1
        assert time.time() - start < 30.0
        assert "exceeded --timeout" in capsys.readouterr().err
