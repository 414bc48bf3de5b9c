"""Command-line entry point: ``repro-experiment <id> [options]``.

Examples::

    repro-experiment table2
    repro-experiment fig12 --scale 0.03
    repro-experiment fig4,fig5 --mode analytic
    repro-experiment all --out results/ --jobs 4

Multi-target runs (``all`` or a comma-separated id list) keep going past
failing experiments and report them at the end (nonzero exit code); they
also memoize finished reports under ``results/.cache/`` keyed by
(experiment id, config, overrides, package version), so re-runs skip
unchanged work.  Memo writes are atomic (temp file + rename) and corrupt
or truncated entries are treated as misses, so an interrupted run can
never poison later ones.  ``--jobs N`` fans independent experiments out
across processes; ``--timeout S`` bounds each experiment's wall clock and
``--retries N`` re-runs transient failures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..config import SimConfig
from ..obs import Observation
from ..obs import hooks as obs_hooks
from ..obs.cpi import collect_cpi_stacks, format_cpi_table
from .base import format_report, report_from_dict, report_to_dict
from .registry import EXPERIMENT_IDS, get_experiment, list_experiments, run_experiment

__all__ = ["main"]

#: Numeric override flags forwarded to experiment runners when accepted.
_FORWARDED_FLOATS = ("scale",)
_FORWARDED_INTS = (
    "batch_size",
    "num_batches",
    "num_cores",
    "detailed_cores",
    "num_requests",
    "num_nodes",
    "replication",
)

#: Default location of the on-disk result cache (relative to the cwd).
CACHE_DIR = Path("results") / ".cache"


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate a table/figure of the ISCA'23 paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment id (fig1, fig4, ... table4), a comma-separated "
        "list of ids, 'all', or 'list'",
    )
    parser.add_argument(
        "--experiment",
        dest="experiment_flag",
        default=None,
        metavar="ID",
        help="alias for the positional experiment argument",
    )
    parser.add_argument("--seed", type=int, default=None, help="simulation seed")
    parser.add_argument("--scale", type=float, default=None, help="model shrink factor")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--num-batches", type=int, default=None)
    parser.add_argument("--num-cores", type=int, default=None)
    parser.add_argument("--detailed-cores", type=int, default=None)
    parser.add_argument("--num-requests", type=int, default=None)
    parser.add_argument(
        "--num-nodes", type=int, default=None,
        help="cluster size for fleet-level experiments",
    )
    parser.add_argument(
        "--replication", type=int, default=None,
        help="shard replication factor for fleet-level experiments",
    )
    parser.add_argument(
        "--mode", dest="model_mode", choices=("sim", "analytic"), default=None,
        help="hit-rate modeling mode for analytic paths: 'sim' replays a "
        "synthesized trace through the stack-distance counter (default), "
        "'analytic' uses the closed-form Che model (no trace synthesis)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N experiments in parallel processes (multi-target runs)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="memoize reports under results/.cache/ (default for multi-target runs)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even for multi-target runs",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock budget; experiments exceeding it are "
        "reported as failures (runs in worker processes; ignored for "
        "observed runs, which must stay in-process)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run failed experiments up to N more times (transient-"
        "failure hardening for long multi-target runs)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory to write reports into"
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="also render an ASCII bar chart of the report",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="write a Chrome-trace JSON (chrome://tracing) of the run; "
        "forces serial in-process execution and bypasses the result cache",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, metavar="FILE",
        help="write the metrics registry as JSONL (one metric per line)",
    )
    parser.add_argument(
        "--cpi-stack", action="store_true",
        help="print the per-stage CPI stack table after the reports",
    )
    parser.add_argument(
        "--request-log", type=Path, default=None, metavar="FILE",
        help="write per-request serving lifecycles as JSONL (arrival, "
        "queueing, retries, faults, outcome + cause); like --trace this "
        "forces serial in-process execution and bypasses the result cache",
    )
    parser.add_argument(
        "--slo-log", type=Path, default=None, metavar="FILE",
        help="write windowed SLO states and burn/detector alerts as JSONL "
        "(experiments that accept an slo_log parameter, e.g. "
        "slo_observatory); forces serial in-process execution and "
        "bypasses the result cache",
    )
    parser.add_argument(
        "--critpath-log", type=Path, default=None, metavar="FILE",
        help="write critical-path profiles and what-if validation records "
        "as JSONL (experiments that accept a critpath_log parameter, e.g. "
        "critpath_observatory); forces serial in-process execution and "
        "bypasses the result cache",
    )
    parser.add_argument(
        "--tenants", default=None, metavar="MIXES",
        help="comma-separated tenant mixes for experiments that accept a "
        "tenants parameter (noisy_neighbor: none,streaming,compute,"
        "locker,mix; default sweeps all)",
    )
    parser.add_argument(
        "--defense", default=None, metavar="MODES",
        help="comma-separated defense modes for experiments that accept a "
        "defense parameter (noisy_neighbor: static,partition,qos,"
        "qos_degraded; default sweeps all)",
    )
    parser.add_argument(
        "--bench-record", type=Path, default=None, metavar="FILE",
        help="append per-experiment wall-clock records to a benchmark "
        "history JSONL (see tools/bench_all.py for the pinned suite)",
    )
    return parser


def _overrides(args: argparse.Namespace, runner) -> dict:
    import inspect

    accepted = inspect.signature(runner).parameters
    out = {}
    for flag in _FORWARDED_FLOATS + _FORWARDED_INTS:
        value = getattr(args, flag, None)
        if value is not None and flag in accepted:
            out[flag] = value
    for log_flag in ("slo_log", "critpath_log"):
        value = getattr(args, log_flag, None)
        if value is not None and log_flag in accepted:
            out[log_flag] = str(value)
    for flag in ("tenants", "defense"):
        value = getattr(args, flag, None)
        if value is not None and flag in accepted:
            out[flag] = str(value)
    return out


def _cache_key(exp_id: str, config: SimConfig, overrides: dict) -> str:
    """Content hash identifying one (experiment, inputs, version) result."""
    from .. import __version__

    payload = json.dumps(
        {
            "id": exp_id,
            "config": dataclasses.asdict(config),
            "overrides": overrides,
            "version": __version__,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _load_cache_entry(path: Path) -> Optional[Tuple[float, dict]]:
    """Read one memo file; a corrupt or truncated entry is a miss.

    The bad file is removed (best-effort) so the fresh result can replace
    it; a concurrent writer racing the unlink is harmless because writes
    are atomic replaces.
    """
    try:
        entry = json.loads(path.read_text())
        report = entry["report"]
        if not isinstance(report, dict):
            raise ValueError("cache entry report is not a dict")
        return float(entry.get("elapsed", 0.0)), report
    except (OSError, ValueError, KeyError, TypeError):
        with contextlib.suppress(OSError):
            path.unlink()
        return None


def _write_cache_entry(path: Path, exp_id: str, elapsed: float, report: dict) -> None:
    """Atomically persist one memo (temp file + rename).

    A crash or timeout mid-write can therefore never leave a truncated
    entry behind, and concurrent ``--jobs`` writers cannot interleave.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(
        {"experiment_id": exp_id, "elapsed": elapsed, "report": report}
    )
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(payload + "\n")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()


def _run_one(task: Tuple[str, SimConfig, dict]) -> Tuple[str, float, Optional[dict], Optional[str]]:
    """Worker: run one experiment; never raises (errors become strings)."""
    exp_id, config, overrides = task
    start = time.time()
    try:
        report = run_experiment(exp_id, config=config, **overrides)
        return exp_id, time.time() - start, report_to_dict(report), None
    except Exception as exc:  # noqa: BLE001 - failures summarized by caller
        return exp_id, time.time() - start, None, f"{type(exc).__name__}: {exc}"


def _emit(
    args: argparse.Namespace,
    exp_id: str,
    report_dict: dict,
    elapsed: float,
    cached: bool,
) -> None:
    """Print one finished report and write its --out artifacts."""
    report = report_from_dict(report_dict)
    text = format_report(report)
    print(text)
    if args.plot:
        from .viz import render_report_plot

        print(render_report_plot(report))
    status = "cached" if cached else f"finished in {elapsed:.1f}s"
    print(f"[{exp_id} {status}]\n")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{exp_id}.txt").write_text(text + "\n")
        # No sort_keys: row-dict insertion order is the report's column
        # order, and must survive the JSON round-trip.
        (args.out / f"{exp_id}.json").write_text(
            json.dumps(report_dict, indent=2) + "\n"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment is not None and args.experiment_flag is not None:
        parser.error(
            "give the experiment either positionally or via --experiment, not both"
        )
    if args.experiment is None:
        args.experiment = args.experiment_flag
    if args.experiment is None:
        parser.error("an experiment id is required (positional or --experiment)")
    if args.experiment == "list":
        for exp_id, title in list_experiments().items():
            print(f"{exp_id:8s} {title}")
        return 0
    cfg_kwargs: Dict[str, object] = {}
    if args.seed is not None:
        cfg_kwargs["seed"] = args.seed
    if args.model_mode is not None:
        cfg_kwargs["mode"] = args.model_mode
    config = SimConfig(**cfg_kwargs)  # type: ignore[arg-type]
    if args.experiment == "all":
        targets = list(EXPERIMENT_IDS)
    else:
        targets = [t.strip() for t in args.experiment.split(",") if t.strip()]
    multi = args.experiment == "all" or len(targets) > 1
    # Telemetry lives in this process: observed runs bypass the result
    # cache (a cached report carries no spans/metrics) and run serially
    # in-process (a fork pool's telemetry would die with the workers).
    observing = (
        args.trace is not None
        or args.metrics is not None
        or args.cpi_stack
        or args.request_log is not None
        or args.slo_log is not None
        or args.critpath_log is not None
    )
    use_cache = (args.cache or multi) and not args.no_cache and not observing

    failures: List[Tuple[str, str]] = []
    # Resolve runners (and thus overrides) up front.  Unknown ids in a
    # multi-target run become failures; a single bad id raises, matching
    # the pre-batching behaviour.
    tasks: List[Tuple[str, SimConfig, dict]] = []
    for exp_id in targets:
        try:
            runner = get_experiment(exp_id)
        except Exception as exc:  # noqa: BLE001
            if not multi:
                raise
            failures.append((exp_id, f"{type(exc).__name__}: {exc}"))
            continue
        tasks.append((exp_id, config, _overrides(args, runner)))

    # Serve what the cache already has (corrupt entries count as misses).
    finished: Dict[str, Tuple[float, dict, bool]] = {}
    pending: List[Tuple[str, SimConfig, dict]] = []
    for task in tasks:
        exp_id = task[0]
        cache_path = CACHE_DIR / f"{_cache_key(exp_id, config, task[2])}.json"
        entry = (
            _load_cache_entry(cache_path)
            if use_cache and cache_path.exists()
            else None
        )
        if entry is not None:
            finished[exp_id] = (entry[0], entry[1], True)
        else:
            pending.append(task)

    if observing:
        from ..obs import RequestLog

        observation = Observation(
            requests=RequestLog() if args.request_log is not None else None
        )
    else:
        observation = None
    timeout = args.timeout if not observing else None
    if args.timeout is not None and observing:
        print("[--timeout ignored: observed runs stay in-process]", file=sys.stderr)

    def execute(batch: List[Tuple[str, SimConfig, dict]]) -> List[tuple]:
        """One execution round; failures become result tuples, not raises."""
        if not batch:
            return []
        jobs = max(1, min(args.jobs, len(batch)))
        if observing:
            jobs = 1
        if jobs > 1 or timeout is not None:
            # fork shares the loaded interpreter (cheap start) and keeps
            # SimConfig/overrides without pickling surprises; results are
            # plain JSON dicts either way.  Timeouts also route through
            # the pool so a stuck experiment can be abandoned: the with-
            # block terminates straggler workers on exit.
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context("spawn")
            results: List[tuple] = []
            with ctx.Pool(processes=jobs) as pool:
                handles = [pool.apply_async(_run_one, (task,)) for task in batch]
                for task, handle in zip(batch, handles):
                    try:
                        results.append(handle.get(timeout))
                    except multiprocessing.TimeoutError:
                        results.append(
                            (
                                task[0],
                                float(timeout),
                                None,
                                f"TimeoutError: exceeded --timeout {timeout:g}s",
                            )
                        )
            return results
        results = []
        session = (
            obs_hooks.session(observation)
            if observation is not None
            else contextlib.nullcontext()
        )
        with session:
            for task in batch:
                if not multi and args.retries == 0:
                    # Single target: run inline so exceptions propagate with
                    # their original type and traceback.
                    exp_id, config, overrides = task
                    start = time.time()
                    report = run_experiment(exp_id, config=config, **overrides)
                    results.append(
                        (exp_id, time.time() - start, report_to_dict(report), None)
                    )
                else:
                    results.append(_run_one(task))
        return results

    overrides_by_id = {t[0]: t[2] for t in tasks}
    remaining = pending
    attempts_left = max(0, args.retries)
    while True:
        failed_tasks: List[Tuple[str, SimConfig, dict]] = []
        errors: List[Tuple[str, str]] = []
        for exp_id, elapsed, report_dict, error in execute(remaining):
            if error is not None:
                errors.append((exp_id, error))
                continue
            finished[exp_id] = (elapsed, report_dict, False)
            if use_cache:
                key = _cache_key(exp_id, config, overrides_by_id[exp_id])
                _write_cache_entry(
                    CACHE_DIR / f"{key}.json", exp_id, elapsed, report_dict
                )
        if errors and attempts_left > 0:
            by_id = {t[0]: t for t in remaining}
            failed_tasks = [by_id[exp_id] for exp_id, _ in errors]
            print(
                f"[retrying {len(failed_tasks)} failed experiment(s); "
                f"{attempts_left} attempt(s) left]",
                file=sys.stderr,
            )
            attempts_left -= 1
            remaining = failed_tasks
            continue
        failures.extend(errors)
        break

    # Emit in the original target order.
    for exp_id in targets:
        if exp_id in finished:
            elapsed, report_dict, cached = finished[exp_id]
            _emit(args, exp_id, report_dict, elapsed, cached)

    if observation is not None:
        if args.cpi_stack:
            stacks = collect_cpi_stacks(observation.metrics)
            if stacks:
                print(format_cpi_table(stacks))
            else:
                print("[cpi-stack: no core cycles were recorded]")
            print()
        if args.trace is not None:
            args.trace.parent.mkdir(parents=True, exist_ok=True)
            observation.tracer.to_chrome(args.trace)
            n_events = len(observation.tracer.events)
            print(f"[trace: {n_events} events -> {args.trace}]")
        if args.metrics is not None:
            args.metrics.parent.mkdir(parents=True, exist_ok=True)
            observation.metrics.to_jsonl(args.metrics)
            n_metrics = len(observation.metrics.snapshot())
            print(f"[metrics: {n_metrics} series -> {args.metrics}]")
        if args.request_log is not None:
            args.request_log.parent.mkdir(parents=True, exist_ok=True)
            n_requests = observation.requests.to_jsonl(args.request_log)
            print(f"[request-log: {n_requests} requests -> {args.request_log}]")

    if args.bench_record is not None:
        from ..obs.regress import Benchmark, append_record, make_record

        fresh = [
            (exp_id, finished[exp_id][0])
            for exp_id in targets
            if exp_id in finished and not finished[exp_id][2]
        ]
        if fresh:
            record = make_record(
                mode="runner",
                repeats=1,
                benchmarks=[
                    Benchmark(
                        name=f"experiment.{exp_id}.wall_s",
                        value=elapsed,
                        unit="s",
                        direction="lower",
                        # Single-shot experiment wall clocks are noisy;
                        # only flag multi-fold blowups.
                        noise_floor=0.5 * elapsed,
                        kind="wall",
                    )
                    for exp_id, elapsed in fresh
                ],
            )
            append_record(args.bench_record, record)
            print(
                f"[bench-record: {len(fresh)} experiment(s) -> {args.bench_record}]"
            )
        else:
            print(
                "[bench-record: nothing recorded (all results were cached)]",
                file=sys.stderr,
            )

    if failures:
        print(f"{len(failures)} experiment(s) failed:", file=sys.stderr)
        for exp_id, error in failures:
            print(f"  {exp_id}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
