"""The context classifier's benchmark: one command, three workloads.

``BENCHMARK.json`` lists two of them; ``live_1w`` (the single-worker
baseline) is run by hand (see ``perfbench/README.md``).

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_2w --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Every
pass is checked against an offline reference; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import checks
import inputs
import measure
import workloads as wl
from tracer import Tracer

ROOT = inputs.ROOT
WORKLOADS = ("live_1w", "live_2w", "pcap_paced")

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "packets_per_s": "packets/s",
    "event_lag_p50_ms": "ms",
    "event_lag_p99_ms": "ms",
    "cpu_us_per_packet": "us",
    "peak_rss_mb": "MiB",
    "title_accuracy": "ratio",
    "stage_accuracy": "ratio",
}

#: name -> unit of every per-layer metric (``--trace 1``); a layer the
#: workload does not exercise reads 0.
PER_LAYER = {
    "net.pcap.decode_s": "s",
    "net.pcap.us_per_packet": "us",
    "net.pcap.rows_skipped": "count",
    "runtime.demux.split_s": "s",
    "runtime.demux.us_per_packet": "us",
    "runtime.state.absorb_s": "s",
    "runtime.state.absorb_calls": "count",
    "runtime.state.advance_s": "s",
    "runtime.state.peak_bytes_per_session": "bytes",
    "core.transition.extend_s": "s",
    "core.title_classifier.predict_streams_s": "s",
    "core.title_classifier.rows": "count",
    "core.activity_classifier.predict_features_s": "s",
    "core.activity_classifier.rows": "count",
    "ml.kernel.predict_proba_s": "s",
    "ml.kernel.rows": "count",
    "core.qoe.estimate_s": "s",
    "core.qoe.intervals": "count",
    "core.pipeline.finalize_cascades_s": "s",
    "core.pipeline.sessions_finalized": "count",
    "core.pipeline.process_many_s": "s",
    "analytics.fleet.observe_s": "s",
    "analytics.fleet.events": "count",
    "analytics.fleet.fold_corpus_s": "s",
    "runtime.engine.ingest_self_s": "s",
    "runtime.engine.ticks": "count",
    "runtime.shard.route_s": "s",
    "runtime.supervisor.send_s": "s",
    "runtime.supervisor.wait_s": "s",
    "runtime.supervisor.close_s": "s",
    "runtime.supervisor.pipe_payload_bytes": "bytes",
    "runtime.supervisor.replay_ring_peak_bytes": "bytes",
    "runtime.supervisor.restarts": "count",
    "runtime.shm.ring_peak_bytes": "bytes",
    "runtime.shm.fallback_ticks": "count",
    "runtime.persistence.snapshot_bytes": "bytes",
    "runtime.persistence.load_s": "s",
    "feed.pacer.backlog_max_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Spans traced in the parent of ``live_2w``.  Everything else would also be
#: patched into the forked workers, where nobody collects it.
PARENT_SIDE_SPANS = {
    "runtime.demux.split",
    "runtime.shard.route",
    "runtime.supervisor.send",
    "runtime.supervisor.wait",
    "runtime.supervisor.close",
    "runtime.persistence.load",
}

#: Spans of the offline batch path, traced around the live workloads'
#: reference computation (``process_many`` + ``fold_corpus`` over the same
#: sessions, outside the timed region).
BATCH_PATH_SPANS = {"core.pipeline.process_many", "analytics.fleet.fold_corpus"}

#: Set-up-only repetitions per run, on top of each timed pass's own set-up.
SETUP_REPS = 3


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fit-model", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fit_model is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: List[str] = None) -> int:
    """Run one workload; returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not (inputs.SRC / "repro").is_dir():
        print(f"perfbench: package source {inputs.SRC / 'repro'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(inputs.SRC))
    if args.fit_model:
        inputs.fit_model(Path(args.fit_model))
        return 0
    digest = inputs.src_digest()
    model = inputs.model_dir(digest)
    if not model.is_dir():
        model.parent.mkdir(parents=True, exist_ok=True)
        print(f"# fitting the model for source digest {digest[:12]} (cached in {model.name})",
              flush=True)
        # in a child process, so the fit's heap is not reused by the
        # measured engine and does not hide its memory growth
        fitted = subprocess.run([sys.executable, __file__, "--fit-model", str(model)])
        if fitted.returncode:
            return fitted.returncode
    try:
        return _measure(args, model, digest)
    finally:
        measure.stop_resource_tracker()


# ---------------------------------------------------------------- driving
def _timed_passes(run_pass: Callable, seconds: float) -> list:
    """Repeat whole passes until the next one would end past ``seconds``
    by more than half a pass (at least one pass)."""
    passes = []
    began = time.perf_counter()
    while True:
        gc.collect()
        pass_began = time.perf_counter()
        passes.append(run_pass())
        spent = time.perf_counter() - pass_began
        if time.perf_counter() - began + spent / 2 > seconds:
            return passes


def _plan(name: str, seed: int, model: Path, work: Path) -> dict:
    """Build the inputs and the offline reference; return the pass callables."""
    n_workers = measure.usable_cpus()
    if name == "pcap_paced":
        corpus = inputs.sessions(
            seed, "capture", inputs.CAPTURE_SESSIONS_PER_TITLE, inputs.CAPTURE_GAMEPLAY_S
        )
        rows = inputs.capture_rows(corpus, seed)
        path = work / f"capture-{os.getpid()}.pcap"
        inputs.write_capture(path, rows)
        speed = wl.pcap_speed(rows)
        return {
            "reference": wl.pcap_reference(model, rows, corpus),
            "warmup": lambda: wl.pcap_warmup(model, path),
            "setup": lambda: wl.pcap_setup(model, path, speed),
            "pass": lambda tracer=None: wl.pcap_pass(model, path, speed, tracer),
            "cleanup": path,
            "shape": {"sessions": len(corpus), "capture_bytes": path.stat().st_size,
                      "snaplen": inputs.SNAPLEN, "speed": speed,
                      "offered_packets_per_s": wl.PCAP_OFFERED_PPS,
                      "idle_timeout_s": wl.PCAP_IDLE_TIMEOUT_S},
        }
    corpus = inputs.sessions(seed, "live", inputs.LIVE_SESSIONS_PER_TITLE)
    batches, contexts = inputs.live_batches(corpus)
    # the offline reference is the batch path (process_many + fold_corpus)
    # over the same sessions: its spans give those layers' times on the live
    # workloads' traced runs
    batch_path = Tracer()
    batch_path.tick = 0
    with batch_path.installed(spans=BATCH_PATH_SPANS):
        reference = wl.live_reference(model, corpus)
    return {
        "reference": reference,
        "batch_path": batch_path,
        "warmup": lambda: wl.live_warmup(name, model, batches, contexts, n_workers),
        "setup": lambda: wl.live_setup(name, model, batches, contexts, n_workers),
        "pass": lambda tracer=None: wl.live_pass(
            name, model, batches, contexts, n_workers, tracer
        ),
        "shape": {"sessions": len(corpus), "batches": len(batches),
                  "n_workers": n_workers if name == "live_2w" else 1},
    }


def _check(name: str, reference, passes: list) -> tuple:
    """(attempted, failures) over every pass of the run."""
    attempted, failures = 0, []
    for number, result in enumerate(passes, 1):
        attempted += len(reference.reports)
        failures += [
            f"pass {number}: {failure}"
            for failure in checks.session_failures(reference.reports, result.reports)
        ]
        expected_digest = reference.digest or passes[0].digest
        run_checks = [("fleet digest", result.digest == expected_digest)]
        if name == "live_2w":
            stats = result.feed_stats or {}
            run_checks += [
                ("worker restarts", stats.get("n_restarts") == 0),
                ("shm fallback ticks", stats.get("shm_fallback_ticks") == 0),
            ]
        if name == "pcap_paced":
            run_checks.append(("capture rows skipped", result.rows_skipped == 0))
        attempted += len(run_checks)
        failures += [f"pass {number}: {check} check failed" for check, ok in run_checks if not ok]
    return attempted, failures


def _end_to_end(passes: list, setups: List[float], rss_mb: List[float],
                reference) -> Dict[str, float]:
    first = passes[0].reports
    return {
        "setup_s": measure.median(setups + [p.setup_s for p in passes]),
        "packets_per_s": measure.median(p.n_packets / p.wall_s for p in passes),
        "event_lag_p50_ms": measure.median(
            measure.percentile(p.lags_s, 50) * 1e3 for p in passes
        ),
        "event_lag_p99_ms": measure.median(
            measure.percentile(p.lags_s, 99) * 1e3 for p in passes
        ),
        "cpu_us_per_packet": measure.median(p.cpu_s / p.n_packets * 1e6 for p in passes),
        "peak_rss_mb": measure.median(rss_mb),
        "title_accuracy": checks.title_accuracy(first, reference.sessions),
        "stage_accuracy": checks.stage_accuracy(first, reference.sessions),
    }


def _layers(result, tracer, untraced_busy: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``untraced_busy``: the busy time
    of the untraced pass run just before it)."""
    own = tracer.self_seconds(in_feed=True)
    setup = tracer.self_seconds(in_feed=False)
    counts = tracer.counts
    stats = result.feed_stats or {}

    def per_packet(seconds: float, packets: int) -> float:
        return seconds / packets * 1e6 if packets else 0.0

    layer_s = {
        "net.pcap.decode_s": own.get("net.pcap.decode", 0.0),
        "runtime.demux.split_s": own.get("runtime.demux.split", 0.0),
        "runtime.state.absorb_s": own.get("runtime.state.absorb", 0.0),
        "runtime.state.advance_s": own.get("runtime.state.advance", 0.0),
        "core.transition.extend_s": own.get("core.transition.extend", 0.0),
        "core.title_classifier.predict_streams_s":
            own.get("core.title_classifier.predict_streams", 0.0),
        "core.activity_classifier.predict_features_s":
            own.get("core.activity_classifier.predict_features", 0.0),
        "ml.kernel.predict_proba_s": own.get("ml.kernel.predict_proba", 0.0),
        "core.qoe.estimate_s": own.get("core.qoe.estimate", 0.0),
        "core.pipeline.finalize_cascades_s": own.get("core.pipeline.finalize_cascades", 0.0),
        "core.pipeline.process_many_s": own.get("core.pipeline.process_many", 0.0),
        "analytics.fleet.observe_s": own.get("analytics.fleet.observe", 0.0),
        "analytics.fleet.fold_corpus_s": own.get("analytics.fleet.fold_corpus", 0.0),
        "runtime.engine.ingest_self_s": own.get("runtime.engine.ingest", 0.0),
        "runtime.shard.route_s": own.get("runtime.shard.route", 0.0),
        "runtime.supervisor.send_s": own.get("runtime.supervisor.send", 0.0),
        "runtime.supervisor.wait_s": own.get("runtime.supervisor.wait", 0.0),
        "runtime.supervisor.close_s": own.get("runtime.supervisor.close", 0.0),
    }
    metrics = dict(layer_s)
    metrics.update({
        "net.pcap.us_per_packet": per_packet(layer_s["net.pcap.decode_s"],
                                             result.decoded_packets),
        "net.pcap.rows_skipped": result.rows_skipped,
        "runtime.demux.us_per_packet": per_packet(layer_s["runtime.demux.split_s"],
                                                  counts["runtime.demux.packets"]),
        "runtime.state.absorb_calls": counts["runtime.state.absorb_calls"],
        "runtime.state.peak_bytes_per_session": result.peak_state_bytes,
        "core.title_classifier.rows": counts["core.title_classifier.rows"],
        "core.activity_classifier.rows": counts["core.activity_classifier.rows"],
        "ml.kernel.rows": counts["ml.kernel.rows"],
        "core.qoe.intervals": counts["core.qoe.intervals"],
        "core.pipeline.sessions_finalized": counts["core.pipeline.sessions_finalized"],
        "analytics.fleet.events": counts["analytics.fleet.events"],
        "runtime.engine.ticks": counts["runtime.engine.ticks"],
        "runtime.supervisor.pipe_payload_bytes": stats.get("pipe_payload_bytes_total", 0),
        "runtime.supervisor.replay_ring_peak_bytes": stats.get("ring_peak_bytes", 0),
        "runtime.supervisor.restarts": stats.get("n_restarts", 0),
        "runtime.shm.ring_peak_bytes": stats.get("shm_ring_peak_bytes", 0),
        "runtime.shm.fallback_ticks": stats.get("shm_fallback_ticks", 0),
        "runtime.persistence.snapshot_bytes": stats.get("last_snapshot_nbytes", 0),
        "runtime.persistence.load_s": setup.get("runtime.persistence.load", 0.0),
        "trace.coverage_frac": sum(layer_s.values()) / result.busy_s,
        "trace.overhead_frac": result.busy_s / untraced_busy - 1.0,
    })
    return metrics


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _measure(args, model: Path, digest: str) -> int:
    work = model.parent
    name = args.workload
    phases = {"start": time.perf_counter()}
    plan = _plan(name, args.seed, model, work)
    reference = plan["reference"]
    gc.collect()
    measure.trim_heap()
    # the harness's own footprint (inputs, reference, nothing freed):
    # peak_rss_mb is the program's resident memory above it
    harness = measure.proc_status_kib()
    rss_mb: List[float] = []

    def pass_with_memory():
        # from a trimmed heap, so forked workers inherit only memory in use
        measure.trim_heap()
        measure.reset_peak_rss()
        result = plan["pass"]()
        grown = (measure.proc_status_kib()["VmHWM"] - harness["VmRSS"]
                 + measure.worker_growth_kib(result.worker_peaks_kib, harness["RssAnon"]))
        rss_mb.append(grown / 1024.0)
        return result

    phases["inputs"] = time.perf_counter()
    try:
        plan["warmup"]()
        gc.collect()
        phases["warmup"] = time.perf_counter()
        setups = [plan["setup"]() for _ in range(SETUP_REPS)]
        phases["setups"] = time.perf_counter()
        if args.trace:
            hooks = None if name != "live_2w" else PARENT_SIDE_SPANS

            def pair():
                # an untraced pass, then a traced one: alternating keeps the
                # overhead estimate clear of the machine's slow drifts
                untraced = plan["pass"]()
                tracer = Tracer()
                with tracer.installed(spans=hooks):
                    traced = plan["pass"](tracer)
                return untraced, (traced, tracer)

            pairs = _timed_passes(pair, args.seconds)
            passes = [untraced for untraced, _ in pairs]
            traced = [traced for _, traced in pairs]
        else:
            passes = _timed_passes(pass_with_memory, args.seconds)
            traced = []
        phases["passes"] = time.perf_counter()
    finally:
        capture = plan.get("cleanup")
        if capture is not None:
            capture.unlink(missing_ok=True)

    attempted, failures = _check(name, reference, passes + [r for r, _ in traced])
    if args.trace:
        per_pass = [
            _layers(result, tracer, untraced.busy_s)
            for untraced, (result, tracer) in zip(passes, traced)
        ]
        metrics = {key: measure.median(m[key] for m in per_pass) for key in per_pass[0]}
        lateness = [p.lateness_s.max() for p in passes if p.lateness_s is not None]
        metrics["feed.pacer.backlog_max_s"] = measure.median(lateness) if lateness else 0.0
        if "batch_path" in plan:
            offline = plan["batch_path"].self_seconds()
            metrics["core.pipeline.process_many_s"] = offline["core.pipeline.process_many"]
            metrics["analytics.fleet.fold_corpus_s"] = offline["analytics.fleet.fold_corpus"]
        traced[-1][1].save(work / f"trace-{name}-seed{args.seed}.npz")
        units = PER_LAYER
    else:
        metrics = _end_to_end(passes, setups, rss_mb, reference)
        units = END_TO_END

    provenance = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_cpus": measure.usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_digest": digest[:16],
        "harness_rss_mb": round(harness["VmRSS"] / 1024.0, 1),
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_samples": len(setups) + len(passes),
        "events_per_pass": [p.n_events for p in passes],
        "batches_per_pass": passes[0].n_batches,
        "packets_per_pass": passes[0].n_packets,
        **plan["shape"],
    }
    if name == "pcap_paced":
        lateness = np.concatenate([p.lateness_s for p in passes])
        provenance["backlog_max_s"] = float(lateness.max())
        provenance["late_batches_over_10ms"] = int((lateness > 0.010).sum())
    if args.trace:
        provenance["untraced"] = (
            "worker-internal spans of live_2w are not traced: only the parent is "
            "instrumented, workers show as runtime.supervisor.wait"
            if name == "live_2w" else "none"
        )
        # a hook renamed away in the package reads 0 instead of failing the run
        provenance["missing_hooks"] = sorted({m for _, t in traced for m in t.missing})
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for failure in failures:
        print(f"# FAILED {failure}")
    for key in units:
        print(f"# {key:45s} {metrics[key]:.6g} {units[key]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            key: {"value": float(metrics[key]), "unit": units[key]} for key in units
        },
    }
    phases["end"] = time.perf_counter()
    marks = list(phases.items())
    phase_s = {
        phase: round(at - marks[i][1], 3) for i, (phase, at) in enumerate(marks[1:])
    }
    per_pass = [
        {"p50_ms": float(np.percentile(p.lags_s, 50) * 1e3),
         "p99_ms": float(np.percentile(p.lags_s, 99) * 1e3),
         "setup_s": p.setup_s, "wall_s": p.wall_s, "busy_s": p.busy_s, "cpu_s": p.cpu_s,
         "packets": p.n_packets, "events": p.n_events,
         "worker_peaks_mb": [kib / 1024.0 for kib in p.worker_peaks_kib]}
        for p in passes
    ]
    for sample, mb in zip(per_pass, rss_mb):
        sample["peak_rss_mb"] = mb
    (work / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "failures": failures, "passes": per_pass,
                    "setups_s": setups, "phase_s": phase_s, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
