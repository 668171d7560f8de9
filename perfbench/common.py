"""Shared pieces of the three workloads: results, statistics, provenance."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, fields

#: Set-ups repeated per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: End-to-end metrics every workload reports (``--trace 0``), with units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "detect_f1": "ratio",
    "cold_publish_s": "s",
    "update_p50_s": "s",
    "read_ms": "ms",
}

#: Per-layer metrics every workload reports (``--trace 1``), with units.
#: A layer the workload never enters reports 0.
PER_LAYER = {
    "linkage.canonicalise_s": "s",
    "linkage.values": "count",
    "query.final_records_s": "s",
    "query.order_s": "s",
    "query.online_run_s": "s",
    "query.probes": "count",
    "dependence.build_s": "s",
    "dependence.ingest_s": "s",
    "dependence.discover_s": "s",
    "dependence.pairs": "count",
    "dependence.rescored": "count",
    "dependence.reused": "count",
    "truth.run_s": "s",
    "truth.rounds": "count",
    "truth.pairs_rescored": "count",
    "truth.pairs_reused": "count",
    "serve.publish_s": "s",
    "serve.refresh_s": "s",
    "serve.versions": "count",
    "serve.refresh_failures": "count",
    "serve.answer_us": "us",
    "serve.freshness_p90_s": "s",
    "recommend.recommend_us": "us",
    "loadgen.late_ms": "ms",
    "loadgen.read_p99_ms": "ms",
    "loadgen.max_read_qps": "1/s",
    "exec.retries": "count",
    "exec.degradations": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: ``(check name, passed, detail)`` for every output check.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: End-to-end values keyed by :data:`END_TO_END` names.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Layer counters and single-layer timings not derived from spans.
    layer: dict[str, float] = field(default_factory=dict)
    #: Extra human-readable figures: ``(name, value, unit)``.
    report: list[tuple[str, float, str]] = field(default_factory=list)
    #: The dependence params the workload ran under (for provenance).
    params: object = None
    #: Seconds of traced-run-only measurement (the uncontended per-call
    #: costs), left out of the run time tracing overhead is taken against.
    untimed_s: float = 0.0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def attempt(self, ok: bool = True, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def record_reads(self, latencies_s: list[float], q: float) -> None:
        """Read latency figures, in ms; ``read_ms`` is the ``q``-th percentile.

        Each workload gates the percentile of its reads that holds still
        from run to run on a shared two-CPU host (see README): the median
        of microsecond reads jumps between the cores' two speeds, while
        the tail of reads served beside a truth round follows the host's
        steal time. All three percentiles are printed.
        """
        self.metrics["read_ms"] = percentile(latencies_s, q) * 1e3
        self.report += [
            ("reads", len(latencies_s), "count"),
            ("read_p50_ms", percentile(latencies_s, 50) * 1e3, "ms"),
            ("read_p90_ms", percentile(latencies_s, 90) * 1e3, "ms"),
            ("read_p99_ms", percentile(latencies_s, 99) * 1e3, "ms"),
        ]

    @property
    def correct(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def timed_setup(build, repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; return (last result, median seconds)."""
    durations = []
    result = None
    for _ in range(repeats):
        result = None  # drop the previous inputs before building anew
        started = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - started)
    return result, statistics.median(durations)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def score_detection(detected: set, planted: set, out: Outcome):
    """Score pairs flagged by DEPEN against the planted dependent pairs."""
    from repro.eval.metrics import detection_score

    score = detection_score(detected, planted)
    out.metrics["detect_f1"] = score.f1
    out.report += [
        ("detect_precision", score.precision, "ratio"),
        ("detect_recall", score.recall, "ratio"),
        ("detected_pairs", score.detected, "count"),
    ]
    out.check("detection recall >= 0.5", score.recall >= 0.5,
              f"{score.recall:.3f}")
    return score


def clique_pairs(world) -> set[frozenset]:
    """Planted dependent pairs of a copier world, sibling copiers included.

    ``World.dependent_pairs`` lists only copier-original edges; copiers of
    one original share its content, so their sibling pairs are dependent
    too, as ``BookstoreWorld.dependent_pairs`` counts them.
    """
    members: dict[object, set] = {}
    for edge in world.edges:
        members.setdefault(edge.original, {edge.original}).add(edge.copier)
    pairs = set()
    for group in members.values():
        ordered = sorted(group)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                pairs.add(frozenset((a, b)))
    return pairs


def provenance(seed: int, params) -> dict:
    """What produced a result: runs with different values never compare."""
    import numpy

    execution = (
        "parallel_backend", "num_workers", "shard_size", "entry_store",
        "pool", "truth_backend", "posterior_backend", "max_retries",
        "task_deadline", "degrade_on_failure", "overlap_policy",
    )
    names = {f.name for f in fields(params)}
    return {
        "seed": seed,
        "execution": {k: getattr(params, k) for k in execution if k in names},
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def uncontended_costs(snapshot, out: Outcome, samples: int = 20000) -> None:
    """Per-call cost of ``Snapshot.answer`` and ``recommend``, no writer."""
    from repro.recommend.scoring import (
        recommend_from_snapshot,
        snapshot_scorecards,
    )

    began = time.perf_counter()
    objects = list(snapshot.objects)
    started = time.perf_counter()
    for i in range(samples):
        snapshot.answer(objects[i % len(objects)])
    out.layer["serve.answer_us"] = (
        (time.perf_counter() - started) / samples * 1e6
    )
    # Scorecards built once, as the serving engine caches them per version.
    cards = snapshot_scorecards(snapshot)
    rounds = max(1, samples // 100)
    started = time.perf_counter()
    for _ in range(rounds):
        recommend_from_snapshot(snapshot, 5, cards=cards)
    out.layer["recommend.recommend_us"] = (
        (time.perf_counter() - started) / rounds * 1e6
    )
    out.untimed_s += time.perf_counter() - began


def count_stats(session, tracer) -> None:
    """Fold the session's last discover and truth counters into the tracer."""
    stats = session.stats()
    discover, truth = stats["discover"], stats["truth"]
    tracer.counts["dependence.pairs"] = discover.get("pairs", 0)
    tracer.count("dependence.rescored", discover.get("rescored", 0))
    tracer.count("dependence.reused", discover.get("reused", 0))
    tracer.count("truth.rounds", truth.get("rounds", 0))
    tracer.count("truth.pairs_rescored", truth.get("pairs_rescored", 0))
    tracer.count("truth.pairs_reused", truth.get("pairs_reused", 0))


def count_execution(session, out: Outcome) -> None:
    """Executor retries and degradations count as failed operations."""
    health = session.execution_health()
    retries = int(health.get("retries", 0))
    degrades = int(health.get("degrades", 0))
    out.layer["exec.retries"] = retries
    out.layer["exec.degradations"] = degrades
    out.attempt(ok=False, count=retries + degrades)
