"""Workload ``serve_churn``: open-loop reads beside background republishing.

A ``Session`` over the 150-object, 50-source copier world of
``benchmarks/bench_serving.py`` is published once, then served through
``Session.serving()``. One open-loop reader issues reads on a fixed
schedule (90% ``query``, 8% ``explain_dependence``, 2% ``recommend(k=5)``)
while a feeder ``feed()``s a small mixed ``MutationBatch`` every
``FEED_INTERVAL_S`` and the engine's background refresh republishes.
Every read is timed from when it was due, so a stall of the event loop
(the truth round holding the interpreter lock) is charged to every read
it delays.

The first phase runs at ``BASE_RATE`` and gives the read latency,
freshness and error figures. Then the rates of ``LADDER`` are tried in
turn for ``max_read_qps``; reads there past the limit mark the rate as
unmet rather than counting as errors. The event loop and the refresh
thread share one CPU while serving (see ``one_cpu``).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import statistics
import time

from repro.exceptions import ServeError

from perfbench.common import Outcome, clique_pairs, count_execution
from perfbench.common import count_stats, percentile, score_detection
from perfbench.common import timed_setup
from perfbench.common import uncontended_costs
from perfbench.session_mutation import plan_batches

MIN_OVERLAP = 5
#: Reads per second of the base phase. The mix's ``recommend(k=5)``
#: costs about 3.7 ms a call, so at 5000/s the reader alone kept one CPU
#: 68% busy (2.7 s of every 4 s, 2.1 s of it in recommends): reads queued
#: behind the reader's own work, read p50 went from 11 ms to 47 ms from
#: run to run with nothing fed, and a truth round beside it pushed the
#: loop past saturation. At 1000/s the reader keeps a CPU about 15%
#: busy, so what a read waits for is the truth round: in four runs the
#: reads due during a round reached p90 10-18 ms against 6-8 ms with
#: nothing fed, while the read p50 held at 0.7-1.1 ms.
BASE_RATE = 1000
#: Higher rates tried for ``max_read_qps``, ascending: 2x, 5x, 10x and
#: 20x the base rate (5000/s is where open-loop reads were first seen to
#: stall behind the truth round; 20000/s is past what the reader's own
#: work allows on one CPU).
LADDER = (2000, 5000, 10000, 20000)
#: Share of the run spent at the base rate; the ladder shares the rest.
BASE_SHARE = 0.9
#: Cold publishes per run (cheap here); ``cold_publish_s`` is the median.
COLD_REPEATS = 11
#: Set-ups per run (cheap here, about 0.07 s each); ``setup_s`` is the
#: median.
SETUP_REPEATS = 15
#: A base-phase read slower than this fails; a rate meets the limit when
#: its p99 and its final backlog stay under it.
READ_LIMIT_MS = 250.0
#: One fed batch per refresh, well apart: a refresh of this world (a
#: truth round over all 7500 claims) takes 0.2 s alone and 0.3-0.6 s
#: beside the reader on one CPU, so each batch lands in a round of its
#: own and freshness is one round plus the loop's pickup delay, the
#: latency a shorter truth round cuts. A feed close to the round time
#: queues batches behind the round in progress: at one batch a second
#: beside 5000 reads/s the loop was busy 88% of the time, rounds ran
#: 0.7-1.9 s, and freshness followed the queue rather than the round.
FEED_INTERVAL_S = 1.25
#: Share of the claims each fed batch touches: two each of retractions,
#: corrections and re-adds of this world's 7500 claims. A refresh is a
#: whole truth round whatever the batch size, so a small batch keeps
#: freshness about the round, not about the batch's own work.
FEED_SHARE = 0.001
#: Seconds the reader keeps going after the feed stops, for the last
#: fed batches to become visible.
DRAIN_LIMIT_S = 10.0
QUERY_SHARE, EXPLAIN_SHARE = 0.90, 0.08

SIZES = {
    # objects, independent sources, copiers
    "full": (150, 40, 10),
    "tiny": (40, 8, 2),
}


def make_inputs(seed: int, size: str, seconds: float):
    from repro.generators import simple_copier_world

    n_objects, n_independent, n_copiers = SIZES[size]
    dataset, world = simple_copier_world(
        n_objects=n_objects, n_independent=n_independent,
        n_copiers=n_copiers, accuracy=0.85, seed=seed,
    )
    claims = list(dataset)
    n_batches = int(seconds / FEED_INTERVAL_S) + 1
    batches = plan_batches(claims, seed, n_batches, FEED_SHARE)
    return claims, world, batches


@contextlib.contextmanager
def one_cpu():
    """Run the calling thread, and the threads it starts, on one CPU.

    The reader and the background truth round contend for the
    interpreter lock. With the two threads on two CPUs of a shared host,
    every hand-off of the lock wakes the other CPU, and how fast that
    happens follows the host, not the program: beside 5000 reads/s the
    median round took 1.05-1.33 s from run to run, a spread of 0.22 (IQR
    / median) over three runs. On one CPU the same rounds took
    0.53-0.62 s, a spread of 0.04 over three runs and 0.11 over five.
    Where CPU affinity is not available this does nothing.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class _Phase:
    """Latencies and lateness of the reads issued in one phase."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        #: Seconds from due to done, for reads that returned.
        self.latency: list[float] = []
        self.late: list[float] = []
        self.errors = 0
        self.backlog_s = 0.0

    @property
    def reads(self) -> int:
        return len(self.latency) + self.errors

    def slow(self) -> int:
        limit = READ_LIMIT_MS / 1e3
        return sum(latency > limit for latency in self.latency)

    def meets(self) -> bool:
        limit = READ_LIMIT_MS / 1e3
        return (
            bool(self.latency)
            and percentile(self.latency, 99) <= limit
            and self.backlog_s <= limit
        )


class _Churn:
    """Reader, feeder and visibility bookkeeping for one serving run."""

    def __init__(self, session, engine, batches, seed: int) -> None:
        self.session = session
        self.engine = engine
        self.batches = batches
        self.rng = random.Random(seed)
        snapshot = session.store.get()
        self.objects = list(snapshot.objects)
        self.sources = list(snapshot.sources)
        self.audited = 0
        self.torn = 0
        self.fed_at: list[float] = []
        #: dataset version after each fed batch, in feed order (None when
        #: the batch failed to apply and was quarantined).
        self.applied: list[int | None] = []
        #: (time, dataset version) whenever a read saw a newer snapshot.
        self.seen: list[tuple[float, int]] = []
        self.feeding = True

    async def read_once(self):
        """One read of the mix: ``(ok, (object, answer) or None)``."""
        draw = self.rng.random()
        try:
            if draw < QUERY_SHARE:
                obj = self.objects[self.rng.randrange(len(self.objects))]
                return True, (obj, await self.engine.query(obj))
            if draw < QUERY_SHARE + EXPLAIN_SHARE:
                source = self.sources[self.rng.randrange(len(self.sources))]
                await self.engine.explain_dependence(source)
            else:
                await self.engine.recommend(5)
        except Exception:  # every failed read is counted, never fatal
            return False, None
        return True, None

    def audit(self, obj, answer, done: float) -> None:
        """Check one answer against its stamped snapshot; note new versions.

        Runs right after the read is timed, while the stamped version is
        still within the store's retention, so the store keeps its
        default size. Keeping the answers for a check after the run would
        grow the heap by every read, and the collector's passes over it
        stall the reader far more than the check does.
        """
        if not self.seen or answer.dataset_version > self.seen[-1][1]:
            self.seen.append((done, answer.dataset_version))
        self.audited += 1
        try:
            served = self.session.store.get(answer.version).answer(obj)
        except ServeError:
            self.torn += 1
            return
        self.torn += served != answer

    async def phase(self, rate: float, duration: float, until=None) -> _Phase:
        """Open-loop reads at ``rate`` for ``duration`` (or until ``until()``)."""
        result = _Phase(rate)
        start = time.perf_counter()
        i = 0
        while True:
            due = start + i / rate
            if due >= start + duration or (until is not None and until()):
                break
            now = time.perf_counter()
            if now > start + duration + READ_LIMIT_MS / 1e3:
                break  # the backlog already misses the limit
            if now < due:
                await asyncio.sleep(due - now)
            began = time.perf_counter()
            ok, answered = await self.read_once()
            done = time.perf_counter()
            result.late.append(began - due)
            if ok:
                result.latency.append(done - due)
            else:
                result.errors += 1
            if answered is not None:
                self.audit(*answered, done)
            i += 1
        result.backlog_s = max(0.0, time.perf_counter() - (start + i / rate))
        return result

    async def feeder(self) -> None:
        start = time.perf_counter()
        for k, batch in enumerate(self.batches):
            if not self.feeding:
                break
            due = start + k * FEED_INTERVAL_S
            now = time.perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
            if not self.feeding:
                break
            self.fed_at.append(time.perf_counter())
            self.session.feed(batch)

    def all_visible(self) -> bool:
        if len(self.applied) < len(self.fed_at) or not self.seen:
            return False
        versions = [v for v in self.applied if v is not None]
        return not versions or self.seen[-1][1] >= max(versions)

    def freshness(self, fed_before: float) -> list[float]:
        """Seconds from feed() to the first read that saw the batch."""
        out = []
        for fed, version in zip(self.fed_at, self.applied):
            if version is None or fed >= fed_before:
                continue
            for when, seen in self.seen:
                if seen >= version and when >= fed:
                    out.append(when - fed)
                    break
        return out


def _track_ingest(session, churn: _Churn) -> None:
    """Record the dataset version each drained batch lands at."""
    engine = session.engine
    inner = engine.ingest

    def ingest(batch):
        try:
            delta = inner(batch)
        except Exception:
            churn.applied.append(None)
            raise
        churn.applied.append(delta.version)
        return delta

    engine.ingest = ingest


async def _serve(session, batches, seed, seconds, tracer):
    # Wrapped before serving() captures it, so the engine's background
    # refresh runs the spanned callable. The counters are folded in on
    # every run, traced or not, so tracing adds no other work.
    tracer.wrap(session, "refresh", "serve.refresh")
    refresh = session.refresh

    def counted_refresh():
        snapshot = refresh()
        if snapshot is not None:
            count_stats(session, tracer)
        return snapshot

    session.refresh = counted_refresh
    engine = session.serving()
    churn = _Churn(session, engine, batches, seed)
    _track_ingest(session, churn)
    engine.start()
    feeder = asyncio.get_running_loop().create_task(churn.feeder())
    try:
        base_s = seconds * BASE_SHARE
        base = await churn.phase(BASE_RATE, base_s)
        fed_in_base = time.perf_counter()
        ladder = []
        for rate in LADDER:
            ladder.append(
                await churn.phase(rate, (seconds - base_s) / len(LADDER))
            )
        churn.feeding = False
        await feeder
        drain = await churn.phase(
            BASE_RATE, DRAIN_LIMIT_S, until=churn.all_visible
        )
    finally:
        churn.feeding = False
        await feeder
        await engine.stop()
    return churn, engine.health(), base, ladder, drain, fed_in_base


def run(seed: int, seconds: float, tracer, size: str = "full") -> Outcome:
    import repro
    from repro.core.params import DependenceParams

    (claims, world, batches), setup_s = timed_setup(
        lambda: make_inputs(seed, size, seconds), SETUP_REPEATS
    )
    out = Outcome(params=DependenceParams())
    colds = []

    def cold_publish(keep: bool):
        started = time.perf_counter()
        with tracer.span("dependence.build"):
            session = repro.Session(
                claims=claims, min_overlap=MIN_OVERLAP
            )
        tracer.wrap(session.engine, "ingest", "dependence.ingest")
        tracer.wrap(session.engine, "run_truth", "truth.run")
        tracer.wrap(session.engine, "publish", "serve.publish")
        try:
            session.publish()
        finally:
            if not keep:
                session.close()
        colds.append(time.perf_counter() - started)
        out.attempt()
        return session

    # Half the cold publishes before serving and half after, so the
    # median does not rest on one stretch of machine speed.
    for _ in range(COLD_REPEATS // 2):
        cold_publish(keep=False)
    session = cold_publish(keep=True)
    try:
        detected = session.graph.detected_pairs(0.5)
        cold_version = session.store.stats()["latest_version"]

        with one_cpu():
            churn, health, base, ladder, drain, fed_in_base = (
                asyncio.run(_serve(session, batches, seed, seconds, tracer))
            )
        versions = session.store.stats()["latest_version"] - cold_version
        if tracer.enabled:
            uncontended_costs(session.store.get(), out)
        count_execution(session, out)
        quarantined = session.quarantined_total
    finally:
        session.close()
    while len(colds) < COLD_REPEATS:
        cold_publish(keep=False)

    # Reads: every phase's errors fail; past the limit fails only at the
    # base rate (the ladder's slow reads are what max_read_qps measures).
    phases = [base, *ladder, drain]
    out.attempted += sum(p.reads for p in phases)
    out.failed += sum(p.errors for p in phases) + base.slow() + drain.slow()
    # Writes: each fed batch and each background refresh.
    out.attempt(count=len(churn.fed_at) - quarantined)
    out.attempt(ok=False, count=quarantined)
    out.attempt(count=health["refreshes"])
    out.attempt(ok=False, count=health["total_failures"])
    read_errors = sum(p.errors for p in phases)

    fresh = churn.freshness(fed_in_base)
    out.check("zero torn reads", churn.torn == 0,
              f"{churn.torn} of {churn.audited} answers")
    out.check("every fed batch visible", churn.all_visible(),
              f"{len(churn.fed_at)} fed, {len(churn.applied)} applied")
    out.check("no failed reads", read_errors == 0, f"{read_errors}")
    out.check("freshness measured", len(fresh) > 0, f"{len(fresh)} batches")
    score_detection(detected, clique_pairs(world), out)

    meeting = [p.rate for p in [base, *ladder] if p.meets()]
    max_read_qps = float(max(meeting, default=0))
    freshness_p50 = statistics.median(fresh)
    freshness_p90 = percentile(fresh, 90)
    late_ms = percentile(base.late, 99) * 1e3
    out.metrics.update(
        setup_s=setup_s,
        cold_publish_s=statistics.median(colds),
        update_p50_s=freshness_p50,
    )
    out.record_reads(base.latency, 50)
    out.layer.update({
        "serve.versions": float(versions),
        "serve.refresh_failures": float(health["total_failures"]),
        "serve.freshness_p90_s": freshness_p90,
        "loadgen.late_ms": late_ms,
        "loadgen.read_p99_ms": percentile(base.latency, 99) * 1e3,
        "loadgen.max_read_qps": max_read_qps,
    })
    out.report += [
        ("freshness_p50_s", freshness_p50, "s"),
        ("freshness_p90_s", freshness_p90, "s"),
        ("max_read_qps", max_read_qps, "1/s"),
        ("base_rate", float(BASE_RATE), "1/s"),
        ("versions_published", float(versions), "count"),
        ("batches_fed", float(len(churn.fed_at)), "count"),
        ("late_p99_ms", late_ms, "ms"),
    ]
    for phase in ladder:
        if phase.latency:
            out.report.append(
                (f"read_p99_ms_at_{phase.rate}",
                 percentile(phase.latency, 99) * 1e3, "ms")
            )
    return out
