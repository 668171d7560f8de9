"""Workload ``session_mutation``: one closed-loop client republishing.

A cold ``Session`` over a 600-object, 50-source copier world is built,
discovered, run and published (four times over the run, for a steady
``cold_publish_s``); then a seeded stream of mixed
``MutationBatch``es (retractions, corrections, and re-adds of earlier
retractions, about 1% of the claims each) is applied one by one, each
followed by an explicit discover -> run_truth -> publish and a few
reads of the new snapshot. This is the ``core/`` -> ``dependence/`` ->
``truth/`` -> ``serve`` write path; reads are incidental.

The model params are those of ``examples/streaming_ingest.py``;
execution policy stays at the ``Session`` defaults, so a change of
default shows here.
"""

from __future__ import annotations

import random
import statistics
import time

from perfbench.common import Outcome, clique_pairs, count_execution
from perfbench.common import count_stats, score_detection, timed_setup
from perfbench.common import uncontended_costs

MIN_OVERLAP = 10
#: Planned batches; a run applies as many as its time allows.
MAX_BATCHES = 60
#: Share of the claims each batch touches (split over its three kinds).
BATCH_SHARE = 0.01
READS_PER_PUBLISH = 200
#: Cold publishes per run; ``cold_publish_s`` is their median. The first
#: takes the mutation stream, the middle ones run at even intervals over
#: the claims of the moment, the last over the final claims as the
#: reference for the warm-versus-cold check.
COLD_REPEATS = 4

SIZES = {
    # objects, independent sources, copiers
    "full": (600, 46, 4),
    "tiny": (60, 8, 2),
}


def model_params():
    from repro.core.params import DependenceParams

    return DependenceParams(n_false_values=20, false_value_model="empirical")


def plan_batches(claims, seed: int, n_batches: int, share: float):
    """A seeded sequence of mixed batches that all apply cleanly.

    Simulates the claim set batch by batch: retractions and corrections
    pick present claims, corrections move to another value already seen
    for the object, and adds restore claims retracted by earlier batches.
    """
    from repro.core.claims import Claim
    from repro.core.dataset import MutationBatch

    rng = random.Random(seed)
    state = {(c.source, c.object): c.value for c in claims}
    domain: dict[object, list] = {}
    for c in claims:
        domain.setdefault(c.object, [])
        if c.value not in domain[c.object]:
            domain[c.object].append(c.value)
    keys = sorted(state)
    retracted: list[tuple] = []
    per_kind = max(1, int(len(keys) * share / 3))
    batches = []
    for _ in range(n_batches):
        retract = []
        for _ in range(per_kind):
            i = rng.randrange(len(keys))
            keys[i], keys[-1] = keys[-1], keys[i]
            key = keys.pop()
            retract.append((key, state.pop(key)))
        corrections = []
        for i in rng.sample(range(len(keys)), per_kind):
            source, obj = keys[i]
            options = [v for v in domain[obj] if v != state[keys[i]]]
            if not options:
                continue
            value = rng.choice(options)
            state[keys[i]] = value
            corrections.append(Claim(source=source, object=obj, value=value))
        adds = []
        for (source, obj), value in retracted[:per_kind]:
            state[(source, obj)] = value
            keys.append((source, obj))
            adds.append(Claim(source=source, object=obj, value=value))
        retracted = retracted[per_kind:] + retract
        batches.append(
            MutationBatch(
                adds=adds,
                retractions=[key for key, _ in retract],
                corrections=corrections,
            )
        )
    return batches


def make_inputs(seed: int, size: str):
    from repro.generators import simple_copier_world

    n_objects, n_independent, n_copiers = SIZES[size]
    dataset, world = simple_copier_world(
        n_objects=n_objects, n_independent=n_independent,
        n_copiers=n_copiers, accuracy=0.8, seed=seed,
    )
    claims = list(dataset)
    batches = plan_batches(claims, seed, MAX_BATCHES, BATCH_SHARE)
    return claims, world, batches


def instrument(session, tracer) -> None:
    """Span the engine calls the session makes on every write."""
    engine = session.engine
    tracer.wrap(engine, "ingest", "dependence.ingest")
    tracer.wrap(engine, "discover", "dependence.discover")
    tracer.wrap(engine, "run_truth", "truth.run")
    tracer.wrap(engine, "publish", "serve.publish")


def _read(session, objects, rng, reads: list[float], out: Outcome) -> None:
    from repro.exceptions import ServeError

    for obj in rng.sample(objects, min(READS_PER_PUBLISH, len(objects))):
        began = time.perf_counter()
        try:
            session.query(obj)
        except ServeError:
            out.attempt(ok=False)
            continue
        reads.append(time.perf_counter() - began)
        out.attempt()


def cold_publish(claims, params, tracer, out: Outcome, colds: list):
    """``Session(...)`` -> discover -> run_truth -> publish, timed."""
    import repro

    started = time.perf_counter()
    with tracer.span("dependence.build"):
        session = repro.Session(
            params=params, min_overlap=MIN_OVERLAP, claims=claims
        )
    instrument(session, tracer)
    try:
        session.discover()
        session.run_truth()
        session.publish()
    except BaseException:
        session.close()
        raise
    colds.append(time.perf_counter() - started)
    out.attempt(count=4)
    count_stats(session, tracer)
    return session


def compare_to_cold(final, reference, tolerance: float, out: Outcome):
    """The republished snapshot must match a cold run on the same claims.

    Decisions identical; probabilities within the iteration tolerance.
    """
    objects = list(reference.objects)
    mismatched = sum(
        final.answer(obj).value != reference.answer(obj).value
        for obj in objects
    )
    drift = max(
        abs(final.answer(obj).probability - reference.answer(obj).probability)
        for obj in objects
    )
    out.check("republish decisions equal a cold run", mismatched == 0,
              f"{mismatched} of {len(objects)} differ")
    out.check("republish probabilities within tolerance",
              drift <= tolerance, f"max drift {drift:.2e} vs {tolerance:g}")


def run(seed: int, seconds: float, tracer, size: str = "full") -> Outcome:
    (claims, world, batches), setup_s = timed_setup(
        lambda: make_inputs(seed, size)
    )
    params = model_params()
    out = Outcome(params=params)
    rng = random.Random(seed)
    reads: list[float] = []

    began = time.perf_counter()
    colds: list[float] = []
    session = cold_publish(claims, params, tracer, out, colds)
    try:
        detected = session.graph.detected_pairs(0.5)
        objects = sorted(session.store.get().objects)
        _read(session, objects, rng, reads, out)

        republish: list[float] = []
        for batch in batches:
            elapsed = time.perf_counter() - began
            if elapsed >= seconds:
                break
            if elapsed >= seconds * len(colds) / (COLD_REPEATS - 1):
                # A cold publish of the current claims, spread through the
                # run so the median does not rest on one stretch of time.
                cold_publish(
                    list(session.dataset), params, tracer, out, colds
                ).close()
            started = time.perf_counter()
            try:
                session.apply(batch)
                session.discover()
                session.run_truth()
                session.publish()
            except Exception as exc:  # a failed write is counted, not fatal
                out.attempt(ok=False)
                out.report.append((f"error {type(exc).__name__}", 1, "count"))
                continue
            republish.append(time.perf_counter() - started)
            out.attempt(count=4)
            count_stats(session, tracer)
            _read(session, objects, rng, reads, out)
        out.layer["serve.versions"] = float(len(republish))
        out.check("at least one republish", len(republish) >= 1,
                  f"{len(republish)} republishes")
        out.check("every batch applied", out.failed == 0,
                  f"{out.failed} failed operations")
        count_execution(session, out)
        out.attempt(ok=False, count=session.quarantined_total)
        if tracer.enabled:
            uncontended_costs(session.store.get(), out)
        # The last cold publish runs over the final claim set; it is the
        # reference the republished snapshot must match.
        with cold_publish(
            list(session.dataset), params, tracer, out, colds
        ) as reference:
            compare_to_cold(
                session.store.get(), reference.store.get(),
                session.iteration.accuracy_tolerance, out,
            )
    finally:
        session.close()

    score_detection(detected, clique_pairs(world), out)
    out.metrics.update(
        setup_s=setup_s,
        cold_publish_s=statistics.median(colds),
        update_p50_s=statistics.median(republish),
    )
    out.record_reads(reads, 90)
    out.report += [
        ("republish_p50_s", statistics.median(republish), "s"),
        ("republishes", len(republish), "count"),
    ]
    return out
