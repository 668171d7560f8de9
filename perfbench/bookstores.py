"""Workload ``bookstores``: the Example 4.1 batch pipeline.

Linkage canonicalisation, DEPEN over store pairs sharing >= 10 books,
fused records, then the marginal-gain ordering and three 120-probe online
runs, with reads of the fused records (Q1-Q4, keyword searches, author
lookups) spread between the stages. The only workload where ``linkage/``
and ``query/`` do most of the work; serving does none.

A run makes one whole pass over a catalog generated from the seed and
repeats the offline part (linkage -> DEPEN -> fused records) before each
of the two timed online runs, then again while time is left. A pass takes
15-20 s on two CPUs, so a per-pass timing would be one sample per run;
the gated figures are medians over repeated units instead: the offline
part (``cold_publish_s``, at least three runs of it) and each store probed by the
coverage and marginal-gain online runs (``update_p50_s``, 240 probes).
The repeats sit between the online runs so that both kinds of sample are
spread over the run, not bunched in one stretch of the host's speed.
``pipeline_s`` (the pass without the repeats) is printed.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.query import Query

from perfbench.common import Outcome, score_detection, timed_setup

MIN_OVERLAP = 10
MAX_PROBES = 120
LINKAGE_THRESHOLD = 0.9
KEYWORD_READS = 3000
LOOKUP_READS = 1000
#: Read slices: after the fused records, after the ordering, and after
#: each of the three online runs.
READ_WINDOWS = 5
#: Online runs whose probes ``update_p50_s`` pools. Both probe the large
#: stores first; the random run's small-store probes cost about a third
#: as much, and pooling the two kinds would put the median on the
#: boundary between them, where it moves with the seed's catalog.
TIMED_ORDERINGS = ("coverage", "marginal_gain")


def make_inputs(seed: int, size: str):
    """The catalog and its ground truth, generated from the seed."""
    from repro.generators import generate_bookstore_catalog
    from repro.generators.bookstores import BookstoreConfig

    config = None
    if size == "tiny":
        config = BookstoreConfig(
            n_stores=60, n_books=120, n_listings=2400,
            max_books_per_store=120, n_authors=60, n_copier_cliques=4,
            clique_size=3, copier_min_books=30, copier_max_books=80,
        )
    catalog, world = generate_bookstore_catalog(config, seed=seed)
    return catalog, world, read_mix(world, seed)


def _canonicalise(claims, tracer):
    from repro.linkage import author_list_similarity, canonicalisation_map

    mapping = {}
    for obj in claims.objects:
        values = claims.values_for(obj)
        tracer.count("linkage.values", len(values))
        support = {v: len(p) for v, p in values.items()}
        local = canonicalisation_map(
            list(values), author_list_similarity, LINKAGE_THRESHOLD, support
        )
        for raw, canon in local.items():
            mapping[(obj, raw)] = canon
    return claims.map_values(mapping)


def read_mix(world, seed: int) -> list:
    """Q1-Q4 of Example 4.1, then the keyword and lookup reads.

    Keyword searches over words drawn from the titles are most of the
    reads (so the median is a scan of the fused records), per-book author
    lookups the rest; Q3's fuzzy author match is far slower than both and
    runs once.
    """
    from repro.query import (
        BooksByAuthorQuery,
        KeywordQuery,
        LookupQuery,
        TopPublisherQuery,
    )

    books = sorted(world.records)
    sample_book = books[0]
    rng = random.Random(seed)
    words = sorted({
        word.lower()
        for record in world.records.values()
        for word in record.title.split()
    })
    return [
        KeywordQuery("java"),
        LookupQuery(sample_book),
        BooksByAuthorQuery(world.records[sample_book].authors[0]),
        TopPublisherQuery("Database"),
    ] + [
        KeywordQuery(word) for word in rng.choices(words, k=KEYWORD_READS)
    ] + [
        LookupQuery(book) for book in rng.choices(books, k=LOOKUP_READS)
    ]


class _ProbeClock(Query):
    """Marks the end of each probe of an online run.

    ``OnlineQueryEngine.run`` evaluates its query once after each store it
    probes, so the gaps between these marks are the per-probe update
    times: fold the store in, re-fuse, re-answer.
    """

    def __init__(self, query: Query) -> None:
        self.query = query
        self.marks: list[float] = []

    def evaluate(self, records):
        answer = self.query.evaluate(records)
        self.marks.append(time.perf_counter())
        return answer


def _offline(catalog, tracer, out: Outcome, colds: list):
    """Linkage -> DEPEN -> fused records, timed; returns (result, engine)."""
    from repro.core.params import DependenceParams, IterationParams
    from repro.query import OnlineQueryEngine
    from repro.truth import Depen

    started = time.perf_counter()
    with tracer.span("linkage.canonicalise"):
        canonical = _canonicalise(catalog.field_claims("authors"), tracer)
    depen = Depen(
        params=DependenceParams(false_value_model="empirical"),
        min_overlap=MIN_OVERLAP,
        iteration=IterationParams(max_rounds=4),
    )
    with tracer.span("truth.run"):
        offline = depen.discover(canonical)
    engine = OnlineQueryEngine(
        catalog, accuracies=offline.accuracies, dependence=offline.dependence
    )
    with tracer.span("query.final_records"):
        engine.final_records()
    colds.append(time.perf_counter() - started)
    out.attempt(count=3)
    tracer.count("truth.rounds", offline.rounds)
    for trace in offline.trace:
        tracer.count("truth.pairs_rescored", trace.pairs_rescored or 0)
        tracer.count("truth.pairs_reused", trace.pairs_reused or 0)
    return offline, engine


def _one_pass(catalog, world, queries, tracer, out: Outcome, colds: list,
              probes: list, reads: list):
    """One full pipeline pass, with a repeat of the offline part before
    each timed online run; returns (pass seconds without the repeats,
    whether the repeats matched, state for checks)."""
    from repro.query import (
        KeywordQuery,
        coverage_order,
        marginal_gain_order,
        random_order,
    )

    started = time.perf_counter()
    offline, engine = _offline(catalog, tracer, out, colds)
    records = engine.final_records()
    answers: list = [None] * len(queries)
    repeats_s, repeats_agree = 0.0, True

    def read_window(window: int) -> None:
        # Reads are spread over the pass in READ_WINDOWS slices, so one
        # short burst of machine noise cannot shift the whole sample.
        for i in range(window, len(queries), READ_WINDOWS):
            began = time.perf_counter()
            answers[i] = queries[i].evaluate(records)
            reads.append(time.perf_counter() - began)
            out.attempt()

    read_window(0)
    with tracer.span("query.order"):
        gain = marginal_gain_order(
            catalog, offline.accuracies, offline.dependence,
            max_sources=MAX_PROBES,
        )
    out.attempt()
    keyword = KeywordQuery("java")
    reference = keyword.evaluate(world.true_records())
    read_window(1)
    runs = {}
    for window, (name, order) in enumerate((
        ("random", random_order(catalog.stores, seed=3)),
        ("coverage", coverage_order(catalog)),
        ("marginal_gain", gain),
    ), start=2):
        if name in TIMED_ORDERINGS:
            began = time.perf_counter()
            _, repeat = _offline(catalog, tracer, out, colds)
            repeats_agree &= repeat.final_records() == records
            repeats_s += time.perf_counter() - began
        clock = _ProbeClock(keyword)
        began = time.perf_counter()
        with tracer.span("query.online_run"):
            runs[name] = engine.run(
                clock, order, reference=reference, max_probes=MAX_PROBES
            )
        if name in TIMED_ORDERINGS:
            marks = [began, *clock.marks]
            probes += [end - start for start, end in zip(marks, marks[1:])]
        tracer.count("query.probes", len(runs[name].steps))
        out.attempt()
        read_window(window)
    elapsed = time.perf_counter() - started - repeats_s
    state = (offline, records, queries, answers, runs)
    return elapsed, repeats_agree, state


def _check(out: Outcome, world, state) -> None:
    """Output checks, outside the timed region."""
    from repro.eval import area_under_quality_curve
    from repro.linkage import author_list_similarity

    offline, _, queries, answers, runs = state
    score = score_detection(
        offline.dependence.detected_pairs(0.5), world.dependent_pairs(), out
    )
    out.check("detection precision >= 0.3", score.precision >= 0.3,
              f"{score.precision:.3f}")

    truth = world.true_records()
    q1, q2, q3, q4 = queries[:4]
    scores = {
        "Q1": Query.answer_f1(answers[0], q1.evaluate(truth)),
        "Q3": Query.answer_f1(answers[2], q3.evaluate(truth)),
        "Q4": Query.answer_f1(answers[3], q4.evaluate(truth)),
    }
    expected = q2.evaluate(truth)
    scores["Q2"] = (
        0.0 if answers[1] is None
        else author_list_similarity(tuple(answers[1]), tuple(expected))
    )
    # Titles, publishers and categories are clean in this catalog, so Q1
    # and Q4 must be exact; author answers are judged by list similarity.
    out.check("Q1 exact", scores["Q1"] == 1.0, f"F1 {scores['Q1']:.3f}")
    out.check("Q4 exact", scores["Q4"] == 1.0, f"F1 {scores['Q4']:.3f}")
    out.check("Q2 authors match", scores["Q2"] >= LINKAGE_THRESHOLD,
              f"similarity {scores['Q2']:.3f}")
    out.check("Q3 F1 >= 0.5", scores["Q3"] >= 0.5, f"F1 {scores['Q3']:.3f}")
    keyword_end = 4 + KEYWORD_READS
    inexact = sum(
        Query.answer_f1(answer, q.evaluate(truth)) != 1.0
        for q, answer in zip(queries[4:keyword_end], answers[4:keyword_end])
    )
    out.check("keyword reads exact", inexact == 0,
              f"{inexact} of {KEYWORD_READS} differ")
    lookups = [
        answer is not None
        and author_list_similarity(tuple(answer), tuple(q.evaluate(truth)))
        >= LINKAGE_THRESHOLD
        for q, answer in zip(queries[keyword_end:], answers[keyword_end:])
    ]
    share = sum(lookups) / len(lookups)
    out.report.append(("lookup_author_accuracy", share, "ratio"))
    out.check("per-book author lookups >= 0.8 right", share >= 0.8,
              f"{share:.3f}")
    aucs = {
        name: area_under_quality_curve(run.quality_series())
        for name, run in runs.items()
    }
    for name, auc in aucs.items():
        out.report.append((f"auc_{name}", auc, "ratio"))
    out.check(
        "marginal-gain ordering beats random",
        aucs["marginal_gain"] >= aucs["random"],
        f"{aucs['marginal_gain']:.3f} vs {aucs['random']:.3f}",
    )


def run(seed: int, seconds: float, tracer, size: str = "full") -> Outcome:
    from repro.core.params import DependenceParams

    (catalog, world, queries), setup_s = timed_setup(
        lambda: make_inputs(seed, size)
    )
    out = Outcome(params=DependenceParams(false_value_model="empirical"))
    reads: list[float] = []
    probes: list[float] = []
    colds: list[float] = []
    began = time.perf_counter()
    pipeline_s, repeats_agree, state = _one_pass(
        catalog, world, queries, tracer, out, colds, probes, reads
    )
    while time.perf_counter() - began + statistics.median(colds) <= seconds:
        _, engine = _offline(catalog, tracer, out, colds)
        repeats_agree &= engine.final_records() == state[1]
    _check(out, world, state)
    out.check("repeated offline runs agree", repeats_agree,
              f"{len(colds)} runs")
    out.metrics.update(
        setup_s=setup_s,
        cold_publish_s=statistics.median(colds),
        update_p50_s=statistics.median(probes),
    )
    out.report += [
        ("pipeline_s", pipeline_s, "s"),
        ("offline_runs", len(colds), "count"),
        ("probes", len(probes), "count"),
    ]
    out.record_reads(reads, 90)
    return out
