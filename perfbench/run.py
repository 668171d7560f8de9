"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bookstores --seed 1 --seconds 25 --trace 0

Workloads: ``bookstores``, ``session_mutation``, ``serve_churn`` (see
``perfbench/README.md``). The program under test is the library in
``src/`` of the same checkout; it receives only inputs generated from
``--seed``. With ``--trace 0`` the last line of output is a JSON object
carrying every end-to-end metric; with ``--trace 1`` the same workload
runs with a span around each call into a layer, and the JSON carries the
per-layer metrics instead. Human-readable lines (provenance, every
figure by name and unit, the output checks, and in traced runs the
per-layer self-time table) come first. The exit code is non-zero when an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("bookstores", "session_mutation", "serve_churn"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the harness's own smoke test",
    )
    return parser.parse_args(argv)


def _layer_metrics(tracer, out, measured_s: float) -> dict[str, float]:
    from perfbench.common import PER_LAYER

    # Span self times first; counters and workload-set values override.
    table = tracer.layer_table()
    values = {
        name: table.get(name.removesuffix("_s"), {}).get("self_s", 0.0)
        for name in PER_LAYER
    }
    for name, count in tracer.counts.items():
        if name in values:
            values[name] = float(count)
    for name, value in out.layer.items():
        values[name] = float(value)
    values["trace.spans"] = float(len(tracer.spans))
    values["trace.overhead_pct"] = (
        100.0 * tracer.overhead_s() / measured_s if measured_s > 0 else 0.0
    )
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # The library must come from this checkout: fail before any result
    # when it is missing.
    import repro  # noqa: F401

    from perfbench import bookstores, serve_churn, session_mutation
    from perfbench.common import END_TO_END, PER_LAYER, peak_rss_mb
    from perfbench.common import provenance
    from perfbench.tracing import Tracer

    workloads = {
        "bookstores": bookstores,
        "session_mutation": session_mutation,
        "serve_churn": serve_churn,
    }
    tracer = Tracer(enabled=bool(args.trace))
    # The copier worlds overlap beyond the evidence model's calibration
    # bound on purpose (they are the reference worlds); the warning says
    # nothing about the run.
    warnings.filterwarnings("ignore", message="candidate pair .* overlaps")
    started = time.perf_counter()
    out = workloads[args.workload].run(
        args.seed, args.seconds, tracer, size=args.size
    )
    measured_s = time.perf_counter() - started - out.untimed_s
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["success_rate"] = 1.0 - out.failed / max(1, out.attempted)

    print("provenance " + json.dumps(provenance(args.seed, out.params),
                                     sort_keys=True, default=str))
    for name, value in sorted(out.metrics.items()):
        print(f"metric {name} = {value:.6g} {END_TO_END[name]}")
    print(f"metric error_rate = {1.0 - out.metrics['success_rate']:.6g} ratio")
    for name, value, unit in out.report:
        print(f"figure {name} = {value:.6g} {unit}")
    for name, passed, detail in out.checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}: {detail}")

    if args.trace:
        values = _layer_metrics(tracer, out, measured_s)
        print(f"{'span':<24} {'calls':>8} {'total s':>10} {'self s':>10}")
        for name, row in sorted(tracer.layer_table().items()):
            print(f"{name:<24} {row['calls']:>8} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f}")
        metrics = {n: {"value": values[n], "unit": PER_LAYER[n]}
                   for n in PER_LAYER}
    else:
        metrics = {n: {"value": out.metrics[n], "unit": END_TO_END[n]}
                   for n in END_TO_END}
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
