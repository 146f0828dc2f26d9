"""The repository benchmark: batch and serve workloads over an exported corpus.

    python3 perfbench/run.py --workload batch-cold --seed 7 --seconds 14 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  The line before it records the host, corpus and load
shape the numbers were taken with.  A traced run also writes a Chrome
trace and its per-layer metrics under ``perfbench/_work/traces``.

Workloads, metrics and the layer-to-metric map: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from corpus import CORPUS_FORMAT, WORK, Corpus, host_record, use_checkout_src

DEFAULT_SCALE = 0.02


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="world scale (default 0.02: 31 snapshots, ~125k TLS rows)")
    args = parser.parse_args()
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    use_checkout_src()
    import spans as spanlib
    from workloads import POLL_INTERVAL, QUERY_RATE, WORKLOADS, Run, end_to_end, per_layer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    measure, traced = WORKLOADS[args.workload]
    corpus = Corpus(args.seed, args.scale).ensure()
    senders = min(2, os.cpu_count() or 1)
    run = Run(args.workload, corpus, args.seed, args.seconds, senders)
    samples: list[dict] = []
    try:
        if args.trace:
            baseline, sample = traced(run)
            metrics, spans, origin = per_layer(run, baseline, sample)
            out_dir = WORK / "traces"
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            (out_dir / f"{stem}.trace.json").write_text(
                json.dumps(spanlib.chrome_trace(spans, origin)), encoding="utf-8"
            )
        else:
            samples = measure(run)
            metrics = end_to_end(run, samples)
    finally:
        run.cleanup()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "corpus": {
            "format": CORPUS_FORMAT,
            "scale": args.scale,
            "snapshots": len(corpus.labels),
            "tls_rows": corpus.rows,
            "world_build_and_export_s": corpus.build_s,
        },
        "serve": {"query_rate_qps": QUERY_RATE, "poll_interval_s": POLL_INTERVAL,
                  "senders": senders},
        "problems": run.problems,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"record": record, "result": result, "samples": samples,
                    "setups": run.setups}, indent=1),
        encoding="utf-8",
    )
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
