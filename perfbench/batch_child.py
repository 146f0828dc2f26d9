"""One timed batch run in a fresh process.

    python3 batch_child.py --dir D [--cache-dir C] --t0 T --out R.json --report P
        [--reruns K [--fresh-reruns]] [--trace]

Runs the §4 pipeline at ``jobs=1`` over the dataset in ``D`` the way
``repro run --dir`` does, then writes what it measured to ``R.json``.
``--t0`` is the parent's monotonic clock when it spawned this process (or
swapped in the manifest it runs over), so the run's wall time includes
interpreter start and imports, as a user's command would.

After the run (outside its wall time) the process writes the run report
to ``--report`` and re-runs ``--reruns`` times: with the same pipeline
object, which reuses its in-memory stage cache, or with ``--fresh-reruns``
with a new dataset and pipeline each time, which share nothing with the
first run but the disk stage cache.  Every run's answer is returned, so
the parent checks the re-runs as well as the first run.

With ``--trace`` the layer probes are installed first and the spans are
returned with the traced windows: from ``--t0`` to the end of the run (the
wall of ``run_s``) and each re-run's wall.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time

_T0 = time.monotonic()


def answer_of(report: dict, result) -> dict:
    """The checked answer: the run report's deterministic view as a digest,
    plus each hypergiant's confirmed series."""
    from repro.obs import deterministic_view

    view = json.dumps(deterministic_view(report), sort_keys=True)
    return {
        "digest": hashlib.sha256(view.encode("utf-8")).hexdigest(),
        "series": {
            hg: [count for _, count in result.series(hg)] for hg in result.hypergiants()
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--t0", type=float, default=_T0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--reruns", type=int, default=0)
    parser.add_argument("--fresh-reruns", action="store_true")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import probes
        from spans import Tracer

        tracer = Tracer()
        probes.install(tracer)

    from repro.core import OffnetPipeline, PipelineOptions
    from repro.datasets import FileDataset
    from repro.obs.report import write_report

    options = PipelineOptions(jobs=1, cache_dir=args.cache_dir)
    pipeline = OffnetPipeline(FileDataset(args.dir), options)
    result = pipeline.run()
    run_end = time.perf_counter()
    run_s = time.monotonic() - args.t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    report = result.report()
    out = {
        "run_s": run_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "answer": answer_of(report, result),
        "report": {
            "cache_hit_rate": report["cache"]["hit_rate"],
            "store": report["store"],
            "signals": report["signals"],
        },
    }
    write_report(report, args.report)

    # perf_counter and monotonic are the same clock on Linux; the offset
    # keeps the traced window right where they are not.
    windows = [(args.t0 + time.perf_counter() - time.monotonic(), run_end)]
    out["rerun_s"], out["rerun_answers"] = [], []
    for _ in range(args.reruns):
        started = time.perf_counter()
        if args.fresh_reruns:
            rerun = OffnetPipeline(FileDataset(args.dir), options).run()
        else:
            rerun = pipeline.run()
        windows.append((started, time.perf_counter()))
        out["rerun_s"].append(windows[-1][1] - started)
        out["rerun_answers"].append(answer_of(rerun.report(), rerun))

    if tracer is not None:
        out["trace"] = {
            "spans": tracer.spans,
            "counters": dict(tracer.counters),
            "windows": windows,
            "pid": os.getpid(),
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main()
