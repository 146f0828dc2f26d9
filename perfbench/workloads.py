"""The workloads and the metrics each run reports.

Every workload reports every end-to-end metric (see README.md for what
each one means on each workload).  A batch run repeats its workload as
often as the first repetition fits into ``seconds`` (at least once);
serve-ingest runs its load for ``seconds``.  Each
end-to-end value is the median over the run's repetitions.  Every batch
run, query, ingest and daemon start or stop counts as one operation; a
wrong answer, an error or a timeout counts as a failed one.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spanlib
from corpus import BENCH_DIR, ROOT, Corpus, child_env, dir_bytes
from loadgen import Client, OpenLoop, http_sender

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("rerun_s", "s"),
    ("ingest_lag_s", "s"),
    ("rows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("state_mb", "MB"),
)

#: Layers, named after the program's modules (``startup``: importing the
#: program); each reports calls and self_s.
LAYERS = (
    "startup", "datasets", "bgp", "validation", "header_fingerprint", "stages", "signals",
    "cache", "executor", "pipeline", "serve", "footprint_index",
)
STAGES = (
    "scan", "ingest", "validate", "vstats", "match", "onnet", "candidates",
    "confirm", "netflix",
)

#: Per-layer metrics: (name, unit).
PER_LAYER = (
    tuple((f"{layer}.{kind}", unit) for layer in LAYERS
          for kind, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("datasets.scan.self_s", "s"),
        ("datasets.ip2as.self_s", "s"),
        ("datasets.rows", "count"),
        ("bgp.prefixes", "count"),
        ("validation.cache_hit_ratio", "ratio"),
        ("validation.unique_chain_ratio", "ratio"),
    )
    + tuple((f"stages.{stage}.self_s", "s") for stage in STAGES)
    + (
        ("stages.match.subset_reuse_ratio", "ratio"),
        ("signals.confirmed_ratio", "ratio"),
        ("cache.get.self_s", "s"),
        ("cache.put.self_s", "s"),
        ("cache.hit_ratio", "ratio"),
        ("cache.put.bytes", "bytes"),
        ("serve.query_p50_ms", "ms"),
        ("serve.query_p99_ms", "ms"),
        ("serve.handle_query.p50_ms", "ms"),
        ("serve.handle_query.p99_ms", "ms"),
        ("serve.http_overhead_p50_ms", "ms"),
        ("serve.ingest.ingested", "count"),
        ("serve.ingest.skipped", "count"),
        ("serve.poll_wait_s", "s"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.sent", "count"),
        ("trace.unattributed_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    )
)

#: Fixed load shape of serve-ingest.
QUERY_RATE = 50.0
POLL_INTERVAL = 0.2
#: The load is cut into windows; the 31st snapshot's manifest is swapped in
#: this far into each window and restored at the window's end.
WINDOW_S = 4.5
SWAP_AT_S = 1.5
STATUS_POLL_S = 0.05
#: Restarts on the kept index per serve-ingest run (rerun_s is their median).
RESTARTS = 8
#: In-process re-runs each batch-cold repetition makes, and fresh-pipeline
#: re-runs over the filled cache each batch-cached one makes.
BATCH_RERUNS = 8
CACHED_RERUNS = 4
#: Corpus stagings per run at least (setup_s is their median).
MIN_SETUPS = 7
#: Spans of idle waiting: booked as wait time, not as their layer's self time.
WAIT_SPANS = ("serve.poll_wait",)
#: Spans must cover this share of the traced run's wall, or the run fails.
MAX_UNATTRIBUTED = 0.10
CHILD_TIMEOUT_S = 150.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))]


class Run:
    """One benchmark invocation: its inputs, scratch space and tallies."""

    def __init__(self, workload: str, corpus: Corpus, seed: int, seconds: float,
                 senders: int) -> None:
        self.workload = workload
        self.corpus = corpus
        self.seed = seed
        self.seconds = seconds
        self.senders = senders
        self.dir = corpus.home.parent.parent / "runs" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[float] = []
        self._staged = 0
        self._staged_snapshots: int | None = None

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed one is recorded with ``what``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok

    def stage(self, snapshots: int | None = None) -> Path:
        """A freshly staged copy of the corpus; each staging is timed."""
        target = self.dir / f"stage{self._staged}" / "data"
        self._staged += 1
        self._staged_snapshots = snapshots
        self.setups.append(self.corpus.stage(target, snapshots))
        return target

    def stage_extra(self) -> None:
        """Stage (and discard) copies like the last one until
        ``MIN_SETUPS`` stagings were timed."""
        while len(self.setups) < MIN_SETUPS:
            shutil.rmtree(self.stage(self._staged_snapshots).parent)

    def check_answer(self, answer: dict, what: str, snapshots: int) -> bool:
        """A batch answer over the first ``snapshots`` snapshots must equal
        the seed's reference (and, for a seed with a committed digest, that
        digest)."""
        reference = self.corpus.reference(snapshots)
        committed = self.corpus.committed_digest(snapshots)
        if reference is None:
            if committed is not None and answer["digest"] != committed:
                return self.check(False, f"{what}: digest differs from the committed one")
            self.corpus.record_reference(answer, snapshots)
            reference = answer
        ok = answer["digest"] == reference["digest"] and answer["series"] == reference["series"]
        if committed is not None:
            ok = ok and answer["digest"] == committed
        return self.check(ok, f"{what}: answer differs from the reference")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def repeat(run: Run, rep) -> list[dict]:
    """Repeat ``rep()`` as often as the first repetition fits into the run's
    seconds, but at least once."""
    started = time.monotonic()
    samples = [rep()]
    count = round(run.seconds / (time.monotonic() - started))
    while len(samples) < count:
        samples.append(rep())
    return samples


def spawn(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S) -> int:
    """Run a benchmark child process to completion; returns its exit code."""
    with log.open("w", encoding="utf-8") as handle:
        process = subprocess.Popen(
            [sys.executable, *argv], stdout=handle, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        try:
            return process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            return -1


# -- batch workloads ---------------------------------------------------------------


def batch_child(run: Run, data: Path, out_dir: Path, snapshots: int, *, cache_dir=None,
                reruns=0, fresh_reruns=False, trace=False, name="run",
                t0: float | None = None) -> dict | None:
    """One fresh-process batch run over the first ``snapshots`` snapshots
    (the manifest staged in ``data``); every answer it returns is checked.
    ``t0`` (default: the spawn) is where its wall time starts."""
    out = out_dir / f"{name}.json"
    report = out_dir / f"{name}-report.json"
    argv = [str(BENCH_DIR / "batch_child.py"), "--dir", str(data), "--out", str(out),
            "--reruns", str(reruns), "--report", str(report)]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if fresh_reruns:
        argv.append("--fresh-reruns")
    if trace:
        argv.append("--trace")
    argv += ["--t0", repr(time.monotonic() if t0 is None else t0)]
    code = spawn(argv, out_dir / f"{name}.log")
    if not run.check(code == 0 and out.is_file(), f"batch {name} exited with {code}"):
        return None
    result = json.loads(out.read_text(encoding="utf-8"))
    result["report_bytes"] = report.stat().st_size
    run.check_answer(result["answer"], f"batch {name}", snapshots)
    for index, answer in enumerate(result["rerun_answers"]):
        run.check_answer(answer, f"batch {name} re-run {index}", snapshots)
    return result


def cold_rep(run: Run, trace: bool = False) -> dict:
    """One batch-cold repetition: a fresh process runs the pipeline without
    a disk stage cache, then re-runs the same pipeline object in-process.
    Returns the metric samples and, when traced, the child's raw result."""
    total = len(run.corpus.labels)
    data = run.stage()
    child = batch_child(run, data, data.parent, total, reruns=0 if trace else BATCH_RERUNS,
                        trace=trace)
    shutil.rmtree(data.parent)
    if child is None:
        return {}
    sample = {
        "run_s": child["run_s"],
        # Without a stage cache a batch user takes a new snapshot in with a
        # full run, so here the lag is the run itself.
        "ingest_lag_s": child["run_s"],
        "rows_per_s": run.corpus.rows / child["run_s"],
        "cpu_s": child["cpu_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "state_mb": child["report_bytes"] / 2**20,
        "rerun_s": child["rerun_s"],
    }
    if trace:
        sample["children"] = [child]
    return sample


def cached_rep(run: Run, trace: bool = False) -> dict:
    """One batch-cached repetition.  A fresh process fills an empty
    ``--cache-dir`` over the first 30 snapshots; the 31st snapshot's
    manifest is swapped in and a second fresh process runs over the filled
    cache (the ingest); it then re-runs with a new dataset and pipeline
    each time, which share nothing with the ingest run but the cache."""
    total = len(run.corpus.labels)
    data = run.stage(total - 1)
    rep_dir = data.parent
    cache_dir = rep_dir / "cache"
    sample: dict = {}
    fill = batch_child(run, data, rep_dir, total - 1, cache_dir=cache_dir, trace=trace,
                       name="fill")
    if fill is not None:
        sample.update({
            "run_s": fill["run_s"],
            "rows_per_s": run.corpus.rows_before_last / fill["run_s"],
            "cpu_s": fill["cpu_s"],
            "peak_rss_mb": fill["peak_rss_mb"],
            "state_mb": (fill["report_bytes"] + dir_bytes(cache_dir)) / 2**20,
        })
        _write_manifest(data, run.corpus.manifest_text(total))
        swapped = time.monotonic()
        ingest = batch_child(run, data, rep_dir, total, cache_dir=cache_dir,
                             reruns=1 if trace else CACHED_RERUNS, fresh_reruns=True,
                             trace=trace, name="ingest", t0=swapped)
        if ingest is not None:
            sample["ingest_lag_s"] = ingest["run_s"]
            sample["rerun_s"] = ingest["rerun_s"]
            if trace:
                sample["children"] = [fill, ingest]
    shutil.rmtree(rep_dir)
    return sample


def batch_workload(rep, references: tuple[int, ...]):
    """``rep`` repeated.  ``references`` lists the reference answers the
    workload is checked against that must exist before it starts, each as
    the number of trailing snapshots its manifest leaves out."""

    def measure(run: Run) -> list[dict]:
        ensure_references(run, references)
        samples = repeat(run, lambda: rep(run))
        run.stage_extra()
        return samples

    def traced(run: Run) -> tuple[dict, dict]:
        ensure_references(run, references)
        return rep(run), rep(run, trace=True)

    return measure, traced


# -- serve-ingest --------------------------------------------------------------------


class Daemon:
    """``repro serve`` in its own process, started through the launcher."""

    def __init__(self, data: Path, state: Path, log: Path, trace_out: Path | None) -> None:
        self.data, self.state, self.log, self.trace_out = data, state, log, trace_out
        self.process: subprocess.Popen | None = None
        self.client: Client | None = None
        self.base_url: str | None = None

    def start(self) -> float:
        """Launch; returns the monotonic launch time."""
        (self.state / "endpoint.json").unlink(missing_ok=True)
        argv = [str(BENCH_DIR / "serve_launcher.py")]
        if self.trace_out is not None:
            argv += ["--trace-out", str(self.trace_out)]
        argv += ["--", "serve", "--dir", str(self.data), "--state-dir", str(self.state),
                 "--poll-interval", str(POLL_INTERVAL), "--port", "0"]
        self._log = self.log.open("w", encoding="utf-8")
        started = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, *argv], stdout=self._log, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT,
        )
        return started

    def url(self, timeout: float) -> str | None:
        deadline = time.monotonic() + timeout
        endpoint = self.state / "endpoint.json"
        while time.monotonic() < deadline and self.process.poll() is None:
            try:
                return json.loads(endpoint.read_text(encoding="utf-8"))["url"]
            except (FileNotFoundError, json.JSONDecodeError, KeyError):
                time.sleep(0.005)
        return None

    def wait_listed(self, count: int, timeout: float) -> bool:
        """Poll ``/status`` until it lists ``count`` snapshots."""
        deadline = time.monotonic() + timeout
        if self.client is None:
            self.base_url = self.url(timeout)
            if self.base_url is None:
                return False
            self.client = Client(self.base_url)
        while time.monotonic() < deadline and self.process.poll() is None:
            try:
                status, body = self.client.get("status")
                if status == 200 and len(body["snapshots"]) == count:
                    return True
            except OSError:
                pass
            time.sleep(STATUS_POLL_S)
        return False

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        self.client = None
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        code = self.process.returncode
        self.process = None
        return code


def _write_manifest(data: Path, text: str) -> None:
    tmp = data / "manifest.json.swap"
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, data / "manifest.json")


def serve_plan(run: Run, hypergiants: list[str]) -> list:
    """The endpoint mix of the serve load benchmark over the 30 served
    snapshots, in a seed-shuffled order."""
    labels = run.corpus.labels
    first, last = labels[0], labels[-2]
    plan = []
    for hg in hypergiants:
        plan.append(("series", {"hg": hg}))
        plan.append(("footprint", {"hg": hg, "snapshot": last}))
        plan.append(("diff", {"hg": hg, "from": first, "to": last}))
        plan.append(("slice", {"by": "country", "hg": hg, "snapshot": last}))
    random.Random(run.seed).shuffle(plan)
    return plan


def serve_rep(run: Run, trace: bool = False, load: bool = True) -> dict:
    """Cold start over 30 snapshots, open-loop load with manifest swaps of
    the 31st, the served answers checked, then restarts on the kept index
    (``load=False``: the cold start only)."""
    total = len(run.corpus.labels)
    data = run.stage(total - 1)
    rep_dir = data.parent
    state = rep_dir / "state"
    run.stage_extra()
    trace_files = [rep_dir / "cold.spans.json", rep_dir / "warm.spans.json"] if trace else []
    daemon = Daemon(data, state, rep_dir / "cold.log", trace_files[0] if trace else None)
    sample: dict = {}
    # The timed walls of the cold and the restarted daemon on this
    # process's monotonic clock: spawn -> ready and each swap -> listed.
    cold_walls: list[tuple[float, float]] = []
    warm_walls: list[tuple[float, float]] = []
    try:
        started = daemon.start()
        if not run.check(daemon.wait_listed(total - 1, CHILD_TIMEOUT_S), "daemon cold start"):
            return sample
        cold_walls.append((started, time.monotonic()))
        sample["run_s"] = cold_walls[0][1] - started
        sample["cpu_s"] = daemon.cpu_s()
        sample["rows_per_s"] = run.corpus.rows_before_last / sample["run_s"]
        if not load:
            return sample
        reference = run.corpus.reference(total)
        plan = serve_plan(run, sorted(reference["series"]))
        loop = OpenLoop(plan, QUERY_RATE, run.seconds, http_sender(daemon.base_url),
                        senders=run.senders)
        loop.start()
        ingests = swap_cycles(run, daemon, data, loop)
        cold_walls += ingests
        lags = [listed - swapped for swapped, listed in ingests]
        loop.join(run.seconds + 60.0)
        samples = loop.samples
        for item in samples:
            run.check(item.ok, "query")
        sample.update({
            "ingest_lag_s": statistics.median(lags) if lags else None,
            "query_ms": [item.latency * 1e3 for item in samples],
            "late_p99_ms": percentile([item.late for item in samples], 0.99) * 1e3,
            "service_p50_ms": percentile([item.done - item.sent for item in samples], 0.5) * 1e3,
            "sent": len(samples),
        })
        check_served(run, daemon, reference)
        sample["peak_rss_mb"] = daemon.peak_rss_mb()
        sample["state_mb"] = dir_bytes(state) / 2**20
        run.check(daemon.stop() == 0, "daemon stop")

        sample["rerun_s"] = []
        for restart in range(1 if trace else RESTARTS):
            daemon = Daemon(data, state, rep_dir / f"warm{restart}.log",
                            trace_files[1] if trace else None)
            started = daemon.start()
            if run.check(daemon.wait_listed(total, CHILD_TIMEOUT_S), "daemon restart"):
                warm_walls.append((started, time.monotonic()))
                sample["rerun_s"].append(warm_walls[-1][1] - started)
            run.check(daemon.stop() == 0, "daemon stop")
    finally:
        daemon.stop()
    if trace:
        sample["trace_files"] = [(str(path), walls) for path, walls
                                 in zip(trace_files, (cold_walls, warm_walls)) if path.is_file()]
    return sample


def swap_cycles(run: Run, daemon: Daemon, data: Path,
                loop: OpenLoop) -> list[tuple[float, float]]:
    """In each window of the load, swap the 31st snapshot's manifest in
    and wait until ``/status`` lists it; at the window's end restore the
    manifest and await the removal.  The last swap stays in.  Returns the
    monotonic (swapped, listed) times of each ingest."""
    total = len(run.corpus.labels)
    with_last, without_last = run.corpus.manifest_text(total), run.corpus.manifest_text(total - 1)
    windows = max(1, round(run.seconds / WINDOW_S))
    length = run.seconds / windows
    ingests = []
    for window in range(windows):
        start = loop.start_time + window * length
        time.sleep(max(0.0, start + min(SWAP_AT_S, length / 2) - time.perf_counter()))
        _write_manifest(data, with_last)
        swapped = time.monotonic()
        if run.check(daemon.wait_listed(total, 60.0), "ingest of the new snapshot"):
            ingests.append((swapped, time.monotonic()))
        if window < windows - 1:
            time.sleep(max(0.0, start + length - time.perf_counter()))
            _write_manifest(data, without_last)
            run.check(daemon.wait_listed(total - 1, 60.0), "removal of the new snapshot")
    return ingests


def check_served(run: Run, daemon: Daemon, reference: dict) -> None:
    """After ingest, ``/series`` of every hypergiant equals the batch answer."""
    status, body = daemon.client.get("hypergiants")
    run.check(status == 200 and sorted(body["hypergiants"]) == sorted(reference["series"]),
              "served hypergiants differ from the batch answer")
    for hg, counts in sorted(reference["series"].items()):
        status, body = daemon.client.get("series", {"hg": hg})
        run.check(status == 200 and body["counts"] == counts,
                  f"served /series for {hg} differs from the batch answer")


def serve_measure(run: Run) -> list[dict]:
    ensure_references(run, (0,))
    return [serve_rep(run)]


def serve_traced(run: Run) -> tuple[dict, dict]:
    ensure_references(run, (0,))
    return serve_rep(run, load=False), serve_rep(run, trace=True)


def ensure_references(run: Run, references: tuple[int, ...]) -> None:
    """Answers are checked against the seed's batch-cold answers; make each
    one (a jobs=1 run without a stage cache over all snapshots but the
    last ``dropped``) that this checkout has not recorded for the seed yet.
    This is set-up: it is neither timed nor counted."""
    total = len(run.corpus.labels)
    for dropped in references:
        snapshots = total - dropped
        if run.corpus.reference(snapshots) is not None:
            continue
        out_dir = run.dir / f"reference-{snapshots}"
        data = out_dir / "data"
        run.corpus.stage(data, snapshots)
        attempted = run.attempted
        batch_child(run, data, out_dir, snapshots, name="reference")
        run.attempted = attempted  # set-up, not a measured operation
        if run.corpus.reference(snapshots) is None:
            raise SystemExit("perfbench: could not record a reference answer")
        shutil.rmtree(out_dir)


WORKLOADS = {
    "batch-cold": batch_workload(cold_rep, references=()),
    "batch-cached": batch_workload(cached_rep, references=(0, 1)),
    "serve-ingest": (serve_measure, serve_traced),
}


# -- metrics --------------------------------------------------------------------------


def end_to_end(run: Run, samples: list[dict]) -> dict:
    """Each end-to-end metric: the median of its values over the run's
    repetitions (re-runs pooled over all repetitions first)."""
    pooled = {
        "setup_s": run.setups,
        "rerun_s": [value for s in samples for value in s.get("rerun_s", [])],
    }
    metrics = {}
    for name, unit in END_TO_END:
        values = pooled.get(name) or [s[name] for s in samples if s.get(name) is not None]
        if not values:
            run.check(False, f"no sample of {name}")
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics


def per_layer(run: Run, baseline: dict, traced: dict) -> tuple[dict, list[dict], float]:
    """Per-layer metrics of a traced repetition, plus its spans (for the
    Chrome trace) and the clock origin."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    all_spans: list[dict] = []
    counters: dict = {}
    # (pid, (start, end)): the walls the timed metrics measure, on the
    # traced process's clock.
    windows: list[tuple[int, tuple[float, float]]] = []
    report = None
    for child in traced.get("children", []):
        trace = child["trace"]
        all_spans += trace["spans"]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        windows += [(trace["pid"], tuple(window)) for window in trace["windows"]]
        if report is None:
            report = child["report"]
    for path, walls in traced.get("trace_files", []):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        spans = payload["spans"]
        all_spans += spans
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if spans:
            offset = payload["clock_offset"]
            windows += [(spans[0]["pid"], (low + offset, high + offset)) for low, high in walls]

    waits = [s for s in all_spans if s["name"] in WAIT_SPANS]
    totals = spanlib.layer_totals([s for s in all_spans if s["name"] not in WAIT_SPANS])
    for key, entry in totals.items():
        for kind in ("calls", "self_s"):
            if f"{key}.{kind}" in values:
                values[f"{key}.{kind}"] = entry[kind]
    for key in ("datasets.rows", "bgp.prefixes", "cache.put.bytes",
                "serve.ingest.ingested", "serve.ingest.skipped"):
        values[key] = counters.get(key, 0)
    gets = counters.get("cache.get.hits", 0) + counters.get("cache.get.misses", 0)
    values["cache.hit_ratio"] = counters.get("cache.get.hits", 0) / gets if gets else 0.0

    if report is not None:
        store = report["store"]
        values["validation.cache_hit_ratio"] = report["cache_hit_rate"]
        values["validation.unique_chain_ratio"] = store["unique_chain_ratio"]
        work = store["match_work"]
        tests = work["subset_tests_computed"] + work["subset_tests_reused"]
        values["stages.match.subset_reuse_ratio"] = (
            work["subset_tests_reused"] / tests if tests else 0.0
        )
        verdicts = {}
        for per_signal in report["signals"]["verdicts"].values():
            for verdict, count in per_signal.items():
                verdicts[verdict] = verdicts.get(verdict, 0) + count
        judged = sum(verdicts.values())
        values["signals.confirmed_ratio"] = verdicts.get("confirm", 0) / judged if judged else 0.0

    queries = [s["end"] - s["start"] for s in all_spans
               if s["name"] == "serve.handle_query"
               and s.get("detail", "").strip("/") not in ("status", "metrics")]
    if queries:
        values["serve.handle_query.p50_ms"] = percentile(queries, 0.50) * 1e3
        values["serve.handle_query.p99_ms"] = percentile(queries, 0.99) * 1e3
        values["serve.http_overhead_p50_ms"] = (
            traced["service_p50_ms"] - values["serve.handle_query.p50_ms"]
        )
    if "sent" in traced:
        values["serve.query_p50_ms"] = statistics.median(traced["query_ms"])
        values["serve.query_p99_ms"] = percentile(traced["query_ms"], 0.99)
        values["loadgen.late_p99_ms"] = traced["late_p99_ms"]
        values["loadgen.sent"] = traced["sent"]

    values["serve.poll_wait_s"] = sum(spanlib.coverage(waits, pid, window)
                                      for pid, window in windows)
    if windows:
        wall = sum(high - low for _, (low, high) in windows)
        covered = sum(spanlib.coverage(all_spans, pid, window) for pid, window in windows)
        values["trace.unattributed_ratio"] = 1.0 - covered / wall
        if values["trace.unattributed_ratio"] > MAX_UNATTRIBUTED:
            run.check(False, f"spans cover only {covered / wall:.1%} of the "
                             f"traced wall (at least {1 - MAX_UNATTRIBUTED:.0%} needed)")
    else:
        run.check(False, "no traced window to attribute")
    if baseline.get("run_s") and traced.get("run_s"):
        values["trace.overhead_ratio"] = traced["run_s"] / baseline["run_s"] - 1.0
    origin = min((s["start"] for s in all_spans), default=0.0)
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in values}, all_spans, origin
