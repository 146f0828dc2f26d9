"""Inputs of every run: the per-seed exported corpus, its staged copies,
the reference answer and the host record.

The world simulator stands in for Rapid7 and is not the system under
test, so it never runs inside a timed region.  A seed's world is built
and exported once per checkout (``_work/corpus/...``, keyed by seed, scale
and a hash of ``src/``) and reused by every later run of that seed.  Each
run then stages fresh copies of that corpus for its repetitions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
CORPUS_NAME = "rapid7"
CORPUS_FORMAT = "columnar"
DIGESTS = BENCH_DIR / "digests.json"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC} (src/repro missing)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for benchmark child processes: this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def source_hash() -> str:
    """Hash of every program source file, so a corpus or reference built by
    other program code is never reused."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Corpus:
    """One seed's exported dataset plus its manifests with 30 and 31
    snapshots."""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.home = WORK / "corpus" / f"{source_hash()}-s{seed}-x{scale}"
        self.data = self.home / "data"
        self.build_s = 0.0

    def ensure(self) -> "Corpus":
        """Build and export the seed's world unless a previous run did."""
        if not (self.home / "meta.json").is_file():
            self._build()
        meta = json.loads((self.home / "meta.json").read_text(encoding="utf-8"))
        self.build_s = meta["build_s"]
        self.manifest = json.loads((self.data / "manifest.json").read_text(encoding="utf-8"))
        self.labels = list(self.manifest["corpora"][CORPUS_NAME])
        shapes = self.manifest["store"][CORPUS_NAME]
        self.rows = sum(shapes[label]["tls_rows"] for label in self.labels)
        self.rows_before_last = self.rows - shapes[self.labels[-1]]["tls_rows"]
        return self

    def _build(self) -> None:
        from repro.datasets import export_dataset
        from repro.world import build_world

        started = time.perf_counter()
        tmp = self.home.with_name(self.home.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        world = build_world(seed=self.seed, scale=self.scale)
        export_dataset(world, tmp / "data", corpus_format=CORPUS_FORMAT)
        build_s = time.perf_counter() - started
        (tmp / "meta.json").write_text(json.dumps({"build_s": build_s}), encoding="utf-8")
        shutil.rmtree(self.home, ignore_errors=True)
        self.home.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, self.home)
        print(f"perfbench: built corpus seed={self.seed} scale={self.scale} "
              f"in {build_s:.1f}s", file=sys.stderr)

    def manifest_text(self, snapshots: int) -> str:
        """The manifest listing the first ``snapshots`` snapshots."""
        manifest = json.loads(json.dumps(self.manifest))
        kept = self.labels[:snapshots]
        manifest["corpora"][CORPUS_NAME] = kept
        manifest["store"][CORPUS_NAME] = {
            label: manifest["store"][CORPUS_NAME][label] for label in kept
        }
        return json.dumps(manifest, indent=2) + "\n"

    def stage(self, target: Path, snapshots: int | None = None) -> float:
        """Lay the corpus out under ``target`` (data files hard-linked, a
        fresh manifest listing the first ``snapshots`` snapshots, default
        all) and open it with the program's reader, fingerprinting every
        snapshot's files.  Returns the seconds it took."""
        from repro.datasets import FileDataset

        started = time.perf_counter()
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.data, target, copy_function=os.link)
        # The manifest is rewritten (swaps replace it), so it must not
        # share its inode with the cached corpus.
        (target / "manifest.json").unlink()
        (target / "manifest.json").write_text(
            self.manifest_text(snapshots or len(self.labels)), encoding="utf-8"
        )
        dataset = FileDataset(target)
        for snapshot in dataset.corpus_snapshots(CORPUS_NAME):
            dataset.snapshot_fingerprint(CORPUS_NAME, snapshot)
        return time.perf_counter() - started

    # -- the reference answers ------------------------------------------------

    def reference_path(self, snapshots: int) -> Path:
        return self.home / f"reference-{snapshots}.json"

    def reference(self, snapshots: int) -> dict | None:
        """The batch-cold answer over the first ``snapshots`` snapshots,
        once one was recorded."""
        path = self.reference_path(snapshots)
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def record_reference(self, answer: dict, snapshots: int) -> None:
        payload = {"digest": answer["digest"], "series": answer["series"]}
        self.reference_path(snapshots).write_text(json.dumps(payload), encoding="utf-8")

    def committed_digest(self, snapshots: int) -> str | None:
        """The digest committed for this seed, scale and snapshot count, if
        any."""
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        return digests.get(f"seed={self.seed},scale={self.scale},snapshots={snapshots}")


def host_record() -> dict:
    """Host facts stored beside every result."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
