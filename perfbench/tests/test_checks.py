"""Every batch answer a child returns, re-runs included, is checked."""

import json
from pathlib import Path

import workloads

GOOD = {"digest": "a", "series": {"google": [1, 2]}}
STALE = {"digest": "b", "series": {"google": [1, 2]}}


class StubCorpus:
    def __init__(self, home: Path) -> None:
        self.home = home / "corpus" / "seed"

    def reference(self, snapshots):
        return GOOD

    def committed_digest(self, snapshots):
        return None


def test_a_wrong_rerun_answer_fails_the_run(tmp_path, monkeypatch):
    def spawn(argv, log):
        Path(argv[argv.index("--report") + 1]).write_text("{}")
        Path(argv[argv.index("--out") + 1]).write_text(
            json.dumps({"answer": GOOD, "rerun_answers": [GOOD, STALE]})
        )
        return 0

    monkeypatch.setattr(workloads, "spawn", spawn)
    run = workloads.Run("batch-cold", StubCorpus(tmp_path), 1, 1.0, 1)
    workloads.batch_child(run, tmp_path, tmp_path, 31, reruns=2)
    # The exit, the first answer and both re-run answers; the stale one fails.
    assert (run.attempted, run.failed) == (4, 1)
    assert run.problems == ["batch run re-run 1: answer differs from the reference"]
