"""A worker process that dies mid-batch fails the batch instead of
hanging it.  The batch runs in a subprocess under a hard time limit, so
a regression fails this test rather than blocking the suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

BATCH = """
import json, multiprocessing, os, signal, time

from repro.parallel import ParallelExecutionError, run_tasks
from repro.telemetry import JsonlRecorder


def work(task, recorder):
    recorder.emit("note", message=f"task {task}")
    recorder.flush()
    if task == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)
    return task


if __name__ == "__main__":
    start = time.perf_counter()
    recorder = JsonlRecorder(os.path.join(os.environ["DOOMED_DIR"], "metrics.jsonl"))
    try:
        run_tasks(
            work, [0, 1, 2, 3], workers=2, name="doomed batch",
            labels=[f"seed {i}" for i in range(4)], recorder=recorder,
        )
    except ParallelExecutionError as exc:
        outcome = {
            "error": type(exc).__name__,
            "message": str(exc),
            "label": exc.label,
            "cause": type(exc.__cause__).__name__,
        }
    else:
        outcome = {"error": None}
    recorder.close()
    outcome["seconds"] = time.perf_counter() - start
    outcome["streams"] = sorted(os.listdir(os.environ["DOOMED_DIR"]))
    outcome["children"] = len(multiprocessing.active_children())
    print(json.dumps(outcome))
"""


def test_sigkilled_worker_fails_the_batch_and_leaves_no_process(tmp_path):
    script = tmp_path / "doomed_batch.py"
    script.write_text(BATCH)
    streams = tmp_path / "telemetry"
    streams.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), DOOMED_DIR=str(streams))
    done = subprocess.run(
        [sys.executable, str(script)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["error"] == "WorkerDiedError"
    assert outcome["cause"] == "BrokenProcessPool"
    assert "doomed batch" in outcome["message"]
    # The pool breaks every unfinished future at once; seeds 0 and 1 were
    # the two running, so the first unfinished in task order is one of them.
    assert outcome["label"] in ("seed 0", "seed 1")
    assert outcome["label"] in outcome["message"]
    assert outcome["seconds"] < 10.0
    assert outcome["children"] == 0
    # The dead worker's half-written stream (and every other worker-local
    # file) is gone; at most the run's own stream remains.
    assert set(outcome["streams"]) <= {"metrics.jsonl"}
