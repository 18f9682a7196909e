"""The benchmark runs against the library.

``perfbench/spans.py`` replaces named functions and methods of ``arv``
with timing wrappers in its traced runs.  A refactor that moves or
renames one of them fails here, not only in a traced benchmark run.
``perfbench/smoke.py`` runs the smallest entry of each workload and
checks its verdicts, so a change to anything the benchmark calls fails
here too.  The tests change nothing under ``perfbench/``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_benchmark_boundaries_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # ``observing`` hands its (owner, attr, wrap) list to ``_patched``
    monkeypatch.setattr(spans, "_patched", lambda wrappers: wrappers)
    observed = tuple(spans.observing(spans.Recorder()))
    boundaries = [(owner, attr) for owner, attr, _ in spans.BOUNDARIES + spans.COALESCED + observed]
    assert len(boundaries) > 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr in boundaries if not hasattr(owner, attr)]
    assert missing == []


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
