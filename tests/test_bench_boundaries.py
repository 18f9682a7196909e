"""The benchmark's call boundaries resolve against the library.

``perfbench/spans.py`` replaces named functions and methods of ``arv``
with timing wrappers in its traced runs.  A refactor that moves or
renames one of them fails here, not only in a traced benchmark run.
The test loads that file and changes nothing in it.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
