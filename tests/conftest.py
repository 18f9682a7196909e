import importlib.util
import itertools
import sys
from pathlib import Path

from arv.generators import all_traces


def grid_points(variables, lo=-10, hi=10):
    """All integer valuations over the variables, as dicts."""
    values = range(lo, hi + 1)
    return [
        {v: float(x) for v, x in zip(variables, combo)}
        for combo in itertools.product(values, repeat=len(variables))
    ]


def traces_upto(variables, values, max_len):
    """Every trace of 1 to ``max_len`` samples over the value grid."""
    out = []
    for n in range(1, max_len + 1):
        out.extend(all_traces(variables, values, n))
    return out


def in_boxes(boxes, variables, valuation):
    point = [valuation[v] for v in variables]
    return any(b.contains(point) for b in boxes)


def benchmark_entries():
    """The benchmark corpus's entries, read from ``perfbench/corpus.py``:
    each has a ``name`` and a ``spec_text``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return [e for w in corpus.WORKLOADS for e in corpus.entries(w)]
