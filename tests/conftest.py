import itertools

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
