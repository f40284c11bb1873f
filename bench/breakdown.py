"""Per-op breakdown of the spans a traced run wrote.

    python3 bench/run.py --workload poisson --seed 1 --seconds 1 --trace 1
    python3 bench/breakdown.py bench/out/spans-poisson-seed1.json [op ...]

For each op (or only the named ones) prints its wall time, the inclusive
time of each span kind (outermost occurrences only, as a share of the op)
and the self time of each layer.  "op" self time is time no layer
accounts for: the benchmark's own code and the tracer's overhead.
"""

import json
import sys
from array import array
from collections import defaultdict


def load(path):
    with open(path) as fh:
        head = json.load(fh)
    spans = {}
    with open(path[:-len(".json")] + ".bin", "rb") as fh:
        for key, code in head["arrays"]:
            spans[key] = array(code)
            spans[key].fromfile(fh, head["count"])
    return head, spans


def per_op(head, spans):
    """[(op name, wall, {span kind: inclusive s}, {layer: self s})]."""
    names = head["names"]
    name, parent = spans["name"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    above = [0] * len(dur)   # bit mask of the span kinds on the path above
    op_of = [0] * len(dur)
    out = []
    for i, p in enumerate(parent):   # parents are stored before children
        if p < 0:
            op_of[i] = len(out)
            out.append((head["ops"][len(out)], dur[i], defaultdict(float),
                        defaultdict(float)))
        else:
            above[i] = above[p] | (1 << name[p])
            op_of[i] = op_of[p]
            if not above[i] >> name[i] & 1:
                out[op_of[i]][2][names[name[i]]] += dur[i]
        out[op_of[i]][3][names[name[i]].split(".")[0]] += dur[i] - child[i]
    return out


def main(argv):
    head, spans = load(argv[1])
    wanted = set(argv[2:])
    for op, wall, incl, self_s in per_op(head, spans):
        if wanted and op not in wanted:
            continue
        print("%s  %.4f s" % (op, wall))
        for kind, s in sorted(incl.items(), key=lambda kv: -kv[1]):
            print("  inclusive %-28s %9.4f s %5.1f%%" % (kind, s, 100 * s / wall))
        for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print("  self      %-28s %9.4f s %5.1f%%" % (layer, s, 100 * s / wall))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
