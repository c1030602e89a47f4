"""Compare two sets of benchmark runs: parent against change.

    python3 perfbench/compare.py PARENT.txt CHANGE.txt

Each file holds the standard output of any number of `run.py` runs, one
after another; the JSON record line of each run is used.  Runs of one
workload pair up in file order, so run the two sides alternately, parent
first in one pair and change first in the next.

Per workload and end-to-end metric it prints both sides' median and
quartiles (over the per-run values), the share of pairs the change wins,
and a verdict:

- better: the change wins at least 90% of the pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
- unresolved: either side's IQR, as a share of its median, exceeds the
  metric's bound, unless every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- same: none of these.

Per-layer metrics of traced runs have no bound: they are printed with both
medians and the relative change only.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from summary import quartiles, tail

WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Run records grouped by (workload, trace), in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"workload"'):
                continue
            record = json.loads(line)
            runs[(record["workload"], record["trace"])].append(record)
    return runs


def improves(new: float, old: float, better: str) -> bool:
    return new < old if better == "lower" else new > old


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if improves(c, p, better))
    win_share = wins / len(pairs)
    spread = max((p_q3 - p_q1) / abs(p_med or 1), (c_q3 - c_q1) / abs(c_med or 1))
    all_better = all(improves(c, p, better) for c in change for p in parent)
    gain = (
        win_share >= WIN_SHARE
        and improves(c_med, p_med, better)
        and abs(c_med - p_med) > p_q3 - p_q1
    )
    worse_by = (c_med - p_med) / abs(p_med or 1) * (1 if better == "lower" else -1)
    if gain and all_better:
        outcome = "better"
    elif spread > bound:
        outcome = "unresolved"
    elif gain:
        outcome = "better"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "same"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "win_share": win_share,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": outcome,
    }


def per_run(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records]


def pooled_tail(records: list[dict], name: str, better: str) -> str:
    samples = [s for r in records for s in r["metrics"][name]["samples"]]
    t = tail(samples, better)
    return f"p{t[0]} {t[1]:.4g} (n={len(samples)})" if t else f"- (n={len(samples)})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    parent, change = (load_runs(Path(p)) for p in argv)
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        ps, cs = parent[key], change[key]
        failed = [sum(r["failed"] for r in side) for side in (ps, cs)]
        attempted = [sum(r["attempted"] for r in side) for side in (ps, cs)]
        print(f"\n{workload} (trace {trace}): {len(ps)} parent runs, {len(cs)} change runs; "
              f"failed {failed[0]}/{attempted[0]} vs {failed[1]}/{attempted[1]}")
        if trace == 0:
            print(f"  {'metric':16s} {'unit':5s} {'parent q1 / median / q3':32s} "
                  f"{'change q1 / median / q3':32s} {'wins':>6s}  verdict   tail parent | change")
            for m in bench["end_to_end"]:
                name = m["name"]
                v = verdict(per_run(ps, name), per_run(cs, name), m["better"], m["bound"])
                p = " / ".join(f"{x:.4g}" for x in v["parent"])
                c = " / ".join(f"{x:.4g}" for x in v["change"])
                print(f"  {name:16s} {m['unit']:5s} {p:32s} {c:32s} {v['win_share']:6.0%}  "
                      f"{v['verdict']:9s} {pooled_tail(ps, name, m['better'])} | "
                      f"{pooled_tail(cs, name, m['better'])}")
        else:
            for m in bench["per_layer"]:
                name = m["name"]
                _, p_med, _ = quartiles(per_run(ps, name))
                _, c_med, _ = quartiles(per_run(cs, name))
                rel = f"{(c_med - p_med) / abs(p_med):+.1%}" if p_med else "-"
                print(f"  {name:40s} {m['unit']:6s} {p_med:>14.6g} {c_med:>14.6g} {rel:>8s}")
    missing = set(parent) ^ set(change)
    for workload, trace in sorted(missing):
        print(f"\n{workload} (trace {trace}): runs on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
