"""Traced run of the CLI: spans and counters recorded from outside the package.

    python3 perfbench/tracer.py --out TRACE.json --run-id ID -- compute 12345 54321

The child imports `cdindex` unchanged, wraps the public functions of each
module (the layers: perms, orders, intervals, ncpoly with linalg, complete,
flips, verify, cli), runs `cdindex.cli.main` on the given arguments, and
writes every span and counter once, at exit, to TRACE.json.

Modules import each other by name (`from .perms import length`), so a
wrapper replaces the binding in every module that holds the original.
TSetTable methods are wrapped on the class, so that its recursive calls
are caught too.  Three kinds of wrapper:

- span: records (name, start, end, parent) per call;
- count: hot leaves called millions of times keep a call count only;
- generator: `iter_paths` and `iter_intervals` yield millions of items, so
  they keep a yield count and the time spent inside `next()`, and charge
  that time to the span consuming them.

A span's self time is its duration minus its child spans and the generator
time charged to it.  `layer_values` turns a written trace into the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_leaf = array("q")  # generator time charged to the span
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = {}

    def counter(self, name: str) -> list[int]:
        """A one-element cell; wrappers bump cell[0] without a dict lookup."""
        return self.counters.setdefault(name, [0])

    def span(self, name, fn, pre=None, post=None):
        """Wrap fn so that every call records a span.

        `pre(args)` runs before the call and `post(args, result)` after it,
        both outside the span's own timing.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        names, parents, starts, ends, leaves = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.span_leaf
        )
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            leaves.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def count(self, name, fn):
        cell = self.counter(name + ".calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name, fn, unit, pre=None):
        """Wrap a generator function: count yields, time each next()."""
        calls = self.counter(name + ".calls")
        items = self.counter(f"{name}.{unit}")
        busy = self.counter(name + ".busy_ns")
        leaves, stack = self.span_leaf, self.stack
        clock = time.perf_counter_ns

        def drive(gen):
            while True:
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    busy[0] += dt
                    if stack:
                        leaves[stack[-1]] += dt
                items[0] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            if pre is not None:
                pre(args)
            return drive(fn(*args, **kwargs))

        return wrapper

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "leaf_ns": self.span_leaf.tolist(),
            },
            "counters": {k: v[0] for k, v in sorted(self.counters.items())},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap the layer functions in every cdindex module; returns cli.main."""
    import cdindex.cli
    from cdindex import complete, flips, intervals, ncpoly, orders, perms, verify
    from cdindex.flips import TSetTable

    modules = [m for k, m in sys.modules.items() if k == "cdindex" or k.startswith("cdindex.")]

    def patch(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def add(cell_name, amount):
        tracer.counter(cell_name)[0] += amount

    for fn in (perms.length, perms.bruhat_leq, perms.compose):
        patch(fn, tracer.count("perms." + fn.__name__, fn))
    patch(
        orders.dihedral_violation,
        tracer.span("orders.dihedral_violation", orders.dihedral_violation),
    )
    patch(
        intervals.build_interval,
        tracer.span(
            "intervals.build_interval",
            intervals.build_interval,
            post=lambda a, iv: add("intervals.build_interval.vertices", len(iv.elements)),
        ),
    )
    patch(intervals.iter_paths, tracer.generator("intervals.iter_paths", intervals.iter_paths, "paths"))
    patch(
        ncpoly.ad_to_cd,
        tracer.span("ncpoly.ad_to_cd", ncpoly.ad_to_cd, pre=lambda a: add("ncpoly.ad_to_cd.words", len(a[0]))),
    )
    patch(ncpoly.decompose_left_a, tracer.span("ncpoly.decompose_left_a", ncpoly.decompose_left_a))
    patch(complete.ad_polynomials, tracer.span("complete.ad_polynomials", complete.ad_polynomials))
    patch(
        complete.shelling_decomposition,
        tracer.span("complete.shelling_decomposition", complete.shelling_decomposition),
    )

    # The restricted sum enumerates every path and keeps those under the
    # first-reflection bound; each kept path adds 1 to one word coefficient.
    paths_yielded = tracer.counter("intervals.iter_paths.paths")
    restricted = complete.restricted_ad_polynomial

    @functools.wraps(restricted)
    def restricted_probe(*args, **kwargs):
        before = paths_yielded[0]
        result = restricted(*args, **kwargs)
        add("complete.restricted.paths", paths_yielded[0] - before)
        add("complete.restricted.kept", sum(c for _, c in result.items()))
        return result

    patch(restricted, restricted_probe)

    TSetTable.__init__ = tracer.span("flips.TSetTable", TSetTable.__init__)
    TSetTable.t_set = tracer.span(
        "flips.t_set",
        TSetTable.t_set,
        pre=lambda a: add("flips.t_set.hits", (a[1], a[2]) in a[0]._tsets),
    )
    TSetTable.flip = tracer.span("flips.flip", TSetTable.flip)
    TSetTable.word = tracer.count("flips.word", TSetTable.word)
    for fn in (flips.sum_contributions, flips.check_flip_condition, flips.check_strong_flip_condition):
        patch(fn, tracer.span("flips." + fn.__name__, fn))

    patch(
        verify.iter_intervals,
        tracer.generator(
            "verify.iter_intervals",
            verify.iter_intervals,
            "intervals",
            pre=lambda a: add("verify.iter_intervals.pairs", math.factorial(a[0]) ** 2),
        ),
    )
    for fn in (verify.scan_interval, verify.verify_coefficient, verify.check_restricted_counts):
        patch(fn, tracer.span("verify." + fn.__name__, fn))
    return tracer.span("cli.main", cdindex.cli.main)


def self_times(doc: dict) -> dict[str, tuple[int, int]]:
    """Per span name: (number of spans, summed self time in ns)."""
    spans = doc["spans"]
    start, end, parent, leaf = spans["start_ns"], spans["end_ns"], spans["parent"], spans["leaf_ns"]
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    names = doc["names"]
    for i, nid in enumerate(spans["name"]):
        entry = totals[names[nid]]
        entry[0] += 1
        entry[1] += end[i] - start[i] - covered[i] - leaf[i]
    return {k: (v[0], v[1]) for k, v in totals.items()}


def _ratio(kept: int, base: int) -> float:
    return kept / base if base else 0.0


def layer_values(doc: dict) -> dict[str, float]:
    """Every per-layer value of one trace: counts, self times (s), ratios.

    A ratio is reported next to its base count; a ratio whose base is 0
    (the layer never ran) reads 0.
    """
    values: dict[str, float] = dict(doc["counters"])
    for name, (calls, self_ns) in self_times(doc).items():
        values[name + ".calls"] = calls
        values[name + ".s"] = self_ns / 1e9
    for gen in ("intervals.iter_paths", "verify.iter_intervals"):
        values[gen + ".s"] = values.pop(gen + ".busy_ns", 0) / 1e9
    values["complete.restricted.kept_ratio"] = _ratio(
        values.get("complete.restricted.kept", 0), values.get("complete.restricted.paths", 0)
    )
    values["flips.t_set.hit_ratio"] = _ratio(
        values.get("flips.t_set.hits", 0), values.get("flips.t_set.calls", 0)
    )
    values["verify.iter_intervals.kept_ratio"] = _ratio(
        values.get("verify.iter_intervals.intervals", 0), values.get("verify.iter_intervals.pairs", 0)
    )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="trace file written at exit")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the cdindex arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer(args.run_id)
    traced_main = install(tracer)
    code = traced_main(argv)
    sys.stdout.flush()
    tracer.write(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
