"""Command-line front end: compute, tset, scan, dot.

Exit codes: 0 success, 1 mathematical violation found by a scan, 2 user
error or a request that ran out of memory (or a scan whose `--workers`
process died, as an out-of-memory kill leaves it), 3 internal
inconsistency, 4 flip undefined, 5 I/O error.  All output except `dot` is
JSON; scan writes JSON-lines, one record per interval.

scan holds no record in memory.  Each sink job's lines go to a spool file
as the job ends, one flush per job, and the scan keeps only where each
record lies: a byte offset, a size and its clean flag, by position in
`iter_intervals` order.  At the end the records are copied out of the
spool in that order.  With `--out` the spool is `<out>.spool`: truncated
when the sweep starts, left in place by a kill or a failed sweep, and
removed once `--out` is written.  `--resume` reads `--out` and
`<out>.spool` by one rule: a last line with no newline is what a kill
leaves and is dropped, and every other line must parse.  It indexes the
lines as byte ranges, so resuming reads no old record back into memory.
On stdout the spool is an anonymous temporary file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from contextlib import ExitStack

from .complete import complete_cd_index
from .errors import CdIndexError, FlipUndefinedError, NotInSubringError
from .flips import TSetTable
from .intervals import build_interval, export_dot, label_string, path_json
from .ncpoly import ad_form, parse_cd_monomial
from .orders import ReflectionOrder, lex_order, order_from_reduced_word
from .perms import bruhat_leq, format_perm, parse_perm
from .verify import iter_intervals, scan_interval

EXIT_VIOLATION = 1
EXIT_USER = 2
EXIT_INTERNAL = 3
EXIT_FLIP_UNDEFINED = 4
EXIT_IO = 5

MAX_N = 7


class UserError(Exception):
    pass


def parse_perm_arg(text: str):
    try:
        p = parse_perm(text)
    except ValueError as exc:
        raise UserError(str(exc))
    if len(p) > MAX_N:
        raise UserError(f"permutation {text} exceeds the size cap n <= {MAX_N}")
    return p


def resolve_order(spec: str, n: int) -> ReflectionOrder:
    """Order spec: "lex", "rev", or "word:i1,i2,..." (reduced word for w0)."""
    if spec == "lex":
        return lex_order(n)
    if spec == "rev":
        return lex_order(n).reversed()
    if spec.startswith("word:"):
        try:
            word = [int(x) for x in spec[5:].split(",") if x]
            return order_from_reduced_word(n, word)
        except ValueError as exc:
            raise UserError(f"bad reduced word: {exc}")
    raise UserError(f"unknown order spec {spec!r} (use lex, rev, or word:...)")


def interval_args(args):
    """(u, v, order) of compute, tset and dot: u <= v in one S_n, and the
    `--order` resolved for that n, all checked before any work is done."""
    u, v = parse_perm_arg(args.u), parse_perm_arg(args.v)
    if len(u) != len(v):
        raise UserError("u and v live in different symmetric groups")
    if not bruhat_leq(u, v):
        raise UserError(f"{format_perm(u)} is not <= {format_perm(v)} in Bruhat order")
    return u, v, resolve_order(args.order, len(u))


def cmd_compute(args) -> int:
    u, v, order = interval_args(args)  # the sink's table holds every path u -> v
    index = complete_cd_index(u, v, TSetTable(v, order).graded_sums(u))
    if args.all_orders:
        others = [lex_order(len(u)).reversed()]
        if len(u) >= 2:
            others.append(order_from_reduced_word(len(u), _staircase_word(len(u))))
        for other in others:
            again = complete_cd_index(u, v, TSetTable(v, other).graded_sums(u))
            if again.by_degree != index.by_degree:
                raise NotInSubringError(
                    "cd-index differs between reflection orders; "
                    f"got {again.by_degree} vs {index.by_degree}"
                )
    payload = index.to_json()
    payload["order"] = args.order
    payload["all_orders_checked"] = bool(args.all_orders)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _staircase_word(n: int) -> list[int]:
    """The reduced word 1, 21, 321, ... for the longest element of S_n."""
    word = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return word


def cmd_tset(args) -> int:
    u, v, order = interval_args(args)  # the sink's table builds the cone that holds [u, v]
    try:
        monomial = parse_cd_monomial(args.monomial)
    except ValueError as exc:
        raise UserError(str(exc))
    gamma = ad_form(monomial)
    # T in its keys and T-bar in its values, reversed; the sink's table and
    # its memos are freed before the output is built
    pairing = TSetTable(v, order).flip(u, gamma)
    t_paths = list(pairing)
    tbar_paths = list(reversed(pairing.values()))
    payload = {
        "u": format_perm(u),
        "v": format_perm(v),
        "monomial": monomial or "1",
        "ad_form": gamma,
        "order": args.order,
        "t": [label_string(p, order) for p in t_paths],
        "t_bar": [label_string(p, order) for p in tbar_paths],
        "flip": {
            label_string(x, order): label_string(y, order) for x, y in pairing.items()
        },
        "paths": {
            label_string(p, order): path_json(p, order) for p in t_paths
        },
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_dot(args) -> int:
    u, v, order = interval_args(args)
    text = export_dot(build_interval(u, v), order)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return 0


def _scan_sink(job) -> list[tuple[str, bool]]:
    """Worker: the intervals of one sink -> their JSON lines, each with
    whether its record is clean, in the order of `sources`.

    A job holds every source of its sink, so the sink's memoized table is
    built once, read by all of them, and dropped with the job.  Every table
    of a process reads its cone off that process's one Bruhat graph.  The
    order is resolved once by the caller and travels in the job.
    """
    v, sources, order, order_spec = job
    table = TSetTable(v, order)
    lines = []
    for u in sources:
        record = scan_interval(u, order_spec, table)
        lines.append((json.dumps(record, sort_keys=True), record["clean"]))
    return lines


def _index_resumed(fh, src: int, old: dict) -> int:
    """Index the record lines of a resume file into `old`: (u, v, order)
    -> (src, offset, size, clean), the byte range of the line with its
    whitespace stripped, the first occurrence of a key winning.  A last
    line with no newline is what a kill leaves, and it is dropped unread;
    every other non-blank line must parse.  Returns the offset just past
    the last complete line."""
    end = 0
    for raw in fh:
        if not raw.endswith(b"\n"):
            break
        end += len(raw)
        line = raw.strip()
        if line:
            rec = json.loads(line)
            key = (rec["u"], rec["v"], rec["order"])
            old.setdefault(key, (src, end - len(raw.lstrip()), len(line), bool(rec["clean"])))
    return end


def cmd_scan(args) -> int:
    if not 2 <= args.n <= 6:
        raise UserError("scan supports 2 <= n <= 6")
    if args.workers < 1:
        raise UserError("--workers must be at least 1")
    if args.max_length is not None and args.max_length < 1:
        raise UserError("--max-length must be at least 1")
    if args.resume and not args.out:
        raise UserError("--resume needs --out")
    order = resolve_order(args.order, args.n)
    import tempfile
    from array import array

    with ExitStack() as stack:
        old: dict = {}  # (u, v, order) -> (file, offset, size, clean) of a resumed line
        resumed = []  # a resumed --out, indexed before the spool is opened: a bad line creates no spool
        spool_path = args.out + ".spool" if args.out else None
        if args.out and os.path.isdir(args.out):  # checked before the sweep, not at os.replace
            print(f"error: --out {args.out} is a directory", file=sys.stderr)
            return EXIT_IO
        if args.resume and os.path.exists(args.out):
            try:
                resumed.append(stack.enter_context(open(args.out, "rb")))
                _index_resumed(resumed[0], 1, old)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"error reading resume file: {exc}", file=sys.stderr)
                return EXIT_IO
        # the spool takes each sink job's lines as the job ends
        try:
            if not args.out:
                spool = stack.enter_context(tempfile.TemporaryFile())
            else:
                mode = "r+b" if args.resume and os.path.exists(spool_path) else "w+b"
                spool = stack.enter_context(open(spool_path, mode))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        files = [spool, *resumed]  # what the byte ranges of the index point into
        if args.resume:
            try:
                spool.truncate(_index_resumed(spool, 0, old))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"error reading resume file: {exc}", file=sys.stderr)
                return EXIT_IO

        # the index, by position in iter_intervals order: old records fill
        # their slots now, and each sink's sources wait for its job
        intervals = list(iter_intervals(args.n, args.max_length))
        where = bytearray(len(intervals))
        offsets = array("q", [0]) * len(intervals)
        sizes = array("q", [0]) * len(intervals)
        clean = bytearray(len(intervals))
        groups: dict = {}  # sink -> the positions of its sources
        for i, (u, v) in enumerate(intervals):
            done = old.pop((format_perm(u), format_perm(v), args.order), None) if old else None
            if done is None:
                groups.setdefault(v, []).append(i)
            else:
                where[i], offsets[i], sizes[i], clean[i] = done
        outside = list(old.values())  # old records of other sweeps go first
        jobs = [
            (v, [intervals[i][0] for i in group], order, args.order)
            for v, group in groups.items()
        ]

        dead_worker = ()  # the error of a pool whose worker died; none without one
        if args.workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            dead_worker = BrokenProcessPool
            executor = stack.enter_context(ProcessPoolExecutor(max_workers=args.workers))
            results = executor.map(_scan_sink, jobs)
        else:
            results = map(_scan_sink, jobs)
        ended = 0  # sink jobs whose lines are in the spool
        try:
            end = spool.seek(0, os.SEEK_END)
            for group, lines in zip(groups.values(), results):
                chunk = []
                for i, (line, ok) in zip(group, lines):
                    data = line.encode()
                    offsets[i], sizes[i], clean[i] = end, len(data), ok
                    end += len(data) + 1
                    chunk.append(data)
                spool.write(b"\n".join(chunk) + b"\n")
                spool.flush()
                ended += 1

            fds = [f.fileno() for f in files]
            violations = sum(not ok for *_, ok in outside) + clean.count(0)
            records = itertools.chain(
                (os.pread(fds[src], size, offset) for src, offset, size, _ in outside),
                (os.pread(fds[where[i]], sizes[i], offsets[i]) for i in range(len(where))),
            )
            if args.out:
                tmp = args.out + ".tmp"
                with open(tmp, "wb") as out:
                    for data in records:
                        out.write(data + b"\n")
                os.replace(tmp, args.out)
                os.remove(spool_path)
            else:
                for data in records:
                    sys.stdout.write(data.decode() + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except dead_worker:
            # most likely killed for memory: exit as a MemoryError does
            # the pool names no process, so name the first sink not written
            sink = format_perm(jobs[ended][0])
            line = f"error: a --workers process died before sink {sink} was written"
            if args.out:
                line += f"; {spool_path} keeps the sinks written before it for --resume"
            print(line, file=sys.stderr)
            return EXIT_USER
    if violations:
        print(f"scan found {violations} inconsistent interval(s)", file=sys.stderr)
        return EXIT_VIOLATION
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdindex",
        description="Complete cd-index of Bruhat intervals in symmetric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_order(p):
        p.add_argument(
            "--order",
            default="lex",
            help="reflection order: lex (default), rev, or word:1,2,1,...",
        )

    p = sub.add_parser("compute", help="complete cd-index of [u, v]")
    p.add_argument("u")
    p.add_argument("v")
    add_order(p)
    p.add_argument(
        "--all-orders",
        action="store_true",
        help="recompute under reversed and reduced-word orders and require equality",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("tset", help="T-set, reverse-order T-set and flip pairing")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("monomial", help="cd-monomial such as ccd, or 1")
    add_order(p)
    p.set_defaults(func=cmd_tset)

    p = sub.add_parser("scan", help="exhaustive verification sweep over S_n")
    p.add_argument("--n", type=int, required=True, help="symmetric group size (2..6)")
    p.add_argument("--max-length", type=int, default=None, help="cap on l(v) - l(u)")
    p.add_argument("--out", default=None, help="JSON-lines output file (default stdout)")
    p.add_argument("--resume", action="store_true", help="skip records already in --out")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    add_order(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dot", help="Graphviz DOT export of the interval")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("-o", "--out", default=None, help="write to file instead of stdout")
    add_order(p)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USER
    except FlipUndefinedError as exc:
        print(f"flip undefined: {exc}", file=sys.stderr)
        code = EXIT_FLIP_UNDEFINED
    except CdIndexError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        code = EXIT_USER
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
