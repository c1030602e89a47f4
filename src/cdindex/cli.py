"""Command-line front end: compute, tset, scan, dot.

Exit codes: 0 success, 1 mathematical violation found by a scan, 2 user
error or a request that ran out of memory (or a scan whose `--workers`
process died, as an out-of-memory kill leaves it), 3 internal
inconsistency, 4 flip undefined, 5 I/O error: any failed read or write,
on every command, stdout included, and a process started without stdout.
`main` alone turns an error, a scan's violations or argparse's own exit
(2 for a usage error, 0 for help) into its exit code and its one stderr
line, which it writes and flushes best effort: a failed stderr write
keeps the exit code.  A scan to stdout checks that the process has one
before its sweep.  All output except `dot` is JSON; scan writes
JSON-lines, one record per interval.  Every output leaves through
`_write`: to stdout, or to a file that `<file>.tmp` replaces whole once
it is complete (`dot -o` and `scan --out`).

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
import errno
import itertools
import json
import os
import sys
from contextlib import ExitStack, suppress
from functools import lru_cache

from .complete import complete_cd_index
from .errors import CdIndexError, FlipUndefinedError, NotInSubringError
from .flips import TSetTable
from .intervals import build_interval, export_dot, label_string, path_json
from .ncpoly import _MEMO_SIZE, ad_form, parse_cd_monomial
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


class ResumeError(OSError):
    """A `--resume` file that cannot be read, or a line of it that does not parse."""


class Violations(Exception):
    """Raised by a scan once it has written every record, some of them not clean."""


_UNREADABLE = (OSError, ValueError, KeyError, TypeError)  # what reading a resume file raises


def _stdout():
    """`sys.stdout`, or OSError when the process started with fd 1 closed."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    return sys.stdout


def _write(path, chunks) -> None:
    """Write the byte chunks to stdout, or with a path to `<path>.tmp`,
    which replaces `path` once complete: a failed write never leaves a
    partial `path`."""
    if path is None:
        out = getattr(_stdout(), "buffer", sys.stdout)  # an io.StringIO has no bytes layer
        out.writelines(chunk.decode() if out is sys.stdout else chunk for chunk in chunks)
        out.flush()  # a failed write surfaces here, not at the interpreter's exit
    elif os.path.isdir(path):  # checked before the `.tmp` is made, with `open(path)`'s error
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    else:
        with open(path + ".tmp", "wb") as out:
            out.writelines(chunks)
        os.replace(path + ".tmp", path)


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
    _write(None, [json.dumps(payload, sort_keys=True).encode(), b"\n"])
    return 0


def _staircase_word(n: int) -> list[int]:
    """The reduced word 1, 21, 321, ... for the longest element of S_n."""
    return [i for k in range(1, n) for i in range(k, 0, -1)]


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
    t = [label_string(p, order) for p in pairing]
    bar = [label_string(p, order) for p in pairing.values()]
    payload = {
        "u": format_perm(u),
        "v": format_perm(v),
        "monomial": monomial or "1",
        "ad_form": gamma,
        "order": args.order,
        "t": t,
        "t_bar": bar[::-1],
        "flip": dict(zip(t, bar)),
        "paths": {label: path_json(p, order) for label, p in zip(t, pairing)},
    }
    _write(None, [json.dumps(payload, sort_keys=True).encode(), b"\n"])
    return 0


def cmd_dot(args) -> int:
    u, v, order = interval_args(args)
    _write(args.out, [export_dot(build_interval(u, v), order).encode()])
    return 0


# what json.dumps(record, sort_keys=True) writes, with one encoder for
# every record instead of a new one per call
_ENCODER = json.JSONEncoder(sort_keys=True)

# The fields of a scan record that vary with u, in the order `sort_keys`
# writes them.  The rest, the record body, recurs across a scan
# (scan-s5-gap3: 5 distinct bodies among 2,096 records), so `_record_body`
# encodes each body once, around an empty slot for each of these fields,
# and keeps the recent ones, as ncpoly keeps its conversions.
_PER_INTERVAL = ("elapsed_ms", "u", "v", "witnesses")
# encoded "\u0000", which a record's text holds only where a string is NUL
# alone: here, at the slots only
_SLOT = "\0"


@lru_cache(maxsize=_MEMO_SIZE)
def _record_body(
    cd_index: tuple, monomials: tuple, clean: bool, length_diff: int, order: str
) -> tuple[str, ...]:
    """The encoded pieces of a record body between its per-interval slots:
    `_ENCODER`'s text of the record whose `cd_index` and `monomials` are
    the dicts of these (key, items) pairs, split at each slot."""
    record = dict.fromkeys(_PER_INTERVAL, _SLOT)
    record.update(
        cd_index={n: dict(part) for n, part in cd_index},
        monomials={m: dict(entry) for m, entry in monomials},
        clean=clean,
        length_diff=length_diff,
        order=order,
    )
    return tuple(_ENCODER.encode(record).split(_ENCODER.encode(_SLOT)))


def _encode_record(record: dict) -> bytes:
    """`_ENCODER.encode(record)` as bytes, byte for byte: the class's body
    from `_record_body`, with the per-interval fields encoded into it."""
    pieces = _record_body(
        tuple((n, tuple(part.items())) for n, part in record["cd_index"].items()),
        tuple((m, tuple(entry.items())) for m, entry in record["monomials"].items()),
        record["clean"],
        record["length_diff"],
        record["order"],
    )
    line = [pieces[0]]
    for field, piece in zip(_PER_INTERVAL, pieces[1:]):
        line += (_ENCODER.encode(record[field]), piece)
    return "".join(line).encode()


def _scan_sink(job) -> list[tuple[bytes, bool]]:
    """Worker: the intervals of one sink -> their encoded JSON lines, each
    with whether its record is clean, in the order of `sources`.

    A job holds every source of its sink, so the sink's memoized table is
    built once, filled bottom up to the largest gap among the sources
    (`TSetTable.fill_levels`, which may decline and leave the checks to
    the lazy route), read by all of them, and dropped with the job.
    Every table of a process reads its cone off that process's one Bruhat
    graph.  The order is resolved once by the caller and travels in the
    job.  Per interval, `scan_interval` runs every check on the table; the
    cd side it reads, and the encoded record body, are computed once per
    class of intervals and kept by the process's memos, so only u, v,
    elapsed_ms and the witnesses are encoded per interval.
    """
    v, sources, order, order_spec = job
    table = TSetTable(v, order)
    table.fill_levels(max(table.gaps[u] for u in sources))
    lines = []
    for u in sources:
        record = scan_interval(u, order_spec, table)
        lines.append((_encode_record(record), record["clean"]))
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
        # stdout and --out both checked before the sweep, not once its work is
        # done; the spool takes each sink job's lines as the job ends
        if not args.out:
            _stdout()
            spool = stack.enter_context(tempfile.TemporaryFile())
        elif os.path.isdir(args.out):
            raise IsADirectoryError(f"--out {args.out} is a directory")
        if args.resume and os.path.exists(args.out):
            try:
                resumed.append(stack.enter_context(open(args.out, "rb")))
                _index_resumed(resumed[0], 1, old)
            except _UNREADABLE as exc:
                raise ResumeError(exc)
        if args.out:  # opened after a resumed --out is indexed
            mode = "r+b" if args.resume and os.path.exists(spool_path) else "w+b"
            spool = stack.enter_context(open(spool_path, mode))
        if args.resume:
            try:
                spool.truncate(_index_resumed(spool, 0, old))
            except _UNREADABLE as exc:
                raise ResumeError(exc)

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
        end = spool.seek(0, os.SEEK_END)
        try:
            for group, lines in zip(groups.values(), results):
                for i, (data, ok) in zip(group, lines):
                    offsets[i], sizes[i], clean[i] = end, len(data), ok
                    end += len(data) + 1
                spool.write(b"".join(data + b"\n" for data, _ in lines))
                spool.flush()
                ended += 1
        except dead_worker:
            # most likely killed for memory: exit as a MemoryError does
            # the pool names no process, so name the first sink not written
            sink = format_perm(jobs[ended][0])
            kept = f"; {spool_path} keeps the sinks written before it for --resume" if args.out else ""
            raise UserError(f"a --workers process died before sink {sink} was written{kept}")

        fds = [f.fileno() for f in (spool, *resumed)]  # where the index's byte ranges lie
        violations = sum(not ok for *_, ok in outside) + clean.count(0)
        _write(args.out, itertools.chain(
            (os.pread(fds[src], size, offset) + b"\n" for src, offset, size, _ in outside),
            (os.pread(fds[where[i]], sizes[i], offsets[i]) + b"\n" for i in range(len(where))),
        ))
        if args.out:
            os.remove(spool_path)
    if violations:
        raise Violations(f"scan found {violations} inconsistent interval(s)")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its output under `main`'s exit-code map on
    every supported Python.  argparse writes help to stdout and its usage
    error to stderr, both through `_print_message`."""

    def _print_message(self, message, file=None):
        if file is sys.stdout and file is not sys.stderr:  # help: a failed write exits 5
            _write(None, [message.encode()])
        else:  # a usage line that cannot be written is dropped, as Python 3.11.7+
            # drops it (3.10's argparse raises), so a usage error still exits 2
            with suppress(AttributeError, OSError):
                (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    order = argparse.ArgumentParser(add_help=False)
    order.add_argument(
        "--order",
        default="lex",
        help="reflection order: lex (default), rev, or word:1,2,1,...",
    )
    interval = argparse.ArgumentParser(add_help=False, parents=[order])
    interval.add_argument("u")
    interval.add_argument("v")
    parser = _Parser(
        prog="cdindex",
        description="Complete cd-index of Bruhat intervals in symmetric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[interval], help="complete cd-index of [u, v]")
    p.add_argument(
        "--all-orders",
        action="store_true",
        help="recompute under reversed and reduced-word orders and require equality",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser(
        "tset", parents=[interval], help="T-set, reverse-order T-set and flip pairing"
    )
    p.add_argument("monomial", help="cd-monomial such as ccd, or 1")
    p.set_defaults(func=cmd_tset)

    p = sub.add_parser("scan", parents=[order], help="exhaustive verification sweep over S_n")
    p.add_argument("--n", type=int, required=True, help="symmetric group size (2..6)")
    p.add_argument("--max-length", type=int, default=None, help="cap on l(v) - l(u)")
    p.add_argument("--out", default=None, help="JSON-lines output file (default stdout)")
    p.add_argument("--resume", action="store_true", help="skip records already in --out")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("dot", parents=[interval], help="Graphviz DOT export of the interval")
    p.add_argument("-o", "--out", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code, line = args.func(args), None
    except SystemExit as exc:  # argparse's usage error (2) or help (0), its text written
        code, line = exc.code, None
    except Violations as exc:
        code, line = EXIT_VIOLATION, str(exc)
    except UserError as exc:
        code, line = EXIT_USER, f"error: {exc}"
    except FlipUndefinedError as exc:
        code, line = EXIT_FLIP_UNDEFINED, f"flip undefined: {exc}"
    except CdIndexError as exc:
        code, line = EXIT_INTERNAL, f"internal inconsistency: {exc}"
    except MemoryError:
        code, line = EXIT_USER, f"error: {args.command} ran out of memory"
    except ResumeError as exc:
        code, line = EXIT_IO, f"error reading resume file: {exc}"
    except OSError as exc:
        code, line = EXIT_IO, f"error: {exc}"
    try:
        if line is not None:
            sys.stderr.write(line + "\n")
        sys.stderr.flush()  # argparse's own line too
    except (AttributeError, OSError):  # no stderr, or a broken one: the code stands
        # and the interpreter's exit must not flush what it kept, which
        # would fail again and exit 120
        sys.stderr = None
    if argv is None:
        if code == EXIT_IO:
            # stdout keeps what it failed to write, and the interpreter's
            # exit would flush it again: point fd 1 at /dev/null first
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
