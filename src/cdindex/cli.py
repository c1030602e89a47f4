"""Command-line front end: compute, tset, scan, dot.

Exit codes: 0 success, 1 mathematical violation found by a scan, 2 user
error, 3 internal inconsistency, 4 flip undefined, 5 I/O error.  All output
except `dot` is JSON; scan writes JSON-lines, one record per interval.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .complete import complete_cd_index, path_sums
from .errors import CdIndexError, FlipUndefinedError, NotInSubringError
from .flips import TSetTable
from .intervals import build_interval, export_dot, label_string, path_json
from .ncpoly import ad_form, parse_cd_monomial
from .orders import ReflectionOrder, lex_order, order_from_reduced_word
from .perms import bruhat_leq, format_perm, length, parse_perm
from .verify import iter_intervals, scan_interval

EXIT_VIOLATION = 1
EXIT_USER = 2
EXIT_INTERNAL = 3
EXIT_FLIP_UNDEFINED = 4
EXIT_IO = 5

DEFAULT_MAX_N = 7


class UserError(Exception):
    pass


def max_group_size() -> int:
    raw = os.environ.get("CDINDEX_MAX_N", "")
    try:
        return int(raw) if raw else DEFAULT_MAX_N
    except ValueError:
        raise UserError(f"CDINDEX_MAX_N is not an integer: {raw!r}")


def parse_perm_arg(text: str):
    try:
        p = parse_perm(text)
    except ValueError as exc:
        raise UserError(str(exc))
    cap = max_group_size()
    if len(p) > cap:
        raise UserError(f"permutation {text} exceeds the size cap n <= {cap}")
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


def interval_or_fail(u, v):
    if len(u) != len(v):
        raise UserError("u and v live in different symmetric groups")
    if not bruhat_leq(u, v):
        raise UserError(f"{format_perm(u)} is not <= {format_perm(v)} in Bruhat order")
    return build_interval(u, v)


def cmd_compute(args) -> int:
    u, v = parse_perm_arg(args.u), parse_perm_arg(args.v)
    iv = interval_or_fail(u, v)
    order = resolve_order(args.order, len(u))
    index = complete_cd_index(u, v, path_sums(iv, order))
    if args.all_orders:
        others = [lex_order(len(u)).reversed()]
        if len(u) >= 2:
            others.append(order_from_reduced_word(len(u), _staircase_word(len(u))))
        for other in others:
            again = complete_cd_index(u, v, path_sums(iv, other))
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
    u, v = parse_perm_arg(args.u), parse_perm_arg(args.v)
    interval_or_fail(u, v)
    try:
        monomial = parse_cd_monomial(args.monomial)
    except ValueError as exc:
        raise UserError(str(exc))
    order = resolve_order(args.order, len(u))
    table = TSetTable(v, order)
    gamma = ad_form(monomial)
    t_paths = table.t_set(u, gamma)
    tbar_paths = table.t_bar_set(u, gamma)
    pairing = table.flip(u, gamma)
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
    u, v = parse_perm_arg(args.u), parse_perm_arg(args.v)
    iv = interval_or_fail(u, v)
    order = resolve_order(args.order, len(u))
    text = export_dot(iv, order)
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


_WORKER_TABLES: dict = {}


def _scan_one(job) -> str:
    """Worker: one interval -> one JSON line.

    Jobs arrive grouped by sink, so keeping exactly one sink's memoized
    table per process gives full reuse with bounded memory.  The order is
    resolved once by the caller and travels in the job.
    """
    u, v, order, order_spec = job
    key = (v, order_spec)
    table = _WORKER_TABLES.get(key)
    if table is None:
        _WORKER_TABLES.clear()
        table = TSetTable(v, order)
        _WORKER_TABLES[key] = table
    record = scan_interval(u, v, order, order_spec, table)
    return json.dumps(record, sort_keys=True)


def cmd_scan(args) -> int:
    if not 2 <= args.n <= 6:
        raise UserError("scan supports 2 <= n <= 6")
    order = resolve_order(args.order, args.n)
    done: set[tuple[str, str, str]] = set()
    existing_lines: list[str] = []
    if args.resume and args.out and os.path.exists(args.out):
        try:
            with open(args.out, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    done.add((rec["u"], rec["v"], rec["order"]))
                    existing_lines.append(line)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            print(f"error reading resume file: {exc}", file=sys.stderr)
            return EXIT_IO

    merge_keys = {}
    for u, v in iter_intervals(args.n, args.max_length):
        if (format_perm(u), format_perm(v), args.order) in done:
            continue
        merge_keys[(u, v)] = (length(v) - length(u), u, v)
    # process grouped by sink for table reuse; emit in merge order
    pairs = sorted(merge_keys, key=lambda uv: (uv[1], merge_keys[uv]))
    jobs = [(u, v, order, args.order) for u, v in pairs]

    violations = 0
    produced = []
    try:
        if args.workers > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as executor:
                lines = list(executor.map(_scan_one, jobs, chunksize=4))
        else:
            lines = [_scan_one(job) for job in jobs]
        produced = sorted(zip(pairs, lines), key=lambda pl: merge_keys[pl[0]])
        for _, line in produced:
            if not json.loads(line)["clean"]:
                violations += 1
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                for _, line in produced:
                    out.write(line + "\n")
        else:
            for _, line in produced:
                print(line)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
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
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
