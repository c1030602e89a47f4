"""Regenerate the reference data the output checks compare against.

    python3 perfbench/make_reference.py [workload ...]

Each workload runs once under the default `lex` order, and its
order-independent output is written to perfbench/reference/<name>.json.
The tset reference is the cd-index coefficient of its monomial, taken
from `compute` on the same interval rather than from the T-set itself.
Regenerate only when the program's documented output legitimately changes.
"""

from __future__ import annotations

import json
import sys

from checks import parse_records, scan_reference
from workloads import REFERENCE_DIR, WORKLOADS, run_process


def run_lex(argv: tuple[str, ...]) -> bytes:
    inv = run_process([sys.executable, "-m", "cdindex", *argv])
    if inv.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {inv.returncode}: {inv.stderr.decode()}")
    return inv.stdout


def reference_for(name: str) -> dict:
    w = WORKLOADS[name]
    if w.kind == "scan":
        records = parse_records(run_lex(w.argv))
        if not all(r["clean"] for r in records):
            raise SystemExit(f"{name}: reference scan is not clean")
        return scan_reference(records)
    if w.kind == "compute":
        return {"cd_index": json.loads(run_lex(w.argv))["cd_index"]}
    _, u, v, monomial = w.argv
    cd_index = json.loads(run_lex(("compute", u, v)))["cd_index"]
    degree = str(sum(2 if ch == "d" else 1 for ch in monomial))
    return {"monomial": monomial, "coefficient": cd_index[degree][monomial]}


def main(names: list[str]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(reference_for(name), fh, sort_keys=True)
            fh.write("\n")
        print(f"wrote reference for {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
