"""Output checks against reference data that does not depend on the order.

The complete cd-index of an interval is the same under every reflection
order, so a seeded run is checked against data generated once under `lex`
(see make_reference.py):

- scan: every record must be `clean: true`, and its `(u, v, length_diff,
  cd_index)` must be one the reference holds; the record count and the
  digest over all records, in output order, must equal the reference.
  Units are records.
- compute: `cd_index` equals the reference.  One unit.
- tset: `|t| == |t_bar| ==` the reference coefficient of the monomial, the
  flip keys are exactly `t`, and the flip values are a permutation of
  `t_bar`.  One unit.

A non-zero exit fails every unit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CheckResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def record_identity(record: dict) -> str:
    """Canonical text of the order-independent part of a scan record."""
    return json.dumps(
        [record["u"], record["v"], record["length_diff"], record["cd_index"]],
        sort_keys=True,
        separators=(",", ":"),
    )


def record_hash(record: dict) -> str:
    return hashlib.sha256(record_identity(record).encode()).hexdigest()[:16]


def scan_digest(records: list[dict]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record_identity(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def scan_reference(records: list[dict]) -> dict:
    return {
        "count": len(records),
        "digest": scan_digest(records),
        "records": sorted(record_hash(r) for r in records),
    }


def parse_records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode().splitlines() if line.strip()]


def check_scan(stdout: bytes, ref: dict) -> CheckResult:
    try:
        records = parse_records(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return CheckResult(ref["count"], ref["count"], [f"unreadable scan output: {exc}"])
    expected = set(ref["records"])
    passed = 0
    problems = []
    for record in records:
        key = record_hash(record)
        if key in expected and record.get("clean") is True:
            expected.discard(key)
            passed += 1
        elif len(problems) < 5:
            problems.append(
                f"record {record.get('u')} {record.get('v')}: "
                + ("not clean" if key in expected else "cd_index or identity differs")
            )
    attempted = max(ref["count"], len(records))
    if len(records) != ref["count"]:
        problems.append(f"{len(records)} records, reference has {ref['count']}")
    if passed == attempted and scan_digest(records) != ref["digest"]:
        problems.append("digest differs: records out of order")
    return CheckResult(attempted, attempted - passed, problems)


def check_compute(stdout: bytes, ref: dict) -> CheckResult:
    try:
        got = json.loads(stdout)["cd_index"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return CheckResult(1, 1, [f"unreadable compute output: {exc}"])
    if got != ref["cd_index"]:
        return CheckResult(1, 1, ["cd_index differs from the reference"])
    return CheckResult(1, 0)


def check_tset(stdout: bytes, ref: dict) -> CheckResult:
    try:
        payload = json.loads(stdout)
        t, t_bar, flip = payload["t"], payload["t_bar"], payload["flip"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return CheckResult(1, 1, [f"unreadable tset output: {exc}"])
    problems = []
    if not len(t) == len(t_bar) == ref["coefficient"]:
        problems.append(
            f"|t| = {len(t)}, |t_bar| = {len(t_bar)}, coefficient = {ref['coefficient']}"
        )
    if sorted(flip) != sorted(t):
        problems.append("flip keys are not the T-set")
    if sorted(flip.values()) != sorted(t_bar):
        problems.append("flip values are not a permutation of the T-bar-set")
    return CheckResult(1, 1 if problems else 0, problems)


CHECKERS = {"scan": check_scan, "compute": check_compute, "tset": check_tset}


def load_reference(directory: Path, workload: str) -> dict:
    with open(directory / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_output(kind: str, returncode: int, stdout: bytes, ref: dict) -> CheckResult:
    units = ref["count"] if kind == "scan" else 1
    if returncode != 0:
        return CheckResult(units, units, [f"exit code {returncode}"])
    return CHECKERS[kind](stdout, ref)
