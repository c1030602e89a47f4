import hashlib
import json

import pytest

from cdindex import cli
from cdindex.errors import FlipUndefinedError, NotDecomposableError
from cdindex.flips import TSetTable


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_example(capsys):
    code, out, _ = run(capsys, "compute", "2134", "4321")
    assert code == 0
    payload = json.loads(out)
    assert payload["cd_index"]["2"] == {"cc": 2, "d": 1}
    assert payload["cd_index"]["4"] == {"cccc": 1, "ccd": 1, "cdc": 2, "dcc": 1, "dd": 1}


def test_compute_cover_interval(capsys):
    code, out, _ = run(capsys, "compute", "1234", "2134")
    assert code == 0
    assert json.loads(out)["cd_index"] == {"0": {"1": 1}}


def test_compute_all_orders_agree(capsys):
    code, out, _ = run(capsys, "compute", "2134", "4321", "--all-orders")
    assert code == 0
    assert json.loads(out)["all_orders_checked"] is True


def test_compute_rejects_incomparable(capsys):
    code, _, err = run(capsys, "compute", "4321", "2134")
    assert code == cli.EXIT_USER
    assert "Bruhat" in err


def test_compute_rejects_garbage(capsys):
    code, _, _ = run(capsys, "compute", "21x4", "4321")
    assert code == cli.EXIT_USER


def test_group_size_cap(capsys, monkeypatch):
    monkeypatch.setenv("CDINDEX_MAX_N", "3")
    code, _, err = run(capsys, "compute", "2134", "4321")
    assert code == cli.EXIT_USER
    assert "size cap" in err


def test_order_flag_variants(capsys):
    for spec in ("lex", "rev", "word:1,2,1,3,2,1"):
        code, out, _ = run(capsys, "compute", "2134", "4321", "--order", spec)
        assert code == 0
        assert json.loads(out)["cd_index"]["2"] == {"cc": 2, "d": 1}
    code, _, err = run(capsys, "compute", "2134", "4321", "--order", "bogus")
    assert code == cli.EXIT_USER
    # scan resolves the order before its sweep, even an empty one
    code, out, _ = run(capsys, "scan", "--n", "4", "--max-length", "0", "--order", "bogus")
    assert code == cli.EXIT_USER and out == ""


def test_tset_outputs_paper_sets(capsys):
    code, out, _ = run(capsys, "tset", "2134", "4321", "d")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == ["436"]
    assert payload["t_bar"] == ["462"]
    assert payload["flip"] == {"436": "462"}

    code, out, _ = run(capsys, "tset", "2134", "4321", "dd")
    payload = json.loads(out)
    assert payload["t"] == ["41516"] and payload["t_bar"] == ["45361"]

    code, out, _ = run(capsys, "tset", "2134", "4321", "cc")
    payload = json.loads(out)
    assert payload["t"] == ["235", "346"]


def test_tset_rejects_bad_monomial(capsys):
    code, _, _ = run(capsys, "tset", "2134", "4321", "cq")
    assert code == cli.EXIT_USER


def test_tset_wrong_parity_gives_empty_sets_not_errors(capsys):
    code, out, _ = run(capsys, "tset", "2134", "4321", "c")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == [] and payload["t_bar"] == [] and payload["flip"] == {}


def test_tset_flip_undefined_exit_code(capsys, monkeypatch):
    def boom(self, w, gamma):
        raise FlipUndefinedError(w, gamma, self.sink, 1, 2)

    monkeypatch.setattr(TSetTable, "flip", boom)
    code, _, err = run(capsys, "tset", "2134", "4321", "d")
    assert code == cli.EXIT_FLIP_UNDEFINED
    assert "flip undefined" in err


def test_other_package_errors_exit_internal(capsys, monkeypatch):
    def boom(u, v, sums):
        raise NotDecomposableError("no f + A*g split")

    monkeypatch.setattr(cli, "complete_cd_index", boom)
    code, _, err = run(capsys, "compute", "2134", "4321")
    assert code == cli.EXIT_INTERNAL
    assert "no f + A*g split" in err


def test_dot_output_and_determinism(capsys, tmp_path):
    code, out1, _ = run(capsys, "dot", "2134", "4321")
    code2, out2, _ = run(capsys, "dot", "2134", "4321")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.count("->") == 45
    target = tmp_path / "iv.dot"
    code, _, _ = run(capsys, "dot", "1234", "2134", "-o", str(target))
    assert code == 0
    assert '"1234" -> "2134" [label="1"];' in target.read_text()


def test_scan_s2_trivial(capsys):
    code, out, _ = run(capsys, "scan", "--n", "2")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert records[0]["cd_index"] == {"0": {"1": 1}}


def test_scan_s3_clean_and_resume(capsys, tmp_path):
    out_file = tmp_path / "scan.jsonl"
    code, _, _ = run(capsys, "scan", "--n", "3", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 13
    assert all(r["clean"] for r in records)

    # truncate to half and resume; the record set must come back identical
    keep = lines[:6]
    out_file.write_text("\n".join(keep) + "\n")
    code, _, _ = run(capsys, "scan", "--n", "3", "--out", str(out_file), "--resume")
    assert code == 0
    resumed = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(resumed) == 13

    def strip(rec):
        rec = dict(rec)
        rec.pop("elapsed_ms")
        return json.dumps(rec, sort_keys=True)

    assert sorted(map(strip, resumed)) == sorted(map(strip, records))


def test_scan_max_length_filter(capsys):
    code, out, _ = run(capsys, "scan", "--n", "3", "--max-length", "1")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 8  # covering pairs of S_3
    assert all(r["length_diff"] == 1 for r in records)


def test_scan_full_s4_is_clean(capsys, tmp_path):
    out_file = tmp_path / "s4.jsonl"
    code, _, _ = run(capsys, "scan", "--n", "4", "--max-length", "6", "--out", str(out_file))
    assert code == 0
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(records) == 189
    assert all(r["clean"] for r in records)
    assert all(
        m["flip_condition"] == "holds"
        for r in records
        for m in r["monomials"].values()
    )


def test_scan_rejects_large_n(capsys):
    code, _, _ = run(capsys, "scan", "--n", "7")
    assert code == cli.EXIT_USER


def test_scan_unwritable_output_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--n", "2", "--out", str(tmp_path))
    assert code == cli.EXIT_IO
    assert "error" in err


def test_scan_reports_violations_with_exit_1(capsys, monkeypatch):
    import cdindex.verify as verify_mod

    real = verify_mod.scan_interval

    def poisoned(u, v, order, order_id, table):
        record = real(u, v, order, order_id, table)
        record["clean"] = False
        return record

    monkeypatch.setattr(cli, "scan_interval", poisoned)
    code, out, err = run(capsys, "scan", "--n", "2")
    assert code == cli.EXIT_VIOLATION
    assert "inconsistent" in err


# sha256 over the `scan --n 4` records in output order, each with elapsed_ms
# removed and dumped with sorted keys and compact separators, one per line.
# Frozen from the per-t shelling route (one enumeration and one split per
# reflection), which tests/test_complete.py keeps as its reference.  Two
# workers, each with its own sink tables as path-sum source, give the same.
SCAN_N4_DIGESTS = {
    "lex": "91ef0c17d7c7cfca49051d34a4b830dab801ffcc15a8e1542c3083bddc5eb959",
    "word:1,2,1,3,2,1": "3f4e0bfa3d0c48941ac3e56c02bec9a8d6a26a3c73f2c5792b5839c9017e5a1b",
}


@pytest.mark.parametrize(
    "spec, workers",
    [
        pytest.param("lex", "1", id="lex"),
        pytest.param("lex", "2", id="lex-workers-2"),
        pytest.param("word:1,2,1,3,2,1", "1", id="word:1,2,1,3,2,1"),
    ],
)
def test_scan_n4_records_match_golden_digest(capsys, spec, workers):
    code, out, _ = run(capsys, "scan", "--n", "4", "--order", spec, "--workers", workers)
    assert code == 0
    digest = hashlib.sha256()
    lines = out.splitlines()
    for line in lines:
        record = json.loads(line)
        del record["elapsed_ms"]
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        digest.update(canonical.encode() + b"\n")
    assert len(lines) == 189
    assert digest.hexdigest() == SCAN_N4_DIGESTS[spec]
