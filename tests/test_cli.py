import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys

import pytest

from cdindex import cli, intervals
from cdindex.errors import FlipUndefinedError, NotDecomposableError
from cdindex.flips import TSetTable
from cdindex.perms import format_perm


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


def test_group_size_cap(capsys):
    code, _, err = run(capsys, "compute", "12345678", "87654321")
    assert code == cli.EXIT_USER
    assert "size cap" in err


def test_order_flag_variants(capsys):
    for spec in ("lex", "rev", "word:1,2,1,3,2,1"):
        code, out, _ = run(capsys, "compute", "2134", "4321", "--order", spec)
        assert code == 0
        assert json.loads(out)["cd_index"]["2"] == {"cc": 2, "d": 1}
    code, _, err = run(capsys, "compute", "2134", "4321", "--order", "bogus")
    assert code == cli.EXIT_USER
    # scan resolves the order before its sweep
    code, out, err = run(capsys, "scan", "--n", "4", "--max-length", "1", "--order", "bogus")
    assert code == cli.EXIT_USER and out == "" and "unknown order spec" in err


@pytest.mark.parametrize("command", ["compute", "tset", "dot"])
@pytest.mark.parametrize(
    "u, v, order, message",
    [
        ("2134", "4321", "bogus", "unknown order spec"),
        ("4321", "2134", "lex", "is not <= 2134 in Bruhat order"),
        ("213", "4321", "lex", "different symmetric groups"),
    ],
    ids=["bad-order", "incomparable", "different-groups"],
)
def test_interval_commands_reject_bad_input_in_one_line(
    capsys, monkeypatch, command, u, v, order, message
):
    """compute, tset and dot check u, v and --order before any work: each
    fault exits 2 with one error line, and dot builds no interval first."""

    def no_build(*args):
        raise AssertionError("built an interval before rejecting the input")

    monkeypatch.setattr(cli, "build_interval", no_build)
    monomial = ["d"] if command == "tset" else []
    code, out, err = run(capsys, command, u, v, *monomial, "--order", order)
    assert code == cli.EXIT_USER and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


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


# sha256 of the whole `tset 12345 54321 ddddc` stdout, frozen from the
# route that filtered every length-9 path of the cone by its word.
TSET_S5_TOP_DIGESTS = {
    "lex": "827dd6e509f8175beb9c528686bffc3cc9a1789eace7560af579fa8b24ae01ce",
    "word:2,1,3,4,3,2,3,1,4,2": "2d9f0f946f682778b69a22f7720f951c785982f728327756f39670bee27f7066",
}


@pytest.mark.parametrize("spec", sorted(TSET_S5_TOP_DIGESTS))
def test_tset_s5_top_output_matches_golden_digest(capsys, spec):
    code, out, _ = run(capsys, "tset", "12345", "54321", "ddddc", "--order", spec)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TSET_S5_TOP_DIGESTS[spec]


def record_builds(monkeypatch):
    """Every build_interval call from any cdindex module, as its arguments."""
    built = []
    real = intervals.build_interval

    def recording(*args):
        built.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name == "cdindex" or name.startswith("cdindex."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recording)
    return built


def test_tset_builds_only_the_sink_cone(capsys, monkeypatch):
    """The sink's table reads its cone off the group's Bruhat graph, the
    one build, for the sink w0 and for a sink below it; [u, v] and the
    cone [e, v] are never built."""
    built = record_builds(monkeypatch)
    for v in ("4321", "4231"):
        intervals.bruhat_graph.cache_clear()
        built.clear()
        code, _, _ = run(capsys, "tset", "2134", v, "d")
        assert code == 0
        assert built == [((1, 2, 3, 4), (4, 3, 2, 1))], v
    code, _, err = run(capsys, "tset", "4321", "2134", "d")
    assert code == cli.EXIT_USER and "not <=" in err


def test_scan_builds_the_group_graph_once(capsys, monkeypatch):
    built = record_builds(monkeypatch)
    intervals.bruhat_graph.cache_clear()
    code, _, _ = run(capsys, "scan", "--n", "4")
    assert code == 0
    assert built == [((1, 2, 3, 4), (4, 3, 2, 1))]


def test_tset_walks_each_side_once_through_flip(capsys, monkeypatch):
    """`tset` reads T and T-bar off the flip dict, so `t_set` runs exactly
    twice, T then T-bar, both times inside `flip`."""
    calls, inside = [], []
    real_t_set, real_flip = TSetTable.t_set, TSetTable.flip

    def t_set(self, w, gamma, bar=False):
        calls.append((bar, bool(inside)))
        return real_t_set(self, w, gamma, bar)

    def flip(self, w, gamma):
        inside.append(w)
        try:
            return real_flip(self, w, gamma)
        finally:
            inside.pop()

    monkeypatch.setattr(TSetTable, "t_set", t_set)
    monkeypatch.setattr(TSetTable, "flip", flip)
    code, out, _ = run(capsys, "tset", "12345", "54321", "ddc")
    assert code == 0 and len(json.loads(out)["t"]) > 1
    assert calls == [(False, True), (True, True)]


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


def test_running_out_of_memory_is_one_line_and_exit_2(capsys, monkeypatch):
    """A MemoryError does not escape as a traceback (which would exit 1,
    the scan-violation code): one line names the command and the exit is 2."""
    def boom(self, w, gamma):
        raise MemoryError

    monkeypatch.setattr(TSetTable, "t_set", boom)
    code, out, err = run(capsys, "tset", "2134", "4321", "dd")
    assert code == cli.EXIT_USER == 2
    assert out == ""
    assert err.splitlines() == ["error: tset ran out of memory"]
    assert "Traceback" not in err


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


def strip_elapsed(line):
    record = json.loads(line)
    record.pop("elapsed_ms")
    return json.dumps(record, sort_keys=True)


def test_scan_s3_clean_and_resume(capsys, tmp_path):
    out_file = tmp_path / "scan.jsonl"
    code, _, _ = run(capsys, "scan", "--n", "3", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 13
    assert all(r["clean"] for r in records)

    # drop every other record and resume; each kept line stays verbatim in
    # its slot and the records come back in merge order
    keep = lines[1::2]
    out_file.write_text("\n".join(keep) + "\n")
    code, _, _ = run(capsys, "scan", "--n", "3", "--out", str(out_file), "--resume")
    assert code == 0
    resumed = out_file.read_text().splitlines()
    assert resumed[1::2] == keep
    assert list(map(strip_elapsed, resumed)) == list(map(strip_elapsed, lines))

    # a sweep under another order keeps these records, ahead of its own
    args = ("scan", "--n", "3", "--order", "rev", "--out", str(out_file), "--resume")
    code, _, _ = run(capsys, *args)
    assert code == 0
    both = out_file.read_text().splitlines()
    assert both[:13] == resumed
    assert [json.loads(line)["order"] for line in both[13:]] == ["rev"] * 13


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_scan_cut_mid_record_resumes_in_merge_order(capsys, tmp_path, workers):
    """A file cut mid-line at about half, as a kill leaves it, resumes to
    the records of an uninterrupted run, in order, keeping the old lines
    verbatim; the partial last line is dropped and its record rescanned."""
    out_file = tmp_path / "s4.jsonl"
    code, _, _ = run(capsys, "scan", "--n", "4", "--out", str(out_file))
    assert code == 0
    full = out_file.read_text()
    cut = full[: len(full) // 2]
    assert not cut.endswith("\n")
    out_file.write_text(cut)
    code, _, _ = run(
        capsys, "scan", "--n", "4", "--out", str(out_file), "--resume", "--workers", workers
    )
    assert code == 0
    resumed = out_file.read_text().splitlines()
    kept = cut.splitlines()[:-1]
    assert resumed[: len(kept)] == kept
    assert list(map(strip_elapsed, resumed)) == list(map(strip_elapsed, full.splitlines()))
    assert not (tmp_path / "s4.jsonl.tmp").exists()
    assert not (tmp_path / "s4.jsonl.spool").exists()


def fail_at_job(monkeypatch, k):
    """The k-th sink job raises a FlipUndefinedError, which stops the sweep
    with exit 4 as a kill would stop it, after jobs 1..k-1 have ended."""
    real = cli._scan_sink
    started = []

    def failing(job):
        started.append(job)
        if len(started) == k:
            raise FlipUndefinedError(job[0], "D", job[0], 1, 2)
        return real(job)

    monkeypatch.setattr(cli, "_scan_sink", failing)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_killed_scan_resumes_from_its_spool(capsys, monkeypatch, tmp_path, workers):
    """A sweep stopped at its 12th of 23 sink jobs leaves no --out and a
    spool; cut mid-line, as a kill leaves it, the spool resumes to the
    records of an uninterrupted run, in order: its complete lines are kept
    verbatim, the cut one is dropped and its record rescanned."""
    code, full, _ = run(capsys, "scan", "--n", "4")
    assert code == 0
    out_file = tmp_path / "s4.jsonl"
    spool = tmp_path / "s4.jsonl.spool"
    with monkeypatch.context() as patch:
        fail_at_job(patch, 12)
        code, _, _ = run(capsys, "scan", "--n", "4", "--out", str(out_file))
    assert code == cli.EXIT_FLIP_UNDEFINED
    assert not out_file.exists()
    # mark the spooled records, so that a rescanned one cannot pass for them
    marked = "".join(
        json.dumps({**json.loads(line), "elapsed_ms": -1}, sort_keys=True) + "\n"
        for line in spool.read_text().splitlines()
    )
    cut = marked[: marked.rindex("\n", 0, -1) + 10]
    spool.write_text(cut)
    kept = cut.splitlines()[:-1]
    assert 0 < len(kept) < 189

    code, _, _ = run(
        capsys, "scan", "--n", "4", "--out", str(out_file), "--resume", "--workers", workers
    )
    assert code == 0
    resumed = out_file.read_text().splitlines()
    assert sorted(line for line in resumed if '"elapsed_ms": -1,' in line) == sorted(kept)
    assert list(map(strip_elapsed, resumed)) == list(map(strip_elapsed, full.splitlines()))
    assert not spool.exists()


def test_the_spool_holds_the_ended_jobs_and_a_stale_one_is_not_read(capsys, monkeypatch, tmp_path):
    """When job k starts, the spool holds exactly the lines of jobs 1..k-1;
    without --resume a stale spool is truncated unread (its record of
    [1234, 2134] would take that slot and count as unclean); a run that
    ends removes it."""
    out_file = tmp_path / "s4.jsonl"
    spool = tmp_path / "s4.jsonl.spool"
    spool.write_text('{"clean": false, "order": "lex", "u": "1234", "v": "2134"}\n')
    real = cli._scan_sink
    ended = []

    def checked(job):
        assert spool.read_text() == "".join(line + "\n" for line in ended)
        lines = real(job)
        ended.extend(line for line, _ in lines)
        return lines

    monkeypatch.setattr(cli, "_scan_sink", checked)
    code, _, _ = run(capsys, "scan", "--n", "4", "--out", str(out_file))
    assert code == 0
    assert len(ended) == 189
    assert sorted(out_file.read_text().splitlines()) == sorted(ended)
    assert not spool.exists()


def test_scan_resume_without_an_output_file_is_a_user_error(capsys):
    code, out, err = run(capsys, "scan", "--n", "3", "--resume")
    assert code == cli.EXIT_USER and out == ""
    assert err.splitlines() == ["error: --resume needs --out"]


def test_a_scan_without_resume_rewrites_its_output(capsys, tmp_path):
    out_file = tmp_path / "s4.jsonl"
    for _ in range(2):
        code, _, _ = run(capsys, "scan", "--n", "4", "--out", str(out_file))
        assert code == 0
    assert len(out_file.read_text().splitlines()) == 189


def test_resume_rejects_an_unparsable_line_before_the_last(capsys, tmp_path):
    out_file = tmp_path / "s3.jsonl"
    run(capsys, "scan", "--n", "3", "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    before = "\n".join([lines[0][:-1]] + lines[1:]) + "\n"
    out_file.write_text(before)
    code, _, err = run(capsys, "scan", "--n", "3", "--out", str(out_file), "--resume")
    assert code == cli.EXIT_IO
    assert "resume file" in err
    assert out_file.read_text() == before
    assert not (tmp_path / "s3.jsonl.spool").exists()


@pytest.mark.parametrize("suffix", ["", ".spool"], ids=["out", "spool"])
def test_resume_rejects_a_complete_last_line_that_does_not_parse(capsys, tmp_path, suffix):
    """Only a last line with no newline is taken as cut short by a kill:
    in --out and in the spool alike, a last line that ends with a newline
    and does not parse exits 5 before the sweep and leaves the file as it
    was."""
    out_file = tmp_path / "s3.jsonl"
    run(capsys, "scan", "--n", "3", "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    out_file.unlink()
    resumed = tmp_path / ("s3.jsonl" + suffix)
    before = "".join(line + "\n" for line in lines[:5]) + '{"u": "12\n'
    resumed.write_text(before)
    code, _, err = run(capsys, "scan", "--n", "3", "--out", str(out_file), "--resume")
    assert code == cli.EXIT_IO
    assert "resume file" in err
    assert resumed.read_text() == before


def test_resume_counts_the_unclean_old_records(capsys, tmp_path):
    out_file = tmp_path / "s3.jsonl"
    run(capsys, "scan", "--n", "3", "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    record = json.loads(lines[2])
    record["clean"] = False
    lines[2] = json.dumps(record, sort_keys=True)
    out_file.write_text("\n".join(lines[:7]) + "\n")
    code, _, err = run(capsys, "scan", "--n", "3", "--out", str(out_file), "--resume")
    assert code == cli.EXIT_VIOLATION
    assert "1 inconsistent" in err
    assert out_file.read_text().splitlines()[2] == lines[2]


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


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_scan_rejects_fewer_than_one_worker(capsys, workers):
    code, out, err = run(capsys, "scan", "--n", "3", "--workers", workers)
    assert code == cli.EXIT_USER and out == ""
    assert "--workers" in err


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_scan_rejects_a_length_cap_below_one(capsys, cap):
    code, out, err = run(capsys, "scan", "--n", "3", "--max-length", cap)
    assert code == cli.EXIT_USER and out == ""
    assert "--max-length" in err


def test_scan_unwritable_output_is_io_error(capsys, tmp_path):
    """An --out that is a directory fails before the sweep, with no
    `.tmp` copy and no spool left beside it."""
    code, _, err = run(capsys, "scan", "--n", "2", "--out", str(tmp_path))
    assert code == cli.EXIT_IO
    assert "error" in err
    assert not list(tmp_path.parent.glob(tmp_path.name + ".*"))


@pytest.mark.parametrize(
    "error",
    [
        pytest.param(FlipUndefinedError((2, 1), "DA", (2, 1), 3, 2), id="size-mismatch"),
        pytest.param(FlipUndefinedError((2, 1), "A", (2, 1), reason="tail is outside"), id="reason"),
    ],
)
def test_flip_undefined_survives_a_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is FlipUndefinedError and str(back) == str(error)
    assert vars(back) == vars(error)


_SCAN_SINK = cli._scan_sink


def failing_at_w0(job):
    """`_scan_sink`, raising a FlipUndefinedError for the sink 4321; at
    module level, so that the pool can send it to its workers."""
    if format_perm(job[0]) == "4321":
        raise FlipUndefinedError(job[0], "D", job[0], 1, 2)
    return _SCAN_SINK(job)


def test_a_flip_undefined_sink_exits_4_under_two_workers(capsys, monkeypatch):
    """A FlipUndefinedError raised in a worker crosses back to the parent,
    so the scan exits 4 with its message, not with a broken pool."""
    monkeypatch.setattr(cli, "_scan_sink", failing_at_w0)
    code, _, err = run(capsys, "scan", "--n", "4", "--workers", "2")
    assert code == cli.EXIT_FLIP_UNDEFINED
    assert "|T| = 1 but |T-bar| = 2" in err


def killed_at_w0(job):
    """`_scan_sink`, whose worker process is killed by SIGKILL at the sink
    4321, as the kernel kills a process that runs out of memory; at module
    level, so that the pool can send it to its workers.  It kills only a
    pool worker, never the process that runs the tests."""
    if format_perm(job[0]) == "4321" and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _SCAN_SINK(job)


def test_a_dead_worker_exits_2_and_its_scan_resumes(capsys, monkeypatch, tmp_path):
    """A worker killed under two workers breaks the pool: the scan exits 2
    with one line and no traceback, and leaves its spool, from which a
    resumed run writes the records of an uninterrupted one."""
    out_file = tmp_path / "s4.jsonl"
    spool = tmp_path / "s4.jsonl.spool"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_scan_sink", killed_at_w0)
        code, out, err = run(capsys, "scan", "--n", "4", "--workers", "2", "--out", str(out_file))
    assert code == cli.EXIT_USER and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "process died" in err and str(spool) in err
    assert "was written" in err
    assert spool.exists() and not out_file.exists()
    code, _, _ = run(capsys, "scan", "--n", "4", "--out", str(out_file), "--resume")
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 189 and records_digest(lines) == SCAN_DIGESTS[4, "lex"]
    assert not spool.exists()


def test_scan_reports_violations_with_exit_1(capsys, monkeypatch):
    import cdindex.verify as verify_mod

    real = verify_mod.scan_interval

    def poisoned(u, order_id, table):
        record = real(u, order_id, table)
        record["clean"] = False
        return record

    monkeypatch.setattr(cli, "scan_interval", poisoned)
    code, out, err = run(capsys, "scan", "--n", "2")
    assert code == cli.EXIT_VIOLATION
    assert "inconsistent" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_builds_each_sink_table_once(capsys, monkeypatch, tmp_path, workers):
    """A scan runs one job per sink, so each sink's table is built once,
    in whichever process runs its job, and one table holds both T and
    T-bar.  Worker processes fork from this one and inherit the patch;
    every build appends its sink to one file."""
    log = tmp_path / "builds.txt"
    real = TSetTable.__init__

    def logged(self, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(format_perm(args[0]) + "\n")
        real(self, *args, **kwargs)

    monkeypatch.setattr(TSetTable, "__init__", logged)
    code, out, _ = run(capsys, "scan", "--n", "5", "--max-length", "3", "--workers", workers)
    assert code == 0
    sinks = {json.loads(line)["v"] for line in out.splitlines()}
    assert len(sinks) == 119
    assert sorted(log.read_text().split()) == sorted(sinks)


# sha256 over the scan records in output order, each with elapsed_ms
# removed and dumped with sorted keys and compact separators, one per line.
# The `scan --n 4` digests were frozen from the per-t shelling route (one
# enumeration and one split per reflection), which tests/test_complete.py
# keeps as its reference; the full `scan --n 5` digest pins every
# interval of S_5 under lex.  Two workers, each with its own sink tables as
# path-sum source, give the same.
SCAN_DIGESTS = {
    (4, "lex"): "91ef0c17d7c7cfca49051d34a4b830dab801ffcc15a8e1542c3083bddc5eb959",
    (4, "word:1,2,1,3,2,1"): "3f4e0bfa3d0c48941ac3e56c02bec9a8d6a26a3c73f2c5792b5839c9017e5a1b",
    (5, "lex"): "2f6b6b4f75e13e7640136bb0384038313499b24cc0462632c9b2f8989bc7267d",
}


def records_digest(lines):
    """The digest of `SCAN_DIGESTS` over the scan record lines."""
    digest = hashlib.sha256()
    for line in lines:
        record = json.loads(line)
        del record["elapsed_ms"]
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        digest.update(canonical.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "n, spec, workers, records",
    [
        pytest.param(4, "lex", "1", 189, id="lex"),
        pytest.param(4, "lex", "2", 189, id="lex-workers-2"),
        pytest.param(4, "word:1,2,1,3,2,1", "1", 189, id="word:1,2,1,3,2,1"),
        pytest.param(5, "lex", "2", 3661, id="s5-lex-workers-2"),
    ],
)
def test_scan_n4_records_match_golden_digest(capsys, n, spec, workers, records):
    code, out, _ = run(capsys, "scan", "--n", str(n), "--order", spec, "--workers", workers)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == records
    assert records_digest(lines) == SCAN_DIGESTS[n, spec]


FOOTPRINT = """
import json, sys
from cdindex import cli

def heavy():
    return [m for m in ("dataclasses", "inspect") if m in sys.modules]

cli.build_parser()
after_parser = heavy()
for argv in {runs!r}:
    assert cli.main(argv) == 0, argv
print(json.dumps([after_parser, heavy()]))
"""


def test_the_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, about
    1 MB of resident memory in every CLI process: a fresh interpreter that
    imports the CLI, builds its parser and then runs compute, tset, scan
    and dot loads neither module."""
    runs = [
        ["compute", "1234", "4321", "--all-orders"],
        ["tset", "1234", "4321", "ddc"],
        ["scan", "--n", "3", "--out", str(tmp_path / "s3.jsonl")],
        ["dot", "1234", "4321", "-o", str(tmp_path / "s4.dot")],
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT.format(runs=runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
