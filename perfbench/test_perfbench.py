"""Tests of the benchmark's own code: python -m pytest perfbench"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_scan, check_tset, parse_records, scan_digest, scan_reference
from compare import verdict
from tracer import layer_values, self_times
from workloads import ROOT, SRC, WORKLOADS, child_env, order_spec, reduced_word

sys.path.insert(0, str(SRC))

from cdindex import cli  # noqa: E402
from cdindex.orders import order_from_reduced_word  # noqa: E402


def run_cli(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_seeded_words_are_reflection_orders(n):
    words = set()
    for seed in range(25):
        word = reduced_word(n, seed)
        assert len(word) == n * (n - 1) // 2
        order_from_reduced_word(n, word)  # raises unless a valid reflection order
        words.add(tuple(word))
    assert len(words) > 1
    assert reduced_word(n, 7) == reduced_word(n, 7)


@pytest.fixture(scope="module")
def s4_lex_records():
    return parse_records(run_cli("scan", "--n", "4"))


def test_scan_digest_does_not_depend_on_order(s4_lex_records):
    seeded = run_cli("scan", "--n", "4", "--order", order_spec(reduced_word(4, 3)))
    assert scan_digest(parse_records(seeded)) == scan_digest(s4_lex_records)
    result = check_scan(seeded, scan_reference(s4_lex_records))
    assert result.correct and result.attempted == 189 and result.failed == 0


def test_checker_rejects_one_altered_coefficient(s4_lex_records):
    ref = scan_reference(s4_lex_records)
    altered = copy.deepcopy(s4_lex_records)
    cd_index = altered[-1]["cd_index"]
    part = cd_index[max(cd_index, key=int)]
    monomial = next(iter(part))
    part[monomial] += 1
    stdout = "".join(json.dumps(r) + "\n" for r in altered).encode()
    result = check_scan(stdout, ref)
    assert not result.correct
    assert result.failed == 1


def test_checker_rejects_unclean_record(s4_lex_records):
    altered = copy.deepcopy(s4_lex_records)
    altered[0]["clean"] = False
    stdout = "".join(json.dumps(r) + "\n" for r in altered).encode()
    assert check_scan(stdout, scan_reference(s4_lex_records)).failed == 1


def test_tset_checker():
    good = run_cli("tset", "2134", "4321", "dd")
    assert check_tset(good, {"coefficient": 1}).correct
    assert not check_tset(good, {"coefficient": 2}).correct
    payload = json.loads(good)
    payload["flip"] = {k: "999" for k in payload["flip"]}
    assert not check_tset(json.dumps(payload).encode(), {"coefficient": 1}).correct


def test_self_time_subtracts_children_and_generator_time():
    doc = {
        "names": ["outer", "inner"],
        "spans": {
            "name": [0, 1, 1],
            "start_ns": [0, 10, 40],
            "end_ns": [100, 30, 50],
            "parent": [-1, 0, 0],
            "leaf_ns": [5, 0, 0],
        },
    }
    assert self_times(doc) == {"outer": (1, 65), "inner": (2, 30)}


def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    assert verdict(parent, [x * 0.8 for x in parent], "lower", 0.1)["verdict"] == "better"
    assert verdict(parent, [x * 1.3 for x in parent], "lower", 0.1)["verdict"] == "worse"
    assert verdict(parent, list(parent), "lower", 0.1)["verdict"] == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(parent, [x * 0.8 for x in parent], "higher", 0.1)["verdict"] == "worse"


def test_layer_map_covers_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((Path(__file__).parent / "layer_map.json").read_text())
    mapped = [name for layer in layer_map["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def test_traced_counts_repeat_and_cover_the_layers(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for k in range(2):
        trace = tmp_path / f"{k}.json"
        subprocess.run(
            [sys.executable, str(Path(__file__).parent / "tracer.py"), "--out", str(trace),
             "--run-id", str(k), "--", "scan", "--n", "3", "--order", "rev"],
            check=True, env=child_env(), stdout=subprocess.DEVNULL,
        )
        runs.append(layer_values(json.loads(trace.read_text())))
    measured_by_parent = {"cli.output_bytes", "trace.overhead_s"}
    for m in bench["per_layer"]:
        if m["name"] not in measured_by_parent:
            assert m["name"] in runs[0], m["name"]
    counts = {k: v for k, v in runs[0].items() if not k.endswith(".s")}
    assert counts == {k: v for k, v in runs[1].items() if not k.endswith(".s")}
