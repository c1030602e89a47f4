"""Workload definitions, the seeded reflection-order generator, and the
process runner that times one CLI invocation.

Every workload runs the real command line (`python -m cdindex ...`) in a
fresh interpreter, single-process, with the reflection order as the only
seeded input: the seed picks a random reduced word of the longest element
w0, and the program receives nothing but `--order word:<that word>`.  The
complete cd-index does not depend on the order, so the output checks do not
depend on the seed either.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"  # child output and traces; ignored by git
LAUNCHER = HERE / "launch.py"

DEFAULT_SEED = 1

# launch.py kills a single invocation that runs longer than this, and it
# counts as failed, so that one run always ends well inside its time limit.
INVOCATION_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "compute", "scan" or "tset": selects the output check
    n: int
    argv: tuple[str, ...]


# BENCHMARK.json lists scan-s5-gap3 and tset-s5-top: between them they run
# every layer, and each run lasts close to a minute because on a shared
# 2-core machine the CPU speed swings by up to 1.7x over tens of seconds.
# The other two are checked the same way but kept for manual runs:
# scan-s6-gap1 takes about 40 s per invocation, and compute-s5-top would
# not fit the time budget of a full benchmark pass next to the other two.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("compute-s5-top", "compute", 5, ("compute", "12345", "54321")),
        Workload("scan-s5-gap3", "scan", 5, ("scan", "--n", "5", "--max-length", "3")),
        Workload("tset-s5-top", "tset", 5, ("tset", "12345", "54321", "ddddc")),
        Workload("scan-s6-gap1", "scan", 6, ("scan", "--n", "6", "--max-length", "1")),
    )
}


def reduced_word(n: int, seed: int) -> list[int]:
    """A random reduced word for the longest element of S_n.

    Starting from w0, repeatedly strip a uniformly chosen right descent
    s_i (swap positions i, i+1 where w(i) > w(i+1)) until the identity is
    reached; the stripped letters, read backwards, spell w0.
    """
    rng = random.Random(seed)
    w = list(range(n, 0, -1))
    stripped = []
    while True:
        descents = [i for i in range(1, n) if w[i - 1] > w[i]]
        if not descents:
            break
        i = rng.choice(descents)
        w[i - 1], w[i] = w[i], w[i - 1]
        stripped.append(i)
    return stripped[::-1]


def order_spec(word: list[int]) -> str:
    return "word:" + ",".join(str(i) for i in word)


def cli_argv(workload: Workload, seed: int) -> list[str]:
    return [*workload.argv, "--order", order_spec(reduced_word(workload.n, seed))]


def child_env() -> dict[str, str]:
    """Environment for every child: the package comes from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str]) -> Invocation:
    """Run one child to completion through launch.py, from the checkout root."""
    OUT_DIR.mkdir(exist_ok=True)
    out, err = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
    launched = subprocess.run(
        [sys.executable, str(LAUNCHER), str(out), str(err), str(INVOCATION_TIMEOUT_S), "--", *argv],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True,
    )
    usage = json.loads(launched.stdout)
    return Invocation(
        wall_s=usage["wall_s"],
        cpu_s=usage["cpu_s"],
        peak_rss_mb=usage["peak_rss_mb"],
        returncode=usage["returncode"],
        stdout=out.read_bytes(),
        stderr=err.read_bytes(),
    )


def run_cli(workload: Workload, seed: int) -> Invocation:
    return run_process([sys.executable, "-m", "cdindex", *cli_argv(workload, seed)])


SETUP_SNIPPET = "from cdindex.cli import build_parser; build_parser()"


def run_setup() -> Invocation:
    """A fresh interpreter that imports the CLI and builds its parser."""
    return run_process([sys.executable, "-c", SETUP_SNIPPET])


def check_source_tree() -> str | None:
    """Why the package cannot be run from this checkout, or None."""
    if not (SRC / "cdindex" / "__init__.py").is_file():
        return f"package source not found under {SRC}"
    warm_up = run_setup()  # also byte-compiles the package on a fresh checkout
    if warm_up.returncode != 0:
        return "cannot import the CLI: " + warm_up.stderr.decode(errors="replace")
    return None
