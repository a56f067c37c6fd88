"""Paths, child processes, order statistics and the determinism ledger."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ltbp"
WORK = ROOT / "perfbench" / ".work"
TRACES = WORK / "traces"
LEDGER = WORK / "ledger.json"


def child_env() -> dict:
    """Environment for child processes: the checkout's own sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def ltbp_argv(*args) -> list[str]:
    """A CLI stage as users run it: ``python -m ltbp ...``."""
    return [sys.executable, "-m", "ltbp", *map(str, args)]


def child_argv(*args) -> list[str]:
    """A benchmark child (perfbench/child.py) that calls into ltbp."""
    return [sys.executable, "-m", "perfbench.child", *map(str, args)]


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall_s: float  # from spawn to reap, so it includes interpreter start
    rss_mb: float  # peak resident set of this child alone


def run_child(argv: list[str], cwd: Path, log: Path) -> ChildResult:
    """Run one child to completion; its output goes to ``log``."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4; keep Popen from waiting again
    return ChildResult(code, wall, usage.ru_maxrss / 1024)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def nearest_rank(values, q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def file_digests(tree: Path) -> dict[str, str]:
    """sha256 of every file under ``tree``, keyed by relative path."""
    digests = {}
    for path in sorted(tree.rglob("*")):
        if path.is_file():
            digests[path.relative_to(tree).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def source_digest() -> str:
    """sha256 over the Python sources of ltbp, so that values which only the
    same code must repeat can be keyed by it."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class Ledger:
    """Values that must repeat exactly across runs of one seed.

    The first run of a seed records each value; a later run that finds a
    different one reports it as a determinism fault. A key that must hold
    only for the same code carries ``source_digest()``.
    """

    def __init__(self, path: Path | None = None):
        self.path = path or LEDGER
        try:
            self.entries = json.loads(self.path.read_text())
        except FileNotFoundError:
            self.entries = {}

    def agrees(self, key: str, value) -> bool:
        if key in self.entries:
            return self.entries[key] == value
        self.entries[key] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return True
