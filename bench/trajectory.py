#!/usr/bin/env python3
"""Per-benchmark series over the committed history of BENCH_perf.json.

Usage:
    trajectory.py [--filter REGEX]

Walks ``git log`` of the root BENCH_perf.json, oldest commit first, loads
each committed version with ``git show`` and prints, for every benchmark
whose name matches ``--filter`` (a regular expression searched in the
name), one line per version: the commit that recorded it, that commit's
date, the ``git_sha`` the run was stamped with, and the benchmark's median
time in its unit.

The median is google-benchmark's ``median`` aggregate when the run had
repetitions, else the median of the run's plain entries.  ``/real_time``
benchmarks report wall time, the others CPU time, as the perf gate reads them
(check_perf_regression.py).  A shallow clone holds only the newest version of
the file, so it prints one point per benchmark.

Exit status: 0 on success, 2 when no committed version of the file can be
read.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = "BENCH_perf.json"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def versions() -> list[tuple[str, str, dict]]:
    """(commit, date, parsed JSON) for every committed version of the
    record, oldest first."""
    try:
        log = git("log", "--format=%h %cs", "--", RECORD)
    except (OSError, subprocess.CalledProcessError):
        return []
    out = []
    for line in reversed(log.splitlines()):
        commit, date = line.split()
        try:
            doc = json.loads(git("show", f"{commit}:{RECORD}"))
        except (subprocess.CalledProcessError, json.JSONDecodeError):
            continue  # deleted or unparsable at that commit
        out.append((commit, date, doc))
    return out


def medians(doc: dict) -> dict[str, tuple[float, str]]:
    """Benchmark name -> (median time, unit) for one BENCH_perf.json."""
    plain: dict[str, list[float]] = {}
    median: dict[str, float] = {}
    units: dict[str, str] = {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        metric = "real_time" if name.endswith("/real_time") else "cpu_time"
        if metric not in b:
            continue
        units[name] = b.get("time_unit", "ns")
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                median[name] = b[metric]
        else:
            plain.setdefault(name, []).append(b[metric])
    for name, times in plain.items():
        median.setdefault(name, statistics.median(times))
    return {name: (t, units[name]) for name, t in median.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--filter", default="",
                    help="regular expression a benchmark name must contain")
    args = ap.parse_args(argv)
    pattern = re.compile(args.filter)

    points = versions()
    if not points:
        print(f"trajectory.py: no readable committed version of {RECORD}",
              file=sys.stderr)
        return 2
    series: dict[str, list[str]] = {}
    for commit, date, doc in points:
        stamp = doc.get("context", {}).get("git_sha", "unknown")[:7]
        for name, (t, unit) in sorted(medians(doc).items()):
            if pattern.search(name):
                series.setdefault(name, []).append(
                    f"  {commit}  {date}  run {stamp:<7}  {t:12.4g} {unit}")
    print(f"# {len(points)} version(s) of {RECORD}")
    for name in sorted(series):
        print(name)
        print("\n".join(series[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
