"""Shared plumbing for the BENCH_*.json recorders.

The recorder (record_bytecode_bench.py) goes through this module for
three things, and perfbench/run.py reuses its build-type check:

  * load_gbench()      — normalize a --benchmark_out_format=json file to
                         {name, ns_per_op, iterations, counters} rows.
  * resolve_build_type() — the *real* CMAKE_BUILD_TYPE parsed out of the
                         build tree's CMakeCache.txt. Google Benchmark's
                         context.library_build_type describes how the
                         benchmark *library* was built, not this project
                         — recording it as the build type has produced
                         misleading "debug" entries before. Non-Release
                         recordings are refused unless explicitly forced,
                         and forced ones are loudly flagged in the run.
  * append_run()       — BENCH_*.json files are append-only trajectories:
                         {"schema": "levity-bench-v2", "runs": [...]},
                         oldest first. A recorder never rewrites history;
                         it appends one dated run, and CI gates read the
                         latest entry. A legacy v1 single-snapshot file is
                         converted in place by becoming runs[0].
"""

import json
import os
import re
import sys

NON_COUNTER_KEYS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit",
    "family_index", "per_family_instance_index", "aggregate_name",
}

TIME_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

SCHEMA = "levity-bench-v2"


def load_gbench(path, suite=None):
    """Loads one Google Benchmark JSON file.

    Returns (rows, context): rows are the raw per-iteration entries
    normalized to ns/op plus their ledger counters; aggregates are
    skipped (the raw iterations carry the counters).
    """
    with open(path) as f:
        doc = json.load(f)
    rows = []
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue
        scale = TIME_UNIT_TO_NS[b.get("time_unit", "ns")]
        row = {
            "name": b["name"],
            "ns_per_op": round(b["real_time"] * scale, 1),
            "iterations": b["iterations"],
            "counters": {k: v for k, v in b.items()
                         if k not in NON_COUNTER_KEYS},
        }
        if suite is not None:
            row = {"suite": suite, **row}
        rows.append(row)
    return rows, doc.get("context", {})


def resolve_build_type(build_dir):
    """The project's CMAKE_BUILD_TYPE from <build_dir>/CMakeCache.txt,
    or None if it cannot be determined."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                m = re.match(r"CMAKE_BUILD_TYPE:\w+=(.*)$", line.strip())
                if m:
                    return m.group(1) or "unspecified"
    except OSError:
        return None
    return "unspecified"


def check_build_type(build_type, allow_non_release):
    """Refuses (exit 1) or loudly flags a non-Release recording.

    Returns True when the run must carry a non-release flag.
    """
    if build_type is None:
        print("error: cannot read CMAKE_BUILD_TYPE from the build "
              "directory's CMakeCache.txt; pass --build-dir pointing at "
              "the tree the benchmarks were built in", file=sys.stderr)
        sys.exit(1)
    if build_type.lower() == "release":
        return False
    msg = (f"benchmarks were built with CMAKE_BUILD_TYPE={build_type}, "
           "not Release — the numbers are not comparable to the "
           "recorded trajectory")
    if not allow_non_release:
        print(f"error: {msg} (pass --allow-non-release to record "
              "anyway, flagged)", file=sys.stderr)
        sys.exit(1)
    print(f"WARNING: {msg}; the run will be flagged "
          "non_release_build=true", file=sys.stderr)
    return True


def host_block(ctx, build_type):
    """The per-run host/build metadata block."""
    return {
        "num_cpus": ctx.get("num_cpus"),
        "mhz_per_cpu": ctx.get("mhz_per_cpu"),
        "cmake_build_type": build_type,
        # Kept for honesty about what it is: the benchmark *library*'s
        # build flavor, which older recordings misread as the project's.
        "benchmark_library_build_type": ctx.get("library_build_type"),
    }


def load_trajectory(path):
    """All previously recorded runs at `path`, oldest first ([] if the
    file does not exist). A legacy v1 snapshot counts as one run."""
    if not os.path.exists(path):
        return []
    with open(path) as f:
        old = json.load(f)
    if old.get("schema") == SCHEMA:
        return old.get("runs", [])
    # Legacy v1 single snapshot: the whole document becomes runs[0].
    old.pop("schema", None)
    return [old]


def append_run(path, run):
    """Appends one run to the trajectory file and rewrites it in v2
    form. Returns the full run list after the append."""
    runs = load_trajectory(path)
    runs.append(run)
    doc = {
        "schema": SCHEMA,
        "note": "append-only trajectory, oldest run first; CI gates "
                "read the latest entry",
        "runs": runs,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return runs
