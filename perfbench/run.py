#!/usr/bin/env python3
"""The levity end-to-end benchmark (see perfbench/BENCH.md).

Builds perfbench/ (a standalone CMake package compiling the repository's
src/) in Release mode, refuses any other build type, and runs one
workload:

    python3 perfbench/run.py --workload levp-hot --seed 1 --seconds 10 \
        --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output and the host
record go to standard error. Per-run reports and trace spans land in
<build dir>/perfbench-work/out/.

    python3 perfbench/run.py --smoke

runs every workload briefly (store-warm too, which BENCHMARK.json does
not list) and asserts that nothing failed, that every metric named in
BENCHMARK.json is printed with its unit, and that the
traced per-layer times of an op add up to its end-to-end time within 10%
on levp-hot and compile-cold.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build,
relative to the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("levp-hot", "compile-cold", "store-warm", "vm-heavy")
LAYER_SUM_CHECKED = ("levp-hot", "compile-cold")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def nproc():
    return len(os.sched_getaffinity(0))


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary."""
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", str(min(4, nproc()))],
                   check=True, stdout=log, stderr=log)
    # The project's real CMAKE_BUILD_TYPE, read the way the BENCH_*.json
    # recorders read it; anything but Release is refused.
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from record_common import check_build_type, resolve_build_type
    check_build_type(resolve_build_type(bdir), allow_non_release=False)
    return os.path.join(bdir, "perfbench")


def run(binary, bdir, args):
    """Runs the benchmark binary; returns (exit code, parsed result)."""
    cmd = [binary, "--workdir", os.path.join(bdir, "perfbench-work")] + args
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, result, p.stdout


def check_names(result, expected, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}, "
                             f"wrong unit {wrong}")


def smoke(binary, bdir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in WORKLOADS:
        code, r, _ = run(binary, bdir, ["--workload", name, "--seed", "1",
                                        "--seconds", "1", "--trace", "0"])
        assert code == 0 and r and r["correct"], f"{name}: run failed"
        assert r["failed"] == 0, f"{name}: fail_ratio != 0"
        assert r["metrics"]["ok_ratio"]["value"] == 1, f"{name}: ok_ratio"
        check_names(r, spec["end_to_end"], name)
        print(f"smoke: {name}: {r['attempted']} ops, none failed",
              file=sys.stderr)

    code, r, _ = run(binary, bdir, ["--workload", "levp-hot", "--seed", "1",
                                    "--seconds", "4", "--trace", "1"])
    assert code == 0 and r and r["correct"] and r["failed"] == 0, \
        "traced run failed"
    check_names(r, spec["per_layer"], "traced run")
    for name in LAYER_SUM_CHECKED:
        ratio = r["metrics"][f"{name}.trace.layer_sum_ratio"]["value"]
        assert 0.9 <= ratio <= 1.1, \
            f"{name}: layer times add up to {ratio:.3f} of the op, not within 10%"
        print(f"smoke: {name}: layer times add up to {ratio:.3f} of op time",
              file=sys.stderr)

    code, r, _ = run(binary, bdir, ["--workload", "vm-heavy", "--seed", "1",
                                    "--seconds", "1", "--trace", "0",
                                    "--threads", str(nproc() + 1)])
    assert code != 0 and r is None, "more threads than CPUs was not refused"
    print("smoke: ok", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if a.smoke:
        smoke(binary, bdir)
        return 0
    if not a.workload:
        ap.error("--workload is required")
    code, r, out = run(binary, bdir, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    return code if r is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
