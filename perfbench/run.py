#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --limits dense-classic.n64=400,... \
        --workload dense-classic --seed 1 --seconds 30 --trace 0

Configures the repository's top-level CMake project into
.bench_build/cmake with perfbench/build.cmake hooked in, builds only the
benchmark binary (and the library it links), then runs it. The binary
prints a table and, as its last line, the JSON result. Result files and
span dumps go to .bench_build/out/. Exits non-zero when the build fails,
when the correctness gate or the replay fidelity check fails, or when
the workload aborts.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_build" / "out"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("dense-classic", "batch-throughput", "serve-mixed")
# Each silently switches the executor under measurement (pool width,
# pipelined vs sequential task execution); they are removed from the
# binary's environment and the removal is recorded with the result.
PINNED_ENV = ("HSVD_THREADS", "HSVD_PIPELINE")


def limits_for(spec, workload):
    """The workload's entries of a WORKLOAD[.KEY]=MS list, as the binary's
    --limit-ms value: "MS" for a plain entry, "KEY=MS,..." for keyed ones."""
    plain, keyed = None, []
    for item in spec.split(","):
        name, _, value = item.partition("=")
        base, _, key = name.partition(".")
        if base not in WORKLOADS or not value:
            raise SystemExit(f"error: bad --limits entry {item!r}")
        if base == workload:
            if key:
                keyed.append(f"{key}={float(value)}")
            else:
                plain = str(float(value))
    if (plain is None) == (not keyed):
        raise SystemExit(f"error: give {workload} either one latency limit "
                         "or keyed ones, not both or neither")
    return plain if plain is not None else ",".join(keyed)


def build():
    """Configure (first run only) and build the binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = ROOT / ".bench_build" / "build.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR), *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                      f"-DCMAKE_PROJECT_INCLUDE={HERE / 'build.cmake'}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "hsvd_perfbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                raise SystemExit(f"error: benchmark build failed (see {log})")
    return BUILD_DIR / "hsvd_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limits", required=True,
                        help="latency limits in ms, per workload or per "
                        "workload and key, e.g. "
                        "dense-classic.n64=400,serve-mixed=100")
    args = parser.parse_args()
    limit_ms = limits_for(args.limits, args.workload)

    binary = build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    unset = [f"{name}={env.pop(name)}" for name in PINNED_ENV if name in env]
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--limit-ms", limit_ms, "--out-dir", str(OUT_DIR)]
    if unset:
        cmd += ["--unset-env", ";".join(unset)]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
