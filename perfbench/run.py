#!/usr/bin/env python3
"""Build and run the ccomp end-to-end benchmark.

    python3 perfbench/run.py --workload <hot-trace|cold-zipf|churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ccomp source tree. The first call configures and
builds the library and the benchmark binary (Release, CCOMP_OBS=ON) into
the directory named by $CARGO_TARGET_DIR, or .bench_build; later calls
rebuild only what changed. The binary's stdout is passed through, so the
last line is the result object. A traced run (--trace 1) also writes its spans to
<build dir>/traces/<workload>-seed<n>.json.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-trace", "cold-zipf", "churn")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialize concurrent first runs on one build tree.
    with open(os.path.join(out, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        sys.exit("perfbench: --seconds must be >= 1 and --seed >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        sys.exit("perfbench: no ccomp sources next to " + HERE)

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)


if __name__ == "__main__":
    main()
