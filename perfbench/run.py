#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, next to the state that survives
runs (the characterized 10 K library) and the span files of traced runs.
The last line of stdout is the JSON result; any failure exits non-zero
without printing one.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("char_cold", "synth_fleet", "serve_mixed")


def run(cmd, **kwargs):
    """Run `cmd` to completion; a SIGTERM/SIGINT to this script stops it too."""
    child = subprocess.Popen(cmd, text=True, **kwargs)
    previous = {}

    def stop(signum, frame):
        child.terminate()

    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, stop)
    try:
        out, _ = child.communicate()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return child.returncode, out


def build(source_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs]
    for cmd in (configure, compile_):
        code, out = run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if code != 0:
            sys.stderr.write(out[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    source_dir = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out, "perfbench")
    if not build(source_dir, build_dir):
        return 1

    work_dir = os.path.join(out, "perfbench_run_%d" % os.getpid())
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", root,
           "--state-dir", os.path.join(out, "perfbench_state"),
           "--work-dir", work_dir,
           "--trace-dir", os.path.join(out, "perfbench_traces")]
    try:
        code, out = run(cmd, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if code != 0 or not out.strip():
        sys.stderr.write("perfbench: %s exited with %d\n" % (args.workload, code))
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
