#!/usr/bin/env python3
"""Build and run one benchmark workload (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (the library sources under src/ plus perfbench/) in the
directory named by CARGO_TARGET_DIR, or .bench_build; later calls only
rebuild what changed. The last line of standard output is the workload's
JSON result. Exits non-zero, without a result, when the build or the run
fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target, tests=False):
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                 "-DPERFBENCH_TESTS=" + ("ON" if tests else "OFF")]
    steps = [configure, ["cmake", "--build", out, "-j", "4", "--target", target]]
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, target)


def source_identity():
    """The git sha when the checkout is a repository, and always a digest
    of the library sources, so results of different code never compare
    silently."""
    sha = ""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
        lines = git.stdout.split()
        # Only this checkout's own repository, not an enclosing one.
        if git.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha or "none", digest.hexdigest()[:16]


def selftest():
    binary = build("perfbench_test", tests=True)
    code = subprocess.run([binary]).returncode
    code |= subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_compare"], cwd=HERE).returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--stall-ms", type=int, default=0,
                        help="arm the serve.worker.stall fault (self-check)")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    sha, src = source_identity()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--git-sha", sha, "--src-digest", src]
    if args.stall_ms:
        command += ["--stall-ms", str(args.stall_ms)]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_dir(), "trace_%s_%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
