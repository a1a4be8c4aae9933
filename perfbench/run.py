#!/usr/bin/env python3
"""Build and run the exareq end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline|model|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test          # the benchmark's own tests
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference

The benchmark is built from source (Release) into $CARGO_TARGET_DIR
(default .bench_build) under the repository root; the first run builds,
later runs reuse the build. The last line of standard output is the result
JSON of the C++ harness (see perfbench/README.md).
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the library sources, for builds outside a git checkout."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def commit_id(root):
    try:
        result = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()[:12] + "+src-" + source_digest(root)
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + source_digest(root)


def build(root, build_dir, target):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def run(command, cwd, timeout):
    """Runs `command`, its output passed through; kills it on timeout."""
    process = subprocess.Popen(command, cwd=cwd, start_new_session=True)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, 9)
        process.wait()
        fail("run exceeded %d s and was stopped" % timeout)
    except BaseException:
        os.killpg(process.pid, 9)
        process.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["pipeline", "model", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % root)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    # Relative paths keep the Unix socket path short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"), root)
    reference = os.path.join("perfbench", "reference")

    try:
        if args.self_test:
            tests = build(root, build_dir, "perfbench_tests")
            os.environ["PERFBENCH_TEST_WORK_DIR"] = os.path.join(work_dir, "tests")
            sys.exit(run([tests], root, 900))
        binary = build(root, build_dir, "exareq_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    if args.record_reference:
        sys.exit(run([binary, "--record-reference", reference], root, 900))
    if args.workload is None:
        fail("--workload is required")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--reference", reference, "--work-dir", work_dir,
               "--commit", commit_id(root)]
    sys.exit(run(command, root, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
