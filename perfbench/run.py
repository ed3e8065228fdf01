#!/usr/bin/env python3
"""End-to-end benchmark entry point for udm.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library, the udm_serve daemon and the benchmark from source
into $CARGO_TARGET_DIR (default .bench_build), runs the harness
self-tests, then runs one workload. The last line of stdout is the JSON
result. Exits non-zero without a result when the sources are missing, the
build or a self-test fails, or a correctness gate fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("classify_ionosphere", "ingest_forest", "serve_small", "serve_batch")
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "udm_perfbench", "udm_serve_bin", "perfbench_selftest"],
        check=True, stdout=sys.stderr)


def run_bench(argv, cwd, timeout):
    """Runs the benchmark in its own process group (the daemon it spawns
    joins it), so a timeout or crash leaves no process behind."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s; killed" % timeout)
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "tools/udm_serve.cc"):
        if not os.path.isfile(os.path.join(root, needed)):
            log("no %s under %s; run from the repository root" % (needed, root))
            return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 1

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")])
    if selftest.returncode != 0:
        log("harness self-tests failed")
        return 1

    work = os.path.join(build_dir, "work", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    argv = [os.path.join(build_dir, "udm_perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace,
            "--serve-bin", os.path.join(build_dir, "udm_serve"),
            "--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    started = time.monotonic()
    try:
        code, out = run_bench(argv, work, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or not out:
        log("workload %s failed (exit %s)" % (args.workload, code))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    log("%s seed %d done in %.1f s" % (args.workload, args.seed, time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
