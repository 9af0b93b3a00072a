#!/usr/bin/env python3
"""Host-time benchmark of the conversion pipeline.

Builds the benchmark binary (perfbench/CMakeLists.txt, an optimized
build of the library sources under src/) into .bench_build/perfbench,
runs one workload and passes its output through. The last line of
standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics.

    python3 perfbench/run.py --workload subjects-cold --seed 1 \
        --seconds 55 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json). --workload all runs every workload with both
settings, each in its own process, and prints every metric as a table;
it exits non-zero if any output check failed.

Run from anywhere; everything it writes stays under the repository's
.bench_build/ directory, and the cache directories it creates there are
removed before it exits.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = BUILD / "scratch"
WORKLOADS = ["subjects-cold", "forum-service"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def provenance():
    """Machine, build and source identity, recorded beside the metrics."""
    cpu = "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"row": "provenance", "git_commit": commit,
            "src_sha256": digest.hexdigest(), "cpu_model": cpu,
            "nproc": len(os.sched_getaffinity(0)), "build_type": "Release"}


def run_one(workload, seed, seconds, trace):
    """Run one workload in its own process; return (exit code, stdout)."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", str(SCRATCH)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # The binary removes its cache directory itself; this covers a
        # run that was killed.
        shutil.rmtree(SCRATCH / f"cache-{proc.pid}", ignore_errors=True)
    return proc.returncode, out


def run_all(seed, seconds):
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(workload, seed, seconds, trace)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                print(f"{workload} --trace {trace}: FAILED (exit {code})")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload} --trace {trace}: correct={result['correct']}"
                  f" attempted={result['attempted']}"
                  f" failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:28s} {metric['value']:>18.6g} "
                      f"{metric['unit']}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the standard configuration")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Eight HETEROGEN_* variables silently change engine, proposer,
    # cache, faults and threads: no timing is taken under any of them.
    for name in os.environ:
        if name.startswith("HETEROGEN_"):
            fail(f"refusing to run with {name} set", code=2)
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")

    build()
    print(json.dumps(provenance()), flush=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
