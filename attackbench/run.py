#!/usr/bin/env python3
"""Build and run the attack / noisy / crack benchmark.

Usage (from the repository root):
  python3 attackbench/run.py --workload attack|noisy|crack --seed N \
      --seconds S --trace 0|1

Builds attackbench/ (which compiles the libraries under src/) into
$CARGO_TARGET_DIR/attackbench, or .bench_build/attackbench when the variable
is unset, then runs the driver once.  The driver's last stdout line is the
result JSON; this script prints it again as its own last line and keeps a
copy under .bench_out/.  With --trace 1 the driver's Chrome trace is written
to .bench_out/ and validated with scripts/check_trace.py.  Exits non-zero,
without a result line, when the build, the run or the trace check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"attackbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "attackbench_driver",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)} (log: {log})")
    driver = build_dir / "attackbench_driver"
    if not driver.exists():
        fail(f"driver not found at {driver}")
    return driver


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["attack", "noisy", "crack"])
    parser.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"library sources not found under {ROOT / 'src'}")
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    driver = build(target_dir / "attackbench")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    if args.trace:
        cmd += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")

    if args.trace:
        checker = ROOT / "scripts" / "check_trace.py"
        if not checker.exists():
            fail(f"trace checker not found at {checker}")
        check = subprocess.run([sys.executable, str(checker), str(trace_file)],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(check.stdout.strip(), file=sys.stderr)
        if check.returncode != 0:
            fail("trace failed scripts/check_trace.py")

    (out_dir / f"result-{stem}.json").write_text(json.dumps(result) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
