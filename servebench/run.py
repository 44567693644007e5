#!/usr/bin/env python3
"""servebench entry point: builds the benchmark from source, then runs it.

    python3 servebench/run.py --workload warm_point --seed 1 --seconds 40 --trace 0
    python3 servebench/run.py --smoke       # every workload, both modes, briefly
    python3 servebench/run.py --self-test   # the correctness gate must fire

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; span dumps of traced runs go to its
spans/ directory. The last line of stdout is the run's JSON result.
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
WORKLOADS = ["warm_point", "cold_sweep", "ingest_mixed", "fleet_probe"]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the servebench target; returns its path."""
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not (out / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "servebench",
                    "-j", jobs], check=True, **quiet)
    return out / "servebench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "none"


def run(binary, args, capture=False):
    """Runs the benchmark binary with a hard timeout; returns the result."""
    return subprocess.run([str(binary)] + args, timeout=RUN_TIMEOUT_S,
                          capture_output=capture, text=True)


def smoke(binary):
    """Short runs of every workload in both modes: every metric named in
    BENCHMARK.json is emitted with its unit, outputs are correct, and the
    plan digest follows the seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        digests = []
        for seed in ("1", "1", "2"):
            result = run(binary, ["--plan-only", "--workload", workload,
                                  "--seed", seed, "--seconds", "2"],
                         capture=True)
            digests.append(result.stdout.strip())
        if digests[0] != digests[1] or digests[0] == digests[2]:
            problems.append(f"{workload}: plan digests {digests}")
        for trace in (0, 1):
            result = run(binary, ["--workload", workload, "--seed", "1",
                                  "--seconds", "2", "--trace", str(trace),
                                  "--span-dir", str(span_dir())],
                         capture=True)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit "
                                f"{result.returncode} {result.stderr.strip()}")
                continue
            out = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                problems.append(f"{workload} trace {trace}: metrics differ "
                                f"(missing {sorted(missing)}, extra "
                                f"{sorted(extra)}, or units)")
            if not out["correct"] or out["failed"] != 0:
                problems.append(f"{workload} trace {trace}: incorrect output")
            print(f"{workload} trace {trace}: ok, {len(got)} metrics, "
                  f"{out['attempted']} calls")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def self_test(binary):
    """The correctness gate end to end: a short timed run passes, and the
    same run with one reference moved by one ulp prints correct=false and
    exits 1."""
    args = ["--workload", "warm_point", "--seed", "7", "--seconds", "1",
            "--trace", "0"]
    ok = True
    for perturb, want_correct, want_code in ((False, True, 0),
                                             (True, False, 1)):
        result = run(binary, args + (["--perturb-reference"] if perturb
                                     else []), capture=True)
        lines = result.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        passed = correct is want_correct and result.returncode == want_code
        ok = ok and passed
        print(f"self-test: {'perturbed' if perturb else 'true'} reference: "
              f"correct={correct} exit {result.returncode} "
              f"({'as expected' if passed else 'WRONG'})")
    return 0 if ok else 1


def span_dir():
    path = build_dir() / "spans"
    path.mkdir(parents=True, exist_ok=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        if args.self_test:
            return self_test(binary)
        if args.workload is None:
            parser.error("--workload is required")
        return run(binary, ["--workload", args.workload,
                            "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--span-dir", str(span_dir()),
                            "--git-sha", git_sha()]).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        print(f"servebench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
