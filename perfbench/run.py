#!/usr/bin/env python3
"""Build the clktune benchmark and run one workload.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --record [--workload <name>]

The first form builds the program (Release, into $CARGO_TARGET_DIR or
.bench_build) and runs one workload; its last stdout line is the result
object described in perfbench/README.md.  The second regenerates
perfbench/references.json, the recorded outputs every run is checked
against, for each seed variant of the batch workloads.

Exit codes: 0 all output checks passed, 1 a check failed or the run broke,
2 usage error or no sources to build.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_flow", "eval_heavy", "serve_mix"]
RECORDED = ["paper_flow", "eval_heavy"]
VARIANTS = 8  # must match kVariants in measure.h
REFERENCES = os.path.join(HERE, "references.json")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once and builds the driver and the clktune CLI."""
    if not os.path.isfile(os.path.join(ROOT, "src", "cli", "clktune_main.cpp")):
        fail("no clktune sources under " + os.path.join(ROOT, "src"), 2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_driver",
         "clktune"],
        stdout=sys.stderr, check=True)
    return out


def source_id():
    """Provenance: the git commit when there is one, and always a digest
    of the sources the benchmark built (a checkout may not be a git tree)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".json", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            sha = probe.stdout.strip()
    return "git=%s src_sha256=%s" % (sha, digest.hexdigest()[:16])


def run_driver(out, workload, seed, seconds, trace, record=False):
    """Runs one workload; returns (exit code, stdout lines)."""
    args = [os.path.join(out, "perfbench_driver"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--clktune", os.path.join(out, "clktune"),
            "--work-dir", os.path.join(out, "work", workload),
            "--references", REFERENCES, "--source", source_id()]
    if record:
        args.append("--record")
    # A traced run measures two passes; the constant covers set-ups, the
    # output checks and the daemons' starts and stops.
    timeout = 3 * seconds + 100
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, timeout))
    return done.returncode, done.stdout.splitlines()


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics %s do not match BENCHMARK.json %s" % (got, expected))


def record(out, workloads):
    with open(REFERENCES) as f:
        references = json.load(f)
    for workload in workloads:
        recorded = {}
        for variant in range(VARIANTS):
            code, lines = run_driver(out, workload, variant, 1, False, True)
            if code != 0:
                fail("recording %s variant %d failed" % (workload, variant))
            for line in lines:
                if line.startswith('{"recorded"'):
                    recorded.update(json.loads(line)["recorded"])
            print("recorded %s variant %d" % (workload, variant),
                  file=sys.stderr)
        references[workload] = recorded
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--record", action="store_true")
    opts = parser.parse_args()

    if opts.record:
        record(build(), [opts.workload] if opts.workload else RECORDED)
        return 0
    if None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if opts.seconds < 1 or opts.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 2)
    code, lines = run_driver(out, opts.workload, opts.seed, opts.seconds,
                             opts.trace == 1)
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("%s produced no result (exit %d)" % (opts.workload, code))
    check_result(lines[-1], opts.trace == 1)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
