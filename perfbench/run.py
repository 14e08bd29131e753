#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload rom|refill|serve --seed N \
        --seconds S --trace 0|1

Builds perfbench/main.exe and bin/ccomp.exe with dune (release profile,
build directory .bench_build), then runs the benchmark, whose last
output line is the JSON result; the serve workload runs pinned to one
CPU. Exits non-zero, printing no result, when the build or the run
fails, or when the result does not hold exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end with --trace 0,
per_layer with --trace 1), each in its listed unit.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/main.exe", "./bin/ccomp.exe"]


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    # dune installed by opam but the switch not on PATH: put the
    # switch's bin directory, with the compilers, on PATH
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for dune in candidates:
        if os.access(dune, os.X_OK):
            bin_dir = os.path.dirname(dune)
            os.environ["PATH"] = bin_dir + os.pathsep + os.environ.get("PATH", "")
            return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def pin_to_one_cpu():
    """Confine the benchmark, and the daemon it spawns, to the last CPU
    it may use. On a shared virtual machine a wakeup sent to another
    vCPU waits until the hypervisor schedules that vCPU, which made the
    served latencies swing with the host's load; one CPU keeps every
    wakeup between client and daemon local. The single-process
    workloads send no wakeups and ran steadier unpinned."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


def result_error(line, trace):
    """Why [line] is not a result line for the manifest, or None."""
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    listed = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "the result does not hold exactly correct, attempted, failed and metrics"
    printed = {k: v.get("unit") for k, v in result["metrics"].items()}
    if printed != listed:
        missing = sorted(set(listed) - set(printed))
        extra = sorted(set(printed) - set(listed))
        units = sorted(k for k in listed if k in printed and printed[k] != listed[k])
        return "metrics differ from BENCHMARK.json: missing %s, unlisted %s, wrong unit %s" % (
            missing, extra, units)
    return None


def main(argv):
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release"] + TARGETS
    # Build output goes to stderr so the result stays the last stdout line.
    built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    ccomp = os.path.join(BUILD_DIR, "default", "bin", "ccomp.exe")
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["serve"]:
        pin_to_one_cpu()
    run = subprocess.run([exe, "--ccomp", ccomp] + argv, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("perfbench: the run failed", file=sys.stderr)
        return run.returncode or 1
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    error = result_error(lines[-1], trace)
    for line in lines[:-1]:
        print(line)
    if error:
        print("perfbench: " + error, file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
