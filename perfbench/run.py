#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench (with the library
sources in src/) under .bench_build/; later runs rebuild only what
changed. The benchmark's report lines pass through; its last line, the
JSON result, is cut down to the metrics BENCHMARK.json lists for the
mode (end_to_end with --trace 0, per_layer with --trace 1), and the run
fails if one of them is missing.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175
# Compiler temporaries and anything else that honours TMPDIR stay in
# the checkout.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    if "--trace" not in argv[:-1]:
        fail("--trace <0|1> is required")
    trace = argv[argv.index("--trace") + 1] == "1"
    wanted = expected_metrics(trace)
    build()

    cmd = [os.path.join(BUILD, "perfbench"), *argv,
           "--work-dir", os.path.join(BUILD, "work")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    if done.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        fail("benchmark exited with %d" % done.returncode)

    result = json.loads(lines[-1])
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("metrics missing from the result: " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
