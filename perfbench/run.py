#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload protected-suite --seed 20240624 --seconds 20 --trace 0

The Go toolchain builds perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into the build directory,
.bench_build by default or $CARGO_TARGET_DIR when set. Every file the build
and the run write stays under that directory. The last line of standard
output is the result JSON; nothing is printed there when the build or the run
fails, and the exit code is then non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record perfbench/expected.json for the workload at the default seed")
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    env = go_env(build)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed")

    cmd = [binary, "-workload", args.workload, "-seconds", str(args.seconds),
           "-trace", str(args.trace), "-workdir", build,
           "-expected", os.path.join(HERE, "expected.json"),
           "-spec", os.path.join(ROOT, "BENCHMARK.json")]
    if args.seed is not None:
        cmd += ["-seed", str(args.seed)]
    if args.record:
        cmd.append("-record")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("run exited with code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("run printed no result")
    print(json.dumps(json.loads(lines[-1])))


if __name__ == "__main__":
    main()
