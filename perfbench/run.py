#!/usr/bin/env python3
"""Benchmark entry point: builds the repository and the benchmark from source
with sbt, then runs one workload in a JVM with a pinned heap.

Run from the repository root:

    python3 perfbench/run.py --workload sn-5k-1d --seed 42 --seconds 15 --trace 0

The last line of standard output is the JSON result. Build outputs, Spark
scratch files and traced spans stay in .bench_build/ under the root.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_build")
# The same heap for every commit measured, whatever the machine's memory.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData", "-Xss4m"]
BUILD_TIMEOUT_S = 700
RUN_SLACK_S = 150
# Inputs of the build: when their content changes, it is rebuilt.
BUILD_INPUTS = ["build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, cwd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def source_stamp():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build():
    """Compiles once per source state; returns the runtime classpath."""
    stamp_file = os.path.join(WORK, "classpath.stamp")
    cp_file = os.path.join(WORK, "classpath.txt")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as cf:
                    return cf.read()
    os.makedirs(WORK, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export perfbench/Runtime/fullClasspath"]
    code, out = run_group(cmd, BENCH, BUILD_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        sys.stderr.write(out)
        fail(f"build failed with exit code {code}")
    lines = [l.strip() for l in out.splitlines() if "scala-library" in l and os.pathsep in l]
    if not lines:
        sys.stderr.write(out)
        fail("build printed no classpath")
    with open(cp_file, "w") as fh:
        fh.write(lines[-1])
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for rel in ["build.sbt", "src/main/scala", "perfbench/build.sbt"]:
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the repository root")
    classpath = build()

    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    code, out = run_group(cmd, ROOT, args.seconds + RUN_SLACK_S, subprocess.PIPE)
    lines = out.splitlines()
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
