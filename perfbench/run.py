#!/usr/bin/env python3
"""Build and run the HEPnOS benchmark on one workload.

    python3 perfbench/run.py --workload select|ingest|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles ../src in Release) into $CARGO_TARGET_DIR or
.bench_build; later runs only re-check the build. The last line of stdout is
the JSON result printed by the benchmark binary; every other line is a
human-readable report. Exits non-zero, printing no result, when the build
fails, an output check fails, or the run errors out.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no program sources at src/; nothing to build")
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("perfbench: configure failed")
                shutil.rmtree(build_dir, ignore_errors=True)
                sys.exit(2)
        cmd = ["cmake", "--build", build_dir, "--target", "hepnos_perfbench",
               "-j", str(os.cpu_count() or 4)]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed")
            sys.exit(2)
    return os.path.join(build_dir, "hepnos_perfbench")


def source_hash():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["select", "ingest", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    started = time.monotonic()
    tag = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    work = os.path.join(ROOT, ".bench_run", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--config", os.path.join(HERE, "workloads.json"), "--work-dir", work,
           "--commit", git_commit(), "--source-hash", source_hash()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_LIMIT_S)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(4)
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    for name in ("result.json", "spans.jsonl"):
        src = os.path.join(work, name)
        if os.path.isfile(src):
            shutil.copyfile(src, os.path.join(results, "%s.%s" % (tag, name)))
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        sys.stdout.write("\n")
        log("perfbench: benchmark exited with code %d" % proc.returncode)
        sys.exit(proc.returncode)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(json.dumps(result, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
