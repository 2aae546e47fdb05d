#!/usr/bin/env python3
"""Build the IamDB wire-level benchmark from source and run one workload.

    python3 perfbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (the directory holding src/ and
perfbench/).  The first call configures and builds into the directory named
by CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed.  Build output goes to stderr; the benchmark's own output goes to
stdout and its last line is the JSON result.  The exit code is the
benchmark's: 0 only when every answer was right and every request succeeded.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "iamdb_perfbench"], stdout=sys.stderr, check=True)
    return os.path.join(out, "iamdb_perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def src_digest():
    """Content hash of src/, to identify the program when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: IamDB sources not found at %s/src" % ROOT,
              file=sys.stderr)
        return 2

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print("error: build failed: %s" % e, file=sys.stderr)
        return 2

    data = os.path.join(out, "data", "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", data,
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.trace:
        os.makedirs(os.path.join(out, "trace"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "trace", args.workload + ".spans.tsv")]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: benchmark exceeded %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(data, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
