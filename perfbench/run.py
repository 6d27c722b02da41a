#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload mix-sweep --seed 1 \
        --seconds 20 --trace 0

Run from the root of the repository. The program is built from source
into $CARGO_TARGET_DIR (default .bench_build) with CMake, then the
benchmark binary replaces this process; its last line of stdout is the
JSON result. Extra arguments (--short, --digests PATH,
--record-digests PATH) are passed through. Build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then build the benchmark target (incremental)."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            # Drop a half-configured tree so the next run starts over.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(
        ["cmake", "--build", build_dir, "--target", "svard_perfbench",
         "-j", jobs], stdout=sys.stderr) == 0


def flag_value(args, flag):
    """The value following `flag` in `args`, or None."""
    i = args.index(flag) if flag in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = list(argv)
    if "--digests" not in args:
        args += ["--digests", os.path.join(HERE, "digests.txt")]
    args += ["--work-dir", os.path.join(build_dir, "work")]
    name, seed = flag_value(args, "--workload"), flag_value(args, "--seed")
    if name and seed and "--spans" not in args:
        args += ["--spans",
                 os.path.join(build_dir, f"spans-{name}-{seed}.json")]
    binary = os.path.join(build_dir, "svard_perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
