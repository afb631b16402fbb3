#!/usr/bin/env python3
"""Builds and runs the magicdb benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark (Release) under the build directory, which is
$CARGO_TARGET_DIR when set and .bench_build otherwise; later runs only
rebuild what changed. Build output goes to a log file in that directory, so
standard output carries the benchmark's own report, ending with its one-line
JSON result. Exits non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                return None, log_path
        compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", "4"]
        if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode:
            return None, log_path
    return os.path.join(build_dir, "perfbench"), log_path


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary, log_path = build(build_root)
    if binary is None:
        sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        return 2
    work_dir = os.path.join(build_root, "perfbench-work")
    cmd = [binary] + sys.argv[1:] + ["--work-dir", work_dir]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
