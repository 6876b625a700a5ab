#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload steady_small --seed 1 --seconds 20 --trace 0

Every argument is passed to the program. All build output, the Go build
cache and the traced run's spans stay under .bench_build/ in the checkout.
The last line of standard output is the run's JSON result.
"""
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170  # a run must end within 180 s


def main():
    bench = Path(__file__).resolve().parent
    root = bench.parent
    out = root / ".bench_build"
    env = dict(os.environ)
    env.update(
        GOCACHE=str(out / "gocache"),
        GOMODCACHE=str(out / "gomodcache"),
        GOPATH=str(out / "gopath"),
        GOTMPDIR=str(out / "tmp"),
        XDG_CONFIG_HOME=str(out / "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    binary = out / "perfbench"
    build = subprocess.run(
        ["go", "build", "-o", str(binary), "."],
        cwd=bench, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [str(binary)] + sys.argv[1:] + ["--trace-dir", str(out / "traces")]
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
