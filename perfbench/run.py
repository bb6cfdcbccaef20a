#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload tpch_hot --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), trace spans
and scratch files to .bench_out/. The last line of standard output is the
result object printed by qc_perfbench; build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tpch_hot", "tpch_cold", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir, env):
    if not (build_dir / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "--target", "qc_perfbench",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return build_dir / "qc_perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"no repository sources next to perfbench/ in {root}", 2)

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    out_dir = root / ".bench_out"
    tmp_dir = out_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)

    # The program runs in its default configuration: no QC_* knob from the
    # caller's environment reaches it. Temporary files of the compilers stay
    # inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QC_")}
    env["TMPDIR"] = str(tmp_dir)

    binary = build(root, build_dir, env)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"qc_perfbench exited with code {code}")


if __name__ == "__main__":
    main()
