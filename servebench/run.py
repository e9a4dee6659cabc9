#!/usr/bin/env python3
"""Benchmark of `sosae serve`: builds the server and the benchmark from
source with dune, then runs one workload against a separate server
process and prints the metrics as the last line of stdout.

    python3 servebench/run.py --workload evaluate-warm --seed 1 --seconds 10 --trace 0

Run it from the root of a source tree. Workloads: evaluate-warm, what-if,
replica-catchup. --trace 1 adds the in-process traced replay and prints
per-layer metrics instead of the end-to-end ones. Everything the run
writes stays under the tree (_build/ and .servebench/).
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("evaluate-warm", "what-if", "replica-catchup")
BUILD_TIMEOUT_S = 700


def run_timeout(seconds):
    """A run (set-ups, the window, the traced replay) takes about
    seconds + 15 s; past this limit it is stuck. 160 s for a 20 s
    window."""
    return 100 + 3 * seconds


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The commit when the tree is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "servebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    for needed in ("dune-project", "bin/dune", "lib", "servebench/dune"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a sosae source tree (%s is missing)" % needed)

    work = os.path.join(root, ".servebench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)

    # dune from PATH, or through opam when the switch is not activated
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "./bin/sosae.exe", "./servebench/bench.exe"],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed", 3)

    exe = os.path.join(root, "_build", "default")
    cmd = [
        os.path.join(exe, "servebench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--sosae", os.path.join(exe, "bin", "sosae.exe"),
        "--work", os.path.join(work, "run"),
        "--commit", source_id(root),
    ]
    # bench.exe stops its servers when it gets SIGTERM or SIGINT
    proc = subprocess.Popen(cmd, cwd=root, env=env)

    def stop(signum, _frame):
        proc.send_signal(signum)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timeout = run_timeout(args.seconds)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail("run exceeded %d s" % timeout, 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
