#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload oldest-range --seed 1 --seconds 20 --trace 0

Every argument is passed to the perfbench binary (see README.md). The Go
build cache, temporary files and the binary live under .bench_build/ in
the repository root, so a run reads and writes nothing outside the
checkout apart from the Go toolchain it compiles with. Build output goes
to standard error; the binary's standard output is passed through
unchanged, its last line being the JSON result.
"""

import os
import signal
import subprocess
import sys


def commit(root):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        path = os.path.join(root, ".git", name)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from a full checkout of the repository",
              file=sys.stderr)
        return 1
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = ""
    binary = os.path.join(build, "perfbench", "perfbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return proc.returncode or 1
    args = [binary, "--commit", commit(root), "--out", os.path.join(build, "perfbench")]
    args += sys.argv[1:]
    child = subprocess.Popen(args, cwd=root, env=env)
    try:
        return child.wait()
    finally:
        # Reached early only when this script is interrupted: stop the
        # benchmark too, and wait for it to end.
        if child.poll() is None:
            child.terminate()
            child.wait()


def stop(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, stop)
    sys.exit(main())
