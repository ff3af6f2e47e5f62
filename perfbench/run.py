#!/usr/bin/env python3
"""Build the benchmark binary from source, then run it once.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  xlds_perfbench and the XLDS libraries are built
(Release) under .bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench
when that is set; scratch files go to .bench_build/work and are removed at
exit.  The binary's last stdout line is the result; this wrapper passes it
through only when its metric names and units match BENCHMARK.json.  Without
the repository's src/ tree the build fails and nothing is printed.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def source_id():
    """Commit when the tree is a git checkout, plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in os.walk(src):
        dirnames.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
        ident += " git:" + commit
    except (OSError, subprocess.CalledProcessError):
        pass
    return ident


def build(build_dir):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    base = build_root()
    build_dir = os.path.join(base, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, XLDS_THREADS=str(nproc))
    for var in ("XLDS_SHARDS", "XLDS_SCHED"):
        env.pop(var, None)
    cmd = [os.path.join(build_dir, "xlds_perfbench"), *argv,
           "--pins", os.path.join(HERE, "pins.json"),
           "--work-dir", os.path.join(base, "work"),
           "--source", source_id()]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or "--write-pins" in argv:
        sys.stdout.write(proc.stdout)
        return proc.returncode

    result = json.loads(lines[-1])
    trace = argv[argv.index("--trace") + 1] == "1"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        log(f"printed metrics differ from BENCHMARK.json: extra {sorted(set(got) - set(want))}, "
            f"missing {sorted(set(want) - set(got))}, "
            f"unit changes {sorted(k for k in got if k in want and got[k] != want[k])}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
