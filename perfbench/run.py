#!/usr/bin/env python3
"""Build and run the OASYS end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the repository's src/ libraries and the
workload generator from source, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload.  The last line of
stdout is the result JSON; build output goes to stderr.  Run records and
traced-run Perfetto files land in the same build directory (records/,
traces/).  Exits nonzero without a result when the sources or the build
are missing.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Inputs whose content defines what is measured; hashed into the record so
# that a run made outside a git checkout still names its source.
DIGEST_PATHS = ["src", "tools", "perfbench", "tech", "specs",
                os.path.join("tests", "golden"), os.path.join("tests", "tolcmp.h")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for rel in DIGEST_PATHS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(build_dir):
    def run(cmd):
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
        if rc != 0:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    run(["cmake", "--build", build_dir, "-j", "4"])


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the OASYS sources (src/) are not next to perfbench/")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.join(ROOT, out_root)
    os.makedirs(out_root, exist_ok=True)
    build_dir = os.path.join(out_root, "perfbench")
    build(build_dir)
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench binary")
    os.chdir(ROOT)
    # Relative, so the serve daemon's socket path stays short.
    rel_out = os.path.relpath(out_root, ROOT)
    out_dir = out_root if rel_out.startswith("..") else rel_out
    sys.stdout.flush()
    # A child rather than exec: an exec'd process would inherit this one's
    # getrusage(RUSAGE_CHILDREN) peak, i.e. cmake's.
    proc = subprocess.Popen([exe] + sys.argv[1:] + [
        "--git-sha", git_sha(), "--source-digest", source_digest(),
        "--out-dir", out_dir])
    try:
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(rc)


if __name__ == "__main__":
    main()
