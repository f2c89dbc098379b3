"""Benchmark of spinctrl: three workloads, one per optimisation method.

    python3 bench/run.py --workload split-lbfgs --seed 1 --seconds 30 --trace 0

Builds the package from the checkout's committed sources into
``.bench_build/`` (never in place), runs the workload in a process of its
own with BLAS pinned to one thread, and prints the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
BENCHMARK.json.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 7
DEADLINE_S = 175
BLAS_THREADS = "1"
BUILD_FILES = ("setup.py", "pyproject.toml")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Files the package is built from, relative to the checkout root."""
    files = [Path(name) for name in BUILD_FILES if (ROOT / name).is_file()]
    for path in sorted((ROOT / "src").rglob("*")):
        if (path.is_file() and "__pycache__" not in path.parts
                and path.suffix not in (".so", ".pyc", ".pyd")):
            files.append(path.relative_to(ROOT))
    return files


def build_package():
    """Copy the sources to a directory named by their digest and run the
    documented build step there: ``python setup.py build_ext --inplace``.

    The committed sources are never written to, and a build is reused only
    for byte-identical sources, interpreter and NumPy.  Without setup.py
    the package runs as plain Python.
    """
    if not (ROOT / "src" / "spinctrl" / "__init__.py").is_file():
        fail(f"no spinctrl package under {ROOT / 'src'}")
    files = source_files()
    digest = hashlib.sha256()
    digest.update(f"{sys.version}|{metadata.version('numpy')}".encode())
    for rel in files:
        digest.update(str(rel).encode() + b"\0" + (ROOT / rel).read_bytes() + b"\0")
    digest = digest.hexdigest()
    tree = BUILD / "pkg" / digest[:16]
    info_path = tree / "build.json"
    if info_path.is_file():
        return tree, json.loads(info_path.read_text())

    staging = BUILD / "pkg" / f"{digest[:16]}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    for rel in files:
        (staging / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / rel, staging / rel)
    info = {"source_sha256": digest, "compiled": False, "build_s": 0.0}
    if (staging / "setup.py").is_file():
        tmp = BUILD / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, TMPDIR=str(tmp))
        began = time.monotonic()
        with open(staging / "build.log", "w") as log:
            proc = subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=staging, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=800,
            )
        info["build_s"] = time.monotonic() - began
        sources = [p for p in (staging / "src").rglob("*") if p.suffix in (".pyx", ".c")]
        built = list((staging / "src").rglob("*.so"))
        if proc.returncode != 0 or (sources and not built):
            fail(f"build of the compiled core failed; see {staging / 'build.log'}")
        info["compiled"] = bool(built)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(staging / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    (staging / "build.json").write_text(json.dumps(info))
    try:
        os.replace(staging, tree)
    except OSError:  # another run finished the same build first
        shutil.rmtree(staging, ignore_errors=True)
    return tree, info


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(tree, args, extra, deadline):
    """Start one workload process and return its JSON record."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--started", repr(started), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within the deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    began = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tree, build = build_package()
    deadline = began + DEADLINE_S
    records = BUILD / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--spans-out", f"{stem}-spans.json"] if args.trace else []
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_workload(tree, args, ["--setup-only"], deadline)["setup_s"])
    record = run_workload(tree, args, extra, deadline)
    setups.append(record["setup_s"])
    record["metrics"]["setup_s"] = statistics.median(setups)
    record.update(
        git_sha=git_sha(), source_sha256=build["source_sha256"],
        compiled_core=build["compiled"], core_build_s=build["build_s"],
        blas_threads=int(BLAS_THREADS), setup_samples_s=setups,
    )
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))

    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        fail(f"{args.workload} reported no {', '.join(missing)}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    result = {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
