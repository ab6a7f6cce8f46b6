"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, from
spans written to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.  The
exit code is 0 when every output check held, 1 when one missed, and 2 when
the run could not start (for example when ``src/`` is absent).

``--tiny`` shrinks every workload to a smoke-sized pass.  ``--selftest``
runs all four workloads tiny, traced and untraced, and checks that every
metric and every layer shows up.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one caller, one BLAS thread, the sweep's worker
# pool at its default of 1.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DISTUNLEARN_WORKERS", None)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 7


def _fail_start(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "distunlearn" / "__init__.py").is_file():
        _fail_start(f"no package source at {SRC / 'distunlearn'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import distunlearn

    if Path(distunlearn.__file__).resolve().parent != (SRC / "distunlearn").resolve():
        _fail_start(f"imported distunlearn from {distunlearn.__file__}, not from {SRC}")


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail_start(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# environment facts
# ---------------------------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        value = _read(git / ref).strip()
        if value:
            return value
        for line in _read(git / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return None
    return head or None


def _src_sha256() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "distunlearn").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        caches[f"L{level}-{kind}"] = _read(index / "size").strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the fact is optional
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "DISTUNLEARN_WORKERS": os.environ.get("DISTUNLEARN_WORKERS", "unset (default 1)"),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import distunlearn
imported = time.perf_counter()
from pathlib import Path
from spans import Api
from workloads import WORKLOADS
w = WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]), tiny=True)
w.setup()
first = time.perf_counter()
w.run_pass(Api(None))
print(imported - start + time.perf_counter() - first)
"""


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of importing distunlearn plus the
    workload's first (tiny) calls, which pay for lazy imports.  Generating
    the tiny inputs is excluded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{i}"
        probe_dir.mkdir()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload, str(seed),
                               str(probe_dir)], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(args, spec) -> int:
    import numpy as np

    from spans import Api, Tracer, layer_metrics, layer_shares
    from workloads import WORKLOADS

    facts = machine_facts(args.workload, args.seed)
    print("perfbench env " + json.dumps(facts, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"tmp-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        workload.setup()
        # Warm the in-process caches and lazy imports before timing.
        warm = WORKLOADS[args.workload](args.seed, workdir / "setup-0", tiny=True)
        warm.setup()
        warm.run_pass(Api(None))

        tracer = Tracer(f"{tag}-trace{args.trace}") if args.trace else None
        api = Api(tracer)
        pass_s, hashes, misses = [], [], []
        started = time.perf_counter()
        while True:
            gc.collect()  # every pass starts from the same collector state
            if tracer:
                tracer.install()
            try:
                t0 = time.perf_counter()
                output = api.pass_span(lambda: workload.run_pass(api))
                pass_s.append(time.perf_counter() - t0)
            finally:
                if tracer:
                    tracer.uninstall()
            digest, pass_misses = workload.check(output)
            del output
            hashes.append(digest)
            misses += pass_misses
            if digest != hashes[0]:
                misses.append(f"pass {len(hashes)} output hash {digest} != {hashes[0]}")
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(pass_s) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The first pass warms allocator and caches at full size; it is reported
    # only when it is the only pass that fitted in the run.
    timed = slice(1 if len(pass_s) > 1 else 0, None)
    items = workload.items()
    items_per_s = statistics.median(items / t for t in pass_s[timed])
    ops_ms = (np.concatenate(workload.latencies_ns[timed]) / 1e6 if not workload.batch
              else np.array(pass_s[timed]) * 1e3)
    record = {"env": facts, "passes": len(pass_s), "pass_s": pass_s,
              "output_sha256": hashes[0], "misses": misses[:50]}
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "items_per_s": items_per_s,
            # p99 needs 10 samples beyond it; the batch workloads time a
            # handful of passes, and their tail is the slowest one.
            "op_p99_ms": float(np.percentile(ops_ms, 99 if ops_ms.size >= 1000 else 100)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = spec["end_to_end"]
    else:
        values = layer_metrics(tracer.spans, len(pass_s), items_per_s)
        names = spec["per_layer"]
        record["layer_shares"] = layer_shares(tracer.spans)
        record["spans"] = len(tracer.spans)
        spans_path = OUT / f"spans-{tag}.jsonl"
        tracer.write_jsonl(spans_path)
        print("perfbench layer shares " + json.dumps(record["layer_shares"]), flush=True)
        print(f"perfbench spans {len(tracer.spans)} written to {spans_path}", flush=True)
    if set(values) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record["metrics"] = metrics
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for miss in misses[:20]:
        print(f"perfbench check miss: {miss}", file=sys.stderr)
    result = {"correct": not misses, "attempted": items * len(pass_s),
              "failed": len(misses), "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not misses else 1


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def selftest(spec) -> int:
    from spans import CALL_SITES, DIRECT

    problems = []
    span_names = set()
    for workload in (w["name"] for w in spec["workloads"]):
        throughput = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(lines[-1])
            want = spec["per_layer" if trace else "end_to_end"]
            for metric in want:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: bad {metric['name']}: {got}")
            if set(result["metrics"]) != {m["name"] for m in want}:
                problems.append(f"{workload} trace={trace}: unexpected metric names")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: checks failed")
            metric = "trace.items_per_s" if trace else "items_per_s"
            throughput[trace] = result["metrics"][metric]["value"]
            if trace:
                spans = OUT / f"spans-{workload}-seed3.jsonl"
                with open(spans, encoding="utf-8") as fh:
                    span_names |= {json.loads(line)["name"] for line in fh}
        if len(throughput) == 2:
            print(f"{workload}: items/s untraced {throughput[0]:.6g}, traced {throughput[1]:.6g}, "
                  f"tracing overhead {throughput[0] - throughput[1]:.6g} items/s (tiny sizes)")
    missing = sorted((set(DIRECT) | {name for _, _, name in CALL_SITES}) - span_names)
    if missing:
        problems.append(f"no spans for layers: {missing}")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


def main() -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-sized inputs")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload tiny and check metrics and spans")
    args = parser.parse_args()
    _import_package()
    if args.selftest:
        return selftest(spec)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
