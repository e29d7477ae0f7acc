"""opintlab benchmark: one closed-loop client, one request in flight.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gamma2_cert --seed 1 --seconds 12 --trace 0

The library is imported from ``src/`` of that checkout.  Inputs are made
from ``--seed`` as several input sets; a round runs every request of one
set once, and rounds cycle through the sets, in whole cycles, until
``--seconds`` have passed and the workload's minimum round count is
reached.  Every request's output is checked.  ``attempted`` and ``failed``
count distinct requests (input set, request id), each once however often
it ran, so they depend on the seed and not on the run's speed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

# One BLAS thread, set before numpy loads: on a shared 2-vCPU host a second
# BLAS thread made identical runs differ by a third.  opintlab's own slice
# pool (OPINT_THREADS) is left at its default.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

from common import Outcome  # noqa: E402
from spans import UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import BUILDERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / "_work"
SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10
# Input sets that also run traced in a ``--trace 1`` run.
TRACED_SETS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "OPINT_THREADS")


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: error: {message}\n")
    sys.exit(2)


def _import_library():
    if not (SRC / "opintlab" / "__init__.py").is_file():
        _fail(f"no opintlab sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import opintlab
    from opintlab import cli, linalg, norms, opint, sdp, symbols

    if Path(opintlab.__file__).resolve().parent != (SRC / "opintlab").resolve():
        _fail(f"imported opintlab from {opintlab.__file__}, not from {SRC}")
    return types.SimpleNamespace(package=opintlab, cli=cli, linalg=linalg, norms=norms,
                                 opint=opint, sdp=sdp, symbols=symbols)


def _import_seconds() -> float:
    """Median time to import opintlab in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import opintlab; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _environment(workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            size = (index / "size").read_text().strip()
            if size.endswith("K"):
                llc = int(size[:-1]) * 1024
            elif size.endswith("M"):
                llc = int(size[:-1]) * 1024 * 1024
    except OSError:
        llc = None
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = sorted((SRC / "opintlab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "llc_bytes": llc,
        "largest_grid_bytes": workload.largest_grid_bytes,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _setup(name: str, seed: int, mods):
    """Inputs, files and warm-up, repeated; returns the last workload, its
    input sets (request lists) and the set-up times."""
    times = []
    for _ in range(SETUP_REPEATS):
        # Drop the previous repetition's inputs first, so peak memory holds
        # one copy of them.
        workload = built = sets = None
        t0 = time.perf_counter()
        shutil.rmtree(WORKDIR / name, ignore_errors=True)
        sets = []
        while workload is None or len(sets) < workload.input_sets:
            rng = np.random.default_rng([seed, sorted(BUILDERS).index(name), len(sets)])
            workdir = WORKDIR / name / f"set{len(sets)}"
            workdir.mkdir(parents=True)
            built = BUILDERS[name](rng, str(workdir), mods)
            workload = workload or built
            order = rng.permutation(len(built.requests))
            sets.append([built.requests[i] for i in order])
        workload.warmup()
        times.append(time.perf_counter() - t0)
    return workload, sets, times


def _run_round(workload, requests, index: int, set_index: int, tracer) -> list:
    samples, kept = [], {}
    for req in requests:
        if tracer is not None:
            tracer.request = (index, req.rid)
        t0 = time.perf_counter()
        try:
            result = req.call()
            error = None
        except Exception as exc:  # a raised exception is a failed request
            result, error = None, f"exception:{type(exc).__name__}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.request = None
        reason, dig = error, ""
        if error is None:
            try:
                outcome = req.check(result)
            except (KeyError, TypeError, ValueError) as exc:  # report not as specified
                outcome = Outcome(f"unreadable:{type(exc).__name__}", "")
            reason, dig = outcome.reason, outcome.digest
            if outcome.keep is not None:
                kept[req.rid] = outcome.keep
        samples.append({"round": index, "set": set_index, "rid": req.rid, "klass": req.klass,
                        "latency": latency, "reason": reason, "digest": dig,
                        "traced": tracer is not None})
    late = workload.round_check(kept)
    for sample in samples:
        if sample["reason"] is None and sample["rid"] in late:
            sample["reason"] = late[sample["rid"]]
    return samples


def _schedule(sets, tracer) -> list:
    """One cycle of (set index, traced) rounds: every set runs untraced once;
    with a tracer the first TRACED_SETS sets also run traced, each right after
    its untraced round, so traced and untraced rounds see the same inputs."""
    cycle = []
    for set_index in range(len(sets)):
        cycle.append((set_index, False))
        if tracer is not None and set_index < TRACED_SETS:
            cycle.append((set_index, True))
    return cycle


def _measure(workload, sets, seconds: float, tracer):
    """Rounds in whole cycles of the schedule, so each set weighs the same,
    until time is up and the workload's minimum round count is reached."""
    cycle = _schedule(sets, tracer)
    samples, index = [], 0
    start = time.perf_counter()
    while True:
        set_index, traced = cycle[index % len(cycle)]
        if traced:
            tracer.install()
        try:
            samples += _run_round(workload, sets[set_index], index, set_index,
                                  tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        index += 1
        elapsed = time.perf_counter() - start
        if index % len(cycle) == 0 and index >= workload.min_rounds and elapsed >= seconds:
            return samples, index, elapsed


def _outcomes(samples) -> dict:
    """Failure reason of each distinct request, keyed "set:rid": the first
    reason any of its runs gave, or None if every run passed."""
    outcomes: dict = {}
    for s in samples:
        key = f"{s['set']}:{s['rid']}"
        outcomes[key] = outcomes.get(key) or s["reason"]
    return outcomes


def _class_medians(samples) -> dict:
    groups: dict = {}
    for s in samples:
        for key in (s["klass"].split("/")[0], s["klass"]):
            groups.setdefault(key, []).append(s)
    return {
        key: {
            "n": len(items),
            "p50_ms": statistics.median(x["latency"] for x in items) * 1e3,
            "failed": sum(1 for x in items if x["reason"]),
        }
        for key, items in sorted(groups.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mods = _import_library()
    import_s = _import_seconds()

    try:
        workload, sets, setup_times = _setup(args.workload, args.seed, mods)
        tracer = Tracer() if args.trace else None
        samples, rounds, elapsed = _measure(workload, sets, args.seconds, tracer)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    outcomes = _outcomes(samples)
    attempted = len(outcomes)
    failed = [r for r in outcomes.values() if r]
    reasons: dict = {}
    for reason in failed:
        reasons[reason] = reasons.get(reason, 0) + 1
    digests: dict = {}
    mismatches = 0
    for s in samples:
        if s["reason"] and s["reason"].startswith("exception"):
            continue
        first = digests.setdefault(f"{s['set']}:{s['rid']}", s["digest"])
        mismatches += first != s["digest"]
    correct = not any(r.startswith("cert:") for r in reasons)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "requests_run": len(samples),
        "measured_s": elapsed,
        "requests_per_round": len(sets[0]),
        "input_sets": len(sets),
        "fail_frac": len(failed) / attempted,
        "fail_reasons": reasons,
        "failures": {key: reason for key, reason in sorted(outcomes.items()) if reason},
        "class_medians": _class_medians(samples),
        "digests": digests,
        "digest_mismatches": mismatches,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "environment": _environment(workload),
    }
    if args.trace:
        # Per-layer values come from the first cycle's traced rounds, so
        # counts repeat exactly whatever the run's speed; the overhead
        # compares the traced sets' rounds with their untraced twins.
        cutoff = len(_schedule(sets, tracer))
        traced_sets = min(TRACED_SETS, len(sets))
        traced = [s for s in samples if s["traced"]]
        untraced = [s for s in samples if not s["traced"] and s["set"] < traced_sets]
        walls = {(s["round"], s["rid"]): s["latency"] for s in traced if s["round"] < cutoff}
        spans = [sp for sp in tracer.spans if sp.request and sp.request[0] < cutoff]
        per_layer = layer_metrics(spans, walls, traced_sets)
        per_layer["trace.overhead_frac"] = (
            sum(s["latency"] for s in traced) / sum(s["latency"] for s in untraced) - 1.0
        )
        metrics = {k: {"value": per_layer[k], "unit": unit} for k, unit in UNITS.items()}
    else:
        latencies = [s["latency"] for s in samples]
        beyond = sum(1 for x in latencies if x > _percentile(latencies, workload.tail_pct))
        info["tail"] = {"percentile": workload.tail_pct, "samples": len(latencies),
                        "beyond": beyond, "enough": beyond >= TAIL_MIN_BEYOND}
        ok = sum(1 for s in samples if not s["reason"])
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "req_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "req_tail_ms": {"value": _percentile(latencies, workload.tail_pct) * 1e3,
                            "unit": "ms"},
            "results_per_s": {"value": ok / sum(latencies), "unit": "1/s"},
            "ok_frac": {"value": 1.0 - len(failed) / attempted, "unit": "frac"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    for name, metric in metrics.items():
        print(f"{args.workload:20s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
