"""evenlog benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload journal-sync --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory and nowhere else. The run repeats rounds of a fixed number of
appends for ``--seconds``. Every round appends the same payloads, so the
append latencies are medians per append over the rounds, and the other
times are medians over the rounds. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` rounds alternate
untraced and traced, and it holds the per-layer metrics of the traced
rounds and the tracing overhead. The line before it stamps the machine,
the flush policy and the exact counts. See NOTES.md for the workloads
and the layer table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
WARMUP_APPENDS = 200
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def load_program():
    """Import evenlog from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import evenlog

    if Path(evenlog.__file__).resolve().parent != ROOT / "src" / "evenlog":
        raise ImportError(f"evenlog imported from {evenlog.__file__}, not from {ROOT / 'src'}")


def filesystem_of(path: Path) -> str:
    best, fstype = "", "unknown"
    with open("/proc/self/mounts") as f:
        for line in f:
            _, mount, kind = line.split()[:3]
            if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                best, fstype = mount, kind
    return f"{fstype} at {best}"


def machine_stamp() -> dict:
    from importlib.metadata import version

    import numpy

    cpu = platform.processor() or "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "numpy": numpy.__version__,
        "work_dir_fs": filesystem_of(WORK_DIR),
    }


def append_profile(rounds) -> np.ndarray:
    """Each append's median latency over the rounds, in seconds. Append
    ``i`` does the same work in every round, so its median removes the
    rounds that host load slowed (see "Medians per append" in NOTES.md)."""
    return np.median(np.stack([r.latencies for r in rounds]), axis=0).astype(np.float64)


def ops_s(rounds) -> float:
    """Appends per second over a write phase made of the median append
    latencies and the median final flush."""
    return rounds[0].attempted / float(append_profile(rounds).sum() + median(r.final_flush_s for r in rounds))


def end_to_end(rounds, exact, peak_rss_mb) -> dict:
    from workloads import stored_bytes_per_user_byte

    profile_us = append_profile(rounds) * 1e6
    return {
        "append_ops_s": (ops_s(rounds), "1/s"),
        "append_p50_us": (float(np.percentile(profile_us, 50)), "us"),
        "append_p99_us": (float(np.percentile(profile_us, 99)), "us"),
        "recover_s": (median(r.recover_s for r in rounds), "s"),
        "stored_bytes_per_user_byte": (stored_bytes_per_user_byte(exact), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (median(r.setup_s for r in rounds), "s"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(plain, traced, layer_totals) -> dict:
    out = {}
    for name in layer_totals[0]:
        if name.endswith(".calls"):
            out[name] = (median(t[name] for t in layer_totals), "count")
        else:
            out[name] = (median(t[name] for t in layer_totals), "s")
    for name in traced[0].exact:
        if name != "user_bytes":
            unit = "bytes" if name.endswith("bytes") else "count"
            out[name] = (median(r.exact[name] for r in traced), unit)
    out.setdefault("quorum.real_segments", (0, "count"))
    out.setdefault("quorum.fake_segments", (0, "count"))
    out["slots.records_per_flush"] = (median(r.attempted / r.exact["slots.flushes"] for r in traced), "ratio")
    out["trace_overhead_frac"] = (1 - ops_s(traced) / ops_s(plain), "ratio")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Tracer
    from workloads import POLICY, WORKLOADS, make_payloads, run_round

    workload = WORKLOADS[workload_name]
    run_dir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    payloads = make_payloads(workload, seed)
    gc.collect()
    gc.freeze()

    tracer = Tracer() if trace else None
    results = [run_round(workload, payloads[:WARMUP_APPENDS], run_dir / "warmup", seed)]
    plain, traced, layer_totals = [], [], []
    rss_mb = None
    deadline = perf_counter() + seconds
    i = 0
    while True:
        gc.collect()
        traced_round = trace and i % 2 == 1
        if traced_round:
            tracer.install()
        try:
            result = run_round(workload, payloads, run_dir / f"round-{i}", seed)
        finally:
            if traced_round:
                tracer.uninstall()
        results.append(result)
        if traced_round:
            traced.append(result)
            layer_totals.append(tracer.take_totals())
        else:
            plain.append(result)
        if rss_mb is None:
            # the high-water mark of one whole round, before the kept
            # latencies grow with the number of rounds
            rss_mb = peak_rss_mb()
        i += 1
        enough = len(traced) >= MIN_TRACED_ROUNDS if trace else len(plain) >= MIN_ROUNDS
        if enough and perf_counter() >= deadline:
            break
    run_dir.rmdir()

    exact = plain[0].exact
    if trace:
        metrics = per_layer(plain, traced, layer_totals)
        tracer.dump(WORK_DIR / f"spans-{workload.name}.npz")
    else:
        metrics = end_to_end(plain, exact, rss_mb)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "machine": machine_stamp(),
        "policy": dict(POLICY, full_sync=workload.full_sync, backend=workload.backend),
        "appends_per_round": workload.appends,
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "failed_ops_frac": failed / attempted,
        "exact_per_round": exact,
    }
    if trace:
        report["spans"] = tracer.span_count()
    print(json.dumps({"report": report}, sort_keys=True))
    return {
        "correct": all(r.correct for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
