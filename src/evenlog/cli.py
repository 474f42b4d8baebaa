"""Command-line front end.

Subcommands:

    bench seq | bench conc   drive a workload through an engine, report metrics
    recover                  replay a journal directory and print what came back
    leak posterior           closed-form posterior for a selection scheme
    leak simulate            Monte-Carlo posterior via the real selection code
    attack train             fit the size-to-length interval mapping from a trace
    attack eval              score a mapping on a test trace
    gen                      emit workload or planted attack traces
    demo quorum              scripted end-to-end run with crash and recovery

Exit codes: 0 success, 1 operational error, 2 usage error.

Options may also come from a config file of KEY=VALUE lines (see
--config); explicit flags win. The encryption key is only ever read
from the EVENLOG_KEY environment variable (hex), never from a flag or
file, so it cannot leak into shell history or configs by accident.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from . import bench, leakage, workload
from .crypto import StaticKeyProvider
from .engine import WalEngine
from .errors import WalError
from .journal import JournalBackend, PlainJournalBackend, recover_journal, recover_plain
from .observe import StorageTrace
from .quorum import QuorumBackend, QuorumConfig, SelectionScheme, build_cluster

CONFIG_KEYS = {
    "segment_size", "slot_capacity", "flush_interval_ms", "scheme", "selection",
    "replicas", "max_write_size", "seed", "output",
}


def parse_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise WalError(f"{path}:{lineno}: expected KEY=VALUE")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise WalError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _setting(args, config: dict, flag: str, key: str, cast, default):
    value = getattr(args, flag, None)
    if value is not None:
        return value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise WalError(f"config {key}={config[key]!r} is not a valid {cast.__name__}") from None
    return default


def _key_provider() -> StaticKeyProvider:
    if os.environ.get("EVENLOG_KEY"):
        return StaticKeyProvider.from_env()
    return StaticKeyProvider.ephemeral()


def _fmt_prob(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return s if s else "0"


def _parse_prior(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise WalError(f"bad prior {text!r}: expected comma-separated numbers") from None


def _build_engine(args, config) -> WalEngine:
    scheme = _setting(args, config, "scheme", "scheme", str, "journal")
    segment = _setting(args, config, "segment", "segment_size", int, 128)
    capacity = _setting(args, config, "capacity", "slot_capacity", int, 128 * 1024)
    if capacity <= 0:  # refused before any backend creates files in --dir
        raise WalError(f"--capacity {capacity} is not a positive number of bytes")
    interval = None  # only the buffered mode has a periodic flusher
    if args.mode == "conc":
        interval = _setting(args, config, "flush_interval_ms", "flush_interval_ms", float, 100.0)
        if not interval > 0:  # likewise
            raise WalError(f"--flush-interval-ms {interval} is not positive")
    seed = _setting(args, config, "seed", "seed", int, 0)
    root = args.dir or tempfile.mkdtemp(prefix="evenlog-")
    trace = StorageTrace()
    if scheme == "journal":
        backend = JournalBackend(root, _key_provider().get("default"), segment, trace=trace)
    elif scheme in ("plain", "naive"):
        backend = PlainJournalBackend(root, pad_to=capacity if scheme == "naive" else None, trace=trace)
    elif scheme == "quorum":
        selection = SelectionScheme.parse(_setting(args, config, "selection", "selection", str, "vnos"))
        n_replicas = _setting(args, config, "replicas", "replicas", int, 48)
        mws = _setting(args, config, "max_write_size", "max_write_size", int, 2048)
        if args.mode == "conc" and capacity > mws:  # a buffered flush is one quorum write
            raise WalError(f"bench conc flushes up to --capacity {capacity} B at once, over the quorum "
                           f"--max-write-size {mws} B; set --capacity to at most --max-write-size")
        registry, replicas = build_cluster(n_replicas)
        backend = QuorumBackend(
            root, _key_provider().get("default"), replicas, registry,
            config=QuorumConfig(segment_size=segment, max_write_size=mws),
            scheme=selection, seed=seed, trace=trace,
        )
    else:
        raise WalError(f"unknown scheme {scheme!r}")
    return WalEngine(backend, capacity, interval)


def _emit(args, config, payload: dict, text_lines: list[str]) -> None:
    out = _setting(args, config, "out", "output", str, "text")
    if out == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


# --- subcommand handlers ---------------------------------------------------------


def cmd_bench(args, config) -> int:
    spec = workload.WorkloadSpec.parse(args.dist, args.ops, _setting(args, config, "seed", "seed", int, 0))
    engine = _build_engine(args, config)
    try:
        if args.mode == "seq":
            report = bench.run_sequential(spec, engine)
        else:
            report = bench.run_concurrent(spec, engine, workers=args.workers)
    finally:
        engine.close()
    lines = [
        f"ops               {report.ops}",
        f"throughput        {report.throughput_ops:.0f} ops/s",
        f"latency p50/p95/p99  {report.p50_us:.1f} / {report.p95_us:.1f} / {report.p99_us:.1f} us",
        f"bytes actual      {report.bytes_written_actual}",
        f"bytes padded      {report.bytes_padded}",
        f"bytes baseline    {report.bytes_written_baseline}",
        f"bytes fake        {report.bytes_fake}",
        f"iv framing        {report.iv_overhead_bytes}",
        f"relative cost     {report.relative_cost:.4f}",
        f"naive cost        {report.naive_cost:.2f} ({report.naive_bytes} bytes)",
    ]
    _emit(args, config, report.to_dict(), lines)
    return 0


def cmd_recover(args, config) -> int:
    segment = _setting(args, config, "segment", "segment_size", int, 128)
    if args.scheme == "plain":
        records = recover_plain(args.dir)
    else:
        records = recover_journal(args.dir, _key_provider().get("default"), segment)
    payload = {
        "records": len(records),
        "bytes": sum(r.length for r in records),
        "checkpoints": sum(1 for r in records if r.is_checkpoint),
    }
    _emit(args, config, payload, [f"{k}  {v}" for k, v in payload.items()])
    return 0


def cmd_leak_posterior(args, config) -> int:
    prior = _parse_prior(args.prior)
    scheme = SelectionScheme.parse(args.scheme)
    if scheme is SelectionScheme.VNOS:
        q = leakage.posterior_vnos(prior, args.candidates)
    else:
        q = leakage.posterior_fnos(prior)
    print(",".join(_fmt_prob(x) for x in q))
    return 0


def cmd_leak_simulate(args, config) -> int:
    prior = _parse_prior(args.prior)
    scheme = SelectionScheme.parse(args.scheme)
    result = leakage.simulate_posterior(
        prior, scheme, args.candidates, trials=args.trials,
        seed=_setting(args, config, "seed", "seed", int, 0),
    )
    closed = (leakage.posterior_vnos(prior) if scheme is SelectionScheme.VNOS
              else leakage.posterior_fnos(prior))
    payload = {
        "empirical": [round(float(x), 6) for x in result.posterior],
        "closed_form": [round(float(x), 6) for x in closed],
        "conditioning_events": result.conditioning_events,
        "trials": result.trials,
    }
    _emit(args, config, payload, [
        "empirical    " + ",".join(_fmt_prob(x) for x in result.posterior),
        "closed form  " + ",".join(_fmt_prob(x) for x in closed),
        f"events       {result.conditioning_events}/{result.trials}",
    ])
    return 0


def cmd_attack_train(args, config) -> int:
    pairs = leakage.read_trace_csv(args.trace)
    mapping = leakage.train_mapping(pairs)
    objective = leakage.mapping_objective(pairs, mapping)
    if args.save:
        leakage.save_mapping(args.save, mapping)
    payload = {"mapping": mapping.as_dict(), "objective": objective, "pairs": len(pairs)}
    lines = [f"{w}  ({mapping.bounds[i]}, {mapping.bounds[i + 1]}]" for i, w in enumerate(mapping.sizes)]
    lines.append(f"objective {objective}/{len(pairs)}")
    _emit(args, config, payload, lines)
    return 0


def cmd_attack_eval(args, config) -> int:
    pairs = leakage.read_trace_csv(args.trace)
    mapping = leakage.load_mapping(args.model)
    scores = leakage.evaluate_mapping(pairs, mapping)
    payload = {
        str(w): {"precision": s.precision, "recall": s.recall,
                 "predictions": s.predictions, "interval_population": s.interval_population}
        for w, s in scores.items()
    }
    lines = [f"{'size':>8}  {'precision':>9}  {'recall':>9}"]
    for w, s in scores.items():
        p = "undef" if s.precision is None else f"{s.precision:.2f}"
        r = "undef" if s.recall is None else f"{s.recall:.2f}"
        lines.append(f"{w:>8}  {p:>9}  {r:>9}")
    _emit(args, config, payload, lines)
    return 0


def cmd_gen(args, config) -> int:
    seed = _setting(args, config, "seed", "seed", int, 0)
    if args.attack_groups:
        groups = []
        for part in args.attack_groups.split(","):
            if not (m := re.fullmatch(r"\s*(\d+)-(\d+):(\d+)\s*", part)):
                raise WalError(f"bad attack group {part!r}: expected LO-HI:SIZE")
            groups.append(workload.LengthGroup(*map(int, m.groups())))
        pairs = workload.planted_length_trace(groups, args.per_group, seed, args.confusion)
        leakage.write_trace_csv(args.out_file, pairs, fields=("true_len", "wal_size"))
        print(f"wrote {len(pairs)} labeled pairs to {args.out_file}")
        return 0
    spec = workload.WorkloadSpec.parse(args.dist, args.ops, seed)
    sizes = workload.payload_sizes(spec)
    leakage.write_trace_csv(args.out_file, list(enumerate(sizes.tolist())), fields=("op", "payload_size"))
    print(f"wrote {len(sizes)} payload sizes to {args.out_file}")
    return 0


def cmd_demo_quorum(args, config) -> int:
    selection = SelectionScheme.parse(args.selection)
    # the replicas live only in this process, so an earlier run's metadata
    # files name segments that no replica holds any more
    if args.dir and os.path.isdir(args.dir) and os.listdir(args.dir):
        print(f"error: {args.dir} is not empty; demo quorum needs an empty directory", file=sys.stderr)
        return 1
    registry, replicas = build_cluster(12)
    trace = StorageTrace()
    root = args.dir or tempfile.mkdtemp(prefix="evenlog-demo-")
    cfg = QuorumConfig(segment_size=128, max_write_size=512)
    backend = QuorumBackend(root, _key_provider().get("default"), replicas, registry,
                            config=cfg, scheme=selection, seed=7, trace=trace)
    engine = WalEngine(backend)

    print(f"{len(replicas)} replicas -> {len(backend.groups)} quorum groups of 3 "
          f"({selection.value} selection, S={cfg.segment_size}, K={cfg.k_max})")
    payloads = [os.urandom(n) for n in (100, 300, 180, 420, 64)]
    for i, p in enumerate(payloads):
        result = engine.append(p, full_sync=True)
        print(f"write {i}: {len(p)} B payload committed ({result.lsn})")
    sizes = trace.distinct_sizes(StorageTrace.REPLICA)
    print(f"replica-visible message sizes: {sorted(sizes)} (constant={len(sizes) == 1})")
    print(f"metadata blobs: {trace.write_count(StorageTrace.METADATA)} x "
          f"{sorted(trace.distinct_sizes(StorageTrace.METADATA))} bytes")

    for group in backend.groups:
        replicas[group[0]].kill()
    print(f"killed one replica in each of {len(backend.groups)} groups")
    records = backend.recover()
    ok = [r.payload for r in records] == payloads  # demo sizes are multiples of 4
    print(f"recovered {len(records)} records from surviving replicas; byte-exact={ok}")
    engine.close()
    return 0 if ok else 1


# --- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evenlog", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="KEY=VALUE config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", choices=["text", "json"], default=None)
        p.add_argument("--seed", type=int, default=None)

    p_bench = sub.add_parser("bench", help="run a benchmark")
    p_bench.add_argument("mode", choices=["seq", "conc"])
    p_bench.add_argument("--dist", default="uniform", help="uniform | zipf:A | constant:C")
    p_bench.add_argument("--ops", type=int, default=1000)
    p_bench.add_argument("--segment", type=int, default=None)
    p_bench.add_argument("--capacity", type=int, default=None)
    p_bench.add_argument("--scheme", choices=["journal", "plain", "naive", "quorum"], default=None)
    p_bench.add_argument("--selection", choices=["vnos", "fnos"], default=None)
    p_bench.add_argument("--replicas", type=int, default=None)
    p_bench.add_argument("--max-write-size", dest="max_write_size", type=int, default=None)
    p_bench.add_argument("--flush-interval-ms", dest="flush_interval_ms", type=float, default=None)
    p_bench.add_argument("--workers", type=int, default=4)
    p_bench.add_argument("--dir", default=None)
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_rec = sub.add_parser("recover", help="replay a journal directory")
    p_rec.add_argument("--dir", required=True)
    p_rec.add_argument("--segment", type=int, default=None)
    p_rec.add_argument("--scheme", choices=["journal", "plain"], default="journal")
    common(p_rec)
    p_rec.set_defaults(func=cmd_recover)

    p_leak = sub.add_parser("leak", help="posterior analysis")
    leak_sub = p_leak.add_subparsers(dest="leak_command", required=True)
    p_post = leak_sub.add_parser("posterior", help="closed-form posterior")
    p_post.add_argument("--scheme", choices=["vnos", "fnos"], required=True)
    p_post.add_argument("--prior", required=True, help="comma-separated group prior")
    p_post.add_argument("--candidates", type=int, default=None)
    p_post.set_defaults(func=cmd_leak_posterior)
    p_sim = leak_sub.add_parser("simulate", help="Monte-Carlo posterior")
    p_sim.add_argument("--scheme", choices=["vnos", "fnos"], required=True)
    p_sim.add_argument("--prior", required=True)
    p_sim.add_argument("--candidates", type=int, default=10)
    p_sim.add_argument("--trials", type=int, default=100_000)
    common(p_sim)
    p_sim.set_defaults(func=cmd_leak_simulate)

    p_attack = sub.add_parser("attack", help="size-inference pipeline")
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)
    p_train = attack_sub.add_parser("train", help="fit interval mapping from a labeled trace")
    p_train.add_argument("--trace", required=True)
    p_train.add_argument("--save", default=None, help="write the mapping to this JSON file")
    common(p_train)
    p_train.set_defaults(func=cmd_attack_train)
    p_eval = attack_sub.add_parser("eval", help="precision/recall of a mapping on a test trace")
    p_eval.add_argument("--trace", required=True)
    p_eval.add_argument("--model", required=True)
    common(p_eval)
    p_eval.set_defaults(func=cmd_attack_eval)

    p_gen = sub.add_parser("gen", help="emit workload or attack traces")
    p_gen.add_argument("--dist", default="uniform")
    p_gen.add_argument("--ops", type=int, default=1000)
    p_gen.add_argument("--attack-groups", default=None,
                       help='planted groups, e.g. "1-15:128,16-18:384"')
    p_gen.add_argument("--per-group", dest="per_group", type=int, default=100)
    p_gen.add_argument("--confusion", type=float, default=0.0)
    p_gen.add_argument("--out-file", dest="out_file", required=True)
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_demo = sub.add_parser("demo", help="scripted demonstrations")
    demo_sub = p_demo.add_subparsers(dest="demo_command", required=True)
    p_dq = demo_sub.add_parser("quorum", help="commit, crash, and recover over simulated replicas")
    p_dq.add_argument("--selection", choices=["vnos", "fnos"], default="vnos")
    p_dq.add_argument("--dir", default=None)
    common(p_dq)
    p_dq.set_defaults(func=cmd_demo_quorum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.mode == "seq" and args.flush_interval_ms is not None:
        parser.error("--flush-interval-ms applies to bench conc only: bench seq runs no periodic flusher")
    try:
        config = parse_config(args.config) if args.config else {}
        return args.func(args, config)
    except (WalError, OSError) as exc:  # OSError: a file named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
