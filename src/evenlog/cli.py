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

Each command takes only the options it reads: --out on those that print
a report (bench, recover, leak simulate, attack), --seed on those that
draw from a seeded generator (bench, leak simulate, gen), and --workers
and --flush-interval-ms on bench conc alone. Exit codes: 0 success,
1 operational error, 2 usage error.

A config file of KEY=VALUE lines (--config) sets the defaults of the
options its keys name, each value checked as that option's flag would
be; explicit flags win. The encryption key is only ever read from the
EVENLOG_KEY environment variable (hex), never from a flag or file, so it
cannot leak into shell history or configs by accident.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from . import bench, leakage, workload
from .crypto import ReplicaKey, StaticKeyProvider
from .engine import WalEngine
from .errors import WalError
from .journal import JournalBackend, PlainJournalBackend, recover_journal, recover_plain
from .observe import StorageTrace
from .quorum import QuorumBackend, QuorumConfig, SelectionScheme, build_cluster
from .slots import DEFAULT_SLOT_CAPACITY


def _config_options(parser: argparse.ArgumentParser, args=None) -> dict[str, argparse.Action]:
    """The options that a config key sets, by key: those of the command
    ``args`` was parsed for, or without ``args`` those of every command."""
    options = {}
    for action in parser._actions:
        if action.nargs == argparse.PARSER:  # sub-commands: follow the chosen one
            for name, sub in action.choices.items():
                if args is None or name == getattr(args, action.dest):
                    options.update(_config_options(sub, args))
        elif getattr(action, "config_key", None):
            options[action.config_key] = action
    return options


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Make each KEY=VALUE line of the ``--config`` file the default of the
    option its key sets on this command, cast and checked as its flag would be."""
    known, options = _config_options(parser), _config_options(parser, args)
    for lineno, line in enumerate(Path(args.config).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise WalError(f"{args.config}:{lineno}: expected KEY=VALUE")
        key, _, text = map(str.strip, line.partition("="))
        if key not in known:
            raise WalError(f"{args.config}:{lineno}: unknown key {key!r}")
        if key not in options:  # a key of another command
            continue
        action = options[key]
        cast = action.type or str
        try:
            value = cast(text)
        except ValueError:
            raise WalError(f"config {key}={text!r} is not a valid {cast.__name__}") from None
        if action.choices and value not in action.choices:
            raise WalError(f"config {key}={text!r} is not one of {', '.join(action.choices)}")
        action.default = value


def _key() -> ReplicaKey:
    """The key from EVENLOG_KEY, or a fresh one when it is unset."""
    provider = StaticKeyProvider.from_env() if os.environ.get("EVENLOG_KEY") else StaticKeyProvider.ephemeral()
    return provider.get("default")


def _fmt_prob(x: float) -> str:
    s = f"{x:.4f}".rstrip("0").rstrip(".")
    return s if s else "0"


def _parse_prior(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise WalError(f"bad prior {text!r}: expected comma-separated numbers") from None


def _quorum(root, n_replicas: int, selection: str, segment: int, max_write_size: int, seed: int):
    """A quorum backend over a new simulated cluster of ``n_replicas``."""
    registry, replicas = build_cluster(n_replicas)
    return QuorumBackend(root, _key(), replicas, registry,
                         config=QuorumConfig(segment_size=segment, max_write_size=max_write_size),
                         scheme=SelectionScheme.parse(selection), seed=seed)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.out == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _bench(args, run, flush_interval_ms: float | None) -> int:
    """Run the workload of ``args`` through a new engine and report it."""
    spec = workload.WorkloadSpec.parse(args.dist, args.ops, args.seed)
    if args.capacity <= 0:  # refused before any backend creates files in --dir
        raise WalError(f"--capacity {args.capacity} is not a positive number of bytes")
    with contextlib.ExitStack() as stack:  # without --dir: a temporary directory, removed after the close
        root = args.dir or stack.enter_context(tempfile.TemporaryDirectory(prefix="evenlog-"))
        if args.scheme == "journal":
            backend = JournalBackend(root, _key(), args.segment)
        elif args.scheme == "quorum":
            backend = _quorum(root, args.replicas, args.selection, args.segment, args.max_write_size, args.seed)
        else:  # plain, or naive: plain padded to the slot
            backend = PlainJournalBackend(root, pad_to=args.capacity if args.scheme == "naive" else None)
        engine = WalEngine(backend, args.capacity, flush_interval_ms)
        try:
            report = run(spec, engine)
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
    _emit(args, report.to_dict(), lines)
    return 0


# --- subcommand handlers ---------------------------------------------------------


def cmd_bench_seq(args) -> int:
    return _bench(args, bench.run_sequential, None)  # every write full-sync: no periodic flusher


def cmd_bench_conc(args) -> int:
    if args.workers < 1:  # refused before any backend creates files in --dir
        raise WalError(f"--workers {args.workers}: need at least one")
    if not args.flush_interval_ms > 0:  # likewise
        raise WalError(f"--flush-interval-ms {args.flush_interval_ms} is not positive")
    return _bench(args, functools.partial(bench.run_concurrent, workers=args.workers), args.flush_interval_ms)


def cmd_recover(args) -> int:
    if args.scheme == "plain":
        records = recover_plain(args.dir)
    else:
        records = recover_journal(args.dir, _key(), args.segment)
    payload = {
        "records": len(records),
        "bytes": sum(r.length for r in records),
        "checkpoints": sum(1 for r in records if r.is_checkpoint),
    }
    _emit(args, payload, [f"{k}  {v}" for k, v in payload.items()])
    return 0


def cmd_leak_posterior(args) -> int:
    prior = _parse_prior(args.prior)
    scheme = SelectionScheme.parse(args.scheme)
    if scheme is SelectionScheme.VNOS:
        q = leakage.posterior_vnos(prior, args.candidates)
    else:
        q = leakage.posterior_fnos(prior, args.candidates)
    print(",".join(_fmt_prob(x) for x in q))
    return 0


def cmd_leak_simulate(args) -> int:
    prior = _parse_prior(args.prior)
    scheme = SelectionScheme.parse(args.scheme)
    result = leakage.simulate_posterior(prior, scheme, args.candidates, trials=args.trials, seed=args.seed)
    closed = (leakage.posterior_vnos(prior) if scheme is SelectionScheme.VNOS
              else leakage.posterior_fnos(prior))
    payload = {
        "empirical": [round(float(x), 6) for x in result.posterior],
        "closed_form": [round(float(x), 6) for x in closed],
        "conditioning_events": result.conditioning_events,
        "trials": result.trials,
    }
    _emit(args, payload, [
        "empirical    " + ",".join(_fmt_prob(x) for x in result.posterior),
        "closed form  " + ",".join(_fmt_prob(x) for x in closed),
        f"events       {result.conditioning_events}/{result.trials}",
    ])
    return 0


def cmd_attack_train(args) -> int:
    pairs = leakage.read_trace_csv(args.trace)
    mapping = leakage.train_mapping(pairs)
    objective = leakage.mapping_objective(pairs, mapping)
    if args.save:
        leakage.save_mapping(args.save, mapping)
    payload = {"mapping": mapping.as_dict(), "objective": objective, "pairs": len(pairs)}
    lines = [f"{w}  ({mapping.bounds[i]}, {mapping.bounds[i + 1]}]" for i, w in enumerate(mapping.sizes)]
    lines.append(f"objective {objective}/{len(pairs)}")
    _emit(args, payload, lines)
    return 0


def cmd_attack_eval(args) -> int:
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
    _emit(args, payload, lines)
    return 0


def cmd_gen(args) -> int:
    if args.attack_groups:
        groups = []
        for part in args.attack_groups.split(","):
            if not (m := re.fullmatch(r"\s*(\d+)-(\d+):(\d+)\s*", part)):
                raise WalError(f"bad attack group {part!r}: expected LO-HI:SIZE")
            groups.append(workload.LengthGroup(*map(int, m.groups())))
        pairs = workload.planted_length_trace(groups, args.per_group, args.seed, args.confusion)
        leakage.write_trace_csv(args.out_file, pairs, fields=("true_len", "wal_size"))
        print(f"wrote {len(pairs)} labeled pairs to {args.out_file}")
        return 0
    spec = workload.WorkloadSpec.parse(args.dist, args.ops, args.seed)
    sizes = workload.payload_sizes(spec)
    leakage.write_trace_csv(args.out_file, list(enumerate(sizes.tolist())), fields=("op", "payload_size"))
    print(f"wrote {len(sizes)} payload sizes to {args.out_file}")
    return 0


def cmd_demo_quorum(args) -> int:
    # the replicas live only in this process, so an earlier run's metadata
    # files name segments that no replica holds any more
    if args.dir and os.path.isdir(args.dir) and os.listdir(args.dir):
        print(f"error: {args.dir} is not empty; demo quorum needs an empty directory", file=sys.stderr)
        return 1
    with contextlib.ExitStack() as stack:  # without --dir: a temporary directory, removed after the close
        root = args.dir or stack.enter_context(tempfile.TemporaryDirectory(prefix="evenlog-demo-"))
        backend = _quorum(root, 12, args.selection, segment=128, max_write_size=512, seed=7)
        cfg, replicas, trace = backend.config, backend.replicas, backend.trace
        engine = WalEngine(backend)

        print(f"{len(replicas)} replicas -> {len(backend.groups)} quorum groups of 3 "
              f"({args.selection} selection, S={cfg.segment_size}, K={cfg.k_max})")
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

    def keyed(p, key, *flags, **kw):
        """Add an option whose default the config key ``key`` may set."""
        p.add_argument(*flags, **kw).config_key = key

    engine = argparse.ArgumentParser(add_help=False)  # the options bench seq and bench conc share
    engine.add_argument("--dist", default="uniform", help="uniform | zipf:A | constant:C")
    engine.add_argument("--ops", type=int, default=1000)
    keyed(engine, "slot_capacity", "--capacity", type=int, default=DEFAULT_SLOT_CAPACITY)
    keyed(engine, "scheme", "--scheme", choices=["journal", "plain", "naive", "quorum"], default="journal")
    keyed(engine, "selection", "--selection", choices=["vnos", "fnos"], default="vnos")
    keyed(engine, "replicas", "--replicas", type=int, default=48)
    keyed(engine, "max_write_size", "--max-write-size", type=int, default=2048)
    engine.add_argument("--dir", default=None)
    bench_sub = sub.add_parser("bench", help="run a benchmark").add_subparsers(dest="mode", required=True)

    p_rec = sub.add_parser("recover", help="replay a journal directory")
    p_rec.add_argument("--dir", required=True)
    p_rec.add_argument("--scheme", choices=["journal", "plain"], default="journal")
    p_rec.set_defaults(func=cmd_recover)

    leak_sub = sub.add_parser("leak", help="posterior analysis").add_subparsers(dest="leak_command", required=True)
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
    p_sim.set_defaults(func=cmd_leak_simulate)

    attack_sub = sub.add_parser("attack", help="size-inference pipeline").add_subparsers(
        dest="attack_command", required=True)
    p_train = attack_sub.add_parser("train", help="fit interval mapping from a labeled trace")
    p_train.add_argument("--trace", required=True)
    p_train.add_argument("--save", default=None, help="write the mapping to this JSON file")
    p_train.set_defaults(func=cmd_attack_train)
    p_eval = attack_sub.add_parser("eval", help="precision/recall of a mapping on a test trace")
    p_eval.add_argument("--trace", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.set_defaults(func=cmd_attack_eval)

    p_gen = sub.add_parser("gen", help="emit workload or attack traces")
    p_gen.add_argument("--dist", default="uniform")
    p_gen.add_argument("--ops", type=int, default=1000)
    p_gen.add_argument("--attack-groups", default=None,
                       help='planted groups, e.g. "1-15:128,16-18:384"')
    p_gen.add_argument("--per-group", dest="per_group", type=int, default=100)
    p_gen.add_argument("--confusion", type=float, default=0.0)
    p_gen.add_argument("--out-file", dest="out_file", required=True)
    p_gen.set_defaults(func=cmd_gen)

    demo_sub = sub.add_parser("demo", help="scripted demonstrations").add_subparsers(dest="demo_command", required=True)
    p_dq = demo_sub.add_parser("quorum", help="commit, crash, and recover over simulated replicas")
    p_dq.add_argument("--selection", choices=["vnos", "fnos"], default="vnos")
    p_dq.add_argument("--dir", default=None)
    p_dq.set_defaults(func=cmd_demo_quorum)

    for p in (engine, p_rec):  # the commands that read a journal's segments
        keyed(p, "segment_size", "--segment", type=int, default=128)
    for p in (engine, p_rec, p_sim, p_train, p_eval):  # the commands that print a report
        keyed(p, "output", "--out", choices=["text", "json"], default="text")
    for p in (engine, p_sim, p_gen):  # the commands that draw from a seeded generator
        keyed(p, "seed", "--seed", type=int, default=0)

    bench_sub.add_parser("seq", parents=[engine], help="one writer, every write full-sync").set_defaults(
        func=cmd_bench_seq)
    p_conc = bench_sub.add_parser("conc", parents=[engine], help="concurrent buffered writers, periodic flusher")
    keyed(p_conc, "flush_interval_ms", "--flush-interval-ms", type=float, default=100.0)
    p_conc.add_argument("--workers", type=int, default=4)
    p_conc.set_defaults(func=cmd_bench_conc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # its values become defaults, so the flags, parsed again, still win
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        return args.func(args)
    except (WalError, OSError) as exc:  # OSError: a file named on the command line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
