"""Command-line interface.

The CLI wraps the :class:`~repro.core.CQASolver` façade so the library can
be used from the shell on databases stored as JSON (see
:func:`repro.db.io.save_json`) or as a directory of CSV files::

    python -m repro inspect  --json employees.json
    python -m repro repairs  --json employees.json
    python -m repro decide   --json employees.json --query "Employee(1, x, 'HR')"
    python -m repro count    --json employees.json \
        --query "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)" \
        --method fpras --epsilon 0.1 --delta 0.05
    python -m repro rank     --json employees.json \
        --query "Employee(1, x, y)" --answer-vars x,y
    python -m repro batch    --jobs jobs.json --workers 4
    python -m repro update   --json employees.json --delta delta.json \
        --output employees-v2.json
    python -m repro serve    --jobs jobs.json --shards 2 --queue-limit 16
    python -m repro serve    --jobs databases.json --stdin < jobs.jsonl
    python -m repro history  employees --persist-cache cache/ --limit 20
    python -m repro range    employees --from -5 --to 0 --json employees.json \
        --query "Employee(1, x, 'HR')" --persist-cache cache/
    python -m repro rollback employees 1a2b3c4d5e6f --json employees.json \
        --persist-cache cache/ --output employees-rolled-back.json
    python -m repro checkpoint employees --json employees.json \
        --persist-cache cache/
    python -m repro gc --persist-cache cache/ --max-bytes 50000000 \
        --pin employees

Every command prints a small, line-oriented report to stdout (``batch``
prints a JSON report, ``serve`` streams JSON-lines results, ``history``
one line per recorded snapshot) and exits with status 0 on success;
malformed input exits with status 2 and a one-line ``<command>: <message>``
on stderr (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .core import CQASolver
from .db import load_csv_directory, load_json
from .errors import ReproError
from .query import parse_query

__all__ = ["build_parser", "main"]

#: ``--persist-cache`` help of the commands that only read a lineage.
_LINEAGE_STORE_HELP = (
    "store directory whose snapshot catalog holds the lineage "
    "(the same directory batch/serve persist into)"
)


def _key_spec(text: str) -> Tuple[str, List[int]]:
    """Parse one ``--key RELATION=POS1,POS2`` value (argparse ``type``)."""
    relation, _, positions = text.partition("=")
    try:
        return relation, [int(position) for position in positions.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects RELATION=pos1,pos2 (got {text!r})"
        ) from None


def _load_instance(arguments: argparse.Namespace) -> tuple:
    """Load (database, keys) from the --json or --csv-dir arguments."""
    if arguments.json:
        if arguments.key:
            raise ReproError("--key is only meaningful together with --csv-dir")
        return load_json(arguments.json)
    return load_csv_directory(arguments.csv_dir, keys=dict(arguments.key or ()))


def _answer_variables(arguments: argparse.Namespace) -> Tuple[str, ...]:
    """The ``--answer-vars`` names (empty for a Boolean query)."""
    return tuple(
        name.strip() for name in (arguments.answer_vars or "").split(",") if name.strip()
    )


def _parse_cli_query(arguments: argparse.Namespace):
    return parse_query(arguments.query, answer_variables=_answer_variables(arguments))


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--json", help="database JSON file (schema, keys, facts)")
    source.add_argument("--csv-dir", help="directory with one CSV file per relation")
    parser.add_argument(
        "--key",
        action="append",
        type=_key_spec,
        metavar="RELATION=POS1,POS2",
        help="primary key for a relation when loading from CSV (repeatable)",
    )


def _add_query_arguments(parser: argparse.ArgumentParser, answer: bool = True) -> None:
    parser.add_argument("--query", required=True, help="query in the textual syntax")
    parser.add_argument(
        "--answer-vars",
        help="comma-separated answer variables (omit for a Boolean query)",
    )
    if answer:
        parser.add_argument(
            "--answer", help="comma-separated answer tuple for non-Boolean queries"
        )


def _add_method_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        default="auto",
        choices=["auto", "naive", "certificate", "inclusion-exclusion",
                 "enumeration", "fpras", "karp-luby"],
    )
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument(
        "--seed", type=int, default=None, help="seed for the randomised methods"
    )


def _add_store_argument(
    parser: argparse.ArgumentParser, required: bool, help: str
) -> None:
    parser.add_argument("--persist-cache", required=required, metavar="DIR", help=help)


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="K",
        help="cut a compaction checkpoint every K effective deltas of a "
        "name (requires --persist-cache); deep as_of replays then start "
        "at the nearest checkpoint",
    )
    parser.add_argument(
        "--max-latency",
        type=float,
        metavar="SECONDS",
        help="anytime SLA applied to every randomised count job: stop "
        "sampling after SECONDS and report the running estimate with its "
        "interval",
    )
    parser.add_argument(
        "--max-error",
        type=float,
        metavar="FRACTION",
        help="anytime SLA applied to every randomised count job: stop "
        "sampling once the interval is relatively tighter than FRACTION",
    )
    parser.add_argument(
        "--calibrate-from",
        metavar="FILE",
        help="job file of held-out calibration jobs, run before the jobs: "
        "every randomised one is run both sampled and exactly, and the "
        "residuals conformally calibrate the anytime intervals",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counting database repairs under primary keys (PODS 2019 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    inspect = subparsers.add_parser("inspect", help="summarise the database and its conflicts")
    inspect.set_defaults(run=_run_inspect)
    _add_instance_arguments(inspect)

    repairs = subparsers.add_parser("repairs", help="count (and optionally list) the repairs")
    repairs.set_defaults(run=_run_repairs)
    _add_instance_arguments(repairs)
    repairs.add_argument("--list", type=int, default=0, metavar="N", help="print up to N repairs")

    decide = subparsers.add_parser("decide", help="is the query entailed by some repair?")
    decide.set_defaults(run=_run_decide)
    _add_instance_arguments(decide)
    _add_query_arguments(decide)

    count = subparsers.add_parser("count", help="count the repairs entailing the query")
    count.set_defaults(run=_run_count)
    _add_instance_arguments(count)
    _add_query_arguments(count)
    _add_method_arguments(count)

    rank = subparsers.add_parser("rank", help="rank candidate answers by relative frequency")
    rank.set_defaults(run=_run_rank)
    _add_instance_arguments(rank)
    _add_query_arguments(rank, answer=False)
    rank.add_argument("--top", type=int, default=0, metavar="N", help="print only the top N answers")

    batch = subparsers.add_parser(
        "batch", help="run a batch of counting jobs through the SolverPool engine"
    )
    batch.set_defaults(run=_run_batch)
    batch.add_argument(
        "--jobs",
        required=True,
        metavar="FILE",
        help="JSON job file: {'databases': {...}, 'jobs': [...]} "
        "(see repro.engine.jobfile)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; 1 runs sequentially (default)",
    )
    batch.add_argument(
        "--indent", type=int, default=None, help="indent the JSON report for humans"
    )
    _add_store_argument(
        batch,
        required=False,
        help="directory for the persistent selector cache; re-running an "
        "unchanged job file against the same directory recomputes nothing",
    )
    _add_engine_arguments(batch)

    serve = subparsers.add_parser(
        "serve",
        help="serve a job stream through the sharded async server",
    )
    serve.set_defaults(run=_run_serve)
    serve.add_argument(
        "--jobs",
        required=True,
        metavar="FILE",
        help="JSON job file: {'databases': {...}, 'jobs': [...]}; with "
        "--stdin the 'jobs' array may be empty and jobs arrive as "
        "JSON-lines on stdin",
    )
    serve.add_argument(
        "--stdin",
        action="store_true",
        help="read jobs as JSON-lines from stdin (after the file's jobs)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="worker shards; each owns a disjoint set of databases (default 2)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bound on in-flight jobs before backpressure applies (default 64)",
    )
    serve.add_argument(
        "--policy",
        choices=["wait", "reject"],
        default="wait",
        help="what a full queue does to the submitter (default: wait)",
    )
    _add_store_argument(
        serve,
        required=False,
        help="directory for the persistent selector/decomposition caches",
    )
    serve.add_argument(
        "--cache-max-entries",
        type=int,
        metavar="N",
        help="GC bound: keep at most N entries per on-disk cache layer",
    )
    serve.add_argument(
        "--cache-max-age",
        type=float,
        metavar="SECONDS",
        help="GC bound: evict on-disk entries older than SECONDS",
    )
    serve.add_argument(
        "--auto-checkpoint",
        action="store_true",
        help="adaptive checkpoint placement instead of a fixed interval: "
        "each shard observes its as_of replays and checkpoints hot deep "
        "chain positions where the modeled replay saving pays (requires "
        "--persist-cache; mutually exclusive with --checkpoint-every)",
    )
    serve.add_argument(
        "--cache-max-bytes",
        type=int,
        metavar="BYTES",
        help="GC bound: one global byte budget for the shared store, "
        "split between the entry kinds by observed hit-rate-per-byte",
    )
    serve.add_argument(
        "--rebalance-interval",
        type=float,
        metavar="SECONDS",
        help="run the load rebalancer every SECONDS, moving hot database "
        "names to cold shards with a warm cache handoff (default: off)",
    )
    serve.add_argument(
        "--max-imbalance",
        type=float,
        default=2.0,
        metavar="RATIO",
        help="rebalance only while the hottest shard carries more than "
        "RATIO times the mean shard load (default 2.0)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print the server's aggregated stats JSON to stderr at the end",
    )
    serve.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        help="serve the HTTP network front on PORT instead of streaming "
        "results to stdout (0 picks a free port; the bound address is "
        "printed as a JSON ready line); the job file then only declares "
        "databases",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --http (default 127.0.0.1)",
    )
    _add_engine_arguments(serve)

    range_command = subparsers.add_parser(
        "range",
        help="count one query against every recorded version in a range",
    )
    range_command.set_defaults(run=_run_range)
    range_command.add_argument(
        "name", help="registration name whose recorded versions to query"
    )
    range_command.add_argument(
        "--from",
        dest="ref_lo",
        required=True,
        type=_parse_snapshot_ref,
        metavar="REF",
        help="first version: a recorded content digest (or unique "
        ">=8-character prefix), or a non-positive chain index like -5",
    )
    range_command.add_argument(
        "--to",
        dest="ref_hi",
        required=True,
        type=_parse_snapshot_ref,
        metavar="REF",
        help="last version (inclusive; same reference syntax as --from); "
        "swap the endpoints for newest-first output",
    )
    _add_instance_arguments(range_command)
    _add_query_arguments(range_command)
    _add_method_arguments(range_command)
    _add_store_argument(range_command, required=True, help=_LINEAGE_STORE_HELP)

    history = subparsers.add_parser(
        "history",
        help="show the recorded snapshot lineage of a database name",
    )
    history.set_defaults(run=_run_history)
    history.add_argument("name", help="registration name the lineage belongs to")
    _add_store_argument(history, required=True, help=_LINEAGE_STORE_HELP)
    history.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="print only the N newest records (long chains stay readable; "
        "the footer reports how many were elided)",
    )
    history.add_argument(
        "--json-lines",
        action="store_true",
        help="emit one JSON object per record instead of the table",
    )
    history.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document (records, head, "
        "checkpoints, elided/compacted counts) instead of the table",
    )

    rollback = subparsers.add_parser(
        "rollback",
        help="re-register a recorded ancestor snapshot as the head",
    )
    rollback.set_defaults(run=_run_rollback)
    rollback.add_argument("name", help="registration name to roll back")
    rollback.add_argument(
        "digest",
        type=_parse_snapshot_ref,
        help="ancestor reference: a recorded content digest (or unique "
        ">=8-character prefix), or a non-positive chain index like -2",
    )
    _add_instance_arguments(rollback)
    _add_store_argument(
        rollback,
        required=True,
        help="store directory holding the name's snapshot catalog; the "
        "rollback is recorded there as a new lineage head",
    )
    rollback.add_argument(
        "--output",
        required=True,
        metavar="FILE",
        help="where to write the rolled-back database JSON snapshot",
    )

    checkpoint = subparsers.add_parser(
        "checkpoint",
        help="persist the current head snapshot as a compaction checkpoint",
    )
    checkpoint.set_defaults(run=_run_checkpoint)
    checkpoint.add_argument("name", help="registration name to checkpoint")
    _add_instance_arguments(checkpoint)
    _add_store_argument(
        checkpoint,
        required=True,
        help="store directory holding the name's snapshot catalog; the "
        "full snapshot is persisted there and the chain position marked",
    )

    gc = subparsers.add_parser(
        "gc",
        help="garbage-collect a persistent store directory offline",
    )
    gc.set_defaults(run=_run_gc)
    _add_store_argument(
        gc,
        required=True,
        help="store directory to collect (the same directory batch/serve "
        "persist into)",
    )
    gc.add_argument(
        "--max-entries",
        type=int,
        metavar="N",
        help="keep at most N entries per on-disk cache layer",
    )
    gc.add_argument(
        "--max-age",
        type=float,
        metavar="SECONDS",
        help="evict entries older than SECONDS",
    )
    gc.add_argument(
        "--max-bytes",
        type=int,
        metavar="BYTES",
        help="one global byte budget across the entry kinds "
        "(*.sel/*.dec/*.snp/*.cal), split by observed hit-rate-per-byte",
    )
    gc.add_argument(
        "--pin",
        action="append",
        metavar="NAME",
        help="exempt the recorded head snapshot of NAME (its catalog "
        "lineage must exist in the store directory; repeatable)",
    )
    gc.add_argument(
        "--indent", type=int, default=None, help="indent the JSON report"
    )

    update = subparsers.add_parser(
        "update",
        help="apply a delta (inserted/deleted facts) to a stored database",
    )
    update.set_defaults(run=_run_update)
    _add_instance_arguments(update)
    update.add_argument(
        "--delta",
        required=True,
        metavar="FILE",
        help="delta JSON file: {'insert': [facts...], 'delete': [facts...]}",
    )
    update.add_argument(
        "--output",
        required=True,
        metavar="FILE",
        help="where to write the updated database JSON snapshot",
    )

    return parser


def _parse_answer(text: Optional[str]) -> tuple:
    if not text:
        return ()
    values: List[object] = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            values.append(int(piece))
        except ValueError:
            values.append(piece)
    return tuple(values)


def _solver(arguments: argparse.Namespace) -> CQASolver:
    """A solver over the command's instance, seeded by ``--seed`` if given."""
    database, keys = _load_instance(arguments)
    return CQASolver(database, keys, rng=getattr(arguments, "seed", None))


def _run_inspect(arguments: argparse.Namespace) -> int:
    solver = _solver(arguments)
    database, decomposition = solver.database, solver.decomposition
    print(f"facts: {len(database)}")
    print(f"relations: {', '.join(database.relation_names())}")
    print(f"keys: {', '.join(str(constraint) for constraint in solver.keys) or '<none>'}")
    print(f"blocks: {len(decomposition)}")
    print(f"conflicting blocks: {len(decomposition.conflicting_blocks())}")
    print(f"consistent: {decomposition.is_consistent()}")
    print(f"total repairs: {decomposition.total_repairs()}")
    return 0


def _run_repairs(arguments: argparse.Namespace) -> int:
    solver = _solver(arguments)
    print(f"total repairs: {solver.total_repairs()}")
    for index, repair in enumerate(solver.repairs(limit=arguments.list)):
        print(f"--- repair {index}")
        for item in repair.sorted_facts():
            print(f"  {item}")
    return 0


def _run_decide(arguments: argparse.Namespace) -> int:
    solver = _solver(arguments)
    entailed = solver.entails_some_repair(
        _parse_cli_query(arguments), _parse_answer(arguments.answer)
    )
    print("entailed by some repair" if entailed else "entailed by no repair")
    return 0


def _run_count(arguments: argparse.Namespace) -> int:
    solver = _solver(arguments)
    result = solver.count(
        _parse_cli_query(arguments),
        answer=_parse_answer(arguments.answer),
        method=arguments.method,
        epsilon=arguments.epsilon,
        delta=arguments.delta,
    )
    print(result)
    return 0


def _run_rank(arguments: argparse.Namespace) -> int:
    solver = _solver(arguments)
    ranking = solver.answer_ranking(_parse_cli_query(arguments))
    if arguments.top:
        ranking = ranking[: arguments.top]
    for entry in ranking:
        print(entry)
    return 0


def _with_sla(item, arguments: argparse.Namespace):
    """Apply the CLI's SLA knobs to one stream item.

    Only randomised count jobs are touched (exact methods reject the
    knobs by contract); jobs carrying their own knobs keep them.
    """
    from .engine import CountJob

    if not isinstance(item, CountJob) or not item.is_randomised:
        return item
    knobs = {}
    if arguments.max_latency is not None and item.max_latency is None:
        knobs["max_latency"] = arguments.max_latency
    if arguments.max_error is not None and item.max_error is None:
        knobs["max_error"] = arguments.max_error
    return replace(item, **knobs) if knobs else item


def _engine_inputs(arguments: argparse.Namespace, require_jobs: bool) -> tuple:
    """Validate the engine flags of batch/serve and load their job files.

    Returns ``(databases, jobs, held_out)``: the databases of both files,
    the job file's items with the SLA flags applied, and the held-out
    count jobs (``None`` without ``--calibrate-from``).
    """
    from .engine import CountJob, load_job_file

    if arguments.checkpoint_every is not None:
        if arguments.checkpoint_every < 1:
            raise ReproError("--checkpoint-every must be >= 1")
        if not arguments.persist_cache:
            raise ReproError("--checkpoint-every requires --persist-cache")
    if arguments.max_latency is not None and arguments.max_latency <= 0:
        raise ReproError(f"--max-latency must be > 0, got {arguments.max_latency}")
    if arguments.max_error is not None and arguments.max_error <= 0:
        raise ReproError(f"--max-error must be > 0, got {arguments.max_error}")
    databases, jobs = load_job_file(arguments.jobs, require_jobs=require_jobs)
    held_out = None
    if arguments.calibrate_from:
        held_out_databases, held_out_items = load_job_file(arguments.calibrate_from)
        for name, pair in held_out_databases.items():
            databases.setdefault(name, pair)
        held_out = [item for item in held_out_items if isinstance(item, CountJob)]
    return databases, [_with_sla(item, arguments) for item in jobs], held_out


def _run_batch(arguments: argparse.Namespace) -> int:
    """The ``batch`` command: load a job file, run it, print a JSON report."""
    # Imported lazily: the engine pulls in the process-pool machinery, which
    # the single-query commands never need.
    from .engine import SolverPool

    databases, jobs, held_out = _engine_inputs(arguments, require_jobs=True)
    pool = SolverPool(
        persist_dir=arguments.persist_cache,
        checkpoint_every=arguments.checkpoint_every,
    )
    for name, (database, keys) in databases.items():
        pool.register(name, database, keys)
    calibration = None
    if held_out is not None:
        calibration = pool.calibrate_from(held_out)
    document = pool.run_stream(jobs, workers=arguments.workers).to_json()
    if calibration is not None:
        document["calibration"] = calibration
    print(json.dumps(document, indent=arguments.indent))
    return 0


def _run_serve(arguments: argparse.Namespace) -> int:
    """The ``serve`` command: job stream in, JSON-lines results out.

    Results are emitted in *completion* order, one JSON object per line,
    each carrying its stream ``index`` (and ``"type": "update"`` for delta
    reports) — the streaming shape a service client consumes.  With
    ``--stdin``, jobs are read lazily line by line after the job file's own
    jobs, so queue backpressure propagates to the input reader.

    With ``--http PORT`` the command becomes a network service instead:
    the job file only declares databases, the HTTP front binds to
    ``--host``/PORT (0 picks a free port), a single JSON ready line with
    the bound address is printed to stdout, and the process serves until
    interrupted.
    """
    import asyncio

    from .engine import UpdateReport, parse_stream_item
    from .server import AsyncServer, HttpServer
    from .store import AdaptiveCheckpointPolicy

    if arguments.auto_checkpoint:
        if arguments.checkpoint_every is not None:
            raise ReproError(
                "--auto-checkpoint and --checkpoint-every are "
                "mutually exclusive"
            )
        if not arguments.persist_cache:
            raise ReproError("--auto-checkpoint requires --persist-cache")
    if arguments.cache_max_bytes is not None:
        if arguments.cache_max_bytes < 0:
            raise ReproError("--cache-max-bytes must be >= 0")
        if not arguments.persist_cache:
            raise ReproError("--cache-max-bytes requires --persist-cache")
    if arguments.http is not None and arguments.stdin:
        raise ReproError("--http and --stdin are mutually exclusive")
    databases, file_jobs, held_out = _engine_inputs(
        arguments, require_jobs=not (arguments.stdin or arguments.http is not None)
    )
    if arguments.http is not None and file_jobs:
        raise ReproError(
            "--http serves jobs over the network; the job file must "
            f"only declare databases (found {len(file_jobs)} jobs)"
        )

    def stream_items():
        yield from file_jobs
        if arguments.stdin:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                # The server rejects a job for an undeclared database.
                yield _with_sla(parse_stream_item(json.loads(line)), arguments)

    async def _serve() -> int:
        server = AsyncServer(
            shards=arguments.shards,
            queue_limit=arguments.queue_limit,
            policy=arguments.policy,
            persist_dir=arguments.persist_cache,
            persist_max_entries=arguments.cache_max_entries,
            persist_max_age=arguments.cache_max_age,
            persist_max_bytes=arguments.cache_max_bytes,
            checkpoint_every=arguments.checkpoint_every,
            checkpoint_policy=(
                AdaptiveCheckpointPolicy() if arguments.auto_checkpoint else None
            ),
            rebalance_interval=arguments.rebalance_interval,
            max_imbalance=arguments.max_imbalance,
        )
        for name, (database, keys) in databases.items():
            server.register(name, database, keys)
        async with server:
            if held_out:
                calibration = await server.calibrate_from(held_out)
                print(
                    json.dumps({"calibration": calibration}), file=sys.stderr
                )
            if arguments.http is not None:
                async with HttpServer(
                    server, host=arguments.host, port=arguments.http
                ) as front:
                    # The ready line: the one stdout line a launcher
                    # needs to find the (possibly OS-assigned) port.
                    print(
                        json.dumps(
                            {"http": {"host": front.host, "port": front.port}}
                        ),
                        flush=True,
                    )
                    await front.serve_forever()
                return 0
            async for result in server.results(stream_items()):
                payload = result.to_json()
                if isinstance(result, UpdateReport):
                    payload["type"] = "update"
                print(json.dumps(payload), flush=True)
            if arguments.stats:
                print(json.dumps(await server.stats()), file=sys.stderr)
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        # The expected way to stop `serve --http`: a clean exit, with the
        # asyncio.run teardown having stopped shards and connections.
        return 0


def _run_history(arguments: argparse.Namespace) -> int:
    """The ``history`` command: print a name's persisted snapshot lineage.

    Reads the snapshot catalog straight from the store directory — no
    databases are loaded and no engine is started, so history is
    inspectable even while a server owns the data.  Checkpointed chain
    positions (full snapshots persisted for fast replay) are marked with
    ``*`` in the table (``"checkpoint": true`` in ``--json-lines``), and
    ``--limit`` keeps long compacted chains readable instead of dumping
    every record unconditionally.
    """
    from datetime import datetime, timezone

    from .store import SnapshotCatalog

    if arguments.limit < 0:
        raise ReproError(f"--limit must be >= 0, got {arguments.limit}")
    if arguments.json and arguments.json_lines:
        raise ReproError("pass --json or --json-lines, not both")
    catalog = SnapshotCatalog(arguments.persist_cache)
    lineage = catalog.lineage(arguments.name)
    if not len(lineage):
        raise ReproError(
            f"no recorded lineage for {arguments.name!r} in "
            f"{arguments.persist_cache}"
        )
    checkpointed = {
        record.sequence for record in catalog.checkpoints(arguments.name, lineage)
    }
    head = lineage.head
    compacted_total = sum(
        1 for record in lineage if getattr(record, "compacted", None) is not None
    )
    records = list(lineage)
    elided = 0
    if arguments.limit:
        elided = max(0, len(records) - arguments.limit)
        records = records[-arguments.limit:]
    if arguments.json:
        document = {
            "name": arguments.name,
            "records": [
                {
                    **record.to_json(),
                    "checkpoint": record.sequence in checkpointed,
                }
                for record in records
            ],
            "head": head.digest,
            "versions": len(lineage),
            "checkpoints": sorted(checkpointed),
            "elided": elided,
            "compacted": compacted_total,
        }
        print(json.dumps(document))
        return 0
    if elided and not arguments.json_lines:
        print(f"... ({elided} older record(s) elided; drop --limit to see all)")
    for record in records:
        marker = record.sequence in checkpointed
        if arguments.json_lines:
            payload = record.to_json()
            if marker:
                payload["checkpoint"] = True
            print(json.dumps(payload))
            continue
        stamp = datetime.fromtimestamp(record.wall_time, timezone.utc)
        parent = record.parent_digest[:12] if record.parent_digest else "-"
        compacted = getattr(record, "compacted", None)
        if record.delta is not None:
            change = f"+{len(record.delta.inserted)}/-{len(record.delta.deleted)}"
        elif compacted is not None:
            # Payload released by compaction; the recorded fact counts
            # remain — parentheses mark "counts only, not replayable".
            change = f"(+{compacted[0]}/-{compacted[1]})"
        else:
            change = "-"
        print(
            f"#{record.sequence}{'*' if marker else ' '} {record.kind:<8}  "
            f"{record.digest[:12]}  parent {parent:<12}  {change:<8}  "
            f"{stamp.strftime('%Y-%m-%dT%H:%M:%SZ')}"
        )
    print(
        f"head: {head.digest} ({len(lineage)} recorded version(s), "
        f"{len(checkpointed)} checkpoint(s))"
    )
    if compacted_total:
        print(
            f"compacted: {compacted_total} record(s) hold counts only "
            f"(in parentheses); their delta payloads were released and "
            f"non-checkpointed ancestors below them cannot be replayed"
        )
    return 0


def _parse_snapshot_ref(text: str) -> object:
    """Parse one snapshot reference (argparse ``type`` of rollback/range).

    Non-positive integers are chain indices ("-2" = two versions ago);
    anything else — including all-digit digest prefixes, which are
    necessarily positive — stays a digest string.
    """
    try:
        if int(text) <= 0:
            return int(text)
    except ValueError:
        pass
    return text


def _head_pool(arguments: argparse.Namespace, reference: object = None):
    """A :class:`SolverPool` holding the input instance as ``arguments.name``.

    The name must have a recorded lineage (a typo must not start a new
    chain), a ``reference`` must resolve in it, and the instance must be
    its recorded head (a stale file must never touch the wrong history).
    """
    from .engine import SolverPool
    from .store import SnapshotCatalog

    database, keys = _load_instance(arguments)
    chain = SnapshotCatalog(arguments.persist_cache).lineage(arguments.name)
    head = chain.head
    if head is None:
        raise ReproError(
            f"no recorded lineage for {arguments.name!r} in "
            f"{arguments.persist_cache}"
        )
    if reference is not None:
        chain.resolve(reference)  # unknown/ambiguous references fail here
    if (database.content_digest(), keys.content_digest()) != (
        head.digest,
        head.keys_digest,
    ):
        raise ReproError(
            f"the provided snapshot ({database.content_digest()[:12]}) "
            f"is not the recorded head of {arguments.name!r} "
            f"({head.digest[:12]}); pass the current head database"
        )
    pool = SolverPool(persist_dir=arguments.persist_cache)
    pool.register(arguments.name, database, keys)
    return pool


def _run_range(arguments: argparse.Namespace) -> int:
    """The ``range`` command: one query against every version in a range.

    Loads the current head snapshot, verifies it against the recorded
    chain (a stale input file must never count against the wrong
    history), and runs one :class:`CountJob` carrying ``as_of_range``
    through :meth:`SolverPool.run_range` — the engine materialises the
    whole range via a single shared replay walk, so an N-version range
    costs one chain traversal, not N.  Output is JSON-lines: one result
    document per version in range order, failed versions in band as
    ``{"index": …, "error": …}``, then a summary line on stderr.
    """
    from .engine import CountJob, RangeFailure
    from .server.wire import payload_for_error

    pool = _head_pool(arguments)
    job = CountJob(
        database=arguments.name,
        query=arguments.query,
        answer=_parse_answer(arguments.answer),
        answer_variables=_answer_variables(arguments),
        method=arguments.method,
        epsilon=arguments.epsilon,
        delta=arguments.delta,
        seed=arguments.seed,
        as_of_range=(arguments.ref_lo, arguments.ref_hi),
    )
    outcomes = pool.run_range(job)
    failures = 0
    for outcome in outcomes:
        if isinstance(outcome, RangeFailure):
            failures += 1
            payload = {"index": outcome.index, **payload_for_error(outcome.error)}
        else:
            payload = outcome.to_json()
        print(json.dumps(payload), flush=True)
    print(
        f"range: {len(outcomes) - failures} result(s), {failures} failure(s) "
        f"over {len(outcomes)} version(s)",
        file=sys.stderr,
    )
    return 0 if failures == 0 else 1


def _run_checkpoint(arguments: argparse.Namespace) -> int:
    """The ``checkpoint`` command: compact the chain at the current head.

    Loads the head snapshot, verifies it against the recorded chain (a
    stale input file must never checkpoint the wrong state), persists the
    full database through the store's snapshot entries and marks the
    chain position in the catalog.  Later deep ``as_of`` replays — by any
    process sharing the store — start at this checkpoint.
    """
    pool = _head_pool(arguments)
    record = pool.checkpoint(arguments.name)
    if record is None:
        raise ReproError(
            f"the snapshot of {arguments.name!r} could not be persisted"
        )
    print(f"checkpointed: #{record.sequence} {record.digest}")
    print(f"checkpoints: {len(pool.checkpoints(arguments.name))}")
    return 0


def _run_rollback(arguments: argparse.Namespace) -> int:
    """The ``rollback`` command: make a recorded ancestor the head again.

    The ancestor is materialised by replaying the catalog's effective
    delta chain backwards from the provided head snapshot (digest-verified
    along the way), written to ``--output``, and recorded in the catalog
    as the new lineage head — so subsequent ``batch``/``serve`` runs that
    register the output file adopt the full history, rollback included.

    Everything is validated *before* the catalog is touched: the
    reference must resolve, and the provided snapshot must be the
    recorded head — a failed rollback (or a stale input file) must never
    move the persisted lineage.
    """
    from .db import save_json

    pool = _head_pool(arguments, arguments.digest)
    old_digest = pool.snapshot_token(arguments.name)[0]
    record = pool.rollback(arguments.name, arguments.digest)
    rolled_back, keys = pool.lookup(arguments.name)
    save_json(rolled_back, arguments.output, keys)
    print(f"old head: {old_digest}")
    print(f"new head: {record.digest}")
    print(f"recorded: #{record.sequence} ({record.kind})")
    print(f"wrote: {arguments.output}")
    return 0


def _run_gc(arguments: argparse.Namespace) -> int:
    """The ``gc`` command: bound a store directory offline, report as JSON.

    Builds a cache coordinator over the store directory (no databases
    loaded, no engine started), pins the recorded head snapshots of the
    ``--pin`` names so live state survives any bound, and runs one GC
    pass.  The report shows, per on-disk layer, the current bytes, the
    observed decayed hit rate, the byte budget the hit-rate-per-byte
    split granted it (``--max-bytes``), and how many entries were
    evicted.  Catalog history (``*.rec``/``*.ckp``) is never collected.
    """
    from .engine.cache_coordinator import CacheCoordinator
    from .store import SnapshotCatalog

    bounds = {
        "--max-entries": arguments.max_entries,
        "--max-age": arguments.max_age,
        "--max-bytes": arguments.max_bytes,
    }
    if all(bound is None for bound in bounds.values()):
        raise ReproError(
            "pass at least one bound: --max-entries, --max-age "
            "or --max-bytes"
        )
    for flag, bound in bounds.items():
        if bound is not None and bound < 0:
            raise ReproError(f"{flag} must be >= 0")
    caches = CacheCoordinator(persist_dir=arguments.persist_cache)
    catalog = SnapshotCatalog(arguments.persist_cache)
    pinned = []
    for name in arguments.pin or []:
        head = catalog.lineage(name).head
        if head is None:
            raise ReproError(
                f"cannot pin {name!r}: no recorded lineage in "
                f"{arguments.persist_cache}"
            )
        pinned.append((head.digest, head.keys_digest))
    caches.set_pinned_tokens(pinned)
    plan = caches.plan_byte_budget(arguments.max_bytes)
    evictions = caches.collect_garbage(
        arguments.max_entries, arguments.max_age, arguments.max_bytes
    )
    document = {
        "store": str(arguments.persist_cache),
        "pinned": list(arguments.pin or []),
        "max_entries": arguments.max_entries,
        "max_age": arguments.max_age,
        "max_bytes": arguments.max_bytes,
        "layers": {
            layer: {**plan[layer], "evicted": evictions[layer]}
            for layer in plan
        },
        "evicted": sum(evictions.values()),
    }
    print(json.dumps(document, indent=arguments.indent))
    return 0


def _run_update(arguments: argparse.Namespace) -> int:
    """The ``update`` command: database + delta -> next snapshot on disk."""
    from .db import Delta, save_json

    database, keys = _load_instance(arguments)
    try:
        payload = json.loads(Path(arguments.delta).read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"delta file is not valid JSON: {exc}") from exc
    delta = Delta.from_json(payload)
    really_inserted, really_deleted = delta.effective_against(database)
    touched_blocks = len(
        {keys.key_value(item) for item in really_inserted + really_deleted}
    )
    snapshot = database.freeze()
    updated = snapshot.apply_delta(delta)
    save_json(updated, arguments.output, keys)
    print(f"facts: {len(snapshot)} -> {len(updated)}")
    print(f"inserted: {len(really_inserted)} (of {len(delta.inserted)} requested)")
    print(f"deleted: {len(really_deleted)} (of {len(delta.deleted)} requested)")
    print(f"touched blocks: {touched_blocks}")
    print(f"old digest: {snapshot.content_digest()}")
    print(f"new digest: {updated.content_digest()}")
    print(f"wrote: {arguments.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    The CLI's one error boundary: a library error, a file error or invalid
    JSON becomes a single ``<command>: <message>`` stderr line and exit 2.
    """
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.run(arguments)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"{arguments.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
