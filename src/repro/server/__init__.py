"""The async serving layer: sharded, backpressured serving over the engine.

This package is the service-shaped front of the repository (see
``docs/serving.md`` for the full design):

:class:`AsyncServer`
    An asyncio front-end over N :class:`~repro.server.shards.Shard`
    workers.  Each shard is one warm worker process hosting its own
    :class:`~repro.engine.SolverPool`, reached over a socketpair per shard
    with two calls on the wire; registered snapshots are partitioned
    across shards by snapshot token, jobs and deltas route to the owning
    shard, and a bounded queue applies explicit backpressure
    (``"wait"`` or ``"reject"``) instead of accumulating an unbounded
    backlog.  Results are bit-identical to a sequential
    :meth:`~repro.engine.SolverPool.run_stream` of the same stream.

:func:`serve_stream`
    The synchronous convenience wrapper: one call, one temporary server,
    one report.

:class:`HttpServer` / :class:`ServeClient`
    The network front and its client: a zero-dependency HTTP/1.1 layer
    (framing in :mod:`repro.server.wire`) over a running ``AsyncServer``.
    Backpressure surfaces as status codes (429 for a rejected job, 503
    for an unavailable server, both with ``Retry-After``), streams are
    chunked JSON-lines with failures reported in band
    (:class:`StreamFailure` on the asyncio side), and the client brings
    retry budgets with exponential backoff plus streaming result
    iterators.

:class:`GreedyRebalancer` / :class:`RebalancePolicy`
    Elastic shard ownership (:mod:`repro.server.rebalance`): the server
    keeps per-shard and per-name load accounting, policies turn an
    immutable :class:`LoadSnapshot` into :class:`Move` proposals, and
    :meth:`AsyncServer.move` executes each one — quiescing the name,
    exporting its live head, warming the destination through the shared
    persistent store — without stalling other names or perturbing the
    bit-identical ordering guarantee.

The CLI surface is ``python -m repro serve`` (job files or stdin
JSON-lines in, JSON-lines results out; ``--http PORT`` serves the HTTP
front instead; ``--rebalance-interval`` turns on background
rebalancing).
"""

from .async_server import (
    BACKPRESSURE_POLICIES,
    AsyncServer,
    StreamFailure,
    serve_stream,
)
from .client import ServeClient
from .http import HttpServer
from .rebalance import (
    GreedyRebalancer,
    LoadSnapshot,
    Move,
    NameLoad,
    RebalancePolicy,
    ShardLoad,
)
from .shards import Shard

__all__ = [
    "AsyncServer",
    "BACKPRESSURE_POLICIES",
    "GreedyRebalancer",
    "HttpServer",
    "LoadSnapshot",
    "Move",
    "NameLoad",
    "RebalancePolicy",
    "ServeClient",
    "Shard",
    "ShardLoad",
    "StreamFailure",
    "serve_stream",
]
