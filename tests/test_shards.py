"""Tests for the shard command path (``repro.server.shards``).

What is pinned here:

* ``Shard.call`` refuses any operation outside ``SHARD_OPS`` in the
  parent, naming it, before a worker exists or anything is queued;
* every ``SHARD_OPS`` entry names a real ``SolverPool`` attribute, so a
  renamed pool method fails here rather than inside a shard worker.
"""

import pytest

from repro.engine import SolverPool
from repro.errors import ServerError
from repro.server.shards import SHARD_OPS, Shard


class TestShardOps:
    @pytest.mark.parametrize("op", ["_registry", "__class__", "run"])
    def test_call_refuses_ops_outside_the_allow_list(self, op):
        shard = Shard(0)
        with pytest.raises(ServerError, match=repr(op)):
            shard.call(op)
        assert not shard.is_running
        assert shard.jobs_submitted == shard.updates_submitted == 0

    def test_every_allowed_op_exists_on_the_pool(self):
        missing = sorted(op for op in SHARD_OPS if not hasattr(SolverPool, op))
        assert missing == []
