"""The FULL TCP suite against servers that acknowledge through group commit.

Group commit hands each mutation's fsync to a shared committer and holds
the reply until the batch holding its record is durable, so every
acknowledgement the host sends waits on another thread.  This module
re-collects ``test_tcp.py`` with its ``CloudServer`` name rebound to a
factory that attaches a group-commit :class:`~repro.server.wal.CommitLog`
to every server it builds -- same tests, same assertions, the host's
replies now gated on batched fsyncs.  (The module name predates the
asyncio host's removal; that host carried group commit before the
thread host did.)
"""

import functools
import importlib.util
import os

import pytest

from repro.server.server import CloudServer
from repro.server.wal import CommitLog

pytestmark = pytest.mark.socket

_PATH = os.path.join(os.path.dirname(__file__), "test_tcp.py")
_SPEC = importlib.util.spec_from_file_location("repro_tcp_suite_rerun", _PATH)
tcp_suite = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tcp_suite)


def _group_commit_server(tmp_path, logs, params=None, **kwargs):
    wal = CommitLog(str(tmp_path / f"server-{len(logs)}.wal"),
                    group_commit=True)
    logs.append(wal)
    return CloudServer(params, wal=wal, **kwargs)


@pytest.fixture(autouse=True)
def _use_group_commit_servers(monkeypatch, tmp_path):
    """Rebind the suite's server class to a group-commit WAL factory."""
    logs = []
    monkeypatch.setattr(tcp_suite, "CloudServer",
                        functools.partial(_group_commit_server, tmp_path,
                                          logs))
    yield
    for wal in logs:
        wal.close()


# Re-export every test (and the fixtures they use) for collection here.
# The functions keep ``tcp_suite`` as their globals, so the autouse
# monkeypatch above swaps the servers they construct.
hosted_server = tcp_suite.hosted_server

for _name in dir(tcp_suite):
    if _name.startswith("test_"):
        globals()[_name] = getattr(tcp_suite, _name)
del _name
