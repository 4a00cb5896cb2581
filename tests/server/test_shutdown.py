"""Shutdown is prompt in every serving mode.

A server with a connected, idle client must close in well under a
second: nothing on the shutdown path may sit out a join timeout waiting
for a signal that was never delivered.
"""

import time

import pytest

from repro.facade import Reachability
from repro.graph.generators import random_dag
from repro.server import ReachClient, serve_artifact
from repro.server.httpd import HttpFrontend


def _static(reach, path, tmp_path):
    server = serve_artifact(path)
    return server, server.close


def _watching(reach, path, tmp_path):
    server = serve_artifact(path, watch=True, watch_interval_s=0.05)
    return server, server.close


def _static_with_http(reach, path, tmp_path):
    server = serve_artifact(path)
    http = HttpFrontend(server.service, on_shutdown=server.close).start()

    def close():
        http.close()
        server.close()

    return server, close


def _facade(reach, path, tmp_path):
    server = reach.serve()
    return server, server.close


def _facade_live(reach, path, tmp_path):
    server = reach.serve(live=True)
    return server, server.close


def _facade_durable(reach, path, tmp_path):
    server = reach.serve(live=True, data_dir=str(tmp_path / "data"))
    return server, server.close


@pytest.mark.parametrize(
    "mode",
    [_static, _watching, _static_with_http, _facade, _facade_live, _facade_durable],
    ids=lambda mode: mode.__name__.lstrip("_"),
)
def test_close_with_an_idle_connection_is_prompt(mode, tmp_path):
    g = random_dag(60, 150, seed=5)
    reach = Reachability(g, "DL")
    path = str(tmp_path / "dl.rpro")
    reach.save(path)
    server, close = mode(reach, path, tmp_path)
    client = ReachClient(*server.address)
    try:
        assert client.query(0, 0) is True
        # The connection stays open and idle across the close.
        t0 = time.monotonic()
        close()
        took = time.monotonic() - t0
        assert server.wait(0), "close() returned before the server was done"
        assert took < 1.0, f"close() took {took:.2f}s with one idle connection"
        t0 = time.monotonic()
        close()  # a second close is a no-op
        assert time.monotonic() - t0 < 0.1
    finally:
        client.close()
        close()
