"""CLI surface tests: the bench entry point, and the core and a service as processes."""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest

from flowplane.cli import bench_main
from flowplane.interservice import TopoQueryClient
from flowplane.services import PathError
from flowplane.topology import parse_topology


class TestBenchCli:
    def test_rt_subcommand(self, tmp_path, capsys):
        code = bench_main(
            [
                "rt",
                "--modes",
                "internal",
                "--count",
                "3",
                "--warmup",
                "1",
                "--topology",
                "linear:2",
                "--ping-interval-ms",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rt internal" in out
        assert (tmp_path / "rt-summary.csv").exists()

    def test_tp_subcommand(self, tmp_path, capsys):
        code = bench_main(
            [
                "tp",
                "--modes",
                "internal",
                "--conns",
                "1",
                "--duration",
                "0.5",
                "--install",
                "direct",
                "--topology",
                "linear:2",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tp internal" in out
        assert (tmp_path / "tp-summary.csv").exists()

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["rt", "--modes", "quantum"])

    def test_unknown_install_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["tp", "--install", "telepathy"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            bench_main([])

    def test_rt_ordering_note_on_summary(self, capsys):
        code = bench_main(
            [
                "rt",
                "--modes",
                "internal,p2p",
                "--count",
                "4",
                "--warmup",
                "1",
                "--topology",
                "linear:2",
                "--ping-interval-ms",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rt ordering" in out
        assert "internal < p2p" in out


def _spawn(main: str, *args: str) -> tuple[subprocess.Popen, queue.Queue]:
    """Run a CLI entry point in a child process; its output lines go to a queue."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys; from flowplane.cli import {main}; sys.exit({main}())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args], stdout=subprocess.PIPE, text=True, env=env
    )
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        with proc.stdout:
            for line in proc.stdout:
                lines.put(line)

    threading.Thread(target=pump, daemon=True).start()
    return proc, lines


def _address(lines: queue.Queue, pattern: str) -> str:
    """The first HOST:PORT printed after ``pattern`` on an output line."""
    while True:
        line = lines.get(timeout=30)
        match = re.search(pattern + r"\s*(?:http://)?(\S+:\d+)", line)
        if match:
            return match.group(1)


def _bfs_path(spec, start: int, dpid: int, port: int) -> list[tuple[int, int]]:
    """(dpid, out_port) hops from switch ``start`` to port ``port`` of switch ``dpid``."""
    adjacent: dict[int, list[tuple[int, int]]] = {}
    for link in spec.links:
        adjacent.setdefault(link.a_dpid, []).append((link.b_dpid, link.a_port))
        adjacent.setdefault(link.b_dpid, []).append((link.a_dpid, link.b_port))
    previous = {start: None}  # switch -> (switch before it, port out of that one)
    todo = deque([start])
    while todo:
        here = todo.popleft()
        for nxt, out in sorted(adjacent.get(here, ())):
            if nxt not in previous:
                previous[nxt] = (here, out)
                todo.append(nxt)
    hops = [(dpid, port)]
    while previous[hops[0][0]] is not None:
        hops.insert(0, previous[hops[0][0]])
    return hops


class TestProcessCli:
    def test_core_and_topology_service_as_processes(self):
        """flowplane-core and flowplane-service on port 0: the addresses they
        print work, the service maps the network, and SIGTERM stops both."""
        spec = parse_topology("linear:3")
        h2 = spec.host_by_id("h2")
        core, core_out = _spawn(
            "core_main", "--topology", "linear:3", "--mode", "broker",
            "--rest-port", "0", "--api-port", "0", "--events-port", "0",
        )
        procs = [core]
        try:
            rest = _address(core_out, "rest")
            api = _address(core_out, "api")
            events = _address(core_out, "events")
            assert not rest.endswith(":0") and not api.endswith(":0")
            service, service_out = _spawn(
                "service_main", "topo", "--mode", "broker", "--events", events,
                "--core", api, "--query-port", "0", "--discovery-interval-s", "0.2",
            )
            procs.append(service)
            host, port = _address(service_out, "topology queries on").rsplit(":", 1)
            client = TopoQueryClient((host, int(port)))
            try:
                want = _bfs_path(spec, 1, h2.dpid, h2.port)
                deadline = time.monotonic() + 20
                while True:
                    client.learn_host(h2.mac, h2.dpid, h2.port)
                    try:
                        got = [(h.dpid, h.out_port) for h in client.path_from_switch(1, h2.mac)]
                    except PathError:
                        got = None
                    if got == want or time.monotonic() > deadline:
                        break
                    time.sleep(0.1)
                assert got == want
            finally:
                client.close()
            for proc in procs:
                proc.send_signal(signal.SIGTERM)
            assert [proc.wait(timeout=5) for proc in procs] == [0, 0]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
