"""Command-line entry points.

``bench`` runs the two experiments::

    bench rt --modes internal,p2p,broker --count 500 --topology linear:5 --out dir/
    bench tp --modes internal,p2p --conns 1,2,4,8 --duration 15 --install direct --out dir/

Exit code 0 means all validity checks passed.

``flowplane-core`` hosts a simulated network plus the controller core with
its socket listeners, and ``flowplane-service`` runs a topology or forwarding
service standalone, connected to such a core over sockets.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from contextlib import ExitStack

from .bench import RtConfig, TpConfig, run_install_comparison, run_response_time, run_throughput
from .core import CoreConfig, DistMode
from .coreapi import CoreApiServer, RemoteCore
from .fabric import Fabric
from .interservice import TopoQueryClient, TopoQueryServer
from .rest import RestFlowClient
from .services import ForwardingService, FwdConfig, TopologyService
from .stack import (
    FWD_KINDS, TOPO_KINDS, _SubscriberLoop, attach_services, event_source, serve_events, start_core,
)
from .topology import parse_topology


def _parse_modes(text: str) -> tuple[DistMode, ...]:
    try:
        return tuple(DistMode(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_conns(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad connection list {text!r}") from None


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def bench_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description="response-time and throughput experiments"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    rt = sub.add_parser("rt", help="ping response time with empty flow tables")
    rt.add_argument("--modes", type=_parse_modes, default=_parse_modes("internal,p2p,broker"))
    rt.add_argument("--count", type=int, default=500)
    rt.add_argument("--warmup", type=int, default=10)
    rt.add_argument("--topology", default="linear:5")
    rt.add_argument("--ping-interval-ms", type=float, default=10.0)
    rt.add_argument("--ping-timeout-s", type=float, default=5.0)
    rt.add_argument("--payload-bytes", type=int, default=56)
    rt.add_argument("--link-latency-ms", type=float, default=0.0)
    rt.add_argument("--broker-poll-ms", type=float, default=1.0)
    rt.add_argument("--broker-batch", type=int, default=64)
    rt.add_argument("--out", default=None, help="directory for CSVs and event logs")

    tp = sub.add_parser("tp", help="stream goodput with reactive flow install")
    tp.add_argument("--modes", type=_parse_modes, default=_parse_modes("internal,p2p,broker"))
    tp.add_argument("--conns", type=_parse_conns, default=(1, 2, 4, 8))
    tp.add_argument("--duration", type=float, default=15.0)
    tp.add_argument("--install", choices=("direct", "rest", "both"), default="direct",
                    help="'both' alternates the channels on one network, paired")
    tp.add_argument("--topology", default="linear:5")
    tp.add_argument("--hard-timeout-s", type=int, default=10)
    tp.add_argument("--segment-bytes", type=int, default=1464)
    tp.add_argument("--broker-poll-ms", type=float, default=1.0)
    tp.add_argument("--broker-batch", type=int, default=64)
    tp.add_argument("--link-latency-ms", type=float, default=0.0)
    tp.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )

    if args.command == "rt":
        config = RtConfig(
            topology=args.topology,
            modes=args.modes,
            count=args.count,
            warmup=args.warmup,
            ping_interval=args.ping_interval_ms / 1000,
            ping_timeout=args.ping_timeout_s,
            payload_bytes=args.payload_bytes,
            link_latency=args.link_latency_ms / 1000,
            broker_poll_interval=args.broker_poll_ms / 1000,
            broker_batch=args.broker_batch,
        )
        result = run_response_time(config, out_dir=args.out)
    else:
        config = TpConfig(
            topology=args.topology,
            modes=args.modes,
            conns=args.conns,
            duration=args.duration,
            install=args.install if args.install != "both" else "direct",
            hard_timeout_s=args.hard_timeout_s,
            segment_bytes=args.segment_bytes,
            link_latency=args.link_latency_ms / 1000,
            broker_poll_interval=args.broker_poll_ms / 1000,
            broker_batch=args.broker_batch,
        )
        if args.install == "both":
            result = run_install_comparison(config, out_dir=args.out)
        else:
            result = run_throughput(config, out_dir=args.out)

    for line in result.summary_lines():
        print(line)
    return 0 if result.valid else 2


def _stop_on_signal() -> threading.Event:
    """An event set by SIGINT or SIGTERM; installed before anything starts,
    so a signal during start-up still ends in the teardown."""
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *a: stop.set())
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    return stop


def core_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowplane-core",
        description="host a simulated network plus the controller core with socket listeners",
    )
    parser.add_argument("--topology", default="linear:5")
    parser.add_argument("--mode", type=DistMode, default=DistMode.BROKER,
                        choices=list(DistMode))
    parser.add_argument("--rest-port", type=int, default=8181)
    parser.add_argument("--api-port", type=int, default=6653)
    parser.add_argument("--events-port", type=int, default=6654,
                        help="broker or p2p stream listener, per --mode")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    spec = parse_topology(args.topology)
    stop = _stop_on_signal()
    with ExitStack() as teardown:
        fabric = Fabric(spec)
        teardown.callback(fabric.stop)
        core_config = CoreConfig(mode=args.mode, rest_listen=(args.host, args.rest_port))
        core, backend = start_core(core_config, teardown)
        events = serve_events(args.mode, backend, args.host, args.events_port, teardown)
        if args.mode is DistMode.INTERNAL:
            topo = TopologyService(core)
            attach_services(core, backend, topo, ForwardingService(core, topo), teardown)
            teardown.callback(topo.stop)
            topo.start()
        api = CoreApiServer(core, args.host, args.api_port).start()
        teardown.callback(api.stop)
        core.adopt(fabric)
        fabric.start()

        print(f"core up: topology={args.topology} mode={args.mode.value}")
        print("  rest   http://%s:%d" % core.rest_address)
        print("  api    %s:%d" % api.address)
        if events is not None:
            print("  events %s:%d" % events.address)
        print(spec.dump(), flush=True)
        stop.wait()
    return 0


def service_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowplane-service",
        description="run a topology or forwarding service against a remote core",
    )
    parser.add_argument("service", choices=("topo", "fwd"))
    parser.add_argument("--mode", type=DistMode, default=DistMode.BROKER,
                        choices=[DistMode.BROKER, DistMode.P2P],
                        help="which event distribution backend to consume")
    parser.add_argument("--events", type=_host_port, required=True,
                        help="broker or p2p stream address, HOST:PORT")
    parser.add_argument("--core", type=_host_port, required=True,
                        help="core call-channel address, HOST:PORT")
    parser.add_argument("--rest", type=_host_port, default=None,
                        help="core REST address (needed for --install rest)")
    parser.add_argument("--topo", type=_host_port, default=None,
                        help="topology query address (required for fwd)")
    parser.add_argument("--query-port", type=int, default=6655,
                        help="port for the topo service's query listener")
    parser.add_argument("--install", choices=("direct", "rest", "none"), default="none")
    parser.add_argument("--hard-timeout-s", type=int, default=10)
    parser.add_argument("--poll-ms", type=float, default=1.0)
    parser.add_argument("--discovery-interval-s", type=float, default=1.0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    if args.service == "fwd" and args.topo is None:
        parser.error("fwd needs --topo HOST:PORT (the topology query address)")
    if args.install == "rest" and args.rest is None:
        parser.error("--install rest needs --rest HOST:PORT")

    stop = _stop_on_signal()
    with ExitStack() as teardown:
        core = RemoteCore(args.core)
        teardown.callback(core.close)
        if args.service == "topo":
            service = TopologyService(core, discovery_interval=args.discovery_interval_s)
            teardown.callback(service.stop)
            service.start()
            query_server = TopoQueryServer(service, args.host, args.query_port).start()
            teardown.callback(query_server.stop)
            print("topology queries on %s:%d" % query_server.address)
        else:
            topo = TopoQueryClient(args.topo)
            teardown.callback(topo.close)
            cfg = FwdConfig(
                install_rules=args.install != "none",
                hard_timeout_s=args.hard_timeout_s,
                install_channel=args.install if args.install != "none" else "direct",
            )
            rest_client = RestFlowClient(args.rest) if args.install == "rest" else None
            service = ForwardingService(core, topo, cfg, rest=rest_client)
        kinds = TOPO_KINDS if args.service == "topo" else FWD_KINDS
        source = event_source(args.mode, args.events, kinds, args.service, args.poll_ms / 1000)
        teardown.callback(_SubscriberLoop(source, service, f"{args.service}-loop").stop)
        host, port = args.events
        print(f"{args.service} service consuming {args.mode.value} events from {host}:{port}",
              flush=True)
        stop.wait()
    return 0


if __name__ == "__main__":
    sys.exit(bench_main())
