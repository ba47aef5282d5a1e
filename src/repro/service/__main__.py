"""``python -m repro.service`` — run a service or cache-tier replica.

Prints ``LISTENING <port>`` on stdout once bound (port 0 picks a free
port), so harnesses can scrape the actual endpoint; exits cleanly on a
``shutdown`` op or SIGINT.

Examples::

    # a stress-test service with a fresh ln(2) budget and an in-memory
    # release cache
    python -m repro.service --port 7117

    # a fleet: one shared cache tier, two service replicas behind it
    python -m repro.service --role cache --cache-dir /tmp/releases &
    python -m repro.service --cache tcp://127.0.0.1:7200 &
    python -m repro.service --cache tcp://127.0.0.1:7200 &
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys
from typing import Optional

from repro.api.cache import ScenarioCache, ScenarioCacheBase
from repro.api.diskcache import PersistentScenarioCache
from repro.privacy.budget import PrivacyAccountant
from repro.service.cachetier import CacheTierServer, RemoteScenarioCache
from repro.service.lineserver import JsonLinesServer
from repro.service.server import StressTestService


def _build_cache(args: argparse.Namespace) -> Optional[ScenarioCacheBase]:
    if args.cache:
        return RemoteScenarioCache.from_endpoint(args.cache)
    if args.cache_dir:
        return PersistentScenarioCache(args.cache_dir)
    if args.no_cache:
        return None
    return ScenarioCache()


def _build_service(args: argparse.Namespace) -> JsonLinesServer:
    accountant = None
    if args.budget > 0:
        accountant = PrivacyAccountant(epsilon_max=args.budget)
    return StressTestService(
        args.host,
        args.port,
        accountant=accountant,
        cache=_build_cache(args),
        max_workers=args.workers,
    )


def _build_cachetier(args: argparse.Namespace) -> JsonLinesServer:
    backing = PersistentScenarioCache(args.cache_dir) if args.cache_dir else ScenarioCache()
    return CacheTierServer(backing, args.host, args.port)


async def _serve(server: JsonLinesServer) -> int:
    port = await server.start()
    print(f"LISTENING {port}", flush=True)
    await server.serve_until_closed()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a DStress stress-test service or cache-tier replica.",
    )
    parser.add_argument(
        "--role",
        choices=("service", "cache"),
        default="service",
        help="what to run: a scenario service (default) or a cache tier",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free port, announced on stdout)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=PrivacyAccountant().epsilon_max,
        help="privacy budget epsilon_max (default ln 2; 0 disables admission)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help=(
            "engine worker processes, forked before the port is bound: a resolved run goes "
            "out, its result comes back; budget, cache and gates stay here (default 2)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="back releases with a PersistentScenarioCache at this directory",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="tcp://HOST:PORT",
        help="use a remote cache tier instead of a local cache (service role)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run the service without any release cache",
    )
    args = parser.parse_args(argv)
    build = _build_cachetier if args.role == "cache" else _build_service
    try:
        return asyncio.run(_serve(build(args)))
    except KeyboardInterrupt:
        with contextlib.suppress(Exception):
            print("interrupted, shutting down", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main())
