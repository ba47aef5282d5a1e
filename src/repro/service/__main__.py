"""``python -m repro.service`` — run a stress-test service.

Prints ``LISTENING <port>`` on stdout once bound (port 0 picks a free
port), so harnesses can scrape the actual endpoint; exits cleanly on a
``shutdown`` op or SIGINT.

Example::

    # a stress-test service with a fresh ln(2) budget and an in-memory
    # release cache
    python -m repro.service --port 7117
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
from repro.service.server import StressTestService


def _build_cache(args: argparse.Namespace) -> Optional[ScenarioCacheBase]:
    if args.cache_dir:
        return PersistentScenarioCache(args.cache_dir)
    if args.no_cache:
        return None
    return ScenarioCache()


def _build_service(args: argparse.Namespace) -> StressTestService:
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


async def _serve(server: StressTestService) -> int:
    port = await server.start()
    print(f"LISTENING {port}", flush=True)
    await server.serve_until_closed()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a DStress stress-test service.",
        # no prefixes: "--cache tcp://…" must not pass for "--cache-dir"
        allow_abbrev=False,
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
    caching = parser.add_mutually_exclusive_group()
    caching.add_argument(
        "--cache-dir",
        default=None,
        help="back releases with a PersistentScenarioCache at this directory",
    )
    caching.add_argument(
        "--no-cache",
        action="store_true",
        help="run the service without any release cache",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_serve(_build_service(args)))
    except KeyboardInterrupt:
        with contextlib.suppress(Exception):
            print("interrupted, shutting down", file=sys.stderr)
        return 0


if __name__ == "__main__":
    sys.exit(main())
