"""Shared fixtures for the test suite.

Crypto-heavy tests default to the toy 64-bit Schnorr group: the algebra is
identical to the production groups and unit tests are about correctness,
not parameter sizes. Group-size fidelity is covered by the dedicated
`test_crypto_*` modules, which exercise the 256-bit group and the NIST
curves directly.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.api.registry import get_engine
from repro.core.config import DStressConfig
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.finance.network import Bank, FinancialNetwork
from repro.mpc.fixedpoint import FixedPointFormat

# Hypothesis budgets: the per-push default keeps tier-1 fast; the nightly
# workflow selects the deep profile with ``--hypothesis-profile=nightly``
# (10x the example budget, no deadline — crypto strategies can be slow
# per example without being wrong).
_BASE_EXAMPLES = 100
settings.register_profile("default", max_examples=_BASE_EXAMPLES)
settings.register_profile("nightly", max_examples=10 * _BASE_EXAMPLES, deadline=None)
settings.load_profile("default")


def scale(max_examples: int) -> int:
    """A test's example budget under the active hypothesis profile.

    Property tests pin per-test budgets tuned to their example cost
    (crypto tests run few expensive examples, fixed-point tests many cheap
    ones). An explicit ``max_examples`` would silently override the
    profile, so pins go through this helper: it preserves the tuned
    *ratios* while letting ``--hypothesis-profile=nightly`` scale every
    budget up together. Evaluated at decoration time — after the pytest
    plugin has loaded the CLI-selected profile, since conftest import
    precedes test module import.
    """
    return max(1, int(max_examples * settings.default.max_examples / _BASE_EXAMPLES))


def execute(engine, program, graph, iterations, config=None, accountant=None, **options):
    """One lifecycle run of ``program`` on a bare ``graph`` through the
    registry engine ``engine`` (constructed with ``options``); the config
    defaults to the program's fixed-point format."""
    if config is None:
        config = DStressConfig(fmt=program.fmt)
    return get_engine(engine, **options).execute(
        program, graph, iterations, config, accountant=accountant
    )


@pytest.fixture
def rng() -> DeterministicRNG:
    return DeterministicRNG("test-seed")


@pytest.fixture
def toy_elgamal() -> ExponentialElGamal:
    return ExponentialElGamal(TOY_GROUP_64, dlog_half_width=512)


@pytest.fixture
def fmt() -> FixedPointFormat:
    return FixedPointFormat(16, 8)


@pytest.fixture
def small_en_network() -> FinancialNetwork:
    """4-bank chain with a cascading default (bank 0 under-reserved)."""
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)
    return net


@pytest.fixture
def small_egj_network() -> FinancialNetwork:
    """3-bank cross-holding ring with one weak bank."""
    net = FinancialNetwork()
    net.add_bank(Bank(0, base_assets=1.0, orig_value=10.0, threshold=5.0, penalty=2.0))
    net.add_bank(Bank(1, base_assets=6.0, orig_value=10.0, threshold=5.0, penalty=2.0))
    net.add_bank(Bank(2, base_assets=8.0, orig_value=12.0, threshold=6.0, penalty=3.0))
    net.add_holding(1, 0, 0.4)
    net.add_holding(2, 1, 0.3)
    net.add_holding(0, 2, 0.5)
    return net
