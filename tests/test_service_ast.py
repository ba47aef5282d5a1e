"""The scenario AST: whitelist validation, canonical form, notarization.

The service's trust boundary is this module: only documents that pass
the whitelist are ever built, and what is built is *exactly* what a
library caller would have built by hand — same fingerprint, same bits.
"""

import copy

import pytest

from repro.api import get_engine
from repro.api.cache import run_fingerprint
from repro.exceptions import ConfigurationError, ScenarioValidationError
from repro.service.scenario_ast import (
    AST_VERSION,
    MAX_BANKS,
    MAX_ITERATIONS,
    build_session,
    canonical_json,
    document_digest,
    notarize,
    validate_scenario,
)


def base_doc(**over):
    doc = {
        "version": AST_VERSION,
        "name": "ast-test",
        "network": {
            "generator": "core-periphery",
            "params": {"num_banks": 10, "core_size": 3},
            "seed": 7,
        },
        "shock": {"targets": [0, 1], "severity": 0.5},
        "program": "eisenberg-noe",
        "engine": {"name": "secure", "options": {"backend": "scalar"}},
        "preset": "demo",
        "epsilon": 0.23,
        "iterations": 2,
    }
    doc.update(over)
    return doc


class TestValidation:
    def test_valid_document_round_trips(self):
        validated = validate_scenario(base_doc())
        again = validate_scenario(validated.document())
        assert again.document() == validated.document()

    def test_engine_shorthand_string(self):
        validated = validate_scenario(base_doc(engine="plaintext"))
        assert validated.engine == "plaintext"
        assert validated.engine_options == {}

    def test_program_alias_resolves_to_canonical_name(self):
        a = validate_scenario(base_doc(program="eisenberg-noe"))
        b = validate_scenario(base_doc(program=a.program))
        assert a.program == b.program

    @pytest.mark.parametrize(
        "mutation",
        [
            {"version": 2},
            {"version": "1"},
            {"name": ""},
            {"name": 7},
            {"name": "x" * 300},
            {"bogus_key": 1},
            {"network": {"generator": "smallworld"}},
            {"network": {"generator": "random", "params": {"bogus": 1}}},
            {"network": {"generator": "random", "params": {"num_banks": True}}},
            {
                "network": {
                    "generator": "random",
                    "params": {"num_banks": MAX_BANKS + 1},
                }
            },
            {"network": {"generator": "core-periphery", "seed": "seven"}},
            {"shock": {"targets": [], "severity": 0.5}},
            {"shock": {"targets": [0, 0], "severity": 0.5}},
            {"shock": {"targets": [0], "severity": 1.5}},
            {"shock": {"targets": [99], "severity": 0.5}},
            {"program": 42},
            {"program": "no-such-program"},
            {"engine": {"name": "evil"}},
            {"engine": {"name": "secure", "options": {"backend": "quantum"}}},
            {"engine": {"name": "secure", "options": {"transport": "tcp"}}},
            {"engine": {"name": "async", "options": {"tasks": 0}}},
            {"engine": {"name": "async", "options": {"overlap": False}}},
            {"engine": {"name": "secure-async", "options": {"overlap": False}}},
            {"preset": "galactic"},
            {"overrides": {"fmt": "anything"}},
            {"overrides": {"output_epsilon": -1.0}},
            {"overrides": {"pad_transfers": 1}},
            {"overrides": {"wan_jitter": 1.0}},
            {"epsilon": float("nan")},
            {"epsilon": -0.1},
            {"iterations": 0},
            {"iterations": MAX_ITERATIONS + 1},
            {"iterations": 2.5},
            {"max_iterations": 0},
            {"seed": "abc"},
            {"degree_bound": 0},
            {"overrides": {"gmw_mode": "ot"}},
            {"overrides": {"gmw_mode": "beaver"}},
        ],
    )
    def test_rejections(self, mutation):
        doc = base_doc()
        doc.update(copy.deepcopy(mutation))
        with pytest.raises(ScenarioValidationError):
            validate_scenario(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(ScenarioValidationError):
            validate_scenario(["not", "an", "object"])

    def test_inconsistent_generator_params_rejected(self):
        # shape constraint enforced by the params dataclass itself
        doc = base_doc(
            network={
                "generator": "core-periphery",
                "params": {"num_banks": 4, "core_size": 9},
            }
        )
        with pytest.raises(ScenarioValidationError):
            validate_scenario(doc)


class TestCanonicalForm:
    def test_key_order_does_not_change_digest(self):
        doc = base_doc()
        shuffled = dict(reversed(list(doc.items())))
        assert document_digest(doc) == document_digest(shuffled)

    def test_defaults_made_explicit(self):
        # omitting a defaulted field and spelling it out canonicalize the
        # same way once validated
        a = validate_scenario(base_doc()).document()
        b = validate_scenario(base_doc(overrides={})).document()
        assert canonical_json(a) == canonical_json(b)

    def test_nan_is_not_canonical(self):
        with pytest.raises(ScenarioValidationError):
            canonical_json({"x": float("nan")})


class TestNotarization:
    def test_fingerprint_matches_hand_built_session(self):
        doc = base_doc()
        notarized = notarize(doc)
        validated = validate_scenario(doc)
        resolved = build_session(validated).resolve(
            validated.iterations, label=validated.name
        )
        assert notarized.fingerprint == run_fingerprint(resolved)

    def test_equivalent_documents_share_fingerprint(self):
        a = notarize(base_doc())
        b = notarize(dict(reversed(list(base_doc().items()))))
        assert a.fingerprint == b.fingerprint
        assert a.digest == b.digest

    def test_different_scenarios_differ(self):
        a = notarize(base_doc())
        b = notarize(base_doc(network={
            "generator": "core-periphery",
            "params": {"num_banks": 10, "core_size": 3},
            "seed": 8,
        }))
        assert a.fingerprint != b.fingerprint

    def test_releasing_engine_carries_epsilon(self):
        notarized = notarize(base_doc(epsilon=0.31))
        assert notarized.releases
        assert notarized.epsilon == pytest.approx(0.31)

    def test_plaintext_does_not_release(self):
        notarized = notarize(base_doc(engine="plaintext"))
        assert not notarized.releases
        assert notarized.epsilon == 0.0

    @pytest.mark.parametrize("name", ["evil", "sharded", "naive-mpc"])
    def test_malformed_document_never_resolves(self, name):
        with pytest.raises(ScenarioValidationError, match=f"got {name!r}"):
            notarize(base_doc(engine={"name": name}))

    def test_removed_engine_is_unknown_to_the_registry(self):
        with pytest.raises(ConfigurationError) as refused:
            get_engine("sharded")
        registered = str(refused.value).split("registered engines: ")[1]
        for name in ("async", "fixed", "plaintext", "secure", "secure-async"):
            assert name in registered.split(", ")
        assert "sharded" not in registered.split(", ")

    @pytest.mark.parametrize(
        "alias", ["shard", "partitioned", "naive-mpc", "naive", "monolithic"]
    )
    def test_removed_engine_aliases_are_unknown_to_the_registry(self, alias):
        with pytest.raises(ConfigurationError, match="registered engines: "):
            get_engine(alias)

    @pytest.mark.parametrize(
        "alias", ["shard", "partitioned", "naive-mpc", "naive", "monolithic"]
    )
    def test_removed_engine_aliases_never_resolve(self, alias):
        with pytest.raises(ScenarioValidationError, match=f"got {alias!r}"):
            notarize(base_doc(engine={"name": alias}))

    def test_notarized_run_is_bit_identical_to_direct_run(self):
        doc = base_doc()
        from repro.api.session import execute_resolved

        service_side = execute_resolved(notarize(doc).resolved)
        validated = validate_scenario(doc)
        direct = build_session(validated).run(iterations=validated.iterations)
        assert service_side.aggregate == direct.aggregate
        assert service_side.pre_noise_aggregate == direct.pre_noise_aggregate
        assert service_side.noise_raw == direct.noise_raw
        assert service_side.trajectory == direct.trajectory
