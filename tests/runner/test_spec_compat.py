"""Hash compatibility for post-v1 spec fields.

Committed sweep hashes cover ``spec_hash``, and the repo benchmark's
record digests cover each record's ``spec`` block; adding fields to a
spec class must not reshuffle either.  The contract: post-v1 fields are
*omitted* from the hashed form while at their inactive defaults, so a
spec that does not use a new feature keeps the hash it had before the
feature existed.
"""

import dataclasses
import hashlib
import json

from repro.runner.spec import (
    _V1_SPEC_OPTIONAL,
    SPEC_SCHEMA_VERSION,
    CampaignTrialSpec,
    CorruptionTrialSpec,
    CrashTrialSpec,
    ExperimentSpec,
    FailSlowTrialSpec,
    LifecycleSpec,
    NemesisTrialSpec,
    OpenLoopSpec,
    Table1Spec,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)

#: Frozen hashes of feature-inactive specs.  These must never change:
#: a drift here moves committed sweep hashes and record digests.
PINNED_LIFECYCLE = (
    "04f082384cf33b88e8cdab83559969d7707b27d9ad267e2fd6c69df8d95d1f9a"
)
PINNED_CAMPAIGN = (
    "0f50cd50ec1b61f67812a4b059caf0842a5f8903ac4c2a4e37c5a7e12130d009"
)
PINNED_CRASH = (
    "bc5c1549a9da6d4ba1396cade0848dc779ba6438063f31c244075a1e79c381a0"
)
PINNED_NEMESIS = (
    "670adbb36eff6cf34da78061abd130225e497ddb5b84ad19c38cec2114c01e0f"
)
PINNED_OPENLOOP = (
    "75165b82d6671348fd321254280bfb7de1e00f55b559f71c4afbdd379fed60af"
)
PINNED_FAILSLOW = (
    "c051e0ac80debdaf417603a9d15586f2de932cc37bb2764ba9140386e3400b2c"
)
PINNED_CORRUPTION = (
    "241754da95cdcd7732a395e8a9d8b47dd30e0c8676b9d44511e6e87891ff19ef"
)


def lifecycle():
    return LifecycleSpec(layout="pddl", fault_time_ms=500.0)


def campaign():
    return CampaignTrialSpec(layout="pddl", trial=0, mttf_hours=1000.0)


class TestInactiveDefaultsKeepV1Hashes:
    def test_pinned_hashes(self):
        assert spec_hash(lifecycle()) == PINNED_LIFECYCLE
        assert spec_hash(campaign()) == PINNED_CAMPAIGN
        assert (
            spec_hash(CrashTrialSpec(layout="pddl", crash_boundary=150))
            == PINNED_CRASH
        )
        assert (
            spec_hash(NemesisTrialSpec(layout="pddl")) == PINNED_NEMESIS
        )

    def test_inactive_fields_are_omitted_from_the_hashed_form(self):
        assert "oracle" not in spec_to_dict(lifecycle())
        data = spec_to_dict(campaign())
        assert "oracle" not in data
        assert "transient_io_rate" not in data
        nemesis = spec_to_dict(NemesisTrialSpec(layout="pddl"))
        assert "transient_io_rate" not in nemesis
        assert "lse_per_gb" not in nemesis

    def test_explicit_defaults_hash_identically(self):
        assert spec_hash(
            LifecycleSpec(layout="pddl", fault_time_ms=500.0, oracle=False)
        ) == PINNED_LIFECYCLE
        assert spec_hash(
            CampaignTrialSpec(
                layout="pddl",
                trial=0,
                mttf_hours=1000.0,
                oracle=False,
                transient_io_rate=0.0,
            )
        ) == PINNED_CAMPAIGN
        assert spec_hash(
            NemesisTrialSpec(
                layout="pddl", transient_io_rate=0.0, lse_per_gb=0.0
            )
        ) == PINNED_NEMESIS

    def test_other_kinds_pins_unchanged_by_the_nemesis_kind(self):
        """Registering a new spec kind must not perturb existing hashes —
        the schema version and per-kind payloads are independent."""
        assert spec_hash(lifecycle()) == PINNED_LIFECYCLE
        assert spec_hash(campaign()) == PINNED_CAMPAIGN

    def test_openloop_pin(self):
        """The openloop kind hashes stably (it keys BENCH_traffic.json's
        result-cache entries) and leaves every other pin alone."""
        assert (
            spec_hash(OpenLoopSpec(layout="pddl", rate_per_s=450.0))
            == PINNED_OPENLOOP
        )
        assert spec_hash(lifecycle()) == PINNED_LIFECYCLE
        assert (
            spec_hash(NemesisTrialSpec(layout="pddl")) == PINNED_NEMESIS
        )

    def test_corruption_pin(self):
        """The corruption kind hashes stably (it keys
        BENCH_corruption.json's result-cache entries) and leaves every
        other pin alone."""
        assert (
            spec_hash(CorruptionTrialSpec(layout="pddl", defense="checksum"))
            == PINNED_CORRUPTION
        )
        assert spec_hash(lifecycle()) == PINNED_LIFECYCLE
        assert (
            spec_hash(NemesisTrialSpec(layout="pddl")) == PINNED_NEMESIS
        )

    def test_nemesis_corruption_knobs_omitted_when_inactive(self):
        """The corruption-burst fields ride the same post-v1 contract:
        a burst-free nemesis spec keeps its pre-corruption hash and
        dict form, so no cached nemesis sweep is invalidated."""
        data = spec_to_dict(NemesisTrialSpec(layout="pddl"))
        assert "max_corruption_bursts" not in data
        assert "corruption_rate" not in data
        assert "checksums" not in data
        assert spec_hash(
            NemesisTrialSpec(
                layout="pddl",
                max_corruption_bursts=0,
                corruption_rate=0.05,
                checksums=False,
            )
        ) == PINNED_NEMESIS
        assert spec_hash(
            NemesisTrialSpec(layout="pddl", max_corruption_bursts=1)
        ) != PINNED_NEMESIS
        assert spec_hash(
            NemesisTrialSpec(layout="pddl", checksums=True)
        ) != PINNED_NEMESIS

    def test_failslow_pin(self):
        """The failslow kind hashes stably (it keys
        BENCH_failslow.json's result-cache entries) and leaves every
        other pin alone."""
        assert (
            spec_hash(FailSlowTrialSpec(layout="pddl", defense="hedge"))
            == PINNED_FAILSLOW
        )
        assert spec_hash(lifecycle()) == PINNED_LIFECYCLE
        assert spec_hash(campaign()) == PINNED_CAMPAIGN
        assert (
            spec_hash(OpenLoopSpec(layout="pddl", rate_per_s=450.0))
            == PINNED_OPENLOOP
        )


class TestActiveFeaturesChangeTheHash:
    def test_oracle_on(self):
        assert spec_hash(
            LifecycleSpec(layout="pddl", fault_time_ms=500.0, oracle=True)
        ) != PINNED_LIFECYCLE
        assert spec_hash(
            CampaignTrialSpec(
                layout="pddl", trial=0, mttf_hours=1000.0, oracle=True
            )
        ) != PINNED_CAMPAIGN

    def test_transient_rate_on(self):
        assert spec_hash(
            CampaignTrialSpec(
                layout="pddl",
                trial=0,
                mttf_hours=1000.0,
                transient_io_rate=0.01,
            )
        ) != PINNED_CAMPAIGN

    def test_nemesis_optionals_on(self):
        assert spec_hash(
            NemesisTrialSpec(layout="pddl", transient_io_rate=0.01)
        ) != PINNED_NEMESIS
        assert spec_hash(
            NemesisTrialSpec(layout="pddl", lse_per_gb=5000.0)
        ) != PINNED_NEMESIS

    def test_nemesis_envelope_fields_matter(self):
        base = NemesisTrialSpec(layout="pddl")
        assert spec_hash(
            NemesisTrialSpec(layout="pddl", max_crashes=1)
        ) != spec_hash(base)
        assert spec_hash(
            NemesisTrialSpec(layout="pddl", trial=1)
        ) != spec_hash(base)

    def test_crash_spec_fields_matter(self):
        base = CrashTrialSpec(layout="pddl", crash_boundary=150)
        assert spec_hash(
            CrashTrialSpec(layout="pddl", crash_boundary=150, journal=False)
        ) != spec_hash(base)
        assert spec_hash(
            CrashTrialSpec(
                layout="pddl", crash_boundary=150, journal_latency_ms=5.0
            )
        ) != spec_hash(base)


class TestRoundTrip:
    def test_active_specs_survive_dict_round_trip(self):
        for spec in (
            LifecycleSpec(layout="pddl", fault_time_ms=500.0, oracle=True),
            CampaignTrialSpec(
                layout="pddl",
                trial=3,
                mttf_hours=1000.0,
                oracle=True,
                transient_io_rate=0.02,
            ),
            CrashTrialSpec(layout="prime", crash_boundary=60, clients=8),
            NemesisTrialSpec(
                layout="prime", trial=9, lse_per_gb=2000.0, max_storms=2
            ),
            OpenLoopSpec(
                layout="prime",
                rate_per_s=550.0,
                arrival="mmpp",
                phase="rebuild",
                timelines=True,
            ),
            CorruptionTrialSpec(
                layout="raid5",
                defense="audit",
                trial=7,
                lost_rate=0.05,
                fail_at_ms=9000.0,
            ),
            NemesisTrialSpec(
                layout="pddl",
                trial=2,
                max_corruption_bursts=2,
                corruption_rate=0.1,
                checksums=True,
            ),
        ):
            clone = spec_from_dict(spec_to_dict(spec))
            assert clone == spec
            assert spec_hash(clone) == spec_hash(spec)


def _asdict_form(spec):
    """``spec_to_dict`` as it was built with ``dataclasses.asdict``."""
    data = dataclasses.asdict(spec)
    for name, default in _V1_SPEC_OPTIONAL.get(spec.kind, {}).items():
        if data[name] == default:
            del data[name]
    data["kind"] = spec.kind
    return data


class TestShallowDict:
    """``spec_to_dict`` walks the fields without ``asdict``'s deep copy;
    the dict and the hash must be what the deep copy gave."""

    SPECS = (
        ExperimentSpec(
            layout="datum", size_kb=48, is_write=True, clients=4,
            mode="f1", failed_disk=3, seed=7, max_samples=80, warmup=10,
        ),
        Table1Spec(k=5, g=4, seed=2, restarts=20, max_steps=2000),
        LifecycleSpec(
            layout="parity-declustering", clients=2, fault_time_ms=200.0,
            rebuild_rows=26, oracle=True,
        ),
        CampaignTrialSpec(
            layout="pddl", trial=68, seed=14, mttf_hours=0.03,
            degraded_dwell_ms=4000.0, rebuild_rows=26,
        ),
        CampaignTrialSpec(
            layout="pddl", trial=1, seed=3, transient_io_rate=0.3,
            oracle=True, scrub_interval_ms=50.0,
        ),
        CrashTrialSpec(
            layout="pddl", clients=2, journal=False, crash_boundary=30,
            fail_disk_at_ms=5.0,
        ),
        NemesisTrialSpec(layout="prime", trial=9, max_storms=2),
        NemesisTrialSpec(
            layout="pddl", trial=2, checksums=True, max_failslow=1,
            max_corruption_bursts=1,
        ),
        OpenLoopSpec(
            layout="prime", rate_per_s=550.0, arrival="mmpp",
            phase="rebuild", timelines=True,
        ),
        FailSlowTrialSpec(layout="pddl", defense="hedge", arrivals=300),
        CorruptionTrialSpec(
            layout="raid5", defense="audit", trial=7, fail_at_ms=9000.0
        ),
    )

    def test_every_kind_is_covered(self):
        from repro.runner.spec import _SPEC_TYPES

        assert {spec.kind for spec in self.SPECS} == set(_SPEC_TYPES)

    def test_dict_and_hash_match_the_deep_copy(self):
        for spec in self.SPECS:
            expected = _asdict_form(spec)
            assert spec_to_dict(spec) == expected
            payload = {"schema": SPEC_SCHEMA_VERSION, **expected}
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            assert spec_hash(spec) == hashlib.sha256(
                canonical.encode("utf-8")
            ).hexdigest()
