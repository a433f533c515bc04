"""Key generation, validation, the keyspace formula, and serialization."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, strategies as st

import oracles
from rosslercrypt import (
    FormatError,
    KeygenExhausted,
    KeyValidationReport,
    RosslerKey,
    build_codebook,
    deserialize_key,
    generate_key,
    keys,
    keyspace_bits,
    serialize_key,
    validate_key,
)

# 61 bytes: magic, version, a, b, c, y0, z0, h as big-endian binary64, N as
# big-endian u64, assembled by hand from the IEEE-754 encodings.
REFERENCE_KEY_HEX = (
    "524b455901"
    "3fc999999999999a"
    "3fc999999999999a"
    "4016cccccccccccd"
    "3f1a36e2eb1c432d"
    "3f1a36e2eb1c432d"
    "3fb999999999999a"
    "00000000000001f4"
)


def field_bits(value: float) -> str:
    return struct.pack(">d", value).hex()


class TestKeyspaceBits:
    @pytest.mark.parametrize("n, expected", [(16, 112), (1, 7), (64, 448)])
    def test_examples(self, n, expected):
        assert keyspace_bits(n) == expected

    @given(st.integers(min_value=1, max_value=10_000))
    def test_linearity(self, n):
        assert keyspace_bits(n) == n * keyspace_bits(1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            keyspace_bits(0)


class TestGenerateKey:
    def test_seed_zero_golden_values(self):
        key = generate_key(0)
        assert field_bits(key.a) == "3fd1b4d53612f4b1"
        assert field_bits(key.b) == "3fc7d8dca4435f57"
        assert field_bits(key.c) == "401051345d26006f"
        assert field_bits(key.y0) == "3fee22ee2a1c9320"
        assert field_bits(key.z0) == "bfe9319da56b95e3"
        assert key.h == 0.1
        assert key.n_steps == 394

    def test_seed_zero_matches_reference_prng(self):
        key = generate_key(0)
        a, b, c, y0, z0, h, n = oracles.candidate_key_fields(0)
        assert (key.a, key.b, key.c, key.y0, key.z0, key.h, key.n_steps) == (
            a,
            b,
            c,
            y0,
            z0,
            h,
            n,
        )

    def test_same_seed_same_key(self):
        assert generate_key(123456789) == generate_key(123456789)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
    def test_generated_keys_validate(self, seed):
        report = validate_key(generate_key(seed))
        assert report == KeyValidationReport(True)

    @pytest.mark.parametrize("seed", range(0, 40, 8))
    def test_component_ranges(self, seed):
        key = generate_key(seed)
        assert 0.1 <= key.a < 0.3
        assert 0.1 <= key.b < 0.3
        assert 4.0 <= key.c < 7.0
        assert -1.0 <= key.y0 < 1.0
        assert -1.0 <= key.z0 < 1.0
        assert key.h == 0.1
        assert 100 <= key.n_steps <= 1000

    def test_exhaustion_after_1000_invalid_candidates(self, monkeypatch):
        attempts = []

        def always_invalid(key, **kwargs):
            attempts.append(key)
            return KeyValidationReport(False, "out_of_range")

        monkeypatch.setattr(keys, "validate_key", always_invalid)
        with pytest.raises(KeygenExhausted):
            generate_key(42)
        assert len(attempts) == 1000


class TestValidateKey:
    def test_reference_configuration_is_valid(self, reference_key):
        assert validate_key(reference_key) == KeyValidationReport(True)

    def test_huge_step_size_reports_divergent(self, reference_key):
        bad = RosslerKey(0.2, 0.2, 5.7, 0.0001, 0.0001, 10.0, 500)
        report = validate_key(bad)
        assert not report.valid
        assert report.reason == "divergent"
        byte, step = report.detail
        oracle_steps = [
            oracles.rossler_first_bad_step(
                0.2, 0.2, 5.7, oracles.byte_x0(b), 0.0001, 0.0001, 10.0, 500
            )
            for b in range(256)
        ]
        assert byte == next(i for i, s in enumerate(oracle_steps) if s > 0)
        assert step == oracle_steps[byte]

    @pytest.mark.parametrize(
        "key",
        [
            RosslerKey(0.2, 0.2, 5.7, 0.0001, 0.0001, 0.1, 0),
            RosslerKey(0.2, 0.2, 5.7, 0.0001, 0.0001, 0.0, 500),
            RosslerKey(0.2, 0.2, 5.7, 0.0001, 0.0001, -0.1, 500),
        ],
    )
    def test_out_of_range(self, key):
        assert validate_key(key) == KeyValidationReport(False, "out_of_range")

    @pytest.mark.parametrize("field", ["a", "b", "c", "y0", "z0", "h"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_parameter(self, field, bad, reference_key):
        key = RosslerKey(**{**reference_key.__dict__, field: bad})
        assert validate_key(key) == KeyValidationReport(False, "nonfinite_parameter")

    def test_collision_reported_with_both_bytes(self, reference_key, monkeypatch):
        from rosslercrypt import cipher

        entries = build_codebook(reference_key).entries.copy()
        entries[200] = entries[3]

        monkeypatch.setattr(
            keys, "build_codebook", lambda key, **kw: cipher.Codebook(entries)
        )
        report = validate_key(reference_key)
        assert not report.valid
        assert report.reason == "collision"
        assert report.detail == (3, 200)

        # With two collision groups, the lowest repeating byte is reported.
        entries[50] = entries[10]
        assert validate_key(reference_key).detail == (10, 50)

    def test_signed_zeros_are_not_a_collision(self, reference_key, monkeypatch):
        from rosslercrypt import cipher

        entries = build_codebook(reference_key).entries.copy()
        entries[3] = 0.0
        entries[200] = -0.0

        monkeypatch.setattr(
            keys, "build_codebook", lambda key, **kw: cipher.Codebook(entries)
        )
        assert validate_key(reference_key) == KeyValidationReport(True)

    def test_valid_key_implies_usable_codebook(self):
        # Restated postcondition, sampled over generated keys.
        import numpy as np

        for seed in (11, 222, 3333):
            key = generate_key(seed)
            entries = build_codebook(key).entries
            assert np.isfinite(entries).all()
            assert len({struct.pack(">d", v) for v in entries}) == 256


class TestSerialization:
    def test_reference_key_golden_bytes(self, reference_key):
        assert serialize_key(reference_key).hex() == REFERENCE_KEY_HEX

    def test_golden_bytes_deserialize_to_reference_key(self, reference_key):
        assert deserialize_key(bytes.fromhex(REFERENCE_KEY_HEX)) == reference_key

    def test_round_trip_examples(self, reference_key):
        for key in (reference_key, generate_key(5), generate_key(99)):
            assert deserialize_key(serialize_key(key)) == key

    @given(
        a=st.floats(allow_nan=False, allow_infinity=False),
        b=st.floats(allow_nan=False, allow_infinity=False),
        c=st.floats(allow_nan=False, allow_infinity=False),
        y0=st.floats(allow_nan=False, allow_infinity=False),
        z0=st.floats(allow_nan=False, allow_infinity=False),
        h=st.floats(
            min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False
        ),
        n_steps=st.integers(min_value=1, max_value=keys.MAX_STEPS),
    )
    def test_round_trip_is_identity_on_full_range(self, a, b, c, y0, z0, h, n_steps):
        key = RosslerKey(a, b, c, y0, z0, h, n_steps)
        restored = deserialize_key(serialize_key(key))
        assert serialize_key(restored) == serialize_key(key)

    def test_round_trip_negative_zero_and_subnormal(self):
        key = RosslerKey(0.2, 0.2, 5.7, -0.0, 5e-324, 0.1, 500)
        restored = deserialize_key(serialize_key(key))
        assert field_bits(restored.y0) == field_bits(-0.0)
        assert field_bits(restored.z0) == field_bits(5e-324)

    def test_wrong_length_rejected(self):
        with pytest.raises(FormatError):
            deserialize_key(bytes.fromhex(REFERENCE_KEY_HEX)[:60])
        with pytest.raises(FormatError):
            deserialize_key(bytes.fromhex(REFERENCE_KEY_HEX) + b"\x00")

    def test_wrong_magic_rejected(self):
        blob = bytearray(bytes.fromhex(REFERENCE_KEY_HEX))
        blob[0] = ord("X")
        with pytest.raises(FormatError):
            deserialize_key(bytes(blob))

    def test_wrong_version_rejected(self):
        blob = bytearray(bytes.fromhex(REFERENCE_KEY_HEX))
        blob[4] = 2
        with pytest.raises(FormatError):
            deserialize_key(bytes(blob))

    @pytest.mark.parametrize(
        "patch",
        [
            ("h", 0.0, "out_of_range"),
            ("h", -0.5, "out_of_range"),
            ("h", math.inf, "nonfinite_parameter"),
            ("a", math.nan, "nonfinite_parameter"),
            ("n_steps", 0, "out_of_range"),
            ("b", -math.inf, "nonfinite_parameter"),
            ("c", math.inf, "nonfinite_parameter"),
            ("y0", math.nan, "nonfinite_parameter"),
            ("z0", -math.inf, "nonfinite_parameter"),
            ("h", math.nan, "nonfinite_parameter"),
            ("n_steps", keys.MAX_STEPS + 1, "out_of_range"),
            ("n_steps", 2**64 - 1, "out_of_range"),
        ],
    )
    def test_invalid_decoded_fields_raise_value_error(self, patch, reference_key):
        # One usability rule behind all three callers: deserialize_key,
        # serialize_key and validate_key.
        field, bad, reason = patch
        values = dict(reference_key.__dict__)
        values[field] = bad
        assert validate_key(RosslerKey(**values)).reason == reason
        with pytest.raises(ValueError):
            serialize_key(RosslerKey(**values))
        blob = keys.KEY_MAGIC + struct.pack(
            ">B6dQ",
            keys.KEY_VERSION,
            values["a"],
            values["b"],
            values["c"],
            values["y0"],
            values["z0"],
            values["h"],
            values["n_steps"],
        )
        with pytest.raises(ValueError):
            deserialize_key(blob)

    def test_serialize_rejects_unusable_keys(self):
        with pytest.raises(ValueError):
            serialize_key(RosslerKey(math.nan, 0.2, 5.7, 0.0, 0.0, 0.1, 500))
        with pytest.raises(ValueError):
            serialize_key(RosslerKey(0.2, 0.2, 5.7, 0.0, 0.0, 0.1, 0))
