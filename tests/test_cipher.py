"""Byte mapping, codebooks, encryption round trips, and the wire format."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from rosslercrypt import (
    AmbiguousError,
    Ciphertext,
    Codebook,
    DivergenceError,
    FormatError,
    NoMatchError,
    RosslerKey,
    build_codebook,
    cipher,
    decrypt,
    deserialize_ciphertext,
    encrypt,
    generate_key,
    map_byte,
    serialize_ciphertext,
)

# RCT1 bytes for the two-byte message "AB" under the fixed test key; the
# endpoint values inside are cross-checked against the list oracle below.
AB_CIPHERTEXT_HEX = (
    "5243543101000000000000000240221af630c43389402248015277e93b"
)


class TestMapByte:
    @pytest.mark.parametrize(
        "byte, expected",
        [(65, 0.064453125), (0, 0.0009765625), (255, 0.25)],
    )
    def test_examples(self, byte, expected):
        assert map_byte(byte) == expected

    def test_injective_and_in_range(self):
        values = [map_byte(b) for b in range(256)]
        assert len(set(values)) == 256
        assert all(0 < v <= 0.25 for v in values)

    @pytest.mark.parametrize("bad", [-1, 256, 1000])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            map_byte(bad)


class TestCodebook:
    def test_entry_count(self, reference_key):
        assert build_codebook(reference_key).entries.shape == (256,)

    def test_entry_65_matches_independent_machine_run(self, reference_key):
        codebook = build_codebook(reference_key)
        expected = oracles.rossler_endpoint(
            0.2, 0.2, 5.7, 0.064453125, 0.0001, 0.0001, 0.1, 500
        )[0]
        assert codebook.entries[65] == expected

    def test_divergent_key_raises_with_byte_and_step(self):
        bad = RosslerKey(0.2, 0.2, 5.7, 0.0001, 0.0001, 10.0, 500)
        with pytest.raises(DivergenceError) as exc_info:
            build_codebook(bad)
        assert exc_info.value.entry is not None
        assert exc_info.value.step is not None

    def test_codebook_requires_256_entries(self):
        with pytest.raises(ValueError):
            Codebook(entries=np.zeros(8))


class TestEncrypt:
    def test_empty_plaintext(self, reference_key):
        ct = encrypt(b"", reference_key)
        assert len(ct) == 0

    def test_single_byte_equals_codebook_entry(self, reference_key):
        codebook = build_codebook(reference_key)
        ct = encrypt(b"\x41", reference_key)
        assert ct.values[0] == codebook.entries[65]

    def test_two_bytes_match_entries(self, reference_key):
        codebook = build_codebook(reference_key)
        ct = encrypt(b"AB", reference_key)
        assert ct.values.tolist() == [codebook.entries[65], codebook.entries[66]]

    def test_length_preserved(self, reference_key):
        message = bytes(range(256)) * 3
        assert len(encrypt(message, reference_key)) == len(message)

    def test_deterministic(self, reference_key):
        first = encrypt(b"determinism", reference_key)
        second = encrypt(b"determinism", reference_key)
        assert first.values.tobytes() == second.values.tobytes()


class TestDecrypt:
    def test_round_trip_fixed_messages(self, reference_key):
        for message in (b"", b"A", b"AB", bytes(range(256)), b"\x00" * 40):
            assert decrypt(encrypt(message, reference_key), reference_key) == message

    @given(message=st.binary(max_size=300))
    def test_round_trip_property(self, message, reference_key):
        assert decrypt(encrypt(message, reference_key), reference_key) == message

    def test_round_trip_generated_keys(self):
        for seed in (3, 1337, 424242):
            key = generate_key(seed)
            message = bytes((seed + i) % 256 for i in range(512))
            assert decrypt(encrypt(message, key), key) == message

    def test_wrong_key_raises_no_match(self):
        trials = 25
        for t in range(trials):
            key_a = generate_key(50_000 + 2 * t)
            key_b = generate_key(50_001 + 2 * t)
            assert key_a != key_b
            ct = encrypt(b"wrong key trial", key_a)
            with pytest.raises(NoMatchError):
                decrypt(ct, key_b)

    def test_no_match_reports_position(self, reference_key):
        ct = encrypt(b"abc", reference_key)
        tampered = Ciphertext(values=ct.values.copy())
        tampered.values[1] = 123.456
        with pytest.raises(NoMatchError) as exc_info:
            decrypt(tampered, reference_key)
        assert exc_info.value.position == 1

    def test_nonfinite_value_is_format_error(self, reference_key):
        ct = Ciphertext(values=np.array([np.nan]))
        with pytest.raises(FormatError):
            decrypt(ct, reference_key)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tolerance", [None, 1e-9])
    def test_nonfinite_value_refused_in_both_modes(
        self, entries, reference_key, tolerance, bad
    ):
        # The refusal must come before the lookup: Codebook.nearest_bytes
        # alone maps a NaN to some byte instead of refusing it.
        ct = Ciphertext(values=np.array([entries[7], bad]))
        with pytest.raises(FormatError, match="position 1$"):
            decrypt(ct, reference_key, tolerance=tolerance)

    def test_tolerant_mode_recovers_after_decimal_round_trip(self, reference_key):
        message = b"lossy channel"
        ct = encrypt(message, reference_key)
        lossy = Ciphertext(
            values=np.array([float(f"{v:.15g}") for v in ct.values])
        )
        assert decrypt(lossy, reference_key, tolerance=1e-9) == message

    def test_tolerant_mode_no_match_when_far(self, reference_key):
        ct = Ciphertext(values=np.array([1e6]))
        with pytest.raises(NoMatchError):
            decrypt(ct, reference_key, tolerance=1e-6)

    def test_tolerant_mode_ambiguous_when_entries_close(self, reference_key):
        codebook = build_codebook(reference_key)
        ordered = np.sort(codebook.entries)
        gaps = np.diff(ordered)
        i = int(np.argmin(gaps))
        midpoint = float(ordered[i] + gaps[i] / 2)
        ct = Ciphertext(values=np.array([midpoint]))
        with pytest.raises(AmbiguousError):
            decrypt(ct, reference_key, tolerance=2 * float(gaps[i]))
        # Every entry is within an infinite tolerance.
        with pytest.raises(AmbiguousError) as exc_info:
            decrypt(ct, reference_key, tolerance=np.inf)
        assert exc_info.value.position == 0
        with pytest.raises(AmbiguousError) as exc_info:
            codebook.nearest_bytes(ct.values, np.inf)
        assert exc_info.value.position == 0

    def test_tolerance_must_be_positive(self, reference_key):
        ct = encrypt(b"x", reference_key)
        with pytest.raises(ValueError):
            decrypt(ct, reference_key, tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
    def test_bad_tolerance_refused_before_codebook(
        self, reference_key, monkeypatch, tolerance
    ):
        ct = encrypt(b"x", reference_key)

        def no_codebook(key):
            raise AssertionError("codebook built for a refused call")

        monkeypatch.setattr(cipher, "build_codebook", no_codebook)
        with pytest.raises(ValueError, match="tolerance"):
            decrypt(ct, reference_key, tolerance=tolerance)

    def test_empty_ciphertext(self, reference_key):
        assert decrypt(Ciphertext(values=np.empty(0)), reference_key) == b""


def assert_decrypt_matches_oracle(values, entries, key):
    values = np.asarray(values, dtype=np.float64)
    expected = oracles.exact_decrypt(values.tolist(), entries.tolist())
    ct = Ciphertext(values=values)
    if isinstance(expected, int):
        with pytest.raises(NoMatchError) as exc_info:
            decrypt(ct, key)
        assert exc_info.value.position == expected
    else:
        assert decrypt(ct, key) == expected


@pytest.fixture()
def entries(reference_key, monkeypatch):
    # Build the codebook once and serve it to every decrypt call.
    codebook = build_codebook(reference_key)
    monkeypatch.setattr(cipher, "build_codebook", lambda key: codebook)
    return codebook.entries


class TestExactInverse:
    """Exact decrypt against the independent oracle, on hits and misses."""

    def test_round_trips(self, entries, reference_key):
        message = np.random.default_rng(1).integers(0, 256, 2000)
        for plain in (np.arange(256), message):
            assert_decrypt_matches_oracle(entries[plain], entries, reference_key)

    def test_one_ulp_neighbours(self, entries, reference_key):
        for direction in (-np.inf, np.inf):
            for b, neighbour in enumerate(np.nextafter(entries, direction)):
                values = entries.copy()
                values[b] = neighbour
                assert_decrypt_matches_oracle(values, entries, reference_key)

    @pytest.mark.parametrize("order", ["float", "bits"])
    def test_beyond_every_entry(self, entries, reference_key, order):
        if order == "float":
            low = np.nextafter(entries.min(), -np.inf)
            high = np.nextafter(entries.max(), np.inf)
        else:
            # Unsigned bit patterns: +0.0 is the lowest, -DBL_MAX the highest finite.
            low, high = 0.0, -np.finfo(np.float64).max
        for v in (low, high):
            assert_decrypt_matches_oracle([v], entries, reference_key)
            assert_decrypt_matches_oracle(np.append(entries, v), entries, reference_key)

    def test_miss_at_last_position(self, entries, reference_key):
        values = entries[np.arange(1000) % 256]
        values[-1] = 123.456
        assert_decrypt_matches_oracle(values, entries, reference_key)
        with pytest.raises(NoMatchError) as exc_info:
            decrypt(Ciphertext(values=values), reference_key)
        assert exc_info.value.position == 999

    def test_repeated_entries_decrypt_to_lowest_byte(self, reference_key, monkeypatch):
        # Only a key that validate_key rejects gives such a codebook.
        entries = build_codebook(reference_key).entries.copy()
        entries[[200, 250]] = entries[3]
        entries[60] = entries[10]
        entries[[5, 7]] = 0.0
        entries[6] = -0.0
        monkeypatch.setattr(cipher, "build_codebook", lambda key: Codebook(entries))
        values = np.append(entries, [0.0, -0.0])
        assert_decrypt_matches_oracle(values, entries, reference_key)
        shared = Ciphertext(values=entries[[250, 200, 60, 7, 6]])
        assert decrypt(shared, reference_key) == bytes([3, 3, 10, 5, 6])


def assert_tolerant_matches_oracle(values, entries, key, tolerance):
    values = np.asarray(values, dtype=np.float64)
    expected = oracles.tolerant_decrypt(values, entries, tolerance)
    ct = Ciphertext(values=values)
    if isinstance(expected, tuple):
        kind, position = expected
        error = {"no match": NoMatchError, "ambiguous": AmbiguousError}[kind]
        with pytest.raises((NoMatchError, AmbiguousError)) as exc_info:
            decrypt(ct, key, tolerance=tolerance)
        assert type(exc_info.value) is error
        assert exc_info.value.position == position
    else:
        assert decrypt(ct, key, tolerance=tolerance) == expected


def closest_pair(entries, rank=0):
    """The rank-th closest pair of neighbouring entries: (low, high, gap)."""
    ordered = np.sort(entries)
    i = int(np.argsort(np.diff(ordered), kind="stable")[rank])
    return ordered[i], ordered[i + 1], ordered[i + 1] - ordered[i]


class TestTolerantInverse:
    """Tolerant decrypt against the independent oracle's per-value scan."""

    def test_round_trips(self, entries, reference_key):
        half_gap = closest_pair(entries)[2] / 2
        message = np.random.default_rng(2).integers(0, 256, 2000)
        lossy = np.array([float(f"{v:.15g}") for v in entries[message]])
        for values in (entries, entries[message], lossy):
            for tol in (half_gap, 1e-9):
                assert_tolerant_matches_oracle(values, entries, reference_key, tol)

    def test_tolerance_boundaries(self, entries, reference_key):
        for tol in (closest_pair(entries)[2] / 2, 1e-9):
            for sign in (-1.0, 1.0):
                edge = entries + sign * tol
                outward = np.nextafter(edge, sign * np.inf)
                for values in (edge, np.nextafter(edge, 0.0), outward):
                    assert_tolerant_matches_oracle(values, entries, reference_key, tol)
                    for v in values:
                        assert_tolerant_matches_oracle([v], entries, reference_key, tol)

    def test_one_ulp_neighbours(self, entries, reference_key):
        # Within a generous tolerance every neighbour decrypts; within one
        # far below an ULP, none does.
        for direction in (-np.inf, np.inf):
            neighbours = np.nextafter(entries, direction)
            for tol in (1e-9, 1e-300):
                assert_tolerant_matches_oracle(neighbours, entries, reference_key, tol)
                for v in neighbours:
                    assert_tolerant_matches_oracle([v], entries, reference_key, tol)

    def test_beyond_every_entry(self, entries, reference_key):
        low, high = entries.min(), entries.max()
        for tol in (closest_pair(entries)[2] / 2, 1e-9, 1.0):
            for offset in (0.0, tol / 2, tol, 2 * tol):
                for v in (
                    np.nextafter(low - offset, -np.inf),
                    np.nextafter(high + offset, np.inf),
                    low - offset,
                    high + offset,
                ):
                    assert_tolerant_matches_oracle([v], entries, reference_key, tol)
                    assert_tolerant_matches_oracle(
                        np.append(entries, v), entries, reference_key, tol
                    )

    def test_ambiguous_pairs(self, entries, reference_key):
        for rank in range(5):
            low, high, gap = closest_pair(entries, rank)
            for v in (low, high, (low + high) / 2, low + gap / 4):
                for tol in (gap / 4, gap / 2, gap, 2 * gap, np.inf):
                    assert_tolerant_matches_oracle(
                        np.append(entries, v), entries, reference_key, tol
                    )

    def test_repeated_entries_are_ambiguous(self, reference_key, monkeypatch):
        entries = build_codebook(reference_key).entries.copy()
        entries[200] = entries[3]
        entries[5] = 0.0
        entries[6] = -0.0
        monkeypatch.setattr(cipher, "build_codebook", lambda key: Codebook(entries))
        for tol in (1e-300, 1e-9):
            assert_tolerant_matches_oracle(entries, entries, reference_key, tol)
            for v in entries[[3, 5, 6, 200]]:
                assert_tolerant_matches_oracle([v], entries, reference_key, tol)

    def test_miss_at_last_position(self, entries, reference_key):
        # Within 3/4 of the closest gap, every entry decrypts and the
        # midpoint of the closest pair is ambiguous.
        low, high, gap = closest_pair(entries)
        values = entries[np.arange(1000) % 256]
        for last in (123.456, (low + high) / 2):
            values[-1] = last
            assert_tolerant_matches_oracle(values, entries, reference_key, 0.75 * gap)
        with pytest.raises(AmbiguousError) as exc_info:
            decrypt(Ciphertext(values=values), reference_key, tolerance=0.75 * gap)
        assert exc_info.value.position == 999

    def test_first_failure_across_blocks(self, entries, reference_key, monkeypatch):
        monkeypatch.setattr(cipher, "_TOLERANT_BLOCK", 7)
        low, high, gap = closest_pair(entries)
        values = entries[np.arange(100) % 256]
        assert_tolerant_matches_oracle(values, entries, reference_key, 0.75 * gap)
        values[[56, 62]] = (low + high) / 2, 123.456
        with pytest.raises(AmbiguousError) as exc_info:
            decrypt(Ciphertext(values=values), reference_key, tolerance=0.75 * gap)
        assert exc_info.value.position == 56
        values[55] = -123.456
        assert_tolerant_matches_oracle(values, entries, reference_key, 0.75 * gap)

    def test_nearest_bytes_takes_nan_for_a_miss(self, entries):
        # Called directly, without decrypt's guard against non-finite values:
        # every distance to NaN is NaN, and a NaN distance is no match. An
        # infinite value is an infinite or NaN distance from every entry.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NoMatchError) as exc_info, np.errstate(invalid="ignore"):
                Codebook(entries).nearest_bytes(np.array([entries[7], bad]), 1e-9)
            assert exc_info.value.position == 1


class TestWireFormat:
    def test_golden_bytes_for_fixed_message(self, reference_key):
        ct = encrypt(b"AB", reference_key)
        assert serialize_ciphertext(ct).hex() == AB_CIPHERTEXT_HEX

    def test_golden_values_match_independent_oracle(self):
        ct = deserialize_ciphertext(bytes.fromhex(AB_CIPHERTEXT_HEX))
        for value, byte in zip(ct.values, b"AB"):
            expected = oracles.rossler_endpoint(
                0.2, 0.2, 5.7, oracles.byte_x0(byte), 0.0001, 0.0001, 0.1, 500
            )[0]
            assert value == expected

    def test_size_is_13_plus_8_per_byte(self, reference_key):
        for n in (0, 1, 7, 100):
            ct = encrypt(b"q" * n, reference_key)
            assert len(serialize_ciphertext(ct)) == 13 + 8 * n

    def test_round_trip_bit_exact(self, reference_key):
        ct = encrypt(bytes(range(256)), reference_key)
        restored = deserialize_ciphertext(serialize_ciphertext(ct))
        assert restored.values.tobytes() == ct.values.tobytes()

    def test_empty_round_trip(self):
        ct = Ciphertext(values=np.empty(0))
        restored = deserialize_ciphertext(serialize_ciphertext(ct))
        assert len(restored) == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob[:12],
            lambda blob: b"XXXX" + blob[4:],
            lambda blob: blob[:4] + b"\x02" + blob[5:],
            lambda blob: blob + b"\x00",
            lambda blob: blob[:-1],
        ],
    )
    def test_structural_errors(self, reference_key, mutate):
        blob = serialize_ciphertext(encrypt(b"AB", reference_key))
        with pytest.raises(FormatError):
            deserialize_ciphertext(mutate(blob))

    def test_nonfinite_payload_rejected(self):
        payload = struct.pack(">d", float("inf"))
        blob = b"RCT1" + struct.pack(">BQ", 1, 1) + payload
        with pytest.raises(FormatError):
            deserialize_ciphertext(blob)
