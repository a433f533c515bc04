"""Weighted sums, the unit fold, and keyed digests."""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from rosslercrypt import (
    CANONICAL_PARAMS,
    Digest,
    FormatError,
    StateVector,
    compute_digest,
    digest as digest_mod,
    fold_to_unit,
    generate_key,
    run_machine,
    verify_digest,
    weighted_sum,
)

GAMMA = digest_mod.GOLDEN_RATIO_CONJUGATE


class TestWeightedSum:
    @pytest.mark.parametrize(
        "message, expected",
        [
            (b"", 0.0),
            (b"\x00", 0.0009765625),
            (b"AB", 0.1953125),  # (1*66 + 2*67) / 1024
        ],
    )
    def test_examples(self, message, expected):
        assert weighted_sum(message) == expected

    @given(st.binary(max_size=2048))
    def test_matches_reference_sum(self, message):
        expected = oracles.weighted_sum(message)
        assert weighted_sum(message) == expected
        # A small chunk puts a carry at every seventh byte.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(digest_mod, "_CHUNK", 7)
            assert weighted_sum(message) == expected

    @pytest.mark.parametrize("extra", [-1, 0, 1, digest_mod._CHUNK + 1])
    def test_matches_reference_sum_at_chunk_seams(self, extra):
        message = random.Random(extra).randbytes(digest_mod._CHUNK + extra)
        assert weighted_sum(message) == oracles.weighted_sum(message)

    def test_rounds_as_the_per_byte_loop_past_two_to_the_23(self):
        # 2^23 bytes of 0xFF push the partial sums past 2^43, where binary64
        # no longer holds every multiple of 1/1024, so the tail's additions
        # round. The constant is oracles.weighted_sum of this message.
        n = 2**23
        tail = random.Random(2023).randbytes(1024)
        message = b"\xff" * n + tail
        s = weighted_sum(message)
        assert s.hex() == "0x1.0007d83b28e03p+43"
        exact = 256 * n * (n + 1) // 2 + sum(
            (n + i) * (b + 1) for i, b in enumerate(tail, start=1)
        )
        assert Fraction(s) != Fraction(exact, 1024)

    @given(
        message=st.binary(min_size=1, max_size=512),
        position=st.integers(min_value=0, max_value=511),
        replacement=st.integers(min_value=0, max_value=255),
    )
    def test_substitution_changes_sum_exactly(self, message, position, replacement):
        position %= len(message)
        if message[position] == replacement:
            replacement = (replacement + 1) % 256
        edited = bytearray(message)
        edited[position] = replacement
        assert weighted_sum(message) != weighted_sum(bytes(edited))

    @given(
        message=st.binary(min_size=2, max_size=512),
        position=st.integers(min_value=0, max_value=510),
    )
    def test_adjacent_transposition_changes_sum_exactly(self, message, position):
        position %= len(message) - 1
        if message[position] == message[position + 1]:
            edited = bytearray(message)
            edited[position] = (edited[position] + 1) % 256
            message = bytes(edited)
        swapped = bytearray(message)
        swapped[position], swapped[position + 1] = (
            swapped[position + 1],
            swapped[position],
        )
        assert weighted_sum(message) != weighted_sum(bytes(swapped))


class TestFoldToUnit:
    def test_zero(self):
        assert fold_to_unit(0.0) == 0.0

    def test_one_gives_the_constant_itself(self):
        assert fold_to_unit(1.0) == GAMMA

    def test_constant_is_nearest_binary64_to_golden_conjugate(self):
        # sqrt is correctly rounded, the - 1 is exact (same exponent
        # range), and the / 2 is exact, so this equals the rounded value.
        assert GAMMA == (math.sqrt(5) - 1) / 2

    def test_weighted_sum_example(self):
        # One extended-precision multiply, rounded once to binary64.
        exact = Fraction(0.1953125) * Fraction(GAMMA)
        lo = float(exact)
        assert fold_to_unit(0.1953125) == lo - math.floor(lo)
        assert fold_to_unit(0.1953125) == 0.12070976342771385

    @given(
        st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False)
    )
    def test_result_in_unit_interval(self, s):
        out = fold_to_unit(s)
        assert 0.0 <= out < 1.0

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            fold_to_unit(bad)


class TestFoldResolution:
    """The fold keeps only the fraction bits that binary64 holds of s * g.

    A message of L bytes sums to about L^2 / 16, so long messages reach few
    starting states per key: about 2^17 at 1 MiB and 2^11 at 8 MiB.
    """

    @given(
        st.integers(
            min_value=math.ceil(2**45 / GAMMA), max_value=math.floor(2**55 / GAMMA)
        )
    )
    def test_fold_is_a_multiple_of_the_product_ulp(self, k):
        s = k / 1024  # a weighted sum, with s * g in [2^35, 2^45]
        assert (fold_to_unit(s) / math.ulp(s * GAMMA)).is_integer()

    def test_one_mebibyte_message_keeps_17_fraction_bits(self):
        s = weighted_sum(random.Random(7).randbytes(1 << 20))
        assert math.ulp(s * GAMMA) == 2.0**-17
        assert (fold_to_unit(s) * 2**17).is_integer()


class TestComputeDigest:
    def test_deterministic(self, reference_key):
        first = compute_digest(b"same message", reference_key)
        second = compute_digest(b"same message", reference_key)
        assert first.hex() == second.hex()

    def test_transposed_message_changes_digest(self, reference_key):
        assert weighted_sum(b"AB") == 0.1953125
        assert weighted_sum(b"BA") == 0.1943359375  # 199/1024
        a = compute_digest(b"AB", reference_key)
        b = compute_digest(b"BA", reference_key)
        assert a.hex() != b.hex()

    def test_empty_message_runs_machine_from_zero_x(self, reference_key):
        d = compute_digest(b"", reference_key)
        end = run_machine(
            CANONICAL_PARAMS, StateVector(0.0, 0.0001, 0.0001), 500, 0.1
        )
        assert d.value == end.x
        assert d.hex() == "3fffa4358cc966fe"

    def test_matches_independent_pipeline(self, reference_key):
        message = b"independent check"
        s = oracles.weighted_sum(message)
        u = s * GAMMA
        x0 = u - math.floor(u)
        expected = oracles.rossler_endpoint(0.2, 0.2, 5.7, x0, 0.0001, 0.0001, 0.1, 500)[0]
        assert compute_digest(message, reference_key).value == expected

    def test_collision_under_every_key(self, reference_key):
        # 1*11 + 2*21 == 1*13 + 2*20 == 53: equal sums, so equal digests
        # whatever the key.
        first, second = b"\x0a\x14", b"\x0c\x13"
        assert weighted_sum(first) == weighted_sum(second) == 53 / 1024
        for key in (reference_key, generate_key(42)):
            assert compute_digest(first, key).hex() == compute_digest(second, key).hex()


class TestVerifyDigest:
    def test_round_trip(self, reference_key):
        d = compute_digest(b"message of record", reference_key)
        assert verify_digest(b"message of record", reference_key, d)

    def test_flipped_bytes_fail(self, reference_key):
        import random

        rng = random.Random(31337)
        key = generate_key(8)
        for _ in range(20):
            message = bytes(rng.randrange(256) for _ in range(rng.randint(1, 48)))
            d = compute_digest(message, key)
            pos = rng.randrange(len(message))
            edited = bytearray(message)
            edited[pos] ^= 1 + rng.randrange(255)
            assert not verify_digest(bytes(edited), key, d)

    def test_nan_claim_never_matches(self, reference_key):
        assert not verify_digest(b"x", reference_key, Digest(math.nan))

    def test_negative_zero_claim_is_distinct_from_zero(self, reference_key):
        # Bit comparison, not float equality: -0.0 != +0.0 here.
        assert Digest(0.0).hex() != Digest(-0.0).hex()


class TestHexForm:
    def test_sixteen_lowercase_hex_digits(self, reference_key):
        text = compute_digest(b"abc", reference_key).hex()
        assert len(text) == 16
        assert text == text.lower()
        int(text, 16)

    @given(st.floats(allow_nan=False))
    def test_round_trip(self, value):
        assert Digest.from_hex(Digest(value).hex()).value == value

    @pytest.mark.parametrize(
        "bad",
        ["", "0" * 15, "0" * 17, "zz" + "0" * 14, "0 " + "0" * 14, " " * 16],
    )
    def test_malformed_hex_rejected(self, bad):
        with pytest.raises(FormatError):
            Digest.from_hex(bad)
