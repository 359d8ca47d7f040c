"""Crypto against standard vectors, the stdlib and golden stream outputs."""

import hashlib
import hmac as std_hmac
import json
import os

import pytest
from hypothesis import given, strategies as st

from repro.crypto.cost import stream_cost_ns
from repro.crypto.hmac import hkdf_like, hmac_sha256, verify_hmac_sha256
from repro.crypto.sha256 import Sha256, sha256
from repro.crypto.stream import stream_xor

# stream_xor outputs recorded from the original per-byte implementation:
# for each key/nonce pair, the SHA-256 of the ciphertext of
# golden_plaintext(n) at each length n, and the full 9-byte ciphertext.
with open(os.path.join(os.path.dirname(__file__), "stream_xor_golden.json")) as _f:
    STREAM_GOLDEN = json.load(_f)


def golden_plaintext(n: int) -> bytes:
    return bytes((i * 131 + 7) & 0xFF for i in range(n))


class TestSha256:
    # FIPS 180-4 test vectors.
    VECTORS = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ]

    @pytest.mark.parametrize("message,expected", VECTORS)
    def test_fips_vectors(self, message, expected):
        assert sha256(message).hex() == expected

    def test_million_a(self):
        h = Sha256()
        for _ in range(1000):
            h.update(b"a" * 1000)
        assert (
            h.hexdigest()
            == "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )

    @given(st.binary(max_size=2048))
    def test_matches_hashlib(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.lists(st.binary(max_size=200), max_size=10))
    def test_incremental_equals_oneshot(self, chunks):
        h = Sha256()
        for chunk in chunks:
            h.update(chunk)
        assert h.digest() == sha256(b"".join(chunks))

    def test_copy_is_independent(self):
        h = Sha256(b"pre")
        clone = h.copy()
        h.update(b"more")
        assert clone.digest() == sha256(b"pre")

    def test_digest_does_not_consume(self):
        h = Sha256(b"x")
        assert h.digest() == h.digest()

    def test_update_accepts_bytes_like(self):
        h = Sha256(bytearray(b"ab"))
        h.update(memoryview(b"cd")).update(bytearray(b"ef"))
        assert h.hexdigest() == hashlib.sha256(b"abcdef").hexdigest()


class TestHmac:
    def test_rfc4231_vector(self):
        key = b"\x0b" * 20
        assert (
            hmac_sha256(key, b"Hi There").hex()
            == "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )

    @given(st.binary(max_size=200), st.binary(max_size=500))
    def test_matches_stdlib(self, key, message):
        assert hmac_sha256(key, message) == std_hmac.new(
            key, message, hashlib.sha256
        ).digest()

    def test_verify_accepts_and_rejects(self):
        tag = hmac_sha256(b"k", b"m")
        assert verify_hmac_sha256(b"k", b"m", tag)
        assert not verify_hmac_sha256(b"k", b"m", tag[:-1] + b"\x00")
        assert not verify_hmac_sha256(b"k", b"m", tag[:-1])

    def test_hkdf_like_lengths_and_determinism(self):
        a = hkdf_like(b"key", b"label", 48)
        b = hkdf_like(b"key", b"label", 48)
        assert a == b and len(a) == 48
        assert hkdf_like(b"key", b"other", 48) != a
        assert hkdf_like(b"key", b"label", 16) == a[:16]


class TestStreamCipher:
    @given(st.binary(max_size=600), st.binary(min_size=1, max_size=32), st.binary(max_size=16))
    def test_self_inverse(self, data, key, nonce):
        assert stream_xor(key, nonce, stream_xor(key, nonce, data)) == data

    def test_key_and_nonce_matter(self):
        data = b"payload" * 10
        a = stream_xor(b"k1", b"n", data)
        assert a != stream_xor(b"k2", b"n", data)
        assert a != stream_xor(b"k1", b"m", data)
        assert a != data

    def test_cost_model(self):
        assert stream_cost_ns(1024) > stream_cost_ns(8) > 0

    @pytest.mark.parametrize(
        "row", STREAM_GOLDEN, ids=[f"{r['key'][:8]}/{r['nonce'][:8]}" for r in STREAM_GOLDEN]
    )
    def test_golden_outputs(self, row):
        key, nonce = bytes.fromhex(row["key"]), bytes.fromhex(row["nonce"])
        for length, digest in row["sha256"].items():
            out = stream_xor(key, nonce, golden_plaintext(int(length)))
            assert len(out) == int(length)
            assert hashlib.sha256(out).hexdigest() == digest, length
        assert stream_xor(key, nonce, golden_plaintext(9)).hex() == row["prefix_hex"]
