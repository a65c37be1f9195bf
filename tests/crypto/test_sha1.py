"""The paper's chain hash ``H`` (SHA-1) against FIPS 180 vectors and hashlib.

``PAPER_PARAMS.chain_hash`` is the factory every chain step, item tag and
PRF block goes through; these cases pin that it is FIPS SHA-1 and that its
incremental API behaves as :class:`repro.core.ciphertext.ItemCodec` uses it.
"""

import hashlib

import pytest

from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS

Sha1 = PAPER_PARAMS.chain_hash


def sha1(message):
    return ChainEngine(Sha1).h(message)


# FIPS 180 / RFC 3174 test vectors.
VECTORS = [
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
    (b"The quick brown fox jumps over the lazy dog",
     "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"),
]


@pytest.mark.parametrize("message,expected", VECTORS,
                         ids=[f"vector-{i}" for i in range(len(VECTORS))])
def test_official_vectors(message, expected):
    assert sha1(message).hex() == expected


@pytest.mark.parametrize("length", [0, 1, 54, 55, 56, 57, 63, 64, 65, 127,
                                    128, 129, 1000])
def test_matches_hashlib_at_padding_boundaries(length):
    message = bytes(range(256)) * (length // 256 + 1)
    message = message[:length]
    assert sha1(message) == hashlib.sha1(message).digest()


def test_incremental_equals_one_shot():
    hasher = Sha1()
    hasher.update(b"The quick brown fox ")
    hasher.update(b"jumps over ")
    hasher.update(b"the lazy dog")
    assert hasher.hexdigest() == VECTORS[4][1]


def test_digest_does_not_consume_state():
    hasher = Sha1(b"abc")
    first = hasher.digest()
    assert hasher.digest() == first
    hasher.update(b"def")
    assert hasher.digest() == hashlib.sha1(b"abcdef").digest()


def test_copy_is_independent():
    hasher = Sha1(b"abc")
    clone = hasher.copy()
    hasher.update(b"X")
    assert clone.digest() == hashlib.sha1(b"abc").digest()
    assert hasher.digest() == hashlib.sha1(b"abcX").digest()


def test_update_accepts_bytearray_and_memoryview():
    hasher = Sha1()
    hasher.update(bytearray(b"ab"))
    hasher.update(memoryview(b"c"))
    assert hasher.hexdigest() == VECTORS[1][1]


def test_update_rejects_text():
    with pytest.raises(TypeError):
        Sha1().update("abc")


def test_constants():
    assert Sha1().digest_size == 20
    assert Sha1().block_size == 64
    assert Sha1().name == "sha1"
    assert PAPER_PARAMS.modulator_size == 20
    assert len(sha1(b"x")) == 20
