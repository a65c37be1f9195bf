"""The SHA-256 chain hash ``H`` against FIPS 180 vectors and hashlib.

``SHA256_PARAMS.chain_hash`` drives the hash-choice ablation; these cases
pin that it is FIPS SHA-256 and that its incremental API behaves as
:class:`repro.core.ciphertext.ItemCodec` uses it.
"""

import hashlib

import pytest

from repro.core.modulated_chain import ChainEngine
from repro.core.params import SHA256_PARAMS

Sha256 = SHA256_PARAMS.chain_hash


def sha256(message):
    return ChainEngine(Sha256).h(message)


VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"a" * 1_000_000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]


@pytest.mark.parametrize("message,expected", VECTORS,
                         ids=[f"vector-{i}" for i in range(len(VECTORS))])
def test_official_vectors(message, expected):
    assert sha256(message).hex() == expected


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 128, 1000])
def test_matches_hashlib_at_padding_boundaries(length):
    message = bytes(range(256)) * (length // 256 + 1)
    message = message[:length]
    assert sha256(message) == hashlib.sha256(message).digest()


def test_incremental_equals_one_shot():
    hasher = Sha256()
    for chunk in (b"ab", b"cdbcdecdefdefgefghfghighijhijkijk", b"ljklmklmnlmnomnopnopq"):
        hasher.update(chunk)
    assert hasher.hexdigest() == VECTORS[2][1]


def test_copy_is_independent():
    hasher = Sha256(b"abc")
    clone = hasher.copy()
    hasher.update(b"X")
    assert clone.digest() == hashlib.sha256(b"abc").digest()
    assert hasher.digest() == hashlib.sha256(b"abcX").digest()


def test_update_rejects_text():
    with pytest.raises(TypeError):
        Sha256().update("abc")


def test_constants():
    assert Sha256().digest_size == 32
    assert Sha256().block_size == 64
    assert SHA256_PARAMS.modulator_size == 32
    assert len(sha256(b"x")) == 32
