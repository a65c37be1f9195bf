"""The item codec {m || r, H(m || r)}_k."""

import hashlib

import pytest

from repro.core.ciphertext import ItemCodec
from repro.core.errors import IntegrityError
from repro.core.params import SHA256_PARAMS, Params
from repro.crypto.rng import DeterministicRandom


@pytest.fixture
def codec(params):
    return ItemCodec(params)


def test_roundtrip(codec, rng):
    key = rng.bytes(20)
    ciphertext = codec.encrypt(key, b"hello world", 42, rng.bytes(8))
    message, item_id = codec.decrypt(key, ciphertext)
    assert message == b"hello world"
    assert item_id == 42


@pytest.mark.parametrize("size", [0, 1, 100, 4096])
def test_sizes(codec, rng, size):
    key = rng.bytes(20)
    data = rng.bytes(size)
    ciphertext = codec.encrypt(key, data, 7, rng.bytes(8))
    assert len(ciphertext) == size + codec.overhead()
    assert codec.decrypt(key, ciphertext) == (data, 7)


def test_wrong_key_rejected(codec, rng):
    ciphertext = codec.encrypt(rng.bytes(20), b"secret", 1, rng.bytes(8))
    with pytest.raises(IntegrityError):
        codec.decrypt(rng.bytes(20), ciphertext)


def test_tampering_rejected(codec, rng):
    key = rng.bytes(20)
    ciphertext = bytearray(codec.encrypt(key, b"secret data", 1, rng.bytes(8)))
    for position in (0, 8, len(ciphertext) // 2, len(ciphertext) - 1):
        tampered = bytearray(ciphertext)
        tampered[position] ^= 0x01
        with pytest.raises(IntegrityError):
            codec.decrypt(key, bytes(tampered))


def test_flipped_tag_byte_rejected_on_both_paths(codec, rng):
    """One flipped bit in the encrypted tag fails the tag check, whether
    the item is decrypted alone or in a batch."""
    keys = [rng.bytes(20) for _ in range(3)]
    ciphertexts = codec.encrypt_many(keys, [b"one", b"two", b"three"],
                                     [1, 2, 3], [rng.bytes(8) for _ in keys])
    tampered = bytearray(ciphertexts[1])
    tampered[-1] ^= 0x01
    with pytest.raises(IntegrityError, match="decrypt-verification"):
        codec.decrypt(keys[1], bytes(tampered))
    batch = [ciphertexts[0], bytes(tampered), ciphertexts[2]]
    with pytest.raises(IntegrityError, match="decrypt-verification"):
        codec.decrypt_many(keys, batch)
    assert codec.decrypt_many(keys, ciphertexts) == [
        (b"one", 1), (b"two", 2), (b"three", 3)]


def test_item_id_is_bound_into_plaintext(codec, rng):
    """Swapping ciphertexts between items is detectable via r."""
    key = rng.bytes(20)
    ct1 = codec.encrypt(key, b"data", 1, rng.bytes(8))
    _msg, recovered = codec.decrypt(key, ct1)
    assert recovered == 1


def test_identical_messages_have_unique_ciphertexts(codec, rng):
    """The global counter r makes equal plaintexts distinct (Section IV-B)."""
    key = rng.bytes(20)
    nonce = rng.bytes(8)
    ct1 = codec.encrypt(key, b"same", 1, nonce)
    ct2 = codec.encrypt(key, b"same", 2, nonce)
    assert ct1 != ct2


def test_fresh_nonce_changes_ciphertext(codec, rng):
    key = rng.bytes(20)
    ct1 = codec.encrypt(key, b"same", 1, rng.bytes(8))
    ct2 = codec.encrypt(key, b"same", 1, rng.bytes(8))
    assert ct1 != ct2
    assert codec.decrypt(key, ct1) == codec.decrypt(key, ct2)


def test_truncated_ciphertext_rejected(codec, rng):
    key = rng.bytes(20)
    ciphertext = codec.encrypt(key, b"x", 1, rng.bytes(8))
    with pytest.raises(IntegrityError):
        codec.decrypt(key, ciphertext[:codec.overhead() - 1])


def test_bad_arguments(codec, rng):
    key = rng.bytes(20)
    with pytest.raises(ValueError):
        codec.encrypt(key, b"x", 1, b"short")
    with pytest.raises(ValueError):
        codec.encrypt(key, b"x", -1, rng.bytes(8))


def test_data_key_extraction(codec):
    assert codec.data_key(b"\x01" * 20) == b"\x01" * 16


def test_sha256_codec(rng):
    codec = ItemCodec(SHA256_PARAMS)
    key = rng.bytes(32)
    ciphertext = codec.encrypt(key, b"payload", 3, rng.bytes(8))
    assert codec.overhead() == 8 + 8 + 32
    assert codec.decrypt(key, ciphertext) == (b"payload", 3)


@pytest.mark.parametrize("count, size, digest", [
    # 512 items of 92-byte payloads: the numpy cross-item sweep.
    (512, 64,
     "5fb648f69e7f9243051627ab4fdc1ef1bbdc1b78929ee28937b36e971e65a4a9"),
    # 4 items of 1,052-byte payloads: per-item native AES.
    (4, 1024,
     "07fc7e46b1196850f4d373103f01e026ba960b022a3d3eaf5239e7055dad6e41"),
])
def test_golden_encrypt_many(count, size, digest):
    """Stored ciphertexts stay bit-identical whichever AES engine runs."""
    rng = DeterministicRandom(f"golden-codec-{count}x{size}")
    outputs = [rng.bytes(20) for _ in range(count)]
    messages = [rng.bytes(size) for _ in range(count)]
    nonces = [rng.bytes(8) for _ in range(count)]
    ciphertexts = ItemCodec(Params()).encrypt_many(
        outputs, messages, list(range(1, count + 1)), nonces)
    assert hashlib.sha256(b"".join(ciphertexts)).hexdigest() == digest
