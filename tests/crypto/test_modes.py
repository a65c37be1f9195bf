"""Cipher modes against NIST SP 800-38A vectors plus roundtrip behaviour."""

import pytest

from repro.crypto.aes import AES
from repro.crypto.modes import (BULK_MAX_BLOCKS, aes_ctr, aes_ctr_many,
                                aes_ctr_scalar, aes_ecb_decrypt,
                                aes_ecb_encrypt)

KEY128 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")


def test_sp800_38a_ecb_aes128_multiblock():
    expected = ("3ad77bb40d7a3660a89ecaf32466ef97"
                "f5d3d58503b9699de785895a96fdbaaf"
                "43b1cd7f598ece23881b00e3ed030688"
                "7b0c785e27e8ad3f8223207104725dd4")
    cipher = AES(KEY128)
    assert aes_ecb_encrypt(cipher, SP_PLAINTEXT).hex() == expected
    assert aes_ecb_decrypt(cipher, bytes.fromhex(expected)) == SP_PLAINTEXT


def test_ctr_keystream_matches_sp800_38a_structure():
    # SP 800-38A F.5.1 uses a 16-byte counter block f0f1..ff; our CTR
    # splits it as nonce=f0..f7, counter=f8..ff, so the first block of
    # keystream must match ECB(counter block).
    key = KEY128
    nonce = bytes.fromhex("f0f1f2f3f4f5f6f7")
    initial = int.from_bytes(bytes.fromhex("f8f9fafbfcfdfeff"), "big")
    plaintext = SP_PLAINTEXT[:16]
    expected_ct = bytes.fromhex("874d6191b620e3261bef6864990db6ce")
    assert aes_ctr(key, nonce, plaintext, initial_counter=initial) == expected_ct


def test_sp800_38a_f51_ctr_aes128_full_vector():
    """All four blocks of SP 800-38A F.5.1 (CTR-AES128.Encrypt)."""
    nonce = bytes.fromhex("f0f1f2f3f4f5f6f7")
    initial = int.from_bytes(bytes.fromhex("f8f9fafbfcfdfeff"), "big")
    expected = bytes.fromhex("874d6191b620e3261bef6864990db6ce"
                             "9806f66b7970fdff8617187bb9fffdff"
                             "5ae4df3edbd5d35e5b4f09020db03eab"
                             "1e031dda2fbe03d1792170a0f3009cee")
    assert aes_ctr(KEY128, nonce, SP_PLAINTEXT,
                   initial_counter=initial) == expected
    assert aes_ctr(KEY128, nonce, expected,
                   initial_counter=initial) == SP_PLAINTEXT
    assert aes_ctr_scalar(KEY128, nonce, SP_PLAINTEXT,
                          initial_counter=initial) == expected


@pytest.mark.parametrize("initial_counter", [0, 3])
@pytest.mark.parametrize("size", [
    16 * (BULK_MAX_BLOCKS - 1) - 1, 16 * (BULK_MAX_BLOCKS - 1),
    16 * BULK_MAX_BLOCKS + 1, 16 * (BULK_MAX_BLOCKS + 1)])
def test_ctr_matches_scalar_around_crossover(size, initial_counter, rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(size)
    assert aes_ctr(key, nonce, data, initial_counter=initial_counter) == \
        aes_ctr_scalar(key, nonce, data, initial_counter=initial_counter)


def test_ctr_counter_may_end_at_2_64_minus_1(rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(40)  # three blocks: counters 2^64-3 .. 2^64-1
    last = 2 ** 64 - 3
    assert aes_ctr(key, nonce, data, initial_counter=last) == \
        aes_ctr_scalar(key, nonce, data, initial_counter=last)
    assert aes_ctr(key, nonce, b"", initial_counter=2 ** 64) == b""


def test_ctr_rejects_counter_range_past_2_64(rng):
    """A counter run past 2^64 - 1 must fail, never wrap or carry.

    Wrapping to ``nonce || 0`` reuses keystream; carrying into the nonce
    collides with another nonce's stream.  Both engines refuse alike.
    """
    key, nonce = rng.bytes(16), rng.bytes(8)
    with pytest.raises(ValueError):
        aes_ctr(key, nonce, bytes(17), initial_counter=2 ** 64 - 1)
    with pytest.raises(ValueError):
        aes_ctr(key, nonce, bytes(1), initial_counter=2 ** 64)
    with pytest.raises(ValueError):
        aes_ctr(key, nonce, bytes(1), initial_counter=-1)
    with pytest.raises(ValueError):
        aes_ctr_many([key, key], [nonce, nonce], [bytes(48)] * 2,
                     initial_counter=2 ** 64 - 2)
    with pytest.raises(ValueError):
        aes_ctr_many([key] * 300, [nonce] * 300, [bytes(48)] * 300,
                     initial_counter=2 ** 64 - 2)


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 31, 32, 100, 4096, 5000])
def test_ctr_roundtrip_and_scalar_equivalence(size, rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(size)
    ciphertext = aes_ctr(key, nonce, data)
    assert len(ciphertext) == size
    assert aes_ctr(key, nonce, ciphertext) == data
    assert aes_ctr_scalar(key, nonce, data) == ciphertext


def test_ctr_rejects_bad_nonce():
    with pytest.raises(ValueError):
        aes_ctr(b"\x00" * 16, b"\x00" * 7, b"data")


def test_ecb_rejects_unaligned():
    cipher = AES(b"\x00" * 16)
    with pytest.raises(ValueError):
        aes_ecb_encrypt(cipher, b"\x00" * 17)
    with pytest.raises(ValueError):
        aes_ecb_decrypt(cipher, b"\x00" * 17)


def test_ctr_counter_progression(rng):
    """Splitting a message must equal encrypting it whole."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(80)
    whole = aes_ctr(key, nonce, data)
    first = aes_ctr(key, nonce, data[:32])
    rest = aes_ctr(key, nonce, data[32:], initial_counter=2)
    assert first + rest == whole
