"""The numpy AES-CTR sweep and native ``aes_ctr`` against the scalar reference."""

import pytest

from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform_many
from repro.crypto.modes import aes_ctr, aes_ctr_scalar


def _keystream(key, nonce, block_count, initial_counter=0):
    """The sweep's keystream: the transform of ``block_count`` zero blocks."""
    return ctr_transform_many([key], [nonce], [bytes(16 * block_count)],
                              initial_counter=initial_counter)[0]


@pytest.mark.parametrize("key_size", [16, 24, 32])
@pytest.mark.parametrize("size", [1, 16, 17, 160, 4096, 10_000])
def test_matches_scalar_reference(key_size, size, rng):
    key, nonce = rng.bytes(key_size), rng.bytes(8)
    data = rng.bytes(size)
    expected = aes_ctr_scalar(key, nonce, data)
    assert aes_ctr(key, nonce, data) == expected
    if key_size == 16:  # the numpy sweep is AES-128 only
        assert ctr_transform_many([key], [nonce], [data]) == [expected]


def test_keystream_blocks_are_ecb_of_counter_blocks(rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    cipher = AES(key)
    stream = _keystream(key, nonce, 5, initial_counter=1000)
    for i in range(5):
        counter_block = nonce + (1000 + i).to_bytes(8, "big")
        assert stream[16 * i:16 * i + 16] == cipher.encrypt_block(counter_block)


def test_counter_crosses_32_bit_boundary(rng):
    """The 64-bit counter must not wrap at 2^32 (hi word increments)."""
    key, nonce = rng.bytes(16), rng.bytes(8)
    boundary = (1 << 32) - 2
    stream = _keystream(key, nonce, 4, initial_counter=boundary)
    cipher = AES(key)
    for i in range(4):
        counter_block = nonce + (boundary + i).to_bytes(8, "big")
        assert stream[16 * i:16 * i + 16] == cipher.encrypt_block(counter_block)
    assert aes_ctr(key, nonce, bytes(64), initial_counter=boundary) == stream


def test_empty_input():
    assert ctr_transform_many([b"\x00" * 16], [b"\x00" * 8], [b""]) == [b""]
    assert _keystream(b"\x00" * 16, b"\x00" * 8, 0) == b""


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _keystream(b"\x00" * 16, b"\x00" * 7, 1)
    with pytest.raises(ValueError):
        _keystream(b"\x00" * 16, b"\x00" * 8, 1, initial_counter=-1)


def test_transform_is_involution(rng):
    key, nonce = rng.bytes(16), rng.bytes(8)
    data = rng.bytes(1000)
    once = ctr_transform_many([key], [nonce], [data])
    assert ctr_transform_many([key], [nonce], once) == [data]
