"""Block cipher modes of operation, and the one place AES-CTR is dispatched.

The item codec (:mod:`repro.core.ciphertext`) uses AES-CTR so ciphertext
length equals plaintext length plus the nonce.  :func:`aes_ctr` runs on
``cryptography``'s AES (AES-NI where the CPU has it); :func:`aes_ctr_many`
keeps batches of many small items on the numpy cross-item sweep in
:mod:`repro.crypto.bulk` and loops ``cryptography`` for everything else.
ECB and :func:`aes_ctr_scalar` over the pure-Python :class:`AES` are the
FIPS 197 / SP 800-38A reference the tests compare both engines against.
"""

from __future__ import annotations

import functools

from repro.crypto.aes import AES

#: The 64-bit counter field of ``nonce || counter`` holds this many blocks.
_COUNTER_SPACE = 1 << 64

#: A batch stays on the numpy sweep only while its mean payload is below
#: this many 16-byte blocks.  The sweep costs about 1 us per block; one
#: ``cryptography`` call costs 11-19 us whatever the payload up to 1 KiB,
#: so the two tie near 16 blocks (``benchmarks/test_micro_primitives.py``
#: records the curves as ``aes_ctr_crossover``).
BULK_MAX_BLOCKS = 16

#: ... and only with at least this many items: the sweep's fixed cost
#: (vectorised key expansion plus ten rounds of array passes, about 1 ms)
#: ties with per-item calls near 128 items of 6 blocks and wins from 256.
BULK_MIN_ITEMS = 256


def aes_ecb_encrypt(cipher: AES, plaintext: bytes) -> bytes:
    """ECB encryption of a block-aligned plaintext (test vectors only)."""
    if len(plaintext) % 16:
        raise ValueError("ECB requires block-aligned input")
    return b"".join(cipher.encrypt_block(plaintext[i:i + 16])
                    for i in range(0, len(plaintext), 16))


def aes_ecb_decrypt(cipher: AES, ciphertext: bytes) -> bytes:
    """ECB decryption of a block-aligned ciphertext (test vectors only)."""
    if len(ciphertext) % 16:
        raise ValueError("ECB requires block-aligned input")
    return b"".join(cipher.decrypt_block(ciphertext[i:i + 16])
                    for i in range(0, len(ciphertext), 16))


def _check_counter_range(initial_counter: int, block_count: int) -> None:
    """Reject counter runs that leave the 64-bit counter field.

    Past ``2^64 - 1`` one engine would carry into the nonce and another
    would wrap to ``nonce || 0`` and reuse keystream, so no engine runs.
    """
    if initial_counter < 0:
        raise ValueError("initial counter must be non-negative")
    if initial_counter + block_count > _COUNTER_SPACE:
        raise ValueError("CTR counter range passes 2^64 - 1")


@functools.cache
def _native_ctr():
    """``cryptography``'s AES-CTR, imported on first use.

    Importing it costs about 10 ms and 6 MB, which processes that never
    encrypt (the server, the CLI's argument parsing) should not pay.
    """
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    aes, ctr = algorithms.AES, modes.CTR

    def transform(key: bytes, counter_block: bytes, data: bytes) -> bytes:
        encryptor = Cipher(aes(key), ctr(counter_block)).encryptor()
        return encryptor.update(data) + encryptor.finalize()

    return transform


def aes_ctr(key: bytes, nonce: bytes, data: bytes, *,
            initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric).

    The counter block is ``nonce (8 bytes) || counter (8 bytes, big endian)``.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    _check_counter_range(initial_counter, (len(data) + 15) // 16)
    if not data:
        return b""
    return _native_ctr()(key, nonce + initial_counter.to_bytes(8, "big"), data)


def aes_ctr_many(keys, nonces, datas, *, initial_counter: int = 0) -> list[bytes]:
    """AES-CTR over many independent ``(key, nonce, data)`` triples.

    Bit-identical to calling :func:`aes_ctr` per triple.  A batch of at
    least :data:`BULK_MIN_ITEMS` AES-128 items averaging under
    :data:`BULK_MAX_BLOCKS` blocks runs as one numpy sweep in
    :mod:`repro.crypto.bulk`, key schedules included; any other batch
    calls :func:`aes_ctr` per item.
    """
    if not (len(keys) == len(nonces) == len(datas)):
        raise ValueError("batch arguments must have equal lengths")
    block_counts = [(len(data) + 15) // 16 for data in datas]
    _check_counter_range(initial_counter, max(block_counts, default=0))
    if (len(keys) >= BULK_MIN_ITEMS
            and sum(block_counts) < BULK_MAX_BLOCKS * len(keys)
            and all(len(key) == 16 for key in keys)):
        from repro.crypto.bulk import ctr_transform_many
        return ctr_transform_many(keys, nonces, datas,
                                  initial_counter=initial_counter)
    return [aes_ctr(key, nonce, data, initial_counter=initial_counter)
            for key, nonce, data in zip(keys, nonces, datas)]


def aes_ctr_scalar(key: bytes, nonce: bytes, data: bytes, *,
                   initial_counter: int = 0) -> bytes:
    """Pure-Python AES-CTR: the reference both fast engines are pinned to."""
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    cipher = AES(key)
    output = bytearray()
    counter = initial_counter
    for i in range(0, len(data), 16):
        keystream = cipher.encrypt_block(nonce + counter.to_bytes(8, "big"))
        chunk = data[i:i + 16]
        output.extend(x ^ y for x, y in zip(chunk, keystream))
        counter += 1
    return bytes(output)
