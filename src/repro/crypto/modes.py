"""Block cipher modes of operation over the AES block transform.

The item codec (:mod:`repro.core.ciphertext`) uses AES-CTR so ciphertext
length equals plaintext length plus the nonce; ECB exists for the NIST
SP 800-38A conformance tests.
"""

from __future__ import annotations

from repro.crypto.aes import AES


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    return bytes(x ^ y for x, y in zip(a, b))


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


#: Payloads at or below this many blocks run the scalar block loop: the
#: vectorised engine's fixed per-call cost (~35 blocks' worth of scalar
#: work) dominates below roughly half a kilobyte.
_SMALL_CTR_BLOCKS = 16


def aes_ctr(key: bytes, nonce: bytes, data: bytes, *,
            initial_counter: int = 0) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (the operation is symmetric).

    The counter block is ``nonce (8 bytes) || counter (8 bytes, big endian)``.
    Large payloads delegate to the vectorised engine in
    :mod:`repro.crypto.bulk`; small ones stay on the scalar block loop,
    which beats the engine's per-call setup cost.  Results are identical.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    if initial_counter < 0:
        raise ValueError("initial counter must be non-negative")
    if not data:
        return b""

    block_count = (len(data) + 15) // 16
    if block_count > _SMALL_CTR_BLOCKS:
        from repro.crypto.bulk import ctr_transform
        return ctr_transform(key, nonce, data, initial_counter=initial_counter)

    encrypt_block = AES(key).encrypt_block
    stream = b"".join(
        encrypt_block(nonce + (initial_counter + i).to_bytes(8, "big"))
        for i in range(block_count))
    return _xor_bytes(data, stream[:len(data)])


def aes_ctr_many(keys, nonces, datas, *, initial_counter: int = 0) -> list[bytes]:
    """AES-CTR over many independent ``(key, nonce, data)`` triples.

    Bit-identical to calling :func:`aes_ctr` per triple.  When every key
    is 16 bytes (the deployment's data-key width) and the batch has at
    least two items, the whole batch runs as *one* vectorised sweep in
    :mod:`repro.crypto.bulk` -- key schedules included -- instead of one
    engine invocation per item.
    """
    if not (len(keys) == len(nonces) == len(datas)):
        raise ValueError("batch arguments must have equal lengths")
    if len(keys) >= 2 and all(len(key) == 16 for key in keys):
        from repro.crypto.bulk import ctr_transform_many
        return ctr_transform_many(keys, nonces, datas,
                                  initial_counter=initial_counter)
    return [aes_ctr(key, nonce, data, initial_counter=initial_counter)
            for key, nonce, data in zip(keys, nonces, datas)]


def aes_ctr_scalar(key: bytes, nonce: bytes, data: bytes, *,
                   initial_counter: int = 0) -> bytes:
    """Pure-Python AES-CTR used as the reference for the vectorised engine."""
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
