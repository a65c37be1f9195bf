"""Batched hashing paths against hashlib and their scalar counterparts.

:meth:`ChainEngine.step_many` hashes ``value xor modulator`` per pair; with
all-zero modulators it hashes the values themselves, which lets the batch
path be checked against ``hashlib`` at any message length.
"""

import hashlib

import pytest

from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS


def sha1_many(messages):
    engine = ChainEngine(PAPER_PARAMS.chain_hash)
    return engine.step_many(list(messages), [bytes(len(m)) for m in messages])


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 100, 1000])
def test_equal_length_batches_match_hashlib(count, rng):
    messages = [rng.bytes(40) for _ in range(count)]
    assert sha1_many(messages) == [hashlib.sha1(m).digest() for m in messages]


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 119, 120,
                                    128, 4096])
def test_padding_boundaries(length, rng):
    messages = [rng.bytes(length) for _ in range(20)]
    assert sha1_many(messages) == [hashlib.sha1(m).digest() for m in messages]


def test_mixed_lengths(rng):
    messages = ([rng.bytes(20) for _ in range(30)]
                + [rng.bytes(100) for _ in range(30)]
                + [b"", b"x", rng.bytes(4104)])
    rng.shuffle(messages)
    assert sha1_many(messages) == [hashlib.sha1(m).digest() for m in messages]


def test_step_many_matches_step(rng):
    engine = ChainEngine()
    values = [rng.bytes(20) for _ in range(64)]
    modulators = [rng.bytes(20) for _ in range(64)]
    before = engine.hash_calls
    batched = engine.step_many(values, modulators)
    assert engine.hash_calls - before == 64
    assert batched == [ChainEngine().step(v, m)
                       for v, m in zip(values, modulators)]
    with pytest.raises(ValueError):
        engine.step_many(values, modulators[:-1])


def test_codec_batch_matches_scalar(rng):
    from repro.core.ciphertext import ItemCodec
    from repro.core.params import Params
    codec = ItemCodec(Params())
    outputs = [rng.bytes(20) for _ in range(40)]
    messages = [rng.bytes(100) for _ in range(40)]
    item_ids = list(range(1, 41))
    nonces = [rng.bytes(8) for _ in range(40)]
    batched = codec.encrypt_many(outputs, messages, item_ids, nonces)
    scalar = [codec.encrypt(o, m, i, n)
              for o, m, i, n in zip(outputs, messages, item_ids, nonces)]
    assert batched == scalar
    assert codec.decrypt_many(outputs, batched) == \
        [(m, i) for m, i in zip(messages, item_ids)]


def test_codec_batch_detects_tampering(rng):
    from repro.core.ciphertext import ItemCodec
    from repro.core.errors import IntegrityError
    from repro.core.params import Params
    codec = ItemCodec(Params())
    outputs = [rng.bytes(20) for _ in range(20)]
    ciphertexts = codec.encrypt_many(outputs, [b"m"] * 20, list(range(20)),
                                     [rng.bytes(8) for _ in range(20)])
    tampered = list(ciphertexts)
    tampered[13] = tampered[13][:-1] + bytes([tampered[13][-1] ^ 1])
    with pytest.raises(IntegrityError):
        codec.decrypt_many(outputs, tampered)
