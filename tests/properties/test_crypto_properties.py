"""Property-based tests for the crypto substrate (hypothesis)."""

import hashlib
import hmac
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modulated_chain import ChainEngine
from repro.core.params import PAPER_PARAMS, SHA256_PARAMS
from repro.crypto.aes import AES
from repro.crypto.bulk import ctr_transform_many
from repro.crypto.modes import aes_ctr
from repro.crypto.prf import prf
from tests.conftest import scaled_examples

keys128 = st.binary(min_size=16, max_size=16)
keys_any = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))
nonces = st.binary(min_size=8, max_size=8)
blocks = st.binary(min_size=16, max_size=16)
payloads = st.binary(max_size=2048)


@given(st.binary(max_size=4096))
def test_sha1_matches_hashlib(message):
    engine = ChainEngine(PAPER_PARAMS.chain_hash)
    assert engine.h(message) == hashlib.sha1(message).digest()


@given(st.binary(max_size=4096))
def test_sha256_matches_hashlib(message):
    engine = ChainEngine(SHA256_PARAMS.chain_hash)
    assert engine.h(message) == hashlib.sha256(message).digest()


@given(st.binary(min_size=1, max_size=200), st.integers(0, 2 ** 64 - 1))
def test_hmac_matches_stdlib(key, index):
    """PRF(K, i) is HMAC-SHA1 of the packed index, truncated."""
    expected = hmac.new(key, struct.pack(">QI", index, 0),
                        hashlib.sha1).digest()
    assert prf(key, index, length=20) == expected


@given(keys_any, blocks)
def test_aes_block_roundtrip(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(keys128, nonces, payloads)
def test_ctr_is_an_involution(key, nonce, data):
    assert aes_ctr(key, nonce, aes_ctr(key, nonce, data)) == data


@settings(max_examples=scaled_examples(30))
@given(keys128, nonces, payloads)
def test_bulk_ctr_matches_scalar(key, nonce, data):
    from repro.crypto.modes import aes_ctr_scalar
    expected = aes_ctr_scalar(key, nonce, data)
    assert ctr_transform_many([key], [nonce], [data]) == [expected]
    assert aes_ctr(key, nonce, data) == expected
