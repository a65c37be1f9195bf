"""The master-key baseline's PRF."""

import hashlib

import pytest

from repro.crypto.prf import prf


def test_deterministic():
    assert prf(b"key", 5) == prf(b"key", 5)


def test_golden_output():
    """Master-key baseline keys stay bit-identical across hash backends."""
    assert prf(b"k" * 16, 7).hex() == "004dfedf0b8a6ed516d1bbba3eea054d"
    assert prf(b"k" * 16, 7, length=32, hash_factory=hashlib.sha256).hex() == (
        "02ec3efb7b150a79da8a7d2d45cb2244a5e6fe11399b8d22977f693323a53824")


def test_distinct_indices_give_distinct_keys():
    outputs = {prf(b"key", i) for i in range(100)}
    assert len(outputs) == 100


def test_distinct_keys_give_distinct_outputs():
    assert prf(b"key-a", 1) != prf(b"key-b", 1)


def test_lengths():
    assert len(prf(b"key", 0)) == 16
    assert len(prf(b"key", 0, length=20)) == 20
    long = prf(b"key", 0, length=45)
    assert len(long) == 45
    # Extension must be prefix-consistent: same index, longer request.
    assert long[:16] == prf(b"key", 0, length=16)


def test_alternative_hash():
    assert len(prf(b"key", 3, length=32, hash_factory=hashlib.sha256)) == 32
    assert prf(b"key", 3, hash_factory=hashlib.sha256) != prf(b"key", 3)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        prf(b"key", -1)
    with pytest.raises(ValueError):
        prf(b"key", 0, length=0)
