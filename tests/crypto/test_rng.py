"""Random source behaviour: determinism, uniformity, fork independence."""

import pytest

from repro.crypto.rng import DeterministicRandom, SystemRandom


def test_deterministic_reproducibility():
    a = DeterministicRandom("seed")
    b = DeterministicRandom("seed")
    assert a.bytes(1000) == b.bytes(1000)
    assert a.bytes(7) == b.bytes(7)


def test_golden_stream():
    """The seeded stream every experiment depends on stays bit-identical."""
    assert DeterministicRandom("golden").bytes(64).hex() == (
        "8a5fc68402ae67d9492e748bb82b797f8be7428b5af96ee5b548d64b998e84ae"
        "d908c531fb6143a87488dc6ad0719b7b825fa636c210bf035c79c9d17a5574a7")


def test_seed_types():
    assert DeterministicRandom(b"x").bytes(8) == DeterministicRandom(b"x").bytes(8)
    assert DeterministicRandom("x").bytes(8) == DeterministicRandom("x").bytes(8)
    assert DeterministicRandom(42).bytes(8) == DeterministicRandom(42).bytes(8)
    assert DeterministicRandom("x").bytes(8) != DeterministicRandom("y").bytes(8)


def test_chunked_reads_equal_bulk_read():
    a = DeterministicRandom("chunks")
    b = DeterministicRandom("chunks")
    combined = b"".join(a.bytes(n) for n in (1, 5, 100, 64 * 1024, 3))
    assert combined == b.bytes(len(combined))


def test_fork_streams_are_independent_and_reproducible():
    a = DeterministicRandom("parent")
    b = DeterministicRandom("parent")
    child_a = a.fork("client")
    child_b = b.fork("client")
    assert child_a.bytes(32) == child_b.bytes(32)
    other = DeterministicRandom("parent").fork("server")
    assert other.bytes(32) != DeterministicRandom("parent").fork("client").bytes(32)


def test_below_bounds():
    rng = DeterministicRandom("below")
    for bound in (1, 2, 7, 255, 256, 1000):
        for _ in range(50):
            value = rng.below(bound)
            assert 0 <= value < bound
    with pytest.raises(ValueError):
        rng.below(0)


def test_below_is_roughly_uniform():
    rng = DeterministicRandom("uniform")
    counts = [0] * 4
    for _ in range(4000):
        counts[rng.below(4)] += 1
    for count in counts:
        assert 800 < count < 1200


def test_uint():
    rng = DeterministicRandom("uint")
    value = rng.uint(64)
    assert 0 <= value < 2 ** 64
    with pytest.raises(ValueError):
        rng.uint(12)


def test_choice_and_shuffle():
    rng = DeterministicRandom("choice")
    items = list(range(10))
    assert rng.choice(items) in items
    with pytest.raises(ValueError):
        rng.choice([])
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        DeterministicRandom("x").bytes(-1)
    with pytest.raises(ValueError):
        SystemRandom().bytes(-1)


def test_system_random_basic():
    rng = SystemRandom()
    assert len(rng.bytes(32)) == 32
    assert rng.bytes(16) != rng.bytes(16)
