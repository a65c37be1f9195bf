"""Cache-coherence properties of the server view cache.

Twin-world property: the same random op script, driven by identical
deterministic randomness, must produce identical plaintexts whether the
server view cache is on, off, or randomly toggled mid-run.  The cache is
performance-only -- any divergence here is a correctness bug, not a
slowdown.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheme import LocalScheme
from repro.crypto.rng import DeterministicRandom
from tests.conftest import scaled_examples

OPS = ("access", "modify", "insert", "delete", "delete_many", "fetch",
       "toggle")


@st.composite
def scripts(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    length = draw(st.integers(min_value=3, max_value=12))
    ops = [(draw(st.sampled_from(OPS)),
            draw(st.integers(min_value=0, max_value=10 ** 6)))
           for _ in range(length)]
    return n, ops


def run(scheme, n, ops, toggler=None):
    """Interpret ``ops`` against ``scheme``; returns (live model, log).

    The interpreter is deterministic in (n, ops) apart from the scheme's
    own randomness, so two schemes seeded identically walk the same
    protocol transcript and the logs are comparable element-wise.
    """
    items = [b"item-%d" % i for i in range(n)]
    fid, ids = scheme.new_file(items)
    model = dict(zip(ids, items))
    log = []
    for op, arg in ops:
        live = sorted(model)
        if op == "toggle":
            if toggler is not None:
                toggler(arg)
        elif op == "access":
            item = live[arg % len(live)]
            log.append(scheme.access(fid, item))
        elif op == "modify":
            item = live[arg % len(live)]
            new = b"mod-%d" % arg
            scheme.modify(fid, item, new)
            model[item] = new
        elif op == "insert":
            new = b"ins-%d" % arg
            item = scheme.insert(fid, new)
            model[item] = new
            log.append(item)
        elif op == "delete":
            if len(live) < 2:  # keep one survivor so reads stay legal
                continue
            item = live[arg % len(live)]
            scheme.delete(fid, item)
            del model[item]
        elif op == "delete_many":
            if len(live) < 2:
                continue
            k = 1 + arg % (len(live) - 1)
            chosen = live[:k]
            scheme.delete_many(fid, chosen)
            for item in chosen:
                del model[item]
        elif op == "fetch":
            log.append(scheme.fetch_file(fid))
    log.append(scheme.fetch_file(fid))
    return fid, model, log


def warm_scheme(seed):
    return LocalScheme(rng=DeterministicRandom(seed))


def cold_scheme(seed):
    scheme = LocalScheme(rng=DeterministicRandom(seed))
    scheme.server.view_cache_enabled = False
    return scheme


@given(script=scripts(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=scaled_examples(20), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_warm_equals_cold(script, seed):
    n, ops = script
    warm = warm_scheme(f"coherence-{seed}")
    cold = cold_scheme(f"coherence-{seed}")
    _, warm_model, warm_log = run(warm, n, ops)
    _, cold_model, cold_log = run(cold, n, ops)
    assert warm_log == cold_log
    assert warm_model == cold_model


@given(script=scripts(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=scaled_examples(20), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_toggled_caches_equal_cold(script, seed):
    """Flipping the view cache mid-run (the raw attribute flip leaves
    cached replies behind) never changes any plaintext."""
    n, ops = script
    warm = warm_scheme(f"toggle-{seed}")
    cold = cold_scheme(f"toggle-{seed}")

    def toggler(_arg):
        warm.server.view_cache_enabled = not warm.server.view_cache_enabled

    _, warm_model, warm_log = run(warm, n, ops, toggler=toggler)
    _, cold_model, cold_log = run(cold, n, ops)
    assert warm_log == cold_log
    assert warm_model == cold_model


@given(script=scripts(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=scaled_examples(15), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_warm_world_matches_model(script, seed):
    """The warm world agrees with the plain dict model -- the final
    fetch returns exactly the surviving plaintexts."""
    n, ops = script
    warm = warm_scheme(f"model-{seed}")
    _, model, log = run(warm, n, ops)
    assert log[-1] == model
