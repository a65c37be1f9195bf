"""Cryptographic substrate.

Hashing and HMAC come from the standard library (``hashlib``/``hmac``):
the chain hash ``H`` is :func:`hashlib.sha1` (the paper's instantiation)
or :func:`hashlib.sha256`, chosen through :class:`repro.core.params.Params`.
The standard library has no AES, so the block cipher lives here:

* :mod:`repro.crypto.aes` -- the AES block cipher (FIPS 197).
* :mod:`repro.crypto.modes` -- ECB and CTR modes of operation.
* :mod:`repro.crypto.bulk` -- numpy-vectorised AES-CTR for bulk payloads.
* :mod:`repro.crypto.prf` -- the HMAC PRF used by the master-key baseline.
* :mod:`repro.crypto.drbg` -- HMAC-DRBG (NIST SP 800-90A) providing
  deterministic randomness for reproducible experiments.
* :mod:`repro.crypto.rng` -- random source abstraction (system / seeded).

AES is validated against official test vectors in ``tests/crypto``.
"""

from repro.crypto.aes import AES
from repro.crypto.drbg import HmacDrbg
from repro.crypto.modes import aes_ctr
from repro.crypto.prf import prf
from repro.crypto.rng import DeterministicRandom, RandomSource, SystemRandom

__all__ = [
    "AES",
    "DeterministicRandom",
    "HmacDrbg",
    "RandomSource",
    "SystemRandom",
    "aes_ctr",
    "prf",
]
