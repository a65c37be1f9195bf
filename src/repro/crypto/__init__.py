"""Cryptographic substrate.

Hashing and HMAC come from the standard library (``hashlib``/``hmac``):
the chain hash ``H`` is :func:`hashlib.sha1` (the paper's instantiation)
or :func:`hashlib.sha256`, chosen through :class:`repro.core.params.Params`.
AES comes from ``cryptography`` (AES-NI where the CPU has it), except for
batches of many small items, which a numpy sweep encrypts faster:

* :mod:`repro.crypto.modes` -- AES-CTR and its engine dispatch: single
  payloads and large items run on ``cryptography``, batches of many small
  items on :mod:`repro.crypto.bulk`; plus ECB and the pure-Python CTR
  reference.
* :mod:`repro.crypto.bulk` -- numpy cross-item AES-CTR sweep.
* :mod:`repro.crypto.aes` -- the AES block cipher (FIPS 197), the exact
  reference both engines are tested against.
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
