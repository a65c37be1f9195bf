"""The pseudo-random function of the master-key baseline.

Section III-A of the paper derives per-item keys as ``k_i = PRF(K, i)``.
We realise PRF as HMAC-SHA1 of the big-endian index under the master key,
truncated to the requested key length -- a standard PRF construction whose
security reduces to HMAC.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.params import HashFactory


def prf(key: bytes, index: int, *, length: int = 16,
        hash_factory: HashFactory = hashlib.sha1) -> bytes:
    """Return ``length`` bytes of PRF(key, index).

    ``index`` identifies a data item (0-based).  For lengths beyond one
    digest the output is extended counter-mode style, HMAC(key, index || j).
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    if length <= 0:
        raise ValueError("length must be positive")

    digest_size = hash_factory().digest_size
    blocks = []
    block_index = 0
    while len(blocks) * digest_size < length:
        message = struct.pack(">QI", index, block_index)
        blocks.append(hmac.digest(key, message, hash_factory))
        block_index += 1
    return b"".join(blocks)[:length]

