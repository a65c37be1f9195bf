"""The master-key baseline -- Section III-A.

One master key ``K``; per-item keys ``k_i = PRF(K, i)``.  Deleting any
item forces a new master key and a re-encryption of *every* remaining
item: the client downloads the whole file, decrypts it, re-encrypts under
``PRF(K', i)``, and replaces the server copy.  ``O(1)`` client storage,
``O(n)`` deletion communication and computation -- Table I's first column.

Deletion is assured exactly when the re-encryption completes and the old
``K`` is shredded; the threat-model tests also exercise the failure mode
where a client skips the re-encryption (the deleted item then resurfaces
once ``K`` leaks).
"""

from __future__ import annotations

from repro.baselines import messages as bmsg
from repro.baselines.base import DeletionScheme
from repro.client.keystore import KeyStore
from repro.core.ciphertext import ItemCodec
from repro.core.params import Params
from repro.crypto.prf import prf
from repro.crypto.rng import RandomSource, SystemRandom
from repro.protocol import messages as msg
from repro.protocol.channel import Channel
from repro.sim.metrics import MetricsCollector


class MasterKeySolution(DeletionScheme):
    """Single-master-key encryption with full re-encryption on delete."""

    name = "master-key"
    _KEY_NAME = "master"

    def __init__(self, channel: Channel, params: Params | None = None,
                 rng: RandomSource | None = None,
                 metrics: MetricsCollector | None = None,
                 file_id: int = 1) -> None:
        super().__init__(channel, metrics)
        self.params = params if params is not None else Params()
        self.codec = ItemCodec(self.params)
        self.rng = rng if rng is not None else SystemRandom()
        self.keystore = KeyStore()
        self.file_id = file_id

    def _key_for(self, master_key: bytes, item_id: int) -> bytes:
        """``k_i = PRF(K, i)`` stretched to the chain-output width."""
        return prf(master_key, item_id,
                   length=self.params.chain_hash().digest_size,
                   hash_factory=self.params.chain_hash)

    def _keys_for(self, master_key: bytes, item_ids: list[int]) -> list[bytes]:
        return [self._key_for(master_key, item_id) for item_id in item_ids]

    def outsource(self, items: list[bytes]) -> list[int]:
        begin = self._begin()
        master_key = self.rng.bytes(self.params.master_key_size)
        self.keystore.put(self._KEY_NAME, master_key)
        item_ids = [self.keystore.next_item_id() for _ in items]
        ciphertexts = tuple(self.codec.encrypt_many(
            self._keys_for(master_key, item_ids), list(items), item_ids,
            [self.rng.bytes(8) for _ in items]))
        self._expect(self.channel.request(bmsg.BlobUploadAll(
            file_id=self.file_id, item_ids=tuple(item_ids),
            ciphertexts=ciphertexts)), msg.Ack)
        self._finish("outsource", begin)
        return item_ids

    def access(self, item_id: int) -> bytes:
        begin = self._begin()
        reply = self._expect(self.channel.request(bmsg.BlobGet(
            file_id=self.file_id, item_id=item_id)), bmsg.BlobReply)
        master_key = self.keystore.get(self._KEY_NAME)
        data, recovered = self.codec.decrypt(self._key_for(master_key, item_id),
                                             reply.ciphertext)
        if recovered != item_id:
            raise ValueError("server returned the wrong item")
        self._finish("access", begin)
        return data

    def insert(self, data: bytes) -> int:
        begin = self._begin()
        master_key = self.keystore.get(self._KEY_NAME)
        item_id = self.keystore.next_item_id()
        ciphertext = self.codec.encrypt(self._key_for(master_key, item_id),
                                        data, item_id, self.rng.bytes(8))
        self._expect(self.channel.request(bmsg.BlobPut(
            file_id=self.file_id, item_id=item_id, ciphertext=ciphertext)),
            msg.Ack)
        self._finish("insert", begin)
        return item_id

    def delete(self, item_id: int) -> None:
        """O(n): fetch everything, re-key everything, replace everything."""
        begin = self._begin()
        old_key = self.keystore.get(self._KEY_NAME)

        reply = self._expect(self.channel.request(bmsg.BlobGetAll(
            file_id=self.file_id)), bmsg.BlobAllReply)

        new_key = self.rng.bytes(self.params.master_key_size)
        new_ids = [other_id for other_id in reply.item_ids
                   if other_id != item_id]
        survivors = [ciphertext for other_id, ciphertext
                     in zip(reply.item_ids, reply.ciphertexts)
                     if other_id != item_id]
        decrypted = self.codec.decrypt_many(self._keys_for(old_key, new_ids),
                                            survivors)
        plaintexts = []
        for other_id, (data, recovered) in zip(new_ids, decrypted):
            if recovered != other_id:
                raise ValueError("server returned a corrupted item")
            plaintexts.append(data)
        new_ciphertexts = self.codec.encrypt_many(
            self._keys_for(new_key, new_ids), plaintexts, new_ids,
            [self.rng.bytes(8) for _ in new_ids])

        self._expect(self.channel.request(bmsg.BlobUploadAll(
            file_id=self.file_id, item_ids=tuple(new_ids),
            ciphertexts=tuple(new_ciphertexts))), msg.Ack)

        self.keystore.shred(self._KEY_NAME)
        self.keystore.put(self._KEY_NAME, new_key)
        self._finish("delete", begin)

    def delete_without_reencryption(self, item_id: int) -> None:
        """The broken shortcut: drop the ciphertext but keep the old key.

        Exists only for the threat-model tests, which prove the deleted
        item resurfaces once the (unchanged) master key leaks.
        """
        self._expect(self.channel.request(bmsg.BlobDelete(
            file_id=self.file_id, item_id=item_id)), msg.Ack)

    def client_storage_bytes(self) -> int:
        return self.keystore.key_bytes_stored()
