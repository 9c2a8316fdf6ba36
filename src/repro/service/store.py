"""Content-addressed artifact store for the tuning service.

The ``repro serve`` daemon (:mod:`repro.service.daemon`) caches finished
job artifacts — tuned thresholds + convergence telemetry, compile
metadata, run digests — under a key derived from everything that
determines the result: the *program fingerprint* (name, flattening mode
and branching-tree hash), the device, the dataset shape signature and the
tuner configuration.  Two tenants submitting the same job therefore share
one evaluation: the second submission is a warm hit and completes without
evaluating a single proposal.

The layout and failure model are patterned on the codegen compile cache
(:mod:`repro.exec.compile_cache`): one ``<key>.json`` file per artifact,
where ``key`` is the SHA-256 of the job fingerprint string.  An entry is
a one-line JSON header (format version, key, the fingerprint it was
stored under, the SHA-256 of the payload bytes) followed by the payload's
JSON text.  A read hashes the stored payload bytes and parses them once,
so verifying an entry never re-serialises it, and

* a *torn or truncated* entry fails header parsing or the checksum and
  degrades to a miss (the job is re-evaluated, never a crash);
* a *poisoned* entry — content copied under the wrong key, or a payload
  edited without its checksum — fails the fingerprint/checksum match and
  is rejected (``service.cache.bad``);
* an entry of another format version is a plain miss, overwritten when
  the job's artifact is stored again.

The directory is mtime-LRU bounded (reads touch mtime) at ``max_entries``
entries (``repro serve --store-max``, default 256).  Writes go through
:func:`repro.ioutil.atomic_write_text`; concurrent writers of one key
race benignly (both wrote the same deterministic content).  Every
filesystem error degrades to a miss.  ``REPRO_NO_CACHE`` disables the
layer.

Perf counters: ``service.cache.hit`` / ``service.cache.miss`` /
``service.cache.bad`` / ``service.cache.eviction``.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro import perf
from repro.ioutil import atomic_write_text

__all__ = ["STORE_VERSION", "DEFAULT_MAX_ENTRIES", "job_key", "ArtifactStore"]

STORE_VERSION = 2
DEFAULT_MAX_ENTRIES = 256


def job_key(fingerprint: str) -> str:
    """Content address of a job: SHA-256 of its fingerprint string."""
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


class ArtifactStore:
    """One artifact directory with integrity checks and an LRU bound."""

    def __init__(self, directory: str, max_entries: int | None = None):
        self.directory = os.fspath(directory)
        self.max_entries = (
            DEFAULT_MAX_ENTRIES if max_entries is None else max(1, int(max_entries))
        )

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def load(self, key: str, fingerprint: str) -> dict | None:
        """The artifact stored under ``key``, or ``None`` (a miss).

        ``fingerprint`` is the caller's full job fingerprint; an entry
        recorded under a different fingerprint (poisoning) is rejected,
        as is any entry that fails parsing or its payload checksum.
        """
        if not perf.caching_enabled():
            perf.inc("service.cache.miss")
            return None
        path = self._path(key)
        payload = None
        try:
            with open(path, "rb") as fh:
                head = json.loads(fh.readline())
                body = fh.read()
            if head.get("version") != STORE_VERSION:
                perf.inc("service.cache.miss")  # another format, not corrupt
                return None
            if (head.get("fingerprint") == fingerprint
                    and head.get("sha256") == hashlib.sha256(body).hexdigest()):
                payload = json.loads(body)
        except FileNotFoundError:
            perf.inc("service.cache.miss")
            return None
        except (OSError, ValueError, AttributeError):
            pass  # torn or corrupt entry: counted bad below
        if not isinstance(payload, dict):
            perf.inc("service.cache.bad")
            perf.inc("service.cache.miss")
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        perf.inc("service.cache.hit")
        return payload

    def store(self, key: str, fingerprint: str, payload: dict) -> bool:
        """Persist ``payload`` under ``key``; best-effort (False on failure)."""
        if not perf.caching_enabled():
            return False
        try:
            body = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            head = json.dumps({
                "kind": "repro-service-artifact",
                "version": STORE_VERSION,
                "key": key,
                "fingerprint": fingerprint,
                "sha256": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            }, sort_keys=True)
            os.makedirs(self.directory, exist_ok=True)
            atomic_write_text(self._path(key), head + "\n" + body)
        except (OSError, TypeError, ValueError):
            return False
        self.evict_lru()
        return True

    def evict_lru(self, cap: int | None = None) -> int:
        """Drop oldest entries beyond the size cap; returns how many went."""
        cap = self.max_entries if cap is None else cap
        try:
            names = [nm for nm in os.listdir(self.directory) if nm.endswith(".json")]
        except OSError:
            return 0
        if len(names) <= cap:
            return 0
        aged = []
        for nm in names:
            try:
                aged.append((os.path.getmtime(os.path.join(self.directory, nm)), nm))
            except OSError:
                continue  # concurrently evicted
        aged.sort()
        evicted = 0
        for _, nm in aged[: max(0, len(aged) - cap)]:
            try:
                os.unlink(os.path.join(self.directory, nm))
            except OSError:
                continue
            evicted += 1
        if evicted:
            perf.inc("service.cache.eviction", evicted)
        return evicted

    def __len__(self) -> int:
        try:
            return sum(1 for nm in os.listdir(self.directory) if nm.endswith(".json"))
        except OSError:
            return 0

    def clear(self) -> None:
        """Remove every entry (tests; cold-start benchmarking)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for nm in names:
            if nm.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, nm))
                except OSError:
                    pass
