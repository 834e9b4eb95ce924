"""The on-disk content-addressed result store.

Layout (under the cache root)::

    <root>/v<CACHE_VERSION>/
        points/<k[:2]>/<key>.pkl       one pickled CacheEntry per result
        durations/<dkey>.json          EWMA wall-clock per task label

Every write goes to a process/instance-unique temporary file in the
destination directory followed by :func:`os.replace`, so readers never
observe a partial file and concurrent writers (pool parents running in
parallel CI jobs, say) race benignly — last writer wins with an intact
file either way. A corrupt or truncated entry is treated as a miss,
deleted best-effort, and recomputed; the cache can never make a sweep
fail.

``CACHE_VERSION`` names the on-disk format. Bumping it orphans every
old entry (they live under the old ``v<N>/`` prefix) — that is the
versioned-invalidation story for format changes, while behavioral
changes are caught by the code fingerprint baked into each key (see
:mod:`repro.cache.fingerprint`).
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from .fingerprint import Unfingerprintable, code_fingerprint, fingerprint

__all__ = ["CACHE_VERSION", "CacheEntry", "CacheStats", "ResultCache"]

#: On-disk format version; bump to orphan all existing entries.
CACHE_VERSION = 1

#: EWMA smoothing for the per-label duration estimates.
_DURATION_ALPHA = 0.5

_tmp_counter = itertools.count()


@dataclass
class CacheStats:
    """Hit/miss telemetry for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt/unreadable entries and failed writes (all degraded, never raised).
    errors: int = 0
    #: Tasks whose config could not be canonically fingerprinted.
    uncacheable: int = 0
    #: Wall-clock seconds of compute the hits avoided (from stored entries).
    saved_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
            "uncacheable": self.uncacheable,
            "saved_s": round(self.saved_s, 3),
        }

    def merge(self, other: "CacheStats") -> "CacheStats":
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.errors += other.errors
        self.uncacheable += other.uncacheable
        self.saved_s += other.saved_s
        return self


@dataclass(frozen=True)
class CacheEntry:
    """The pickled payload of one cached result."""

    key: str
    value: Any
    #: Wall-clock seconds the original computation took.
    wall_s: float
    #: time.time() at store time (diagnostics only).
    stored_at: float = field(default=0.0)


class ResultCache:
    """Content-addressed result store rooted at one directory."""

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.dir = self.root / f"v{CACHE_VERSION}"
        self._points = self.dir / "points"
        self._durations = self.dir / "durations"
        self.stats = CacheStats()

    # -- keys -----------------------------------------------------------------

    def key_for(self, fn, task) -> Optional[str]:
        """Cache key of ``fn(task)`` — None when the task is uncacheable.

        The key covers the callable's identity, the full task config
        (including its seed), the sim-code fingerprint, and the cache
        format version. Engine tiers need no extra discriminator: each
        task names its tier inside the task config (e.g. ext-diurnal's
        ``("des", ...)`` vs ``("fast", ...)`` tasks), shaped arrival
        processes and calibrated chip profiles ride there too, and the
        capability matrix itself lives in
        ``repro.fastpath`` source, which the code fingerprint covers.
        """
        try:
            return fingerprint(
                (
                    "repro-result",
                    CACHE_VERSION,
                    code_fingerprint(),
                    getattr(fn, "__module__", "?"),
                    getattr(fn, "__qualname__", repr(fn)),
                    task,
                )
            )
        except (Unfingerprintable, RecursionError):
            self.stats.uncacheable += 1
            return None

    def _entry_path(self, key: str) -> pathlib.Path:
        return self._points / key[:2] / f"{key}.pkl"

    # -- results --------------------------------------------------------------

    def lookup(self, key: str) -> Tuple[bool, Any, float]:
        """Return ``(hit, value, original_wall_s)`` for ``key``."""
        path = self._entry_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return False, None, 0.0
        try:
            entry = pickle.loads(data)
            if not isinstance(entry, CacheEntry) or entry.key != key:
                raise ValueError("cache entry does not match its key")
        except Exception:  # noqa: BLE001 - any corruption degrades to a miss
            self.stats.errors += 1
            self.stats.misses += 1
            self._discard(path)
            return False, None, 0.0
        self.stats.hits += 1
        self.stats.saved_s += entry.wall_s
        return True, entry.value, entry.wall_s

    def store(self, key: str, value: Any, wall_s: float) -> bool:
        """Persist one result atomically; False (never raises) on failure."""
        entry = CacheEntry(
            key=key, value=value, wall_s=float(wall_s), stored_at=time.time()
        )
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable results stay uncached
            self.stats.errors += 1
            return False
        if self._atomic_write(self._entry_path(key), payload):
            self.stats.stores += 1
            return True
        return False

    # -- duration sidecar ------------------------------------------------------

    def duration_key(self, fn, label: str) -> str:
        """Key of the wall-clock estimate for one task label.

        Deliberately coarser than the result key: it survives code
        changes and seed-preserving config tweaks, so a cold result
        cache can still schedule longest-expected-first from the
        previous run's timings.
        """
        return fingerprint(
            (
                "repro-duration",
                getattr(fn, "__module__", "?"),
                getattr(fn, "__qualname__", repr(fn)),
                str(label),
            )
        )[:32]

    def expected_duration(self, duration_key: str) -> Optional[float]:
        """EWMA wall-clock seconds for a duration key, if known."""
        path = self._durations / f"{duration_key}.json"
        try:
            payload = json.loads(path.read_text())
            value = float(payload["ewma_s"])
        except Exception:  # noqa: BLE001 - absent or corrupt: no estimate
            return None
        return value if value >= 0 else None

    def record_duration(self, duration_key: str, wall_s: float) -> None:
        """Fold one observed wall-clock into the EWMA estimate."""
        previous = self.expected_duration(duration_key)
        if previous is None:
            ewma = float(wall_s)
            samples = 1
        else:
            path = self._durations / f"{duration_key}.json"
            try:
                samples = int(json.loads(path.read_text()).get("samples", 1)) + 1
            except Exception:  # noqa: BLE001
                samples = 2
            ewma = _DURATION_ALPHA * float(wall_s) + (1 - _DURATION_ALPHA) * previous
        payload = json.dumps({"ewma_s": round(ewma, 6), "samples": samples})
        self._atomic_write(
            self._durations / f"{duration_key}.json", payload.encode("utf-8")
        )

    # -- plumbing --------------------------------------------------------------

    def _atomic_write(self, path: pathlib.Path, data: bytes) -> bool:
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            self.stats.errors += 1
            self._discard(tmp)
            return False
        return True

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        return f"<ResultCache {self.dir} {self.stats.as_dict()}>"
