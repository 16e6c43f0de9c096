"""Persistent content-addressed certificate store.

Explored graphs and tolerance verdicts are cached across processes and
machines, keyed by salted content fingerprints of the checked objects
(:mod:`.keys`).  Backends (:mod:`.backend`) range from a local sqlite
file to a ``repro serve`` HTTP front end (:mod:`.serve`); the
exploration layer talks to :mod:`.artifacts`, the verification layer to
:mod:`.certificates`.  The store only replays: an artifact answers
exactly the exploration or check that wrote it, and anything else
(an edited program included) is computed afresh.
"""

from .backend import (
    BaseStore,
    FileStore,
    MemoryStore,
    RemoteStore,
    SQLiteStore,
    active_store,
    record_event,
    reset_handles as reset_store_handles,
    reset_stats,
    set_active_store,
    stats,
    store_from_spec,
)
from .keys import STORE_SCHEMA_VERSION, digest, fingerprint
from .artifacts import load_system, save_system, system_key
from .certificates import (
    cached_obligation,
    certificate_key,
    lookup_certificate,
    record_certificate,
)

__all__ = [
    "BaseStore",
    "SQLiteStore",
    "FileStore",
    "MemoryStore",
    "RemoteStore",
    "store_from_spec",
    "active_store",
    "set_active_store",
    "reset_store_handles",
    "record_event",
    "stats",
    "reset_stats",
    "STORE_SCHEMA_VERSION",
    "digest",
    "fingerprint",
    "system_key",
    "load_system",
    "save_system",
    "certificate_key",
    "lookup_certificate",
    "record_certificate",
    "cached_obligation",
]
