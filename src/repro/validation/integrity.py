"""The one persistence path: atomic writes, verified reads, quarantine.

Long clone runs survive on what they persist — tier checkpoints,
profiling sessions, shareable bundles. A truncated or bit-flipped file
must never be *silently* resumed from: a wrong ``TierOutcome`` poisons
the assembled clone with no error anywhere. Every store artifact in the
repo is written and read through this module. Binary artifacts use one
envelope format:

``DITTOART`` magic | format version | schema name | schema version |
payload length | payload | SHA-256 digest trailer over everything
before it.

Reads verify the trailer before a single payload byte is interpreted.
A file that fails — truncated, flipped, or not an envelope at all when
one was expected — is **quarantined**: atomically renamed to
``<name>.quarantined`` next to the original so the evidence survives
for inspection while the bad path can never be loaded again, then
reported via an :class:`~repro.util.errors.ArtifactIntegrityError`
(and an ambient-telemetry counter when a session is active). Caches
— the shared experiment cache, tier checkpoints, fleet profiles — are
:class:`ArtifactStore` instances: one directory of write-once envelopes
named by a caller-built key, read through :func:`load_or_miss`, where
any such failure is a miss.

JSON artifacts (bundles, migration and fidelity documents) carry a
:func:`stamp_json` canonical-JSON SHA-256 stanza; :func:`write_json`
writes them in one canonical form and :func:`read_json` verifies them.
Every write goes through :func:`write_atomic` (temp file, fsync,
``os.replace``), so a crash mid-write leaves either the old artifact or
none — never a half-written one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from typing import Any, Optional, Tuple

from repro.telemetry.context import current_session
from repro.util.errors import ArtifactIntegrityError

__all__ = [
    "MAGIC",
    "ArtifactStore",
    "load_object",
    "load_or_miss",
    "quarantine",
    "read_envelope",
    "read_json",
    "save_object",
    "stamp_json",
    "verify_json",
    "write_atomic",
    "write_envelope",
    "write_json",
]

#: file magic for digest-stamped binary artifacts
MAGIC = b"DITTOART"
#: envelope (container) format version — bump on layout changes
ENVELOPE_VERSION = 1
#: fixed-size header: magic, envelope version, schema-name length,
#: schema version, payload length
_HEADER = struct.Struct(">8sHHIQ")
_DIGEST_BYTES = 32


def _count_quarantine(schema: str, reason: str) -> None:
    """Report one quarantined artifact into the ambient telemetry."""
    session = current_session()
    if session is None:
        return
    session.registry.counter(
        "ditto_artifact_quarantines_total",
        "persisted artifacts that failed integrity checks and were "
        "quarantined", ("schema", "reason"),
    ).inc(1, schema=schema, reason=reason)


def quarantine(path: str) -> str:
    """Move a bad artifact aside (atomically); returns the new path.

    The quarantined copy keeps the original name plus a
    ``.quarantined`` suffix; an existing quarantine file at that name
    is overwritten (the newest corruption wins — they are evidence, not
    archives). Returns ``""`` when the move itself fails (e.g. the file
    vanished), so callers can still raise a useful error.
    """
    target = f"{path}.quarantined"
    try:
        os.replace(path, target)
    except OSError:
        return ""
    return target


def _reject(path: str, schema: str, reason: str,
            detail: str) -> ArtifactIntegrityError:
    """Quarantine ``path``, count it, and build the error to raise."""
    moved = quarantine(path)
    _count_quarantine(schema, reason)
    suffix = f"; quarantined to {moved}" if moved else ""
    return ArtifactIntegrityError(
        f"{path}: {detail}{suffix}", path=path, reason=reason,
        quarantined_to=moved)


def write_atomic(path, data: bytes) -> str:
    """Write ``data`` to ``path`` via temp file + fsync + ``os.replace``."""
    path = str(path)
    scratch = f"{path}.tmp-{os.getpid()}"
    with open(scratch, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(scratch, path)
    return path


def write_envelope(path: str, payload: bytes, *, schema: str,
                   version: int = 1) -> str:
    """Atomically write ``payload`` wrapped in a digest-stamped envelope."""
    name = schema.encode("utf-8")
    header = _HEADER.pack(MAGIC, ENVELOPE_VERSION, len(name), version,
                          len(payload)) + name
    digest = hashlib.sha256(header)
    digest.update(payload)
    # One join, so the payload is copied once on its way to disk.
    return write_atomic(path, b"".join((header, payload, digest.digest())))


def read_envelope(path: str, *, schema: str,
                  max_version: Optional[int] = None) -> Tuple[bytes, int]:
    """Read and verify an envelope; returns ``(payload, schema_version)``.

    Raises :class:`ArtifactIntegrityError` on any defect. Files that
    fail the digest or are structurally broken are quarantined first;
    the error's ``quarantined_to`` carries where the evidence went. A
    missing file raises ``FileNotFoundError`` as usual — absence is a
    cache miss, not corruption.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < _HEADER.size or not blob.startswith(MAGIC):
        raise _reject(path, schema, "bad_header",
                      "not a digest-stamped artifact "
                      f"(expected schema {schema!r})")
    magic, env_version, name_len, version, payload_len = \
        _HEADER.unpack_from(blob)
    if env_version != ENVELOPE_VERSION:
        raise _reject(path, schema, "bad_header",
                      f"unsupported envelope version {env_version}")
    expected = _HEADER.size + name_len + payload_len + _DIGEST_BYTES
    if len(blob) < expected:
        raise _reject(path, schema, "truncated",
                      f"truncated artifact: {len(blob)} bytes on disk, "
                      f"{expected} expected")
    if len(blob) > expected:
        raise _reject(path, schema, "truncated",
                      f"trailing garbage: {len(blob)} bytes on disk, "
                      f"{expected} expected")
    body = blob[:_HEADER.size + name_len + payload_len]
    trailer = blob[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != trailer:
        raise _reject(path, schema, "digest_mismatch",
                      "digest trailer does not match content "
                      f"(schema {schema!r})")
    found = blob[_HEADER.size:_HEADER.size + name_len].decode(
        "utf-8", errors="replace")
    if found != schema:
        raise _reject(path, schema, "bad_header",
                      f"schema mismatch: file holds {found!r}, "
                      f"expected {schema!r}")
    if max_version is not None and version > max_version:
        # A future-versioned artifact is intact, just unreadable here —
        # leave it in place for the newer reader it was written for.
        raise ArtifactIntegrityError(
            f"{path}: schema {schema!r} version {version} is newer than "
            f"supported ({max_version})", path=path, reason="version")
    return blob[_HEADER.size + name_len:
                _HEADER.size + name_len + payload_len], version


def save_object(path: str, obj: Any, *, schema: str,
                version: int = 1) -> str:
    """Pickle ``obj`` into a digest-stamped envelope at ``path``."""
    return write_envelope(path, pickle.dumps(obj), schema=schema,
                          version=version)


def load_object(path: str, *, schema: str,
                max_version: Optional[int] = None) -> Any:
    """Load a pickled envelope written by :func:`save_object`.

    The digest is verified *before* unpickling, so a corrupted file is
    quarantined instead of fed to the unpickler; an undecodable payload
    behind a valid digest (a foreign writer) is quarantined too.
    """
    payload, _ = read_envelope(path, schema=schema,
                               max_version=max_version)
    try:
        return pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 — any unpickle failure
        raise _reject(path, schema, "undecodable",
                      f"payload passed its digest but failed to decode "
                      f"({error})") from error


def load_or_miss(path: str, *, schema: str,
                 max_version: Optional[int] = None) -> Any:
    """:func:`load_object`, or None when the file is absent, corrupt
    (quarantined and counted first) or newer than ``max_version``.
    """
    try:
        return load_object(path, schema=schema, max_version=max_version)
    except (FileNotFoundError, ArtifactIntegrityError):
        return None


class ArtifactStore:
    """A directory of write-once envelopes, one ``<key>.pkl`` per key.

    The key names the artifact's inputs (a digest the caller computed
    once), so an entry never changes once written: :meth:`put` skips a
    key that is already present, and :meth:`get` treats absent, corrupt
    (quarantined first) and future-versioned entries alike as a miss.
    """

    def __init__(self, directory, schema: str, version: int = 1) -> None:
        self.directory = str(directory)
        self.schema = schema
        self.version = version
        os.makedirs(self.directory, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def get(self, key: str) -> Any:
        """The stored object, or None on a miss."""
        return load_or_miss(self.path(key), schema=self.schema,
                            max_version=self.version)

    def put(self, key: str, obj: Any) -> bool:
        """Store ``obj`` unless ``key`` is present; True when written."""
        path = self.path(key)
        if os.path.exists(path):
            return False
        save_object(path, obj, schema=self.schema, version=self.version)
        return True


# --------------------------------------------------------------------- #
# JSON documents (bundles, migration and fidelity artifacts)
# --------------------------------------------------------------------- #
def _canonical_digest(document: dict) -> str:
    """SHA-256 over the canonical JSON form, integrity field excluded."""
    stripped = {k: v for k, v in document.items() if k != "integrity"}
    canonical = json.dumps(stripped, sort_keys=True,
                           separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stamp_json(document: dict) -> dict:
    """Embed an integrity stanza into a JSON-safe document (in place)."""
    document["integrity"] = {
        "algorithm": "sha256-canonical-json",
        "digest": _canonical_digest(document),
    }
    return document


def _stamp_defect(document: dict) -> Optional[Tuple[str, str]]:
    """``(reason, detail)`` for a wrong stanza; unstamped documents
    (pre-stamping writers) pass.
    """
    stanza = document.get("integrity")
    if stanza is None:
        return None
    algorithm = stanza.get("algorithm") if isinstance(stanza, dict) \
        else None
    if algorithm != "sha256-canonical-json":
        return "bad_header", f"unknown integrity algorithm {algorithm!r}"
    if stanza.get("digest") != _canonical_digest(document):
        return "digest_mismatch", "embedded digest does not match content"
    return None


def verify_json(document: dict, *, path: str = "") -> None:
    """Check a stamped document; raises :class:`ArtifactIntegrityError`."""
    defect = _stamp_defect(document)
    if defect is not None:
        reason, detail = defect
        raise ArtifactIntegrityError(f"{path or 'document'}: {detail}",
                                     path=path, reason=reason)


def write_json(path, document: dict) -> str:
    """Atomically write ``document`` in the one canonical form (sorted
    keys, ``indent=1``): the same document always has the same bytes.
    """
    text = json.dumps(document, indent=1, sort_keys=True)
    return write_atomic(path, text.encode("utf-8"))


def read_json(path, *, schema: str) -> dict:
    """Parse a JSON artifact and verify its stamp; returns the document.

    An unparsable, non-object or wrongly stamped file is quarantined,
    counted under ``schema`` and raised as
    :class:`ArtifactIntegrityError`.
    """
    path = str(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        document = json.loads(blob)
    except ValueError as error:
        raise _reject(path, schema, "undecodable",
                      f"not valid JSON ({error})") from error
    if not isinstance(document, dict):
        raise _reject(path, schema, "undecodable", "not a JSON object")
    defect = _stamp_defect(document)
    if defect is not None:
        raise _reject(path, schema, *defect)
    return document
