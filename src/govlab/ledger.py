"""Hash-chained, append-only event ledger.

Every entry commits to its position, its predecessor's digest, and its
payload: hash = SHA-256(index as decimal string || prev_hash hex || payload
bytes).  The genesis entry's prev_hash is 64 zero hex characters.  Any
in-place edit breaks every recomputation from the edited entry onward, so
verify_chain pinpoints the first bad index.  Truncating the tail is NOT
detectable from the file alone; publish the head hash out of band (the CLI
prints it after every run) to pin the expected length.

Per-event cost: append encodes the payload once and hashes it once.  Cast
events arrive as text from core's cast template, which append stores without
a re-check; other events are encoded by canonical_json, and a plain str is
checked by a decode and re-encode.  dump_ndjson only escapes the four fields
into a line; load_ndjson decodes each line once, and replay decodes each
payload once more.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable

from .core import (
    CanonicalJsonError,
    GovlabError,
    _CanonicalText,
    canonical_json,
    is_canonical_json,
    loads_canonical,
)

GENESIS_PREV_HASH = "0" * 64
_HEX64 = re.compile("[0-9a-f]{64}")


class LedgerError(GovlabError):
    """Malformed entry or payload handed to the ledger."""


def entry_hash(index: int, prev_hash: str, payload: str) -> str:
    """SHA-256 over index (decimal string) || prev_hash (hex) || payload bytes."""
    preimage = str(index).encode("ascii") + prev_hash.encode("ascii") + payload.encode("utf-8")
    return hashlib.sha256(preimage).hexdigest()


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    index: int
    prev_hash: str
    payload: str  # canonical JSON text; the exact bytes are the hash preimage
    hash: str


def _check_hash_field(value: Any, label: str) -> str:
    if not isinstance(value, str) or not _HEX64.fullmatch(value):
        raise LedgerError(f"{label} must be 64 lowercase hex chars: {value!r}")
    return value


class Ledger:
    """Append-only in-memory chain; single writer."""

    def __init__(self):
        self._entries: list[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index: int) -> LedgerEntry:
        return self._entries[index]

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def head_hash(self) -> str:
        """Digest of the newest entry; all zeros for an empty chain."""
        return self._entries[-1].hash if self._entries else GENESIS_PREV_HASH

    def append(self, payload: Any) -> LedgerEntry:
        """Append an event; payload may be a JSON-able object or canonical text."""
        if type(payload) is _CanonicalText:  # canonical when it was built
            text = str(payload)  # stored compact, as a plain str
        elif isinstance(payload, str):
            if not is_canonical_json(payload):
                raise LedgerError("payload text is not canonical JSON")
            text = payload
        else:
            try:
                text = canonical_json(payload)
            except CanonicalJsonError as exc:
                raise LedgerError(f"payload is not canonical JSON: {exc}") from exc
        index = len(self._entries)
        prev = self.head_hash()
        entry = LedgerEntry(index=index, prev_hash=prev, payload=text, hash=entry_hash(index, prev, text))
        self._entries.append(entry)
        return entry


def verify_chain(entries: Iterable[LedgerEntry]) -> int | None:
    """Return the first broken index, or None when the whole chain checks out.

    An empty chain verifies clean.  Checks per entry: recorded index matches
    its position, prev_hash links to the predecessor (all-zero for genesis),
    and the recorded hash equals the recomputed digest.
    """
    prev = GENESIS_PREV_HASH
    for position, entry in enumerate(entries):
        if entry.index != position:
            return position
        if entry.prev_hash != prev:
            return position
        if entry.hash != entry_hash(entry.index, entry.prev_hash, entry.payload):
            return position
        prev = entry.hash
    return None


def dump_ndjson(entries: Iterable[LedgerEntry]) -> str:
    """Render entries as newline-delimited JSON, one entry per line.

    The payload is embedded as a JSON string so the exact hash preimage
    survives the round-trip byte for byte.  Each line is the canonical JSON of
    the entry's four fields, written directly: keys in sorted order, strings
    escaped exactly as canonical_json escapes them.
    """
    return "".join([
        f'{{"hash":{_quote(e.hash)},"index":{e.index},"payload":{_quote(e.payload)},'
        f'"prev_hash":{_quote(e.prev_hash)}}}\n'
        for e in entries
    ])


def load_ndjson(text: str) -> list[LedgerEntry]:
    """Parse a persisted ledger; raises LedgerError on malformed lines."""
    entries: list[LedgerEntry] = []
    # Lines end at "\n" only: str.splitlines() would also break inside a payload
    # at U+2028, U+0085 and other separators.  A "\r" before it is JSON whitespace.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = loads_canonical(line)
        except CanonicalJsonError as exc:
            raise LedgerError(f"line {lineno}: {exc}") from exc
        if not isinstance(obj, dict) or set(obj) != {"index", "prev_hash", "payload", "hash"}:
            raise LedgerError(f"line {lineno}: not a ledger entry")
        index = obj["index"]
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise LedgerError(f"line {lineno}: index must be a non-negative int")
        payload = obj["payload"]
        if not isinstance(payload, str):
            raise LedgerError(f"line {lineno}: payload must be a string")
        # A \ud800-style escape decodes to a lone surrogate, which has no UTF-8 bytes to hash.
        if not payload.isascii():
            try:
                payload.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise LedgerError(
                    f"line {lineno}: payload holds a lone surrogate at offset {exc.start}"
                ) from exc
        entries.append(
            LedgerEntry(
                index=index,
                prev_hash=_check_hash_field(obj["prev_hash"], "prev_hash"),
                payload=payload,
                hash=_check_hash_field(obj["hash"], "hash"),
            )
        )
    return entries


def _replace_file(path, text: str, encoding: str) -> None:
    """Write text to path whole or not at all: a temporary file beside it, then os.replace."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding=encoding, newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def write_ndjson(entries: Iterable[LedgerEntry], path) -> None:
    _replace_file(path, dump_ndjson(entries), "ascii")


def read_ndjson(path) -> list[LedgerEntry]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    return load_ndjson(text)
