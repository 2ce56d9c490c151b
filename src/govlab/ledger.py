"""Hash-chained, append-only event ledger.

Every entry commits to its position, its predecessor's digest, and its
payload: hash = SHA-256(index as decimal string || prev_hash hex || payload
bytes).  The genesis entry's prev_hash is 64 zero hex characters.  Any
in-place edit breaks every recomputation from the edited entry onward, so
verify_chain pinpoints the first bad index.  Truncating the tail is NOT
detectable from the file alone; publish the head hash out of band (the CLI
prints it after every run) to pin the expected length.

Per-event cost: each payload is encoded once (by govlab.events, which is the
only writer of event text) and hashed once.  append stores one text; a batch of
cast events arrives as a stream of texts that _append_canonical hashes and
stores one at a time, never listed.  Neither re-checks the text: replay
re-derives every event and compares the bytes.  dump_ndjson only escapes the
four fields into a line.  load_ndjson decodes each line once and checks its four
fields by exact type; replay decodes each payload once more.  Both decode by
loads_canonical, whose one scan of a text that holds just a value is what
json's decode returns; any other text takes decode, so its errors do not change.
"""

from __future__ import annotations

import hashlib
import os
import re
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable

from .core import CanonicalJsonError, GovlabError, _Record, _set, loads_canonical

GENESIS_PREV_HASH = "0" * 64
_HEX64 = re.compile("[0-9a-f]{64}")
_ENTRY_KEYS = frozenset({"index", "prev_hash", "payload", "hash"})


class LedgerError(GovlabError):
    """Malformed entry or payload handed to the ledger."""


def entry_hash(index: int, prev_hash: str, payload: str) -> str:
    """SHA-256 over index (decimal string) || prev_hash (hex) || payload bytes."""
    return hashlib.sha256(f"{index}{prev_hash}{payload}".encode()).hexdigest()


class LedgerEntry(_Record):
    __slots__ = ("index", "prev_hash", "payload", "hash")

    # Own constructor: ~50,000 per sybil_identity round (run, load, replay); 0.8 us vs 1.8 us for _Record's.
    def __init__(self, index: int, prev_hash: str, payload: str, hash: str):
        _set(self, "index", index)
        _set(self, "prev_hash", prev_hash)
        _set(self, "payload", payload)  # canonical JSON text; the exact bytes are the hash preimage
        _set(self, "hash", hash)


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

    def head_hash(self) -> str:
        """Digest of the newest entry; all zeros for an empty chain."""
        return self._entries[-1].hash if self._entries else GENESIS_PREV_HASH

    def append(self, text: str) -> LedgerEntry:
        """Append one event's canonical text and return its entry."""
        self._append_canonical((text,))
        return self._entries[-1]

    def _append_canonical(self, texts: Iterable[str]) -> None:
        """Append one entry per canonical JSON text, each stored before the next is drawn."""
        entries = self._entries
        prev = self.head_hash()
        for index, text in enumerate(texts, len(entries)):
            entries.append(LedgerEntry(index, prev, text, entry_hash(index, prev, text)))
            prev = entries[-1].hash


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
        if not line or line.isspace():
            continue
        try:
            obj = loads_canonical(line)
        except CanonicalJsonError as exc:
            raise LedgerError(f"line {lineno}: {exc}") from exc
        if type(obj) is not dict or obj.keys() != _ENTRY_KEYS:
            raise LedgerError(f"line {lineno}: not a ledger entry")
        index, prev_hash, payload, digest = obj["index"], obj["prev_hash"], obj["payload"], obj["hash"]
        if type(index) is not int or index < 0:
            raise LedgerError(f"line {lineno}: index must be a non-negative int")
        if type(payload) is not str:
            raise LedgerError(f"line {lineno}: payload must be a string")
        # A \ud800-style escape decodes to a lone surrogate, which has no UTF-8 bytes to hash.
        if not payload.isascii():
            try:
                payload.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise LedgerError(
                    f"line {lineno}: payload holds a lone surrogate at offset {exc.start}"
                ) from exc
        if type(prev_hash) is not str or not _HEX64.fullmatch(prev_hash):
            raise LedgerError(f"line {lineno}: prev_hash must be 64 lowercase hex chars: {prev_hash!r}")
        if type(digest) is not str or not _HEX64.fullmatch(digest):
            raise LedgerError(f"line {lineno}: hash must be 64 lowercase hex chars: {digest!r}")
        entries.append(LedgerEntry(index, prev_hash, payload, digest))
    return entries


def _replace_files(outputs: Iterable[tuple[Any, str, str]]) -> None:
    """Write each (path, text, encoding) output to a temporary file beside its path, then
    os.replace them in order, so an error while building or writing any of them leaves
    every path as it was.  outputs may be a generator: each text is dropped once written."""
    staged = []
    try:
        for path, text, encoding in outputs:
            # The count keeps two outputs to one path apart.
            tmp = f"{os.fspath(path)}.{os.getpid()}.{len(staged)}.tmp"
            staged.append((tmp, path))
            with open(tmp, "w", encoding=encoding, newline="") as fh:
                fh.write(text)
            del text
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            try:
                os.remove(tmp)
            except OSError:
                pass
        raise


def write_ndjson(entries: Iterable[LedgerEntry], path) -> None:
    _replace_files([(path, dump_ndjson(entries), "ascii")])


def read_ndjson(path) -> list[LedgerEntry]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    return load_ndjson(text)
