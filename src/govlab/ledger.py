"""Hash-chained, append-only event ledger.

Every entry commits to its position, its predecessor's digest, and its
payload: hash = SHA-256(index as decimal string || prev_hash hex || payload
bytes).  The genesis entry's prev_hash is 64 zero hex characters.  Any
in-place edit breaks every recomputation from the edited entry onward, so
verify_chain pinpoints the first bad index.  Truncating the tail is NOT
detectable from the file alone; publish the head hash out of band (the CLI
prints it after every run) to pin the expected length.

The digest is the interpreter's own SHA-256: _sha2 on Python 3.12 and later,
_sha256 on 3.10 and 3.11.  hashlib's would load OpenSSL's libcrypto through
_hashlib, about 3.6 MiB resident in every govlab command, for this one digest;
the built-in one costs about 0.4 us more per entry.  An interpreter built
without those modules takes hashlib's, and the bytes are the same.

Per-event cost: each payload is encoded once (by govlab.events, which is the
only writer of event text) and hashed once.  append is the ledger's one write:
it hashes one text and hands its entry to the ledger's sink, for every event
kind alike, a batch's casts included.  It does not re-check the text: replay
re-derives every event and its sink compares the bytes with the record.  The
default sink keeps each entry in memory, to be iterated in order (there is no
indexing); `govlab run`'s sink writes its ndjson_line into the staged ledger
file at once and keeps nothing, so the ledger's memory does not grow with its
events.  ndjson_line only escapes the four fields into a line.  Reading a line
back costs two anchored patterns (the hash and index before the payload, the
prev_hash after it) and one scanstring of the payload, the C scanner json's
decoder runs on strings; the patterns and an ASCII payload leave nothing for
the field checks to find.  Any other line takes one loads_canonical decode and
the checks of each field, so what loads and every error stay as they were.
load_ndjson and iter_ndjson, which reads a file one line at a time and holds
no entry list, share that per-line parser; replay decodes each payload once
more (events.decode, which reads a cast by its own pattern).
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Iterator

from .core import CanonicalJsonError, GovlabError, _Record, loads_canonical

try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

GENESIS_PREV_HASH = "0" * 64
_HEX64 = re.compile("[0-9a-f]{64}")
_ENTRY_KEYS = frozenset({"index", "prev_hash", "payload", "hash"})


class LedgerError(GovlabError):
    """Malformed entry or payload handed to the ledger."""


def entry_hash(index: int, prev_hash: str, payload: str) -> str:
    """SHA-256 over index (decimal string) || prev_hash (hex) || payload bytes."""
    return sha256(f"{index}{prev_hash}{payload}".encode()).hexdigest()


class LedgerEntry(_Record):
    __slots__ = ("index", "prev_hash", "payload", "hash")

    # Own constructor: ~50,000 per sybil_identity round (run, load, replay); 0.4 us vs 1.2 us for _Record's.
    def __init__(self, index: int, prev_hash: str, payload: str, hash: str):
        _set_index(self, index)
        _set_prev_hash(self, prev_hash)
        _set_payload(self, payload)  # canonical JSON text; the exact bytes are the hash preimage
        _set_hash(self, hash)


# Each slot's own setter, which skips object.__setattr__'s lookup of the name.
_set_index, _set_prev_hash, _set_payload, _set_hash = (getattr(LedgerEntry, n).__set__ for n in LedgerEntry.__slots__)


class Ledger:
    """Append-only hash chain; single writer, and append is its one write method.

    append hands each entry to the sink as it is hashed, and the ledger itself
    keeps only its head and its count.  With no sink the entries are kept in a
    list, which iterating the ledger reads; `govlab run` passes a sink that
    writes each entry's line to the staged ledger file, and replay one that
    compares it.
    """

    def __init__(self, sink: Callable[[LedgerEntry], object] | None = None):
        self._entries: list[LedgerEntry] | None = None
        if sink is None:
            self._entries = []
            sink = self._entries.append
        self._sink = sink
        self._count = 0
        self._head = GENESIS_PREV_HASH

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        if self._entries is None:
            raise LedgerError("this ledger streams its entries to a sink and keeps none")
        return iter(self._entries)

    def head_hash(self) -> str:
        """Digest of the newest entry; all zeros for an empty chain."""
        return self._head

    def append(self, text: str) -> LedgerEntry:
        """Append one event's canonical text and return its entry.  If the sink raises,
        the entry is not appended: the count and head stay at the entry before it."""
        index, prev = self._count, self._head
        entry = LedgerEntry(index, prev, text, entry_hash(index, prev, text))
        self._sink(entry)
        self._count, self._head = index + 1, entry.hash
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


def ndjson_line(entry: LedgerEntry) -> str:
    """Render one entry as its NDJSON line: the canonical JSON of its four fields,
    written directly (keys in sorted order, strings escaped exactly as canonical_json
    escapes them).  The payload is embedded as a JSON string so the exact hash
    preimage survives the round-trip byte for byte."""
    return (
        f'{{"hash":{_quote(entry.hash)},"index":{entry.index},"payload":{_quote(entry.payload)},'
        f'"prev_hash":{_quote(entry.prev_hash)}}}\n'
    )


def dump_ndjson(entries: Iterable[LedgerEntry]) -> str:
    """Render entries as newline-delimited JSON, one ndjson_line per entry."""
    return "".join(map(ndjson_line, entries))


def load_ndjson(text: str) -> list[LedgerEntry]:
    """Parse a persisted ledger; raises LedgerError on malformed lines."""
    # Lines end at "\n" only: str.splitlines() would also break inside a payload
    # at U+2028, U+0085 and other separators.  A "\r" before it is JSON whitespace.
    return list(_entries(text.split("\n")))


# The exact line ndjson_line writes, up to the payload's text and after it, compiled at
# the first read (re caches it), not at import.  A longer index takes the decoder, which
# keeps its error for one past int()'s digit limit.
_LINE_HEAD = r'\{"hash":"([0-9a-f]{64})","index":(0|[1-9][0-9]{0,17}),"payload":"'
_LINE_TAIL = r',"prev_hash":"([0-9a-f]{64})"\}'


def _entries(lines: Iterable[str]) -> Iterator[LedgerEntry]:
    """The entry on each line that is not blank, numbered from 1.

    A line as ndjson_line writes it, with an ASCII payload, is read by two patterns
    and the payload's string by scanstring, the scanner json's decoder runs on
    strings; its fields then have the types and shapes _decoded_entry checks for.
    Any other line (whitespace, another key order, a longer index, a non-ASCII
    payload, a fault) takes _decoded_entry, so its entry or error is unchanged.
    """
    head_of, tail_of = re.compile(_LINE_HEAD).match, re.compile(_LINE_TAIL).fullmatch
    for lineno, line in enumerate(lines, start=1):
        if head := head_of(line):
            try:
                payload, end = scanstring(line, head.end())
            except ValueError:  # _decoded_entry names the fault
                pass
            else:
                if payload.isascii() and (tail := tail_of(line, end)):
                    yield LedgerEntry(int(head[2]), tail[1], payload, head[1])
                    continue
        if line and not line.isspace():
            yield _decoded_entry(lineno, line)


def _decoded_entry(lineno: int, line: str) -> LedgerEntry:
    """Line lineno's entry, through a full JSON decode and a check of each field."""
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
            raise LedgerError(f"line {lineno}: payload holds a lone surrogate at offset {exc.start}") from exc
    if type(prev_hash) is not str or not _HEX64.fullmatch(prev_hash):
        raise LedgerError(f"line {lineno}: prev_hash must be 64 lowercase hex chars: {prev_hash!r}")
    if type(digest) is not str or not _HEX64.fullmatch(digest):
        raise LedgerError(f"line {lineno}: hash must be 64 lowercase hex chars: {digest!r}")
    return LedgerEntry(index, prev_hash, payload, digest)


class StagedFiles:
    """Outputs written to temporary files beside their paths and moved into place together.

    open() checks the path and opens its temporary file, as ASCII text: every output (report,
    ledger, CSV) is canonical JSON or validated ids and digits; commit() closes every file and
    os.replaces each into place in the order they were opened.  Leaving the block closes
    every file and removes each temporary one, so an error before commit leaves every path
    as it was and no temporary file behind.  inputs are the paths the outputs are made
    from, which open() refuses to write.  Each path is resolved once: the inputs here,
    each output when it is opened.
    """

    def __init__(self, inputs: Iterable = ()):
        self._inputs = {os.path.realpath(path) for path in inputs}
        self._outputs: set[str] = set()  # the resolved paths of the outputs opened
        self._staged: list[tuple[Any, str, str]] = []  # (file, temporary path, path)

    def __enter__(self) -> StagedFiles:
        return self

    def open(self, path):
        path = os.fspath(path)
        # os.replace would refuse only at commit, after the outputs before it were replaced.
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        # The later of two outputs to one file would replace the earlier at commit.
        real = os.path.realpath(path)
        if real in self._inputs:
            raise GovlabError(f"{path}: an output would replace an input file")
        if real in self._outputs:
            raise GovlabError(f"{path}: two outputs would be written to this file")
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            fh = open(tmp, "w", encoding="ascii", newline="")
        except OSError as exc:  # named by the path given: the temporary file is not the user's
            raise OSError(exc.errno, exc.strerror, path) from None
        self._staged.append((fh, tmp, path))
        self._outputs.add(real)
        return fh

    def commit(self) -> None:
        for fh, _, _ in self._staged:
            fh.close()
        for _, tmp, path in self._staged:
            os.replace(tmp, path)
        self._staged, self._outputs = [], set()

    def __exit__(self, *exc_info) -> None:
        for fh, tmp, _ in self._staged:
            with contextlib.suppress(OSError):
                fh.close()
            with contextlib.suppress(OSError):
                os.remove(tmp)


def write_ndjson(entries: Iterable[LedgerEntry], path) -> None:
    """Write entries to path line by line, through a temporary file moved into place."""
    with StagedFiles() as staged:
        staged.open(path).writelines(map(ndjson_line, entries))
        staged.commit()


def iter_ndjson(path) -> Iterator[LedgerEntry]:
    """The entries of the ledger file at path, read and checked one line at a time.

    Errors are load_ndjson's, and a byte sequence that is not UTF-8 raises
    LedgerError("<path>: not UTF-8 at byte offset K"); the first fault in the file
    is the one raised.  The file is opened at the first entry drawn.
    """
    return _entries(_utf8_lines(path))


def _utf8_lines(path) -> Iterator[str]:
    """Each line of the file at path, decoded and without its "\\n"."""
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:  # a binary file's lines end at b"\n" only
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LedgerError(f"{path}: not UTF-8 at byte offset {offset + exc.start}") from exc
            offset += len(raw)
            yield line.removesuffix("\n")


def read_ndjson(path) -> list[LedgerEntry]:
    return list(iter_ndjson(path))
