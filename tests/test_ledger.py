"""Hash chain integrity, tamper localization, and NDJSON persistence.

The digest oracles here are the from-scratch SHA-256 in tests/oracles.py and
hashlib's, so a fault in the interpreter's built-in SHA-256, which the ledger
uses, or a silent preimage change cannot slip past unnoticed.
"""

import functools
import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.core import (
    JSON_FAULTS,
    CanonicalJsonError,
    GovlabError,
    ProposalId,
    WalletId,
    _reject_float,
    canonical_json,
    loads_canonical,
)
from govlab.events import cast_template
from govlab.ledger import (
    GENESIS_PREV_HASH,
    Ledger,
    LedgerEntry,
    LedgerError,
    dump_ndjson,
    entry_hash,
    iter_ndjson,
    load_ndjson,
    ndjson_line,
    read_ndjson,
    verify_chain,
    write_ndjson,
)

from govlab.scenario import load_preset
from govlab.simulation import run

from oracles import ndjson_line_ref, sha256_pure


def _payloads(n):
    return [canonical_json({"event": "cast", "seq": i}) for i in range(n)]


def _chain(n):
    ledger = Ledger()
    for text in _payloads(n):
        ledger.append(text)
    return ledger


payload_text = st.dictionaries(
    st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6),
    st.integers(min_value=-(10**6), max_value=10**6) | st.text(max_size=8) | st.booleans(),
    max_size=5,
).map(canonical_json)


def _check_against_both_oracles(index, prev, payload):
    preimage = str(index).encode("ascii") + prev.encode("ascii") + payload.encode("utf-8")
    digest = entry_hash(index, prev, payload)
    assert digest == sha256_pure(preimage)
    assert digest == hashlib.sha256(preimage).hexdigest()


class TestEntryHash:
    def test_preimage_is_index_prev_payload_concatenation(self):
        """The digest is SHA-256 over the decimal index, the hex prev, then the payload bytes."""
        payload = canonical_json({"event": "genesis"})
        preimage = b"0" + GENESIS_PREV_HASH.encode() + payload.encode()
        assert entry_hash(0, GENESIS_PREV_HASH, payload) == sha256_pure(preimage)

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.text("0123456789abcdef", max_size=64),
        st.text(st.characters(exclude_categories=("Cs",)), max_size=80) | payload_text,
    )
    @settings(max_examples=200)
    def test_matches_independent_sha256(self, index, prev, payload):
        _check_against_both_oracles(index, prev, payload)

    # Either side of SHA-256's padding and block boundaries, in ASCII and in 2-, 3- and 4-byte UTF-8.
    @pytest.mark.parametrize(
        "index, prev, payload, length",
        [
            (0, "", "a" * 54, 55),
            (0, "", "a" * 55, 56),
            (0, "", "a" * 62, 63),
            (0, "", "a" * 63, 64),
            (0, GENESIS_PREV_HASH, "a" * 54, 119),
            (0, "", "\u00e9" * 27, 55),
            (7, "", "\u20ac" * 18 + "x", 56),
            (1234, "", "\U0001f600" * 15, 64),
            (0, GENESIS_PREV_HASH, "\U0001f600" * 13 + "ab", 119),
        ],
    )
    def test_matches_at_block_boundaries(self, index, prev, payload, length):
        assert len(f"{index}{prev}{payload}".encode()) == length
        _check_against_both_oracles(index, prev, payload)

    def test_a_megabyte_payload_matches_hashlib(self):
        payload = canonical_json({"event": "genesis", "blob": "\u00e9x" * 350_000})
        preimage = ("3" + GENESIS_PREV_HASH + payload).encode("utf-8")
        assert len(preimage) >= 10**6
        assert entry_hash(3, GENESIS_PREV_HASH, payload) == hashlib.sha256(preimage).hexdigest()

    def test_index_width_cannot_be_confused_with_prev_bytes(self):
        """Index 1 with prev '1...' and index 11 with prev '...' must not collide."""
        prev_a = "1" + "0" * 63
        prev_b = "0" * 64
        assert entry_hash(1, prev_a, "{}") != entry_hash(11, prev_b, "{}")


class TestAppend:
    def test_genesis_links_to_all_zero_hash(self):
        (entry,) = _chain(1)
        assert entry.index == 0
        assert entry.prev_hash == GENESIS_PREV_HASH

    def test_each_entry_links_to_its_predecessor(self):
        ledger = _chain(4)
        for a, b in zip(ledger, list(ledger)[1:]):
            assert b.prev_hash == a.hash
            assert b.index == a.index + 1

    def test_empty_head_hash_is_all_zeros(self):
        assert Ledger().head_hash() == "0" * 64

    def test_head_hash_tracks_the_newest_entry(self):
        ledger = _chain(3)
        assert ledger.head_hash() == list(ledger)[2].hash

    def test_append_returns_the_stored_entry(self):
        ledger = _chain(1)
        entry = ledger.append('{"a":2,"b":1}')
        first, second = ledger
        assert entry is second
        assert entry.payload == '{"a":2,"b":1}'
        assert entry.prev_hash == first.hash

    def test_template_text_is_stored_as_a_plain_str(self):
        line = cast_template(ProposalId("p1"), "yes")(7)
        texts = [line(2 * 10**9, WalletId(w)) for w in ("w", "v")]
        ledger = Ledger()
        for text in texts:
            ledger.append(text)
        assert [type(e.payload) for e in ledger] == [str, str]
        assert [e.payload for e in ledger] == texts
        assert verify_chain(tuple(ledger)) is None

    def test_a_failed_append_leaves_the_ledger_at_the_entry_before_it(self):
        """An append that raises, in the sink or in hashing a text with no UTF-8 bytes,
        appends nothing: len and head_hash() stay at the previous entry, which the next
        append follows."""
        def refuse(entry):
            if entry.payload == "refused":
                raise LedgerError("stop")
            received.append(entry)

        received = []
        listed, streaming = Ledger(), Ledger(refuse)
        failures = [
            (listed, "\ud800", UnicodeEncodeError),
            (streaming, "refused", LedgerError),
            (streaming, "\ud800", UnicodeEncodeError),
        ]
        for ledger in (listed, streaming):
            for text in _payloads(3):
                ledger.append(text)
        for ledger, text, error in failures:
            with pytest.raises(error):
                ledger.append(text)
            assert len(ledger) == 3 and ledger.head_hash() == _chain(3).head_hash()
        for ledger in (listed, streaming):
            ledger.append(_payloads(4)[3])
            assert len(ledger) == 4 and ledger.head_hash() == _chain(4).head_hash()
        assert list(listed) == received == list(_chain(4))

    def test_a_sink_receives_each_entry_and_the_ledger_keeps_none(self):
        received = []
        ledger = Ledger(received.append)
        for text in _payloads(4):
            entry = ledger.append(text)
            assert entry is received[-1]
        assert received == list(_chain(4))
        assert len(ledger) == 4 and ledger.head_hash() == received[-1].hash
        with pytest.raises(LedgerError, match="keeps none"):
            list(ledger)

    def test_a_ledger_has_no_indexing(self):
        """Entries are read in order by iterating, or not kept at all (see the sink)."""
        with pytest.raises(TypeError):
            _chain(1)[0]

    def test_entries_are_immutable(self):
        (entry,) = _chain(1)
        with pytest.raises(AttributeError, match="^LedgerEntry is immutable$"):
            entry.payload = "{}"


class TestVerifyChain:
    def test_empty_chain_verifies(self):
        assert verify_chain([]) is None

    @given(st.lists(payload_text, max_size=12))
    @settings(max_examples=50)
    def test_any_appended_chain_verifies(self, payloads):
        ledger = Ledger()
        for text in payloads:
            ledger.append(text)
        assert verify_chain(tuple(ledger)) is None

    @pytest.mark.parametrize("victim", [0, 2, 4])
    def test_payload_mutation_is_localized(self, victim):
        entries = list(_chain(5))
        entry = entries[victim]
        entries[victim] = entry._replace(payload=entry.payload.replace('"cast"', '"CAST"'))
        assert verify_chain(entries) == victim

    def test_single_bit_flip_in_payload_detected(self):
        entries = list(_chain(3))
        raw = bytearray(entries[1].payload.encode())
        raw[0] ^= 0x01
        entries[1] = entries[1]._replace(payload=raw.decode())
        assert verify_chain(entries) == 1

    def test_hash_mutation_detected_at_its_own_index(self):
        entries = list(_chain(4))
        bad = ("0" if entries[2].hash[0] != "0" else "1") + entries[2].hash[1:]
        entries[2] = entries[2]._replace(hash=bad)
        assert verify_chain(entries) == 2

    def test_prev_hash_mutation_detected(self):
        entries = list(_chain(4))
        entries[3] = entries[3]._replace(prev_hash="f" * 64)
        assert verify_chain(entries) == 3

    def test_index_mutation_detected(self):
        entries = list(_chain(4))
        entries[1] = entries[1]._replace(index=5)
        assert verify_chain(entries) == 1

    def test_reordering_detected(self):
        entries = list(_chain(4))
        entries[1], entries[2] = entries[2], entries[1]
        assert verify_chain(entries) == 1

    def test_recomputing_hashes_after_an_edit_still_breaks_the_link(self):
        """An attacker who re-hashes an edited entry still breaks the next link."""
        entries = list(_chain(4))
        forged_payload = canonical_json({"event": "cast", "seq": 999})
        forged = LedgerEntry(
            index=1,
            prev_hash=entries[1].prev_hash,
            payload=forged_payload,
            hash=entry_hash(1, entries[1].prev_hash, forged_payload),
        )
        entries[1] = forged
        assert verify_chain(entries) == 2  # entry 2's prev_hash no longer matches

    def test_truncation_is_not_detectable_without_the_head_hash(self):
        """Dropping the tail leaves a valid prefix; the published head is the defense."""
        full = _chain(5)
        truncated = tuple(full)[:3]
        assert verify_chain(truncated) is None
        assert truncated[-1].hash != full.head_hash()

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=7))
    @settings(max_examples=60)
    def test_byte_flip_anywhere_is_caught_at_or_before_the_entry(self, victim, byte_pos):
        entries = list(_chain(5))
        raw = bytearray(entries[victim].payload.encode())
        raw[byte_pos % len(raw)] ^= 0x01
        mutated = raw.decode("utf-8", errors="replace")
        if mutated == entries[victim].payload:  # flip landed outside ascii content
            return
        entries[victim] = entries[victim]._replace(payload=mutated)
        assert verify_chain(entries) == victim


class TestNdjsonRoundTrip:
    def test_round_trip_is_byte_exact(self, tmp_path):
        ledger = _chain(4)
        path = tmp_path / "ledger.ndjson"
        write_ndjson(tuple(ledger), path)
        loaded = read_ndjson(path)
        assert loaded == list(ledger)
        assert dump_ndjson(loaded) == dump_ndjson(tuple(ledger))
        assert verify_chain(loaded) is None

    def test_streamed_lines_are_the_dump(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        with open(path, "w", encoding="ascii", newline="") as fh:
            streaming = Ledger(lambda entry: fh.write(ndjson_line(entry)))
            for text in _payloads(4):
                streaming.append(text)
        assert path.read_text("ascii") == dump_ndjson(_chain(4))

    def test_write_ndjson_refuses_a_directory_and_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "ledger.ndjson"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            write_ndjson(tuple(_chain(2)), target)
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.ndjson"]

    def test_one_line_per_entry(self):
        text = dump_ndjson(tuple(_chain(3)))
        lines = text.splitlines()
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_payload_survives_as_embedded_string(self):
        ledger = Ledger()
        ledger.append(canonical_json({"note": "tie on é"}))
        (loaded,) = load_ndjson(dump_ndjson(tuple(ledger)))
        assert loaded.payload == next(iter(ledger)).payload
        assert verify_chain([loaded]) is None

    def test_blank_lines_are_skipped(self):
        text = dump_ndjson(tuple(_chain(2)))
        padded = "\n" + text.replace("\n", "\n\n", 1)
        assert load_ndjson(padded) == list(_chain(2))

    def test_tampered_file_still_loads_and_verify_localizes(self, tmp_path):
        ledger = _chain(4)
        path = tmp_path / "ledger.ndjson"
        write_ndjson(tuple(ledger), path)
        text = path.read_text()
        lines = text.splitlines()
        lines[2] = lines[2].replace('\\"seq\\":2', '\\"seq\\":7')
        assert lines[2] != text.splitlines()[2]
        path.write_text("\n".join(lines) + "\n")
        loaded = read_ndjson(path)
        assert verify_chain(loaded) == 2

    def test_malformed_json_line_rejected(self):
        with pytest.raises(LedgerError, match="line 1"):
            load_ndjson("not json\n")

    def test_extra_fields_rejected(self):
        (entry,) = _chain(1)
        obj = {
            "index": 0,
            "prev_hash": entry.prev_hash,
            "payload": entry.payload,
            "hash": entry.hash,
            "note": "sneaky",
        }
        with pytest.raises(LedgerError, match="not a ledger entry"):
            load_ndjson(canonical_json(obj) + "\n")

    def test_missing_fields_rejected(self):
        with pytest.raises(LedgerError, match="not a ledger entry"):
            load_ndjson('{"index":0}\n')

    def test_bad_hash_shape_rejected(self):
        (entry,) = _chain(1)
        obj = {
            "index": 0,
            "prev_hash": "xyz",
            "payload": entry.payload,
            "hash": entry.hash,
        }
        with pytest.raises(LedgerError, match="64 lowercase hex"):
            load_ndjson(canonical_json(obj) + "\n")

    def test_negative_or_bool_index_rejected(self):
        (entry,) = _chain(1)
        for bad in (-1, True):
            obj = {
                "index": bad,
                "prev_hash": entry.prev_hash,
                "payload": entry.payload,
                "hash": entry.hash,
            }
            with pytest.raises(LedgerError, match="non-negative int"):
                load_ndjson(canonical_json(obj) + "\n")

    def test_hash_fields_must_be_exactly_64_lowercase_hex(self):
        (entry,) = _chain(1)
        good = entry.hash
        for bad in (good.upper(), good[:-1], good + "0", good[:-1] + "\n", good[:-1] + "g", 7):
            obj = {"index": 0, "prev_hash": entry.prev_hash, "payload": entry.payload, "hash": bad}
            with pytest.raises(LedgerError, match="64 lowercase hex"):
                load_ndjson(canonical_json(obj) + "\n")

    def test_non_utf8_file_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        path.write_bytes(dump_ndjson(tuple(_chain(1))).encode("ascii") + b"\xff\n")
        with pytest.raises(LedgerError, match=f"byte offset {path.stat().st_size - 2}"):
            read_ndjson(path)

    def test_the_first_fault_in_file_order_is_reported(self, tmp_path):
        """The file is decoded one line at a time: a malformed line before a byte that is not
        UTF-8 is the error, and the byte is when it comes first."""
        good = dump_ndjson(tuple(_chain(2))).encode("ascii")
        path = tmp_path / "ledger.ndjson"
        path.write_bytes(b"not json\n" + good + b"\xff\n")
        with pytest.raises(LedgerError, match="^line 1: malformed JSON"):
            read_ndjson(path)
        path.write_bytes(good + b"ok\xff\nnot json\n")
        with pytest.raises(LedgerError, match=f"not UTF-8 at byte offset {len(good) + 2}$"):
            read_ndjson(path)

    def test_entries_are_read_one_line_at_a_time(self, tmp_path):
        entries = tuple(_chain(3))
        path = tmp_path / "ledger.ndjson"
        path.write_bytes(dump_ndjson(entries[:2]).encode("ascii") + b"not json\n" + dump_ndjson(entries[2:]).encode("ascii"))
        lines = iter_ndjson(path)
        assert [next(lines), next(lines)] == list(entries[:2])
        with pytest.raises(LedgerError, match="^line 3: malformed JSON"):
            next(lines)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_the_file_reader_reads_what_load_ndjson_reads(self, tmp_path, newline):
        text = "\n".join(_pinned_lines()).replace("\n", newline)
        path = tmp_path / "ledger.ndjson"
        path.write_bytes(text.encode("ascii"))
        entries = read_ndjson(path)
        assert entries == load_ndjson(text) == load_ndjson("\n".join(_pinned_lines()))
        assert verify_chain(entries) is None

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e"])
    def test_only_newline_ends_a_line(self, separator):
        """Characters str.splitlines() breaks at stay inside a payload's line."""
        payloads = [f'{{"note":"a{separator}b"}}', '{"note":"next"}']
        lines, prev = [], GENESIS_PREV_HASH
        for index, payload in enumerate(payloads):
            digest = entry_hash(index, prev, payload)
            obj = {"hash": digest, "index": index, "payload": payload, "prev_hash": prev}
            lines.append(json.dumps(obj, ensure_ascii=False))
            prev = digest
        entries = load_ndjson("\r\n".join(lines) + "\r\n")
        assert [e.payload for e in entries] == payloads
        assert verify_chain(entries) is None

    def test_lone_surrogate_payload_names_its_line(self):
        text = dump_ndjson(tuple(_chain(1))) + json.dumps(
            {"hash": "0" * 64, "index": 1, "payload": "x\ud800", "prev_hash": "0" * 64}
        )
        with pytest.raises(LedgerError, match="line 2: payload holds a lone surrogate at offset 1"):
            load_ndjson(text)

    @given(st.lists(payload_text, max_size=8))
    @settings(max_examples=40)
    def test_round_trip_then_verify_property(self, payloads):
        ledger = Ledger()
        for text in payloads:
            ledger.append(text)
        loaded = load_ndjson(dump_ndjson(tuple(ledger)))
        assert loaded == list(ledger)
        assert verify_chain(loaded) is None


# The reference: json's decode wrapped as loads_canonical wraps it, and a loader on top of it
# with the plain isinstance and set checks.
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def _decode_ref(text):
    try:
        return _DECODER.decode(text)
    except JSON_FAULTS as exc:
        raise CanonicalJsonError(f"malformed JSON: {exc}") from exc


def _load_ndjson_ref(text):
    entries = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = _decode_ref(line)
        except CanonicalJsonError as exc:
            raise LedgerError(f"line {lineno}: {exc}") from exc
        if not isinstance(obj, dict) or set(obj) != {"index", "prev_hash", "payload", "hash"}:
            raise LedgerError(f"line {lineno}: not a ledger entry")
        index, payload = obj["index"], obj["payload"]
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise LedgerError(f"line {lineno}: index must be a non-negative int")
        if not isinstance(payload, str):
            raise LedgerError(f"line {lineno}: payload must be a string")
        if not payload.isascii():
            try:
                payload.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise LedgerError(f"line {lineno}: payload holds a lone surrogate at offset {exc.start}") from exc
        for label in ("prev_hash", "hash"):
            if not isinstance(obj[label], str) or not re.fullmatch("[0-9a-f]{64}", obj[label]):
                raise LedgerError(f"line {lineno}: {label} must be 64 lowercase hex chars: {obj[label]!r}")
        entries.append(LedgerEntry(index, obj["prev_hash"], payload, obj["hash"]))
    return entries


def _outcome(fn, text):
    """The value's repr (so 1 and True differ), or the error's class and message."""
    try:
        return repr(fn(text))
    except GovlabError as exc:
        return type(exc), str(exc)


@functools.cache
def _pinned_lines():
    return dump_ndjson(run(load_preset("sybil_attack_quadratic")).ledger).split("\n")


@st.composite
def _mutated(draw, text):
    """text with one edit a hostile or careless writer could make."""
    kind = draw(st.sampled_from(["none", "lead", "trail", "cr", "garbage", "reorder", "duplicate", "float", "deep", "bigint"]))
    space = st.text(st.sampled_from(" \t\r\n\x0b\x0c\xa0\u2028"), min_size=1, max_size=3)
    obj = json.loads(text)
    if kind == "lead":
        return draw(space) + text
    if kind == "trail":
        return text + draw(space)
    if kind == "cr":
        return text + "\r"
    if kind == "garbage":
        return text + draw(st.sampled_from(["x", "}", "]", "{}", "0", ",", '"', "\\"]) | st.text(min_size=1, max_size=4))
    if kind == "reorder":
        return json.dumps(dict(draw(st.permutations(list(obj.items())))), separators=(",", ":"))
    if kind == "duplicate":
        key, value = draw(st.sampled_from(sorted(obj))), draw(st.sampled_from(["0", '"x"', "null", "[]", "1.5"]))
        return f"{{{json.dumps(key)}:{value},{text[1:]}" if draw(st.booleans()) else f"{text[:-1]},{json.dumps(key)}:{value}}}"
    if kind == "float":
        literal = draw(st.sampled_from(["1.5", "0e0", "1E400", "-0.0", "NaN", "Infinity", "-Infinity"]))
    elif kind == "bigint":
        literal = draw(st.sampled_from(["", "-"])) + draw(st.sampled_from(["9" * 4300, "9" * 4301, "1" + "0" * 4999]))
    if kind in ("float", "bigint"):  # the literal replaces an integer value, or leads an array around the text
        spots = [m.start(1) for m in re.finditer(r':(-?[0-9]+)[,}]', text)]
        if not spots:
            return f"[{literal},{text}]"
        at = draw(st.sampled_from(spots))
        return text[:at] + literal + re.sub(r"^-?[0-9]+", "", text[at:])
    if kind == "deep":
        depth = draw(st.sampled_from([2, 1000, 100_000]))
        return "[" * depth + text + "]" * draw(st.sampled_from([depth, depth - 1]))
    return text


# Put at the start or the end of a line's payload string: JSON escapes that decode to ASCII
# (\\, \/, \u0041), to non-ASCII (\u00e9) and to a lone surrogate (\ud800); raw non-ASCII and a
# raw control character; and an escape JSON does not have.
PAYLOAD_EDGES = ("\\\\", "\\/", "\\u0041", "\\u00e9", "\\ud800", "\u00e9", "\x01", "\\x")


@st.composite
def _line_mutated(draw, line):
    """line with one edit at an edge of the fixed shape that ndjson_line writes."""
    kind = draw(st.sampled_from(["index", "upper", "payload", "cr", "space"]))
    if kind == "index":  # 18 digits, 19, and forms JSON or the loader refuses
        digits = draw(st.sampled_from(["9" * 18, "1" + "0" * 17, "1" + "0" * 18, "9" * 19, "00", "07", "-0", "-1"]))
        return re.sub(r'"index":[0-9]+', f'"index":{digits}', line, count=1)
    if kind == "upper":
        key = draw(st.sampled_from(["hash", "prev_hash"]))
        start = line.index(f'"{key}":"') + len(key) + 4
        end = draw(st.sampled_from([start + 64, start + 1 + line[start:start + 64].find("a")]))
        return line[:start] + line[start:end].upper() + line[end:]
    if kind == "payload":
        edge = draw(st.sampled_from(PAYLOAD_EDGES))
        at = line.index('"payload":"') + 11 if draw(st.booleans()) else line.index('","prev_hash":"')
        return line[:at] + edge + line[at:]
    if kind == "cr":
        return line + "\r"
    return line[:-1] + " }"


def _read_ndjson_ref(path):
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc
    return _load_ndjson_ref(text)


class TestScanMatchesTheDecoder:
    """loads_canonical scans for one value first, and a ledger line as ndjson_line writes it is
    read by two patterns and scanstring; every text must get the decoder's value or error."""

    @given(st.data())
    @settings(max_examples=400)
    def test_lines_and_payloads_decode_as_before(self, data):
        lines = _pinned_lines()
        k = data.draw(st.integers(min_value=0, max_value=len(lines) - 2))
        payload = json.loads(lines[k])["payload"]
        mutated = data.draw(_mutated(payload))
        assert _outcome(loads_canonical, mutated) == _outcome(_decode_ref, mutated)
        for edit in (_mutated, _line_mutated):
            line = data.draw(edit(lines[k]))
            assert _outcome(loads_canonical, line) == _outcome(_decode_ref, line)
            text = "\n".join([*lines[:k], line, *lines[k + 1 :]])
            assert _outcome(load_ndjson, text) == _outcome(_load_ndjson_ref, text)
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "ledger.jsonl"
                path.write_bytes(text.encode("utf-8", "surrogatepass"))
                assert _outcome(read_ndjson, path) == _outcome(_read_ndjson_ref, path)

    @pytest.mark.parametrize(
        "edit",
        [f"payload:{edge}" for edge in PAYLOAD_EDGES] + ["index:" + "9" * 18, "index:1" + "0" * 18, "index:07", "upper", "cr", "space"],
    )
    def test_each_edge_of_the_line_path_reads_as_before(self, edit):
        """One fixed line per edge, so each stays covered whatever the draws above are."""
        line = _pinned_lines()[1]
        kind, _, value = edit.partition(":")
        if kind == "payload":
            at = line.index('","prev_hash":"')
            line = line[:at] + value + line[at:]
        elif kind == "index":
            line = re.sub(r'"index":[0-9]+', f'"index":{value}', line)
        elif kind == "upper":
            digest = json.loads(line)["hash"]
            line = line.replace(digest, digest.upper())
        else:
            line = line + "\r" if kind == "cr" else line[:-1] + " }"
        assert _outcome(load_ndjson, line) == _outcome(_load_ndjson_ref, line)


any_text = st.text(st.characters(blacklist_categories=()), max_size=12)
tricky = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "\u2028", "\ud800", "😀", "</"])


class TestDumpMatchesCanonicalLines:
    """ndjson_line writes each line directly, and dump_ndjson, write_ndjson and `govlab run`'s
    ledger sink all render through it; each line must equal the canonical JSON of its entry."""

    @given(
        st.lists(
            st.builds(
                LedgerEntry,
                index=st.integers(min_value=-(10**20), max_value=10**20),
                prev_hash=any_text,
                payload=st.lists(any_text | tricky, max_size=6).map("".join),
                hash=any_text,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=200)
    def test_any_entry_renders_like_the_reference(self, entries):
        expected = [ndjson_line_ref(e.index, e.prev_hash, e.payload, e.hash) for e in entries]
        assert [ndjson_line(e) for e in entries] == expected
        assert dump_ndjson(entries) == "".join(expected)
        old_form = "".join(
            canonical_json({"index": e.index, "prev_hash": e.prev_hash, "payload": e.payload, "hash": e.hash}) + "\n"
            for e in entries
        )
        assert dump_ndjson(entries) == old_form

    def test_non_ascii_payloads_round_trip(self):
        payload = '{"note":"caf\u00e9 \\"q\\" \\\\ \x01 \u2028 \U0001f600"}'
        entries = [LedgerEntry(0, GENESIS_PREV_HASH, payload, entry_hash(0, GENESIS_PREV_HASH, payload))]
        text = dump_ndjson(entries)
        assert text.isascii()
        assert text == ndjson_line_ref(0, GENESIS_PREV_HASH, payload, entries[0].hash)
        assert load_ndjson(text) == entries
        assert verify_chain(load_ndjson(text)) is None
