"""Hash chain integrity, tamper localization, and NDJSON persistence.

The digest oracle here is the from-scratch SHA-256 in tests/oracles.py, so a
hashlib regression or a silent preimage change cannot slip past unnoticed.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.core import ProposalId, TokenAmount, WalletId, _cast_json, canonical_json
from govlab.ledger import (
    GENESIS_PREV_HASH,
    Ledger,
    LedgerEntry,
    LedgerError,
    dump_ndjson,
    entry_hash,
    load_ndjson,
    read_ndjson,
    verify_chain,
    write_ndjson,
)

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


class TestEntryHash:
    def test_preimage_is_index_prev_payload_concatenation(self):
        """The digest is SHA-256 over the decimal index, the hex prev, then the payload bytes."""
        payload = canonical_json({"event": "genesis"})
        preimage = b"0" + GENESIS_PREV_HASH.encode() + payload.encode()
        assert entry_hash(0, GENESIS_PREV_HASH, payload) == sha256_pure(preimage)

    @given(st.integers(min_value=0, max_value=10**9), payload_text)
    @settings(max_examples=50)
    def test_matches_independent_sha256(self, index, payload):
        prev = sha256_pure(str(index).encode())
        expected = sha256_pure(str(index).encode("ascii") + prev.encode() + payload.encode())
        assert entry_hash(index, prev, payload) == expected

    def test_index_width_cannot_be_confused_with_prev_bytes(self):
        """Index 1 with prev '1...' and index 11 with prev '...' must not collide."""
        prev_a = "1" + "0" * 63
        prev_b = "0" * 64
        assert entry_hash(1, prev_a, "{}") != entry_hash(11, prev_b, "{}")


class TestAppend:
    def test_genesis_links_to_all_zero_hash(self):
        ledger = _chain(1)
        assert ledger[0].index == 0
        assert ledger[0].prev_hash == GENESIS_PREV_HASH

    def test_each_entry_links_to_its_predecessor(self):
        ledger = _chain(4)
        for a, b in zip(ledger, list(ledger)[1:]):
            assert b.prev_hash == a.hash
            assert b.index == a.index + 1

    def test_empty_head_hash_is_all_zeros(self):
        assert Ledger().head_hash() == "0" * 64

    def test_head_hash_tracks_the_newest_entry(self):
        ledger = _chain(3)
        assert ledger.head_hash() == ledger[2].hash

    def test_append_accepts_json_able_objects(self):
        ledger = Ledger()
        entry = ledger.append({"b": 1, "a": 2})
        assert entry.payload == '{"a":2,"b":1}'

    def test_append_rejects_non_canonical_text(self):
        ledger = Ledger()
        with pytest.raises(LedgerError, match="not canonical JSON"):
            ledger.append('{"a": 1}')  # spaces are not canonical

    def test_template_text_is_stored_as_a_plain_str(self):
        text = _cast_json(ProposalId("p1"), WalletId("w"), "yes", TokenAmount.parse(2), 7)
        entry = Ledger().append(text)
        assert type(entry.payload) is str
        assert entry.payload == text

    def test_append_rejects_floats(self):
        ledger = Ledger()
        with pytest.raises(LedgerError, match="not canonical JSON"):
            ledger.append({"x": 0.1})

    def test_entries_are_immutable(self):
        ledger = _chain(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ledger[0].payload = "{}"


class TestVerifyChain:
    def test_empty_chain_verifies(self):
        assert verify_chain([]) is None

    @given(st.lists(payload_text, max_size=12))
    @settings(max_examples=50)
    def test_any_appended_chain_verifies(self, payloads):
        ledger = Ledger()
        for text in payloads:
            ledger.append(text)
        assert verify_chain(ledger.entries) is None

    @pytest.mark.parametrize("victim", [0, 2, 4])
    def test_payload_mutation_is_localized(self, victim):
        entries = list(_chain(5).entries)
        entry = entries[victim]
        entries[victim] = dataclasses.replace(
            entry, payload=entry.payload.replace('"cast"', '"CAST"')
        )
        assert verify_chain(entries) == victim

    def test_single_bit_flip_in_payload_detected(self):
        entries = list(_chain(3).entries)
        raw = bytearray(entries[1].payload.encode())
        raw[0] ^= 0x01
        entries[1] = dataclasses.replace(entries[1], payload=raw.decode())
        assert verify_chain(entries) == 1

    def test_hash_mutation_detected_at_its_own_index(self):
        entries = list(_chain(4).entries)
        bad = ("0" if entries[2].hash[0] != "0" else "1") + entries[2].hash[1:]
        entries[2] = dataclasses.replace(entries[2], hash=bad)
        assert verify_chain(entries) == 2

    def test_prev_hash_mutation_detected(self):
        entries = list(_chain(4).entries)
        entries[3] = dataclasses.replace(entries[3], prev_hash="f" * 64)
        assert verify_chain(entries) == 3

    def test_index_mutation_detected(self):
        entries = list(_chain(4).entries)
        entries[1] = dataclasses.replace(entries[1], index=5)
        assert verify_chain(entries) == 1

    def test_reordering_detected(self):
        entries = list(_chain(4).entries)
        entries[1], entries[2] = entries[2], entries[1]
        assert verify_chain(entries) == 1

    def test_recomputing_hashes_after_an_edit_still_breaks_the_link(self):
        """An attacker who re-hashes an edited entry still breaks the next link."""
        entries = list(_chain(4).entries)
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
        truncated = full.entries[:3]
        assert verify_chain(truncated) is None
        assert truncated[-1].hash != full.head_hash()

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=7))
    @settings(max_examples=60)
    def test_byte_flip_anywhere_is_caught_at_or_before_the_entry(self, victim, byte_pos):
        entries = list(_chain(5).entries)
        raw = bytearray(entries[victim].payload.encode())
        raw[byte_pos % len(raw)] ^= 0x01
        mutated = raw.decode("utf-8", errors="replace")
        if mutated == entries[victim].payload:  # flip landed outside ascii content
            return
        entries[victim] = dataclasses.replace(entries[victim], payload=mutated)
        assert verify_chain(entries) == victim


class TestNdjsonRoundTrip:
    def test_round_trip_is_byte_exact(self, tmp_path):
        ledger = _chain(4)
        path = tmp_path / "ledger.ndjson"
        write_ndjson(ledger.entries, path)
        loaded = read_ndjson(path)
        assert loaded == list(ledger.entries)
        assert dump_ndjson(loaded) == dump_ndjson(ledger.entries)
        assert verify_chain(loaded) is None

    def test_one_line_per_entry(self):
        text = dump_ndjson(_chain(3).entries)
        lines = text.splitlines()
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_payload_survives_as_embedded_string(self):
        ledger = Ledger()
        ledger.append({"note": "tie on é"})
        (loaded,) = load_ndjson(dump_ndjson(ledger.entries))
        assert loaded.payload == ledger[0].payload
        assert verify_chain([loaded]) is None

    def test_blank_lines_are_skipped(self):
        text = dump_ndjson(_chain(2).entries)
        padded = "\n" + text.replace("\n", "\n\n", 1)
        assert load_ndjson(padded) == list(_chain(2).entries)

    def test_tampered_file_still_loads_and_verify_localizes(self, tmp_path):
        ledger = _chain(4)
        path = tmp_path / "ledger.ndjson"
        write_ndjson(ledger.entries, path)
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
        ledger = _chain(1)
        obj = {
            "index": 0,
            "prev_hash": ledger[0].prev_hash,
            "payload": ledger[0].payload,
            "hash": ledger[0].hash,
            "note": "sneaky",
        }
        with pytest.raises(LedgerError, match="not a ledger entry"):
            load_ndjson(canonical_json(obj) + "\n")

    def test_missing_fields_rejected(self):
        with pytest.raises(LedgerError, match="not a ledger entry"):
            load_ndjson('{"index":0}\n')

    def test_bad_hash_shape_rejected(self):
        ledger = _chain(1)
        obj = {
            "index": 0,
            "prev_hash": "xyz",
            "payload": ledger[0].payload,
            "hash": ledger[0].hash,
        }
        with pytest.raises(LedgerError, match="64 lowercase hex"):
            load_ndjson(canonical_json(obj) + "\n")

    def test_negative_or_bool_index_rejected(self):
        ledger = _chain(1)
        for bad in (-1, True):
            obj = {
                "index": bad,
                "prev_hash": ledger[0].prev_hash,
                "payload": ledger[0].payload,
                "hash": ledger[0].hash,
            }
            with pytest.raises(LedgerError, match="non-negative int"):
                load_ndjson(canonical_json(obj) + "\n")

    def test_hash_fields_must_be_exactly_64_lowercase_hex(self):
        ledger = _chain(1)
        good = ledger[0].hash
        for bad in (good.upper(), good[:-1], good + "0", good[:-1] + "\n", good[:-1] + "g", 7):
            obj = {"index": 0, "prev_hash": ledger[0].prev_hash, "payload": ledger[0].payload, "hash": bad}
            with pytest.raises(LedgerError, match="64 lowercase hex"):
                load_ndjson(canonical_json(obj) + "\n")

    def test_non_utf8_file_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "ledger.ndjson"
        path.write_bytes(dump_ndjson(_chain(1).entries).encode("ascii") + b"\xff\n")
        with pytest.raises(LedgerError, match=f"byte offset {path.stat().st_size - 2}"):
            read_ndjson(path)

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
        text = dump_ndjson(_chain(1).entries) + json.dumps(
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
        loaded = load_ndjson(dump_ndjson(ledger.entries))
        assert loaded == list(ledger.entries)
        assert verify_chain(loaded) is None


any_text = st.text(st.characters(blacklist_categories=()), max_size=12)
tricky = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "\u2028", "\ud800", "😀", "</"])


class TestDumpMatchesCanonicalLines:
    """dump_ndjson writes lines directly; they must equal the canonical JSON of each entry."""

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
        expected = "".join(ndjson_line_ref(e.index, e.prev_hash, e.payload, e.hash) for e in entries)
        assert dump_ndjson(entries) == expected
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
