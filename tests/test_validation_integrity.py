"""Artifact-integrity envelope: digests, quarantine, atomic writes."""

import json
import os
import pickle

import pytest

from repro.telemetry.session import Telemetry
from repro.util.errors import ArtifactIntegrityError
from repro.validation import integrity


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "artifact.bin")


class TestEnvelopeRoundTrip:
    def test_payload_and_version_survive(self, path):
        integrity.write_envelope(path, b"hello payload", schema="demo",
                                 version=3)
        payload, version = integrity.read_envelope(path, schema="demo")
        assert payload == b"hello payload"
        assert version == 3

    def test_empty_payload(self, path):
        integrity.write_envelope(path, b"", schema="demo")
        payload, _ = integrity.read_envelope(path, schema="demo")
        assert payload == b""

    def test_object_round_trip(self, path):
        value = {"knobs": [1.5, 2.5], "tier": "memcached"}
        integrity.save_object(path, value, schema="demo")
        assert integrity.load_object(path, schema="demo") == value

    def test_write_is_atomic_no_scratch_left(self, path):
        integrity.write_envelope(path, b"x" * 1024, schema="demo")
        leftovers = [name for name in os.listdir(os.path.dirname(path))
                     if ".tmp" in name]
        assert leftovers == []

    def test_missing_file_is_file_not_found(self, path):
        with pytest.raises(FileNotFoundError):
            integrity.read_envelope(path, schema="demo")


class TestCorruptionDetection:
    def _write(self, path):
        integrity.write_envelope(path, b"payload-bytes" * 10, schema="demo")

    def test_truncation_detected_and_quarantined(self, path):
        self._write(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-7])
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "truncated"
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantined")
        assert excinfo.value.quarantined_to == path + ".quarantined"

    def test_trailing_garbage_detected(self, path):
        self._write(path)
        with open(path, "ab") as handle:
            handle.write(b"garbage")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "truncated"
        assert os.path.exists(path + ".quarantined")

    def test_bit_flip_detected(self, path):
        self._write(path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "digest_mismatch"
        assert os.path.exists(path + ".quarantined")

    def test_foreign_file_is_bad_header(self, path):
        with open(path, "wb") as handle:
            handle.write(b"this was never an envelope")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo")
        assert excinfo.value.reason == "bad_header"

    def test_schema_mismatch_rejected(self, path):
        self._write(path)
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="other-schema")
        assert excinfo.value.reason == "bad_header"

    def test_future_version_rejected_but_not_quarantined(self, path):
        integrity.write_envelope(path, b"p", schema="demo", version=9)
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_envelope(path, schema="demo", max_version=1)
        assert excinfo.value.reason == "version"
        # The file is intact, just newer than this reader — keep it.
        assert os.path.exists(path)
        assert not os.path.exists(path + ".quarantined")

    def test_valid_digest_bad_pickle_quarantined(self, path):
        # A digest-valid envelope whose payload is not a pickle: the
        # digest passes, unpickling fails, and the file must still be
        # quarantined instead of half-trusted.
        integrity.write_envelope(path, b"\x80not really a pickle",
                                 schema="demo")
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.load_object(path, schema="demo")
        assert excinfo.value.reason == "undecodable"
        assert os.path.exists(path + ".quarantined")

    def test_quarantine_counted_in_telemetry(self, path):
        self._write(path)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        session = Telemetry()
        session.activate()
        try:
            with pytest.raises(ArtifactIntegrityError):
                integrity.read_envelope(path, schema="demo")
            metric = session.registry.counter(
                "ditto_artifact_quarantines_total",
                "persisted artifacts that failed integrity checks and "
                "were quarantined", ("schema", "reason"))
            assert metric.value(schema="demo",
                                reason="digest_mismatch") == 1
        finally:
            session.deactivate()


class TestJsonStamping:
    def test_stamp_and_verify_round_trip(self):
        document = {"format": "demo", "tiers": {"a": 1, "b": [2, 3]}}
        integrity.stamp_json(document)
        assert document["integrity"]["algorithm"] == "sha256-canonical-json"
        integrity.verify_json(document)  # no raise

    def test_tampered_document_rejected(self):
        document = integrity.stamp_json({"value": 41})
        document["value"] = 42
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.verify_json(document, path="doc.json")
        assert excinfo.value.reason == "digest_mismatch"

    def test_unstamped_document_passes(self):
        integrity.verify_json({"format": "demo", "value": 1})

    def test_key_order_does_not_matter(self):
        stamped = integrity.stamp_json({"a": 1, "b": 2})
        reordered = {"b": 2, "a": 1,
                     "integrity": dict(stamped["integrity"])}
        integrity.verify_json(reordered)

    def test_unknown_algorithm_rejected(self):
        document = integrity.stamp_json({"v": 1})
        document["integrity"]["algorithm"] = "crc32"
        with pytest.raises(ArtifactIntegrityError):
            integrity.verify_json(document)


class TestJsonFiles:
    def test_round_trip_is_canonical(self, tmp_path):
        path = tmp_path / "doc.json"
        document = integrity.stamp_json({"format": "demo", "b": [1, 2],
                                         "a": {"y": 1, "x": 2}})
        integrity.write_json(path, document)
        assert path.read_text() == json.dumps(document, indent=1,
                                              sort_keys=True)
        assert integrity.read_json(path, schema="demo") == document

    def test_no_scratch_left(self, tmp_path):
        integrity.write_json(tmp_path / "doc.json", {"v": 1})
        assert sorted(os.listdir(tmp_path)) == ["doc.json"]

    def test_undecodable_document_quarantined(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"format": "demo", "tiers": ')
        with pytest.raises(ArtifactIntegrityError) as excinfo:
            integrity.read_json(path, schema="demo")
        assert excinfo.value.reason == "undecodable"
        assert not path.exists()
        assert excinfo.value.quarantined_to == f"{path}.quarantined"
        assert os.path.exists(excinfo.value.quarantined_to)

    def test_tampered_document_quarantined_and_counted(self, tmp_path):
        path = tmp_path / "doc.json"
        integrity.write_json(path, integrity.stamp_json({"label": "a"}))
        path.write_text(path.read_text().replace('"a"', '"b"'))
        session = Telemetry()
        session.activate()
        try:
            with pytest.raises(ArtifactIntegrityError) as excinfo:
                integrity.read_json(path, schema="demo")
            metric = session.registry.get("ditto_artifact_quarantines_total")
            assert metric.value(schema="demo",
                                reason="digest_mismatch") == 1
        finally:
            session.deactivate()
        assert excinfo.value.reason == "digest_mismatch"
        assert os.path.exists(f"{path}.quarantined")

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            integrity.read_json(tmp_path / "absent.json", schema="demo")


class TestLoadOrMiss:
    def test_hit(self, path):
        integrity.save_object(path, [1, 2], schema="demo")
        assert integrity.load_or_miss(path, schema="demo") == [1, 2]

    def test_absent_is_miss(self, path):
        assert integrity.load_or_miss(path, schema="demo") is None
        assert not os.path.exists(path + ".quarantined")

    def test_corrupt_is_quarantined_miss(self, path):
        integrity.save_object(path, [1, 2], schema="demo")
        with open(path, "ab") as handle:
            handle.write(b"junk")
        assert integrity.load_or_miss(path, schema="demo") is None
        assert not os.path.exists(path)
        assert os.path.exists(path + ".quarantined")

    def test_future_version_is_miss_left_in_place(self, path):
        integrity.save_object(path, [1, 2], schema="demo", version=9)
        assert integrity.load_or_miss(path, schema="demo",
                                      max_version=1) is None
        assert os.path.exists(path)
        assert not os.path.exists(path + ".quarantined")

    # The same cases through an ArtifactStore, the one caller of
    # load_or_miss in the program.
    def test_store_hit(self, tmp_path):
        store = integrity.ArtifactStore(tmp_path / "store", "demo")
        assert store.put("k", [1, 2]) is True
        assert store.path("k") == str(tmp_path / "store" / "k.pkl")
        assert store.get("k") == [1, 2]

    def test_store_absent_is_miss(self, tmp_path):
        store = integrity.ArtifactStore(tmp_path / "store", "demo")
        assert store.get("k") is None
        assert os.listdir(store.directory) == []

    def test_store_corrupt_is_quarantined_miss(self, tmp_path):
        store = integrity.ArtifactStore(tmp_path / "store", "demo")
        store.put("k", [1, 2])
        with open(store.path("k"), "ab") as handle:
            handle.write(b"junk")
        assert store.get("k") is None
        assert not os.path.exists(store.path("k"))
        assert os.path.exists(store.path("k") + ".quarantined")
        assert store.put("k", [1, 2]) is True  # the miss is re-filled
        assert store.get("k") == [1, 2]

    def test_store_future_version_is_miss_left_in_place(self, tmp_path):
        directory = tmp_path / "store"
        integrity.ArtifactStore(directory, "demo", version=9).put("k", [1])
        store = integrity.ArtifactStore(directory, "demo", version=1)
        assert store.get("k") is None
        assert os.path.exists(store.path("k"))
        assert not os.path.exists(store.path("k") + ".quarantined")

    def test_store_put_is_write_once(self, tmp_path):
        store = integrity.ArtifactStore(tmp_path / "store", "demo")
        assert store.put("k", [1]) is True
        assert store.put("k", [2]) is False
        assert store.get("k") == [1]
