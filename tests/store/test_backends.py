"""Backend contract: jsonl, sharded, and sqlite behind one API.

Every disk backend must satisfy the same observable contract —
durable puts, reopen fidelity, last-write-wins duplicates, damage
classification via ``health()``, atomic compaction — so the suite
parametrizes over all three and asserts identical behaviour, then pins
each backend's own mechanics (shard routing and manifest, sqlite
upsert/busy-retry, fsync knob plumbing).
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
import warnings

import pytest

from repro.store import (
    BACKENDS,
    RESULTS_FILENAME,
    SQLITE_FILENAME,
    STORE_BACKEND_ENV,
    STORE_FSYNC_ENV,
    DiskStore,
    MemoryStore,
    ShardedDiskStore,
    SqliteStore,
    detect_backend,
    fsync_from_env,
    open_store,
)
from repro.store.format import RECORD_SCHEMA_VERSION, result_to_dict
from repro.store.sharded import MANIFEST_FILENAME, SHARD_COUNT, shard_for

from store_helpers import fill, make_key, make_result


def open_backend(backend: str, directory, **kwargs):
    return open_store(str(directory), backend=backend, **kwargs)


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    return request.param


class TestContract:
    def test_put_get_reopen(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            pairs = fill(store)
            for key, result in pairs:
                assert store.get(key) == result
                assert key in store
            assert len(store) == len(pairs)
        with open_backend(backend, tmp_path) as reopened:
            assert sorted(reopened.keys()) == sorted(k for k, _ in pairs)
            for key, result in pairs:
                assert reopened.get(key) == result
            assert not reopened.health().damaged

    def test_auto_detection_resolves_backend(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            fill(store, 3)
        assert detect_backend(tmp_path) == backend
        with open_store(str(tmp_path)) as auto:
            assert type(auto).__name__ == type(
                open_backend(backend, tmp_path)
            ).__name__
            assert len(auto) == 3

    def test_overwrite_same_key_serves_last_value(self, backend, tmp_path):
        key = make_key(1)
        with open_backend(backend, tmp_path) as store:
            store.put(key, make_result(1))
            store.put(key, make_result(2))
            assert store.get(key) == make_result(2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # jsonl warns about the dup
            with open_backend(backend, tmp_path) as reopened:
                assert reopened.get(key) == make_result(2)
                assert len(reopened) == 1

    def test_put_after_close_reopens(self, backend, tmp_path):
        store = open_backend(backend, tmp_path)
        fill(store, 2)
        store.close()
        store.put(make_key(5), make_result(5))
        store.close()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with open_backend(backend, tmp_path) as reopened:
                assert len(reopened) == 3

    def test_compact_clean_store_is_lossless(self, backend, tmp_path):
        with open_backend(backend, tmp_path) as store:
            pairs = fill(store)
            assert store.compact() == 0
        with open_backend(backend, tmp_path) as reopened:
            for key, result in pairs:
                assert reopened.get(key) == result


class TestEnvKnobs:
    def test_backend_env_selects(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "sqlite")
        with open_store(str(tmp_path)) as store:
            assert isinstance(store, SqliteStore)

    def test_explicit_backend_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_BACKEND_ENV, "sqlite")
        with open_store(str(tmp_path), backend="sharded") as store:
            assert isinstance(store, ShardedDiskStore)

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_store(str(tmp_path), backend="tape")

    def test_empty_directory_is_memory(self):
        assert isinstance(open_store(None), MemoryStore)
        assert isinstance(open_store(""), MemoryStore)

    @pytest.mark.parametrize(
        "raw,expected",
        [("", False), ("0", False), ("false", False), ("off", False),
         ("1", True), ("true", True), ("yes", True)],
    )
    def test_fsync_env_parse(self, monkeypatch, raw, expected):
        monkeypatch.setenv(STORE_FSYNC_ENV, raw)
        assert fsync_from_env() is expected

    def test_fsync_knob_reaches_the_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_FSYNC_ENV, "1")
        store = open_store(str(tmp_path / "a"))
        assert store._log.fsync
        store.close()
        store = open_store(str(tmp_path / "b"), fsync=False)
        assert not store._log.fsync
        store.close()
        sq = open_store(str(tmp_path / "c"), backend="sqlite")
        assert sq.fsync
        sq.close()


class TestSharded:
    def test_records_land_in_their_shard(self, tmp_path):
        with open_backend("sharded", tmp_path) as store:
            pairs = fill(store, 24)
        for key, result in pairs:
            shard_path = tmp_path / "shards" / f"shard-{shard_for(key)}.jsonl"
            entries = [
                json.loads(line)
                for line in shard_path.read_text().splitlines()
            ]
            assert any(e["key"] == key for e in entries)

    def test_manifest_written_and_validated(self, tmp_path):
        with open_backend("sharded", tmp_path):
            pass
        manifest_path = tmp_path / "shards" / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["shard_count"] == SHARD_COUNT
        manifest["shard_count"] = 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="shard_count"):
            ShardedDiskStore(tmp_path)

    def test_non_hex_keys_still_route(self, tmp_path):
        with open_backend("sharded", tmp_path) as store:
            store.put("ZZZ-not-hex", make_result(1))
            assert store.get("ZZZ-not-hex") == make_result(1)
        with open_backend("sharded", tmp_path) as reopened:
            assert reopened.get("ZZZ-not-hex") == make_result(1)

    def test_damage_in_one_shard_spares_the_rest(self, tmp_path):
        with open_backend("sharded", tmp_path) as store:
            pairs = fill(store, 24)
            victim = tmp_path / "shards" / f"shard-{shard_for(pairs[0][0])}.jsonl"
        victim.write_text("garbage\n" + victim.read_text())
        with open_backend("sharded", tmp_path) as reopened:
            health = reopened.health()
            assert health.malformed == 1
            assert health.records == 24  # the garbage shadowed nothing
            assert reopened.compact() == 1
        with open_backend("sharded", tmp_path) as healed:
            assert not healed.health().damaged
            assert len(healed) == 24

    def test_shard_appends_take_flock(self, tmp_path):
        with open_backend("sharded", tmp_path) as store:
            assert all(log.lock for log in store._logs())


class TestSqlite:
    def test_upserts_never_duplicate(self, tmp_path):
        key = make_key(1)
        with open_backend("sqlite", tmp_path) as store:
            store.put(key, make_result(1))
            store.put(key, make_result(2))
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        assert conn.execute("SELECT COUNT(*) FROM results").fetchone()[0] == 1
        conn.close()

    def test_rows_carry_schema_and_checksum(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            fill(store, 3)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        rows = conn.execute("SELECT schema, sha FROM results").fetchall()
        conn.close()
        assert all(schema == RECORD_SCHEMA_VERSION for schema, _ in rows)
        assert all(len(sha) == 64 for _, sha in rows)

    def test_bitrot_detected_and_repaired(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            pairs = fill(store, 6)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        conn.execute(
            "UPDATE results SET payload = replace(payload, '2007', '9007') "
            "WHERE key = ?",
            (pairs[1][0],),
        )
        conn.commit()
        conn.close()
        with open_backend("sqlite", tmp_path) as damaged:
            health = damaged.health()
            assert health.corrupt == 1
            assert health.records == 5
            assert damaged.get(pairs[1][0]) is None  # never served
            assert damaged.compact() == 1
        with open_backend("sqlite", tmp_path) as healed:
            assert not healed.health().damaged

    def test_stale_epoch_rows_reported_not_served(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            pairs = fill(store, 4)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        conn.execute(
            "UPDATE results SET schema = ? WHERE key = ?",
            (RECORD_SCHEMA_VERSION + 1, pairs[0][0]),
        )
        conn.commit()
        conn.close()
        with open_backend("sqlite", tmp_path) as reopened:
            assert reopened.health().stale == 1
            assert reopened.get(pairs[0][0]) is None

    def test_threads_share_one_store(self, tmp_path):
        """Writers on threads other than the opener's (the campaign
        server's shape) all land: none raises, none is lost."""
        store = SqliteStore(tmp_path)
        errors: list[BaseException] = []

        def writer(offset: int) -> None:
            try:
                for i in range(offset, offset + 25):
                    store.put(make_key(i), make_result(i))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=writer, args=(25 * t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert errors == []
        with open_backend("sqlite", tmp_path) as reopened:
            assert len(reopened) == 100
            assert reopened.get(make_key(63)) == make_result(63)

    def test_busy_database_retries_then_raises(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            fill(store, 2)
        blocker = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        blocker.execute("BEGIN EXCLUSIVE")
        store = SqliteStore(tmp_path, timeout=0.02)
        try:
            with pytest.raises(sqlite3.OperationalError):
                store.put(make_key(9), make_result(9))
            assert store.write_retries >= 3
        finally:
            blocker.rollback()
            blocker.close()
            store.close()

    def test_wal_mode_enabled(self, tmp_path):
        with open_backend("sqlite", tmp_path) as store:
            fill(store, 1)
            mode = store._connection().execute(
                "PRAGMA journal_mode"
            ).fetchone()[0]
            assert mode == "wal"


class TestJsonlDamageTaxonomy:
    def test_every_damage_class_counted_separately(self, tmp_path):
        with open_backend("jsonl", tmp_path) as store:
            pairs = fill(store, 6)
        path = tmp_path / RESULTS_FILENAME
        lines = path.read_text().splitlines()
        # corrupt: flip a payload digit under the checksum
        lines[0] = lines[0].replace('"instructions": 1000', '"instructions": 1009')
        # stale: foreign schema epoch
        entry = json.loads(lines[1])
        entry["schema"] = RECORD_SCHEMA_VERSION + 5
        lines[1] = json.dumps(entry)
        # legacy: v1 shape (readable)
        entry = json.loads(lines[2])
        legacy_entry = {"key": entry["key"], "result": entry["result"]}
        lines[2] = json.dumps(legacy_entry)
        # malformed: not a record at all
        lines.append("{} definitely not json")
        path.write_text("\n".join(lines) + "\n")
        with open_backend("jsonl", tmp_path) as store:
            health = store.health()
            assert (health.corrupt, health.stale, health.malformed, health.legacy) \
                == (1, 1, 1, 1)
            assert health.records == 4  # 6 - corrupt - stale
            assert store.get(pairs[2][0]) == pairs[2][1]  # legacy served
            assert store.get(pairs[0][0]) is None  # corrupt never served
            assert store.get(pairs[1][0]) is None  # stale never served
            removed = store.compact()
            assert removed == 3  # corrupt + stale + malformed dropped
        with open_backend("jsonl", tmp_path) as healed:
            assert not healed.health().damaged
            assert healed.health().legacy == 0  # upgraded on rewrite
            line = next(
                l for l in (tmp_path / RESULTS_FILENAME).read_text().splitlines()
                if json.loads(l)["key"] == pairs[2][0]
            )
            assert json.loads(line)["schema"] == RECORD_SCHEMA_VERSION

    def test_health_describe_mentions_counts(self, tmp_path):
        with open_backend("jsonl", tmp_path) as store:
            fill(store, 2)
        path = tmp_path / RESULTS_FILENAME
        path.write_text(path.read_text() + "junk\n")
        with open_backend("jsonl", tmp_path) as store:
            text = store.health().describe()
            assert "2 record(s)" in text and "malformed=1" in text
