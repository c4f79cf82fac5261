"""JSONL result store: append, reload, interruption tolerance, migration."""

import pytest

from repro.api.convert import row_from_unit
from repro.campaign.grid import GridSpec, WorkUnit, canonical_key
from repro.campaign.runner import run_campaign
from repro.campaign.store import ResultStore, ShardedResultStore, _shard_of, open_store
from repro.service.surrogate import family_of_record


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.append("k1", "model", {"rate": 0.01}, {"latency": 20.0}, 0.001)
            store.append("k2", "model", {"rate": 0.02}, {"latency": 25.0})
        loaded = ResultStore(path).load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"]["result"]["latency"] == 20.0
        assert loaded["k1"]["params"] == {"rate": 0.01}
        assert loaded["k2"]["kind"] == "model"

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == {}

    def test_truncated_last_line_is_ignored(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.append("k1", "model", {}, {"latency": 1.0})
        # Simulate a campaign killed mid-write.
        with path.open("a") as fh:
            fh.write('{"key": "k2", "result": {"lat')
        loaded = ResultStore(path).load()
        assert set(loaded) == {"k1"}

    def test_last_record_wins_on_duplicate_keys(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.append("k1", "model", {}, {"v": 1})
            store.append("k1", "model", {}, {"v": 2})
        assert ResultStore(path).load()["k1"]["result"]["v"] == 2

    def test_counters(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        assert store.appended == 0 and store.hits == 0
        store.append("k1", "model", {}, {})
        store.close()
        assert store.appended == 1

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "results.jsonl"
        with ResultStore(path) as store:
            store.append("k1", "model", {}, {})
        assert path.exists()

    def test_append_heals_torn_tail(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.append("k1", "model", {}, {"v": 1})
        # A writer killed mid-record leaves a line without its newline;
        # the next append must not concatenate onto it.
        with path.open("a") as fh:
            fh.write('{"key": "torn", "resu')
        with ResultStore(path) as store:
            store.append("k2", "model", {}, {"v": 2})
        loaded = ResultStore(path).load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k2"]["result"]["v"] == 2

    def test_compact_dedupes_last_wins(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with ResultStore(path) as store:
            store.append("k1", "model", {}, {"v": 1})
            store.append("k2", "model", {}, {"v": 2})
            store.append("k1", "model", {}, {"v": 3})
        store = ResultStore(path)
        kept, dropped = store.compact()
        assert (kept, dropped) == (2, 1)
        assert path.read_text().count("\n") == 2
        loaded = ResultStore(path).load()
        assert loaded["k1"]["result"]["v"] == 3
        assert loaded["k2"]["result"]["v"] == 2


class TestShardedResultStore:
    def test_roundtrip_across_shards(self, tmp_path):
        root = tmp_path / "store"
        with ShardedResultStore(root, shards=4) as store:
            for i in range(40):
                store.append(f"k{i}", "model", {"rate": i}, {"latency": float(i)})
        loaded = ShardedResultStore(root).load()
        assert len(loaded) == 40
        assert loaded["k7"]["result"]["latency"] == 7.0
        # Keys actually spread over more than one shard file.
        assert len(list(root.glob("shard-*.jsonl"))) > 1

    def test_shard_count_persists_in_metadata(self, tmp_path):
        root = tmp_path / "store"
        with ShardedResultStore(root, shards=4) as store:
            store.append("k1", "model", {}, {})
        # Reopening with a different requested count keeps the original
        # routing, so existing keys stay findable.
        reopened = ShardedResultStore(root, shards=16)
        assert reopened.shards == 4
        assert set(reopened.load()) == {"k1"}

    def test_last_record_wins_within_a_key(self, tmp_path):
        root = tmp_path / "store"
        with ShardedResultStore(root, shards=2) as store:
            store.append("k1", "model", {}, {"v": 1})
            store.append("k1", "model", {}, {"v": 2})
        assert ShardedResultStore(root).load()["k1"]["result"]["v"] == 2

    def test_compact_per_shard(self, tmp_path):
        root = tmp_path / "store"
        with ShardedResultStore(root, shards=2) as store:
            for _ in range(3):
                for i in range(10):
                    store.append(f"k{i}", "model", {}, {"round": _})
        store = ShardedResultStore(root)
        kept, dropped = store.compact()
        assert (kept, dropped) == (10, 20)
        loaded = ShardedResultStore(root).load()
        assert len(loaded) == 10
        assert all(r["result"]["round"] == 2 for r in loaded.values())

    def test_signature_changes_on_append(self, tmp_path):
        root = tmp_path / "store"
        store = ShardedResultStore(root, shards=2)
        before = store.signature()
        store.append("k1", "model", {}, {})
        store.close()
        assert ShardedResultStore(root).signature() != before


class TestOpenStore:
    def test_jsonl_path_opens_flat(self, tmp_path):
        store = open_store(tmp_path / "results.jsonl")
        assert type(store) is ResultStore

    def test_directoryish_path_opens_sharded(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert isinstance(store, ShardedResultStore)

    def test_existing_directory_opens_sharded(self, tmp_path):
        root = tmp_path / "anything.jsonl"  # suffix loses to being a dir
        root.mkdir()
        assert isinstance(open_store(root), ShardedResultStore)

    def test_layouts_share_record_format(self, tmp_path):
        with open_store(tmp_path / "flat.jsonl") as flat:
            flat.append("k1", "model", {"rate": 0.01}, {"latency": 5.0})
        with open_store(tmp_path / "sharded") as sharded:
            sharded.append("k1", "model", {"rate": 0.01}, {"latency": 5.0})
        a = open_store(tmp_path / "flat.jsonl").load()["k1"]
        b = open_store(tmp_path / "sharded").load()["k1"]
        assert a == b


#: Legacy ``sim_batch`` pins and the (engine, replications) they migrate
#: to.  "engine omitted" is what ``starnet campaign --kind sim_batch --set
#: order=4 --set message_length=16 --set replications=4`` wrote.
_LEGACY_PINS = {
    "engine omitted": ({"replications": 4}, "array", 4),
    "engine pinned": ({"replications": 4, "engine": "object"}, "object", 4),
    "replications omitted": ({}, "array", 8),
}
_LEGACY_RATES = (0.004, 0.008)
_BASE = {"order": 4, "message_length": 16}


def _write_legacy(path, pins, replications):
    """Append legacy records under their old keys (and old shards)."""
    with open_store(path) as store:
        for rate in _LEGACY_RATES:
            params = {**_BASE, "generation_rate": rate, **pins}
            payload = {
                "replications": replications,
                "mean_latency": 40.0 + 1000 * rate,
                "latency_ci": 1.5,
                "mean_network_latency": 30.0,
                "accepted_rate": rate,
                "messages_measured": 1200,
                "any_saturated": rate == 0.008,
                "cycles_run": 3400,
            }
            store.append(canonical_key("sim_batch", params), "sim_batch", params, payload)


def _store_path(tmp_path, layout):
    return tmp_path / ("legacy.jsonl" if layout == "flat" else "legacy")


class TestLegacySimBatchMigration:
    """Stores from before ``sim`` took ``replications`` resume as ``sim``."""

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    @pytest.mark.parametrize("case", list(_LEGACY_PINS))
    def test_legacy_rows_resume_as_sim(self, tmp_path, layout, case):
        pins, engine, replications = _LEGACY_PINS[case]
        path = _store_path(tmp_path, layout)
        _write_legacy(path, pins, replications)
        family = family_of_record("sim", {**_BASE, "engine": engine})
        other = family_of_record(
            "sim", {**_BASE, "engine": "object" if engine == "array" else "array"}
        )
        records = open_store(path).load()
        for record in records.values():
            # What the service's index does with every stored record.
            unit = WorkUnit(record["kind"], record["params"])
            row = row_from_unit(unit, record["result"])
            assert (row.engine, row.replications) == (engine, replications)
            assert row.saturated == (row.rate == 0.008)
            assert family_of_record(unit.kind, unit.params) == family != other
            assert record["kind"] == "sim"
        units = GridSpec(
            kind="sim",
            axes=(("generation_rate", _LEGACY_RATES),),
            pinned=tuple(_BASE.items())
            + (("engine", engine), ("replications", replications)),
        ).expand()
        assert set(records) == {canonical_key("sim", u.params) for u in units}
        result = run_campaign(units, store=path, resume=True)
        assert "2 units, 0 computed, 2 resumed" in result.summary()

    @pytest.mark.parametrize("layout", ["flat", "sharded"])
    def test_compact_rewrites_legacy_rows_as_sim(self, tmp_path, layout):
        path = _store_path(tmp_path, layout)
        pins, _, replications = _LEGACY_PINS["engine omitted"]
        _write_legacy(path, pins, replications)
        before = open_store(path).load()
        store = open_store(path)
        assert store.compact() == (2, 0)
        files = [path] if layout == "flat" else sorted(path.glob("shard-*.jsonl"))
        text = "".join(f.read_text() for f in files)
        assert "sim_batch" not in text and "any_saturated" not in text
        assert open_store(path).load() == before
        if layout == "sharded":
            # Re-keyed records moved to the shard their new key names.
            for shard in files:
                for key in ResultStore(shard).load():
                    assert shard == store._shard_path(_shard_of(key, store.shards))

    def test_unmoved_legacy_record_never_beats_a_later_one(self, tmp_path):
        """Before compaction a migrated record sits on its old key's shard."""
        root = tmp_path / "legacy"
        rates = tuple(0.001 * (i + 1) for i in range(8))
        with ShardedResultStore(root, shards=16) as store:
            for rate in rates:
                params = {**_BASE, "generation_rate": rate}
                store.append(canonical_key("sim_batch", params), "sim_batch", params, {"v": 0})
            moved = 0
            for rate in rates:
                params = {"engine": "array", "replications": 8, **_BASE, "generation_rate": rate}
                key = canonical_key("sim", params)
                store.append(key, "sim", params, {"v": 1})
                moved += _shard_of(key, 16) != _shard_of(
                    canonical_key("sim_batch", {**_BASE, "generation_rate": rate}), 16
                )
        assert moved > 0
        records = ShardedResultStore(root).load()
        assert len(records) == len(rates)
        assert all(r["result"]["v"] == 1 for r in records.values())
