"""Tests for the reproducible RNG streams."""

import numpy as np

from repro.utils.rng import RngStreams, StreamBank, _philox_keys, spawn_generator


class TestSpawnGenerator:
    def test_same_key_same_stream(self):
        a = spawn_generator(42, "traffic", 3).random(8)
        b = spawn_generator(42, "traffic", 3).random(8)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = spawn_generator(1, "traffic", 3).random(8)
        b = spawn_generator(2, "traffic", 3).random(8)
        assert not np.array_equal(a, b)

    def test_different_key_different_stream(self):
        a = spawn_generator(1, "traffic", 0).random(8)
        b = spawn_generator(1, "traffic", 1).random(8)
        c = spawn_generator(1, "arbiter", 0).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_hash_is_stable(self):
        # FNV-1a of the component must not depend on interpreter state.
        a = spawn_generator(0, "alpha").random(4)
        b = spawn_generator(0, "alpha").random(4)
        assert np.array_equal(a, b)


class TestRngStreams:
    def test_get_caches_instances(self):
        streams = RngStreams(7)
        assert streams.get("traffic", 1) is streams.get("traffic", 1)

    def test_named_helpers_are_disjoint(self):
        streams = RngStreams(7)
        a = streams.traffic(0).random(4)
        b = streams.allocator().random(4)
        c = streams.arbiter().random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(b, c)

    def test_reproducible_across_instances(self):
        x = RngStreams(3).traffic(5).random(6)
        y = RngStreams(3).traffic(5).random(6)
        assert np.array_equal(x, y)


class TestStreamBank:
    def test_keys_match_seed_sequence(self):
        rows = np.random.default_rng(5).integers(0, 2**32, size=(64, 5), dtype=np.uint64)
        rows[:4] = 0
        rows[4:8] = 2**32 - 1
        for width in (1, 3, 5):
            got = _philox_keys(rows[:, :width])
            want = [
                np.random.SeedSequence([int(w) for w in row]).generate_state(2, np.uint64)
                for row in rows[:, :width]
            ]
            assert np.array_equal(got, np.array(want))

    def test_interleaved_draws_match_separate_generators(self):
        streams = [
            (seed, name, node)
            for seed in (0, 7, None, 2**33 + 5)
            for name in ("traffic", "dest")
            for node in range(6)
        ]
        bank = StreamBank(streams)
        solo = [spawn_generator(*stream) for stream in streams]
        order = np.random.default_rng(1).integers(len(streams), size=400)
        for step, i in enumerate(order.tolist()):
            # mix 64-bit, buffered 32-bit and ziggurat draws
            if step % 3 == 0:
                a = bank.select(i).exponential(0.5, size=5)
                b = solo[i].exponential(0.5, size=5)
            elif step % 3 == 1:
                a = bank.select(i).integers(23, size=3)
                b = solo[i].integers(23, size=3)
            else:
                a = bank.select(i).random()
                b = solo[i].random()
            assert np.array_equal(a, b)

    def test_one_generator_for_all_streams(self):
        bank = StreamBank([(3, "traffic", u) for u in range(4)])
        assert bank.select(0) is bank.select(3) is bank.generator
