"""Compiled-kernel loading: cache, opt-out, and compile-failure fallback."""

import warnings

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation import ckernel


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Reset the process-level kernel cache and isolate the disk cache."""
    saved = ckernel._cached
    ckernel._cached = None
    monkeypatch.setenv("STARNET_CKERNEL_DIR", str(tmp_path / "kcache"))
    yield
    ckernel._cached = saved


class TestCompileFailureFallback:
    def test_broken_compiler_warns_once_then_stays_silent(
        self, fresh_cache, monkeypatch, star3
    ):
        """No working cc: one RuntimeWarning, then the numpy path runs."""
        monkeypatch.setattr(ckernel, "_compiler", lambda: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
        relevant = [w for w in caught if w.category is RuntimeWarning]
        assert len(relevant) == 1
        assert "falling back" in str(relevant[0].message)
        # Subsequent loads are silent — the failure is cached.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
        assert not caught
        # The array backend still works, on the numpy path.
        cfg = SimulationConfig(
            message_length=16,
            generation_rate=0.01,
            total_vcs=5,
            warmup_cycles=100,
            measure_cycles=400,
            drain_cycles=800,
            seed=3,
        )
        sim = ArraySimulator(star3, EnhancedNbc(), cfg)
        assert sim._ck is None
        res = sim.run()
        assert len(res) == 1
        assert res[0].messages_generated > 0


class TestOptOut:
    def test_env_opt_out_is_silent(self, fresh_cache, monkeypatch):
        """STARNET_NO_CKERNEL=1 is a deliberate choice: no warning."""
        monkeypatch.setenv("STARNET_NO_CKERNEL", "1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ckernel.load_kernel() is None
        assert not caught


@pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
class TestRealBuild:
    def test_load_compile_and_cache(self, fresh_cache):
        fn = ckernel.load_kernel()
        assert fn is not None
        # Second call hits the process cache (same object).
        assert ckernel.load_kernel() is fn
        assert ckernel.load_bundle()._fields == ("cycle", "run")
