"""Compiled-kernel loading: cache, and the loud no-compiler policy."""

import os
import tempfile

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import SimulationConfig, simulate
from repro.simulation import ckernel
from repro.utils.exceptions import ConfigurationError


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """Reset the process-level kernel cache and isolate the disk cache."""
    saved = ckernel._cached
    ckernel._cached = None
    monkeypatch.setenv("STARNET_CKERNEL_DIR", str(tmp_path / "kcache"))
    yield
    ckernel._cached = saved


class TestNoCompiler:
    def test_array_engine_refuses_and_object_engine_runs(
        self, fresh_cache, monkeypatch, star3
    ):
        """No working cc: the array engine raises and names the object
        engine — it must never quietly run a substitute, whose results
        would then pose as array-engine results."""
        monkeypatch.setattr(ckernel, "_compiler", lambda: None)
        assert ckernel.load_kernel() is None
        assert ckernel.kernel_error() == "no working C compiler"
        cfg = SimulationConfig(
            message_length=16,
            generation_rate=0.01,
            total_vcs=5,
            warmup_cycles=100,
            measure_cycles=400,
            drain_cycles=800,
            seed=3,
        )
        with pytest.raises(ConfigurationError, match="engine='object'") as info:
            simulate(star3, EnhancedNbc(), cfg, engine="array")
        assert "no working C compiler" in str(info.value)
        res = simulate(star3, EnhancedNbc(), cfg, engine="object")
        assert res.messages_generated > 0


@pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
class TestRealBuild:
    def test_load_compile_and_cache(self, fresh_cache):
        fn = ckernel.load_kernel()
        assert fn is not None
        assert ckernel.kernel_error() is None
        # Second call hits the process cache (same object).
        assert ckernel.load_kernel() is fn
        assert ckernel.load_bundle() is fn
        assert fn.__name__ == "starnet_run"


@pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
class TestBrokenSource:
    def test_compile_failure_is_not_reported_as_missing_compiler(
        self, fresh_cache, monkeypatch, tmp_path
    ):
        """A compiler that rejects the source is a compile failure, and
        the reason carries the compiler's own error lines."""
        broken = tmp_path / "_ckernel.c"
        broken.write_text(
            ckernel._SOURCE.read_text() + "\nint starnet_broken(void) { return }\n"
        )
        monkeypatch.setattr(ckernel, "_SOURCE", broken)
        assert ckernel.load_kernel() is None
        reason = ckernel.kernel_error()
        assert "no working C compiler" not in reason
        assert "compiling _ckernel.c" in reason and "failed" in reason
        assert "error" in reason


class TestUnwritableCacheDir:
    """A cache directory that cannot be written (a read-only home) sends
    the build to a private per-user directory under the temp dir."""

    @pytest.fixture
    def blocked_cache(self, fresh_cache, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("STARNET_CKERNEL_DIR", str(blocker / "kcache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path / f"starnet-repro-{os.getuid()}"

    @pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler")
    def test_builds_in_private_temp_dir(self, blocked_cache):
        fn = ckernel.load_kernel()
        assert fn is not None, ckernel.kernel_error()
        assert [p.suffix for p in blocked_cache.iterdir()] == [".so"]
        assert blocked_cache.stat().st_mode & 0o777 == 0o700

    def test_refuses_a_shared_temp_dir(self, blocked_cache, monkeypatch):
        monkeypatch.setattr(ckernel, "_compiler", lambda: "cc")
        blocked_cache.mkdir()
        blocked_cache.chmod(0o777)
        assert ckernel.load_kernel() is None
        assert "not a private directory" in ckernel.kernel_error()
