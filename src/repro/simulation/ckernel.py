"""On-demand compiled C cycle kernel for the array backend.

The array backend's per-cycle hot path (switch traversal + ejection) is
implemented twice: as numpy passes in :mod:`repro.simulation.kernels`
(always available) and as a single C function (``_ckernel.c``) compiled
here with the system C compiler on first use.  Both paths are
bit-identical — the kernels module asserts as much in the test-suite —
so the C path is purely an accelerator: roughly one function call per
cycle instead of ~40 numpy dispatches.

Compilation is attempted once per process and cached as a shared object
keyed by the source hash (honouring ``STARNET_CKERNEL_DIR``, defaulting
to a per-user cache directory).  Set ``STARNET_NO_CKERNEL=1`` to force
the numpy path silently; an unexpected compile/load *failure* also falls
back to numpy but emits one :class:`RuntimeWarning` for the whole
process (the result is correct either way — only slower).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

__all__ = ["KernelBundle", "load_bundle", "load_kernel"]

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: The kernel takes one int64 parameter block (see _ckernel.c for the
#: slot layout) so each per-cycle call marshals a single pointer.
_SIGNATURE: list = [ctypes.c_void_p]


class KernelBundle(NamedTuple):
    """The compiled entry points of one ``_ckernel.c`` build.

    ``cycle`` runs one cycle of phases 2-5; ``run`` is the resident
    driver that loops whole cycles in C.  Both release the GIL while
    they run, so simulators on separate campaign lanes overlap.
    """

    cycle: object
    run: object


_cached: tuple | None = None


def _cache_dir() -> Path:
    override = os.environ.get("STARNET_CKERNEL_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "starnet-repro"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build(source: Path, out: Path) -> bool:
    cc = _compiler()
    if cc is None:
        return False
    out.parent.mkdir(parents=True, exist_ok=True)
    # Compile into a unique temp name, then atomically rename, so
    # concurrent processes (campaign pool workers) never load a half-
    # written shared object.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    try:
        # The cache is per-machine, so native tuning is safe; retry
        # without it for compilers that reject -march=native.
        for extra in (["-O3", "-march=native"], ["-O2"]):
            proc = subprocess.run(
                [
                    cc,
                    *extra,
                    "-shared",
                    "-fPIC",
                    "-o",
                    tmp,
                    str(source),
                ],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode == 0:
                os.replace(tmp, out)
                return True
        return False
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _fail(reason: str):
    """Cache the numpy fallback, warning once per process."""
    global _cached
    _cached = (None,)
    warnings.warn(
        f"compiled cycle kernel unavailable ({reason}); "
        "falling back to the (slower, bit-identical) numpy path",
        RuntimeWarning,
        stacklevel=3,
    )
    return None


def load_bundle() -> KernelBundle | None:
    """The compiled kernel entry points, or None when unavailable.

    Both symbols load (or fail) as one unit: a build that exports
    ``starnet_cycle`` but not ``starnet_run`` is treated as a failed
    load, so callers never see a half-built kernel.
    """
    global _cached
    if _cached is not None:
        return _cached[0]
    if os.environ.get("STARNET_NO_CKERNEL"):
        # Deliberate opt-out: no warning.
        _cached = (None,)
        return None
    try:
        src = _SOURCE.read_bytes()
        digest = hashlib.sha256(src).hexdigest()[:16]
        so_path = _cache_dir() / f"ckernel-{digest}.so"
        if not so_path.exists() and not _build(_SOURCE, so_path):
            return _fail("no working C compiler")
        lib = ctypes.CDLL(str(so_path))
        cycle = lib.starnet_cycle
        cycle.argtypes = _SIGNATURE
        cycle.restype = ctypes.c_int64
        run = lib.starnet_run
        run.argtypes = _SIGNATURE
        run.restype = ctypes.c_int64
        bundle = KernelBundle(cycle, run)
        _cached = (bundle,)
        return bundle
    except (OSError, AttributeError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


def load_kernel():
    """The compiled ``starnet_cycle`` function, or None when unavailable."""
    bundle = load_bundle()
    return bundle.cycle if bundle is not None else None
