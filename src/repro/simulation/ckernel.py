"""On-demand compiled C kernel of the array backend.

The array backend (:mod:`repro.simulation.kernels`) runs every cycle in
one C function, ``starnet_run`` (``_ckernel.c``), compiled here with the
system C compiler on first use.  There is no interpreted fallback: when
no working compiler is found (or the build will not load),
:func:`load_kernel` returns None and ``ArraySimulator`` refuses to
construct, naming ``engine='object'`` — the reference engine, which
needs no compiler.

Compilation is attempted once per process and cached as a shared object
keyed by the source hash (honouring ``STARNET_CKERNEL_DIR``, defaulting
to a per-user cache directory).  When that directory cannot be written
(a read-only home, say), the build goes to a private per-user directory
under the system temp dir instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["kernel_error", "load_bundle", "load_kernel"]

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: The kernel takes one int64 parameter block (see _ckernel.c for the
#: slot layout), so each call marshals a single pointer.
_SIGNATURE: list = [ctypes.c_void_p]

#: ``(kernel or None, failure reason or None)`` once loading was tried.
_cached: tuple | None = None


def _cache_dir() -> Path:
    override = os.environ.get("STARNET_CKERNEL_DIR")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "starnet-repro"


def _private_tmp_dir() -> Path:
    """A per-user build directory under the system temp dir.

    Only used when :func:`_cache_dir` cannot be written.  The temp dir is
    shared, so the directory must be owned by this user and writable by
    no one else before a shared object is built or loaded from it.
    """
    uid = os.getuid()
    path = Path(tempfile.gettempdir()) / f"starnet-repro-{uid}"
    path.mkdir(mode=0o700, exist_ok=True)
    st = path.stat()
    if st.st_uid != uid or st.st_mode & 0o022:
        raise PermissionError(f"{path} is not a private directory")
    return path


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
    """Cache a failed load and its reason (see :func:`kernel_error`)."""
    global _cached
    _cached = (None, reason)
    return None


def load_kernel():
    """The compiled ``starnet_run`` function, or None when unavailable.

    ctypes releases the GIL while it runs, so the service's HTTP threads
    keep answering queries during a refinement.
    """
    global _cached
    if _cached is not None:
        return _cached[0]
    try:
        src = _SOURCE.read_bytes()
        name = f"ckernel-{hashlib.sha256(src).hexdigest()[:16]}.so"
        so_path = _cache_dir() / name
        if not so_path.exists():
            try:
                built = _build(_SOURCE, so_path)
            except OSError:  # cache directory not writable
                so_path = _private_tmp_dir() / name
                built = so_path.exists() or _build(_SOURCE, so_path)
            if not built:
                return _fail("no working C compiler")
        run = ctypes.CDLL(str(so_path)).starnet_run
        run.argtypes = _SIGNATURE
        run.restype = ctypes.c_int64
        _cached = (run, None)
        return run
    except (OSError, AttributeError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


#: Older name of :func:`load_kernel`, kept for existing callers.
load_bundle = load_kernel


def kernel_error() -> str | None:
    """Why :func:`load_kernel` returned None (None if it succeeded)."""
    load_kernel()
    return _cached[1]
