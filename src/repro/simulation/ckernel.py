"""On-demand compiled C kernel of the array backend, and its interface.

The array backend (:mod:`repro.simulation.kernels`) runs every cycle in
one C function, ``starnet_run`` (``_ckernel.c``), compiled here with the
system C compiler on first use.  There is no interpreted fallback: when
no working compiler is found, the build fails or the library will not
load, :func:`load_kernel` returns None, :func:`kernel_error` says why,
and ``ArraySimulator`` refuses to construct, naming ``engine='object'``
— the reference engine, which needs no compiler.

The kernel takes one parameter block, declared once in C
(``STARNET_FIELDS`` in ``_ckernel.c``) and exported as a layout table
of field names, kinds, numpy dtypes and offsets.  :func:`load_kernel`
reads that table (:func:`kernel_fields`) and refuses a block that is
not one 8-byte word per field; :class:`ParamBlock` fills every field by
name from one owner object, checking each array's dtype and contiguity.

Compilation is attempted once per process and cached as a shared object
keyed by the source hash (honouring ``STARNET_CKERNEL_DIR``, defaulting
to a per-user cache directory).  When that directory cannot be written
(a read-only home, say), the build goes to a private per-user directory
under the system temp dir instead.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "Field",
    "ParamBlock",
    "kernel_error",
    "kernel_fields",
    "load_bundle",
    "load_kernel",
    "read_layout",
]

_SOURCE = Path(__file__).with_name("_ckernel.c")

#: Compiler stderr lines kept in a build-failure reason.
_STDERR_LINES = 8

#: ``(kernel or None, failure reason or None, fields or None)`` once
#: loading was tried.
_cached: tuple | None = None


@dataclasses.dataclass(frozen=True)
class Field:
    """One field of the kernel's parameter block.

    ``kind`` is ``"arr"`` (array state), ``"scr"`` (scratch), ``"opt"``
    (array that is None while its feature is off), ``"val"`` (scalar) or
    ``"run"`` (run state, crossing on every call); ``dtype`` is set for
    the three array kinds.
    """

    name: str
    kind: str
    dtype: np.dtype | None


class _FieldInfo(ctypes.Structure):
    """One entry of the exported ``starnet_fields`` table."""

    _fields_ = [
        ("name", ctypes.c_char_p),
        ("kind", ctypes.c_char_p),
        ("dtype", ctypes.c_char_p),
        ("offset", ctypes.c_int64),
    ]


def read_layout(entries, size: int) -> tuple[Field, ...]:
    """Check an exported layout and return its fields, in block order.

    ``entries`` are ``(name, kind, dtype, offset)`` tuples and ``size``
    is the block's ``sizeof``.  Every field must be one 8-byte word at
    offset ``8 * index``; a mismatch raises ValueError naming it.
    """
    fields = []
    for i, (name, kind, dtype, offset) in enumerate(entries):
        if offset != 8 * i:
            raise ValueError(
                f"kernel field {name!r} is at byte {offset}, expected {8 * i}"
            )
        fields.append(Field(name, kind, np.dtype(dtype) if dtype else None))
    if size != 8 * len(fields):
        raise ValueError(
            f"kernel parameter block is {size} bytes, expected 8 x "
            f"{len(fields)} fields = {8 * len(fields)}"
        )
    return tuple(fields)


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


def _build(source: Path, out: Path) -> str | None:
    """Compile ``source`` into ``out``; None on success, else why not."""
    cc = _compiler()
    if cc is None:
        return "no working C compiler"
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
                return None
        tail = proc.stderr.decode(errors="replace").strip().splitlines()
        return (
            f"compiling {source.name} with {cc} failed "
            f"(exit {proc.returncode}):\n" + "\n".join(tail[-_STDERR_LINES:])
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compiling {source.name} with {cc} failed: {exc}"
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _fail(reason: str):
    """Cache a failed load and its reason (see :func:`kernel_error`)."""
    global _cached
    _cached = (None, reason, None)
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
                error = _build(_SOURCE, so_path)
            except OSError:  # cache directory not writable
                so_path = _private_tmp_dir() / name
                error = None if so_path.exists() else _build(_SOURCE, so_path)
            if error is not None:
                return _fail(error)
        lib = ctypes.CDLL(str(so_path))
        count = ctypes.c_int64.in_dll(lib, "starnet_num_fields").value
        table = (_FieldInfo * count).in_dll(lib, "starnet_fields")
        try:
            fields = read_layout(
                (
                    (e.name.decode(), e.kind.decode(), e.dtype.decode(), e.offset)
                    for e in table
                ),
                ctypes.c_int64.in_dll(lib, "starnet_params_size").value,
            )
        except ValueError as exc:
            return _fail(str(exc))
        run = lib.starnet_run
        run.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        run.restype = ctypes.c_int64
        _cached = (run, None, fields)
        return run
    except (OSError, AttributeError, ValueError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


#: Older name of :func:`load_kernel`, kept for existing callers.
load_bundle = load_kernel


def kernel_error() -> str | None:
    """Why :func:`load_kernel` returned None (None if it succeeded)."""
    load_kernel()
    return _cached[1]


def kernel_fields() -> tuple[Field, ...] | None:
    """The kernel's parameter-block fields in block order (None when
    the kernel is unavailable)."""
    load_kernel()
    return _cached[2]


@functools.lru_cache(maxsize=None)
def _struct_type(fields: tuple[Field, ...]) -> type:
    return type(
        "StarnetParams",
        (ctypes.Structure,),
        {"_fields_": [(f.name, ctypes.c_int64) for f in fields]},
    )


def _word(owner, field: Field) -> int:
    """The int64 word for ``field``: a scalar, or an array's address."""
    try:
        value = getattr(owner, field.name)
    except AttributeError:
        raise ConfigurationError(
            f"kernel field {field.name!r}: {type(owner).__name__} has no "
            f"attribute {field.name!r}"
        ) from None
    if field.dtype is None:
        return int(value)
    if value is None and field.kind == "opt":
        return 0
    want = f"kernel field {field.name!r} must be a C-contiguous {field.dtype} array"
    if not isinstance(value, np.ndarray):
        raise ConfigurationError(f"{want}, got {type(value).__name__}")
    if value.dtype != field.dtype:
        raise ConfigurationError(f"{want}, got dtype {value.dtype}")
    if not value.flags.c_contiguous:
        raise ConfigurationError(f"{want}, got a non-contiguous array")
    return value.ctypes.data


class ParamBlock:
    """The kernel's parameter block, every field read by name from one
    owner.

    :meth:`fill` writes owner-held fields (arrays and scalars); the
    run-state fields cross on every :meth:`call` — written from the
    owner before it, read back into the owner after it.  During a call
    the block is the live copy: a callback that changes a field the
    kernel re-reads (the uniform buffer and gate) updates the owner and
    then fills those fields.
    """

    def __init__(self, fields: tuple[Field, ...], owner):
        self.owner = owner
        self.fields = {f.name: f for f in fields}
        self.struct = _struct_type(tuple(fields))()
        self.address = ctypes.addressof(self.struct)
        self._held = tuple(f.name for f in fields if f.kind != "run")
        self._run = tuple(f.name for f in fields if f.kind == "run")
        self.fill()

    def fill(self, *names: str) -> None:
        """Write the named fields (default: every owner-held one) from
        the owner."""
        for name in names or self._held:
            setattr(self.struct, name, _word(self.owner, self.fields[name]))

    def call(self, kernel, limit: int) -> int:
        """One kernel call with the owner's run state; its return value."""
        self.fill(*self._run)
        reason = kernel(self.address, limit)
        for name in self._run:
            setattr(self.owner, name, getattr(self.struct, name))
        return reason
