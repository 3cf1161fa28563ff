"""Build and load the native FKW conv kernel (``fkw_conv.c``).

The C source ships inside the package.  When this module is imported,
:func:`library` looks for a shared object compiled from exactly this
source, with exactly these flags, by exactly this compiler, for exactly
this CPU, in a per-user cache directory; on a miss it compiles one with
``cc`` (``subprocess`` is imported only then).  The build therefore
happens once per machine, not once per session or worker process.

* **Cache location**: ``$XDG_CACHE_HOME/patdnn-repro`` (default
  ``~/.cache/patdnn-repro``), falling back to
  ``<system temp dir>/patdnn-repro-<uid>`` when that is not writable —
  never the source tree.
* **Cache key**: a hash of the C source, the compile flags, the compiler
  binary (resolved path, size and mtime — its version, read without
  running it) and the CPU feature flags (``-march=native`` code is only
  valid on a matching CPU).
* **Concurrent builds**: each builder writes a private temp file and
  ``os.replace``-s it into place, so workers spawned together never load
  a half-written library.
* **Fallback**: when no compiler is found or the build fails,
  :func:`library` returns ``None`` and logs one warning per process; the
  ``'native'`` opt level then resolves to the numpy ``'gemm'`` kernels.

``ctypes`` releases the GIL for the duration of each call, so serving
threads run native convolutions in parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("fkw_conv.c")
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_log = logging.getLogger(__name__)


class FKWLayerStruct(ctypes.Structure):
    """Mirror of ``fkw_layer`` in ``fkw_conv.c`` (field order is the ABI).

    Array fields hold raw addresses; whoever fills them keeps the arrays
    alive (the kernel closure does).  Plain addresses, not ctypes pointer
    objects, so a dropped kernel is freed by reference counting alone.
    """

    _fields_ = [
        ("filters", ctypes.c_int32),
        ("channels", ctypes.c_int32),
        ("kh", ctypes.c_int32),
        ("kw", ctypes.c_int32),
        ("entries", ctypes.c_int32),
        ("stride", ctypes.c_int32),
        ("padding", ctypes.c_int32),
        ("activation", ctypes.c_int32),
        ("num_patterns", ctypes.c_int32),
        ("union_size", ctypes.c_int32),
        ("offset", ctypes.c_void_p),  # int32
        ("reorder", ctypes.c_void_p),  # uint16
        ("index", ctypes.c_void_p),  # uint16
        ("pattern", ctypes.c_void_p),  # uint8
        ("weights", ctypes.c_void_p),  # float32
        ("taps", ctypes.c_void_p),  # int32
        ("slots", ctypes.c_void_p),  # int32
        ("union_taps", ctypes.c_void_p),  # int32
        ("bias", ctypes.c_void_p),  # float32, NULL without bias
    ]


class _Loader:
    """Per-process build-or-load result (the library, or None)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.done = False
        self.lib: ctypes.CDLL | None = None
        self.path: Path | None = None


_loader = _Loader()


def _cache_dir() -> Path:
    """The first usable cache directory: it must be writable and, since
    code is loaded from it, owned by this user and writable by no one
    else (a shared temp dir could otherwise plant a library)."""
    uid = os.getuid() if hasattr(os, "getuid") else None
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    for candidate in (
        Path(base) / "patdnn-repro",
        Path(tempfile.gettempdir()) / f"patdnn-repro-{uid}",
    ):
        try:
            candidate.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = candidate.stat()
        except OSError:
            continue
        private = uid is None or (st.st_uid == uid and not st.st_mode & 0o022)
        if private and os.access(candidate, os.W_OK):
            return candidate
    raise OSError("no private writable cache directory for the native kernel")


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return f"{platform.machine()} {platform.processor()}"


def _compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _library_path(compiler: str) -> Path:
    real = os.path.realpath(compiler)
    st = os.stat(real)
    h = hashlib.blake2b(digest_size=12)
    for part in (SOURCE.read_bytes(), repr(FLAGS).encode(),
                 f"{real}:{st.st_size}:{st.st_mtime_ns}".encode(), _cpu_flags().encode(),
                 sys.platform.encode()):
        h.update(part)
        h.update(b"\0")
    return _cache_dir() / f"fkw_conv-{h.hexdigest()}.so"


def _build(compiler: str, path: Path) -> None:
    import subprocess

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise OSError(f"{compiler} failed: {exc.stderr.strip()}") from exc
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{compiler} timed out") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> tuple[ctypes.CDLL, Path]:
    compiler = _compiler()
    if compiler is None:
        raise OSError("no C compiler (cc, gcc or clang) on PATH")
    path = _library_path(compiler)
    if not path.exists():
        _build(compiler, path)
    lib = ctypes.CDLL(str(path))
    lib.fkw_conv_scratch.argtypes = [ctypes.POINTER(FKWLayerStruct), ctypes.c_int32, ctypes.c_int32]
    lib.fkw_conv_scratch.restype = ctypes.c_int64
    lib.fkw_conv.argtypes = [
        ctypes.POINTER(FKWLayerStruct), ctypes.c_void_p, ctypes.c_int32, ctypes.c_int32,
        ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p,
    ]
    lib.fkw_conv.restype = None
    lib.fkw_conv_vector_bits.argtypes = []
    lib.fkw_conv_vector_bits.restype = ctypes.c_int32
    return lib, path


def library() -> ctypes.CDLL | None:
    """The native kernel library, built or loaded on the first call (at
    import); ``None`` (after one logged warning per process) when it
    cannot be built or loaded."""
    if _loader.done:
        return _loader.lib
    with _loader.lock:
        if not _loader.done:
            try:
                _loader.lib, _loader.path = _load()
            except (OSError, AttributeError) as exc:  # AttributeError: symbol missing
                _log.warning("native FKW kernel unavailable, serving the numpy 'gemm' "
                             "kernels instead: %s", exc)
            _loader.done = True
    return _loader.lib


def loaded() -> bool:
    """Whether this process has the native library loaded (never builds)."""
    return _loader.lib is not None


def library_path() -> Path | None:
    """Where the loaded library lives (None when not loaded)."""
    return _loader.path if _loader.lib is not None else None


# Load at import rather than at the first conv: the dynamic loader's
# long-lived allocations then sit low in the heap.  Made after a model
# was built, they can land above that model's freed memory and keep
# glibc from ever returning it to the OS.
library()
