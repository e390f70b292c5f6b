"""The compiled kernel ``_kernel.c``: its build, load, prototypes and status.

The first call builds it with the system gcc into a cache next to this file,
keyed by the source and the command, and loads it with ctypes.  The load-time
checks stay next to the ports they compare, in ``integrator``, ``slowman``,
``variational`` and ``export``; this module runs them, those given to ``load_check`` on
the load (or when given, where the library is loaded already) and a block
check on the first block of each bundle shape.
"""

import contextlib
import ctypes
import hashlib
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = Path(__file__).with_name(".kernel_cache")
_CC = "gcc"
# IEEE arithmetic as written: no fused multiply-add, no flag that relaxes IEEE
# semantics or tunes for the build machine
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_P, _D, _N = ctypes.c_void_p, ctypes.c_double, ctypes.c_long
_I, _LL, _OUT = ctypes.c_int, ctypes.c_longlong, ctypes.POINTER
# name: (restype, *argtypes) of every function the library exports
_PROTOTYPES = {
    "hsc_history_at": (None, _P, _P, _P, _N, _P, _N, _P),
    "hsc_integrate": (_I, _P, _P, _P, _P, _N, _P, _N, _D, _D, _D, _D, _D,
                      _LL, _OUT(_P), _OUT(_P), _OUT(_N), _OUT(_D)),
    "hsc_free": (None, _P),
    "hsc_event_roots": (_N, _P, _N, _I, _D, _P, _P),
    "hsc_lyapunov_block": (_I, _N, _N, _N, _N) + (_P,) * 10,
    "hsc_nullcline": (None, _P, _I, _P, _N, _P, _N, _N, _P, _P),
    "hsc_manifold_roots": (None, _P, _P, _N, _P, _P),
    "hsc_csv_body": (_N, _N, _N, _P, _P, _P),
}
_UNTRIED = object()
# what is in use in this process: the checked library (None where it is not
# in use) and why not; scipy's dgemv, ddot, dgeqrf and dorgqr; and the loop
# of the Lyapunov block of each bundle shape (n_mesh, m)
status = SimpleNamespace(lib=_UNTRIED, why="", pointers=(), blocks={})
_checks = []  # (check, what differs when it fails), in the order run


def load_check(check, what: str):
    """Run ``check(lib) -> bool`` on each load, and now where the library is
    loaded already; where it returns False, the library is not used, because
    ``what``.  A check given before is not run again."""
    if (check, what) in _checks:
        return
    _checks.append((check, what))
    if status.lib not in (_UNTRIED, None) and not check(status.lib):
        status.lib, status.why = None, "failed load-time check: " + what


def kernel():
    """The checked library, loaded on the first call; None where not in use."""
    if status.lib is _UNTRIED:
        status.lib = _load()
    return status.lib


def kernel_status():
    """What steps adaptive runs, roots events, solves the slow-manifold
    grids and writes the bodies of CSV files in this process: "compiled",
    or {"python": why the compiled kernel is not in use}."""
    return "compiled" if kernel() is not None else {"python": status.why}


def _load():
    cmd = [_CC, *_CFLAGS]
    try:
        key = hashlib.sha256(_SOURCE.read_bytes() + "\0".join(cmd).encode())
        path = _CACHE / f"kernel-{key.hexdigest()[:16]}.so"
        if not path.exists():
            _CACHE.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=_CACHE) as tmp:
                out = Path(tmp, path.name)
                subprocess.run(cmd + ["-o", str(out), str(_SOURCE), "-lm"],
                               check=True, capture_output=True,
                               stdin=subprocess.DEVNULL, timeout=300)
                out.replace(path)
            # builds of earlier sources; another process may still use one
            for stale in _CACHE.glob("kernel-*.so"):
                if stale != path:
                    with contextlib.suppress(OSError):
                        stale.unlink()
        lib = ctypes.CDLL(str(path))
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        status.why = "build error: " + (lines[-1] if lines else str(exc))
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        missing = isinstance(exc, FileNotFoundError) and exc.filename == _CC
        status.why = (f"no compiler: {_CC} not found" if missing
                      else f"build error: {exc}")
        return None
    for name, (restype, *argtypes) in _PROTOTYPES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    for check, what in _checks:
        if not check(lib):
            status.why = "failed load-time check: " + what
            return None
    return lib


def block_loop(n: int, m: int, matches):
    """``variational.interval_loop``, checked by ``matches(n, m)``."""
    if (n, m) not in status.blocks:
        status.blocks[n, m] = _choose_block(n, m, matches)
    return status.blocks[n, m]


def _choose_block(n, m, matches):
    if kernel() is None:
        return {"python": "no compiled kernel: " + status.why}
    try:
        status.pointers = status.pointers or _scipy_pointers()
    except (ImportError, AttributeError, KeyError, ValueError) as exc:
        return {"python": f"no scipy BLAS/LAPACK pointers: {exc}"}
    if not matches(n, m):
        return {"python": "failed load-time check: the compiled block "
                          "differs from the numpy loop"}
    return "compiled"


def _scipy_pointers() -> tuple[int, ...]:
    """The addresses of scipy's dgemv, ddot, dgeqrf and dorgqr, in the order
    hsc_lyapunov_block takes them, from the capsules scipy exports."""
    from scipy.linalg import cython_blas, cython_lapack

    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    blas, lapack = cython_blas.__pyx_capi__, cython_lapack.__pyx_capi__
    caps = (blas["dgemv"], blas["ddot"], lapack["dgeqrf"], lapack["dorgqr"])
    return tuple(pointer(cap, name(cap)) for cap in caps)
