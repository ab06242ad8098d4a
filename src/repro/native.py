"""The compiled kernels: one C file each beside its module, built on first use.

:func:`load` compiles a C source with the system's ``cc`` the first time a
process needs it and loads it with :mod:`ctypes`.  The shared object is cached
under ``$XDG_CACHE_HOME/repro-snooze`` (or ``~/.cache``), named by the source
file's stem and the sha256 of the source and :data:`FLAGS`, and renamed into
place once built, so concurrent cold builds are safe and a changed source
never loads a stale library.  Importing this module compiles nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

from repro.workers import run_tool

#: How every kernel is compiled; no flag may change its arithmetic
#: (``-ffp-contract=off`` keeps multiply-adds unfused).
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def load(source: Path) -> ctypes.CDLL:
    """The library built from the C file ``source``, compiled on first use."""
    code = source.read_bytes()
    digest = hashlib.sha256(code + " ".join(FLAGS).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "repro-snooze"
    library = cache / f"{source.stem}-{digest}.so"
    if not library.exists():
        if shutil.which("cc") is None:
            raise FileNotFoundError(f"{source.name} needs a C compiler, and 'cc' is not on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as scratch:
            built = os.path.join(scratch, library.name)
            run_tool(["cc", *FLAGS, "-o", built, str(source), "-lm"])
            os.replace(built, library)
    return ctypes.CDLL(str(library))
