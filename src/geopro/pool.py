"""The two-thread pool that runs the parts of a kernel: the EGNN pair
kernel's row blocks and, above a size, the Adam step's pieces.

Both deal their work into parts by one rule, ``deal``, whose split does
not depend on the pool, so that sums over the parts take one order
whether the parts run on two threads or one after the other.  The pool
is made at its first request, which also sets numpy's bundled OpenBLAS
to one thread; its threads start at its first ``submit``, so importing
geopro starts no thread.
"""

import contextvars
import ctypes
import logging
import os
import threading

import numpy as np

log = logging.getLogger(__name__)

# The pool that runs the parts: None until its first request, False if
# that request found no OpenBLAS thread setter.
_pool = None
_pool_lock = threading.Lock()


def _blas_thread_setter():
    """The thread-count setter of numpy's bundled OpenBLAS, or None.

    numpy has no API for it, so it is looked up by name in ``numpy.libs``.
    """
    # imported here and in part_pool, so that importing geopro does not
    # pay for modules that only the pool needs
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        return setter
    return None


def part_pool():
    """The module's pool of min(2, usable cores) threads, or None when the
    parts must run inline.

    Made at the first call, which also sets OpenBLAS to one thread: with
    two pool threads, BLAS threads only contend for the same cores, and
    with one block BLAS's second thread spins in every small product.
    The EGNN kernel calls this at entry, before its first product, so that
    every kernel product rounds the same way whatever ran before it.  The
    executor starts its threads only at its first ``submit``.  Without a
    setter the pool is never made, and one INFO record says so.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            setter = _blas_thread_setter()
            if setter is None:
                log.info("no OpenBLAS thread setter in numpy.libs: the EGNN pair "
                         "kernel and the Adam step run on one thread")
                _pool = False
            else:
                from concurrent.futures import ThreadPoolExecutor

                setter(1)
                _pool = ThreadPoolExecutor(
                    min(2, len(os.sched_getaffinity(0))), thread_name_prefix="geopro-part"
                )
        return _pool or None


def deal(items):
    """The items dealt round-robin into two parts, or into one part when
    there is at most one item."""
    return [items[0::2]] + ([items[1::2]] if len(items) > 1 else [])


def run_parts(pool, work, jobs):
    """Call ``work(*job)`` for each job, one per part.

    Two or more jobs go to ``pool``, a ``part_pool()``, each in a copy of
    the caller's context, since numpy's error state is a context variable;
    every job is waited for, and the first job's error is raised.  A single
    job runs inline on the calling thread and is never submitted, and so do
    all jobs when ``pool`` is None.
    """
    if pool is None or len(jobs) == 1:
        for job in jobs:
            work(*job)
        return
    futures = [pool.submit(contextvars.copy_context().run, work, *job) for job in jobs]
    errors = [future.exception() for future in futures]  # waits for every job
    for error in errors:
        if error is not None:
            raise error
