"""Small shared helpers."""

import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor, wait

BLOCK_ROWS = 128

_pool_lock = threading.Lock()
_pool = None  # (pid, helper count, executor), rebuilt in a forked child


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename so a failed run never
    leaves a truncated file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    except OSError as exc:  # name the path asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def is_smooth(n):
    """True when the positive integer n has no prime factor above 5: the
    lengths pocketfft transforms fastest."""
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


def usable_cores():
    """Cores this process may run on (its affinity mask where the OS has
    one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_pool(n):
    """A pool of n helper threads, made on first use and made again in a
    forked child, whose copy of the parent's pool has no threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[:2] != (os.getpid(), n):
            if _pool is not None and _pool[0] == os.getpid():
                _pool[2].shutdown(wait=False)  # the affinity changed
            _pool = (os.getpid(), n, ThreadPoolExecutor(n, thread_name_prefix="spsgmm"))
        return _pool[2]


def map_row_blocks(fn, n_rows):
    """[fn(rows) for rows in consecutive BLOCK_ROWS-row slices of
    range(n_rows)], in block order.

    The calling thread works through the blocks, and up to (usable cores - 1)
    pool threads take blocks too.  A helper that has not started when the
    caller runs out of blocks is cancelled, so a busy core never delays the
    result.  With one usable core or one block, no thread is started.  fn
    must be safe to call from several threads at once on disjoint rows."""
    blocks = [slice(i, min(i + BLOCK_ROWS, n_rows)) for i in range(0, n_rows, BLOCK_ROWS)]
    cores = usable_cores()
    n_helpers = min(cores, len(blocks)) - 1
    if n_helpers < 1:
        return [fn(rows) for rows in blocks]
    results = [None] * len(blocks)
    todo = iter(range(len(blocks)))
    claim = threading.Lock()

    def work():
        while True:
            with claim:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(blocks[i])

    pool = _helper_pool(cores - 1)
    helpers = [pool.submit(work) for _ in range(n_helpers)]
    try:
        work()
    finally:
        with claim:  # if the caller's block raised, leave nothing to claim
            for _ in todo:
                pass
        for f in helpers:
            f.cancel()
        wait(helpers)
    for f in helpers:
        if not f.cancelled():
            f.result()  # raises a helper's exception
    return results
