"""Small shared helpers."""

import csv
import io
import itertools
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor, wait

BLOCK_ROWS = 128


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename so a failed run never
    leaves a truncated file behind.  The file gets the mode open(path, "w")
    would give it: a new one 0o666 less the umask, a replaced one its own."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(6).hex()}")
    try:
        f = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the path asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with f:
            f.write(text)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        try:
            os.replace(tmp, path)
        except OSError as exc:  # as for open: name the path, not the temp file
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows):
    """The CSV text of a header and rows, each line ended by "\n": RFC 4180
    with minimal quoting, so a field holding a comma, a double quote or a
    line feed is quoted.  csv.writer need not quote a carriage return (3.11
    quotes only the characters of its line terminator), so a row with one
    in a field has all its fields quoted.  The one place that knows the CSV
    dialect."""
    buf = io.StringIO()
    minimal = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in itertools.chain([header], rows):
        cr = any(isinstance(v, str) and "\r" in v for v in row)
        (quoted if cr else minimal).writerow(row)
    return buf.getvalue()


def cells(table):
    """(i, j, value) for each cell of a list of rows, row by row."""
    return ((i, j, v) for i, row in enumerate(table) for j, v in enumerate(row))


def usable_cores():
    """Cores this process may run on (its affinity mask where the OS has
    one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _new_pool():
    """Make the helper pool.  It starts no thread until map_row_blocks
    submits a helper, and then one only when none of its threads is idle, up
    to the executor's default cap."""
    global _pool
    _pool = ThreadPoolExecutor(thread_name_prefix="spsgmm")


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child's copy of the pool has no threads
    os.register_at_fork(after_in_child=_new_pool)


def map_row_blocks(fn, n_rows):
    """[fn(rows) for rows in consecutive BLOCK_ROWS-row slices of
    range(n_rows)], in block order.

    The calling thread works through the blocks, and up to (usable cores - 1)
    pool threads take blocks too.  A helper that has not started when the
    caller runs out of blocks is cancelled, so a busy core never delays the
    result.  With one usable core or one block there is no helper: the
    caller runs every block in order and no thread is started.  fn must be
    safe to call from several threads at once on disjoint rows."""
    blocks = [slice(i, min(i + BLOCK_ROWS, n_rows)) for i in range(0, n_rows, BLOCK_ROWS)]
    n_helpers = min(usable_cores(), len(blocks)) - 1
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

    helpers = [_pool.submit(work) for _ in range(n_helpers)]
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
