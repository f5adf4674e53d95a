"""Two independent computations on the machine's two cores.

The pipeline runs three kinds of pair. kde.importance_log_ratios cuts the
human and persona densities at every pool point into two fixed stripes (row
strips of the cross density, tile rows of the self-density, assigned by
row index; at d=1 one fast Gauss transform each), and runs stripe 0 of
both beside stripe 1 of both; each stripe keeps its own sums, added in
stripe order afterwards. Each transport batch makes three passes over its
n x m buffer, each as the same two row stripes (core._striped_rows): the
cost fill, the exact median's count pass (each stripe counts its own
values; the counts add) and the kernel build. The last pair is the metric
suite for the uniform baseline and for the aligned subset (the pipeline's
`metrics` stage), whose median heuristic stays serial inside it. run_pair
runs each pair on min(2, usable CPUs) threads; numpy releases the GIL in
its products, exp, comparisons and sorts, so two threads overlap the
pair's work.

While a pair runs, numpy's OpenBLAS is pinned to one thread, for one worker
as for two: two workers that each start two BLAS threads contend for the
cores, and a product's last bit can depend on the BLAS thread count, so the
pin makes every bit independent of the worker count. The count is found and
set through the `scipy_openblas_{get,set}_num_threads64_` functions of the
OpenBLAS that numpy loaded; without them the pair runs serially, exactly as
two plain calls. The pin also stops the library's idle pool threads, which
would otherwise spin on the second core, when no other Python thread is
alive (see _one_blas_thread). Nothing is looked up and no thread starts
before the first call.
"""

from contextlib import contextmanager
import os
import threading

_LOCK = threading.Lock()
# (get, set, stop) OpenBLAS functions, stop None where it is missing; None
# until the first call looks them up, () when this process has none
_controls = None
# pairs running now, and the BLAS thread count from before the first of them
_pins = 0
_saved_threads = None


def _find_controls():
    """numpy's OpenBLAS (get, set, stop) functions, or () without get and set.

    get and set read and set the thread count; stop (blas_thread_shutdown_,
    None if absent) ends the library's idle pool threads, which it starts
    again at its next threaded call.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
            get = handle.scipy_openblas_get_num_threads64_
            put = handle.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        stop = getattr(handle, "blas_thread_shutdown_", None)
        if stop is not None:
            stop.restype, stop.argtypes = ctypes.c_int, []
        return get, put, stop
    return ()


def _openblas_controls():
    global _controls
    with _LOCK:
        if _controls is None:
            _controls = _find_controls()
        return _controls


def blas_threads():
    """numpy's OpenBLAS thread count now, or None where it cannot be read."""
    controls = _openblas_controls()
    return controls[0]() if controls else None


def _workers():
    return min(2, len(os.sched_getaffinity(0)))


@contextmanager
def _one_blas_thread(controls):
    """Pin OpenBLAS to one thread for the block; the count is process-wide,
    so pairs running at once share one pin, undone when the last ends.

    The first pin also stops OpenBLAS's idle pool threads: after a threaded
    call (a Sinkhorn matrix-vector product, say) a pool thread spins for
    about 0.13 s of CPU, measured on a 2-core x86-64 VM, whatever the thread
    count, and takes that time from the pair's second worker. The stop tears
    the pool down under any BLAS call in flight, so it is made only while
    the calling thread is the process's one Python thread.
    """
    global _pins, _saved_threads
    get, put, stop = controls
    with _LOCK:
        if _pins == 0:
            _saved_threads = get()
            put(1)
            if stop is not None and threading.active_count() == 1:
                stop()
        _pins += 1
    try:
        yield
    finally:
        with _LOCK:
            _pins -= 1
            if _pins == 0:
                put(_saved_threads)


def run_pair(first, second):
    """(first(), second()) for two independent thunks, on two threads if there are two cores.

    The thunks must share no mutable state. Errors surface as in a serial
    run: if first raises, its error propagates (after second has finished),
    whatever second did; otherwise second's error does. Pairs may run from
    several threads at once: the BLAS count is restored when the last of
    them ends. The pin is process-wide: BLAS work on other threads runs
    single-threaded meanwhile, and a count another thread sets while a pair
    runs is overwritten by that restore.
    """
    controls = _openblas_controls()
    if not controls:
        return first(), second()
    with _one_blas_thread(controls):
        if _workers() < 2:
            return first(), second()
        result = {}

        def work():
            try:
                result["value"] = second()
            except BaseException as exc:  # re-raised below unless first raises
                result["error"] = exc

        worker = threading.Thread(target=work, name="popalign-pair")
        worker.start()
        try:
            value = first()
        finally:
            worker.join()
        if "error" in result:
            raise result["error"]
        return value, result["value"]
