"""The calibration kernel: a fixed piece of work that measures the box.

On a shared 2-CPU sandbox identical work takes 38-116 ms within one
minute, so raw wall clock cannot carry a performance claim.  The drive
loop therefore runs :func:`cal` before the first chunk of client ops
and after every chunk, and divides the chunk's time by how much slower
than ``CAL_REF_S`` the kernel ran around it.

The kernel mixes what the program mixes, half and half: Python
dict/tuple/list work over a dict too large for L2, and the store's kind
of numpy -- many small gathers, masks, scatters, cumsums and bincounts
over 64-element runs of a 32k-entry table, where call overhead, not
bandwidth, sets the time.  (Measured over 30 identical reps of
``sim-mdc-zipf``, a large-array gather/sort kernel left an 8-11 %
interquartile spread after calibration, this small-op kernel 4 %.)  It
never imports ``repro``, so no change to the program can move it.
"""

from time import perf_counter

import numpy as np

#: The kernel's nominal duration; calibrated seconds are "seconds on a
#: box where cal() takes exactly this long".  A constant of the
#: benchmark: changing it rescales every calibrated metric.
CAL_REF_S = 0.004

#: How a microsecond call's median follows the box: when the kernel
#: (and with it every total: throughput, a flush, a write_batch) runs
#: ``f`` times slower, the median ``Service.put`` or ``get`` runs only
#: ``f ** CALL_EXPONENT`` times slower.  Fitted over 60 separate runs
#: and 90 reps, three workloads, puts and gets alike: 0.56-0.69 each,
#: and the same against every other kernel tried (a cache-resident
#: loop, per-call medians of a mock put).  Dividing such a median by
#: plain ``f`` over-corrects: its spread over runs was 7-9 % so, 4-6 %
#: with the exponent.  A variance device only -- it scales parent and
#: change alike.
CALL_EXPONENT = 0.65

_DICT_KEYS = 60_000
_PY_STEPS = 3_000
_TABLE_LEN = 32_768
_RUN = 64
_NP_RUNS = 180

_dict = {(i % 7, i): i for i in range(_DICT_KEYS)}
# Fixed pseudo-random walks over both structures (LCG, no RNG state).
_probe = [(i * 2_654_435_761) % _DICT_KEYS for i in range(_PY_STEPS)]
_table = np.arange(_TABLE_LEN, dtype=np.int64) % 512
_scratch = np.zeros(_TABLE_LEN, dtype=np.int64)
_ids = (np.arange(_NP_RUNS * _RUN, dtype=np.int64) * 2_654_435_761) % _TABLE_LEN


def cal() -> float:
    """Run the kernel once; returns its wall-clock seconds."""
    t0 = perf_counter()
    lookup = _dict
    out = []
    append = out.append
    for i in _probe:
        append((i, lookup[(i % 7, i)]))
    table, scratch, ids = _table, _scratch, _ids
    total = len(out)
    for start in range(0, len(ids), _RUN):
        run = ids[start : start + _RUN]
        segs = table[run]
        live = np.flatnonzero(segs > 200)
        scratch[run] = segs + 1
        total += int(np.cumsum(segs)[-1]) + live.size
        total += int(np.bincount(segs, minlength=512)[3])
    t1 = perf_counter()
    if total < 0:  # keeps the results consumed
        raise AssertionError
    return t1 - t0
