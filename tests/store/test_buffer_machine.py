"""Model-based test of the sorting buffer: a Hypothesis state machine
drives one buffered store through ``write``, ``write_batch``, ``trim``,
``flush`` and flushes the device refuses, next to a dict model of the
buffer (page id -> size in arrival order), while the store keeps
membership and size in its page table and only an arrival log beside.

The geometry is small enough that a few dozen writes fill the device,
so refused flushes happen along the way.  After every step the store's
buffer must list the model's pages in the model's order, count them,
sum their sizes, and pass ``check_invariants``.

``max_examples`` is left to the profile (``tests/conftest.py``): 100 in
tier-1, 1,500 under ``--hypothesis-profile nightly``.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import event
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.policies import make_policy
from repro.store import LogStructuredStore, OutOfSpaceError, StoreConfig
from repro.store.pagetable import IN_BUFFER

SEGMENT_UNITS = 8
CONFIG = StoreConfig(
    n_segments=12, segment_units=SEGMENT_UNITS, fill_factor=0.5,
    clean_trigger=2, clean_batch=2, sort_buffer_segments=2,
)
N_PAGES = 48

pids = st.integers(0, N_PAGES - 1)
sizes = st.integers(1, SEGMENT_UNITS)


class BufferMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = LogStructuredStore(CONFIG, make_policy("mdc"))
        self.capacity = self.store.buffer.capacity_units
        #: The model: page id -> size, in arrival order.  A rewrite keeps
        #: its key's place, a new page is appended, a trim pops it, a
        #: flush empties it.
        self.model = {}

    def refused(self, drained):
        """A refused flush: the pages it did not emit return in emission
        order (ascending sort key, ties by page id)."""
        event("refused flush")
        store = self.store
        left = np.asarray(
            [pid for pid in drained if store.pages.seg[pid] == IN_BUFFER],
            dtype=np.int64,
        )
        if left.size:
            left = left[np.lexsort((left, store.policy.user_sort_key(left)))]
        self.model = {pid: drained[pid] for pid in left.tolist()}

    def apply(self, writes):
        """Feed ``writes`` to the model the way the store's scalar loop
        takes them, stopping at the one the store's flush refused
        (``failed``: its position, or None)."""
        store = self.store
        clock = store.clock
        failed = None
        try:
            if len(writes) == 1:
                store.write(*writes[0])
            else:
                store.write_batch(
                    [pid for pid, _ in writes], [size for _, size in writes]
                )
        except OutOfSpaceError:
            # A write ticks the clock before it flushes.
            failed = store.clock - clock - 1
        for i, (pid, size) in enumerate(writes):
            model = self.model
            if pid not in model and sum(model.values()) + size > self.capacity:
                self.model = {}
                if i == failed:
                    self.refused(model)
                    return
            self.model[pid] = size
        assert failed is None, "the store refused a flush the model did not make"

    @rule(pid=pids, size=sizes)
    def write(self, pid, size):
        self.apply([(pid, size)])

    @rule(writes=st.lists(st.tuples(pids, sizes), min_size=2, max_size=24))
    def write_batch(self, writes):
        self.apply(writes)

    @rule(pid=pids)
    def trim(self, pid):
        self.store.trim(pid)
        self.model.pop(pid, None)

    @rule()
    def flush(self):
        drained, self.model = self.model, {}
        try:
            self.store.flush()
        except OutOfSpaceError:
            self.refused(drained)

    @invariant()
    def buffer_matches_model(self):
        buf = self.store.buffer
        assert buf.order().tolist() == list(self.model)
        assert len(buf) == len(self.model)
        assert buf.used_units == sum(self.model.values())
        self.store.check_invariants()


TestBufferMachine = BufferMachine.TestCase
