"""The TPC-C database: nine tables plus two secondary indexes, all as
B+-trees sharing one buffer pool.

Key shapes (all-integer composites except the name index):

* ``warehouse``         (w_id,)
* ``district``          (w_id, d_id)
* ``customer``          (w_id, d_id, c_id)
* ``customer_by_name``  (w_id, d_id, c_last, c_first, c_id) -> c_id
* ``history``           (w_id, d_id, c_id, seq)
* ``order``             (w_id, d_id, o_id)
* ``order_by_customer`` (w_id, d_id, c_id, o_id) -> o_id
* ``new_order``         (w_id, d_id, o_id)
* ``order_line``        (w_id, d_id, o_id, number)
* ``item``              (i_id,)
* ``stock``             (w_id, i_id)
"""

from __future__ import annotations

from typing import Optional

from repro.btree import BPlusTree, BufferPool
from repro.tpcc.schema import INDEX_PAYLOAD_BYTES, KEY_BYTES, ROW_BYTES
from repro.workloads.trace import TraceRecorder


class TpccDatabase:
    """All tables of one TPC-C instance."""

    TABLES = (
        "warehouse", "district", "customer", "history",
        "order", "new_order", "order_line", "item", "stock",
    )

    def __init__(
        self,
        pool_pages: int,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.pool = BufferPool(pool_pages, recorder=recorder)
        self.warehouse = self._table("warehouse")
        self.district = self._table("district")
        self.customer = self._table("customer")
        self.customer_by_name = BPlusTree(
            self.pool,
            key_bytes=KEY_BYTES["customer_by_name"],
            value_bytes=INDEX_PAYLOAD_BYTES,
            name="customer_by_name",
        )
        self.history = self._table("history")
        self.order = self._table("order")
        self.order_by_customer = BPlusTree(
            self.pool,
            key_bytes=KEY_BYTES["order_by_customer"],
            value_bytes=INDEX_PAYLOAD_BYTES,
            name="order_by_customer",
        )
        self.new_order = self._table("new_order")
        self.order_line = self._table("order_line")
        self.item = self._table("item")
        self.stock = self._table("stock")
        #: Monotonic history sequence (history has no natural key).
        self.history_seq = 0

    def _table(self, name: str) -> BPlusTree:
        return BPlusTree(
            self.pool,
            key_bytes=KEY_BYTES[name],
            value_bytes=ROW_BYTES[name],
            name=name,
        )

    def next_history_seq(self) -> int:
        """Allocate the next HISTORY surrogate key."""
        self.history_seq += 1
        return self.history_seq

    @property
    def footprint_pages(self) -> int:
        """Total pages ever allocated across all trees — the storage
        footprint that drives the fill factor."""
        return self.pool.allocated_pages

    def checkpoint(self) -> int:
        """Flush all dirty pages; returns pages written."""
        return self.pool.checkpoint()

    def table_sizes(self) -> dict:
        """Row count per table (diagnostics)."""
        return {
            name: len(getattr(self, name))
            for name in self.TABLES
        }

    def __repr__(self) -> str:
        return "<TpccDatabase %d pages, %s>" % (
            self.footprint_pages,
            ", ".join("%s=%d" % kv for kv in sorted(self.table_sizes().items())),
        )
