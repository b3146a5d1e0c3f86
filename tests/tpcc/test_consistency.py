"""TPC-C spec consistency conditions as a transaction-correctness
oracle."""

import pytest

from repro.tpcc import TpccDatabase, TpccDriver, TpccRandom, TpccScale, load_database
from repro.tpcc.consistency import ConsistencyViolation, check_consistency

SCALE = TpccScale(
    warehouses=2, districts_per_warehouse=3,
    customers_per_district=40, initial_orders_per_district=40,
    items=200,
)


def fresh_db(seed=1):
    db = TpccDatabase(pool_pages=50_000)
    rng = TpccRandom(seed)
    load_database(db, SCALE, rng)
    return db, rng


class TestAfterLoad:
    def test_initial_population_is_consistent(self):
        db, _ = fresh_db()
        performed = check_consistency(db, SCALE)
        assert len(performed) == 2 * SCALE.warehouses


class TestAfterTransactions:
    def test_consistency_survives_the_full_mix(self):
        db, rng = fresh_db(seed=2)
        driver = TpccDriver(db, SCALE, rng, checkpoint_every=100)
        driver.run(1500)
        check_consistency(db, SCALE)

    def test_consistency_through_a_constantly_evicting_pool(self):
        """Pages that leave a tiny pool and come back off its "disk"
        keep every row the transactions wrote."""
        db = TpccDatabase(pool_pages=64)
        rng = TpccRandom(10)
        load_database(db, SCALE, rng)
        TpccDriver(db, SCALE, rng, checkpoint_every=200).run(600)
        assert db.pool.stats.evictions > 0
        check_consistency(db, SCALE)

    def test_consistency_survives_heavy_delivery(self):
        from repro.tpcc import delivery, new_order
        db, rng = fresh_db(seed=3)
        for _ in range(200):
            new_order(db, rng, SCALE, w_id=1)
        for _ in range(100):
            delivery(db, rng, SCALE, w_id=1)
        check_consistency(db, SCALE)


class TestDetection:
    """The checker must actually catch corruption."""

    def test_detects_ytd_drift(self):
        db, _ = fresh_db(seed=4)
        row = db.warehouse.search((1,))
        db.warehouse.update((1,), (row[0], row[1] + 100.0))
        with pytest.raises(ConsistencyViolation, match="consistency 1"):
            check_consistency(db, SCALE)

    def test_detects_order_counter_drift(self):
        db, _ = fresh_db(seed=5)
        d = db.district.search((1, 1))
        db.district.update((1, 1), (d[0], d[1], d[2] + 5))
        with pytest.raises(ConsistencyViolation, match="consistency 2"):
            check_consistency(db, SCALE)

    def test_detects_queue_gap(self):
        db, _ = fresh_db(seed=6)
        queue = [k for k, _ in db.new_order.scan_prefix((1, 1))]
        assert len(queue) >= 3
        db.new_order.delete(queue[1])  # delete from the middle
        with pytest.raises(ConsistencyViolation, match="consistency 3"):
            check_consistency(db, SCALE)

    def test_detects_missing_order_line(self):
        db, _ = fresh_db(seed=7)
        key = next(iter(db.order_line.scan_prefix((1, 1))))[0]
        db.order_line.delete(key)
        with pytest.raises(ConsistencyViolation, match="consistency [46]"):
            check_consistency(db, SCALE)

    def test_detects_orphan_new_order(self):
        db, _ = fresh_db(seed=8)
        key = next(iter(db.new_order.scan_prefix((1, 1))))[0]
        db.order.delete(key)
        with pytest.raises(ConsistencyViolation):
            check_consistency(db, SCALE)
