pub fn inverted(pool: &Pool, table: &Table) {
    let _buf = pool.slabs.lock();
    // lint:allow(lock-order): fixture — the pool guard is dropped
    // before this point in the real code shape being modelled.
    let _entry = table.entries.lock();
}
