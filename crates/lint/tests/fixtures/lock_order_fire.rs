pub fn inverted(pool: &Pool, table: &Table) {
    let _buf = pool.slabs.lock();
    let _entry = table.entries.lock();
}

pub fn in_order(table: &Table, pool: &Pool) {
    let _entry = table.entries.lock();
    let _buf = pool.slabs.lock();
}
