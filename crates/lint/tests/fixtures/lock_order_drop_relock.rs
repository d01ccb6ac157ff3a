pub fn drop_then_relock(pool: &Pool, table: &Table) {
    let buf = pool.slabs.lock();
    consume(&buf);
    drop(buf);
    let _entry = table.entries.lock();
}

pub fn scope_then_relock(pool: &Pool, table: &Table) {
    {
        let _buf = pool.slabs.lock();
    }
    let _entry = table.entries.lock();
}
