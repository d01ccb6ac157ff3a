pub fn drop_then_relock(table: &Table, act: &Activity) {
    let st = act.state.lock();
    consume(&st);
    drop(st);
    let _map = table.activities.lock();
}

pub fn scope_then_relock(table: &Table, act: &Activity) {
    {
        let _st = act.state.lock();
    }
    let _map = table.activities.lock();
}
