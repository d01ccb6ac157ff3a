pub fn container_then_element(table: &Table, act: &Activity) {
    let _map = table.activities.lock();
    // lint:allow(nested-lock): fixture — the table's lock, then an
    // entry's, never the reverse.
    let _st = act.state.lock();
}
