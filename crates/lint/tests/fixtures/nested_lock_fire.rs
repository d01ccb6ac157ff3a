pub fn element_then_container(table: &Table, act: &Activity) {
    let _st = act.state.lock();
    let _map = table.activities.lock();
}

pub fn one_at_a_time(table: &Table, act: &Activity) {
    let n = table.activities.lock().len();
    let _st = act.state.lock();
}
