// Waiters re-check under one slot's mutex, reached by index.
pub fn wait_filled(&self, i: usize) {
    let mut st = self.slots[i].lock();
    while st.is_empty() {
        self.filled.wait_until(&mut st, deadline());
    }
}

// A notify after a touch of the indexed mutex: clean.
pub fn fill(&self, i: usize) {
    self.slots[i].lock().push(1);
    self.filled.notify_one();
}

// A notify without it: the lost-wakeup shape.
pub fn poke(&self) {
    self.filled.notify_one();
}
