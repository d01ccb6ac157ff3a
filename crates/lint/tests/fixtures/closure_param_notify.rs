pub fn wait_free(p: &P) {
    let mut g = p.free.lock();
    while g.is_empty() {
        p.available.wait_until(&mut g, deadline());
    }
}

// A same-file helper that takes the waiters' mutex.
fn refill(p: &P) {
    p.free.lock().push(1);
}

// `refill` here is the caller's closure, not the helper: nothing in
// `wake` takes `free` before the notify.
pub fn wake(p: &P, refill: impl Fn()) {
    refill();
    p.available.notify_one();
}
