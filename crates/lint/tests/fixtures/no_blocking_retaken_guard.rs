pub fn retake_then_send(t: &T, frames: &[u8], runs: &[(usize, Addr)]) {
    let mut st = t.state.lock();
    consume(&st);
    drop(st);
    if ready(t) {
        st = t.state.lock();
    }
    t.transport.send_batch(frames, runs);
    consume(&st);
}
