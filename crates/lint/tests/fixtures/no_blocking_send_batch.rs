pub fn send_window(t: &T, frames: &[u8], runs: &[(usize, Addr)]) {
    let _st = t.state.lock();
    t.transport.send_batch(frames, runs);
}
