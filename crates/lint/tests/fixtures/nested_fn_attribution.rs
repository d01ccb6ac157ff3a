// `outer` defines `inner` and never calls it: what `inner` calls, locks
// and waits on is `inner`'s alone.
pub fn outer(p: &P) {
    fn inner(p: &P) {
        let mut g = p.state.lock();
        while g.busy {
            p.changed.wait_until(&mut g, deadline());
        }
        settle();
    }
    p.changed.notify_one();
}

fn settle() {}
