//! Concurrency and property tests for the buffer pool.

use firefly_pool::{BufferPool, PoolError, BUFFER_SIZE};
use firefly_propcheck::{check, prop_assert_eq};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

#[test]
fn hammering_from_many_threads_preserves_capacity() {
    let pool = BufferPool::new(8);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let mut handles = Vec::new();
    for t in 0..8 {
        let pool = pool.clone();
        let barrier = barrier.clone();
        handles.push(thread::spawn(move || {
            barrier.wait();
            for i in 0..500 {
                match pool.alloc_timeout(Duration::from_secs(2)) {
                    Ok(mut b) => {
                        b.set_len(74);
                        b[0] = t as u8;
                        b[73] = (i % 251) as u8;
                        // Exercise both release paths.
                        if i % 3 == 0 {
                            let p = b.pool().clone();
                            p.recycle_to_receive_queue(b);
                        }
                    }
                    Err(PoolError::Timeout) => panic!("starved"),
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every buffer is either free or parked on the receive queue.
    assert_eq!(pool.free_count() + pool.receive_queue_len(), 8);
    assert_eq!(pool.stats().outstanding(), 0);
}

/// The counters live under the shard lock with the lists, so the peak
/// is exact: four threads cycling three buffers through every take and
/// give-back path never see `high_water` above the capacity. (With the
/// counters kept beside the lock, an allocator that popped a slab
/// between its push and the `frees` bump counted one buffer too many.)
#[test]
fn high_water_never_exceeds_capacity_under_contention() {
    const CAPACITY: usize = 3;
    let pool = BufferPool::new(CAPACITY);
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let pool = pool.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                for i in 0..20_000usize {
                    let taken = if (i + t) % 2 == 0 {
                        pool.alloc()
                    } else {
                        pool.take_receive_buffer()
                    };
                    if let Ok(buf) = taken {
                        if i % 3 == 0 {
                            buf.recycle();
                        }
                    }
                    let peak = pool.stats().high_water();
                    assert!(peak <= CAPACITY as u64, "high_water {peak} > {CAPACITY}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(pool.stats().outstanding(), 0);
    assert_eq!(pool.free_count() + pool.receive_queue_len(), CAPACITY);
}

#[test]
fn receive_queue_buffers_are_reusable() {
    let pool = BufferPool::new(4);
    for _ in 0..100 {
        let b = pool.take_receive_buffer().unwrap();
        pool.recycle_to_receive_queue(b);
    }
    assert_eq!(pool.free_count() + pool.receive_queue_len(), 4);
}

/// Any interleaving of alloc/free/recycle keeps the buffer count
/// conserved: free + receive_queue + outstanding == capacity.
#[test]
fn buffer_count_is_conserved() {
    check("buffer_count_is_conserved", 256, |g| {
        let ops = g.vec(1..200, |g| g.usize_in(0..4));
        let capacity = 6;
        let pool = BufferPool::new(capacity);
        let mut held = Vec::new();
        for op in ops {
            match op {
                0 => {
                    if let Ok(b) = pool.alloc() {
                        held.push(b);
                    }
                }
                1 => {
                    held.pop();
                }
                2 => {
                    if let Some(b) = held.pop() {
                        pool.recycle_to_receive_queue(b);
                    }
                }
                _ => {
                    if let Ok(b) = pool.take_receive_buffer() {
                        held.push(b);
                    }
                }
            }
            let total = pool.free_count() + pool.receive_queue_len() + held.len();
            prop_assert_eq!(total, capacity);
            prop_assert_eq!(pool.stats().outstanding(), held.len() as u64);
        }
        Ok(())
    });
}

/// Writes through one handle never alias another live handle.
#[test]
fn buffers_do_not_alias() {
    check("buffers_do_not_alias", 64, |g| {
        let n = g.usize_in(2..6);
        let pool = BufferPool::new(n);
        let mut bufs: Vec<_> = (0..n).map(|_| pool.alloc().unwrap()).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            b.set_len(BUFFER_SIZE);
            b[0] = i as u8;
            b[BUFFER_SIZE - 1] = (i * 7) as u8;
        }
        for (i, b) in bufs.iter().enumerate() {
            prop_assert_eq!(b[0], i as u8);
            prop_assert_eq!(b[BUFFER_SIZE - 1], (i * 7) as u8);
        }
        Ok(())
    });
}
