//! Offline stand-in for the `crossbeam` crate: [`utils::CachePadded`]
//! (the energy meter's false-sharing guard) and [`channel`] — the
//! bounded MPMC channel the `spatial-serve` worker pool runs on.

/// Utility types (`crossbeam::utils`).
pub mod utils {
    /// Pads and aligns a value to 128 bytes so adjacent atomics don't
    /// share a cache line (false sharing) on the energy meter's hot
    /// counters.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in padding.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }

        /// Unwraps the padded value.
        pub fn into_inner(self) -> T {
            self.value
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }

    impl<T> From<T> for CachePadded<T> {
        fn from(value: T) -> Self {
            CachePadded::new(value)
        }
    }
}

/// Multi-producer multi-consumer channels (`crossbeam::channel`),
/// restricted to the bounded variant this workspace uses: a
/// fixed-capacity FIFO whose full buffer **blocks senders** — the
/// backpressure primitive of the `spatial-serve` submission queue.
///
/// Semantics match upstream crossbeam where implemented:
/// - [`Sender::send`](channel::Sender::send) blocks while the buffer is full and fails only
///   when every receiver is gone;
/// - [`Receiver::recv`](channel::Receiver::recv) blocks while the buffer is empty and fails only
///   when every sender is gone *and* the buffer has drained —
///   in-flight messages are always delivered before disconnect;
/// - [`Receiver::try_recv`](channel::Receiver::try_recv) never blocks (the queue-drain hook the
///   serve-layer coalescer is built on);
/// - dropping the last `Sender`/`Receiver` disconnects and wakes every
///   blocked peer.
///
/// Built on the parking_lot shim's `Mutex`/`Condvar` (one lock per
/// channel, two wait queues). The serve layer hands off coalesced
/// *batches*, not per-query messages, so channel overhead is off the
/// hot path by design — see `crates/serve/DESIGN.md`.
pub mod channel {
    use parking_lot::{Condvar, Mutex};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// Error of [`Sender::send`]: every receiver disconnected; the
    /// unsent message is handed back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error of [`Receiver::recv`]: every sender disconnected and the
    /// buffer is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error of [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The buffer is momentarily empty (senders remain connected).
        Empty,
        /// Every sender disconnected and the buffer is drained.
        Disconnected,
    }

    struct State<T> {
        buf: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Signalled when a message lands or senders disconnect.
        not_empty: Condvar,
        /// Signalled when a slot frees or receivers disconnect.
        not_full: Condvar,
    }

    /// The sending half of a bounded channel; clone for more producers.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a bounded channel; clone for more
    /// consumers.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Creates a bounded FIFO channel with room for `cap` in-flight
    /// messages.
    ///
    /// # Panics
    /// Panics when `cap` is zero (upstream's zero-capacity rendezvous
    /// channel is not implemented — the serve layer always buffers).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "rendezvous (capacity-0) channels unsupported");
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(cap),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until the message is buffered; fails (returning the
        /// message) only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.state.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if state.buf.len() < state.cap {
                    state.buf.push_back(value);
                    drop(state);
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                self.chan.not_full.wait(&mut state);
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Blocked receivers must observe the disconnect.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives; fails only when every sender
        /// is gone and the buffer has drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.chan.state.lock();
            loop {
                if let Some(value) = state.buf.pop_front() {
                    drop(state);
                    self.chan.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                self.chan.not_empty.wait(&mut state);
            }
        }

        /// Non-blocking receive — the coalescer's drain hook.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.chan.state.lock();
            match state.buf.pop_front() {
                Some(value) => {
                    drop(state);
                    self.chan.not_full.notify_one();
                    Ok(value)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Number of currently buffered messages (racy; diagnostics
        /// only).
        pub fn len(&self) -> usize {
            self.chan.state.lock().buf.len()
        }

        /// Whether the buffer is momentarily empty (racy; diagnostics
        /// only).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.state.lock();
            state.receivers -= 1;
            if state.receivers == 0 {
                // Undeliverable messages are dropped NOW, not when the
                // channel itself dies: a buffered message can hold
                // resources whose release other threads are blocked on
                // (the serve layer's in-flight jobs carry reply
                // senders — a dead worker's queued jobs must disconnect
                // their tickets promptly, or `Ticket::wait` hangs until
                // service teardown). Moved out under the lock, dropped
                // after releasing it, in case a payload Drop re-enters.
                let orphaned = std::mem::take(&mut state.buf);
                drop(state);
                // Blocked senders must observe the disconnect.
                self.chan.not_full.notify_all();
                drop(orphaned);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvError, SendError, TryRecvError};
    use super::utils::CachePadded;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn aligned_and_transparent() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
        let counter = CachePadded::new(AtomicU64::new(3));
        counter.fetch_add(4, Ordering::Relaxed);
        assert_eq!(counter.load(Ordering::Relaxed), 7);
        assert_eq!(counter.into_inner().into_inner(), 7);
    }

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).expect("receiver alive");
        }
        assert_eq!(rx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn full_buffer_blocks_sender_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).expect("room");
        let producer = std::thread::spawn(move || {
            // Blocks until the consumer drains the first message.
            tx.send(2).expect("receiver alive");
            tx.send(3).expect("receiver alive");
        });
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv().expect("producer alive"));
        }
        producer.join().expect("producer");
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn drop_semantics_disconnect_both_ways() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(7).expect("room");
        drop(tx);
        // In-flight messages deliver before the disconnect is reported.
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn last_receiver_drop_releases_buffered_messages() {
        // A message sitting in a dead channel's buffer must not keep
        // its payload alive: here the payload is itself a sender whose
        // receiver can only disconnect once the payload drops.
        let (tx, rx) = bounded::<super::channel::Sender<u8>>(2);
        let (reply_tx, reply_rx) = bounded::<u8>(1);
        assert!(tx.send(reply_tx).is_ok(), "receiver alive");
        drop(rx);
        assert_eq!(
            reply_rx.recv(),
            Err(RecvError),
            "buffered payload must drop with the last receiver"
        );
    }

    #[test]
    fn cloned_senders_count_toward_disconnect() {
        let (tx, rx) = bounded::<u32>(8);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(1).expect("second sender keeps the channel open");
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn many_producers_one_consumer() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        tx.send(p * 100 + i).expect("receiver alive");
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for p in producers {
            p.join().expect("producer");
        }
        got.sort_unstable();
        let want: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..25).map(move |i| p * 100 + i))
            .collect();
        assert_eq!(got, want);
    }
}
