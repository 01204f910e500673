//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment for this repository has no access to a crates.io
//! mirror, so the workspace resolves the `crossbeam` dependency name to
//! this shim (see the root `Cargo.toml`). It implements exactly the API
//! surface the workspace uses, on top of `std`:
//!
//! * [`channel`] — multi-producer **multi-consumer** channels (the
//!   property `std::sync::mpsc` lacks), backed by a `Mutex<VecDeque>`
//!   plus a `Condvar`. Both ends are cloneable; `recv` blocks until a
//!   message arrives or every sender is dropped.

pub mod channel {
    //! Multi-producer multi-consumer FIFO channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        available: Condvar,
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (messages are distributed, not broadcast).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// The channel is disconnected (no receivers); returns the message.
    pub struct SendError<T>(pub T);

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why `try_recv` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// No message queued and every sender is gone.
        Disconnected,
    }

    /// Why `recv_timeout` returned nothing.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message.
        Timeout,
        /// No message queued and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            available: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().expect("channel poisoned").senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            st.senders -= 1;
            if st.senders == 0 {
                // wake blocked receivers so they observe disconnection
                self.shared.available.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .state
                .lock()
                .expect("channel poisoned")
                .receivers -= 1;
        }
    }

    impl<T> Sender<T> {
        /// Queue a message; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.shared.available.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.available.wait(st).expect("channel poisoned");
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().expect("channel poisoned");
            match st.queue.pop_front() {
                Some(v) => Ok(v),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .available
                    .wait_timeout(st, deadline - now)
                    .expect("channel poisoned");
                st = guard;
            }
        }

        /// Drain messages until every sender is dropped.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn channel_is_fifo_and_multi_consumer() {
        let (tx, rx) = channel::unbounded();
        let rx2 = rx.clone();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx2.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        drop(tx);
        let rest: Vec<i32> = rx.iter().collect();
        assert_eq!(rest, vec![3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(rx2.recv(), Err(channel::RecvError));
    }

    #[test]
    fn disconnection_is_observed_on_both_ends() {
        let (tx, rx) = channel::unbounded::<i32>();
        drop(rx);
        assert!(tx.send(1).is_err());

        let (tx, rx) = channel::unbounded::<i32>();
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn workers_share_one_receiver() {
        let (tx, rx) = channel::unbounded();
        let total = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let total = &total;
                s.spawn(move || {
                    while let Ok(v) = rx.recv() {
                        total.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            for i in 1..=100usize {
                tx.send(i).unwrap();
            }
            drop(tx);
        });
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 5050);
    }
}
