use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every update leaves the queue and counts valid, so a panic in
        // another holder does not invalidate them.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub struct Sender<T>(Arc<Chan<T>>);
pub struct Receiver<T>(Arc<Chan<T>>);

pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        // A rendezvous channel is not needed here; one slot is the minimum.
        capacity: capacity.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&chan)), Receiver(chan))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> Sender<T> {
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.queue.len() < self.0.capacity {
                st.queue.push_back(value);
                drop(st);
                self.0.not_empty.notify_one();
                return Ok(());
            }
            st = self
                .0
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.queue.len() >= self.0.capacity {
            return Err(TrySendError::Full(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.0.not_empty.notify_one();
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self
                .0
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.0.lock();
        match st.queue.pop_front() {
            Some(v) => {
                drop(st);
                self.0.not_full.notify_one();
                Ok(v)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.0.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self
                .0
                .not_empty
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self)
    }

    /// A `recv` would return without blocking: a message or a disconnect.
    fn is_ready(&self) -> bool {
        let st = self.0.lock();
        !st.queue.is_empty() || st.senders == 0
    }
}

pub struct Iter<'a, T>(&'a Receiver<T>);

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

pub struct IntoIter<T>(Receiver<T>);

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter(self)
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        if st.senders == 0 {
            drop(st);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            drop(st);
            self.0.not_full.notify_all();
        }
    }
}

trait Ready {
    fn ready(&self) -> bool;
}

impl<T> Ready for Receiver<T> {
    fn ready(&self) -> bool {
        self.is_ready()
    }
}

/// Waits on several receivers by polling them in turn.
#[derive(Default)]
pub struct Select<'a> {
    handles: Vec<Option<&'a dyn Ready>>,
    next: usize,
}

pub struct SelectedOperation {
    index: usize,
}

impl<'a> Select<'a> {
    pub fn new() -> Self {
        Select {
            handles: Vec::new(),
            next: 0,
        }
    }

    pub fn recv<T>(&mut self, rx: &'a Receiver<T>) -> usize {
        self.handles.push(Some(rx));
        self.handles.len() - 1
    }

    pub fn remove(&mut self, index: usize) {
        self.handles[index] = None;
    }

    pub fn select(&mut self) -> SelectedOperation {
        assert!(
            self.handles.iter().any(Option::is_some),
            "select on no operations"
        );
        let n = self.handles.len();
        loop {
            // Start after the last pick so one busy receiver cannot starve the rest.
            for step in 0..n {
                let index = (self.next + step) % n;
                if self.handles[index].is_some_and(Ready::ready) {
                    self.next = index + 1;
                    return SelectedOperation { index };
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

impl SelectedOperation {
    pub fn index(&self) -> usize {
        self.index
    }

    pub fn recv<T>(self, rx: &Receiver<T>) -> Result<T, RecvError> {
        rx.recv()
    }
}
