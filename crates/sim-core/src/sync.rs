//! `parking_lot`-flavoured synchronisation primitives over `std::sync`.
//!
//! The workspace builds offline, so the real `parking_lot` crate is not
//! available. This module mirrors the subset of its API the simulator
//! uses — panic-free locking (`lock()`/`read()`/`write()` return guards
//! directly, ignoring poison) and a [`Condvar`] whose `wait` takes the
//! guard by `&mut` — so call sites are a one-line import change.
//!
//! Poisoning is deliberately ignored: a panicking simulator thread should
//! not cascade into unrelated test failures, which matches `parking_lot`
//! semantics (it has no poisoning at all).
//!
//! Debug builds count every lock, read and write acquisition per thread
//! ([`acquisitions`]), so a test can pin how many locks a simulated call
//! takes; release builds count nothing.
//!
//! Handles that are set once and then only read need no lock at all:
//! [`AppendList`] is an append-only list read with one atomic load per
//! element, and `std::sync::OnceLock` covers a single handle.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{self, Arc, OnceLock};

#[cfg(debug_assertions)]
thread_local! {
    static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Lock, read and write acquisitions the calling thread has made through
/// this module so far (a successful `try_lock` counts; a `Condvar` wake
/// does not). Only debug builds count.
#[cfg(debug_assertions)]
pub fn acquisitions() -> u64 {
    ACQUISITIONS.with(std::cell::Cell::get)
}

#[inline]
fn acquired() {
    #[cfg(debug_assertions)]
    ACQUISITIONS.with(|n| n.set(n.get() + 1));
}

pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard wrapping the std guard in an `Option` so [`Condvar::wait`] can
/// temporarily take ownership of it (std's `wait` consumes the guard).
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        acquired();
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        acquired();
        Some(MutexGuard(Some(guard)))
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        acquired();
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        acquired();
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Atomically releases the guarded mutex and blocks until notified,
    /// reacquiring the lock before returning (spurious wakes possible,
    /// as with both std and `parking_lot`).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present before wait");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// An optional shared handle that costs one atomic load to read while
/// empty: a fault injector nobody armed, a sync observer nobody attached.
///
/// [`set`](Armed::set) writes the handle and its armed flag under one
/// lock; [`get`](Armed::get) returns `None` on the flag alone and takes
/// the lock only when something is armed. Arming, disarming and
/// re-arming behave as a plain `Mutex<Option<Arc<T>>>` does.
pub struct Armed<T: ?Sized> {
    /// Whether `slot` holds a handle. Stored (`Release`) only while the
    /// lock is held and loaded (`Acquire`) before taking it; the handle
    /// itself is read only under the lock.
    armed: AtomicBool,
    slot: Mutex<Option<Arc<T>>>,
}

impl<T: ?Sized> Armed<T> {
    /// An empty slot.
    pub const fn new() -> Self {
        Armed {
            armed: AtomicBool::new(false),
            slot: Mutex::new(None),
        }
    }

    /// Arms the slot with `value`, or empties it with `None`.
    pub fn set(&self, value: Option<Arc<T>>) {
        let mut slot = self.slot.lock();
        self.armed.store(value.is_some(), Ordering::Release);
        *slot = value;
    }

    /// The armed handle, if any.
    #[inline]
    pub fn get(&self) -> Option<Arc<T>> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        self.slot.lock().clone()
    }
}

impl<T: ?Sized> Default for Armed<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ?Sized> fmt::Debug for Armed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Armed")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .finish()
    }
}

/// An append-only list whose links are set once: a push lands in the
/// first empty link, and readers walk the list with one `Acquire` load
/// per element and no lock or reference count. Elements stay in push
/// order and live as long as the list.
pub struct AppendList<T> {
    head: OnceLock<Box<Node<T>>>,
}

struct Node<T> {
    value: T,
    next: OnceLock<Box<Node<T>>>,
}

impl<T> AppendList<T> {
    /// An empty list.
    pub const fn new() -> Self {
        AppendList {
            head: OnceLock::new(),
        }
    }

    /// Appends `value` after the last element. Concurrent pushes each
    /// land in the first empty link they find.
    pub fn push(&self, value: T) {
        let mut node = Box::new(Node {
            value,
            next: OnceLock::new(),
        });
        let mut link = &self.head;
        loop {
            match link.set(node) {
                Ok(()) => return,
                Err(back) => {
                    node = back;
                    link = &link.get().expect("a link that refused a node is set").next;
                }
            }
        }
    }

    /// The elements in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        std::iter::successors(self.head.get(), |node| node.next.get()).map(|node| &node.value)
    }

    /// The most recently pushed element.
    pub fn last(&self) -> Option<&T> {
        self.iter().last()
    }
}

impl<T> Default for AppendList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for AppendList<T> {
    /// Unlinks the nodes one by one, so a long list does not recurse.
    fn drop(&mut self) {
        let mut next = self.head.take();
        while let Some(mut node) = next {
            next = node.next.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn mutex_guards_data() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4_000);
    }

    #[test]
    fn condvar_wait_roundtrips_guard() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
                // The guard must be usable again after wait().
                *ready = false;
            })
        };
        thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        waiter.join().unwrap();
        assert!(!*lock.lock());
    }

    #[test]
    fn rwlock_allows_concurrent_reads() {
        let l = RwLock::new(7u32);
        let (a, b) = (l.read(), l.read());
        assert_eq!((*a, *b), (7, 7));
        drop((a, b));
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn poisoned_lock_still_usable() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn append_list_keeps_push_order_across_threads() {
        let list = Arc::new(AppendList::new());
        assert_eq!(list.last(), None);
        list.push(0u32);
        let handles: Vec<_> = (1..=4)
            .map(|t| {
                let list = Arc::clone(&list);
                thread::spawn(move || {
                    for i in 0..100 {
                        list.push(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let all: Vec<u32> = list.iter().copied().collect();
        assert_eq!(all.len(), 401);
        assert_eq!(all[0], 0);
        // Each thread's pushes keep their own order.
        for t in 1..=4 {
            let mine: Vec<u32> = all.iter().copied().filter(|v| v / 1_000 == t).collect();
            assert_eq!(mine, (0..100).map(|i| t * 1_000 + i).collect::<Vec<_>>());
        }
        list.push(7);
        assert_eq!(list.last(), Some(&7));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn acquisitions_count_locks_reads_and_writes_per_thread() {
        let m = Mutex::new(0u8);
        let l = RwLock::new(0u8);
        let before = acquisitions();
        drop(m.lock());
        drop(l.read());
        drop(l.write());
        let held = m.lock();
        assert!(m.try_lock().is_none(), "a refused try_lock");
        drop(held);
        drop(m.try_lock());
        assert_eq!(acquisitions() - before, 5);
        // Another thread's acquisitions are its own.
        thread::spawn(|| {
            let base = acquisitions();
            drop(Mutex::new(()).lock());
            assert_eq!(acquisitions() - base, 1);
        })
        .join()
        .unwrap();
        assert_eq!(acquisitions() - before, 5);
    }

    #[test]
    fn armed_slot_rearms_and_clears() {
        let slot: Armed<u32> = Armed::new();
        assert!(slot.get().is_none());
        slot.set(Some(Arc::new(1)));
        assert_eq!(slot.get().as_deref(), Some(&1));
        slot.set(None);
        assert!(slot.get().is_none());
        slot.set(Some(Arc::new(2)));
        assert_eq!(slot.get().as_deref(), Some(&2));
    }
}
