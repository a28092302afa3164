//! Fork-join over the per-tensor steps of the payload path.
//!
//! One process-wide pool of `available_parallelism() − 1` persistent
//! helper threads sits under [`map`]. The calling thread always works
//! too, claiming items from the same counter as the helpers, so a busy
//! pool — or one with no helpers at all — degrades to the plain serial
//! loop and can never deadlock: nothing waits for a helper to *start*,
//! only for helpers that did start to *leave*.
//!
//! A call runs inline (`items.iter().map(f)`, on the caller) when the
//! pool has no helper, when it is nested inside another [`map`], when
//! there are fewer than two items, or when the bytes it is about to walk
//! are under `MIN_FORK_BYTES` (1 MiB): waking a parked helper costs
//! tens of microseconds, which a 20 KB store cannot win back and an
//! 8 MiB one never notices (EXPERIMENTS.md "Payload-path parallelism"
//! has the sweep).
//!
//! Helpers see the caller's ambient trace context and cost-ledger cell,
//! so a span or a ledger charge made inside `f` lands in the caller's op
//! whichever thread ran it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use evostore_obs::ledger::{current_costs, install_costs};
use evostore_obs::{counter_set, current_trace, set_current_trace};

/// Calls that walk fewer bytes than this run inline. From the sweep in
/// EXPERIMENTS.md "Payload-path parallelism" (store + load of 4-layer
/// models, forked and inline iterations interleaved): sharing a call out
/// costs 4–11 % up to 512 KiB, first wins at 1 MiB (store −5 %, load
/// level) and wins 22 % / 12 % at 2 MiB — so 1 MiB is the first size at
/// which nothing loses.
const MIN_FORK_BYTES: usize = 1024 * 1024;

thread_local! {
    /// Set on helper threads for good and on a caller while it runs its
    /// share of a forked call: a nested [`map`] must not wait on the pool
    /// it is running on.
    static INSIDE: Cell<bool> = const { Cell::new(false) };
}

/// `items.iter().map(f).collect()`, with the items shared out over the
/// process-wide pool when `weight_bytes` (the payload bytes the call
/// walks) makes that worth a wake-up. Results are in input order; every
/// item is evaluated even when an earlier one fails, so collecting the
/// result into a `Result` yields the same first-by-index error as the
/// serial loop. A panic in `f` is re-raised here once every helper has
/// left `f`.
pub fn map<T, R, F>(items: &[T], weight_bytes: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    global().map(items, weight_bytes, f)
}

/// Would [`map`] share this call out (true) or run it inline (false)?
pub fn forks(items: usize, weight_bytes: usize) -> bool {
    global().forks(items, weight_bytes)
}

counter_set! {
    /// Process-wide pool counters, bumped by every [`map`].
    struct ParCounters;
    /// What the pool has done since the process started. The pool is
    /// process-wide, so every node of a process reports the same values
    /// and a merge keeps the larger instead of adding.
    #[derive(Copy, Eq)]
    pub struct ParStats {
        /// Calls shared out over the pool.
        forked: atomic max counter "evostore_par_forked_total",
        /// Calls run inline on the caller.
        inline: atomic max counter "evostore_par_inline_total",
        /// Helper threads in the pool (the caller is the extra worker).
        helpers: computed max gauge "evostore_par_helpers",
    }
}

static COUNTERS: ParCounters = ParCounters::new();

/// Process-wide pool counters.
pub fn stats() -> ParStats {
    ParStats {
        helpers: global().helpers.len() as u64,
        ..COUNTERS.snapshot()
    }
}

fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Pool::new(cores - 1)
    })
}

/// A forked call, as the helpers see it.
struct Job {
    id: u64,
    /// The caller's work loop, borrowed from its stack frame.
    task: &'static (dyn Fn() + Sync),
    /// Helpers currently inside `task`.
    inside: usize,
    /// No helper may enter any more: the items ran out or the caller is
    /// leaving.
    closed: bool,
}

#[derive(Default)]
struct State {
    jobs: Vec<Job>,
    next_id: u64,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// A job was posted (or the pool is shutting down).
    posted: Condvar,
    /// Some job's last helper left.
    left: Condvar,
}

/// Lock a mutex of this module, poisoned or not: nothing here panics
/// while holding one (`f` runs outside every lock, under `catch_unwind`)
/// and every update under one is a single assignment, push or extend, so
/// a poisoned guard still guards valid data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(helpers: usize) -> Pool {
        let shared = Arc::new(Shared::default());
        let helpers = (0..helpers)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("evostore-par-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .ok()
            })
            .collect();
        Pool { shared, helpers }
    }

    fn forks(&self, items: usize, weight_bytes: usize) -> bool {
        !self.helpers.is_empty()
            && items >= 2
            && weight_bytes >= MIN_FORK_BYTES
            && !INSIDE.with(Cell::get)
    }

    fn map<T, R, F>(&self, items: &[T], weight_bytes: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if !self.forks(items.len(), weight_bytes) {
            COUNTERS.inline.add(1);
            return items.iter().map(f).collect();
        }
        COUNTERS.forked.add(1);

        let trace = current_trace();
        let costs = current_costs();
        // Index claims publish nothing: the items are shared read-only
        // and results travel through `done`'s mutex.
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let task = || {
            let _trace = set_current_trace(trace);
            let _costs = install_costs(costs.clone());
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                    Ok(r) => mine.push((i, r)),
                    Err(payload) => {
                        next.store(items.len(), Ordering::Relaxed);
                        lock(&panicked).get_or_insert(payload);
                        break;
                    }
                }
            }
            lock(&done).extend(mine);
        };
        let task: &(dyn Fn() + Sync) = &task;
        // SAFETY: only the lifetime is changed. The reference is stored
        // in the `Job` posted below and copied by helpers that enter it;
        // `Posted::drop` runs before this frame is left (on return and
        // on unwind alike), closes the job so no helper can enter,
        // waits until every helper that did enter has returned from
        // `task`, and removes the `Job`. Nothing can call through the
        // reference after that, and `task` (with everything it borrows:
        // `items`, `f`, `next`, `done`, `panicked`) outlives that point.
        let task: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(task) };
        {
            let _posted = self.post(task);
            let was_inside = INSIDE.with(|c| c.replace(true));
            task();
            INSIDE.with(|c| c.set(was_inside));
        }

        if let Some(payload) = panicked
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            resume_unwind(payload);
        }
        let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(done.len(), items.len(), "every item ran exactly once");
        done.sort_unstable_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Offer `task` to the helpers until the returned guard is dropped.
    fn post(&self, task: &'static (dyn Fn() + Sync)) -> Posted<'_> {
        let mut state = lock(&self.shared.state);
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push(Job {
            id,
            task,
            inside: 0,
            closed: false,
        });
        drop(state);
        self.shared.posted.notify_all();
        Posted {
            shared: &self.shared,
            id,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.posted.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper only runs `task`, which catches what `f` throws.
            let _ = helper.join();
        }
    }
}

/// A posted job; dropping it is the join.
struct Posted<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        // Only this guard removes its job, so the lookup cannot miss.
        while let Some(at) = state.jobs.iter().position(|j| j.id == self.id) {
            state.jobs[at].closed = true;
            if state.jobs[at].inside == 0 {
                state.jobs.swap_remove(at);
                return;
            }
            state = self
                .shared
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn helper_loop(shared: &Shared) {
    INSIDE.with(|c| c.set(true));
    let mut state = lock(&shared.state);
    while !state.shutdown {
        let Some(job) = state.jobs.iter_mut().find(|j| !j.closed) else {
            state = shared
                .posted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        job.inside += 1;
        let (id, task) = (job.id, job.task);
        drop(state);
        task();
        state = lock(&shared.state);
        let job = state
            .jobs
            .iter_mut()
            .find(|j| j.id == id)
            .expect("a job stays queued while a helper is inside it");
        // `task` returns when the items ran out; closing the job here
        // keeps idle helpers from spinning on it until its caller does.
        job.closed = true;
        job.inside -= 1;
        if job.inside == 0 {
            shared.left.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;

    use evostore_obs::ledger::{add_bytes_in, OpCosts};
    use evostore_obs::{FlightRecorder, MonotonicClock, TraceContext, Tracer};

    use super::*;

    /// A weight on the fork side of the rule.
    const BIG: usize = MIN_FORK_BYTES;

    /// Spin until two threads are inside the same forked call, so the
    /// test observes a helper at work rather than a caller that happened
    /// to finish first. An idle helper always arrives.
    fn wait_for_second_worker(seen: &Mutex<HashSet<ThreadId>>) {
        seen.lock().unwrap().insert(std::thread::current().id());
        while seen.lock().unwrap().len() < 2 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn output_order_is_input_order() {
        let pool = Pool::new(2);
        let items: Vec<u64> = (0..257).collect();
        let seen = Mutex::new(HashSet::new());
        let out = pool.map(&items, BIG, |x| {
            wait_for_second_worker(&seen);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        // Under the threshold: same answer, caller only.
        let me = std::thread::current().id();
        let out = pool.map(&items, BIG - 1, |x| (std::thread::current().id(), x * 3));
        assert!(out.iter().all(|(id, _)| *id == me));
        assert_eq!(out[256].1, 768);
    }

    #[test]
    fn collected_error_is_the_serial_loops() {
        let pool = Pool::new(1);
        let items: Vec<u32> = (0..64).collect();
        let check = |x: &u32| {
            if x % 10 == 7 {
                Err(format!("bad {x}"))
            } else {
                Ok(*x)
            }
        };
        let serial: Result<Vec<u32>, String> = items.iter().map(check).collect();
        let forked: Result<Vec<u32>, String> = pool.map(&items, BIG, check).into_iter().collect();
        assert_eq!(serial, Err("bad 7".to_string()));
        assert_eq!(forked, serial);
    }

    #[test]
    fn panic_propagates_after_helpers_left_and_the_pool_survives() {
        let pool = Pool::new(1);
        let items: Vec<u32> = (0..8).collect();
        let seen = Mutex::new(HashSet::new());
        let inside = AtomicUsize::new(0);
        let thrown = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, BIG, |x| {
                inside.fetch_add(1, Ordering::SeqCst);
                wait_for_second_worker(&seen);
                if *x == 0 {
                    thrown.store(true, Ordering::SeqCst);
                    inside.fetch_sub(1, Ordering::SeqCst);
                    panic!("item zero");
                }
                // The other worker is still inside `f` when the panic
                // starts, and stays a little longer.
                while !thrown.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                for _ in 0..1000 {
                    std::thread::yield_now();
                }
                inside.fetch_sub(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item zero"));
        assert_eq!(
            inside.load(Ordering::SeqCst),
            0,
            "nobody is inside the borrowed closure once map has unwound"
        );
        assert_eq!(pool.map(&[1, 2, 3], BIG, |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn nested_call_runs_inline() {
        let pool = Pool::new(2);
        let outer: Vec<u32> = (0..4).collect();
        let inner: Vec<u32> = (0..16).collect();
        let seen = Mutex::new(HashSet::new());
        let out = pool.map(&outer, BIG, |o| {
            wait_for_second_worker(&seen);
            let me = std::thread::current().id();
            let ids = pool.map(&inner, BIG, |_| std::thread::current().id());
            (ids.iter().all(|id| *id == me), *o)
        });
        assert_eq!(out, vec![(true, 0), (true, 1), (true, 2), (true, 3)]);
        // The caller's own flag is restored once its share is done.
        assert!(pool.forks(2, BIG));
    }

    #[test]
    fn a_thousand_concurrent_calls_share_one_helper() {
        let pool = Pool::new(1);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for call in 0..250u64 {
                        let items: Vec<u64> =
                            (0..5).map(|i| t * 1_000_000 + call * 10 + i).collect();
                        let out = pool.map(&items, BIG, |x| x + 1);
                        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
                    }
                });
            }
        });
        assert!(
            lock(&pool.shared.state).jobs.is_empty(),
            "every job was removed"
        );
    }

    #[test]
    fn no_helpers_is_the_serial_loop() {
        let pool = Pool::new(0);
        assert!(!pool.forks(1000, usize::MAX));
        let me = std::thread::current().id();
        let out = pool.map(&[1, 2, 3], usize::MAX, |x| {
            (std::thread::current().id(), x + 1)
        });
        assert_eq!(out, vec![(me, 2), (me, 3), (me, 4)]);
    }

    #[test]
    fn helpers_work_under_the_callers_trace_and_ledger_cell() {
        let pool = Pool::new(1);
        let clock = Arc::new(MonotonicClock::new());
        let tracer = Tracer::new(Arc::new(FlightRecorder::new("par-test", 64, clock)));
        let root = TraceContext::root();
        let costs = Arc::new(OpCosts::default());
        let _trace = set_current_trace(Some(root));
        let _costs = install_costs(Some(Arc::clone(&costs)));

        let items: Vec<u32> = (0..8).collect();
        let seen = Mutex::new(HashSet::new());
        let me = std::thread::current().id();
        let ran_on = pool.map(&items, BIG, |_| {
            wait_for_second_worker(&seen);
            add_bytes_in(10);
            let parent = current_trace().expect("the ambient context is installed");
            drop(tracer.start_child(parent, "par.item", None));
            std::thread::current().id()
        });
        assert!(
            ran_on.iter().any(|id| *id != me),
            "a helper took part in the call"
        );
        assert_eq!(costs.snapshot().bytes_in, 80, "every charge reached the op");
        let spans = tracer.recorder().spans_for_trace(root.trace_id);
        assert_eq!(spans.len(), 8);
        assert!(
            spans.iter().all(|s| s.parent_span_id == root.span_id),
            "helper-side spans hang under the caller's context"
        );
        // The helper dropped the context with the call.
        let after = pool.map(&[0u8; 2], BIG, |_| current_trace());
        assert_eq!(after, vec![Some(root), Some(root)]);
        drop(_trace);
        let after = pool.map(&[0u8; 2], BIG, |_| current_trace());
        assert_eq!(after, vec![None, None]);
    }
}
