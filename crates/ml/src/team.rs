//! A fit's worker team: the calling thread plus helper threads that share
//! one fit's work by shard, with a handoff cheap enough for a job per tree
//! node.
//!
//! The work is cut into one shard per worker, and each shard owns its part
//! of the fit's buffers for the whole fit. The caller posts a job, and
//! every worker claims shards — its own first — and runs the job on each
//! shard it claims; the caller returns when every shard has run the job.
//! Which worker runs a shard never changes what the shard computes, so the
//! results are the same for any team size and any interleaving. When a
//! helper is descheduled (fits running side by side on fewer cores than
//! threads), the caller runs that helper's shard itself instead of waiting
//! for the scheduler.
//!
//! A tree posts about two jobs per split node, so a futex round trip per
//! job (`std::sync::Barrier`) would cost more than a small node's work.
//! Waiters spin for at most [`SPIN`] and then park, so a waiter never holds
//! a core that another fit could use for long.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a waiter spins before it parks.
const SPIN: Duration = Duration::from_micros(50);

/// The number of workers a fit whose work divides into `parts` uses:
/// one per core, at most one per part, at least one.
pub(crate) fn size(parts: usize) -> usize {
    thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(parts)
        .max(1)
}

/// A shard and the number of the last job it ran.
struct Slot<S> {
    ran: u64,
    shard: S,
}

/// The shared half of a team: the posted job, the shards and the counters
/// the handoff waits on.
pub(crate) struct Team<'w, S, J> {
    /// Runs one job on one shard.
    work: &'w (dyn Fn(&mut S, &J) + Sync),
    /// The number of the job posted last and the job; `None` tells the
    /// helpers to exit.
    job: Mutex<(u64, Option<J>)>,
    /// The number of the job posted last, for waiters to spin on.
    posted: AtomicU64,
    /// Shards that have run the job posted last.
    done: AtomicUsize,
    /// A helper panicked; the caller must not wait for its shard.
    failed: AtomicBool,
    slots: Vec<Mutex<Slot<S>>>,
    caller: Thread,
    helpers: OnceLock<Vec<Thread>>,
}

/// Spin, then park, until `ready()` holds.
fn wait_until(ready: impl Fn() -> bool) {
    if ready() {
        return;
    }
    let start = Instant::now();
    let mut spins = 0u32;
    while !ready() {
        spins = spins.wrapping_add(1);
        if !spins.is_multiple_of(64) || start.elapsed() < SPIN {
            spin_loop();
        } else {
            thread::park();
        }
    }
}

impl<'w, S: Send, J: Clone + Send> Team<'w, S, J> {
    /// Run `body` on a team of `shards.len()` workers: the caller is worker
    /// 0 and every other shard gets a helper thread. `work(shard, job)` runs
    /// one job on one shard, and `body` posts jobs with [`Team::run`]. The
    /// helpers are joined before this returns.
    pub(crate) fn scope<R>(
        shards: Vec<S>,
        work: &'w (dyn Fn(&mut S, &J) + Sync),
        body: impl FnOnce(&Self) -> R,
    ) -> R {
        assert!(!shards.is_empty(), "a team needs at least one shard");
        let team = Team {
            work,
            job: Mutex::new((0, None)),
            posted: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            slots: shards
                .into_iter()
                .map(|shard| Mutex::new(Slot { ran: 0, shard }))
                .collect(),
            caller: thread::current(),
            helpers: OnceLock::new(),
        };
        let team = &team;
        thread::scope(|s| {
            let spawned: Vec<_> = (1..team.slots.len())
                .map(|home| s.spawn(move || team.serve(home)))
                .collect();
            let threads = spawned.iter().map(|h| h.thread().clone()).collect();
            team.helpers.set(threads).expect("helpers are set once");
            // Tell the helpers to exit even if `body` unwinds, or the
            // scope would wait for them forever.
            let dismiss = Dismiss(team);
            let out = body(team);
            drop(dismiss);
            // Join each helper itself: the scope's own wait can return
            // before the threads exit, and glibc gives a thread started
            // while another is still exiting a fresh malloc arena.
            for helper in spawned {
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
            out
        })
    }

    /// Run `job` on every shard and return when all have run it. The
    /// caller runs its own shard, then any shard whose helper has not
    /// started on it, with `work`: it must do what the helpers' `work`
    /// does, and lets the caller lend data it already holds (a read guard
    /// the helpers' `work` takes for itself).
    pub(crate) fn run(&self, job: &J, work: impl Fn(&mut S, &J)) {
        if self.slots.len() == 1 {
            work(&mut self.shard(0), job);
            return;
        }
        let number = {
            let mut posted = self.job.lock().expect("team job poisoned");
            posted.0 += 1;
            posted.1 = Some(job.clone());
            // Helpers count only after they read this job's number.
            self.done.store(0, Ordering::Relaxed);
            self.posted.store(posted.0, Ordering::Release);
            posted.0
        };
        for helper in self.helpers.get().expect("helpers started") {
            helper.unpark();
        }
        self.claim(0, number, job, &work);
        let all = self.slots.len();
        wait_until(|| {
            self.done.load(Ordering::Acquire) == all || self.failed.load(Ordering::Acquire)
        });
        assert!(
            !self.failed.load(Ordering::Acquire),
            "a team helper panicked"
        );
    }

    /// Shard `i`, for the caller's own reads and writes between jobs.
    pub(crate) fn shard(&self, i: usize) -> impl std::ops::DerefMut<Target = S> + '_ {
        ShardGuard(self.slots[i].lock().expect("team shard poisoned"))
    }

    /// Run job `number` on every shard that has not run it and that no
    /// other worker holds, starting from shard `home`.
    fn claim(&self, home: usize, number: u64, job: &J, work: &impl Fn(&mut S, &J)) {
        let n = self.slots.len();
        for i in (home..n).chain(0..home) {
            let Ok(mut slot) = self.slots[i].try_lock() else {
                continue;
            };
            if slot.ran < number {
                work(&mut slot.shard, job);
                slot.ran = number;
                drop(slot);
                self.done.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// A helper's loop: wait for a job, claim shards, repeat until the
    /// exit is posted.
    fn serve(&self, home: usize) {
        let _fail = Fail(self);
        let mut seen = 0;
        loop {
            wait_until(|| self.posted.load(Ordering::Acquire) != seen);
            let (number, job) = {
                let posted = self.job.lock().expect("team job poisoned");
                (posted.0, posted.1.clone())
            };
            seen = number;
            let Some(job) = job else {
                return;
            };
            self.claim(home, number, &job, &self.work);
            self.caller.unpark();
        }
    }
}

struct ShardGuard<'a, S>(MutexGuard<'a, Slot<S>>);

impl<S> std::ops::Deref for ShardGuard<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.0.shard
    }
}

impl<S> std::ops::DerefMut for ShardGuard<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.0.shard
    }
}

/// Posts the exit when dropped.
struct Dismiss<'a, 'w, S, J>(&'a Team<'w, S, J>);

impl<S, J> Drop for Dismiss<'_, '_, S, J> {
    fn drop(&mut self) {
        // A poisoned job lock means a helper died holding it; the exit
        // must still be posted, and `Drop` must not panic.
        let mut posted = self.0.job.lock().unwrap_or_else(|e| e.into_inner());
        posted.0 += 1;
        posted.1 = None;
        self.0.posted.store(posted.0, Ordering::Release);
        drop(posted);
        for helper in self.0.helpers.get().into_iter().flatten() {
            helper.unpark();
        }
    }
}

/// Wakes the caller with the failure flag set if a helper unwinds.
struct Fail<'a, 'w, S, J>(&'a Team<'w, S, J>);

impl<S, J> Drop for Fail<'_, '_, S, J> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.failed.store(true, Ordering::Release);
            self.0.caller.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shard_runs_every_job_once_for_any_team_size() {
        let log = |shard: &mut Vec<u32>, job: &u32| shard.push(*job);
        for workers in 1..=4 {
            let shards: Vec<Vec<u32>> = (0..workers).map(|_| Vec::new()).collect();
            let ran = Team::scope(shards, &log, |team| {
                for job in 0..200 {
                    team.run(&job, log);
                }
                (0..workers)
                    .map(|i| team.shard(i).clone())
                    .collect::<Vec<_>>()
            });
            for shard in ran {
                assert_eq!(shard, (0..200).collect::<Vec<_>>(), "{workers} workers");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a team helper panicked")]
    fn a_helper_panic_reaches_the_caller_instead_of_hanging_it() {
        let helper_started = AtomicBool::new(false);
        // The caller claims shard 0 first and holds it until the helper
        // has claimed shard 1, so only the helper runs shard 1.
        let work = |shard: &mut u32, _: &()| {
            if *shard == 1 {
                helper_started.store(true, Ordering::Release);
                panic!("shard 1 fails");
            }
            while !helper_started.load(Ordering::Acquire) {
                thread::yield_now();
            }
        };
        Team::scope(vec![0u32, 1], &work, |team| team.run(&(), work));
    }
}
