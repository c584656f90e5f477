//! Running P ranks on threads of this process, in lock-step, so that a
//! panic or error on one rank ends the run instead of hanging its peers.

use crate::report::Outcome;
use gtopk_comm::{CommStats, Communicator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A reusable barrier that any rank can abort: waiters then return
/// `false` instead of blocking for a peer that will never arrive.
pub struct Gate {
    parties: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: usize,
    generation: u64,
    aborted: bool,
}

impl Gate {
    pub fn new(parties: usize) -> Self {
        Gate {
            parties,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until every party arrives (`true`) or the gate is aborted
    /// (`false`).
    pub fn wait(&self) -> bool {
        let mut s = self.state.lock().expect("gate lock is never poisoned");
        if s.aborted {
            return false;
        }
        s.arrived += 1;
        if s.arrived == self.parties {
            s.arrived = 0;
            s.generation += 1;
            self.cv.notify_all();
            return true;
        }
        let gen = s.generation;
        while s.generation == gen && !s.aborted {
            s = self.cv.wait(s).expect("gate lock is never poisoned");
        }
        !s.aborted || s.generation != gen
    }

    /// Releases every current and future waiter with `false`.
    pub fn abort(&self) {
        let mut s = self.state.lock().expect("gate lock is never poisoned");
        s.aborted = true;
        self.cv.notify_all();
    }
}

/// Runs `f` on every communicator, one scoped thread per rank, and
/// returns each rank's result in rank order. A rank that panics revokes
/// its peers' collective (so they leave blocked receives with an error)
/// and aborts `gate` (so they leave the barrier); its slot holds the
/// panic message.
pub fn run_ranks<T, F>(comms: Vec<Communicator>, gate: &Gate, f: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(&mut Communicator) -> T + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                    out.map_err(|payload| {
                        abandon(&mut comm, gate);
                        payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "rank panicked".into())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("rank thread died".into())))
            .collect()
    })
}

/// Ends this rank's part in the run after a failure: revoke the peers'
/// collective, then release them from the barrier.
pub fn abandon(comm: &mut Communicator, gate: &Gate) {
    let epoch = comm.epoch();
    for peer in 0..comm.size() {
        comm.revoke(peer, epoch);
    }
    gate.abort();
}

/// The process's peak resident set so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sets the `comm.*` counter metrics from rank 0's `CommStats` over
/// `steps` steps.
pub fn set_comm_counters(out: &mut Outcome, s: &CommStats, steps: f64) {
    let requests = (s.pool_hits + s.pool_misses) as f64;
    let hit_ratio = if requests > 0.0 {
        s.pool_hits as f64 / requests
    } else {
        0.0
    };
    out.set("comm.msgs_per_step", s.msgs_sent as f64 / steps);
    out.set("comm.elems_per_step", s.elems_sent as f64 / steps);
    out.set("comm.pool_misses_per_step", s.pool_misses as f64 / steps);
    out.set("comm.pool_hit_ratio", hit_ratio);
    out.set("comm.retransmissions", s.retransmissions as f64);
    out.set("comm.timeouts", s.timeouts as f64);
}

/// Milliseconds in a duration, with every digit.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Mean of a sample, 0 for none (a layer the workload never runs).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn gate_releases_all_parties_each_round() {
        let gate = Gate::new(3);
        let passed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert!(gate.wait());
                        passed.fetch_add(1, SeqCst);
                    }
                });
            }
        });
        assert_eq!(passed.load(SeqCst), 150);
    }

    #[test]
    fn aborted_gate_frees_a_waiter() {
        let gate = Gate::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.wait());
            // Abort only once the waiter is blocked on the gate.
            while gate.state.lock().unwrap().arrived == 0 {
                std::thread::yield_now();
            }
            gate.abort();
            assert!(!waiter.join().unwrap());
        });
        assert!(!gate.wait());
    }
}
