//! The scheduler: exhaustive bounded DFS over thread interleavings.
//!
//! A model is a state type `S: Clone + Hash` (built from the shims in
//! [`crate::sync`]) plus a set of thread programs spawned onto a [`Sim`].
//! Each program is a plain `fn(&mut S, &mut Ctx) -> Step` that dispatches
//! on its own program counter (`ctx.pc`) — one atomic protocol step per
//! call, so the explorer owns every interleaving point.
//!
//! The explorer clones the world at every branch, hashes `(state, pcs,
//! regs, clocks)` into a visited set (clocks included, so pruning is
//! *sound*: two worlds only merge when their happens-before frontiers
//! agree), and reports the first violation with the interleaving that
//! produced it. It detects four failure classes: a step failing outright
//! (shim misuse, seeded assertion), an `always` invariant breaking after
//! any step, a `terminal` invariant breaking in a fully-finished world, and
//! deadlock (live threads, none runnable).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use crate::clock::{VClock, MAX_THREADS};

/// Sentinel program counter for a finished thread.
pub const DONE: u32 = u32::MAX;

/// Per-thread execution context: identity, program counter, vector clock,
/// and two scratch registers for values carried across steps (a received
/// message, a ticket id).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ctx {
    pub id: usize,
    pub pc: u32,
    pub clock: VClock,
    pub regs: [u64; 2],
}

impl Ctx {
    pub fn new(id: usize) -> Self {
        Ctx {
            id,
            pc: 0,
            clock: VClock::default(),
            regs: [0; 2],
        }
    }
}

/// Result of one thread step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Step {
    /// Made progress; `ctx.pc` was advanced by the program itself.
    Ran,
    /// Cannot progress now (empty or full channel). The step must not have
    /// mutated anything.
    Blocked,
    /// Thread finished.
    Done,
    /// Protocol violation observed from inside the program.
    Fail(String),
}

/// An invariant over the model state: `Err` is a violation.
pub type Invariant<S> = fn(&S) -> Result<(), String>;

/// One thread program: a name for traces and a step function.
struct ThreadSpec<S> {
    name: &'static str,
    step: fn(&mut S, &mut Ctx) -> Step,
}

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Maximum steps along any single interleaving.
    pub max_depth: usize,
    /// Maximum distinct worlds to visit before giving up.
    pub max_states: usize,
    /// Report all-blocked live states as deadlock violations.
    pub check_deadlock: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_depth: 128,
            max_states: 1 << 20,
            check_deadlock: true,
        }
    }
}

/// What the exploration saw. A proof claim requires `!truncated`: every
/// reachable world within the bound was visited and none violated.
#[derive(Clone, Copy, Default, Debug)]
pub struct Stats {
    pub states: usize,
    pub terminals: usize,
    /// True if a bound was hit; the run is then a bounded search, not an
    /// exhaustive proof.
    pub truncated: bool,
}

/// Failure classes a run can report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    StepFail,
    Always,
    Terminal,
    Deadlock,
}

/// A counterexample: what broke and the exact interleaving that broke it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub message: String,
    /// `thread@pc` entries, in execution order.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: {} (trace: {})",
            self.kind,
            self.message,
            self.trace.join(" -> ")
        )
    }
}

#[derive(Clone)]
struct World<S> {
    state: S,
    ctxs: Vec<Ctx>,
}

/// A model under exploration: threads plus invariants.
pub struct Sim<S> {
    threads: Vec<ThreadSpec<S>>,
    terminal: Option<Invariant<S>>,
    always: Option<Invariant<S>>,
}

impl<S: Clone + Hash> Default for Sim<S> {
    fn default() -> Self {
        Sim::new()
    }
}

impl<S: Clone + Hash> Sim<S> {
    pub fn new() -> Self {
        Sim {
            threads: Vec::new(),
            terminal: None,
            always: None,
        }
    }

    /// Add a thread program. Mirrors `thread::spawn` in the real code; the
    /// spawn order fixes the thread id (`Ctx::id`).
    pub fn spawn(&mut self, name: &'static str, step: fn(&mut S, &mut Ctx) -> Step) -> &mut Self {
        self.threads.push(ThreadSpec { name, step });
        self
    }

    /// Invariant checked in every fully-finished world.
    pub fn terminal_invariant(&mut self, f: Invariant<S>) -> &mut Self {
        self.terminal = Some(f);
        self
    }

    /// Invariant checked after every step of every interleaving.
    pub fn always_invariant(&mut self, f: Invariant<S>) -> &mut Self {
        self.always = Some(f);
        self
    }

    /// Explore every interleaving from `initial` up to the bounds.
    pub fn run(&self, initial: S, cfg: &Config) -> Result<Stats, Violation> {
        if self.threads.len() > MAX_THREADS {
            return Err(Violation {
                kind: ViolationKind::StepFail,
                message: format!(
                    "model spawns {} threads; MAX_THREADS is {MAX_THREADS}",
                    self.threads.len()
                ),
                trace: Vec::new(),
            });
        }
        let world = World {
            state: initial,
            ctxs: (0..self.threads.len()).map(Ctx::new).collect(),
        };
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stats = Stats::default();
        let mut trace: Vec<String> = Vec::new();
        self.dfs(&world, 0, cfg, &mut visited, &mut stats, &mut trace)?;
        Ok(stats)
    }

    fn dfs(
        &self,
        world: &World<S>,
        depth: usize,
        cfg: &Config,
        visited: &mut HashSet<u64>,
        stats: &mut Stats,
        trace: &mut Vec<String>,
    ) -> Result<(), Violation> {
        if !visited.insert(hash_world(world)) {
            return Ok(());
        }
        stats.states += 1;
        if stats.states >= cfg.max_states || depth >= cfg.max_depth {
            stats.truncated = true;
            return Ok(());
        }

        let mut ran_any = false;
        let mut all_done = true;
        for (i, spec) in self.threads.iter().enumerate() {
            if world.ctxs[i].pc == DONE {
                continue;
            }
            all_done = false;
            let mut next = world.clone();
            trace.push(format!("{}@pc{}", spec.name, next.ctxs[i].pc));
            let outcome = (spec.step)(&mut next.state, &mut next.ctxs[i]);
            match outcome {
                Step::Blocked => {
                    trace.pop();
                    continue;
                }
                Step::Fail(message) => {
                    return Err(self.violation(ViolationKind::StepFail, message, trace));
                }
                Step::Done => next.ctxs[i].pc = DONE,
                Step::Ran => {}
            }
            ran_any = true;
            if let Some(check) = self.always {
                if let Err(message) = check(&next.state) {
                    return Err(self.violation(ViolationKind::Always, message, trace));
                }
            }
            self.dfs(&next, depth + 1, cfg, visited, stats, trace)?;
            trace.pop();
        }

        if all_done {
            stats.terminals += 1;
            if let Some(check) = self.terminal {
                if let Err(message) = check(&world.state) {
                    return Err(self.violation(ViolationKind::Terminal, message, trace));
                }
            }
        } else if !ran_any && cfg.check_deadlock {
            return Err(self.violation(
                ViolationKind::Deadlock,
                "live threads exist but none can make progress".into(),
                trace,
            ));
        }
        Ok(())
    }

    fn violation(&self, kind: ViolationKind, message: String, trace: &[String]) -> Violation {
        Violation {
            kind,
            message,
            trace: trace.to_vec(),
        }
    }
}

fn hash_world<S: Hash>(world: &World<S>) -> u64 {
    let mut hasher = DefaultHasher::new();
    world.state.hash(&mut hasher);
    world.ctxs.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{MemOrd, SimAtomicU64};

    /// Two threads each do `v = load; store(v + 1)` non-atomically (split
    /// across two steps). The explorer must find the lost-update
    /// interleaving where the final count is 1, and also the clean ones.
    #[derive(Clone, Hash)]
    struct Race {
        counter: SimAtomicU64,
    }

    fn incr(state: &mut Race, ctx: &mut Ctx) -> Step {
        match ctx.pc {
            0 => {
                ctx.regs[0] = state.counter.load(MemOrd::Relaxed, ctx);
                ctx.pc = 1;
                Step::Ran
            }
            _ => {
                state.counter.store(ctx.regs[0] + 1, MemOrd::Relaxed, ctx);
                Step::Done
            }
        }
    }

    #[test]
    fn finds_lost_update_interleaving() {
        let mut sim: Sim<Race> = Sim::new();
        sim.spawn("a", incr).spawn("b", incr);
        // Requiring the final count to be 2 must fail: split load/store
        // loses an update in some interleaving.
        sim.terminal_invariant(|s| {
            let mut probe = Ctx::new(7);
            if s.counter.load(MemOrd::Relaxed, &mut probe) == 2 {
                Ok(())
            } else {
                Err("lost update".into())
            }
        });
        let v = sim
            .run(
                Race {
                    counter: SimAtomicU64::new(0),
                },
                &Config::default(),
            )
            .expect_err("split RMW must lose an update somewhere");
        assert_eq!(v.kind, ViolationKind::Terminal);
        assert!(!v.trace.is_empty());
        let shown = v.to_string();
        assert!(shown.contains("lost update"), "{shown}");
    }

    #[test]
    fn atomic_rmw_version_verifies() {
        #[derive(Clone, Hash)]
        struct S {
            counter: SimAtomicU64,
        }
        fn add(state: &mut S, ctx: &mut Ctx) -> Step {
            state.counter.fetch_add(1, MemOrd::Relaxed, ctx);
            Step::Done
        }
        let mut sim: Sim<S> = Sim::new();
        sim.spawn("a", add).spawn("b", add);
        sim.terminal_invariant(|s| {
            let mut probe = Ctx::new(7);
            if s.counter.load(MemOrd::Relaxed, &mut probe) == 2 {
                Ok(())
            } else {
                Err("fetch_add lost an update?!".into())
            }
        });
        let stats = sim
            .run(
                S {
                    counter: SimAtomicU64::new(0),
                },
                &Config::default(),
            )
            .expect("atomic RMW is correct under all interleavings");
        assert!(!stats.truncated);
        assert!(stats.terminals >= 1);
        assert!(stats.states >= 3);
    }

    #[test]
    fn detects_deadlock() {
        #[derive(Clone, Hash)]
        struct S {
            ch: crate::sync::SimChannel<u8>,
        }
        // A receiver on a channel whose sender never sends: blocked forever.
        fn rx(state: &mut S, ctx: &mut Ctx) -> Step {
            match state.ch.try_recv(ctx) {
                crate::sync::RecvOutcome::Msg(_) => Step::Done,
                crate::sync::RecvOutcome::Empty => Step::Blocked,
                crate::sync::RecvOutcome::Disconnected => Step::Done,
            }
        }
        let mut sim: Sim<S> = Sim::new();
        sim.spawn("rx", rx);
        let v = sim
            .run(
                S {
                    // One sender handle that no thread ever uses or drops.
                    ch: crate::sync::SimChannel::bounded(1, 1),
                },
                &Config::default(),
            )
            .expect_err("must deadlock");
        assert_eq!(v.kind, ViolationKind::Deadlock);
    }

    #[test]
    fn depth_bound_marks_truncated() {
        #[derive(Clone, Hash)]
        struct S {
            n: SimAtomicU64,
        }
        fn spin(state: &mut S, ctx: &mut Ctx) -> Step {
            state.n.fetch_add(1, MemOrd::Relaxed, ctx);
            Step::Ran // never finishes
        }
        let mut sim: Sim<S> = Sim::new();
        sim.spawn("spin", spin);
        let stats = sim
            .run(
                S {
                    n: SimAtomicU64::new(0),
                },
                &Config {
                    max_depth: 8,
                    max_states: 1 << 16,
                    check_deadlock: true,
                },
            )
            .expect("no violation, just truncation");
        assert!(stats.truncated);
    }

    #[test]
    fn rejects_too_many_threads() {
        #[derive(Clone, Hash)]
        struct S;
        fn nop(_: &mut S, _: &mut Ctx) -> Step {
            Step::Done
        }
        let mut sim: Sim<S> = Sim::new();
        for _ in 0..(MAX_THREADS + 1) {
            sim.spawn("t", nop);
        }
        assert!(sim.run(S, &Config::default()).is_err());
    }
}
