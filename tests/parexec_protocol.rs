//! The commit lane's hand-off protocol, checked exhaustively.
//!
//! A depth-first search over every interleaving of the lane and its
//! speculators, driving the same [`SlotTable`] transitions the threaded
//! engine in `mtpu-parexec` calls, and delivering the table's wakes the
//! way its condvars do: a thread the table told to wait sleeps until a
//! later transition names it. Every lane validation is tried both ways
//! (the parked outcome is valid, or stale and re-executed in place).
//! Visited states are memoized on their full contents (a 64-bit hash of
//! the `Debug` form of the table, every thread's position and the
//! checker's own records), so each reachable state and each transition
//! out of it is checked once, which covers every interleaving without
//! walking each path separately.
//!
//! The invariants, checked on every transition and every state:
//! - the lane takes every index exactly once, in order, and no index is
//!   first-executed twice;
//! - a speculator claims only what the release rule offers (a root other
//!   than transaction 0, or a child the lane's commit made ready other
//!   than the lane's next head);
//! - a parked outcome reaches a commit only through the lane's validation
//!   of that very transaction, and none is lost;
//! - no speculator sleeps while offered work is unclaimed (no lost wake);
//! - some transition is enabled until every slot is taken and every
//!   thread has finished (no deadlock).

use mtpu_repro::mtpu::sched::DepGraph;
use mtpu_repro::parexec::SlotTable;
use mtpu_repro::primitives::map::{FastMap, FastSet};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A speculator's outcome: which transaction, run by which speculator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    tx: usize,
    by: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Who {
    Lane,
    Speculator(usize),
}

/// Where the lane is in its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// About to take its head; `asleep` once the table said to wait.
    Head {
        asleep: bool,
    },
    /// Holding its head's result: an in-place execution (`None`) or a
    /// parked outcome that validated.
    Commit(Option<Outcome>),
    Finished,
}

/// Where one speculator is in its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Speculator {
    /// About to claim; `asleep` once the table said to wait.
    Claim {
        asleep: bool,
    },
    /// Holding a transaction, about to park its outcome.
    Run(usize),
    Exited,
}

/// One global state: the table, every thread's position, and what the
/// checker records from the DAG alone.
#[derive(Debug, Clone)]
struct World {
    table: SlotTable<Outcome>,
    lane: Lane,
    speculators: Vec<Speculator>,
    /// Transactions the lane has committed.
    committed: usize,
    /// Who first executed each transaction.
    first: Vec<Option<Who>>,
    /// What the release rule lets a speculator claim.
    offered: Vec<bool>,
    /// Transactions whose parked outcome the lane validated.
    validated: Vec<bool>,
}

#[derive(Debug, Clone, Copy)]
enum Thread {
    Lane,
    Speculator(usize),
}

impl World {
    fn new(dag: &DepGraph, speculators: usize) -> World {
        let n = dag.len();
        World {
            table: SlotTable::new(dag),
            lane: if n == 0 {
                Lane::Finished
            } else {
                Lane::Head { asleep: false }
            },
            speculators: vec![Speculator::Claim { asleep: false }; speculators],
            committed: 0,
            first: vec![None; n],
            offered: (0..n).map(|i| i > 0 && dag.parents(i).is_empty()).collect(),
            validated: vec![false; n],
        }
    }

    fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        format!("{self:?}").hash(&mut h);
        h.finish()
    }

    fn runnable(&self) -> Vec<Thread> {
        let lane = matches!(self.lane, Lane::Head { asleep: false } | Lane::Commit(_));
        let speculators =
            self.speculators.iter().enumerate().filter(|(_, s)| {
                matches!(s, Speculator::Claim { asleep: false } | Speculator::Run(_))
            });
        lane.then_some(Thread::Lane)
            .into_iter()
            .chain(speculators.map(|(k, _)| Thread::Speculator(k)))
            .collect()
    }

    fn first_execution(&mut self, i: usize, who: Who) -> Result<(), String> {
        match self.first[i].replace(who) {
            None => Ok(()),
            Some(before) => Err(format!(
                "{who:?} executes {i}, which {before:?} already has"
            )),
        }
    }

    /// Hands the table's pending wakes to the sleepers they name, as the
    /// engine's `notify_one` / `notify_all` do.
    fn deliver_wakes(&mut self) {
        let wake = self.table.take_wake();
        if wake.lane && self.lane == (Lane::Head { asleep: true }) {
            self.lane = Lane::Head { asleep: false };
        }
        if wake.speculators {
            for s in &mut self.speculators {
                if *s == (Speculator::Claim { asleep: true }) {
                    *s = Speculator::Claim { asleep: false };
                }
            }
        }
    }

    /// The successors of one thread's next transition, labelled, or the
    /// invariant it breaks.
    fn step(&self, thread: Thread, dag: &DepGraph) -> Result<Vec<(String, World)>, String> {
        let mut w = self.clone();
        let i = w.committed;
        let mut out = Vec::new();
        match (thread, w.lane) {
            (Thread::Lane, Lane::Head { .. }) => match w.table.lane_head() {
                None => {
                    w.lane = Lane::Head { asleep: true };
                    out.push((format!("lane waits on {i}"), w));
                }
                Some(None) => {
                    w.first_execution(i, Who::Lane)?;
                    w.lane = Lane::Commit(None);
                    out.push((format!("lane runs {i} in place"), w));
                }
                Some(Some(o)) => {
                    let parker = w.speculators.get(o.by).copied();
                    if o.tx != i
                        || w.first[i] != Some(Who::Speculator(o.by))
                        || parker == Some(Speculator::Run(i))
                    {
                        return Err(format!("lane at {i} got {o:?} ({parker:?})"));
                    }
                    w.validated[i] = true;
                    let mut stale = w.clone();
                    w.lane = Lane::Commit(Some(o));
                    stale.lane = Lane::Commit(None);
                    out.push((format!("lane validates {i}: valid"), w));
                    out.push((format!("lane validates {i}: stale, re-runs"), stale));
                }
            },
            (Thread::Lane, Lane::Commit(parked)) => {
                if parked.is_some_and(|o| o.tx != i || !w.validated[i]) {
                    return Err(format!("lane commits {parked:?} at {i} unvalidated"));
                }
                w.table.commit(dag);
                w.committed += 1;
                for &child in dag.children(i) {
                    let child = child as usize;
                    let ready = dag
                        .parents(child)
                        .iter()
                        .all(|&p| (p as usize) < w.committed);
                    w.offered[child] |= ready && child != i + 1;
                }
                w.lane = if w.committed == dag.len() {
                    Lane::Finished
                } else {
                    Lane::Head { asleep: false }
                };
                out.push((format!("lane commits {i}"), w));
            }
            (Thread::Speculator(k), _) => match w.speculators[k] {
                Speculator::Claim { .. } => match w.table.claim() {
                    None => {
                        w.speculators[k] = Speculator::Claim { asleep: true };
                        out.push((format!("s{k} waits"), w));
                    }
                    Some(None) => {
                        if w.committed != dag.len() {
                            return Err(format!("s{k} exits with {i} uncommitted"));
                        }
                        w.speculators[k] = Speculator::Exited;
                        out.push((format!("s{k} exits"), w));
                    }
                    Some(Some(j)) => {
                        if !w.offered[j] {
                            return Err(format!("s{k} claims {j}, which was never offered"));
                        }
                        w.first_execution(j, Who::Speculator(k))?;
                        w.speculators[k] = Speculator::Run(j);
                        out.push((format!("s{k} claims {j}"), w));
                    }
                },
                Speculator::Run(j) => {
                    w.table.park(j, Outcome { tx: j, by: k });
                    w.speculators[k] = Speculator::Claim { asleep: false };
                    out.push((format!("s{k} parks {j}"), w));
                }
                Speculator::Exited => unreachable!("an exited speculator is not runnable"),
            },
            (Thread::Lane, Lane::Finished) => unreachable!("a finished lane is not runnable"),
        }
        for (_, w) in &mut out {
            w.deliver_wakes();
        }
        Ok(out)
    }

    /// The per-state invariants: no lost wake, and no deadlock.
    fn check(&self, dag: &DepGraph) -> Result<(), String> {
        let asleep = self
            .speculators
            .iter()
            .position(|s| *s == Speculator::Claim { asleep: true });
        let unclaimed = (0..dag.len()).find(|&j| self.offered[j] && self.first[j].is_none());
        if let (Some(k), Some(j)) = (asleep, unclaimed) {
            return Err(format!("s{k} sleeps while {j} is ready"));
        }
        if !self.runnable().is_empty() {
            return Ok(());
        }
        let finished = self.lane == Lane::Finished
            && self.speculators.iter().all(|s| *s == Speculator::Exited);
        if !finished {
            return Err(format!(
                "deadlock: lane {:?}, speculators {:?}",
                self.lane, self.speculators
            ));
        }
        for j in 0..dag.len() {
            match self.first[j] {
                None => return Err(format!("{j} was never executed")),
                Some(Who::Speculator(_)) if !self.validated[j] => {
                    return Err(format!("the outcome parked for {j} was never validated"))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

struct Explorer<'d> {
    dag: &'d DepGraph,
    seen: FastSet<u64>,
    path: Vec<String>,
    /// Transitions taken, by the label's first two words.
    taken: FastMap<String, usize>,
}

impl Explorer<'_> {
    fn fail(&self, why: &str) -> ! {
        panic!(
            "{why}\n  dag parents: {:?}\n  interleaving:\n    {}",
            (0..self.dag.len())
                .map(|i| self.dag.parents(i))
                .collect::<Vec<_>>(),
            self.path.join("\n    ")
        );
    }

    fn visit(&mut self, w: World) {
        if !self.seen.insert(w.key()) {
            return;
        }
        if let Err(why) = w.check(self.dag) {
            self.fail(&why);
        }
        for thread in w.runnable() {
            // The table panics on a transition it considers impossible;
            // report that with the interleaving that reached it too.
            let step = catch_unwind(AssertUnwindSafe(|| w.step(thread, self.dag)));
            let successors = match step {
                Ok(Ok(successors)) => successors,
                Ok(Err(why)) => self.fail(&why),
                Err(_) => self.fail(&format!("the table panicked on {thread:?}'s step")),
            };
            for (label, next) in successors {
                let kind = label.split(' ').take(2).collect::<Vec<_>>().join(" ");
                *self.taken.entry(kind).or_default() += 1;
                self.path.push(label);
                self.visit(next);
                self.path.pop();
            }
        }
    }
}

/// Explores every interleaving of the lane and `speculators` speculators
/// over `dag`; returns how often each kind of transition was taken
/// (`"lane validates"`, `"s0 parks"`, ...).
fn explore(dag: &DepGraph, speculators: usize) -> FastMap<String, usize> {
    let mut explorer = Explorer {
        dag,
        seen: FastSet::default(),
        path: Vec::new(),
        taken: FastMap::default(),
    };
    explorer.visit(World::new(dag, speculators));
    explorer.taken
}

fn dag(n: usize, edges: &[(usize, usize)]) -> DepGraph {
    let mut dag = DepGraph::new(n);
    for &(from, to) in edges {
        dag.add_edge(from, to);
    }
    dag
}

/// Every DAG over `n` transactions: each subset of the `i < j` edges.
fn every_dag(n: usize) -> impl Iterator<Item = DepGraph> {
    let pairs: Vec<(usize, usize)> = (0..n).flat_map(|j| (0..j).map(move |i| (i, j))).collect();
    (0u32..1 << pairs.len()).map(move |mask| {
        let edges: Vec<_> = (0..pairs.len())
            .filter(|b| mask >> b & 1 == 1)
            .map(|b| pairs[b])
            .collect();
        dag(n, &edges)
    })
}

/// The named shapes at `n` transactions: edgeless, a chain, a diamond
/// (0 feeds two middles that both feed the last), a fan-in (every other
/// transaction feeds the last) and a fan-out (0 feeds every other).
fn shapes(n: usize) -> Vec<(&'static str, DepGraph)> {
    let last = n - 1;
    vec![
        ("edgeless", dag(n, &[])),
        (
            "chain",
            dag(n, &(1..n).map(|i| (i - 1, i)).collect::<Vec<_>>()),
        ),
        ("diamond", dag(n, &[(0, 1), (0, 2), (1, last), (2, last)])),
        (
            "fan-in",
            dag(n, &(0..last).map(|i| (i, last)).collect::<Vec<_>>()),
        ),
        (
            "fan-out",
            dag(n, &(1..n).map(|i| (0, i)).collect::<Vec<_>>()),
        ),
    ]
}

/// Every DAG over up to 4 transactions (the edgeless, chain, diamond and
/// fan-in shapes among them), with one and with two speculators.
#[test]
fn every_interleaving_up_to_four_transactions_and_two_speculators() {
    for n in 0..=4 {
        for dag in every_dag(n) {
            for speculators in 1..=2 {
                explore(&dag, speculators);
            }
        }
    }
}

/// The search is not vacuous: on every named shape at 4 transactions but
/// the chain, where nothing is ever ready ahead of the lane, speculators
/// park outcomes the lane validates and the lane waits on held heads.
#[test]
fn the_search_reaches_parking_validation_and_waiting() {
    for (name, dag) in shapes(4) {
        let taken = explore(&dag, 2);
        for kind in ["s0 parks", "s1 parks", "lane validates", "lane waits"] {
            let seen = taken.get(kind).copied().unwrap_or(0);
            assert_eq!(
                seen > 0,
                name != "chain",
                "{name}: {kind} taken {seen} times"
            );
        }
    }
}

/// A deeper search at fixed, larger bounds: every DAG over 5 transactions
/// with 3 speculators. Too slow for every test run; CI runs it once in
/// release (`cargo test --release --test parexec_protocol -- --ignored`).
#[test]
#[ignore = "deep search; CI runs it in release with --ignored"]
fn every_interleaving_of_five_transactions_and_three_speculators() {
    let mut transitions = 0;
    for dag in every_dag(5) {
        transitions += explore(&dag, 3).values().sum::<usize>();
    }
    println!("{transitions} transitions checked");
}
