//! Passes: one closed-loop execution of a workload's whole run list on
//! the worker pool, timed from outside the program. Also the heap
//! counter, peak RSS, the result digest and the order statistics.

use crate::workloads::{fnv1a, Job, Workload, FNV_OFFSET};
use aimes_repro::middleware::run_application;
use aimes_repro::sim::{ProfileReport, Profiler};
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Counting pass-through to the system allocator.
///
/// The counters are sharded per thread, each shard on its own cache
/// lines, so pool workers allocating at once do not contend on one
/// counter and slow the runs being measured. Relaxed atomics: the
/// counters publish no other data.
pub struct CountingAlloc;

const SHARDS: usize = 16;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
    /// Signed: a thread may free what another allocated.
    live: AtomicI64,
}

static COUNTERS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        live: AtomicI64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard; `usize::MAX` until its first allocation.
    /// Const-initialised with no destructor, so reading it never
    /// allocates.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard, dealt round-robin on first use (shard 0
/// while the thread is being torn down).
fn shard() -> &'static Shard {
    let i = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTERS[i]
}

fn counted(size: usize) {
    let s = shard();
    s.allocs.fetch_add(1, Ordering::Relaxed);
    s.bytes.fetch_add(size as u64, Ordering::Relaxed);
    s.live.fetch_add(size as i64, Ordering::Relaxed);
}

fn freed(size: usize) {
    shard().live.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        freed(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            freed(layout.size());
            counted(new_size);
        }
        p
    }
}

/// Allocator counters summed over every shard at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Heap {
    pub allocs: u64,
    pub bytes: u64,
    pub live: i64,
}

pub fn heap() -> Heap {
    let mut h = Heap {
        allocs: 0,
        bytes: 0,
        live: 0,
    };
    for s in &COUNTERS {
        h.allocs += s.allocs.load(Ordering::Relaxed);
        h.bytes += s.bytes.load(Ordering::Relaxed);
        h.live += s.live.load(Ordering::Relaxed);
    }
    h
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What one run returned, reduced to the fields the checks, the digest
/// and the layer metrics read.
pub struct RunRecord {
    pub seed: u64,
    pub wall_secs: f64,
    pub outcome: Result<RunSummary, &'static str>,
    /// Set in the traced pass only.
    pub profile: Option<ProfileReport>,
}

pub struct RunSummary {
    pub n_tasks: u32,
    pub units_done: usize,
    pub ttc: f64,
    pub tw: f64,
    pub tx: f64,
    pub ts: f64,
    pub restarts: u64,
    pub replacements: u64,
    pub replans: u64,
    pub info_fallbacks: u64,
    pub used_core_hours: f64,
    pub wasted_core_hours: f64,
}

pub struct Pass {
    pub wall_secs: f64,
    pub runs: Vec<RunRecord>,
}

/// Run every job once, in a closed loop over the pool's workers: each
/// worker takes the next job when its current run returns. Results come
/// back in job order whatever the worker count.
pub fn run_pass(w: &Workload, traced: bool) -> Pass {
    let start = Instant::now();
    let runs = w
        .jobs
        .par_iter()
        .map(|job| run_one(w, job, traced))
        .collect();
    Pass {
        wall_secs: start.elapsed().as_secs_f64(),
        runs,
    }
}

pub fn run_one(w: &Workload, job: &Job, traced: bool) -> RunRecord {
    let profiler = traced.then(Profiler::new);
    let options = w.options(job, profiler.clone());
    let start = Instant::now();
    let result = {
        // The benchmark's own root scope: its self time is everything the
        // program's labels do not cover (world build, wiring, assembly).
        let _root = profiler.as_ref().map(|p| p.scope("aimes.run_application"));
        run_application(&w.resources, &job.app, &job.strategy, &options)
    };
    let wall_secs = start.elapsed().as_secs_f64();
    let outcome = result
        .map(|r| RunSummary {
            n_tasks: r.n_tasks,
            units_done: r.units_done,
            ttc: r.breakdown.ttc.as_secs(),
            tw: r.breakdown.tw.as_secs(),
            tx: r.breakdown.tx.as_secs(),
            ts: r.breakdown.ts.as_secs(),
            restarts: r.restarts,
            replacements: r.replacements,
            replans: r.replans,
            info_fallbacks: r.info_fallbacks,
            used_core_hours: r.used_core_hours,
            wasted_core_hours: r.wasted_core_hours,
        })
        .map_err(|e| e.kind());
    RunRecord {
        seed: job.seed,
        wall_secs,
        outcome,
        profile: profiler.map(|p| p.report()),
    }
}

impl Pass {
    /// Job-ordered FNV-1a over every run's seed, outcome kind, TTC
    /// components and recovery counters. Host timing never enters it, so
    /// equal digests across passes show the runs did the same work, and
    /// an equal digest for the traced pass shows the profiler is passive.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for run in &self.runs {
            h = fnv1a(h, &run.seed.to_le_bytes());
            match &run.outcome {
                Ok(s) => {
                    h = fnv1a(h, b"ok");
                    for x in [s.ttc, s.tw, s.tx, s.ts] {
                        h = fnv1a(h, &x.to_bits().to_le_bytes());
                    }
                    for n in [
                        s.units_done as u64,
                        s.restarts,
                        s.replacements,
                        s.replans,
                        s.info_fallbacks,
                    ] {
                        h = fnv1a(h, &n.to_le_bytes());
                    }
                }
                Err(kind) => h = fnv1a(h, kind.as_bytes()),
            }
        }
        h
    }

    pub fn failed(&self) -> usize {
        self.runs.iter().filter(|r| r.outcome.is_err()).count()
    }

    pub fn summaries(&self) -> impl Iterator<Item = &RunSummary> {
        self.runs.iter().filter_map(|r| r.outcome.as_ref().ok())
    }

    /// The first run that came back `Ok` but incomplete or without a
    /// usable TTC, as a message.
    pub fn bad_result(&self) -> Option<String> {
        self.runs.iter().find_map(|r| match &r.outcome {
            Ok(s) if s.units_done != s.n_tasks as usize => Some(format!(
                "run {:#x}: {} of {} units done",
                r.seed, s.units_done, s.n_tasks
            )),
            Ok(s) if !(s.ttc.is_finite() && s.ttc > 0.0) => {
                Some(format!("run {:#x}: TTC {}", r.seed, s.ttc))
            }
            _ => None,
        })
    }
}

/// Quartiles of `xs` as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the default "exclusive" method), so that the spreads `compare`
/// judges are the ones `baseline.json` records. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n as f64 + 1.0;
    [1.0, 2.0, 3.0].map(|i| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// The highest of p99, p95, p90 and p75 with at least ten samples above
/// it, by nearest rank; the maximum when no quantile has ten. Returns
/// `(quantile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for q in [0.99, 0.95, 0.90, 0.75] {
        let rank = ((q * n as f64).ceil() as usize).max(1);
        if n - rank >= 10 {
            return (q, v[rank - 1]);
        }
    }
    (1.0, v[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn tail_takes_the_highest_quantile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (0.90, 90.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (0.75, 30.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
