//! What one large run holds per task at its live-heap peak: the
//! benchmark's `large_bag` shape (a 16,384-task Gaussian bag, late binding
//! over three pilots, three idle 8,192-core machines) at a fixed seed,
//! measured under an exact counting allocator. Unlike the process's peak
//! resident set, the live-heap peak does not depend on where the C
//! allocator places its arenas, so a layout change shows in it exactly.
//!
//! Run with `cargo test --release --test run_footprint -- --nocapture` to
//! print the figure.

use aimes_repro::cluster::ClusterConfig;
use aimes_repro::middleware::{paper, run_application, RunOptions};
use aimes_repro::skeleton::{paper_bag, TaskDurationSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes: requested sizes of the blocks not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Pass-through to the system allocator that tracks live bytes and their
/// high-water mark. One shared counter on every allocation is exact, and
/// cheap enough for one single-threaded run.
struct PeakAlloc;

impl PeakAlloc {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters, so `System`'s guarantees carry
// over.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grow(new_size - layout.size());
            } else {
                Self::shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Tasks in the bag: a `large_bag` run's size.
const TASKS: u32 = 16_384;

/// Peak live bytes per task the run may hold: 210.4 measured, plus 2%.
/// It was 298.4 when the run kept every task as both a skeleton task and
/// a unit, a unit was 128 bytes, a bag built empty dependency tables and
/// a pending-event handle took 16 bytes.
const CEILING_BYTES_PER_TASK: f64 = 214.6;

#[test]
fn a_large_bag_run_peaks_under_its_per_task_ceiling() {
    let resources: Vec<ClusterConfig> = ["big-a", "big-b", "big-c"]
        .iter()
        .map(|name| ClusterConfig::test(name, 8192))
        .collect();
    let app = paper_bag(TASKS, TaskDurationSpec::Gaussian);
    let strategy = paper::late_strategy(3);
    let options = RunOptions {
        seed: 1,
        ..Default::default()
    };

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let result = run_application(&resources, &app, &strategy, &options).expect("the bag runs");
    let peak = PEAK.load(Relaxed) - before;

    assert_eq!(result.units_done, TASKS as usize);
    let per_task = peak as f64 / f64::from(TASKS);
    println!(
        "live-heap peak: {peak} B over {TASKS} tasks = {per_task:.1} B/task \
         (ceiling {CEILING_BYTES_PER_TASK})"
    );
    assert!(
        per_task <= CEILING_BYTES_PER_TASK,
        "a {TASKS}-task run peaked at {per_task:.1} live bytes per task, \
         ceiling {CEILING_BYTES_PER_TASK}"
    );
}
