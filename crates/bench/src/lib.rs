//! # aimes-bench — experiment regeneration and micro-benchmarks
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation section (see `cargo run -p aimes-bench --release
//! --bin experiments -- help`); the Criterion benches measure the
//! simulation substrate itself (event engine, batch scheduler, end-to-end
//! middleware runs).

/// Default repetitions per (experiment, size) point for figure-quality
/// output. The paper ran "more than 20,000 runs" over a year; eight
/// repetitions per point keep the regeneration under a few minutes while
/// giving stable means and visible error bars.
pub const DEFAULT_REPETITIONS: usize = 8;

/// Reduced sizes for quick shape checks.
pub fn quick_sizes() -> Vec<u32> {
    vec![8, 64, 512]
}

pub mod observatory;

/// The value after the flag at `args[*i]`, advancing `*i` onto it. A
/// flag given without a value exits 2 with "`--flag` needs a value".
pub fn flag_value<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i) {
        Some(value) => value,
        None => {
            eprintln!("`{flag}` needs a value");
            std::process::exit(2);
        }
    }
}

/// [`flag_value`] parsed as `T`; a value that does not parse exits 2.
pub fn flag_parse<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    let value = flag_value(args, i);
    value.parse().unwrap_or_else(|_| {
        eprintln!("`{flag}` takes a number, got `{value}`");
        std::process::exit(2);
    })
}

pub mod alloc {
    //! Opt-in heap accounting: a counting [`GlobalAlloc`] shim.
    //!
    //! The bench binaries install this as their `#[global_allocator]`
    //! (opt-in per binary — the library and tests never pay for it) so
    //! perf reports can track allocation pressure and peak live heap
    //! alongside events/sec. Counters are relaxed atomics (~2 ns per
    //! allocation); the peak is maintained with an atomic max so it is
    //! correct under the parallel campaign pool.
    //!
    //! Caveats: counts are process-global (all threads and worker pools
    //! mix), and the peak never resets — per-region deltas come from
    //! [`snapshot`] pairs, but `peak_bytes` is monotone like VmHWM.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Counting pass-through to the system allocator.
    pub struct CountingAlloc;

    fn on_alloc(size: u64) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(size, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: u64) {
        LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }

    /// Point-in-time reading of the allocator counters.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct AllocSnapshot {
        /// Allocation calls since process start.
        pub allocs: u64,
        /// Bytes handed out since process start.
        pub bytes_allocated: u64,
        /// Currently live heap bytes.
        pub live_bytes: u64,
        /// Peak live heap bytes since process start (monotone).
        pub peak_bytes: u64,
    }

    impl AllocSnapshot {
        /// Counter growth since `earlier` (peak stays absolute).
        pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
            AllocSnapshot {
                allocs: self.allocs.saturating_sub(earlier.allocs),
                bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
                live_bytes: self.live_bytes,
                peak_bytes: self.peak_bytes,
            }
        }
    }

    /// Read the counters. All zeros unless a binary installed
    /// [`CountingAlloc`] as its global allocator.
    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
            peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        }
    }

    /// True when the shim has observed at least one allocation — i.e.
    /// the running binary actually installed it.
    pub fn is_active() -> bool {
        ALLOCS.load(Ordering::Relaxed) > 0
    }
}

pub mod scenarios {
    //! Named journal-producing scenarios shared by the `experiments`
    //! CLI (`journal`, `analyze`) and the analytics CI gates. The shapes
    //! mirror the golden-journal suite: the paper's experiment 1 and 4
    //! plus one detected-fault recovery run.

    use aimes::journal::RunJournal;
    use aimes::middleware::{run_application, RunOptions};
    use aimes::paper;
    use aimes_cluster::ClusterConfig;
    use aimes_fault::{FaultSpec, OutageKind, OutageSpec, RecoveryPolicy};
    use aimes_sim::SimTime;
    use aimes_skeleton::{paper_bag, TaskDurationSpec};
    use aimes_strategy::{ExecutionStrategy, ResourceSelection};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The scenario names `journal --scenario` accepts.
    pub const NAMES: [&str; 3] = ["exp1", "exp4", "faulty"];

    fn pool() -> Vec<ClusterConfig> {
        vec![
            ClusterConfig::test("one", 256),
            ClusterConfig::test("two", 256),
            ClusterConfig::test("three", 512),
        ]
    }

    fn run(
        strategy: &ExecutionStrategy,
        spec: TaskDurationSpec,
        n_tasks: u32,
        seed: u64,
        faults: Option<FaultSpec>,
        recovery: Option<RecoveryPolicy>,
    ) -> RunJournal {
        let app = paper_bag(n_tasks, spec);
        let journal = Rc::new(RefCell::new(RunJournal::new()));
        let options = RunOptions {
            seed,
            submit_at: SimTime::from_secs(600.0),
            faults,
            recovery,
            journal: Some(Rc::clone(&journal)),
            ..Default::default()
        };
        run_application(&pool(), &app, strategy, &options).expect("scenario run completes");
        let out = journal.borrow().clone();
        out
    }

    /// Run one named scenario at `seed` and return its journal.
    /// Panics on an unknown name; the caller validates against [`NAMES`].
    pub fn journal(name: &str, seed: u64) -> RunJournal {
        match name {
            // Experiment-1 shape: constant 15-minute tasks, early binding.
            "exp1" => run(
                &paper::early_strategy(),
                TaskDurationSpec::Uniform15Min,
                32,
                seed,
                None,
                None,
            ),
            // Experiment-4 shape: Gaussian durations, late binding over 3
            // pilots.
            "exp4" => run(
                &paper::late_strategy(3),
                TaskDurationSpec::Gaussian,
                32,
                seed,
                None,
                None,
            ),
            // Permanent outage on the pinned resource, detected (not
            // oracled) and recovered.
            "faulty" => {
                let mut strategy = paper::late_strategy(2);
                strategy.selection = ResourceSelection::Fixed(vec!["one".into()]);
                let faults = FaultSpec {
                    outages: vec![OutageSpec {
                        resource: "one".into(),
                        at_secs: 300.0,
                        duration_secs: 600.0,
                        kind: OutageKind::Permanent,
                    }],
                    ..FaultSpec::none()
                };
                run(
                    &strategy,
                    TaskDurationSpec::Uniform15Min,
                    16,
                    seed,
                    Some(faults),
                    Some(RecoveryPolicy::with_detection()),
                )
            }
            other => panic!("unknown scenario {other:?}; known: {NAMES:?}"),
        }
    }
}
