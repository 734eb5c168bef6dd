//! # aimes-bench — experiment regeneration
//!
//! The `experiments` binary regenerates every table and figure of the
//! paper's evaluation section (see `cargo run -p aimes-bench --release
//! --bin experiments -- help`). This library holds what it shares with
//! its tests: the campaign observatory, the counting allocator, the
//! named journal scenarios and the flag parsers. The simulation
//! substrate itself is measured by the benchmark of record,
//! `examples/benchmark`.

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
    //! The `experiments` binary installs this as its `#[global_allocator]`
    //! (opt-in per binary or test — the library never pays for it) so
    //! profile documents can track allocation pressure alongside the
    //! engine counters. The counters are sharded per thread, each shard on
    //! its own cache lines, so pool workers allocating at once do not
    //! contend on one counter and slow the campaign being measured.
    //! Relaxed atomics: the counters publish no other data.
    //!
    //! Caveats: counts are process-global (all threads and worker pools
    //! mix; per-region deltas come from [`snapshot`] pairs), and there is
    //! no exact live-heap peak, which would need one shared atomic max on
    //! every allocation. `peak_bytes` is the process's peak resident set
    //! (`VmHWM`) instead, monotone and host dependent.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

    /// Counting pass-through to the system allocator.
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

    /// The calling thread's shard, dealt round-robin on first use (shard
    /// 0 while the thread is being torn down).
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

    fn on_alloc(size: usize) {
        let s = shard();
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(size as u64, Ordering::Relaxed);
        s.live.fetch_add(size as i64, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        shard().live.fetch_sub(size as i64, Ordering::Relaxed);
    }

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged and only updates counters, so `System`'s
    // guarantees carry over.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator with this `layout`.
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                on_dealloc(layout.size());
                on_alloc(new_size);
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
        /// Currently live heap bytes, summed over the shards.
        pub live_bytes: i64,
        /// Peak resident set of the process since its start, in bytes
        /// (Linux `VmHWM`; 0 where unavailable). Monotone.
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

    /// Read the counters, summed over every shard. The counts are all
    /// zero unless a binary installed [`CountingAlloc`] as its global
    /// allocator.
    pub fn snapshot() -> AllocSnapshot {
        let mut snap = AllocSnapshot {
            peak_bytes: peak_rss_bytes(),
            ..AllocSnapshot::default()
        };
        for s in &COUNTERS {
            snap.allocs += s.allocs.load(Ordering::Relaxed);
            snap.bytes_allocated += s.bytes.load(Ordering::Relaxed);
            snap.live_bytes += s.live.load(Ordering::Relaxed);
        }
        snap
    }

    /// Peak resident set of this process in bytes (Linux `VmHWM`; 0
    /// where unavailable).
    fn peak_rss_bytes() -> u64 {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
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
