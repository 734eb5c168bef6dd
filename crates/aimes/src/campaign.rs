//! Campaign observability: the cross-run manifest, live progress, and
//! pool-utilization records.
//!
//! A campaign (a sweep of hundreds of runs fanned out over the worker
//! pool) was a black box until its final table printed. This module gives
//! it a flight record of its own:
//!
//! - [`CampaignRecorder`] — every run reports a [`RunRecord`] into a
//!   bounded channel; a writer thread appends them to `campaign.jsonl`
//!   **in completion order** (the live, crash-legible view), and
//!   [`CampaignRecorder::close`] canonicalizes the file to **job order**
//!   via a temp file + atomic rename, so the finished manifest is
//!   byte-identical at any worker count.
//! - [`Progress`] — an opt-in, rate-limited live status line on stderr
//!   (completed/total, runs/sec, ETA, failure count). Default off, so the
//!   worker-count byte-compare gates never see it.
//! - [`PoolRecord`] — a serialized snapshot of the vendored pool's
//!   per-worker accounting (see `rayon::pool_stats`).
//!
//! Determinism contract: at defaults the manifest holds only
//! run-deterministic fields (seeds, TTC components, counters, error
//! taxonomy) — `timing` is `null` and no pool record is written. Wall
//! times, worker indices, and pool stats are inherently worker-count
//! dependent, so they only appear under the opt-in timing mode
//! (`--campaign-timing` in the bench binaries).

use crate::middleware::{RunError, RunResult};
use serde::{Deserialize, Serialize};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::Instant;

/// Manifest schema identifier, bumped on incompatible record changes.
pub const CAMPAIGN_SCHEMA: &str = "aimes-campaign-v1";

/// Capacity of the run→writer channel. Full channel back-pressures the
/// workers (simulation runs are seconds; a line write is microseconds, so
/// in practice it never fills).
const CHANNEL_CAPACITY: usize = 1024;

/// First line of every manifest: what campaign this is.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CampaignMeta {
    /// Record discriminator, always `"meta"`.
    pub kind: String,
    /// Schema identifier ([`CAMPAIGN_SCHEMA`]).
    pub schema: String,
    /// The sweep or campaign that produced this manifest
    /// (e.g. `ablation-cascade`, `campaign-throughput`).
    pub command: String,
    /// Base seed of the campaign.
    pub seed: u64,
    /// Total jobs fanned out; the canonical manifest holds exactly this
    /// many run records, jobs `0..total_jobs`.
    pub total_jobs: u64,
}

impl CampaignMeta {
    pub fn new(command: &str, seed: u64, total_jobs: u64) -> Self {
        Self {
            kind: "meta".into(),
            schema: CAMPAIGN_SCHEMA.into(),
            command: command.into(),
            seed,
            total_jobs,
        }
    }
}

/// Worker-count-dependent wall-clock fields, present only in timing mode.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunTiming {
    /// Pool worker index that executed the run (-1 if run off-pool).
    pub worker: i64,
    /// Wall-clock offsets from campaign start, seconds.
    pub wall_start_secs: f64,
    pub wall_end_secs: f64,
    /// Per-phase wall split: constructing the scenario (world, faults,
    /// strategy), simulating it, and folding the outcome into records.
    pub build_secs: f64,
    pub simulate_secs: f64,
    pub aggregate_secs: f64,
}

/// One run's row in the manifest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    /// Record discriminator, always `"run"`.
    pub kind: String,
    /// Job index in the fan-out order (the canonical sort key).
    pub job: u64,
    /// The sweep this run belongs to (mirrors [`CampaignMeta::command`]).
    pub sweep: String,
    /// Arm label within the sweep (e.g. `0.10/detect`, `evac+ckpt`).
    pub arm: String,
    /// Repetition index within the arm.
    pub rep: u64,
    pub n_tasks: u32,
    /// The run's own derived seed (not the campaign base seed).
    pub seed: u64,
    /// `"ok"` or `"failed"`.
    pub outcome: String,
    /// [`RunError::kind`] taxonomy key; `null` on success.
    pub error_kind: Option<String>,
    /// Rendered error message; `null` on success. Identical to the
    /// stderr failure line's trailing cause.
    pub error: Option<String>,
    /// TTC components, seconds; `null` on failure.
    pub ttc_secs: Option<f64>,
    pub tw_secs: Option<f64>,
    pub tx_secs: Option<f64>,
    pub ts_secs: Option<f64>,
    pub tr_secs: Option<f64>,
    pub td_secs: Option<f64>,
    /// Fallback / recovery counters (0 on failure).
    pub restarts: u64,
    pub replacements: u64,
    pub replans: u64,
    pub false_suspicions: u64,
    pub info_fallbacks: u64,
    pub domain_alarms: u64,
    pub evacuations: u64,
    pub wasted_core_hours: f64,
    pub salvaged_core_hours: f64,
    pub stale_decision_secs: f64,
    /// Volatile wall-clock fields; `null` unless timing mode is on.
    pub timing: Option<RunTiming>,
}

impl RunRecord {
    fn base(job: u64, sweep: &str, arm: &str, rep: u64, n_tasks: u32, seed: u64) -> Self {
        Self {
            kind: "run".into(),
            job,
            sweep: sweep.into(),
            arm: arm.into(),
            rep,
            n_tasks,
            seed,
            outcome: String::new(),
            error_kind: None,
            error: None,
            ttc_secs: None,
            tw_secs: None,
            tx_secs: None,
            ts_secs: None,
            tr_secs: None,
            td_secs: None,
            restarts: 0,
            replacements: 0,
            replans: 0,
            false_suspicions: 0,
            info_fallbacks: 0,
            domain_alarms: 0,
            evacuations: 0,
            wasted_core_hours: 0.0,
            salvaged_core_hours: 0.0,
            stale_decision_secs: 0.0,
            timing: None,
        }
    }

    /// Record for a completed run.
    pub fn ok(
        job: u64,
        sweep: &str,
        arm: &str,
        rep: u64,
        n_tasks: u32,
        seed: u64,
        r: &RunResult,
    ) -> Self {
        let mut rec = Self::base(job, sweep, arm, rep, n_tasks, seed);
        rec.outcome = "ok".into();
        rec.ttc_secs = Some(r.breakdown.ttc.as_secs());
        rec.tw_secs = Some(r.breakdown.tw.as_secs());
        rec.tx_secs = Some(r.breakdown.tx.as_secs());
        rec.ts_secs = Some(r.breakdown.ts.as_secs());
        rec.tr_secs = Some(r.breakdown.tr.as_secs());
        rec.td_secs = Some(r.breakdown.td.as_secs());
        rec.restarts = r.restarts;
        rec.replacements = r.replacements;
        rec.replans = r.replans;
        rec.false_suspicions = r.false_suspicions;
        rec.info_fallbacks = r.info_fallbacks;
        rec.domain_alarms = r.domain_alarms;
        rec.evacuations = r.evacuations;
        rec.wasted_core_hours = r.wasted_core_hours;
        rec.salvaged_core_hours = r.salvaged_core_hours;
        rec.stale_decision_secs = r.stale_decision_secs;
        rec
    }

    /// Record for a failed run.
    pub fn failed(
        job: u64,
        sweep: &str,
        arm: &str,
        rep: u64,
        n_tasks: u32,
        seed: u64,
        err: &RunError,
    ) -> Self {
        let mut rec = Self::base(job, sweep, arm, rep, n_tasks, seed);
        rec.outcome = "failed".into();
        rec.error_kind = Some(err.kind().to_string());
        rec.error = Some(err.to_string());
        rec
    }

    /// Attach timing-mode fields.
    pub fn with_timing(mut self, timing: RunTiming) -> Self {
        self.timing = Some(timing);
        self
    }

    pub fn is_failed(&self) -> bool {
        self.outcome == "failed"
    }
}

/// Per-worker slice of the pool snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PoolWorkerRecord {
    pub worker: u64,
    pub items: u64,
    pub busy_secs: f64,
    pub idle_secs: f64,
    /// busy / (busy + idle) for this worker.
    pub busy_fraction: f64,
}

/// Last line of a timing-mode manifest: the pool's accounting for the
/// whole campaign (see `rayon::pool_stats`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PoolRecord {
    /// Record discriminator, always `"pool"`.
    pub kind: String,
    pub invocations: u64,
    pub cursor_overshoots: u64,
    pub wall_secs: f64,
    pub busy_secs: f64,
    /// Aggregate busy fraction across workers.
    pub utilization: f64,
    pub workers: Vec<PoolWorkerRecord>,
}

impl PoolRecord {
    /// Snapshot from the pool's accounting.
    pub fn from_stats(stats: &rayon::PoolStats) -> Self {
        Self {
            kind: "pool".into(),
            invocations: stats.invocations,
            cursor_overshoots: stats.cursor_overshoots,
            wall_secs: stats.wall_secs,
            busy_secs: stats.busy_secs(),
            utilization: stats.utilization(),
            workers: stats
                .workers
                .iter()
                .enumerate()
                .map(|(w, ws)| PoolWorkerRecord {
                    worker: w as u64,
                    items: ws.items,
                    busy_secs: ws.busy_secs,
                    idle_secs: ws.idle_secs,
                    busy_fraction: ws.busy_fraction(),
                })
                .collect(),
        }
    }
}

/// Ordering class of a manifest line, carried alongside the serialized
/// text so canonicalization never needs to re-parse.
enum LineClass {
    Meta,
    Run(u64),
    Pool,
}

type Line = (LineClass, String);

/// Cloneable handle the parallel workers report through.
pub struct CampaignSender {
    tx: SyncSender<Line>,
    epoch: Instant,
    timing: bool,
}

impl Clone for CampaignSender {
    fn clone(&self) -> Self {
        Self {
            tx: self.tx.clone(),
            epoch: self.epoch,
            timing: self.timing,
        }
    }
}

impl CampaignSender {
    /// Whether volatile wall-clock fields should be recorded.
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Seconds since the campaign recorder was created — the epoch for
    /// [`RunTiming`] wall offsets.
    pub fn elapsed_secs(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Enqueue one run record. A full channel back-pressures the caller;
    /// a closed channel (writer died) drops the record — the recorder's
    /// `close` reports the underlying I/O error.
    pub fn record_run(&self, rec: &RunRecord) {
        let line = serde_json::to_string(rec).expect("RunRecord serializes");
        let _ = self.tx.send((LineClass::Run(rec.job), line));
    }

    /// Build and enqueue the record for one finished run, attaching the
    /// volatile timing fields when timing mode is on. `started` is the
    /// [`Self::elapsed_secs`] value sampled before the run's build phase;
    /// `build_secs`/`simulate_secs` are the caller-measured wall split
    /// (scenario construction vs simulation). The aggregate phase — record
    /// construction and the channel send — is measured here.
    #[allow(clippy::too_many_arguments)]
    pub fn record_outcome(
        &self,
        job: u64,
        sweep: &str,
        arm: &str,
        rep: u64,
        n_tasks: u32,
        seed: u64,
        outcome: &Result<RunResult, RunError>,
        started: f64,
        build_secs: f64,
        simulate_secs: f64,
    ) {
        let t_agg = Instant::now();
        let mut rec = match outcome {
            Ok(r) => RunRecord::ok(job, sweep, arm, rep, n_tasks, seed, r),
            Err(e) => RunRecord::failed(job, sweep, arm, rep, n_tasks, seed, e),
        };
        if self.timing {
            rec = rec.with_timing(RunTiming {
                worker: rayon::current_worker_index().map_or(-1, |w| w as i64),
                wall_start_secs: started,
                wall_end_secs: self.elapsed_secs(),
                build_secs,
                simulate_secs,
                aggregate_secs: t_agg.elapsed().as_secs_f64(),
            });
        }
        self.record_run(&rec);
    }
}

/// Owns the manifest file and its writer thread.
pub struct CampaignRecorder {
    sender: Option<CampaignSender>,
    writer: Option<std::thread::JoinHandle<io::Result<Vec<Line>>>>,
    path: PathBuf,
}

impl CampaignRecorder {
    /// Open `path`, write the meta line, and start the writer thread.
    /// `timing` enables the volatile wall-clock fields (worker index,
    /// wall offsets, phase split, pool record) — off by default so the
    /// manifest stays byte-identical across worker counts.
    pub fn create(path: &Path, meta: &CampaignMeta, timing: bool) -> io::Result<Self> {
        let mut file = std::fs::File::create(path)?;
        let meta_line = serde_json::to_string(meta).expect("CampaignMeta serializes");
        writeln!(file, "{meta_line}")?;
        file.flush()?;

        let (tx, rx) = sync_channel::<Line>(CHANNEL_CAPACITY);
        let writer = std::thread::spawn(move || -> io::Result<Vec<Line>> {
            // Stream records in completion order: if the campaign dies,
            // the manifest still holds everything finished so far.
            let mut lines: Vec<Line> = vec![(LineClass::Meta, meta_line)];
            for (class, line) in rx {
                writeln!(file, "{line}")?;
                file.flush()?;
                lines.push((class, line));
            }
            Ok(lines)
        });

        Ok(Self {
            sender: Some(CampaignSender {
                tx,
                epoch: Instant::now(),
                timing,
            }),
            writer: Some(writer),
            path: path.to_path_buf(),
        })
    }

    /// The handle workers report through.
    pub fn sender(&self) -> CampaignSender {
        self.sender.as_ref().expect("recorder not closed").clone()
    }

    /// Close the channel, join the writer, and canonicalize the manifest:
    /// meta first, run records sorted by job index, pool record (if any)
    /// last — written to a temp file and atomically renamed over the
    /// streamed one, so the finished manifest is worker-count invariant
    /// and readers never observe a half-rewritten file.
    pub fn close(mut self, pool: Option<&PoolRecord>) -> io::Result<()> {
        let sender = self.sender.take();
        drop(sender); // hang up so the writer's recv loop ends
        let writer = self.writer.take().expect("close called once");
        let mut lines = writer
            .join()
            .map_err(|_| io::Error::other("campaign writer thread panicked"))??;

        if let Some(pool) = pool {
            let line = serde_json::to_string(pool).expect("PoolRecord serializes");
            lines.push((LineClass::Pool, line));
        }
        lines.sort_by_key(|(class, _)| match class {
            LineClass::Meta => (0u8, 0u64),
            LineClass::Run(job) => (1, *job),
            LineClass::Pool => (2, 0),
        });

        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            for (_, line) in &lines {
                writeln!(file, "{line}")?;
            }
            file.flush()?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }
}

/// A parsed manifest.
#[derive(Debug)]
pub struct Manifest {
    pub meta: CampaignMeta,
    pub runs: Vec<RunRecord>,
    pub pool: Option<PoolRecord>,
}

impl Manifest {
    /// Schema + shape checks for a *canonical* (closed) manifest: schema
    /// id matches, run records cover jobs `0..total_jobs` in order,
    /// exactly one meta line. Returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.meta.schema != CAMPAIGN_SCHEMA {
            return Err(format!(
                "schema mismatch: manifest says {:?}, reader expects {CAMPAIGN_SCHEMA:?}",
                self.meta.schema
            ));
        }
        if self.runs.len() as u64 != self.meta.total_jobs {
            return Err(format!(
                "meta declares {} jobs but manifest holds {} run records",
                self.meta.total_jobs,
                self.runs.len()
            ));
        }
        for (i, rec) in self.runs.iter().enumerate() {
            if rec.job != i as u64 {
                return Err(format!(
                    "run records out of canonical order: position {i} holds job {}",
                    rec.job
                ));
            }
        }
        Ok(())
    }
}

/// Parse a `campaign.jsonl` document. Unknown record kinds and blank
/// lines are rejected — a manifest is a closed artifact, not a log to
/// skim leniently.
pub fn read_manifest(text: &str) -> Result<Manifest, String> {
    let mut meta: Option<CampaignMeta> = None;
    let mut runs: Vec<RunRecord> = Vec::new();
    let mut pool: Option<PoolRecord> = None;

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if let Ok(m) = serde_json::from_str::<CampaignMeta>(line) {
            if m.kind == "meta" {
                if meta.is_some() {
                    return Err(format!("line {lineno}: duplicate meta record"));
                }
                meta = Some(m);
                continue;
            }
        }
        if let Ok(r) = serde_json::from_str::<RunRecord>(line) {
            if r.kind == "run" {
                runs.push(r);
                continue;
            }
        }
        if let Ok(p) = serde_json::from_str::<PoolRecord>(line) {
            if p.kind == "pool" {
                if pool.is_some() {
                    return Err(format!("line {lineno}: duplicate pool record"));
                }
                pool = Some(p);
                continue;
            }
        }
        return Err(format!("line {lineno}: unrecognized manifest record"));
    }

    let meta = meta.ok_or("manifest has no meta record")?;
    Ok(Manifest { meta, runs, pool })
}

/// Opt-in live status line on stderr: completed/total, runs/sec, ETA,
/// failure count. Rate-limited to one redraw per ~200 ms (the final tick
/// always draws). Construct only when the user asked for it — nothing
/// here writes unless `tick`/`finish` is called.
pub struct Progress {
    total: u64,
    done: AtomicU64,
    failed: AtomicU64,
    start: Instant,
    /// Millis-since-start of the last redraw, for rate limiting.
    last_draw_ms: AtomicU64,
}

/// Minimum interval between redraws.
const DRAW_INTERVAL_MS: u64 = 200;

impl Progress {
    pub fn new(total: u64) -> Self {
        Self {
            total,
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            start: Instant::now(),
            last_draw_ms: AtomicU64::new(0),
        }
    }

    /// Count one finished run (and redraw if the rate limit allows).
    pub fn tick(&self, run_failed: bool) {
        if run_failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_draw_ms.load(Ordering::Relaxed);
        let due = now_ms.saturating_sub(last) >= DRAW_INTERVAL_MS || done == self.total;
        if due
            && self
                .last_draw_ms
                .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            eprint!("\r{}", self.line(done));
        }
    }

    /// Draw the final state and terminate the line.
    pub fn finish(&self) {
        let done = self.done.load(Ordering::Relaxed);
        eprintln!("\r{}", self.line(done));
    }

    /// Render the status line for `done` completed runs.
    fn line(&self, done: u64) -> String {
        let failed = self.failed.load(Ordering::Relaxed);
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 && done < self.total {
            format!("{:.0}s", (self.total - done) as f64 / rate)
        } else {
            "0s".to_string()
        };
        let pct = if self.total > 0 {
            100.0 * done as f64 / self.total as f64
        } else {
            100.0
        };
        format!(
            "[campaign] {done}/{} runs ({pct:.0}%) | {rate:.1} runs/s | ETA {eta} | failures: {failed}",
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_run(job: u64) -> RunRecord {
        let mut rec = RunRecord::base(job, "test-sweep", "arm-a", job, 8, 1000 + job);
        rec.outcome = "ok".into();
        rec.ttc_secs = Some(100.0 + job as f64);
        rec
    }

    #[test]
    fn manifest_canonicalizes_completion_order_to_job_order() {
        let dir = std::env::temp_dir().join(format!("aimes-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("canon.jsonl");

        let meta = CampaignMeta::new("test-sweep", 42, 4);
        let recorder = CampaignRecorder::create(&path, &meta, false).unwrap();
        let sender = recorder.sender();
        // Simulate out-of-order completion.
        for job in [2u64, 0, 3, 1] {
            sender.record_run(&dummy_run(job));
        }
        drop(sender);
        recorder.close(None).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let manifest = read_manifest(&text).unwrap();
        manifest.validate().unwrap();
        assert_eq!(manifest.meta.command, "test-sweep");
        assert_eq!(
            manifest.runs.iter().map(|r| r.job).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // Default mode: no volatile fields anywhere in the file.
        assert!(manifest.pool.is_none());
        assert!(manifest.runs.iter().all(|r| r.timing.is_none()));
        assert!(text.contains("\"timing\":null"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_runs_carry_the_error_taxonomy() {
        let err = RunError::Unplannable("no qualifying resources".into());
        let rec = RunRecord::failed(7, "sweep", "arm", 1, 16, 99, &err);
        assert!(rec.is_failed());
        assert_eq!(rec.error_kind.as_deref(), Some("unplannable"));
        assert_eq!(rec.ttc_secs, None);
        let line = serde_json::to_string(&rec).unwrap();
        let back: RunRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back.error_kind.as_deref(), Some("unplannable"));
        assert_eq!(back.error.as_deref(), Some("no qualifying resources"));
    }

    #[test]
    fn validate_rejects_gaps_and_schema_drift() {
        let meta = CampaignMeta::new("s", 1, 2);
        let bad_gap = Manifest {
            meta: meta.clone(),
            runs: vec![dummy_run(0), dummy_run(2)],
            pool: None,
        };
        assert!(bad_gap.validate().unwrap_err().contains("canonical order"));

        let mut drift = CampaignMeta::new("s", 1, 0);
        drift.schema = "aimes-campaign-v999".into();
        let bad_schema = Manifest {
            meta: drift,
            runs: vec![],
            pool: None,
        };
        assert!(bad_schema.validate().unwrap_err().contains("schema"));

        let short = Manifest {
            meta,
            runs: vec![dummy_run(0)],
            pool: None,
        };
        assert!(short.validate().unwrap_err().contains("declares 2 jobs"));
    }

    #[test]
    fn pool_record_round_trips_with_timing_manifest() {
        let dir = std::env::temp_dir().join(format!("aimes-campaign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timing.jsonl");

        let meta = CampaignMeta::new("t", 7, 1);
        let recorder = CampaignRecorder::create(&path, &meta, true).unwrap();
        let sender = recorder.sender();
        assert!(sender.timing_enabled());
        let rec = dummy_run(0).with_timing(RunTiming {
            worker: 0,
            wall_start_secs: 0.0,
            wall_end_secs: 0.5,
            build_secs: 0.1,
            simulate_secs: 0.3,
            aggregate_secs: 0.1,
        });
        sender.record_run(&rec);
        drop(sender);
        let pool = PoolRecord {
            kind: "pool".into(),
            invocations: 1,
            cursor_overshoots: 2,
            wall_secs: 0.5,
            busy_secs: 0.4,
            utilization: 0.8,
            workers: vec![PoolWorkerRecord {
                worker: 0,
                items: 1,
                busy_secs: 0.4,
                idle_secs: 0.1,
                busy_fraction: 0.8,
            }],
        };
        recorder.close(Some(&pool)).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let manifest = read_manifest(&text).unwrap();
        manifest.validate().unwrap();
        let pool = manifest.pool.expect("pool record present");
        assert_eq!(pool.invocations, 1);
        assert_eq!(pool.workers.len(), 1);
        assert!((pool.workers[0].busy_fraction - 0.8).abs() < 1e-12);
        let timing = manifest.runs[0].timing.as_ref().expect("timing present");
        assert_eq!(timing.worker, 0);
        // Pool record is the last line of the canonical file.
        assert!(text.lines().last().unwrap().contains("\"kind\":\"pool\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_manifest_rejects_garbage_and_missing_meta() {
        assert!(read_manifest("not json\n").is_err());
        let run_only = serde_json::to_string(&dummy_run(0)).unwrap();
        assert!(read_manifest(&format!("{run_only}\n"))
            .unwrap_err()
            .contains("no meta"));
    }

    #[test]
    fn campaign_driver_reports_every_job_once_and_routes_failures_to_their_arm() {
        use crate::experiment::{run_campaign, CampaignHooks, CampaignJob};
        use crate::middleware::RunOptions;
        use crate::profile::ProfileAccumulator;
        use aimes_cluster::ClusterConfig;
        use aimes_sim::SimTime;
        use aimes_strategy::ExecutionStrategy;

        let resources: Vec<ClusterConfig> = ["a", "b"]
            .iter()
            .map(|n| ClusterConfig::test(n, 512))
            .collect();
        let app = aimes_skeleton::paper_bag(8, aimes_skeleton::TaskDurationSpec::Uniform15Min);
        let strategy = ExecutionStrategy::paper_late(2);
        let arms = ["left", "right"];
        let reps = 2;
        let path = std::env::temp_dir().join(format!("aimes-driver-{}.jsonl", std::process::id()));
        let recorder =
            CampaignRecorder::create(&path, &CampaignMeta::new("driver", 1, 4), false).unwrap();
        let sender = recorder.sender();
        let progress = Progress::new(4);
        let profile = ProfileAccumulator::new();
        let hooks = CampaignHooks {
            recorder: Some(&sender),
            progress: Some(&progress),
            profile: Some(&profile),
        };
        let outcomes = run_campaign(
            hooks,
            "driver",
            &arms,
            reps,
            |arm, rep| CampaignJob {
                arm: arm.to_string(),
                // Job 3 (right, rep 1) has no resources: Unplannable.
                resources: if *arm == "right" && rep == 1 {
                    &[]
                } else {
                    &resources
                },
                app: &app,
                strategy: &strategy,
                options: RunOptions {
                    seed: 100 + rep as u64,
                    submit_at: SimTime::from_secs(600.0),
                    ..Default::default()
                },
            },
            |r, options| (r.breakdown.ttc.as_secs(), options.seed),
        );
        drop(sender);
        recorder.close(None).unwrap();

        // Grouped per arm, repetitions in order; the projection saw the
        // job's own options.
        assert_eq!(outcomes.len(), 2);
        for (arm, runs) in arms.iter().zip(&outcomes) {
            assert_eq!(runs.len(), reps);
            for (rep, out) in runs.iter().enumerate() {
                assert_eq!(
                    (out.arm.as_str(), out.rep, out.seed),
                    (*arm, rep, 100 + rep as u64)
                );
            }
        }
        let failed: Vec<_> = outcomes
            .iter()
            .flatten()
            .filter(|o| o.result.is_err())
            .map(|o| (o.arm.as_str(), o.rep))
            .collect();
        assert_eq!(failed, vec![("right", 1)]);
        assert!(matches!(
            outcomes[1][1].result,
            Err(RunError::Unplannable(_))
        ));
        assert_eq!(outcomes[0][1].result.as_ref().unwrap().1, 101);

        // Exactly one manifest record, progress tick and profile report
        // per job.
        let manifest = read_manifest(&std::fs::read_to_string(&path).unwrap()).unwrap();
        manifest.validate().unwrap();
        let keys: Vec<_> = manifest
            .runs
            .iter()
            .map(|r| (r.arm.as_str(), r.rep, r.n_tasks, r.is_failed()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("left", 0, 8, false),
                ("left", 1, 8, false),
                ("right", 0, 8, false),
                ("right", 1, 8, true),
            ]
        );
        assert_eq!(manifest.runs[3].error_kind.as_deref(), Some("unplannable"));
        assert_eq!(progress.done.load(Ordering::Relaxed), 4);
        assert_eq!(progress.failed.load(Ordering::Relaxed), 1);
        assert_eq!(profile.runs(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn progress_line_renders_rate_and_failures() {
        let p = Progress::new(10);
        p.done.store(4, Ordering::Relaxed);
        p.failed.store(1, Ordering::Relaxed);
        let line = p.line(4);
        assert!(line.contains("4/10 runs"), "{line}");
        assert!(line.contains("failures: 1"), "{line}");
        assert!(line.contains("runs/s"), "{line}");
    }
}
