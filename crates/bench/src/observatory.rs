//! Campaign observability for the `experiments` sweeps: the four campaign
//! flags, the [`Observatory`] that opens and closes what they ask for, and
//! the one writer of `aimes-profile-v1` documents.

use crate::alloc as heap;
use aimes::campaign::{CampaignMeta, CampaignRecorder, CampaignSender, PoolRecord, Progress};
use aimes::experiment::CampaignHooks;
use aimes::profile::{AllocSection, ProfileAccumulator, ProfileDoc, TimingInputs};
use aimes_sim::ProfileReport;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `--campaign-out PATH --campaign-timing --progress --profile-out PATH`.
/// All default off, so campaign output at defaults is untouched.
#[derive(Clone, Debug, Default)]
pub struct CampaignFlags {
    /// Campaign manifest path (`campaign.jsonl`): one record per run,
    /// canonicalized to job order at close.
    pub campaign_out: Option<PathBuf>,
    /// Record volatile wall-clock fields (worker index, wall offsets,
    /// phase split, pool record) in the manifest, and host timing and
    /// allocator sections in the profile document. Off by default: the
    /// default manifest and profile are byte-identical at any worker
    /// count.
    pub campaign_timing: bool,
    /// Live status line on stderr. Off by default so stderr stays
    /// byte-identical across worker counts.
    pub progress: bool,
    /// `aimes-profile-v1` output path for the merged per-run engine
    /// profiles.
    pub profile_out: Option<PathBuf>,
}

impl CampaignFlags {
    /// Consume `args[*i]` (and its value, advancing `*i`) when it is one
    /// of the campaign flags; `false` leaves it to the caller. A value
    /// flag given last exits 2.
    pub fn parse(&mut self, args: &[String], i: &mut usize) -> bool {
        match args[*i].as_str() {
            "--campaign-out" => self.campaign_out = Some(crate::flag_value(args, i).into()),
            "--campaign-timing" => self.campaign_timing = true,
            "--progress" => self.progress = true,
            "--profile-out" => self.profile_out = Some(crate::flag_value(args, i).into()),
            _ => return false,
        }
        true
    }
}

/// Campaign observability for one fan-out: the `campaign.jsonl` recorder,
/// the live progress line and the merged engine profile, each present only
/// when its flag is set.
pub struct Observatory {
    recorder: Option<CampaignRecorder>,
    sender: Option<CampaignSender>,
    progress: Option<Progress>,
    timing: bool,
    /// Per-run profile collection point, merged in job order at close.
    profile: Option<(PathBuf, ProfileAccumulator)>,
    command: String,
    seed: u64,
    stopwatch: Stopwatch,
}

impl Observatory {
    /// Open the manifest (writing its meta line under `command`, which
    /// also names the profile document) and reset the pool's accounting so
    /// a timing-mode pool record covers exactly this fan-out.
    pub fn open(flags: &CampaignFlags, command: &str, seed: u64, total_jobs: usize) -> Observatory {
        let recorder = flags.campaign_out.as_ref().map(|path| {
            CampaignRecorder::create(
                path,
                &CampaignMeta::new(command, seed, total_jobs as u64),
                flags.campaign_timing,
            )
            .unwrap_or_else(|e| {
                eprintln!("cannot create campaign manifest {}: {e}", path.display());
                std::process::exit(2);
            })
        });
        if recorder.is_some() {
            rayon::reset_pool_stats();
        }
        Observatory {
            sender: recorder.as_ref().map(|r| r.sender()),
            recorder,
            progress: flags.progress.then(|| Progress::new(total_jobs as u64)),
            timing: flags.campaign_timing,
            profile: flags
                .profile_out
                .as_ref()
                .map(|path| (path.clone(), ProfileAccumulator::new())),
            command: command.to_string(),
            seed,
            stopwatch: Stopwatch::start(),
        }
    }

    /// The hooks the campaign driver reports every run through.
    pub fn hooks(&self) -> CampaignHooks<'_> {
        CampaignHooks {
            recorder: self.sender.as_ref(),
            progress: self.progress.as_ref(),
            profile: self.profile.as_ref().map(|(_, acc)| acc),
        }
    }

    /// Finish the progress line, canonicalize the manifest (in timing
    /// mode the pool's accounting goes in as the final record), and write
    /// the merged profile document.
    pub fn close(self) {
        if let Some(progress) = &self.progress {
            progress.finish();
        }
        drop(self.sender);
        if let Some(recorder) = self.recorder {
            let pool = self
                .timing
                .then(|| PoolRecord::from_stats(&rayon::pool_stats()));
            if let Err(e) = recorder.close(pool.as_ref()) {
                eprintln!("cannot finalize campaign manifest: {e}");
                std::process::exit(2);
            }
        }
        let Some((path, acc)) = self.profile else {
            return;
        };
        let merged = acc.merged();
        // Host timing and allocator counters are volatile (worker-count
        // and host dependent), so they are gated exactly like the
        // manifest's wall-clock fields: only present in timing mode.
        let timing = self.timing.then(|| {
            self.stopwatch
                .timing(merged.engine.events_processed, false, Vec::new())
        });
        write_profile(
            Some(&path),
            &self.command,
            self.seed,
            acc.runs(),
            &merged,
            timing,
        );
    }
}

/// The start of a profiled stretch: the wall clock and the allocator
/// counters its document's volatile sections are measured from.
pub struct Stopwatch {
    wall: Instant,
    heap: heap::AllocSnapshot,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            heap: heap::snapshot(),
        }
    }

    /// The host timing since the start, with the allocator section over
    /// `events` engine events. `sequential` marks a single-threaded
    /// harness, whose attributed time tiles the wall clock.
    pub fn timing(&self, events: u64, sequential: bool, run_walls: Vec<f64>) -> TimingInputs {
        let total_wall_secs = self.wall.elapsed().as_secs_f64();
        let delta = heap::snapshot().since(&self.heap);
        TimingInputs {
            total_wall_secs,
            sequential,
            run_walls,
            alloc: Some(AllocSection {
                allocs: delta.allocs,
                bytes_allocated: delta.bytes_allocated,
                peak_bytes: delta.peak_bytes,
                allocs_per_event: if events > 0 {
                    delta.allocs as f64 / events as f64
                } else {
                    0.0
                },
            }),
        }
    }
}

/// Build the `aimes-profile-v1` document of `report` over `runs` runs,
/// validate it, and write it to `path` (when given), reporting the write
/// on stderr. Without `timing` the document is deterministic. An invalid
/// document or a failed write exits 2.
pub fn write_profile(
    path: Option<&Path>,
    command: &str,
    seed: u64,
    runs: u64,
    report: &ProfileReport,
    timing: Option<TimingInputs>,
) -> ProfileDoc {
    let doc = ProfileDoc::build(command, seed, runs, report, timing);
    if let Err(e) = doc.validate() {
        eprintln!("internal error: produced invalid profile doc: {e}");
        std::process::exit(2);
    }
    if let Some(path) = path {
        let json = serde_json::to_string_pretty(&doc).expect("profile doc serializes");
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("cannot write profile doc {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote profile doc {}", path.display());
    }
    doc
}
