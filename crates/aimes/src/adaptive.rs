//! Dynamic (adaptive) execution — the paper's §V future work: "we will
//! also study dynamic execution where application strategies change during
//! execution to maintain the coupling between dynamic workloads and
//! dynamic resources."
//!
//! The adaptive runner starts with a base late-binding strategy and
//! *revises it while it runs*: if no pilot has become active within a
//! patience window, it consults the bundle again (with information from
//! `now`, not from submission time) and submits reinforcement pilots on
//! the best currently-unused resources. Late binding makes this seamless —
//! queued units simply flow to whichever pilot activates first, original
//! or reinforcement.

use crate::middleware::{MiddlewareFact, RunError, RunOptions, RunWorld};
use crate::ttc::TtcBreakdown;
use aimes_bundle::{Bundle, QueryMode};
use aimes_cluster::ClusterConfig;
use aimes_pilot::{Binding, PilotDescription, PilotManager, PilotState};
use aimes_sim::{SimDuration, Simulation};
use aimes_skeleton::SkeletonConfig;
use aimes_strategy::ExecutionStrategy;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

/// Adaptation policy.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// The initial strategy (must be late binding for reinforcements to
    /// be useful; an early-binding base is refused as unplannable).
    pub base: ExecutionStrategy,
    /// How long to wait for the first activation before reinforcing.
    pub patience: SimDuration,
    /// Pilots added per reinforcement round.
    pub reinforce_by: u32,
    /// Maximum reinforcement rounds.
    pub max_rounds: u32,
}

impl AdaptiveConfig {
    /// A sensible default: start with `k` pilots, after 15 minutes of no
    /// activation add one pilot per round, up to two rounds.
    #[cfg(test)]
    pub fn patient(base: ExecutionStrategy) -> Self {
        AdaptiveConfig {
            base,
            patience: SimDuration::from_mins(15.0),
            reinforce_by: 1,
            max_rounds: 2,
        }
    }
}

/// Outcome of an adaptive run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptiveRunResult {
    pub breakdown: TtcBreakdown,
    pub initial_resources: Vec<String>,
    pub reinforcement_resources: Vec<String>,
    pub reinforcement_rounds: u32,
    pub units_done: usize,
    pub units_failed: usize,
}

/// Execute with in-flight strategy revision: the middleware's own run
/// phases (build, plan, enact, arm recovery, drive) with the patience
/// check armed before the drive, so every [`RunOptions`] field means here
/// what it means to [`crate::middleware::run_application`].
pub fn run_adaptive(
    resources: &[ClusterConfig],
    app_config: &SkeletonConfig,
    config: &AdaptiveConfig,
    options: &RunOptions,
) -> Result<AdaptiveRunResult, RunError> {
    if config.base.binding != Binding::Late {
        return Err(RunError::Unplannable(format!(
            "adaptive reinforcement requires late binding, but the base strategy {} binds early",
            config.base.label()
        )));
    }
    let mut world = RunWorld::build(resources, app_config, &config.base, options)?;
    let plan = world.plan()?;
    let crew = world.enact(&plan)?;
    world.arm_recovery();

    // The adaptation loop: periodic patience checks.
    let reinforcer = Rc::new(Reinforcer {
        pm: crew.pm.clone(),
        bundle: world.bundle.clone(),
        config: config.clone(),
        cores: plan.pilots[0].cores,
        walltime: plan.pilots[0].walltime,
        added: RefCell::default(),
        rounds: Cell::default(),
    });
    schedule_patience_check(&mut world.sim, reinforcer.clone());

    let finished_at = world.drive()?;
    let run = world.assemble(plan.resources, finished_at);
    Ok(AdaptiveRunResult {
        breakdown: run.breakdown,
        initial_resources: run.resources_used,
        reinforcement_resources: reinforcer.added.take(),
        reinforcement_rounds: reinforcer.rounds.get(),
        units_done: run.units_done,
        units_failed: run.units_failed,
    })
}

/// The patience check's state: the pilot manager it reinforces, the
/// bundle it re-ranks with, and what it has added so far. Reinforcement
/// pilots take the shape of the base plan's first pilot.
struct Reinforcer {
    pm: PilotManager,
    bundle: Rc<RefCell<Bundle>>,
    config: AdaptiveConfig,
    cores: u32,
    walltime: SimDuration,
    added: RefCell<Vec<String>>,
    rounds: Cell<u32>,
}

/// Check again after the patience window, and keep watching until a
/// pilot activates, the run is over or the round budget is spent.
fn schedule_patience_check(sim: &mut Simulation, r: Rc<Reinforcer>) {
    sim.schedule_in(r.config.patience, move |sim| {
        if r.check(sim) {
            schedule_patience_check(sim, r);
        }
    });
}

impl Reinforcer {
    /// One patience check; returns whether to keep watching.
    fn check(&self, sim: &mut Simulation) -> bool {
        let used: HashSet<String> = {
            let pilots = self.pm.pilots_ref();
            let any_active = pilots
                .iter()
                .any(|p| p.state == PilotState::Active || p.time_of(PilotState::Active).is_some());
            let all_terminal = pilots.iter().all(|p| p.state.is_terminal());
            if any_active || all_terminal || self.rounds.get() >= self.config.max_rounds {
                return false;
            }
            // Re-rank with *current* information, excluding resources
            // that already host one of our pilots.
            pilots
                .iter()
                .map(|p| p.description.resource.clone())
                .collect()
        };
        self.rounds.set(self.rounds.get() + 1);
        let ranked = self.bundle.borrow_mut().rank_by_setup_time(
            sim.now(),
            self.cores,
            self.walltime,
            QueryMode::OnDemand,
        );
        let fresh: Vec<String> = ranked
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| !used.contains(name))
            .take(self.config.reinforce_by as usize)
            .collect();
        if !fresh.is_empty() {
            sim.emit(&MiddlewareFact::Reinforce(&fresh));
            let descs: Vec<PilotDescription> = fresh
                .iter()
                .map(|r| PilotDescription::new(r.clone(), self.cores, self.walltime))
                .collect();
            self.added.borrow_mut().extend(fresh);
            self.pm.submit(sim, descs);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimes_cluster::ClusterConfig;
    use aimes_sim::SimTime;
    use aimes_skeleton::{paper_bag, TaskDurationSpec};
    use aimes_strategy::{PilotSizing, ResourceSelection};

    fn opts(seed: u64) -> RunOptions {
        RunOptions {
            seed,
            submit_at: SimTime::from_secs(600.0),
            ..Default::default()
        }
    }

    /// A pool where the initially chosen resource is hopeless (fully
    /// occupied for a long time) but another is idle.
    fn skewed_pool() -> Vec<ClusterConfig> {
        let mut blocked = ClusterConfig::test("blocked", 256);
        // A background config with 100 % long-job load and deep backlog:
        // the queue never advances within the test horizon.
        blocked.workload = Some(aimes_workload::WorkloadConfig {
            target_utilization: 1.2,
            size_dist: aimes_workload::Distribution::Constant { value: 256.0 },
            runtime_dist: aimes_workload::Distribution::Constant { value: 1e6 },
            overestimate_dist: aimes_workload::Distribution::Constant { value: 1.0 },
            diurnal_amplitude: 0.0,
        });
        blocked.initial_backlog_factor = 3.0;
        vec![blocked, ClusterConfig::test("open", 256)]
    }

    fn pinned_strategy(resource: &str) -> ExecutionStrategy {
        let mut s = ExecutionStrategy::paper_late(2);
        s.pilot_count = 1;
        s.sizing = PilotSizing::Fixed(16);
        s.selection = ResourceSelection::Fixed(vec![resource.to_string()]);
        s
    }

    #[test]
    fn reinforcement_rescues_a_stuck_run() {
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("blocked"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 2,
        };
        let r = run_adaptive(&skewed_pool(), &app, &config, &opts(4)).unwrap();
        assert_eq!(r.units_done, 16);
        assert!(r.reinforcement_rounds >= 1);
        assert!(r.reinforcement_resources.contains(&"open".to_string()));
        // The rescue bounded TTC to roughly patience + execution.
        assert!(
            r.breakdown.ttc.as_secs() < 3600.0,
            "ttc {:?}",
            r.breakdown.ttc
        );
    }

    #[test]
    fn no_reinforcement_when_pilot_activates_quickly() {
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("open"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 2,
        };
        let r = run_adaptive(&skewed_pool(), &app, &config, &opts(5)).unwrap();
        assert_eq!(r.units_done, 16);
        assert_eq!(r.reinforcement_rounds, 0);
        assert!(r.reinforcement_resources.is_empty());
    }

    #[test]
    fn rounds_are_bounded() {
        // Both resources hopeless: adaptation must stop at max_rounds and
        // the run must surface an error, not spin.
        let mut pool = skewed_pool();
        pool[1] = pool[0].clone();
        pool[1].name = "blocked2".into();
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("blocked"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 3,
        };
        let opts = RunOptions {
            seed: 6,
            submit_at: SimTime::from_secs(600.0),
            deadline: SimDuration::from_hours(6.0),
            ..Default::default()
        };
        let err = run_adaptive(&pool, &app, &config, &opts).unwrap_err();
        assert!(err.contains("deadline") || err.contains("drained"), "{err}");
    }

    #[test]
    fn invalid_info_config_is_rejected_up_front() {
        let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig::patient(pinned_strategy("open"));
        let mut o = opts(8);
        o.info.hot_pool_k = 0;
        let err = run_adaptive(&skewed_pool(), &app, &config, &o).unwrap_err();
        assert!(err.contains("invalid info config"), "{err}");
    }

    #[test]
    fn early_binding_rejected() {
        let app = paper_bag(8, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig::patient(ExecutionStrategy::paper_early());
        let err = run_adaptive(&skewed_pool(), &app, &config, &opts(7)).unwrap_err();
        assert!(matches!(err, RunError::Unplannable(_)), "{err:?}");
        assert!(
            err.to_string()
                .starts_with("adaptive reinforcement requires late binding"),
            "{err}"
        );
    }

    #[test]
    fn journal_option_records_the_whole_run() {
        use crate::journal::{JournalEvent, RunJournal};
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("blocked"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 2,
        };
        let journal = Rc::new(RefCell::new(RunJournal::new()));
        let o = RunOptions {
            journal: Some(journal.clone()),
            ..opts(4)
        };
        let r = run_adaptive(&skewed_pool(), &app, &config, &o).unwrap();
        assert!(r.reinforcement_rounds >= 1);
        let j = journal.borrow();
        assert!(j.verify().is_ok());
        let entries = j.entries();
        assert!(matches!(
            &entries[0].event,
            JournalEvent::RunStarted {
                seed: 4,
                n_tasks: 16,
                ..
            }
        ));
        match &entries.last().unwrap().event {
            JournalEvent::RunFinished { ttc_secs } => {
                assert_eq!(*ttc_secs, r.breakdown.ttc.as_secs())
            }
            other => panic!("last entry is {other:?}, not RunFinished"),
        }
        // The reinforcement pilot's transitions are journaled too.
        assert!(entries.iter().any(|e| matches!(
            &e.event,
            JournalEvent::PilotTransition { resource, .. } if resource == "open"
        )));
    }

    #[test]
    fn telemetry_option_gets_pilot_and_unit_spans() {
        use aimes_sim::Telemetry;
        let app = paper_bag(16, TaskDurationSpec::Uniform15Min);
        let config = AdaptiveConfig {
            base: pinned_strategy("blocked"),
            patience: SimDuration::from_mins(10.0),
            reinforce_by: 1,
            max_rounds: 2,
        };
        let telemetry = Telemetry::new();
        let o = RunOptions {
            telemetry: Some(telemetry.clone()),
            ..opts(4)
        };
        let r = run_adaptive(&skewed_pool(), &app, &config, &o).unwrap();
        assert_eq!(r.units_done, 16);
        let spans = telemetry.spans();
        // Both the stuck original pilot and the reinforcement get a span;
        // the units ran on the reinforcement.
        for resource in ["blocked", "open"] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.category == "pilot" && s.track == resource),
                "no pilot span on {resource}"
            );
        }
        assert!(spans
            .iter()
            .any(|s| s.category == "unit" && s.track == "open"));
    }
}
