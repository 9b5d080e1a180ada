//! `campaign` and `plan`: batch-scheduled campaigns of workflow jobs.
//!
//! * `campaign` — 200 seeded SWarp/1000Genomes jobs, 0.2 s mean
//!   interarrival, BB requests scaled to 0.05, at most 2 nodes each, on
//!   256-node striped Cori under `bb-aware` (the `parallel_scaling`
//!   shape): many concurrent flows over a few shared routes, so the
//!   engine's solve and the scheduler's admission do the work.
//! * `plan` — the oversubscribed 20-job draw of `tests/snapshot.rs`
//!   (15 s mean interarrival, 2× BB pressure, up to 8 nodes) on 8-node
//!   striped Cori under `plan`: forks and speculative rollouts dominate.
//!
//! Both use the default campaign configuration otherwise. One round is
//! one campaign; it is one operation.

use std::collections::BTreeMap;
use std::time::Instant;

use wfbb_platform::{presets, BbMode};
use wfbb_sched::{
    parse_workload, run_campaign, synthetic_jobs, BatchPolicy, CampaignConfig, CampaignReport,
    CampaignSim, DecisionRecord, JobSpec, JobStatus, SchedProfile, SyntheticConfig,
    BOUNDED_SLOWDOWN_TAU,
};
use wfbb_simcore::EngineCounters;

use crate::harness::{self, close, Args, Checks, Outcome, RoundOut};
use crate::seed::SplitMix;
use crate::trace::Tracer;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Large `bb-aware` campaign.
    Campaign,
    /// Oversubscribed `plan` campaign.
    Plan,
}

/// Seed of the `plan` workload's draw (the one `tests/snapshot.rs` uses).
const PLAN_DRAW_SEED: u64 = 1;

/// Seed of the warm-up campaign's draw.
const WARM_UP_SEED: u64 = 0x5741_524d;

/// Traced `plan` rounds time `CampaignSim::fork` every this many steps.
const FORK_EVERY: usize = 250;

/// The job classes of `wfbb_sched::synthetic_jobs`: workflow, nodes,
/// base BB request (bytes) and walltime estimate (s).
const CLASSES: [(&str, usize, f64, f64); 4] = [
    ("swarp:1:8", 1, 1.28e12, 600.0),
    ("swarp:2:8", 2, 2.56e12, 600.0),
    ("genomes:2", 2, 5.12e12, 2400.0),
    ("genomes:4", 4, 8.96e12, 3600.0),
];

struct Shape {
    jobs: usize,
    nodes: usize,
    policy: BatchPolicy,
    mean_interarrival: f64,
    bb_request_scale: f64,
    max_nodes: usize,
}

fn shape(kind: Kind, jobs: usize) -> Shape {
    match kind {
        Kind::Campaign => Shape {
            jobs,
            nodes: 256,
            policy: BatchPolicy::BbAware,
            mean_interarrival: 0.2,
            bb_request_scale: 0.05,
            max_nodes: 2,
        },
        Kind::Plan => Shape {
            jobs,
            nodes: 8,
            policy: BatchPolicy::Plan,
            mean_interarrival: 15.0,
            bb_request_scale: 2.0,
            max_nodes: 8,
        },
    }
}

/// A seeded campaign drawn like `synthetic_jobs` (exponential
/// interarrivals, BB requests jittered ±25 % around the class base), but
/// stratified: every class appears equally often, in seeded order, so
/// the campaign's cost does not swing with the class mix of the draw.
/// It reaches the program as workload-file text.
fn stratified_jobs(rng: &mut SplitMix, shape: &Shape) -> Vec<JobSpec> {
    let mut classes: Vec<usize> = (0..shape.jobs).map(|i| i % CLASSES.len()).collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut text = String::new();
    let mut t = 0.0;
    for (i, &c) in classes.iter().enumerate() {
        let (spec, nodes, bb, walltime) = CLASSES[c];
        t += -(1.0 - rng.unit()).ln() * shape.mean_interarrival;
        let bb = bb * shape.bb_request_scale * (0.75 + 0.5 * rng.unit());
        text.push_str(&format!(
            "workflow={spec} nodes={} bb={bb} walltime={walltime} submit={t} name=j{i:03}\n",
            nodes.min(shape.max_nodes)
        ));
    }
    parse_workload(&text).expect("generated workload parses")
}

fn config(shape: &Shape) -> CampaignConfig {
    CampaignConfig::new(presets::cori(shape.nodes, BbMode::Striped))
        .with_policy(shape.policy)
        .with_platform_label("cori:striped")
}

/// Generated inputs.
struct State {
    kind: Kind,
    config: CampaignConfig,
    jobs: Vec<JobSpec>,
    build_s: f64,
}

fn setup(kind: Kind, seed: u64) -> State {
    let mut rng = SplitMix::new(seed);
    let (jobs, warm_jobs) = match kind {
        Kind::Campaign => (200, 32),
        Kind::Plan => (20, 8),
    };
    let full = shape(kind, jobs);
    let build = Instant::now();
    let jobs = match kind {
        Kind::Campaign => stratified_jobs(&mut rng, &full),
        // The 20-job draw `tests/snapshot.rs` pins plan's win on. It is
        // the same for every seed: plan's cost swings ±20 % between
        // draws, more than any bound could absorb.
        Kind::Plan => synthetic_jobs(
            PLAN_DRAW_SEED,
            &SyntheticConfig {
                jobs: full.jobs,
                mean_interarrival: full.mean_interarrival,
                bb_request_scale: full.bb_request_scale,
                max_nodes: full.max_nodes,
            },
        )
        .expect("synthetic campaign draws"),
    };
    let build_s = build.elapsed().as_secs_f64();
    // Warm-up pass: a short campaign of the same shape on a fixed draw,
    // so set-up time does not depend on the seed.
    let warm = shape(kind, warm_jobs);
    let warm_jobs = stratified_jobs(&mut SplitMix::new(WARM_UP_SEED), &warm);
    run_campaign(&config(&warm), &warm_jobs).expect("warm-up campaign runs");
    State {
        kind,
        config: config(&full),
        jobs,
        build_s,
    }
}

/// Raw outputs of one campaign.
struct Raw {
    report: Option<CampaignReport>,
    profile: SchedProfile,
    counters: EngineCounters,
    plan_searches: usize,
    plan_changed: usize,
}

fn campaign(st: &State, tr: &mut Tracer, id: u64) -> Result<Raw, String> {
    let traced = tr.enabled();
    // The decision log is what tells whether a plan search changed the
    // order; it never changes report bytes, so traced rounds turn it on.
    let logged;
    let config = if traced && st.kind == Kind::Plan {
        logged = st.config.clone().with_decision_log(true);
        &logged
    } else {
        &st.config
    };
    let mut sim = CampaignSim::new(config, &st.jobs).map_err(|e| e.to_string())?;
    let mut steps = 0usize;
    loop {
        let start = Instant::now();
        let more = sim.step().map_err(|e| e.to_string())?;
        if traced {
            tr.sample("scheduler.step_us", start.elapsed().as_secs_f64() * 1e6);
            steps += 1;
            if st.kind == Kind::Plan && steps.is_multiple_of(FORK_EVERY) {
                let fork = tr.span("scheduler.fork", id, || sim.fork());
                drop(fork);
            }
        }
        if !more {
            break;
        }
    }
    let (mut plan_searches, mut plan_changed) = (0, 0);
    for record in sim.decision_log().records() {
        if let DecisionRecord::PlanChoice { winner, .. } = record {
            plan_searches += 1;
            plan_changed += usize::from(*winner != "arrival");
        }
    }
    let profile = sim.profile();
    let counters = sim.counters();
    let report = sim.finish().map_err(|e| e.to_string())?;
    Ok(Raw {
        report: Some(report),
        profile,
        counters,
        plan_searches,
        plan_changed,
    })
}

fn round(st: &State, tr: &mut Tracer, id: u64) -> RoundOut<Raw> {
    let start = Instant::now();
    let result = tr.span_with("scheduler.campaign", id, |tr| campaign(st, tr, id));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(raw) => RoundOut {
            ops: 1,
            failed: 0,
            cold_ms: vec![ms],
            payload: raw,
        },
        Err(e) => {
            eprintln!("campaign failed: {e}");
            RoundOut {
                ops: 1,
                failed: 1,
                cold_ms: Vec::new(),
                payload: Raw {
                    report: None,
                    profile: SchedProfile::default(),
                    counters: EngineCounters::default(),
                    plan_searches: 0,
                    plan_changed: 0,
                },
            }
        }
    }
}

/// What the checks keep of a campaign.
struct Digest {
    json: Option<String>,
    mean_bsld: f64,
    blocked_on_bb: f64,
    blocked_on_nodes: f64,
    bb_utilization: f64,
    profile: SchedProfile,
    counters: EngineCounters,
    plan_searches: usize,
    plan_changed: usize,
}

/// Mean bounded slowdown (τ = 10 s) over the jobs that were admitted,
/// recomputed from submit, start and end.
fn mean_bsld(report: &CampaignReport) -> f64 {
    let ran: Vec<f64> = report
        .jobs
        .iter()
        .filter(|j| j.status != JobStatus::Rejected)
        .map(|j| {
            let run = j.end - j.start;
            ((j.end - j.submit) / run.max(BOUNDED_SLOWDOWN_TAU)).max(1.0)
        })
        .collect();
    ran.iter().sum::<f64>() / ran.len().max(1) as f64
}

fn check_report(report: &CampaignReport, checks: &mut Checks) {
    for j in &report.jobs {
        checks.expect(j.status == JobStatus::Completed, || {
            format!("job {} ended {}", j.name, j.status.label())
        });
        checks.expect(j.start >= j.submit && j.end >= j.start, || {
            format!(
                "job {}: submit {} start {} end {}",
                j.name, j.submit, j.start, j.end
            )
        });
        let blocked = j.blocked_on_nodes + j.blocked_on_bb + j.blocked_on_reservation;
        checks.expect(close(blocked, j.wait, 1e-9), || {
            format!(
                "job {}: blocked terms sum to {blocked}, wait {}",
                j.name, j.wait
            )
        });
        checks.expect(close(j.wait, j.start - j.submit, 1e-9), || {
            format!("job {}: wait {} is not start − submit", j.name, j.wait)
        });
    }
    for s in &report.utilization {
        checks.expect(s.busy_nodes <= report.total_nodes, || {
            format!(
                "{} busy nodes of {} at t={}",
                s.busy_nodes, report.total_nodes, s.time
            )
        });
        checks.expect(
            s.bb_reserved <= report.bb_pool_bytes * (1.0 + 1e-12),
            || {
                format!(
                    "{} BB bytes reserved of {} at t={}",
                    s.bb_reserved, report.bb_pool_bytes, s.time
                )
            },
        );
    }
    checks.expect(
        close(report.bb_pool_free_end, report.bb_pool_bytes, 1e-9),
        || {
            format!(
                "BB pool ends at {} of {}",
                report.bb_pool_free_end, report.bb_pool_bytes
            )
        },
    );
    let recomputed = mean_bsld(report);
    checks.expect(
        close(recomputed, report.mean_bounded_slowdown, 1e-9),
        || {
            format!(
                "mean bsld {} recomputes to {recomputed}",
                report.mean_bounded_slowdown
            )
        },
    );
}

fn digest(raw: Raw, checks: &mut Checks) -> Digest {
    let mut d = Digest {
        json: None,
        mean_bsld: 0.0,
        blocked_on_bb: 0.0,
        blocked_on_nodes: 0.0,
        bb_utilization: 0.0,
        profile: raw.profile,
        counters: raw.counters,
        plan_searches: raw.plan_searches,
        plan_changed: raw.plan_changed,
    };
    if let Some(report) = raw.report {
        check_report(&report, checks);
        d.mean_bsld = mean_bsld(&report);
        d.blocked_on_bb = report.blocked_on_bb_total;
        d.blocked_on_nodes = report.blocked_on_nodes_total;
        d.bb_utilization = report.bb_utilization;
        d.json = Some(report.to_json());
    }
    d
}

/// Runs the workload.
pub fn run(args: &Args, kind: Kind) -> Outcome {
    let (setup_s, st) = harness::setup_median(|| setup(kind, args.seed));
    let mut id = 0;
    let mut checks = Checks::default();
    let rounds = harness::measure(
        args.seconds,
        args.trace,
        |tr| {
            id += 1;
            round(&st, tr, id)
        },
        |raw| digest(raw, &mut checks),
    );
    let first = rounds
        .all()
        .next()
        .expect("at least one round")
        .payload
        .json
        .clone();
    for r in rounds.all() {
        checks.expect(r.payload.json == first, || {
            "campaign reports differ between rounds of the same inputs".to_string()
        });
    }
    let bsld = rounds
        .all()
        .next()
        .expect("at least one round")
        .payload
        .mean_bsld;
    if kind == Kind::Plan {
        // Lookahead must not lose to greedy BB-aware backfilling on the
        // same jobs (run outside the timed phase).
        let greedy = st.config.clone().with_policy(BatchPolicy::BbAware);
        let greedy = run_campaign(&greedy, &st.jobs).expect("bb-aware campaign runs");
        let greedy_bsld = mean_bsld(&greedy);
        eprintln!("plan: mean bsld {bsld} vs bb-aware {greedy_bsld}");
        checks.expect(bsld <= greedy_bsld * (1.0 + 1e-9), || {
            format!("plan mean bsld {bsld} is worse than bb-aware {greedy_bsld}")
        });
    } else {
        eprintln!("campaign: mean bsld {bsld}");
    }

    let metrics = if args.trace {
        let n = rounds.traced_rounds();
        let t = &rounds.tracer;
        let s = |f: fn(&SchedProfile) -> u64| {
            rounds
                .traced
                .iter()
                .map(|(_, r)| f(&r.payload.profile) as f64)
                .sum::<f64>()
                / n
                / 1e9
        };
        let last = &rounds.traced.last().expect("traced round").1.payload;
        let c = &last.counters;
        let solve_s = s(|p| p.solve_ns);
        let mut m = BTreeMap::from([
            ("workloads.build_s", st.build_s),
            ("simcore.events", c.events as f64),
            ("simcore.solves", c.solves as f64),
            (
                "simcore.ns_per_event",
                harness::ratio(solve_s * 1e9, c.events as f64),
            ),
            (
                "simcore.stale_pop_ratio",
                harness::ratio(c.heap_stale as f64, c.heap_pops as f64),
            ),
            (
                "simcore.groups_per_solve",
                harness::ratio(c.solver_groups as f64, c.solves as f64),
            ),
            (
                "simcore.reuse_ratio",
                harness::ratio(c.components_reused as f64, c.components as f64),
            ),
            ("scheduler.solve_s", solve_s),
            ("scheduler.admit_s", s(|p| p.admit_ns)),
            ("scheduler.log_s", s(|p| p.log_ns)),
            ("scheduler.plan_s", s(|p| p.plan_ns)),
            ("scheduler.plan_forks", last.profile.plan_forks as f64),
            (
                "scheduler.step_us_p50",
                harness::median(t.samples("scheduler.step_us")),
            ),
            (
                "scheduler.fork_ms",
                harness::median(&t.durations_s("scheduler.fork")) * 1e3,
            ),
            (
                "scheduler.plan_changed_ratio",
                harness::ratio(last.plan_changed as f64, last.plan_searches as f64),
            ),
            ("scheduler.blocked_on_bb_s", last.blocked_on_bb),
            ("scheduler.blocked_on_nodes_s", last.blocked_on_nodes),
            ("scheduler.mean_bsld", last.mean_bsld),
            (
                "scheduler.self_s",
                t.self_times()
                    .get("scheduler.campaign")
                    .copied()
                    .unwrap_or(0.0)
                    / n,
            ),
            ("storage.bb_utilization", last.bb_utilization),
        ]);
        harness::trace_metrics(&rounds, &mut m);
        m
    } else {
        harness::end_to_end(setup_s, &rounds)
    };
    harness::finish(args, &rounds, checks, metrics)
}
