//! `paper`: the paper's own use of the simulator, run serially.
//!
//! One round is the Fig 10 staged-fraction and Fig 11 pipeline
//! validation sweeps (simulator plus measurement emulator, 5 emulated
//! repetitions per point as in the figure binaries), the Fig 13/14
//! 1000Genomes staged-fraction sweeps on Cori-private and Summit, and
//! four SWarp/Cori-striped runs with a checkpoint policy and seeded task
//! kills. Every single simulator or emulator run is one operation.

use std::collections::BTreeMap;
use std::time::Instant;

use wfbb_calibration::{mean_absolute_percentage_error, Emulator, EmulatorConfig};
use wfbb_platform::{presets, BbArchitecture, BbMode, PlatformSpec};
use wfbb_storage::PlacementPolicy;
use wfbb_wms::{
    CheckpointPolicy, CheckpointTier, EngineCounters, FaultSpec, SimulationBuilder,
    SimulationReport, TelemetryConfig,
};
use wfbb_workflow::Workflow;
use wfbb_workloads::{GenomesConfig, SwarpConfig};

use crate::harness::{self, close, Args, Checks, Outcome, RoundOut};
use crate::seed::SplitMix;
use crate::trace::Tracer;

/// Emulated repetitions per validation point (the figure binaries' count).
const REPS: u64 = 5;
/// Fig 10 staged fractions.
const FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Fig 11 pipeline counts.
const PIPELINES: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Fig 13 compute nodes.
const GENOMES_NODES: usize = 4;
/// Error bands per configuration, as `tests/validation_accuracy.rs`
/// allows them: Fig 10 private / striped / on-node, then Fig 11.
const FIG10_BAND: [f64; 3] = [20.0, 30.0, 20.0];
const FIG11_BAND: f64 = 40.0;

/// Table I of the paper: per-core speed (GFlop/s), then per-device BB
/// and PFS bandwidths (B/s) as `min(network, disk)`.
struct TableI {
    gflops: f64,
    bb_bw: f64,
    pfs_bw: f64,
}
const CORI: TableI = TableI {
    gflops: 36.80,
    bb_bw: 800e6,
    pfs_bw: 100e6,
};
const SUMMIT: TableI = TableI {
    gflops: 49.12,
    bb_bw: 3.3e9,
    pfs_bw: 100e6,
};

/// A platform of the paper with its Table I row.
struct Config {
    label: &'static str,
    platform: PlatformSpec,
    table: &'static TableI,
}

/// The paper's platforms (`presets::paper_configs`), each with its
/// Table I row: Summit's for the on-node BB, Cori's for the shared ones.
fn paper_configs(nodes: usize) -> Vec<Config> {
    presets::paper_configs(nodes)
        .into_iter()
        .map(|platform| Config {
            label: platform.bb.label(),
            table: if platform.bb == BbArchitecture::OnNode {
                &SUMMIT
            } else {
                &CORI
            },
            platform,
        })
        .collect()
}

fn fraction(f: f64) -> PlacementPolicy {
    PlacementPolicy::FractionToBb { fraction: f }
}

/// One checkpointed, fault-injected SWarp run.
struct Resilient {
    tier: CheckpointTier,
    interval: f64,
    faults: FaultSpec,
}

/// Generated inputs.
pub struct State {
    emulator: Emulator,
    configs: Vec<Config>,
    swarp1: Workflow,
    swarp_pipelines: Vec<Workflow>,
    genomes: Workflow,
    genomes_configs: Vec<Config>,
    resilience_platform: PlatformSpec,
    resilience_workflow: Workflow,
    resilient: Vec<Resilient>,
    build_s: f64,
}

fn setup(seed: u64) -> State {
    let mut rng = SplitMix::new(seed);
    let build = Instant::now();
    let swarp1 = SwarpConfig::new(1).build();
    let swarp_pipelines: Vec<Workflow> = PIPELINES
        .iter()
        .map(|&p| SwarpConfig::new(p).with_cores_per_task(1).build())
        .collect();
    let genomes = GenomesConfig::paper_instance().build();
    let resilience_workflow = SwarpConfig::new(2).with_cores_per_task(8).build();
    let build_s = build.elapsed().as_secs_f64();

    // Kill each pipeline's resample task once, at a seeded instant of its
    // compute phase in the fault-free run; checkpoint three times per
    // compute phase, so the retry restores from an image.
    let resilience_platform = presets::cori(1, BbMode::Striped);
    let baseline = SimulationBuilder::new(resilience_platform.clone(), resilience_workflow.clone())
        .placement(PlacementPolicy::AllBb)
        .run()
        .expect("fault-free SWarp baseline runs");
    let mut resilient = Vec::new();
    for tier in [CheckpointTier::Bb, CheckpointTier::Pfs] {
        for _ in 0..2 {
            let mut kills = Vec::new();
            let mut interval = f64::INFINITY;
            for task in ["resample_0", "resample_1"] {
                let t = baseline
                    .task_by_name(task)
                    .expect("SWarp has resample tasks");
                let (from, to) = (t.read_end.seconds(), t.compute_end.seconds());
                interval = interval.min((to - from) / 3.0);
                kills.push(format!("task:{task}@{}", from + rng.unit() * (to - from)));
            }
            resilient.push(Resilient {
                tier,
                interval,
                faults: FaultSpec::parse(&kills.join(",")).expect("generated fault spec parses"),
            });
        }
    }

    let state = State {
        emulator: Emulator::new(EmulatorConfig {
            seed: rng.next(),
            ..EmulatorConfig::default()
        }),
        configs: paper_configs(1),
        swarp1,
        swarp_pipelines,
        genomes,
        genomes_configs: paper_configs(GENOMES_NODES)
            .into_iter()
            .filter(|c| c.label != "striped")
            .collect(),
        resilience_platform,
        resilience_workflow,
        resilient,
        build_s,
    };
    // Warm-up pass: one simulator and one emulator run per configuration
    // and three 1000Genomes runs per platform, so the timed rounds start
    // warm.
    for c in &state.configs {
        let _ = simulate(&c.platform, &state.swarp1, &fraction(0.5), false);
        let _ = state
            .emulator
            .run(&c.platform, &state.swarp1, &fraction(0.5), 0);
    }
    for c in &state.genomes_configs {
        for f in [0.0, 0.5, 1.0] {
            let _ = simulate(&c.platform, &state.genomes, &fraction(f), false);
        }
    }
    state
}

fn simulate(
    platform: &PlatformSpec,
    workflow: &Workflow,
    placement: &PlacementPolicy,
    counters: bool,
) -> Result<SimulationReport, String> {
    let mut b =
        SimulationBuilder::new(platform.clone(), workflow.clone()).placement(placement.clone());
    if counters {
        // Engine counters come with the telemetry snapshot; traced rounds
        // pay for the sampling, which shows in `trace.overhead_s`.
        b = b.telemetry(TelemetryConfig::enabled());
    }
    b.run().map_err(|e| e.to_string())
}

/// Which figure a simulator run belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Figure {
    Fig10,
    Fig11,
    Fig13,
    Resilience,
}

/// A simulator report with where it came from.
struct Run {
    figure: Figure,
    config: usize,
    point: usize,
    report: SimulationReport,
}

/// Raw outputs of one round.
pub struct Raw {
    runs: Vec<Run>,
    /// Mean emulated makespan per (figure, config, point).
    measured: BTreeMap<(u8, usize, usize), f64>,
}

fn round(st: &State, tr: &mut Tracer) -> RoundOut<Raw> {
    let counters = tr.enabled();
    let mut out = RoundOut {
        ops: 0,
        failed: 0,
        cold_ms: Vec::new(),
        payload: Raw {
            runs: Vec::new(),
            measured: BTreeMap::new(),
        },
    };
    let mut id = 0u64;
    let mut op = |out: &mut RoundOut<Raw>,
                  tr: &mut Tracer,
                  name: &'static str,
                  f: &mut dyn FnMut() -> Result<SimulationReport, String>| {
        id += 1;
        out.ops += 1;
        let start = Instant::now();
        let result = tr.span(name, id, f);
        match result {
            Ok(r) => {
                out.cold_ms.push(start.elapsed().as_secs_f64() * 1e3);
                Some(r)
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                out.failed += 1;
                None
            }
        }
    };

    // Fig 10 / Fig 11 validation sweeps.
    for (fig, figure) in [(10u8, Figure::Fig10), (11u8, Figure::Fig11)] {
        for (ci, c) in st.configs.iter().enumerate() {
            let points: Vec<(&Workflow, PlacementPolicy)> = if fig == 10 {
                FRACTIONS
                    .iter()
                    .map(|&f| (&st.swarp1, fraction(f)))
                    .collect()
            } else {
                st.swarp_pipelines
                    .iter()
                    .map(|wf| (wf, PlacementPolicy::AllBb))
                    .collect()
            };
            for (point, (wf, policy)) in points.into_iter().enumerate() {
                if let Some(report) = op(&mut out, tr, "wms.run", &mut || {
                    simulate(&c.platform, wf, &policy, counters)
                }) {
                    out.payload.runs.push(Run {
                        figure,
                        config: ci,
                        point,
                        report,
                    });
                }
                let mut sum = 0.0;
                for rep in 0..REPS {
                    if let Some(r) = op(&mut out, tr, "calibration.emulate", &mut || {
                        st.emulator
                            .run(&c.platform, wf, &policy, rep)
                            .map_err(|e| e.to_string())
                    }) {
                        sum += r.makespan.seconds();
                    }
                }
                out.payload
                    .measured
                    .insert((fig, ci, point), sum / REPS as f64);
            }
        }
    }

    // Fig 13/14: 1000Genomes staged-fraction sweeps.
    for (ci, c) in st.genomes_configs.iter().enumerate() {
        for point in 0..=10 {
            let policy = fraction(point as f64 / 10.0);
            if let Some(report) = op(&mut out, tr, "wms.run", &mut || {
                simulate(&c.platform, &st.genomes, &policy, counters)
            }) {
                out.payload.runs.push(Run {
                    figure: Figure::Fig13,
                    config: ci,
                    point,
                    report,
                });
            }
        }
    }

    // Checkpointed SWarp runs with seeded task kills.
    for (point, r) in st.resilient.iter().enumerate() {
        if let Some(report) = op(&mut out, tr, "resilience.run", &mut || {
            let mut b = SimulationBuilder::new(
                st.resilience_platform.clone(),
                st.resilience_workflow.clone(),
            )
            .placement(PlacementPolicy::AllBb)
            .checkpoint(CheckpointPolicy::new(r.interval, r.tier))
            .faults(r.faults.clone());
            if counters {
                b = b.telemetry(TelemetryConfig::enabled());
            }
            b.run().map_err(|e| e.to_string())
        }) {
            out.payload.runs.push(Run {
                figure: Figure::Resilience,
                config: 0,
                point,
                report,
            });
        }
    }
    out
}

/// What the checks keep of a round.
pub struct Digest {
    validation_error_pct: f64,
    fingerprint: Vec<u64>,
    bb_bytes: f64,
    wms_tasks: f64,
    checkpoints: f64,
    counters: EngineCounters,
}

fn add(total: &mut EngineCounters, c: &EngineCounters) {
    total.events += c.events;
    total.solves += c.solves;
    total.heap_pops += c.heap_pops;
    total.heap_stale += c.heap_stale;
    total.solver_groups += c.solver_groups;
    total.components += c.components;
    total.components_reused += c.components_reused;
}

/// Sequential seconds of a task on the platform's cores (Table I speed).
fn sequential_s(flops: f64, table: &TableI) -> f64 {
    flops / (table.gflops * 1e9)
}

/// Eq. (3): `α·T(1) + (1 − α)·T(1)/p`; Eq. (4) is the `α = 0` case.
fn amdahl(t1: f64, p: usize, alpha: f64) -> f64 {
    alpha * t1 + (1.0 - alpha) * t1 / p as f64
}

/// Makespan lower bounds from the workflow's flops and bytes and the
/// platform's cores and Table I bandwidths: all sequential work spread
/// over every core, the longest single task at its requested cores, and
/// every task byte moved at the combined bandwidth of the PFS and every
/// BB device.
fn lower_bound(workflow: &Workflow, platform: &PlatformSpec, table: &TableI) -> f64 {
    let cores = (platform.compute_nodes * platform.cores_per_node) as f64;
    let work: f64 = workflow
        .tasks()
        .iter()
        .map(|t| sequential_s(t.flops, table))
        .sum();
    let longest = workflow
        .tasks()
        .iter()
        .map(|t| amdahl(sequential_s(t.flops, table), t.cores, t.alpha))
        .fold(0.0, f64::max);
    let bytes: f64 = workflow
        .tasks()
        .iter()
        .flat_map(|t| t.inputs.iter().chain(&t.outputs))
        .map(|&f| workflow.file(f).size)
        .sum();
    let devices = match platform.bb {
        BbArchitecture::Shared { bb_nodes, .. } => bb_nodes,
        BbArchitecture::OnNode => platform.compute_nodes,
        BbArchitecture::None => 0,
    } as f64;
    let io = bytes / (table.pfs_bw + devices * table.bb_bw);
    (work / cores).max(longest).max(io)
}

fn digest(st: &State, raw: Raw, checks: &mut Checks) -> Digest {
    let mut d = Digest {
        validation_error_pct: 0.0,
        fingerprint: Vec::new(),
        bb_bytes: 0.0,
        wms_tasks: 0.0,
        checkpoints: 0.0,
        counters: EngineCounters::default(),
    };
    let genomes_tasks = GenomesConfig::paper_instance().task_count();
    let mut sim: BTreeMap<(u8, usize, usize), f64> = BTreeMap::new();
    let mut fig13: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for run in &raw.runs {
        let r = &run.report;
        let (workflow, config) = match run.figure {
            Figure::Fig10 => (&st.swarp1, &st.configs[run.config]),
            Figure::Fig11 => (&st.swarp_pipelines[run.point], &st.configs[run.config]),
            Figure::Fig13 => (&st.genomes, &st.genomes_configs[run.config]),
            Figure::Resilience => (&st.resilience_workflow, &st.configs[1]),
        };
        let what = || format!("{} {} point {}", r.workflow, config.label, run.point);
        d.fingerprint.push(r.makespan.seconds().to_bits());
        if let Some(t) = &r.telemetry {
            add(&mut d.counters, &t.counters);
        }
        checks.expect(r.tasks.len() == workflow.task_count(), || {
            format!(
                "{}: {} of {} tasks completed",
                what(),
                r.tasks.len(),
                workflow.task_count()
            )
        });
        if run.figure == Figure::Fig13 {
            checks.expect(r.tasks.len() == genomes_tasks, || {
                format!(
                    "{}: {} tasks, GenomesConfig says {genomes_tasks}",
                    what(),
                    r.tasks.len()
                )
            });
        }
        for t in &r.tasks {
            let sum = t.pure_compute
                + t.serialized_io
                + t.contention_wait
                + t.fault_wait
                + t.checkpoint_io;
            checks.expect(close(sum, t.duration(), 1e-9), || {
                format!(
                    "{}: task {} terms sum to {sum}, duration {}",
                    what(),
                    t.name,
                    t.duration()
                )
            });
            if run.figure != Figure::Resilience {
                checks.expect(t.checkpoint_io.to_bits() == 0, || {
                    format!(
                        "{}: task {} has checkpoint_io {} without a policy",
                        what(),
                        t.name,
                        t.checkpoint_io
                    )
                });
            }
        }
        match run.figure {
            Figure::Resilience => {
                d.checkpoints += f64::from(r.checkpoints);
                checks.expect(r.checkpoints > 0 && r.checkpoint_io_total > 0.0, || {
                    format!("{}: no checkpoint written", what())
                });
            }
            _ => {
                d.bb_bytes += r.bb_bytes;
                d.wms_tasks += r.tasks.len() as f64;
                let lb = lower_bound(workflow, &config.platform, config.table);
                checks.expect(r.makespan.seconds() >= lb * (1.0 - 1e-9), || {
                    format!(
                        "{}: makespan {} below lower bound {lb}",
                        what(),
                        r.makespan.seconds()
                    )
                });
            }
        }
        match run.figure {
            Figure::Fig10 => {
                // One pipeline: each task runs alone, so its compute phase
                // is uncontended and must take exactly Eq. (3)/(4).
                for t in &r.tasks {
                    let task = workflow
                        .task_by_name(&t.name)
                        .expect("report names workflow tasks");
                    let expect = amdahl(
                        sequential_s(task.flops, config.table),
                        task.cores,
                        task.alpha,
                    );
                    checks.expect(close(t.compute_time(), expect, 1e-9), || {
                        format!(
                            "{}: task {} computes {} s, Eq. (4) gives {expect}",
                            what(),
                            t.name,
                            t.compute_time()
                        )
                    });
                }
                sim.insert((10, run.config, run.point), r.makespan.seconds());
            }
            Figure::Fig11 => {
                sim.insert((11, run.config, run.point), r.makespan.seconds());
            }
            Figure::Fig13 => {
                fig13.insert((run.config, run.point), r.makespan.seconds());
            }
            Figure::Resilience => {}
        }
    }

    // Fig 13: staging more helps. Summit's makespan never rises with the
    // staged fraction. Cori-private's falls to a plateau and may rise a
    // little past it, because below full staging the PFS and its single
    // BB node serve reads in parallel (EXPERIMENTS.md, deviation 4): it
    // must fall up to its lowest point, which lies at half staged or
    // beyond (the paper puts the plateau at ~80 %). Both gain from 0 % to
    // 100 %, and Summit beats Cori at 100 %.
    for (ci, c) in st.genomes_configs.iter().enumerate() {
        let curve: Vec<f64> = (0..=10)
            .filter_map(|p| fig13.get(&(ci, p)).copied())
            .collect();
        if curve.len() != 11 {
            checks.expect(false, || format!("fig13 {}: sweep incomplete", c.label));
            continue;
        }
        let lowest = (0..curve.len())
            .min_by(|&a, &b| curve[a].total_cmp(&curve[b]))
            .expect("11 points");
        let falls_to = if c.platform.bb == BbArchitecture::OnNode {
            curve.len() - 1
        } else {
            checks.expect(lowest >= 5, || {
                format!(
                    "fig13 {}: lowest makespan at {} % staged",
                    c.label,
                    lowest * 10
                )
            });
            lowest
        };
        for p in 1..=falls_to {
            let (a, b) = (curve[p - 1], curve[p]);
            checks.expect(b <= a * (1.0 + 1e-9), || {
                format!(
                    "fig13 {}: makespan rises from {a} s to {b} s at {} % staged",
                    c.label,
                    p * 10
                )
            });
        }
        checks.expect(curve[10] < curve[0], || {
            format!(
                "fig13 {}: 100 % staged ({} s) does not beat 0 % ({} s)",
                c.label, curve[10], curve[0]
            )
        });
    }
    if let (Some(cori), Some(summit)) = (fig13.get(&(0, 10)), fig13.get(&(1, 10))) {
        checks.expect(summit < cori, || {
            format!("fig13: Summit {summit} does not beat Cori {cori} at 100 %")
        });
    }

    // Fig 10/11 errors per configuration, each inside its band.
    let mut errors = Vec::new();
    for (fig, points) in [(10u8, FRACTIONS.len()), (11u8, PIPELINES.len())] {
        for (ci, c) in st.configs.iter().enumerate() {
            let keys: Vec<_> = (0..points).map(|p| (fig, ci, p)).collect();
            let m: Vec<f64> = keys
                .iter()
                .filter_map(|k| raw.measured.get(k).copied())
                .collect();
            let s: Vec<f64> = keys.iter().filter_map(|k| sim.get(k).copied()).collect();
            if m.len() != points || s.len() != points {
                checks.expect(false, || format!("fig{fig} {}: sweep incomplete", c.label));
                continue;
            }
            let e = mean_absolute_percentage_error(&m, &s);
            let band = if fig == 10 {
                FIG10_BAND[ci]
            } else {
                FIG11_BAND
            };
            checks.expect(e < band, || {
                format!(
                    "fig{fig} {}: error {e:.2} % outside the {band} % band",
                    c.label
                )
            });
            errors.push(e);
        }
    }
    d.validation_error_pct = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    d
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (setup_s, st) = harness::setup_median(|| setup(args.seed));
    let mut checks = Checks::default();
    let rounds = harness::measure(
        args.seconds,
        args.trace,
        |tr| round(&st, tr),
        |raw| digest(&st, raw, &mut checks),
    );
    let first = &rounds.all().next().expect("at least one round").payload;
    for r in rounds.all() {
        checks.expect(r.payload.fingerprint == first.fingerprint, || {
            "simulated makespans differ between rounds of the same inputs".to_string()
        });
    }
    eprintln!(
        "paper: validation error {:.3} % (mean of six configurations)",
        first.validation_error_pct
    );

    let metrics = if args.trace {
        let n = rounds.traced_rounds();
        let t = &rounds.tracer;
        let last = &rounds.traced.last().expect("traced round").1.payload;
        let c = &last.counters;
        let wms_s = t.total_s("wms.run") / n;
        let sim_s = wms_s + t.total_s("resilience.run") / n;
        let mut m = BTreeMap::from([
            ("workloads.build_s", st.build_s),
            ("wms.run_s", wms_s),
            (
                "wms.us_per_task",
                harness::ratio(wms_s * 1e6, last.wms_tasks),
            ),
            (
                "calibration.emulate_s",
                t.total_s("calibration.emulate") / n,
            ),
            (
                "calibration.validation_error_pct",
                last.validation_error_pct,
            ),
            ("resilience.run_s", t.total_s("resilience.run") / n),
            ("resilience.checkpoints", last.checkpoints),
            ("storage.bb_bytes", last.bb_bytes),
            ("simcore.events", c.events as f64),
            ("simcore.solves", c.solves as f64),
            (
                "simcore.ns_per_event",
                harness::ratio(sim_s * 1e9, c.events as f64),
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
        ]);
        harness::trace_metrics(&rounds, &mut m);
        m
    } else {
        harness::end_to_end(setup_s, &rounds)
    };
    harness::finish(args, &rounds, checks, metrics)
}
