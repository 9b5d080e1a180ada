//! The measurement loop shared by every workload: repeated set-up,
//! whole rounds until the run length is used up, output checks outside
//! the timed phase, and the metric table printed at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// `BENCHMARK.json`, the one list of metric names and units.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of a metric table of `BENCHMARK.json`:
/// `end_to_end` (printed with `--trace 0`) or `per_layer` (`--trace 1`).
/// Every workload prints every metric of the table; a metric of a layer
/// the workload does not reach reads 0.
pub fn metric_table(key: &str) -> Vec<(String, String)> {
    let bench: serde_json::Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let field = |m: &serde_json::Value, k: &str| {
        m.get(k)
            .and_then(serde_json::Value::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: a {key} metric without {k}"))
            .to_string()
    };
    bench
        .get(key)
        .and_then(serde_json::Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
}

/// What one round of a workload did.
pub struct RoundOut<P> {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Host latency of every operation that computed its result, ms.
    pub cold_ms: Vec<f64>,
    /// Workload-specific outputs, checked outside the timed phase.
    pub payload: P,
}

/// Every round of a run, with its host wall time.
pub struct Rounds<P> {
    /// Untraced rounds: the end-to-end figures come from these.
    pub untraced: Vec<(f64, RoundOut<P>)>,
    /// Traced rounds: the per-layer figures come from these.
    pub traced: Vec<(f64, RoundOut<P>)>,
    /// Spans and samples of the traced rounds.
    pub tracer: Tracer,
}

impl<P> Rounds<P> {
    /// All rounds, untraced first.
    pub fn all(&self) -> impl Iterator<Item = &RoundOut<P>> {
        self.untraced.iter().chain(&self.traced).map(|(_, r)| r)
    }

    /// Number of traced rounds, at least 1 (a divisor for per-round means).
    pub fn traced_rounds(&self) -> f64 {
        self.traced.len().max(1) as f64
    }
}

/// Runs `setup` [`SETUPS`] times, keeping the last state; returns the
/// median set-up time and that state.
pub fn setup_median<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Drop the previous state first so set-ups do not overlap.
        drop(state.take());
        let start = Instant::now();
        let s = setup();
        times.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    (median(&times), state.expect("at least one set-up"))
}

/// Runs whole rounds until `seconds` have passed. Untraced runs time
/// untraced rounds only; traced runs alternate untraced and traced
/// rounds, so both see the same machine state, and run at least one of
/// each.
///
/// Right after each round, outside its timed window, `digest` checks
/// the round's raw outputs and keeps what the metrics need, so memory
/// does not grow with the number of rounds.
pub fn measure<P, D>(
    seconds: f64,
    trace: bool,
    mut round: impl FnMut(&mut Tracer) -> RoundOut<P>,
    mut digest: impl FnMut(P) -> D,
) -> Rounds<D> {
    let epoch = Instant::now();
    let mut rounds = Rounds {
        untraced: Vec::new(),
        traced: Vec::new(),
        tracer: if trace {
            Tracer::on(epoch, 0)
        } else {
            Tracer::off()
        },
    };
    let mut off = Tracer::off();
    loop {
        let traced = trace && rounds.traced.len() < rounds.untraced.len();
        let tracer = if traced { &mut rounds.tracer } else { &mut off };
        let id = (rounds.untraced.len() + rounds.traced.len()) as u64;
        let open = tracer.begin("bench.round", id);
        let start = Instant::now();
        let out = round(tracer);
        let wall = start.elapsed().as_secs_f64();
        tracer.end(open);
        let out = RoundOut {
            ops: out.ops,
            failed: out.failed,
            cold_ms: out.cold_ms,
            payload: digest(out.payload),
        };
        if traced {
            rounds.traced.push((wall, out));
        } else {
            rounds.untraced.push((wall, out));
        }
        let done = epoch.elapsed().as_secs_f64() >= seconds;
        if done && (!trace || !rounds.traced.is_empty()) {
            return rounds;
        }
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (0 for none).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        let k = v.len() / 2;
        return (v[k - 1] + v[k]) / 2.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run, from its untraced rounds.
pub fn end_to_end<P>(setup_s: f64, rounds: &Rounds<P>) -> BTreeMap<&'static str, f64> {
    let walls: Vec<f64> = rounds.untraced.iter().map(|(w, _)| *w).collect();
    let cold: Vec<f64> = rounds
        .untraced
        .iter()
        .flat_map(|(_, r)| r.cold_ms.iter().copied())
        .collect();
    let ops: u64 = rounds.untraced.iter().map(|(_, r)| r.ops - r.failed).sum();
    BTreeMap::from([
        ("setup_s", setup_s),
        ("wall_s", median(&walls)),
        ("peak_rss_mb", peak_rss_mb()),
        ("cold_p50_ms", median(&cold)),
        ("queries_per_s", ratio(ops as f64, walls.iter().sum())),
    ])
}

/// The tracing metrics every workload reports beside its own layers.
pub fn trace_metrics<P>(rounds: &Rounds<P>, layers: &mut BTreeMap<&'static str, f64>) {
    let untraced: Vec<f64> = rounds.untraced.iter().map(|(w, _)| *w).collect();
    let traced: Vec<f64> = rounds.traced.iter().map(|(w, _)| *w).collect();
    let selfs = rounds.tracer.self_times();
    layers.insert(
        "bench.self_s",
        selfs.get("bench.round").copied().unwrap_or(0.0) / rounds.traced_rounds(),
    );
    layers.insert("trace.spans", rounds.tracer.span_count() as f64);
    layers.insert("trace.wall_s", median(&traced));
    layers.insert("trace.untraced_wall_s", median(&untraced));
    layers.insert("trace.overhead_s", median(&traced) - median(&untraced));
    layers.insert("trace.rounds", traced.len() as f64);
}

/// The final verdict of a run.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric name → value; units come from [`metric_table`].
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The outcome of a run: operation counts over every round, the check
/// verdict, and the metrics.
/// Traced runs write their spans to `perfbench/out/` here.
pub fn finish<P>(
    args: &Args,
    rounds: &Rounds<P>,
    checks: Checks,
    metrics: BTreeMap<&'static str, f64>,
) -> Outcome {
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, rounds.tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    Outcome {
        correct: checks.passed(),
        attempted: rounds.all().map(|r| r.ops).sum(),
        failed: rounds.all().map(|r| r.failed).sum(),
        metrics,
    }
}

/// Renders the result line: every metric of the selected table, in
/// table order, with the value's full precision.
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let key = if trace { "per_layer" } else { "end_to_end" };
    let table = metric_table(key);
    for name in outcome.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the {key} table of BENCHMARK.json"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name.as_str()).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

/// Collects check failures, reporting each on stderr.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("check failed: {message}");
            self.failures.push(message);
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// `a == b` within `rel` relative tolerance (absolute below 1).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: BTreeMap::from([("wall_s", 1.25)]),
        };
        let line = result_json(&outcome, false);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        for (name, unit) in metric_table("end_to_end") {
            let m = v.get("metrics").and_then(|m| m.get(&name)).unwrap();
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit.as_str()));
        }
        assert!(line.contains("\"wall_s\":{\"value\":1.25,"));
    }
}
