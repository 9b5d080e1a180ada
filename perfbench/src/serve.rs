//! `serve`: the what-if service, in-process, driven over HTTP.
//!
//! A `wfbb-serve` server with the default configuration (2 workers)
//! listens on a loopback port. Two client threads run a closed loop:
//! each sends its next request only after the previous one completed,
//! one connection at a time, so at most 2 connections are open at once.
//! Each round, each client submits 4 distinct queries (2 `simulate`, 2
//! small `campaign` what-ifs that differ only in `solver_threads` 1 vs
//! 4) and repeats each of them 3 times from other tenants: 8 cold and
//! 24 repeat queries per round, 75 % repeats. Queries are fresh every
//! round, so every round pays the same cold work.
//!
//! A cold query is timed from its POST to the last byte of its last
//! artifact: submit (202), wait on `/v1/jobs/<id>/events` until the
//! stream's `end` line, then fetch every artifact in the manifest. A
//! repeat is timed from its POST (200, `cached:true`) to the last
//! artifact byte. The 4-thread twin may get either answer: today it
//! runs cold, as the cache key includes `solver_threads`; a service
//! that leaves the thread count out of the key answers it from the
//! cache with the 1-thread twin's bytes.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde_json::Value;
use wfbb_serve::{run_request, JobRequest, Progress, ServeConfig, Server, ServerHandle};

use crate::harness::{self, Args, Checks, Outcome, RoundOut};
use crate::seed::SplitMix;
use crate::trace::Tracer;

/// Client threads (and so the most connections open at once).
const CLIENTS: usize = 2;
/// Tenants the queries rotate over.
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
/// Distinct queries each client sends per round.
const QUERIES_PER_CLIENT: usize = 4;
/// Repeats of each distinct query.
const REPEATS: usize = 3;
/// Socket read/write timeout: a stuck request fails instead of hanging.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

struct HttpResponse {
    status: u16,
    body: Vec<u8>,
}

/// One request on its own connection (the service closes after each).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: &str,
    body: &[u8],
) -> Result<HttpResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nX-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    stream.write_all(body).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header/body separator")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let chunked = lines
        .filter_map(|l| l.split_once(':'))
        .any(|(n, v)| n.eq_ignore_ascii_case("transfer-encoding") && v.trim() == "chunked");
    let payload = &raw[split + 4..];
    let body = if chunked {
        dechunk(payload)?
    } else {
        payload.to_vec()
    };
    Ok(HttpResponse { status, body })
}

fn dechunk(mut payload: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let end = payload
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk")?;
        let size = std::str::from_utf8(&payload[..end])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or("bad chunk size")?;
        payload = &payload[end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if payload.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        out.extend_from_slice(&payload[..size]);
        payload = &payload[size + 2..];
    }
}

fn json(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
    serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))
}

fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One distinct query of the mix.
#[derive(Clone)]
struct Query {
    body: String,
    /// Position, among its client's queries, of the query this one
    /// differs from only in `solver_threads`.
    twin_of: Option<usize>,
}

/// The 4 distinct queries of one client in one round.
fn client_queries(rng: &mut SplitMix, round: u64, client: usize) -> Vec<Query> {
    let platforms = ["cori:private", "cori:striped", "summit"];
    let mut out = Vec::new();
    for k in 0..2 {
        // A fraction that is new in every round and for every client keeps
        // the cache key fresh while the work stays the same size.
        let slot = (round * 4 + client as u64 * 2 + k as u64) % 1000;
        let fraction = (slot as f64 + rng.unit()) / 1000.0;
        out.push(Query {
            body: format!(
                r#"{{"type":"simulate","workflow":"swarp:2:8","platform":"{}","placement":"fraction:{fraction}"}}"#,
                platforms[(client + k) % platforms.len()]
            ),
            twin_of: None,
        });
    }
    let seed = rng.next() % 1_000_000_000;
    for threads in [1, 4] {
        out.push(Query {
            body: format!(
                r#"{{"type":"campaign","platform":"cori:striped","nodes":8,"policy":"bb-aware","solver_threads":{threads},"workload":{{"type":"synthetic","seed":{seed},"jobs":6,"max_nodes":2}}}}"#
            ),
            twin_of: (threads == 4).then_some(2),
        });
    }
    debug_assert_eq!(out.len(), QUERIES_PER_CLIENT);
    out
}

/// Result of one query as the client saw it.
struct Answer {
    /// Index of the distinct query.
    query: usize,
    /// The first send of the query (the others are its repeats).
    first: bool,
    /// The service answered from its cache.
    cached: bool,
    ms: f64,
    /// Artifact name → fingerprint of the bytes fetched.
    artifacts: BTreeMap<String, u64>,
    bytes: usize,
    error: Option<String>,
}

/// Submits `body` and fetches every artifact; for a query that runs
/// cold, waits on the events stream first. `expect_cached` is the answer
/// the query must get (`None`: either). Returns whether it was cached.
fn query(
    addr: SocketAddr,
    tenant: &str,
    body: &str,
    expect_cached: Option<bool>,
    tr: &mut Tracer,
    id: u64,
) -> Result<(bool, BTreeMap<String, u64>, usize), String> {
    let submitted = tr.span("serve.submit", id, || {
        http(addr, "POST", "/v1/jobs", tenant, body.as_bytes())
    })?;
    let doc = json(&submitted.body)?;
    let cached = doc.get("cached").and_then(Value::as_bool);
    let cold = match (submitted.status, cached) {
        (202, Some(false)) => true,
        (200, Some(true)) => false,
        (status, cached) => {
            return Err(format!(
                "POST answered {status} with cached={cached:?}: {}",
                String::from_utf8_lossy(&submitted.body)
            ))
        }
    };
    if expect_cached.is_some_and(|c| c == cold) {
        return Err(format!(
            "POST answered {} for a query that must {}",
            submitted.status,
            if cold { "hit the cache" } else { "run cold" }
        ));
    }
    let id_num = doc
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("job document without id")?;
    let doc = if cold {
        let events = tr.span("serve.events", id, || {
            http(
                addr,
                "GET",
                &format!("/v1/jobs/{id_num}/events"),
                tenant,
                b"",
            )
        })?;
        let text = String::from_utf8(events.body).map_err(|_| "non-UTF-8 events")?;
        let last = text.lines().last().ok_or("empty events stream")?;
        let end = json(last.as_bytes())?;
        if end.get("type").and_then(Value::as_str) != Some("end") {
            return Err(format!("events stream ended without an end line: {last}"));
        }
        end.get("job").cloned().ok_or("end line without a job")?
    } else {
        doc
    };
    if doc.get("state").and_then(Value::as_str) != Some("done") {
        return Err(format!("job ended {:?}", doc.get("state")));
    }
    let names: Vec<String> = doc
        .get("artifacts")
        .and_then(Value::as_array)
        .ok_or("job document without artifacts")?
        .iter()
        .filter_map(|a| a.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    if names.is_empty() {
        return Err("done job lists no artifacts".into());
    }
    let fetch = tr.begin("serve.artifact", id);
    let mut artifacts = BTreeMap::new();
    let mut bytes = 0;
    for name in names {
        let r = http(
            addr,
            "GET",
            &format!("/v1/jobs/{id_num}/artifacts/{name}"),
            tenant,
            b"",
        )?;
        if r.status != 200 {
            tr.end(fetch);
            return Err(format!("artifact {name} answered {}", r.status));
        }
        bytes += r.body.len();
        artifacts.insert(name, fingerprint(&r.body));
    }
    tr.end(fetch);
    Ok((!cold, artifacts, bytes))
}

/// One client's share of a round: each distinct query first (cold, or
/// either answer for a twin), then its repeats from the other tenants.
fn client(
    addr: SocketAddr,
    queries: &[Query],
    first: usize,
    tr: &mut Tracer,
    ids: u64,
) -> Vec<Answer> {
    let mut answers = Vec::new();
    let mut id = ids;
    for (k, q) in queries.iter().enumerate() {
        let index = first + k;
        for rep in 0..=REPEATS {
            let first = rep == 0;
            let expect_cached = match (first, q.twin_of) {
                (true, Some(_)) => None,
                (true, None) => Some(false),
                (false, _) => Some(true),
            };
            let tenant = TENANTS[(index + rep) % TENANTS.len()];
            id += 1;
            let start = Instant::now();
            let result = tr.span_with("serve.query", id, |tr| {
                query(addr, tenant, &q.body, expect_cached, tr, id)
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let (cached, artifacts, bytes, error) = match result {
                Ok((c, a, b)) => (c, a, b, None),
                Err(e) => (false, BTreeMap::new(), 0, Some(e)),
            };
            if error.is_none() {
                let name = if cached {
                    "serve.hit_ms"
                } else {
                    "serve.cold_ms"
                };
                tr.sample(name, ms);
            }
            answers.push(Answer {
                query: index,
                first,
                cached,
                ms,
                artifacts,
                bytes,
                error,
            });
        }
    }
    answers
}

/// The running server and the inputs.
struct State {
    server: Option<ServerHandle>,
    rng_seed: u64,
    build_s: f64,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

fn addr(st: &State) -> SocketAddr {
    st.server.as_ref().expect("server is running").addr
}

fn setup(seed: u64) -> State {
    let mut rng = SplitMix::new(seed);
    let rng_seed = rng.next();
    // Rounds draw their own queries; time drawing one round's mix.
    let build = Instant::now();
    let mix = round_queries(rng_seed, 0);
    let build_s = build.elapsed().as_secs_f64();
    drop(mix);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("bind a loopback port")
    .start();
    let st = State {
        server: Some(server),
        rng_seed,
        build_s,
    };
    // Warm-up: one simulate and one campaign query, cold and repeated,
    // with fixed shapes the measured mix never uses (4 nodes, a 3-job
    // draw).
    let warm = [
        r#"{"type":"simulate","workflow":"swarp:1:8","platform":"cori:striped","nodes":4}"#,
        r#"{"type":"campaign","platform":"cori:striped","nodes":4,"policy":"bb-aware","workload":{"type":"synthetic","seed":7,"jobs":3,"max_nodes":2}}"#,
    ];
    let mut off = Tracer::off();
    for body in warm {
        for cached in [false, true] {
            query(addr(&st), "warmup", body, Some(cached), &mut off, 0)
                .expect("warm-up query succeeds");
        }
    }
    st
}

/// Raw outputs of one round.
struct Raw {
    queries: Vec<Query>,
    answers: Vec<Answer>,
}

/// The distinct queries of round `round`, per client.
fn round_queries(seed: u64, round: u64) -> Vec<Vec<Query>> {
    let mut rng = SplitMix::new(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..CLIENTS)
        .map(|c| client_queries(&mut rng, round, c))
        .collect()
}

fn round(st: &State, tr: &mut Tracer, round: u64) -> RoundOut<Raw> {
    let per_client = round_queries(st.rng_seed, round);
    let addr = addr(st);
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|c| tr.child(c as u32 + 1)).collect();
    let answers: Vec<Answer> = std::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .iter()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (queries, ctr))| {
                let first = c * queries.len();
                let ids = round * 1000 + (c as u64) * 100;
                s.spawn(move || client(addr, queries, first, ctr, ids))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for t in tracers {
        tr.merge(t);
    }
    let mut out = RoundOut {
        ops: answers.len() as u64,
        failed: 0,
        cold_ms: Vec::new(),
        payload: Raw {
            queries: per_client.into_iter().flatten().collect(),
            answers: Vec::new(),
        },
    };
    for a in &answers {
        match &a.error {
            Some(e) => {
                eprintln!("query {} failed: {e}", a.query);
                out.failed += 1;
            }
            None if !a.cached => out.cold_ms.push(a.ms),
            None => {}
        }
    }
    out.payload.answers = answers;
    out
}

/// What the checks keep of a round.
struct Digest {
    hit_ms: Vec<f64>,
    cold: Vec<(String, f64)>,
    bytes: f64,
    redundant: f64,
    /// Completed queries the service answered from its cache.
    hits: u64,
    /// Completed queries the service ran cold.
    misses: u64,
}

fn digest(
    raw: Raw,
    references: &mut BTreeMap<String, BTreeMap<String, u64>>,
    checks: &mut Checks,
) -> Digest {
    let mut d = Digest {
        hit_ms: Vec::new(),
        cold: Vec::new(),
        bytes: 0.0,
        redundant: 0.0,
        hits: 0,
        misses: 0,
    };
    // The bytes of each distinct query's first answer.
    let mut first_bytes: BTreeMap<usize, &BTreeMap<String, u64>> = BTreeMap::new();
    for a in raw.answers.iter().filter(|a| a.error.is_none()) {
        d.bytes += a.bytes as f64;
        let q = &raw.queries[a.query];
        if a.cached {
            d.hits += 1;
            d.hit_ms.push(a.ms);
        } else {
            d.misses += 1;
            d.cold.push((q.body.clone(), a.ms));
        }
        if a.first {
            first_bytes.insert(a.query, &a.artifacts);
            references.insert(q.body.clone(), a.artifacts.clone());
        } else {
            checks.expect(first_bytes.get(&a.query) == Some(&&a.artifacts), || {
                format!(
                    "repeat of query {} returned other bytes than its first answer",
                    a.query
                )
            });
        }
    }
    // A twin differs from its 1-thread query only in `solver_threads`:
    // answered from the cache, it must carry the same bytes; run cold
    // with the same bytes, the run was redundant.
    for a in raw.answers.iter().filter(|a| a.first && a.error.is_none()) {
        let Some(twin) = raw.queries[a.query].twin_of else {
            continue;
        };
        let same = first_bytes.get(&(a.query - a.query % QUERIES_PER_CLIENT + twin))
            == Some(&&a.artifacts);
        if a.cached {
            checks.expect(same, || {
                format!(
                    "twin query {} hit the cache with other bytes than its 1-thread query",
                    a.query
                )
            });
        } else if same {
            d.redundant += 1.0;
        }
    }
    d.bytes /= (d.hits + d.misses).max(1) as f64;
    d
}

fn cache_counters(addr: SocketAddr) -> Result<(u64, u64), String> {
    let r = http(addr, "GET", "/v1/metrics", "bench", b"")?;
    let v = json(&r.body)?;
    let cache = v.get("cache").ok_or("metrics without cache")?;
    let get = |k: &str| {
        cache
            .get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("metrics without cache.{k}"))
    };
    Ok((get("hits")?, get("misses")?))
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (setup_s, st) = harness::setup_median(|| setup(args.seed));
    let before = cache_counters(addr(&st)).expect("metrics before the run");
    let mut n = 0u64;
    let mut checks = Checks::default();
    let mut http_bytes = BTreeMap::new();
    let rounds = harness::measure(
        args.seconds,
        args.trace,
        |tr| {
            n += 1;
            round(&st, tr, n)
        },
        |raw| digest(raw, &mut http_bytes, &mut checks),
    );
    let after = cache_counters(addr(&st)).expect("metrics after the run");
    let hits: u64 = rounds.all().map(|r| r.payload.hits).sum();
    let misses: u64 = rounds.all().map(|r| r.payload.misses).sum();
    checks.expect(after.0 - before.0 == hits && after.1 - before.1 == misses, || {
        format!(
            "/v1/metrics counted {} hits and {} misses; the benchmark got {hits} cached and {misses} cold answers",
            after.0 - before.0,
            after.1 - before.1
        )
    });

    // Every artifact fetched over HTTP must equal `run_request` on the
    // same request, computed here, outside the timed phase.
    let mut run_ms = BTreeMap::new();
    for (body, fetched) in &http_bytes {
        let request = JobRequest::parse(body.as_bytes()).expect("mix queries parse");
        let start = Instant::now();
        let direct = run_request(
            &request,
            &AtomicBool::new(false),
            &Mutex::new(Progress::default()),
        );
        run_ms.insert(body.clone(), start.elapsed().as_secs_f64() * 1e3);
        match direct {
            Ok(artifacts) => {
                let expected: BTreeMap<String, u64> = artifacts
                    .manifest()
                    .iter()
                    .map(|(name, _)| {
                        (
                            name.to_string(),
                            fingerprint(artifacts.get(name).expect("listed artifact")),
                        )
                    })
                    .collect();
                checks.expect(&expected == fetched, || {
                    format!("HTTP artifacts differ from run_request for {body}")
                });
            }
            Err(e) => checks.expect(false, || format!("run_request failed for {body}: {e}")),
        }
    }

    let metrics = if args.trace {
        let t = &rounds.tracer;
        let traced: Vec<&Digest> = rounds.traced.iter().map(|(_, r)| &r.payload).collect();
        // Latency percentiles pool every round of the run, so the tails
        // rest on as many samples as the run has.
        let cold: Vec<f64> = rounds
            .all()
            .flat_map(|r| r.payload.cold.iter().map(|(_, ms)| *ms))
            .collect();
        let hits: Vec<f64> = rounds
            .all()
            .flat_map(|r| r.payload.hit_ms.iter().copied())
            .collect();
        let lags: Vec<f64> = traced
            .iter()
            .flat_map(|d| d.cold.iter().map(|(body, ms)| ms - run_ms[body]))
            .collect();
        let runs: Vec<f64> = rounds
            .all()
            .flat_map(|r| r.payload.cold.iter().map(|(body, _)| run_ms[body]))
            .collect();
        let queries = t.durations_s("serve.query").len() as f64;
        let selfs = t.self_times();
        let mut m = BTreeMap::from([
            ("workloads.build_s", st.build_s),
            ("serve.run_ms_p50", harness::median(&runs)),
            ("serve.notify_lag_ms_p50", harness::median(&lags)),
            (
                "serve.submit_ms_p50",
                harness::median(&t.durations_s("serve.submit")) * 1e3,
            ),
            (
                "serve.artifact_ms_p50",
                harness::median(&t.durations_s("serve.artifact")) * 1e3,
            ),
            (
                "serve.bytes_per_query",
                traced.iter().map(|d| d.bytes).sum::<f64>() / traced.len().max(1) as f64,
            ),
            ("serve.hit_p50_ms", harness::median(&hits)),
            ("serve.cold_p99_ms", harness::percentile(&cold, 0.99)),
            ("serve.hit_p99_ms", harness::percentile(&hits, 0.99)),
            (
                "serve.hit_ratio",
                harness::ratio(
                    (after.0 - before.0) as f64,
                    (after.0 - before.0 + after.1 - before.1) as f64,
                ),
            ),
            (
                "serve.redundant_runs",
                traced.iter().map(|d| d.redundant).sum::<f64>() / traced.len().max(1) as f64,
            ),
            (
                "serve.client_self_ms",
                harness::ratio(
                    selfs.get("serve.query").copied().unwrap_or(0.0) * 1e3,
                    queries,
                ),
            ),
        ]);
        harness::trace_metrics(&rounds, &mut m);
        m
    } else {
        harness::end_to_end(setup_s, &rounds)
    };
    harness::finish(args, &rounds, checks, metrics)
}
