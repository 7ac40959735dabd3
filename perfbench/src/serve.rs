//! The two serve workloads: a live `pwf serve` driven over loopback by
//! keep-alive connections of the harness's own HTTP client.
//!
//! * `serve-hot` — two connections, Zipf(1.1) keys from a small
//!   theory/chain/sim working set, every key cached during set-up: the
//!   read path alone (HTTP, shaper, FAI ticket, LRU hit, metrics), with
//!   both connections contending on the lock-free ticket.
//! * `serve-cold` — one connection, mostly fresh-seeded sim keys plus a
//!   cost-capped pool of chain keys, with the cache smaller than any
//!   key's reuse distance: every request misses, leads, computes,
//!   fills and evicts.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use pwf_obs::ObsHandle;
use pwf_rng::{mix64, Rng, RngCore, SeedableRng, Xoshiro256PlusPlus, Zipf};
use pwf_serve::predict::{self, Layer, PredictKey};
use pwf_serve::{EngineConfig, ServerConfig, ServerHandle};

use crate::trace::{Totals, Tracer};
use crate::{drive, stats, timed_setup, Report, Run};

/// The hot working set: the same mix of layers as the built-in
/// selftest (theory closed forms, dense chains, seeded sims), with its
/// scu chain key at n = 5: the n = 6 dense analysis would add ~20 MB of
/// short-lived matrices to set-up, which the allocator sometimes keeps
/// resident, and timed requests never compute anyway.
const HOT_KEYS: &[&str] = &[
    "alg=scu&q=0&s=1&n=64",
    "alg=scu&q=2&s=1&n=64",
    "alg=scu&q=4&s=2&n=256",
    "alg=fai&n=128",
    "alg=parallel&q=3&n=512",
    "alg=scu&n=4&layer=chain",
    "alg=scu&n=5&layer=chain",
    "alg=fai&n=5&layer=chain",
    "alg=parallel&q=2&n=6&layer=chain",
    "alg=scu&n=16&layer=sim&steps=50000",
    "alg=fai&n=8&layer=sim&steps=50000",
    "alg=parallel&q=2&n=8&layer=sim&steps=50000",
];

/// Connections driving serve-hot (the host's two cores).
pub const HOT_CONNS: usize = 2;
/// Requests per connection per pass of serve-hot.
pub const HOT_REQUESTS: usize = 5_000;

/// Requests per pass of serve-cold: sixteen cycles of the chain pool,
/// enough for an exact per-pass p99.
pub const COLD_REQUESTS: usize = 1_280;
/// Every `COLD_CHAIN_EVERY`-th cold request is a chain key.
pub const COLD_CHAIN_EVERY: usize = 5;
/// Process counts of the cold sim keys.
const COLD_SIM_NS: [usize; 4] = [8, 16, 64, 256];
/// Steps of each cold sim key.
const COLD_SIM_STEPS: u64 = 50_000;
/// The cold chain pool, capped by cost: scu through the dense path
/// (n <= 6) and the matrix-free path (n >= 8), fai, small parallel.
const COLD_CHAIN_POOL: &[&str] = &[
    "alg=scu&n=6&layer=chain",
    "alg=scu&n=8&layer=chain",
    "alg=fai&n=6&layer=chain",
    "alg=scu&n=12&layer=chain",
    "alg=parallel&q=2&n=4&layer=chain",
    "alg=scu&n=5&layer=chain",
    "alg=scu&n=16&layer=chain",
    "alg=fai&n=8&layer=chain",
    "alg=scu&n=24&layer=chain",
    "alg=scu&n=4&layer=chain",
    "alg=parallel&q=3&n=4&layer=chain",
    "alg=scu&n=32&layer=chain",
    "alg=fai&n=4&layer=chain",
    "alg=scu&n=48&layer=chain",
    "alg=parallel&q=2&n=6&layer=chain",
    "alg=fai&n=7&layer=chain",
];
/// serve-cold's cache capacity: below the shortest reuse distance of
/// any key in the op list, so no request can hit.
pub const COLD_CACHE_CAPACITY: usize = 32;

fn parse(query: &str) -> PredictKey {
    let pairs: Vec<(String, String)> = query
        .split('&')
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.to_string())
        })
        .collect();
    predict::parse_key(&pairs).expect("benchmark keys are valid")
}

/// A seeded op list: distinct keys plus, per connection, the indices
/// of the keys it requests in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpList {
    /// Distinct keys.
    pub keys: Vec<PredictKey>,
    /// Per connection: indices into `keys`.
    pub conns: Vec<Vec<u32>>,
}

/// serve-hot's op list: one seeded Zipf(1.1) stream per connection
/// over the working set, most popular first. The popularity order is
/// fixed so that the seed changes which requests come when, not how
/// much each pass costs.
pub fn hot_ops(seed: u64) -> OpList {
    let keys: Vec<PredictKey> = HOT_KEYS.iter().map(|q| parse(q)).collect();
    let zipf = Zipf::new(keys.len(), 1.1);
    let conns = (0..HOT_CONNS)
        .map(|c| {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix64(seed ^ mix64(c as u64 + 1)));
            (0..HOT_REQUESTS)
                .map(|_| (zipf.sample(&mut rng) - 1) as u32)
                .collect()
        })
        .collect();
    OpList { keys, conns }
}

/// serve-cold's op list: four in five requests a fresh-seeded sim key,
/// every fifth a chain key cycled from the pool.
pub fn cold_ops(seed: u64) -> OpList {
    let pool: Vec<PredictKey> = COLD_CHAIN_POOL.iter().map(|q| parse(q)).collect();
    let mut keys = pool.clone();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(mix64(seed ^ 0xC01D));
    let mut list = Vec::with_capacity(COLD_REQUESTS);
    for i in 0..COLD_REQUESTS {
        if i % COLD_CHAIN_EVERY == COLD_CHAIN_EVERY - 1 {
            list.push(((i / COLD_CHAIN_EVERY) % pool.len()) as u32);
        } else {
            let n = COLD_SIM_NS[rng.gen_range(0..COLD_SIM_NS.len())];
            let query = format!(
                "alg=scu&n={n}&layer=sim&steps={COLD_SIM_STEPS}&seed={}",
                rng.next_u64() >> 1
            );
            list.push(keys.len() as u32);
            keys.push(parse(&query));
        }
    }
    OpList {
        keys,
        conns: vec![list],
    }
}

/// Fewest distinct other keys requested between two requests for the
/// same key, over the op list repeated back to back (`None` if no key
/// repeats).
pub fn min_reuse_distance(keys: &[PredictKey], list: &[u32]) -> Option<usize> {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let id: Vec<usize> = keys
        .iter()
        .map(|key| {
            let next = ids.len();
            *ids.entry(key.canonical()).or_insert(next)
        })
        .collect();
    let doubled: Vec<usize> = list.iter().chain(list).map(|&k| id[k as usize]).collect();
    let mut last_seen: HashMap<usize, usize> = HashMap::new();
    let mut best: Option<usize> = None;
    for (i, &k) in doubled.iter().enumerate() {
        if let Some(prev) = last_seen.insert(k, i) {
            let between = doubled[prev + 1..i].iter().collect::<HashSet<_>>().len();
            best = Some(best.map_or(between, |b| b.min(between)));
        }
    }
    best
}

/// One keep-alive connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One GET; returns `(status, x-pwf-source, body)`.
    fn get(&mut self, target: &str) -> std::io::Result<(u16, String, Vec<u8>)> {
        write!(
            self.writer,
            "GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n"
        )?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut source = String::new();
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(std::io::Error::other)?;
                } else if name.eq_ignore_ascii_case("x-pwf-source") {
                    source = value.trim().to_string();
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, source, body))
    }
}

fn target(key: &PredictKey) -> String {
    format!("/predict?{}", key.canonical())
}

fn start_server(cache_capacity: usize) -> ServerHandle {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            cache_capacity,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    };
    pwf_serve::start(&config, ObsHandle::collecting(None)).expect("bind a loopback port")
}

/// Direct `predict::compute` of every key: the bytes each response
/// must equal. In a traced run, one span per call.
fn reference_bodies(keys: &[PredictKey], tracer: &mut Tracer) -> Vec<Arc<Vec<u8>>> {
    keys.iter()
        .map(|key| {
            let name = match key.layer {
                Layer::Sim => "serve.compute.sim",
                Layer::Chain => "serve.compute.chain",
                Layer::Theory => "serve.compute.theory",
            };
            let body = tracer.span(name, |_| predict::compute(key));
            Arc::new(body.expect("reference compute").into_bytes())
        })
        .collect()
}

/// One connection's tallies across the timed passes.
#[derive(Default)]
struct Conn {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Span totals of the traced passes.
    totals: Totals,
    /// Traced request round trips, microseconds.
    rtt_us: Vec<f64>,
}

impl Conn {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    /// Sends `list` in order over one keep-alive connection, checking
    /// every response. Returns the latencies in nanoseconds of the
    /// requests that passed, unless the pass is traced.
    fn pass(
        &mut self,
        client: &mut Client,
        list: &[u32],
        check: &Check<'_>,
        tracer: &mut Tracer,
    ) -> Vec<u32> {
        let mut latencies_ns = Vec::with_capacity(list.len());
        tracer.span("pass", |tracer| {
            for &k in list {
                let k = k as usize;
                let sent = Instant::now();
                let got = tracer.span("serve.request", |_| client.get(&check.targets[k]));
                let ns = sent.elapsed().as_nanos();
                self.attempted += 1;
                match got {
                    Ok((200, source, body)) if source == check.source => {
                        if body != *check.bodies[k] {
                            self.fail(format!("body drift on {}", check.targets[k]));
                        } else if !tracer.enabled() {
                            latencies_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                        }
                    }
                    Ok((status, source, _)) => self.fail(format!(
                        "{}: status {status}, source {source:?}",
                        check.targets[k]
                    )),
                    Err(e) => self.fail(format!("{}: {e}", check.targets[k])),
                }
            }
        });
        latencies_ns
    }
}

/// What every response must match.
struct Check<'a> {
    targets: Vec<String>,
    bodies: &'a [Arc<Vec<u8>>],
    source: &'a str,
}

/// Per-pass latency percentiles of the untraced passes.
#[derive(Debug, Default)]
struct Percentiles {
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    /// Requests per pass.
    samples: usize,
    /// Passes too short for an exact p99.
    short: usize,
}

impl Percentiles {
    /// Adds one pass's latencies (all connections).
    fn add(&mut self, mut ns: Vec<u32>) {
        ns.sort_unstable();
        self.samples = ns.len();
        match (stats::percentile(&ns, 0.5), stats::percentile(&ns, 0.99)) {
            (Some(p50), Some(p99)) => {
                self.p50_ms.push(f64::from(p50) / 1e6);
                self.p99_ms.push(f64::from(p99) / 1e6);
            }
            _ => self.short += 1,
        }
    }
}

/// Drives the op list through `server` in whole passes for the run's
/// time. Each connection keeps one keep-alive socket and one thread for
/// the whole run; the main thread times a pass from the start barrier
/// to the end barrier, then takes that pass's latency percentiles.
fn drive_serve(
    run: &Run,
    server: &ServerHandle,
    ops: &OpList,
    check: &Check<'_>,
) -> (Vec<Conn>, Percentiles, Vec<f64>, Vec<f64>) {
    let epoch = Instant::now();
    let addr = server.addr();
    let start = Barrier::new(ops.conns.len() + 1);
    let end = Barrier::new(ops.conns.len() + 1);
    // What the released threads do: stop, an untraced or a traced pass.
    const STOP: u8 = 0;
    const UNTRACED: u8 = 1;
    const TRACED: u8 = 2;
    let next = AtomicU8::new(STOP);
    let (sender, samples) = mpsc::channel::<Vec<u32>>();
    let mut percentiles = Percentiles::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .conns
            .iter()
            .map(|list| {
                let (start, end, next) = (&start, &end, &next);
                let sender = sender.clone();
                scope.spawn(move || {
                    let mut conn = Conn::default();
                    let mut client = Client::connect(addr);
                    loop {
                        start.wait();
                        let kind = next.load(Ordering::SeqCst);
                        if kind == STOP {
                            return conn;
                        }
                        let mut tracer = Tracer::new(kind == TRACED, epoch);
                        let latencies = match client.as_mut() {
                            Ok(client) => conn.pass(client, list, check, &mut tracer),
                            Err(e) => {
                                conn.attempted += list.len() as u64;
                                conn.fail(format!("connect: {e}"));
                                Vec::new()
                            }
                        };
                        sender.send(latencies).expect("main thread receives");
                        let spans = tracer.into_spans();
                        conn.totals.add(&spans);
                        conn.rtt_us.extend(
                            spans
                                .iter()
                                .filter(|s| s.name == "serve.request")
                                .map(|s| s.ns() as f64 / 1e3),
                        );
                        end.wait();
                    }
                })
            })
            .collect();
        let (untraced, traced) = drive(run, |traced| {
            next.store(if traced { TRACED } else { UNTRACED }, Ordering::SeqCst);
            start.wait();
            let t0 = Instant::now();
            end.wait();
            let wall = t0.elapsed().as_secs_f64();
            let pass: Vec<u32> = samples.try_iter().flatten().collect();
            if !traced {
                percentiles.add(pass);
            }
            wall
        });
        next.store(STOP, Ordering::SeqCst);
        start.wait();
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (conns, percentiles, untraced, traced)
    })
}

/// Runs one serve workload.
fn run_serve(run: &Run, make_ops: fn(u64) -> OpList, cache_capacity: usize, hot: bool) -> Report {
    let mut report = Report::default();
    // Set-up: op-list generation, server start and, for serve-hot, one
    // request per key so every timed request is a cache hit.
    let ((ops, server), setup_s) = timed_setup(|| {
        let ops = make_ops(run.seed);
        let server = start_server(cache_capacity);
        if hot {
            let mut client = Client::connect(server.addr()).expect("warm-up connection");
            for key in &ops.keys {
                let (status, _, _) = client.get(&target(key)).expect("warm-up request");
                assert_eq!(status, 200, "warm-up of {key} failed");
            }
        }
        (ops, server)
    });
    report.setup_s = setup_s;
    let mut tracer = Tracer::new(run.trace, Instant::now());
    let bodies = reference_bodies(&ops.keys, &mut tracer);

    if !hot {
        let distance = min_reuse_distance(&ops.keys, &ops.conns[0]);
        if distance.is_some_and(|d| d < cache_capacity) {
            report.fail(format!(
                "reuse distance {distance:?} is within the cache capacity {cache_capacity}"
            ));
        }
    }

    let check = Check {
        targets: ops.keys.iter().map(target).collect(),
        bodies: &bodies,
        source: if hot { "cache" } else { "computed" },
    };
    let before = server.engine().stats();
    let (conns, percentiles, untraced, traced) = drive_serve(run, &server, &ops, &check);
    let after = server.engine().stats();
    report.passes = untraced;
    report.traced_passes = traced;

    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    let joins = after.dedup.joins - before.dedup.joins;
    let shed =
        (after.shaper.shed + after.shaper.timeouts) - (before.shaper.shed + before.shaper.timeouts);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let want_ratio = if hot { 1.0 } else { 0.0 };
    let tally = format!(
        "cache hit ratio {hit_ratio} (want {want_ratio}), {joins} dedup joins, {shed} shed"
    );
    if hit_ratio != want_ratio || joins != 0 || shed != 0 {
        report.fail(tally.clone());
    }
    report.lines.push(tally);

    let mut totals = Totals::default();
    totals.add(&tracer.into_spans());
    if percentiles.short > 0 {
        report.fail(format!(
            "{} passes of {} requests are too short for an exact p99",
            percentiles.short, percentiles.samples
        ));
    }
    report.latency = Some((percentiles.p50_ms, percentiles.p99_ms, percentiles.samples));
    let mut rtt_us: Vec<f64> = Vec::new();
    for conn in conns {
        report.attempted += conn.attempted;
        report.failed += conn.failed;
        report.errors.extend(conn.errors);
        totals.merge(&conn.totals);
        rtt_us.extend(conn.rtt_us);
    }
    rtt_us.sort_by(f64::total_cmp);

    let snapshot = server
        .engine()
        .obs()
        .metrics()
        .expect("metrics are on")
        .snapshot();
    let hist = |name: &str| {
        snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    };
    let engine = hist("serve.latency_us");
    let layer = &mut report.layer;
    let rtt_p50 = stats::percentile(&rtt_us, 0.5).unwrap_or(0.0);
    let engine_p50 = engine.map_or(0.0, |h| h.p50 as f64);
    layer.insert("serve.rtt_p50_us", rtt_p50);
    layer.insert("serve.engine_p50_us", engine_p50);
    layer.insert("serve.engine_p99_us", engine.map_or(0.0, |h| h.p99 as f64));
    layer.insert("serve.transport_p50_us", rtt_p50 - engine_p50);
    layer.insert(
        "serve.queue_wait_p99_us",
        hist("serve.queue_wait_us").map_or(0.0, |h| h.p99 as f64),
    );
    if let Some(steps) = hist("serve.ticket_steps") {
        // A ticket takes one read plus its CAS attempts: every step past
        // the second is a CAS retry.
        let retries = (steps.mean * steps.count as f64).round() - 2.0 * steps.count as f64;
        layer.insert("hardware.fai.cas_retries", retries);
        layer.insert("hardware.fai.retry_ratio", retries / steps.count as f64);
    }
    layer.insert("serve.cache.hit_ratio", hit_ratio);
    layer.insert(
        "serve.cache.evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    layer.insert("serve.dedup.joins", joins as f64);
    layer.insert("serve.shed", shed as f64);
    layer.insert("serve.compute.sim_ms", totals.total_ms("serve.compute.sim"));
    layer.insert(
        "serve.compute.chain_ms",
        totals.total_ms("serve.compute.chain"),
    );
    report.lines.push(format!(
        "keys {} distinct, {} connection(s) x {} requests per pass, cache capacity {cache_capacity}",
        ops.keys.len(),
        ops.conns.len(),
        ops.conns[0].len()
    ));
    report.totals = totals;
    server.shutdown();
    report
}

/// The `serve-hot` workload.
pub fn hot(run: &Run) -> Report {
    run_serve(run, hot_ops, EngineConfig::default().cache_capacity, true)
}

/// The `serve-cold` workload.
pub fn cold(run: &Run) -> Report {
    run_serve(run, cold_ops, COLD_CACHE_CAPACITY, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_deterministic_per_seed() {
        assert_eq!(hot_ops(7), hot_ops(7));
        assert_eq!(cold_ops(7), cold_ops(7));
        assert_ne!(hot_ops(7).conns, hot_ops(8).conns);
        assert_ne!(cold_ops(7).keys, cold_ops(8).keys);
    }

    #[test]
    fn each_connection_has_its_own_stream() {
        let ops = hot_ops(3);
        assert_eq!(ops.conns.len(), HOT_CONNS);
        assert_ne!(ops.conns[0], ops.conns[1]);
    }

    #[test]
    fn cold_cache_stays_below_the_reuse_distance() {
        for seed in [1, 2, 3, 0xDEAD_BEEF] {
            let ops = cold_ops(seed);
            let distance = min_reuse_distance(&ops.keys, &ops.conns[0]).expect("chain keys cycle");
            assert!(
                distance >= COLD_CACHE_CAPACITY,
                "reuse distance {distance} < capacity {COLD_CACHE_CAPACITY}"
            );
        }
    }

    #[test]
    fn cold_mix_is_four_sims_to_one_chain() {
        let ops = cold_ops(11);
        let chain = ops.conns[0]
            .iter()
            .filter(|&&k| ops.keys[k as usize].layer == Layer::Chain)
            .count();
        assert_eq!(chain * COLD_CHAIN_EVERY, COLD_REQUESTS);
    }

    #[test]
    fn reuse_distance_counts_distinct_keys_between() {
        let keys: Vec<PredictKey> = ["alg=fai&n=4", "alg=fai&n=5", "alg=fai&n=6"]
            .iter()
            .map(|q| parse(q))
            .collect();
        // a b a c  (doubled: a b a c a b a c)
        assert_eq!(min_reuse_distance(&keys, &[0, 1, 0, 2]), Some(1));
        assert_eq!(min_reuse_distance(&keys, &[0, 1, 2]), Some(2));
    }
}
