//! `serve_hot` and `serve_cold`: `POST /extract` against a
//! `recipe-serve` server in a child process.
//!
//! The child loads the `.rma` model (`ServeModel::load`), launches the
//! server with `ServeConfig::default()` except the address and
//! `shards = nproc`, and reports its set-up times, peak memory and the
//! server's own stage profile and counters on request. This process
//! generates the load and checks every response body byte for byte
//! against `entry_json(ServeModel::extract_ingredient(..))`.

use crate::client::{closed_loop, open_loop, Mode, Sample, REQUEST_TIMEOUT};
use crate::inputs::{self, Models, Request, Seeds, ServeInputs};
use crate::layers::{ns, replay_phrases, PhraseReplay};
use crate::stats::{median, min_samples_for, percentile, splitmix, supports};
use crate::trace::{self_times, Span, Tracer};
use crate::{nproc, Outcome};
use recipe_serve::{ServeConfig, ServeModel, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Server set-ups (load + launch) per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Fixed shape of one serving workload. Both open-loop rates sit well
/// under the closed-loop capacity of a 2-core host (about 1800 req/s
/// hot, 950 req/s cold): with `nproc` connections the generator itself
/// queues requests near the knee, and there run-to-run spread on a
/// shared host exceeded any usable bound.
#[derive(Debug, Clone, Copy)]
struct Shape {
    mode: Mode,
    /// The lower offered rate, requests/s.
    lo_rps: f64,
    /// The higher offered rate, requests/s.
    hi_rps: f64,
    /// Expected closed-loop capacity, requests/s: sizes the fixed
    /// request count of the capacity phase.
    cap_rps: f64,
}

const HOT: Shape = Shape {
    mode: Mode::KeepAlive,
    lo_rps: 400.0,
    hi_rps: 600.0,
    cap_rps: 1800.0,
};

const COLD: Shape = Shape {
    mode: Mode::Close,
    lo_rps: 200.0,
    hi_rps: 320.0,
    cap_rps: 950.0,
};

/// `serve_cold` warm-up requests (`serve_hot` warms with its pool).
const COLD_WARM: usize = 60;

/// Share of `--seconds` given to each open-loop phase and (at the
/// expected capacity) to the closed-loop capacity phase.
const LO_SHARE: f64 = 0.45;
const HI_SHARE: f64 = 0.3;
const CAP_SHARE: f64 = 0.15;

/// Rounds a serving run is cut into (see [`run`]).
const ROUNDS: usize = 5;

/// Requests in an open-loop phase: the phase's share of `--seconds`,
/// and at least enough to support a p99.
fn phase_len(rps: f64, seconds: f64, share: f64) -> usize {
    ((rps * seconds * share) as usize).max(min_samples_for(99.0))
}

/// Build the run's inputs for `shape`.
fn build_inputs(hot: bool, shape: &Shape, seeds: Seeds, seconds: f64) -> ServeInputs {
    let n_lo = phase_len(shape.lo_rps, seconds, LO_SHARE);
    let n_hi = phase_len(shape.hi_rps, seconds, HI_SHARE);
    let n_cap = (shape.cap_rps * seconds * CAP_SHARE) as usize;
    if hot {
        inputs::hot_inputs(seeds.input, n_lo, n_hi, n_cap)
    } else {
        inputs::cold_inputs(seeds.input, COLD_WARM, n_lo, n_hi, n_cap)
    }
}

/// A server child process and its control pipes.
struct ServerChild {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    setup_s: Vec<f64>,
}

/// Counters and stage totals the child reports.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    /// (count, ticks) of `serve/extract/{queue_wait,handle,write}`.
    queue_wait: (f64, f64),
    handle: (f64, f64),
    write: (f64, f64),
    accepted: f64,
    reuse: f64,
    shed: f64,
    batches: f64,
    batch_sum: f64,
    rss_mb: f64,
}

impl Snapshot {
    fn from_json(v: &serde_json::Value) -> Snapshot {
        let f = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        let pair = |k: &str| {
            let a = v.get(k).and_then(|x| x.as_array());
            let at = |i: usize| {
                a.and_then(|a| a.get(i))
                    .and_then(|x| x.as_f64())
                    .unwrap_or(0.0)
            };
            (at(0), at(1))
        };
        Snapshot {
            queue_wait: pair("queue_wait"),
            handle: pair("handle"),
            write: pair("write"),
            accepted: f("accepted"),
            reuse: f("reuse"),
            shed: f("shed"),
            batches: f("batches"),
            batch_sum: f("batch_sum"),
            rss_mb: f("rss_mb"),
        }
    }
}

impl ServerChild {
    fn spawn(model: &Path, reps: usize) -> ServerChild {
        let exe = std::env::current_exe().expect("locate own executable");
        let mut child = Command::new(exe)
            .args(["--child", "serve", "--model"])
            .arg(model)
            .args(["--reps", &reps.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn server process");
        let stdin = child.stdin.take().expect("child stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let hello = read_json_line(&mut stdout);
        let addr = hello
            .get("addr")
            .and_then(|a| a.as_str())
            .and_then(|a| a.parse().ok())
            .expect("server child reports its address");
        let setup_s = hello
            .get("setup_s")
            .and_then(|a| a.as_array())
            .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
            .unwrap_or_default();
        ServerChild {
            child,
            stdin,
            stdout,
            addr,
            setup_s,
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        writeln!(self.stdin, "snapshot").expect("write to server process");
        self.stdin.flush().expect("flush to server process");
        Snapshot::from_json(&read_json_line(&mut self.stdout))
    }

    fn quit(mut self) {
        let _ = writeln!(self.stdin, "quit");
        let _ = self.stdin.flush();
        drop(self.stdin);
        let status = self.child.wait().expect("wait for server process");
        assert!(status.success(), "server process failed: {status}");
    }
}

fn read_json_line(r: &mut impl BufRead) -> serde_json::Value {
    let mut line = String::new();
    r.read_line(&mut line).expect("read from server process");
    serde_json::from_str(line.trim()).expect("server process speaks JSON lines")
}

/// Child side: set up the server `reps` times (the last one stays up),
/// then answer `snapshot` / `quit` commands on stdin.
pub fn child_main(model: &str, reps: usize) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: nproc(),
        ..ServeConfig::default()
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut server = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = server.take() {
            let old: Server = old;
            old.request_shutdown();
            old.join();
        }
        let t0 = Instant::now();
        let loaded = ServeModel::load(model, false).expect("load .rma model");
        let s = Server::launch(&cfg, loaded, (model.to_string(), false)).expect("launch server");
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("server launched");
    let mut out = std::io::stdout().lock();
    let hello = serde_json::json!({ "addr": server.local_addr().to_string(), "setup_s": setup_s });
    writeln!(out, "{}", hello.to_compact_string()).expect("write hello");
    out.flush().expect("flush hello");
    for line in std::io::stdin().lock().lines() {
        let Ok(cmd) = line else { break };
        match cmd.trim() {
            "snapshot" => {
                let profile = server.profile();
                let stage = |name: &str| {
                    profile
                        .nodes
                        .iter()
                        .find(|n| n.path == ["serve", "extract", name])
                        .map(|n| [n.count as f64, n.total_ticks as f64])
                        .unwrap_or([0.0, 0.0])
                };
                let m = server.metrics();
                let snap = serde_json::json!({
                    "queue_wait": stage("queue_wait").to_vec(),
                    "handle": stage("handle").to_vec(),
                    "write": stage("write").to_vec(),
                    "accepted": m.accepted.get(),
                    "reuse": m.keepalive_reuse.get(),
                    "shed": m.shed.get(),
                    "batches": m.batch_size.count(),
                    "batch_sum": m.batch_size.sum(),
                    "rss_mb": crate::peak_rss_mb(),
                });
                writeln!(out, "{}", snap.to_compact_string()).expect("write snapshot");
                out.flush().expect("flush snapshot");
            }
            _ => break,
        }
    }
    server.request_shutdown();
    server.join();
}

/// Requests per latency window of an open-loop phase.
const WINDOW: usize = 500;

/// Latency percentiles of one open-loop phase, ms. The phase is cut
/// into consecutive windows of [`WINDOW`] requests and `p50_ms` is the
/// median of the windows' p50s, so a burst of host contention that
/// spans a few windows does not move it. p90 and p99 are over the whole
/// phase; they are reported, not gated, because on a shared 2-core host
/// their run-to-run spread exceeds any usable bound.
struct PhaseStats {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    lateness_p99_us: f64,
}

/// Per-request latency in seconds; a failed request counts as a miss at
/// the client timeout.
fn latencies(samples: &[Sample], ok: &[bool]) -> Vec<f64> {
    samples
        .iter()
        .zip(ok)
        .map(|(s, &good)| {
            if good {
                s.latency_s
            } else {
                REQUEST_TIMEOUT.as_secs_f64()
            }
        })
        .collect()
}

fn phase_stats(lat: &[f64], lateness: &[f64]) -> PhaseStats {
    let p50s: Vec<f64> = lat
        .chunks(WINDOW)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, 50.0)
        })
        .collect();
    let mut all = lat.to_vec();
    all.sort_by(f64::total_cmp);
    assert!(
        supports(all.len(), 99.0),
        "too few samples ({}) for p99",
        all.len()
    );
    let mut late = lateness.to_vec();
    late.sort_by(f64::total_cmp);
    PhaseStats {
        p50_ms: median(&p50s) * 1e3,
        p90_ms: percentile(&all, 90.0) * 1e3,
        p99_ms: percentile(&all, 99.0) * 1e3,
        lateness_p99_us: percentile(&late, 99.0) * 1e6,
    }
}

/// Body checker: the expected body of each distinct request, computed
/// on demand with an oracle model loaded from the same `.rma`.
struct Checker {
    oracle: ServeModel,
    expected: HashMap<Vec<u8>, Vec<u8>>,
    mismatches: u64,
}

impl Checker {
    fn new(model: &Path) -> Checker {
        Checker {
            oracle: ServeModel::load(&model.to_string_lossy(), false).expect("load oracle model"),
            expected: HashMap::new(),
            mismatches: 0,
        }
    }

    /// Per sample: served with status 200 and the exact expected body.
    fn check(&mut self, samples: &[Sample], reqs: &[Request]) -> Vec<bool> {
        samples
            .iter()
            .map(|s| {
                if s.status != 200 {
                    return false;
                }
                let req = &reqs[s.idx];
                let oracle = &self.oracle;
                let want = self
                    .expected
                    .entry(req.body.clone())
                    .or_insert_with(|| req.expected_body(oracle));
                let good = *want == s.body;
                if !good {
                    self.mismatches += 1;
                }
                good
            })
            .collect()
    }
}

fn bodies(reqs: &[Request]) -> Vec<Vec<u8>> {
    reqs.iter().map(|r| r.body.clone()).collect()
}

fn offsets(rps: f64, n: usize, seed: u64) -> Vec<f64> {
    recipe_bench::timing::arrival_offsets(rps, n, seed)
}

/// Send the warm-up: `serve_hot` sends each pool phrase once, serially;
/// `serve_cold` sends its warm-up recipes closed-loop.
fn warm_up(
    addr: SocketAddr,
    shape: &Shape,
    inputs: &ServeInputs,
    checker: &mut Checker,
) -> (u64, u64) {
    let threads = if shape.mode == Mode::KeepAlive {
        1
    } else {
        nproc()
    };
    let (samples, _) = closed_loop(addr, shape.mode, &bodies(&inputs.warm), threads);
    let ok = checker.check(&samples, &inputs.warm);
    (
        inputs.warm.len() as u64,
        ok.iter().filter(|&&g| !g).count() as u64,
    )
}

/// The `round`-th of [`ROUNDS`] consecutive slices of `reqs`.
fn round_slice(reqs: &[Request], round: usize) -> &[Request] {
    &reqs[round * reqs.len() / ROUNDS..(round + 1) * reqs.len() / ROUNDS]
}

/// One end-to-end serving run.
pub fn run(hot: bool, seeds: Seeds, models: &Models, seconds: f64) -> Outcome {
    let shape = if hot { HOT } else { COLD };
    let inputs = build_inputs(hot, &shape, seeds, seconds);
    let mut checker = Checker::new(&models.rma);
    let mut server = ServerChild::spawn(&models.rma, SETUP_REPS);
    let threads = nproc();
    let (mut attempted, mut failed) = warm_up(server.addr, &shape, &inputs, &mut checker);

    // Rounds: each offers a slice of the `lo` phase, a slice of the `hi`
    // phase and one capacity burst, so every metric samples the whole
    // run rather than one stretch of a host whose speed drifts.
    let mut lat = [Vec::new(), Vec::new()];
    let mut late = [Vec::new(), Vec::new()];
    let mut rates = Vec::new();
    for round in 0..ROUNDS {
        for (phase, (reqs, rps)) in [
            (round_slice(&inputs.lo, round), shape.lo_rps),
            (round_slice(&inputs.hi, round), shape.hi_rps),
        ]
        .into_iter()
        .enumerate()
        {
            let salt = (round * 2 + phase) as u64 + 1;
            let sched = offsets(rps, reqs.len(), splitmix(seeds.input ^ salt));
            let (samples, _) = open_loop(
                server.addr,
                shape.mode,
                &bodies(reqs),
                &sched,
                threads,
                None,
            );
            let ok = checker.check(&samples, reqs);
            attempted += reqs.len() as u64;
            failed += ok.iter().filter(|&&g| !g).count() as u64;
            lat[phase].extend(latencies(&samples, &ok));
            late[phase].extend(samples.iter().map(|s| s.lateness_s));
        }
        // Capacity: a fixed number of requests (a fixed amount of work,
        // so the phrase cache and the server's memory end each run in
        // the same state), closed-loop on `threads` connections.
        let reqs = round_slice(&inputs.cap, round);
        let (samples, elapsed) = closed_loop(server.addr, shape.mode, &bodies(reqs), threads);
        let ok = checker.check(&samples, reqs);
        attempted += reqs.len() as u64;
        failed += ok.iter().filter(|&&g| !g).count() as u64;
        rates.push(ok.iter().filter(|&&g| g).count() as f64 / elapsed);
    }
    let lo = phase_stats(&lat[0], &late[0]);
    let hi = phase_stats(&lat[1], &late[1]);

    let snap = server.snapshot();
    let setup_s = median(&server.setup_s);
    server.quit();

    let mut out = Outcome::new(attempted, failed, checker.mismatches == 0);
    out.metric("setup_s", setup_s);
    out.metric("rss_mb", snap.rss_mb);
    out.metric("p50_ms.lo", lo.p50_ms);
    out.metric("p50_ms.hi", hi.p50_ms);
    out.metric("ops_per_s", median(&rates));
    for (name, n, rps, st) in [
        ("lo", inputs.lo.len(), shape.lo_rps, &lo),
        ("hi", inputs.hi.len(), shape.hi_rps, &hi),
    ] {
        out.note(format!(
            "{name}: {n} req open-loop at {rps} req/s on {threads} connections; \
             p90_ms.{name} {:.4} ms, p99_ms.{name} {:.4} ms over {n} samples; generator p99 late {:.0} us",
            st.p90_ms, st.p99_ms, st.lateness_p99_us
        ));
    }
    out.note(format!(
        "capacity: {} req closed-loop in {ROUNDS} bursts; setup reps {SETUP_REPS}; failed_frac {:.6}",
        inputs.cap.len(),
        failed as f64 / attempted.max(1) as f64,
    ));
    out
}

/// Merge self-time aggregates of several span lists.
fn merged_self_times(
    lists: &[Vec<Span>],
) -> std::collections::BTreeMap<&'static str, crate::trace::Agg> {
    let mut out: std::collections::BTreeMap<&'static str, crate::trace::Agg> = Default::default();
    for spans in lists {
        for (name, a) in self_times(spans) {
            let e = out.entry(name).or_default();
            e.count += a.count;
            e.total_ns += a.total_ns;
            e.self_ns += a.self_ns;
        }
    }
    out
}

/// Per-request mean of a server stage between two snapshots, µs.
fn stage_us(a: (f64, f64), b: (f64, f64)) -> f64 {
    let n = b.0 - a.0;
    if n > 0.0 {
        (b.1 - a.1) / n * 1e6 / recipe_obs::window::TICKS_PER_SEC as f64
    } else {
        0.0
    }
}

/// The traced serving run: replays the warm-up and the `lo` phase
/// against a fresh server with the client split recorded, joins it with
/// the server's stage profile, then replays the same phrases through
/// the layers' public functions (untraced, then traced) on a model
/// loaded from the same `.rma`.
pub fn trace_run(
    hot: bool,
    seeds: Seeds,
    models: &Models,
    seconds: f64,
    trace_path: &Path,
) -> Outcome {
    let shape = if hot { HOT } else { COLD };
    let inputs = build_inputs(hot, &shape, seeds, seconds);
    let mut out = Outcome::new(0, 0, true);

    // Artifact cold open: read + structural parse, then the CRC pass.
    let artifact_bytes = std::fs::metadata(&models.rma)
        .expect("stat model.rma")
        .len();
    let (mut load_ms, mut crc_ms) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let bytes = std::fs::read(&models.rma).expect("read model.rma");
        let a =
            recipe_core::ArtifactPipeline::from_bytes(bytes.into(), false).expect("open model.rma");
        let t1 = Instant::now();
        a.verify_crc().expect("model.rma CRC");
        load_ms.push((t1 - t0).as_secs_f64() * 1e3);
        crc_ms.push(t1.elapsed().as_secs_f64() * 1e3);
    }

    // Served replay with the client split.
    let mut checker = Checker::new(&models.rma);
    let mut server = ServerChild::spawn(&models.rma, 1);
    let (warm_attempted, warm_failed) = warm_up(server.addr, &shape, &inputs, &mut checker);
    let a = server.snapshot();
    let origin = Instant::now();
    let sched = offsets(shape.lo_rps, inputs.lo.len(), splitmix(seeds.input ^ 1));
    let (samples, client_spans) = open_loop(
        server.addr,
        shape.mode,
        &bodies(&inputs.lo),
        &sched,
        nproc(),
        Some(origin),
    );
    let b = server.snapshot();
    server.quit();
    let ok = checker.check(&samples, &inputs.lo);
    out.attempted = warm_attempted + inputs.lo.len() as u64;
    out.failed = warm_failed + ok.iter().filter(|&&g| !g).count() as u64;
    out.correct = checker.mismatches == 0;
    let lo = phase_stats(
        &latencies(&samples, &ok),
        &samples.iter().map(|s| s.lateness_s).collect::<Vec<_>>(),
    );

    let n = inputs.lo.len() as f64;
    let client = merged_self_times(&client_spans);
    let per_req_us = |name: &str| ns(&client, name).0 / n / 1e3;
    let request_us = per_req_us("client.request");
    let (qw, handle, write) = (
        stage_us(a.queue_wait, b.queue_wait),
        stage_us(a.handle, b.handle),
        stage_us(a.write, b.write),
    );
    let unattributed = request_us - (qw + handle + write);
    let served_reqs = (b.accepted - a.accepted) + (b.reuse - a.reuse);
    out.metric("serve.connect_us", per_req_us("client.connect"));
    out.metric("serve.ttfb_us", per_req_us("client.ttfb"));
    out.metric("serve.last_byte_us", per_req_us("client.body"));
    out.metric("serve.queue_wait_us", qw);
    out.metric("serve.handle_us", handle);
    out.metric("serve.write_us", write);
    out.metric("serve.unattributed_us", unattributed);
    out.metric(
        "serve.keepalive_reuse_frac",
        if served_reqs > 0.0 {
            (b.reuse - a.reuse) / served_reqs
        } else {
            0.0
        },
    );
    out.metric(
        "serve.batch_size_mean",
        if b.batches > a.batches {
            (b.batch_sum - a.batch_sum) / (b.batches - a.batches)
        } else {
            0.0
        },
    );
    out.metric("serve.shed", b.shed - a.shed);
    out.metric("client.lateness_p99_us", lo.lateness_p99_us);

    // Library replay of the same phrase sequence, on the checker's model
    // (each replay starts from cleared caches).
    let oracle = &checker.oracle;
    let ServeModel::Rma(pipeline) = oracle else {
        unreachable!("model.rma sniffs as an artifact")
    };
    let inf = &pipeline.inference;
    let warm: Vec<&[String]> = inputs.warm.iter().map(|r| r.phrases.as_slice()).collect();
    let measured: Vec<&[String]> = inputs.lo.iter().map(|r| r.phrases.as_slice()).collect();
    let replay_once = |traced: bool| {
        inf.clear_caches();
        let mut replay = PhraseReplay::new(&pipeline.pre, inf);
        replay_phrases(&mut replay, &mut Tracer::new(origin, false), &warm);
        let before = inf.ingredient_cache_stats();
        replay.tokens = 0;
        let mut tr = Tracer::new(origin, traced);
        let (entries, wall) = replay_phrases(&mut replay, &mut tr, &measured);
        let after = inf.ingredient_cache_stats();
        (entries, wall, tr.into_spans(), replay.tokens, before, after)
    };
    // The first pass warms allocator and CPU caches; it is not timed.
    replay_once(false);
    let (_, wall_untraced, _, _, _, _) = replay_once(false);
    let (entries, wall_traced, lib_spans, tokens, before, after) = replay_once(true);
    let expected: Vec<_> = measured
        .iter()
        .flat_map(|ps| ps.iter())
        .map(|p| oracle.extract_ingredient(p))
        .collect();
    if entries != expected {
        out.correct = false;
        out.failed += 1;
    }
    let lib = self_times(&lib_spans);
    let per = |name: &str| ns(&lib, name).0 / n / 1e3;
    let decode = per("ner.decode");
    let assembly = per("core.entry_assembly");
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    out.metric("text.preprocess_us", per("text.preprocess"));
    out.metric("ner.decode_us", decode);
    out.metric("ner.tokens", tokens as f64 / n);
    out.metric(
        "core.ingredient_entry_us",
        (per("core.ingredient_entry") - decode - assembly).max(0.0),
    );
    out.metric("core.entry_assembly_us", assembly);
    out.metric(
        "core.cache_hit_frac",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.metric(
        "core.cache_rejected_inserts",
        inf.metrics_registry()
            .counter("cache.ingredient.rejected_inserts")
            .get() as f64,
    );
    for name in [
        "parser.parse_us",
        "tagger.tag_us",
        "ner.instruction_decode_us",
        "core.events_self_us",
        "runtime.parallel_efficiency",
        "core.json_load_ms",
    ] {
        out.metric(name, 0.0);
    }
    out.metric("artifact.load_ms", median(&load_ms));
    out.metric("artifact.crc_ms", median(&crc_ms));
    out.metric("artifact.bytes", artifact_bytes as f64);
    out.metric("trace.overhead_frac", wall_traced / wall_untraced - 1.0);
    out.metric(
        "trace.unattributed_frac",
        if request_us > 0.0 {
            unattributed / request_us
        } else {
            0.0
        },
    );

    let sent = inputs.warm.iter().chain(&inputs.lo).chain(&inputs.hi);
    let props = inputs::input_props(sent.map(|r| r.phrases.as_slice()), &models.train_phrases);
    if !hot {
        assert_eq!(props.repeated_phrases, 0.0, "serve_cold repeated a phrase");
    }
    out.input_props(&props);
    out.note(format!(
        "traced replay: {} requests at {} req/s; client request mean {request_us:.1} us; \
         server stages {:.1} us; library replay untraced {wall_untraced:.3} s, traced {wall_traced:.3} s; \
         spans in {}",
        inputs.lo.len(),
        shape.lo_rps,
        qw + handle + write,
        trace_path.display()
    ));
    let mut lists = client_spans;
    lists.push(lib_spans);
    crate::trace::write_spans(trace_path, &lists).expect("write spans");
    out
}
