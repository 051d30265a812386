//! `recipe-serve`: the online serving layer — a std-only HTTP/1.1
//! front end over the compiled [`Inference`] bundle.
//!
//! Architecture (DESIGN.md §15):
//!
//! - **One acceptor, N shard-per-core workers.** The acceptor thread
//!   owns the listener and pushes accepted connections onto a bounded
//!   queue; each worker thread drains the queue independently, so a
//!   slow request only stalls its own shard.
//! - **One request per dequeue.** A worker blocks on the queue, pins
//!   the current model handle, and serves that one connection, so a
//!   request's queue wait is only the time it waits for a free worker.
//! - **Backpressure.** When the queue is full the acceptor sheds the
//!   connection immediately with `503 + Retry-After` instead of
//!   queueing unbounded work.
//! - **Atomic hot-swap.** The model lives behind `RwLock<Arc<…>>`;
//!   workers pin one `Arc` per request, so a concurrent swap
//!   ([`Server::swap_model`] or `POST /admin/reload`) never corrupts
//!   an in-flight response — old requests finish on the old model.
//! - **Graceful drain.** `POST /admin/shutdown` (or
//!   [`Server::request_shutdown`]) stops the acceptor, closes the
//!   queue, and lets workers drain what was already admitted. There is
//!   no signal handling — the workspace is std-only — so process
//!   supervisors should use the endpoint.
//! - **Keep-alive via waiter threads.** The acceptor blocks in `accept`
//!   (shutdown wakes it with a loopback connect). After a keep-alive
//!   response the worker parks the connection on a small thread blocked
//!   in `peek`, which re-admits it as a fresh request (new id, new
//!   arrival stamp) the moment bytes show up — bounded by a request
//!   cap, the idle timeout and `queue_cap` parked connections, so a
//!   parked socket can never pin a worker.
//! - **Observability.** Every request is minted an id at admission
//!   (echoed as `X-Request-Id`) and stamped through its lifecycle
//!   (queue wait → handle → write) on the injected [`Clock`];
//!   sliding-window mirrors feed the telemetry `windows` block, a
//!   multi-window multi-burn-rate [`SloEngine`] scores availability and
//!   latency objectives, the slowest requests land in the `/admin/slow`
//!   exemplar table, and sampled `/extract` traffic streams into the
//!   [`drift::DriftMonitor`] for PSI scoring against the model's frozen
//!   reference distribution. An always-on [`Profiler`] attributes every
//!   request's queue-wait / handle / write ticks to its endpoint
//!   (`GET /admin/profile`) — three uncontended map bumps per request,
//!   cheap enough to leave on in production (the `sustained_load` bench
//!   gates the overhead).
//!
//! Endpoints: `POST /extract`, `POST /explain`, `GET /healthz`,
//! `GET /metrics` (a schema-valid `recipe-mine stats` telemetry
//! document), `GET /admin/slo`, `GET /admin/slow`,
//! `GET /admin/profile`, `POST /admin/reload`, `POST /admin/shutdown`.
//! Responses render entries through the same [`entry_json`] as the
//! batch CLI, so served extractions are byte-identical to
//! `recipe-mine extract`.

pub mod drift;
pub mod http;
pub mod metrics;
pub mod model;
pub mod queue;

pub use drift::DriftMonitor;
pub use metrics::ServeMetrics;
pub use model::{entry_json, ModelError, ServeModel};

use queue::{BoundedQueue, PushError};
use recipe_obs::profile::Profiler;
use recipe_obs::slo::{BurnWindow, Objective, SloEngine};
use recipe_obs::window::{Clock, MonotonicClock, TICKS_PER_SEC};
use serde_json::json;
use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection read/write timeout: a stalled client cannot hold a
/// worker longer than this.
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// Bounded size of the slowest-request exemplar table.
const SLOW_TABLE_CAP: usize = 32;

/// Acceptor back-off after a failed `accept` (e.g. EMFILE).
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(1);

/// Stack of a keep-alive waiter thread (it only peeks, then admits).
const WAITER_STACK: usize = 64 * 1024;

/// Server tuning knobs. [`ServeConfig::default`] is the one place the
/// default of each knob is written; `recipe-mine serve` flags override
/// it field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 for ephemeral).
    pub addr: String,
    /// Worker shard count; 0 means [`recipe_runtime::default_threads`].
    pub shards: usize,
    /// Bounded queue capacity (admission-control depth); also caps the
    /// number of parked keep-alive connections.
    pub queue_cap: usize,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
    /// Max requests served on one keep-alive connection before the
    /// server closes it (bounds how long one socket can recycle).
    pub keepalive_max_requests: u32,
    /// How long a parked keep-alive connection may sit idle before the
    /// server closes it, milliseconds.
    pub keepalive_idle_ms: u64,
    /// Collect windowed metrics, SLO outcomes, slow-request exemplars
    /// and drift samples. Off leaves only the cumulative counters (the
    /// `sustained_load` bench compares the two to gate overhead).
    pub monitoring: bool,
    /// Sample every Nth `/extract` request for drift scoring
    /// (`0` disables sampling).
    pub drift_sample: u64,
    /// Availability SLO target (good requests / total) in `(0.0, 1.0)`.
    pub slo_availability: f64,
    /// A request slower than this (seconds) counts against the latency
    /// SLO objective.
    pub slo_latency_s: f64,
    /// Attribute per-request lifecycle ticks to endpoints in the
    /// always-on [`Profiler`] behind `GET /admin/profile`. Independent
    /// of `monitoring` so the profiler-overhead gate can isolate it.
    pub profiling: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            shards: 0,
            queue_cap: 128,
            retry_after_secs: 1,
            keepalive_max_requests: 64,
            keepalive_idle_ms: 5_000,
            monitoring: true,
            drift_sample: 8,
            slo_availability: 0.999,
            slo_latency_s: 0.25,
            profiling: true,
        }
    }
}

/// One admitted request: the connection plus the id and arrival tick
/// minted at admission (accept or keep-alive re-arm), so the latency
/// histogram covers queue wait as well as decode.
struct Conn {
    stream: TcpStream,
    /// Server-unique request id, echoed as `X-Request-Id`.
    id: u64,
    /// Admission tick on the shared [`Clock`].
    arrived_ticks: u64,
    /// Requests already served on this connection (keep-alive reuse).
    reused: u32,
}

/// One `/admin/slow` exemplar: the lifecycle breakdown of a slow
/// request (all stamps from the shared [`Clock`], seconds).
#[derive(Debug, Clone)]
struct SlowEntry {
    id: u64,
    path: String,
    status: u16,
    queue_wait_s: f64,
    handle_s: f64,
    write_s: f64,
    total_s: f64,
}

/// State shared by the acceptor, the workers and the [`Server`] handle.
struct Shared {
    model: RwLock<Arc<ServeModel>>,
    /// (path, quantized) the current model was loaded from; the
    /// default source for `POST /admin/reload`.
    model_source: Mutex<(String, bool)>,
    metrics: ServeMetrics,
    queue: BoundedQueue<Conn>,
    shutdown: AtomicBool,
    /// The bound listener address; [`begin_shutdown`] connects to it to
    /// wake the blocked acceptor.
    addr: SocketAddr,
    /// Provenance is a process-global store, so `/explain` requests
    /// (and drift sampling) must serialize across shards.
    explain_lock: Mutex<()>,
    /// The tick source every stamp, window and SLO counter shares.
    clock: Arc<dyn Clock>,
    /// Request-id mint (ids start at 1).
    next_request_id: AtomicU64,
    /// Free parked-connection slots (starts at the queue capacity).
    park_slots: AtomicUsize,
    /// Burn-rate engine over availability and latency objectives.
    slo: SloEngine,
    idx_availability: usize,
    idx_latency: usize,
    /// Live drift monitor; `None` when the model carries no reference
    /// or monitoring is off. Rebuilt on hot-swap.
    drift: RwLock<Option<Arc<DriftMonitor>>>,
    /// Slowest-request exemplars, bounded at [`SLOW_TABLE_CAP`].
    slow: Mutex<Vec<SlowEntry>>,
    /// `/extract` request sequence for drift sampling.
    extract_seq: AtomicU64,
    monitoring: bool,
    /// Endpoint-level tick attribution behind `GET /admin/profile`.
    profiler: Profiler,
    profiling: bool,
    /// The latency-SLO threshold requests are scored against, seconds.
    latency_slo_s: f64,
    keepalive_max_requests: u32,
    keepalive_idle: Duration,
    drift_sample: u64,
    shards: usize,
    retry_after_secs: u32,
}

/// A running server: handle for swap/shutdown/join.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and worker shards, and return
    /// immediately. `model_source` records where `model` came from so
    /// `POST /admin/reload` without a body can re-read it.
    pub fn launch(
        cfg: &ServeConfig,
        model: ServeModel,
        model_source: (String, bool),
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shards = if cfg.shards == 0 {
            recipe_runtime::default_threads()
        } else {
            cfg.shards
        };
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock);
        // CLI parsing validates the SLO knobs; clamp here too so a
        // programmatic config can't build a vacuous or infinite-burn
        // objective.
        let defaults = ServeConfig::default();
        let slo_availability = if cfg.slo_availability > 0.0 && cfg.slo_availability < 1.0 {
            cfg.slo_availability
        } else {
            defaults.slo_availability
        };
        let latency_slo_s = if cfg.slo_latency_s > 0.0 {
            cfg.slo_latency_s
        } else {
            defaults.slo_latency_s
        };
        let slo = SloEngine::new(
            Arc::clone(&clock),
            vec![
                Objective::new("availability", slo_availability),
                Objective::new("latency", 0.99),
            ],
            &BurnWindow::production(),
        );
        let idx_availability = slo.objective_index("availability").unwrap_or(0);
        let idx_latency = slo.objective_index("latency").unwrap_or(0);
        let drift = if cfg.monitoring {
            model
                .drift_reference()
                .map(|r| Arc::new(DriftMonitor::new(Arc::clone(&clock), r)))
        } else {
            None
        };
        let shared = Arc::new(Shared {
            model: RwLock::new(Arc::new(model)),
            model_source: Mutex::new(model_source),
            metrics: ServeMetrics::new(Arc::clone(&clock)),
            queue: BoundedQueue::new(cfg.queue_cap),
            shutdown: AtomicBool::new(false),
            addr,
            explain_lock: Mutex::new(()),
            clock,
            next_request_id: AtomicU64::new(0),
            park_slots: AtomicUsize::new(cfg.queue_cap.max(1)),
            slo,
            idx_availability,
            idx_latency,
            drift: RwLock::new(drift),
            slow: Mutex::new(Vec::new()),
            extract_seq: AtomicU64::new(0),
            monitoring: cfg.monitoring,
            profiler: Profiler::new("monotonic"),
            profiling: cfg.profiling,
            latency_slo_s,
            keepalive_max_requests: cfg.keepalive_max_requests.max(1),
            keepalive_idle: Duration::from_millis(cfg.keepalive_idle_ms)
                .max(Duration::from_micros(1)),
            drift_sample: cfg.drift_sample,
            shards,
            retry_after_secs: cfg.retry_after_secs,
        });
        let workers = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_worker(&shared, shard))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_acceptor(&shared, &listener))
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The serving metrics registry (merged into `/metrics`).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Snapshot the per-endpoint request profile (what
    /// `GET /admin/profile` serves). Empty when profiling is off.
    pub fn profile(&self) -> recipe_obs::Profile {
        self.shared.profiler.snapshot()
    }

    /// Number of worker shards actually spawned (after resolving 0 to
    /// the runtime's default thread count).
    pub fn shards(&self) -> usize {
        self.shared.shards
    }

    /// Atomically install a new model. In-flight requests finish on the
    /// model they pinned; later requests see the new one.
    pub fn swap_model(&self, model: ServeModel) {
        install_model(&self.shared, model);
    }

    /// Ask the server to stop accepting and drain admitted work.
    pub fn request_shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// True once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the acceptor and every worker shard have exited
    /// (i.e. shutdown was requested and admitted work has drained).
    /// Keep-alive waiter threads are detached: each ends within the idle
    /// timeout, closing its connection.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Swap the shared model slot, rebuild the drift monitor for the new
/// model's reference, and count the hot-swap.
fn install_model(shared: &Shared, model: ServeModel) {
    let drift = if shared.monitoring {
        model
            .drift_reference()
            .map(|r| Arc::new(DriftMonitor::new(Arc::clone(&shared.clock), r)))
    } else {
        None
    };
    let mut slot = shared.model.write().unwrap_or_else(|p| p.into_inner());
    *slot = Arc::new(model);
    drop(slot);
    let mut d = shared.drift.write().unwrap_or_else(|p| p.into_inner());
    *d = drift;
    drop(d);
    shared.metrics.hot_swaps.inc();
}

/// Set the shutdown flag and wake the acceptor out of its blocking
/// `accept` with one loopback connect. Only the first call wakes.
fn begin_shutdown(shared: &Shared) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&wake_addr(shared.addr), Duration::from_secs(1));
    }
}

/// The address that reaches a listener bound to `addr`: an unspecified
/// IP (`0.0.0.0` / `[::]`) maps to the loopback of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Acceptor loop: block in `accept` and admit or shed each connection,
/// until shutdown. Closing the queue on exit is what lets the workers
/// drain and stop.
fn run_acceptor(shared: &Shared, listener: &TcpListener) {
    recipe_obs::event::set_thread_name("serve-acceptor");
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.metrics.accepted.inc();
                admit(shared, stream, 0);
                shared.metrics.queue_depth.set(shared.queue.depth() as f64);
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    shared.queue.close();
}

/// Admit one request: mint its id and arrival stamp and queue it, or
/// shed it when the queue is full. `reused` counts the requests already
/// served on the connection. Only a waiter can find the queue closed
/// (the acceptor closes it on exit); its connection is dropped.
fn admit(shared: &Shared, stream: TcpStream, reused: u32) {
    let conn = Conn {
        stream,
        id: shared.next_request_id.fetch_add(1, Ordering::SeqCst) + 1,
        arrived_ticks: shared.clock.now_ticks(),
        reused,
    };
    if let Err(PushError::Full(conn)) = shared.queue.try_push(conn) {
        shed(shared, conn.stream);
    }
}

/// Park a keep-alive connection (its slot already reserved) on a
/// detached waiter thread: the moment bytes arrive it is re-admitted as
/// a fresh request (new id, new arrival stamp — the reuse counter is the
/// only memory of the previous request). EOF, a transport error or the
/// idle timeout close it; so does a failed spawn.
fn park_connection(shared: &Arc<Shared>, stream: TcpStream, reused: u32) {
    let waiter = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .stack_size(WAITER_STACK)
        .spawn(move || {
            let mut probe = [0u8; 1];
            let ready = stream.set_read_timeout(Some(waiter.keepalive_idle)).is_ok()
                && matches!(stream.peek(&mut probe), Ok(n) if n > 0);
            waiter.park_slots.fetch_add(1, Ordering::SeqCst);
            if ready {
                waiter.metrics.keepalive_reuse.inc();
                admit(&waiter, stream, reused);
            }
        });
    if spawned.is_err() {
        shared.park_slots.fetch_add(1, Ordering::SeqCst);
    }
}

/// Worker shard loop: one request per dequeue, served against the
/// model pinned at dequeue time.
fn run_worker(shared: &Arc<Shared>, shard: usize) {
    recipe_obs::event::set_thread_name(&format!("serve-worker-{shard}"));
    while let Some(conn) = shared.queue.pop_blocking() {
        shared.metrics.queue_depth.set(shared.queue.depth() as f64);
        shared.metrics.batch_size.record(1.0);
        // A concurrent hot-swap replaces the slot, not this Arc, so the
        // response is computed against one consistent model.
        let model = Arc::clone(&shared.model.read().unwrap_or_else(|p| p.into_inner()));
        shared.metrics.begin_request();
        serve_connection(shared, &model, conn);
        shared.metrics.end_request();
    }
}

/// Read one request off the connection, dispatch it, write the
/// response, and either park the connection for keep-alive reuse or
/// close it. Records the request's lifecycle (latency histograms,
/// windowed mirrors, SLO outcomes, slow-table exemplar) from the tick
/// stamps minted on the shared clock. Transport errors are dropped —
/// the peer is gone.
fn serve_connection(shared: &Arc<Shared>, model: &ServeModel, conn: Conn) {
    let Conn {
        stream,
        id,
        arrived_ticks,
        reused,
    } = conn;
    let dequeued_ticks = shared.clock.now_ticks();
    let _ = stream.set_read_timeout(Some(STREAM_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let (mut resp, client_keep_alive, path) = match http::read_request(&mut reader) {
        Ok(req) => {
            let resp = handle_request(shared, model, &req);
            (resp, req.keep_alive, req.path)
        }
        Err(http::HttpError::Closed) => return,
        Err(e) => (error_response(&e), false, String::new()),
    };
    resp.request_id = Some(id);
    // Decide reuse before writing: the Connection header must match
    // what the server will actually do with the socket. Bytes already
    // buffered past this request (a pipelined request) would be lost
    // with the reader, so such a connection is closed, not parked; so
    // is one that finds no free parked slot.
    let keep = client_keep_alive
        && reused + 1 < shared.keepalive_max_requests
        && reader.buffer().is_empty()
        && shared
            .park_slots
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
    let handled_ticks = shared.clock.now_ticks();
    let mut stream = reader.into_inner();
    let wrote = http::write_response(&mut stream, &resp, keep).is_ok();
    let done_ticks = shared.clock.now_ticks();
    // Resolved before `path` moves into the slow-table exemplar below.
    let endpoint = profile_endpoint(&path);
    let total_s = done_ticks.saturating_sub(arrived_ticks) as f64 / TICKS_PER_SEC as f64;
    shared.metrics.latency.record(total_s);
    if shared.monitoring {
        shared.metrics.w_requests.inc();
        if resp.status >= 400 {
            shared.metrics.w_errors.inc();
        }
        shared.metrics.w_latency.record(total_s);
        shared
            .slo
            .record_at(shared.idx_availability, wrote && resp.status < 500);
        shared
            .slo
            .record_at(shared.idx_latency, total_s <= shared.latency_slo_s);
        record_slow(
            shared,
            SlowEntry {
                id,
                path,
                status: resp.status,
                queue_wait_s: dequeued_ticks.saturating_sub(arrived_ticks) as f64
                    / TICKS_PER_SEC as f64,
                handle_s: handled_ticks.saturating_sub(dequeued_ticks) as f64
                    / TICKS_PER_SEC as f64,
                write_s: done_ticks.saturating_sub(handled_ticks) as f64 / TICKS_PER_SEC as f64,
                total_s,
            },
        );
    }
    if shared.profiling {
        // Endpoint names are normalized (bounded cardinality even under
        // 404 scans), and the stage split mirrors the `/admin/slow`
        // lifecycle breakdown so the two views cross-check.
        let wait = dequeued_ticks.saturating_sub(arrived_ticks);
        let handle = handled_ticks.saturating_sub(dequeued_ticks);
        let write = done_ticks.saturating_sub(handled_ticks);
        shared
            .profiler
            .record(&["serve", endpoint, "queue_wait"], wait);
        shared
            .profiler
            .record(&["serve", endpoint, "handle"], handle);
        shared.profiler.record(&["serve", endpoint, "write"], write);
    }
    if wrote && keep {
        park_connection(shared, stream, reused + 1);
    } else if keep {
        shared.park_slots.fetch_add(1, Ordering::SeqCst);
    }
}

/// Normalize a request path to a bounded endpoint label for the
/// profiler (same buckets as [`ServeMetrics::endpoint`]).
fn profile_endpoint(path: &str) -> &'static str {
    match path {
        "/extract" => "extract",
        "/explain" => "explain",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        p if p.starts_with("/admin/") => "admin",
        _ => "other",
    }
}

/// Keep the slowest [`SLOW_TABLE_CAP`] requests by total latency:
/// replace the current minimum once the table is full.
fn record_slow(shared: &Shared, entry: SlowEntry) {
    let mut table = shared.slow.lock().unwrap_or_else(|p| p.into_inner());
    if table.len() < SLOW_TABLE_CAP {
        table.push(entry);
        return;
    }
    let mut min_idx = 0;
    for (i, e) in table.iter().enumerate() {
        if e.total_s < table[min_idx].total_s {
            min_idx = i;
        }
    }
    if entry.total_s > table[min_idx].total_s {
        table[min_idx] = entry;
    }
}

/// Shed one connection with `503 + Retry-After`. Drains whatever
/// request bytes already arrived (without blocking), then half-closes
/// after the response: request bytes that arrive later make the close
/// send a reset, and the FIN ahead of it keeps the 503 readable.
fn shed(shared: &Shared, stream: TcpStream) {
    shared.metrics.shed.inc();
    if shared.monitoring {
        shared.metrics.w_shed.inc();
        shared.slo.record_at(shared.idx_availability, false);
    }
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let mut scratch = [0u8; 4096];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut scratch) {
        if n == 0 {
            break;
        }
    }
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let mut resp =
        http::Response::json(503, render(&json!({ "error": "queue full", "shed": true })));
    resp.retry_after = Some(shared.retry_after_secs);
    let _ = http::write_response(&mut stream, &resp, false);
    let _ = stream.shutdown(Shutdown::Write);
}

/// Map a framing error onto a response.
fn error_response(e: &http::HttpError) -> http::Response {
    let status = match e {
        http::HttpError::BadRequest(_) => 400,
        http::HttpError::HeadersTooLarge | http::HttpError::BodyTooLarge => 413,
        http::HttpError::TransferEncoding => 501,
        http::HttpError::Closed | http::HttpError::Io(_) => 400,
    };
    http::Response::json(status, render(&json!({ "error": e.to_string() })))
}

/// Pretty-print a JSON value with the CLI's trailing-newline framing.
fn render(v: &serde_json::Value) -> String {
    match serde_json::to_string_pretty(v) {
        Ok(text) => format!("{text}\n"),
        Err(_) => "{}\n".to_string(),
    }
}

fn err_json(why: &str) -> String {
    render(&json!({ "error": why }))
}

/// Route one parsed request to its endpoint handler and keep the
/// per-endpoint request/error counters.
fn handle_request(shared: &Shared, model: &ServeModel, req: &http::Request) -> http::Response {
    let counters = shared.metrics.endpoint(&req.path);
    counters.requests.inc();
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/extract") => handle_extract(shared, model, &req.body),
        ("POST", "/explain") => handle_explain(shared, model, &req.body),
        ("GET", "/healthz") => handle_healthz(shared, model),
        ("GET", "/metrics") => handle_metrics(shared, model),
        ("GET", "/admin/slo") => handle_slo(shared),
        ("GET", "/admin/slow") => handle_slow(shared),
        ("GET", "/admin/profile") => handle_profile(shared),
        ("POST", "/admin/reload") => handle_reload(shared, &req.body),
        ("POST", "/admin/shutdown") => handle_shutdown(shared),
        (
            _,
            "/extract" | "/explain" | "/healthz" | "/metrics" | "/admin/slo" | "/admin/slow"
            | "/admin/profile" | "/admin/reload" | "/admin/shutdown",
        ) => http::Response::json(405, err_json("method not allowed")),
        _ => http::Response::json(404, err_json("no such endpoint")),
    };
    if resp.status >= 400 {
        counters.errors.inc();
    }
    resp
}

/// Parse a `{"phrases": [...]}` body into borrowed strs.
fn parse_phrases(body: &[u8]) -> Result<(serde_json::Value, usize), http::Response> {
    let text = std::str::from_utf8(body)
        .map_err(|_| http::Response::json(400, err_json("body is not UTF-8")))?;
    let parsed: serde_json::Value = serde_json::from_str(text)
        .map_err(|e| http::Response::json(400, err_json(&format!("body is not JSON: {e:?}"))))?;
    let n = match parsed.get("phrases").and_then(|v| v.as_array()) {
        Some(arr) if arr.iter().all(|p| p.as_str().is_some()) => arr.len(),
        _ => {
            return Err(http::Response::json(
                400,
                err_json("body must be {\"phrases\": [\"...\"]}"),
            ))
        }
    };
    Ok((parsed, n))
}

fn phrase_at(parsed: &serde_json::Value, i: usize) -> &str {
    parsed
        .get("phrases")
        .and_then(|v| v.as_array())
        .and_then(|arr| arr.get(i))
        .and_then(|p| p.as_str())
        .unwrap_or("")
}

/// `POST /extract`: decode each phrase and render rows exactly like
/// the batch CLI (`{"phrase", "entry"}` through [`entry_json`]).
///
/// Every [`ServeConfig::drift_sample`]th request is additionally run
/// with provenance recording on (only when the explain lock is free —
/// sampling never blocks the hot path) and its margin/label/cache
/// records stream into the [`DriftMonitor`]. Provenance recording
/// never changes extraction output, so sampled responses stay
/// byte-identical.
fn handle_extract(shared: &Shared, model: &ServeModel, body: &[u8]) -> http::Response {
    let (parsed, n) = match parse_phrases(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let seq = shared.extract_seq.fetch_add(1, Ordering::SeqCst);
    let drift = if shared.monitoring && shared.drift_sample > 0 && seq % shared.drift_sample == 0 {
        shared
            .drift
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    } else {
        None
    };
    let guard = drift
        .as_ref()
        .and_then(|_| shared.explain_lock.try_lock().ok());
    let sampling = guard.is_some();
    if sampling {
        recipe_obs::provenance::reset();
        recipe_obs::provenance::set_enabled(true);
    }
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let p = phrase_at(&parsed, i);
        let e = model.extract_ingredient(p);
        rows.push(json!({ "phrase": p, "entry": entry_json(&e) }));
    }
    if sampling {
        recipe_obs::provenance::set_enabled(false);
        let records = recipe_obs::provenance::drain();
        if let Some(monitor) = &drift {
            monitor.observe(&records);
        }
    }
    drop(guard);
    http::Response::json(200, render(&json!({ "results": rows })))
}

/// `POST /explain`: like the CLI `explain` command — per-phrase
/// provenance (Viterbi margins, cache origin, dictionary votes). The
/// provenance store is process-global, so requests serialize on
/// `explain_lock` across shards.
fn handle_explain(shared: &Shared, model: &ServeModel, body: &[u8]) -> http::Response {
    let (parsed, n) = match parse_phrases(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let _guard = shared
        .explain_lock
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let p = phrase_at(&parsed, i);
        recipe_obs::provenance::reset();
        recipe_obs::provenance::set_enabled(true);
        let e = model.extract_ingredient(p);
        recipe_obs::provenance::set_enabled(false);
        let records = recipe_obs::provenance::drain();
        rows.push(json!({
            "phrase": p,
            "entry": entry_json(&e),
            "provenance": recipe_obs::provenance::to_json(&records),
        }));
    }
    http::Response::json(200, render(&json!({ "results": rows })))
}

/// `GET /healthz`: liveness plus a model/shard summary and the current
/// worst SLO level (`ok | warn | critical`).
fn handle_healthz(shared: &Shared, model: &ServeModel) -> http::Response {
    let doc = json!({
        "status": "ok",
        "model": model.kind(),
        "shards": shared.shards,
        "queue_depth": shared.queue.depth(),
        "slo": shared.slo.level().as_str(),
        "monitoring": shared.monitoring,
        "profiling": shared.profiling,
    });
    http::Response::json(200, render(&doc))
}

/// `GET /metrics`: a full telemetry document (global registry merged
/// with the serving and inference registries), schema-valid for
/// `recipe-mine stats`, extended with the sliding-window `windows`
/// block and the prediction-drift summary.
fn handle_metrics(shared: &Shared, model: &ServeModel) -> http::Response {
    shared.metrics.queue_depth.set(shared.queue.depth() as f64);
    let mut t = recipe_obs::Telemetry::gather(&[
        shared.metrics.registry(),
        model.inference().metrics_registry(),
    ]);
    t.windows = shared.metrics.windows().snapshot();
    t.profile = shared.profiler.snapshot();
    let drift = shared
        .drift
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    let drift_doc = match drift {
        Some(monitor) => monitor.report(),
        None => json!({ "active": false }),
    };
    let doc = json!({
        "schema_version": recipe_obs::report::SCHEMA_VERSION,
        "command": "serve",
        "telemetry": serde_json::to_value(&t),
        "drift": drift_doc,
    });
    http::Response::json(200, render(&doc))
}

/// `GET /admin/slo`: the burn-rate engine's full evaluation — every
/// objective's window pairs with their current long/short burn rates
/// and firing state (schema-valid for
/// [`recipe_obs::slo::validate_slo_document`]).
fn handle_slo(shared: &Shared) -> http::Response {
    let report = shared.slo.evaluate();
    http::Response::json(200, render(&serde_json::to_value(&report)))
}

/// `GET /admin/profile`: the per-endpoint request profile — queue-wait
/// / handle / write tick attribution per endpoint, schema-valid for
/// [`recipe_obs::validate_profile`]. Empty (but still valid) when
/// profiling is off.
fn handle_profile(shared: &Shared) -> http::Response {
    let profile = shared.profiler.snapshot();
    http::Response::json(200, render(&serde_json::to_value(&profile)))
}

/// `GET /admin/slow`: the slowest-request exemplar table, worst first,
/// with each request's lifecycle breakdown.
fn handle_slow(shared: &Shared) -> http::Response {
    let mut entries = {
        let table = shared.slow.lock().unwrap_or_else(|p| p.into_inner());
        table.clone()
    };
    entries.sort_by(|a, b| {
        b.total_s
            .partial_cmp(&a.total_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let rows: Vec<serde_json::Value> = entries
        .iter()
        .map(|e| {
            json!({
                "id": e.id,
                "path": e.path,
                "status": e.status,
                "queue_wait_s": e.queue_wait_s,
                "handle_s": e.handle_s,
                "write_s": e.write_s,
                "total_s": e.total_s,
            })
        })
        .collect();
    http::Response::json(
        200,
        render(&json!({ "capacity": SLOW_TABLE_CAP, "slowest": rows })),
    )
}

/// `POST /admin/reload`: hot-swap the model. An empty or `{}` body
/// re-reads the source the current model came from; `{"model": path,
/// "quantized": bool}` switches sources.
fn handle_reload(shared: &Shared, body: &[u8]) -> http::Response {
    let (mut path, mut quantized) = {
        let src = shared
            .model_source
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        src.clone()
    };
    if !body.is_empty() {
        let Ok(text) = std::str::from_utf8(body) else {
            return http::Response::json(400, err_json("body is not UTF-8"));
        };
        let parsed: serde_json::Value = match serde_json::from_str(text) {
            Ok(v) => v,
            Err(e) => {
                return http::Response::json(400, err_json(&format!("body is not JSON: {e:?}")))
            }
        };
        if let Some(p) = parsed.get("model").and_then(|v| v.as_str()) {
            path = p.to_string();
        }
        if let Some(q) = parsed.get("quantized").and_then(|v| v.as_bool()) {
            quantized = q;
        }
    }
    match ServeModel::load(&path, quantized) {
        Ok(model) => {
            let kind = model.kind();
            install_model(shared, model);
            {
                let mut src = shared
                    .model_source
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                *src = (path.clone(), quantized);
            }
            http::Response::json(
                200,
                render(&json!({ "reloaded": path, "kind": kind, "quantized": quantized })),
            )
        }
        Err(e) => http::Response::json(500, err_json(&format!("reload failed: {e}"))),
    }
}

/// `POST /admin/shutdown`: begin graceful drain. The loopback wake
/// unblocks the acceptor, which closes the queue, and workers exit once
/// admitted work is drained.
fn handle_shutdown(shared: &Shared) -> http::Response {
    begin_shutdown(shared);
    http::Response::json(200, render(&json!({ "shutting_down": true })))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.shards, 0);
        assert!(cfg.queue_cap >= 1);
        assert!(cfg.retry_after_secs >= 1);
    }

    #[test]
    fn error_responses_map_framing_errors_to_statuses() {
        let resp = error_response(&http::HttpError::BodyTooLarge);
        assert_eq!(resp.status, 413);
        let resp = error_response(&http::HttpError::BadRequest("x".to_string()));
        assert_eq!(resp.status, 400);
        let resp = error_response(&http::HttpError::TransferEncoding);
        assert_eq!(resp.status, 501);
    }

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
        assert_eq!(wake("127.0.0.1:0"), "127.0.0.1:0");
    }

    #[test]
    fn render_appends_trailing_newline() {
        let text = render(&json!({ "a": 1 }));
        assert!(text.ends_with('\n'));
        assert!(text.starts_with('{'));
    }
}
