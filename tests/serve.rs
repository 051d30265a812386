//! Root integration tests for the `recipe-serve` online serving layer:
//! byte-identity with the batch extraction path across shard counts,
//! queue-full shedding, mid-traffic hot-swap, telemetry document
//! validity, and graceful drain (PR 8 acceptance criteria); plus the
//! PR 9 observability surface — keep-alive reuse, request-id
//! uniqueness, lifecycle exemplars at `/admin/slow`, burn-rate state
//! at `/admin/slo`, response header hygiene, and prediction-drift
//! scoring against the artifact's frozen reference; plus the blocking
//! acceptor — shed 503s that survive late request bytes, the
//! keep-alive idle timeout, the parked-connection cap, and shutdown
//! waking an acceptor blocked in `accept`.

use recipe_core::artifact::{
    artifact_bytes_with_reference, capture_drift_reference, ArtifactPipeline,
};
use recipe_core::pipeline::{PipelineConfig, TrainedPipeline};
use recipe_corpus::{CorpusSpec, RecipeCorpus, Site};
use recipe_serve::{entry_json, ServeConfig, ServeModel, Server};
use serde_json::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn corpus() -> RecipeCorpus {
    RecipeCorpus::generate(&CorpusSpec::tiny(4242))
}

fn train(corpus: &RecipeCorpus) -> TrainedPipeline {
    TrainedPipeline::train(corpus, &PipelineConfig::fast())
}

/// Reference-capture phrases: a stable slice of the training corpus.
fn reference_phrases(corpus: &RecipeCorpus) -> Vec<String> {
    corpus
        .phrases(Site::AllRecipes)
        .iter()
        .take(32)
        .map(|p| p.text())
        .collect()
}

/// Serialize once (with a frozen drift reference, like `compile`
/// does), open a fresh zero-copy view per server under test. Capture
/// is serialized across tests — the provenance store is
/// process-global.
fn model_bytes(pipeline: &TrainedPipeline) -> Arc<[u8]> {
    static CAPTURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let corpus = corpus();
    let reference = {
        let _guard = CAPTURE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        capture_drift_reference(pipeline, &reference_phrases(&corpus))
    };
    artifact_bytes_with_reference(pipeline, Some(&reference))
        .expect("serialize artifact")
        .into()
}

fn rma_model(bytes: &Arc<[u8]>) -> ServeModel {
    ServeModel::Rma(ArtifactPipeline::from_bytes(Arc::clone(bytes), false).expect("load artifact"))
}

fn launch(cfg: &ServeConfig, model: ServeModel) -> Server {
    Server::launch(cfg, model, ("<test>".to_string(), false)).expect("launch server")
}

fn ephemeral(shards: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards,
        ..ServeConfig::default()
    }
}

/// One HTTP/1.1 round trip (`Connection: close` — the server honours
/// it, so `read_to_end` terminates); returns (status, raw head, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8(response).expect("utf-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .expect("status code");
    (status, head.to_string(), payload.to_string())
}

/// Send one request on an already-open keep-alive connection.
fn send_keep_alive(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: keep\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send keep-alive request");
}

/// Read exactly one HTTP response off a keep-alive connection (parses
/// `Content-Length` instead of reading to EOF).
fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read head byte");
        assert!(n > 0, "eof mid-head: {:?}", String::from_utf8_lossy(&head));
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .expect("status code");
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.trim().eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("content-length header");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    (
        status,
        head.trim_end().to_string(),
        String::from_utf8(body).expect("utf-8 body"),
    )
}

/// The `X-Request-Id` header value of a response head.
fn request_id(head: &str) -> u64 {
    head.lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.trim().eq_ignore_ascii_case("x-request-id") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or_else(|| panic!("no X-Request-Id in {head:?}"))
}

/// The exact body `POST /extract` must produce for `phrase`: the same
/// `entry_json` renderer the batch CLI uses, pretty-printed with a
/// trailing newline. This *is* the byte-identity contract — both sides
/// funnel through `recipe_serve::entry_json`.
fn expected_extract_body(model: &ServeModel, phrase: &str) -> String {
    let rows = vec![json!({
        "phrase": phrase,
        "entry": entry_json(&model.extract_ingredient(phrase)),
    })];
    let text = serde_json::to_string_pretty(&json!({ "results": rows })).expect("render");
    format!("{text}\n")
}

#[test]
fn served_extraction_is_byte_identical_across_shard_counts() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let reference = rma_model(&bytes);

    let phrases: Vec<String> = corpus
        .phrases(Site::AllRecipes)
        .iter()
        .take(12)
        .map(|p| p.text())
        .collect();
    assert!(!phrases.is_empty());
    let expected: Vec<(String, String)> = phrases
        .iter()
        .map(|p| (p.clone(), expected_extract_body(&reference, p)))
        .collect();

    for shards in [1usize, 4, 8] {
        let server = launch(&ephemeral(shards), rma_model(&bytes));
        let addr = server.local_addr();
        let expected = Arc::new(expected.clone());
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let expected = Arc::clone(&expected);
                std::thread::spawn(move || {
                    for (phrase, want) in expected.iter() {
                        let body =
                            serde_json::to_string(&json!({ "phrases": [phrase] })).expect("body");
                        let (status, _, got) = request(addr, "POST", "/extract", &body);
                        assert_eq!(status, 200, "{shards} shards: {phrase:?}");
                        assert_eq!(
                            &got, want,
                            "{shards} shards: served bytes diverged on {phrase:?}"
                        );
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        server.request_shutdown();
        server.join();
    }
}

#[test]
fn queue_full_sheds_with_503_and_retry_after() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);

    // One shard, queue depth one: hold the only worker with a
    // half-sent request, and every arrival past the single queue slot
    // must shed deterministically.
    let cfg = ServeConfig {
        queue_cap: 1,
        ..ephemeral(1)
    };
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();

    let mut held = TcpStream::connect(addr).expect("connect held");
    held.write_all(b"POST /extr").expect("partial header");
    // Let the worker pop the held connection and block reading it, so
    // the queue is empty before the flood arrives.
    std::thread::sleep(Duration::from_millis(300));

    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    let flood: Vec<TcpStream> = (0..10)
        .map(|i| {
            let mut s = TcpStream::connect(addr).expect("connect flood");
            s.set_read_timeout(Some(Duration::from_secs(30))).ok();
            s.write_all(
                format!(
                    "POST /extract HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap_or_else(|e| panic!("send flood request {i}: {e}"));
            // Give the acceptor time to admit or shed this connection
            // before the next one arrives, keeping the order exact.
            std::thread::sleep(Duration::from_millis(50));
            s
        })
        .collect();

    // Release the worker; the one queued connection can now be served.
    drop(held);

    let mut served = 0usize;
    let mut shed = 0usize;
    for (i, mut s) in flood.into_iter().enumerate() {
        let mut response = Vec::new();
        s.read_to_end(&mut response)
            .unwrap_or_else(|e| panic!("read flood response {i}: {e}"));
        let text = String::from_utf8_lossy(&response);
        let status: u16 = text
            .split(' ')
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("flood response {i} had no status: {text:?}"));
        match status {
            200 => served += 1,
            503 => {
                shed += 1;
                assert!(
                    text.contains("Retry-After: 1"),
                    "shed response {i} missing Retry-After: {text:?}"
                );
            }
            other => panic!("flood response {i}: unexpected status {other}"),
        }
    }
    assert_eq!(
        (served, shed),
        (1, 9),
        "queue_cap=1 must admit exactly one flooded request"
    );

    // Nine sheds against a 99.9% availability target is a sustained
    // burn over both fast windows: the SLO engine must page.
    let (status, _, body) = request(addr, "GET", "/admin/slo", "");
    assert_eq!(status, 200);
    let slo: serde_json::Value = serde_json::from_str(&body).expect("slo json");
    recipe_obs::validate_slo_document(&slo).expect("slo document schema");
    assert_eq!(
        slo.get("level").and_then(|v| v.as_str()),
        Some("critical"),
        "shed burst must fire the fast burn-rate pair: {body}"
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn hot_swap_mid_traffic_keeps_responses_byte_identical() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let reference = rma_model(&bytes);

    let phrase = corpus.phrases(Site::AllRecipes)[0].text();
    let want = expected_extract_body(&reference, &phrase);
    let body = serde_json::to_string(&json!({ "phrases": [phrase] })).expect("body");

    let server = launch(&ephemeral(2), rma_model(&bytes));
    let addr = server.local_addr();
    let server = Arc::new(server);

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                for i in 0..30 {
                    let (status, _, got) = request(addr, "POST", "/extract", &body);
                    assert_eq!(status, 200, "request {i} dropped during hot-swap");
                    assert_eq!(got, want, "request {i} corrupted during hot-swap");
                }
            })
        })
        .collect();

    // Swap repeatedly while the clients hammer: in-flight batches pin
    // their Arc, so no response may be dropped or torn.
    for _ in 0..10 {
        server.swap_model(rma_model(&bytes));
        std::thread::sleep(Duration::from_millis(5));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    assert!(server.metrics().hot_swaps.get() >= 10);

    server.request_shutdown();
    match Arc::try_unwrap(server) {
        Ok(s) => s.join(),
        Err(_) => panic!("server handle still shared after clients joined"),
    }
}

#[test]
fn healthz_and_metrics_serve_valid_documents() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&body).expect("healthz json");
    assert_eq!(health.get("status").and_then(|v| v.as_str()), Some("ok"));
    assert_eq!(health.get("model").and_then(|v| v.as_str()), Some("rma"));
    assert_eq!(health.get("slo").and_then(|v| v.as_str()), Some("ok"));

    // Drive one extraction so the telemetry has serving counters.
    let req = serde_json::to_string(&json!({ "phrases": ["2 cups flour"] })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &req);
    assert_eq!(status, 200);

    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc: serde_json::Value = serde_json::from_str(&body).expect("metrics json");
    recipe_obs::report::validate_document(&doc).expect("metrics document schema");
    assert_eq!(doc.get("command").and_then(|v| v.as_str()), Some("serve"));
    // The windows block must carry the serving mirrors with live data.
    let windows = &doc["telemetry"]["windows"];
    assert_eq!(windows["window_s"].as_f64(), Some(60.0));
    assert!(
        windows["rates"]["serve.requests"]["count"]
            .as_u64()
            .unwrap()
            >= 1,
        "windowed request rate must see the traffic: {windows}"
    );
    assert!(
        windows["histograms"]["serve.request.latency_s"]["count"]
            .as_u64()
            .unwrap()
            >= 1
    );
    // The drift block is active (the artifact carries a reference).
    assert_eq!(doc["drift"]["active"].as_bool(), Some(true));
    assert!(doc["drift"]["level"].as_str().is_some());

    server.request_shutdown();
    server.join();
}

#[test]
fn keep_alive_reuses_connection_with_fresh_request_ids() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    let mut ids = Vec::new();
    for i in 0..3 {
        send_keep_alive(&mut stream, "POST", "/extract", &body);
        let (status, head, _) = read_response(&mut stream);
        assert_eq!(status, 200, "keep-alive round {i}");
        assert!(
            head.contains("Connection: keep-alive"),
            "round {i} must advertise reuse: {head:?}"
        );
        ids.push(request_id(&head));
    }
    // Every round got a fresh id, and the later rounds were re-armed
    // off the parking lot rather than re-accepted.
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3, "request ids must be unique per request");
    assert!(
        server.metrics().keepalive_reuse.get() >= 2,
        "re-arms must count as keep-alive reuse"
    );
    assert_eq!(server.metrics().accepted.get(), 1, "one socket, one accept");
    // No batching: each of the 3 requests was its own dequeue of size 1.
    let batches = &server.metrics().batch_size;
    assert_eq!(batches.count(), 3, "one dequeue per request");
    assert_eq!(batches.sum(), batches.count() as f64);

    server.request_shutdown();
    server.join();
}

#[test]
fn pipelined_requests_close_the_connection_instead_of_dropping_bytes() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    // Two keep-alive requests in one write: the second is already
    // buffered by the server when the first is answered, so the server
    // must say `Connection: close` and close rather than park the
    // socket and lose the buffered bytes.
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    let one = format!(
        "POST /extract HTTP/1.1\r\nHost: keep\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("{one}{one}").as_bytes())
        .expect("send pipelined requests");
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: close"),
        "a pipelined connection must not be parked: {head:?}"
    );
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "nothing may follow the close: {rest:?}");

    server.request_shutdown();
    server.join();
}

#[test]
fn request_ids_are_unique_under_concurrent_load() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(4), rma_model(&bytes));
    let addr = server.local_addr();

    let body = serde_json::to_string(&json!({ "phrases": ["2 tbsp butter"] })).expect("body");
    let ids = Arc::new(std::sync::Mutex::new(Vec::new()));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            let ids = Arc::clone(&ids);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let (status, head, _) = request(addr, "POST", "/extract", &body);
                    assert_eq!(status, 200);
                    ids.lock().unwrap().push(request_id(&head));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let mut ids = Arc::try_unwrap(ids)
        .expect("clients joined")
        .into_inner()
        .unwrap();
    assert_eq!(ids.len(), 40);
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 40, "request ids collided under concurrency");

    // The lifecycle exemplar table saw the traffic, with coherent
    // monotonic stage breakdowns.
    let (status, _, body) = request(addr, "GET", "/admin/slow", "");
    assert_eq!(status, 200);
    let slow: serde_json::Value = serde_json::from_str(&body).expect("slow json");
    let rows = slow["slowest"].as_array().expect("slowest array");
    assert!(!rows.is_empty(), "slow table must have exemplars");
    let mut last_total = f64::INFINITY;
    for row in rows {
        let queue_wait = row["queue_wait_s"].as_f64().expect("queue_wait_s");
        let handle = row["handle_s"].as_f64().expect("handle_s");
        let write = row["write_s"].as_f64().expect("write_s");
        let total = row["total_s"].as_f64().expect("total_s");
        assert!(queue_wait >= 0.0 && handle >= 0.0 && write >= 0.0);
        assert!(
            (queue_wait + handle + write) <= total + 1e-9,
            "stage sum exceeds total: {row}"
        );
        assert!(total <= last_total, "slow table must be sorted worst-first");
        last_total = total;
        assert!(row["id"].as_u64().is_some());
    }

    server.request_shutdown();
    server.join();
}

#[test]
fn every_endpoint_sets_json_content_type_and_exact_length() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(1), rma_model(&bytes));
    let addr = server.local_addr();

    let extract = serde_json::to_string(&json!({ "phrases": ["1 cup milk"] })).expect("body");
    let calls: Vec<(&str, &str, &str)> = vec![
        ("POST", "/extract", extract.as_str()),
        ("POST", "/explain", extract.as_str()),
        ("GET", "/healthz", ""),
        ("GET", "/metrics", ""),
        ("GET", "/admin/slo", ""),
        ("GET", "/admin/slow", ""),
        ("GET", "/no-such-endpoint", ""),
        ("PUT", "/extract", ""),
    ];
    for (method, path, body) in calls {
        let (_, head, payload) = request(addr, method, path, body);
        assert!(
            head.contains("Content-Type: application/json"),
            "{method} {path} missing JSON content type: {head:?}"
        );
        let declared: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                if k.trim().eq_ignore_ascii_case("content-length") {
                    v.trim().parse().ok()
                } else {
                    None
                }
            })
            .unwrap_or_else(|| panic!("{method} {path} missing Content-Length"));
        assert_eq!(
            declared,
            payload.len(),
            "{method} {path}: Content-Length does not match the body"
        );
        serde_json::from_str::<serde_json::Value>(&payload)
            .unwrap_or_else(|e| panic!("{method} {path} body is not JSON: {e:?}"));
    }

    server.request_shutdown();
    server.join();
}

#[test]
fn drift_monitor_fires_on_shifted_phrases_and_stays_quiet_in_distribution() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let phrases = reference_phrases(&corpus);

    // Sample every /extract request so the window fills immediately.
    let cfg = ServeConfig {
        drift_sample: 1,
        ..ephemeral(1)
    };

    let drift_doc = |addr: SocketAddr| -> serde_json::Value {
        let (status, _, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(&body).expect("metrics json");
        doc["drift"].clone()
    };

    // In-distribution: replay the exact reference phrases.
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();
    let body = serde_json::to_string(&json!({ "phrases": phrases })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &body);
    assert_eq!(status, 200);
    let doc = drift_doc(addr);
    assert_eq!(doc["active"].as_bool(), Some(true));
    assert!(doc["samples"].as_u64().unwrap() >= 1);
    let score = doc["score"].as_f64().expect("score");
    assert!(
        score < 0.1,
        "in-distribution replay must stay under warn: {doc}"
    );
    assert_eq!(doc["level"].as_str(), Some("stable"));
    server.request_shutdown();
    server.join();

    // Shifted: unicode fractions, heavy abbreviation, foreign tokens.
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();
    let noisy: Vec<String> = (0..32)
        .map(|i| {
            [
                "½ c. zzgrnfl xq",
                "¼ tsp qwrtz pdr",
                "⅓ pkg frzn brkklwv",
                "2½ tbsp. mstrd sd oil",
            ][i % 4]
                .to_string()
        })
        .collect();
    let body = serde_json::to_string(&json!({ "phrases": noisy })).expect("body");
    let (status, _, _) = request(addr, "POST", "/extract", &body);
    assert_eq!(status, 200);
    let doc = drift_doc(addr);
    let score = doc["score"].as_f64().expect("score");
    assert!(
        score > 0.1,
        "shifted phrase population must push PSI past warn: {doc}"
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn admin_shutdown_drains_and_joins() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let server = launch(&ephemeral(2), rma_model(&bytes));
    let addr = server.local_addr();

    let (status, _, body) = request(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body:?}");
    assert!(server.shutdown_requested());
    // Drain must complete without external help (acceptor poll tick
    // notices the flag, closes the queue, workers exit).
    server.join();
}

/// Poll `cond` every 5 ms for up to 5 s; false if it never held.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Open a keep-alive connection, serve one `/extract` on it, and
/// return it parked (the response advertised reuse).
fn parked_connection(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    send_keep_alive(&mut stream, "POST", "/extract", &body);
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: keep-alive"),
        "expected a parked connection: {head:?}"
    );
    stream
}

#[test]
fn shed_503_survives_request_bytes_that_arrive_late() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let cfg = ServeConfig {
        queue_cap: 1,
        ..ephemeral(1)
    };
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();
    let metrics = server.metrics();

    // Hold the only worker with a half-sent request, then fill the one
    // queue slot with a silent connection: every later arrival sheds.
    let mut held = TcpStream::connect(addr).expect("connect held");
    held.write_all(b"POST /extr").expect("partial header");
    assert!(wait_until(|| metrics.in_flight.get() == 1.0));
    let filler = TcpStream::connect(addr).expect("connect filler");
    assert!(wait_until(|| metrics.queue_depth.get() == 1.0));

    // The acceptor sheds each client the moment its connect lands, so
    // a request sent a few microseconds later reaches a socket the
    // server is writing the 503 to or has closed; one sent 1-5 ms later
    // always arrives after the close. Either way the client must read
    // the whole 503 rather than a reset. The sweep is sequential so each
    // delay is measured from an uncontended connect.
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");
    let delays_us: Vec<u64> = (0..120)
        .chain([1_000, 2_000, 3_000, 4_000, 5_000])
        .collect();
    for (i, &delay_us) in delays_us.iter().enumerate() {
        let mut s = TcpStream::connect(addr).expect("connect flood");
        s.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let connected = Instant::now();
        while connected.elapsed() < Duration::from_micros(delay_us) {
            std::hint::spin_loop();
        }
        s.write_all(
            format!(
                "POST /extract HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap_or_else(|e| panic!("send flood request {i}: {e}"));
        let mut response = Vec::new();
        s.read_to_end(&mut response)
            .unwrap_or_else(|e| panic!("read shed response {i} (+{delay_us} us): {e}"));
        let text = String::from_utf8(response).expect("utf-8 response");
        let (head, payload) = text
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("shed response {i} has no head: {text:?}"));
        assert!(head.starts_with("HTTP/1.1 503 "), "client {i}: {head:?}");
        assert!(head.contains("Retry-After: 1"), "client {i}: {head:?}");
        assert!(
            head.contains(&format!("Content-Length: {}", payload.len())),
            "client {i}: truncated 503: {text:?}"
        );
        serde_json::from_str::<serde_json::Value>(payload).expect("shed body is JSON");
    }
    assert_eq!(metrics.shed.get(), delays_us.len() as u64);

    drop(held);
    drop(filler);
    server.request_shutdown();
    server.join();
}

#[test]
fn idle_keep_alive_connection_is_closed_after_the_idle_timeout() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let cfg = ServeConfig {
        keepalive_idle_ms: 150,
        ..ephemeral(1)
    };
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();

    let mut stream = parked_connection(addr);
    let reuse_before = server.metrics().keepalive_reuse.get();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("timeout");
    let parked_at = Instant::now();
    let mut rest = Vec::new();
    stream
        .read_to_end(&mut rest)
        .expect("an idle parked connection must be closed within 3 s");
    assert!(rest.is_empty(), "nothing may follow the close: {rest:?}");
    assert!(parked_at.elapsed() < Duration::from_secs(3));
    assert_eq!(
        server.metrics().keepalive_reuse.get(),
        reuse_before,
        "an idle timeout is not a reuse"
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn parked_connections_are_capped_at_queue_cap() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);
    let cfg = ServeConfig {
        queue_cap: 1,
        ..ephemeral(2)
    };
    let server = launch(&cfg, rma_model(&bytes));
    let addr = server.local_addr();
    let body = serde_json::to_string(&json!({ "phrases": ["1 cup sugar"] })).expect("body");

    // A takes the only parked slot.
    let a = parked_connection(addr);

    // B asks for keep-alive while A is parked: the server says close,
    // and means it.
    let mut b = TcpStream::connect(addr).expect("connect b");
    b.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    send_keep_alive(&mut b, "POST", "/extract", &body);
    let (status, head, _) = read_response(&mut b);
    assert_eq!(status, 200);
    assert!(
        head.contains("Connection: close"),
        "the parked cap is reached: {head:?}"
    );
    let mut rest = Vec::new();
    b.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "nothing may follow the close: {rest:?}");

    // Once A disconnects its waiter frees the slot.
    drop(a);
    let mut freed = false;
    for _ in 0..200 {
        let mut c = TcpStream::connect(addr).expect("connect c");
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        send_keep_alive(&mut c, "POST", "/extract", &body);
        let (status, head, _) = read_response(&mut c);
        assert_eq!(status, 200);
        if head.contains("Connection: keep-alive") {
            freed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(freed, "a disconnected parked client must free its slot");

    server.request_shutdown();
    server.join();
}

#[test]
fn shutdown_wakes_the_blocked_acceptor_with_a_parked_connection() {
    let corpus = corpus();
    let pipeline = train(&corpus);
    let bytes = model_bytes(&pipeline);

    for via_endpoint in [false, true] {
        let server = launch(&ephemeral(2), rma_model(&bytes));
        let addr = server.local_addr();
        let parked = parked_connection(addr);
        if via_endpoint {
            let (status, _, _) = request(addr, "POST", "/admin/shutdown", "");
            assert_eq!(status, 200);
        } else {
            server.request_shutdown();
        }
        // Join on a helper thread so a lost wake fails the test instead
        // of hanging it.
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.join();
            let _ = done.send(());
        });
        joined
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| {
                panic!("join did not return within 2 s (via endpoint: {via_endpoint})")
            });
        drop(parked);
    }
}
