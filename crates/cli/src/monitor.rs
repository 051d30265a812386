//! `recipe-mine monitor`: a terminal tail for a running server.
//!
//! Polls `GET /metrics`, `GET /admin/slo` and `GET /admin/profile`
//! over one keep-alive connection (reconnecting transparently when the
//! server's idle reaper drops it between polls), validates all three
//! documents against their schemas, prints a one-line delta view per
//! poll on stderr and optionally appends the raw snapshots as JSONL
//! (`--out`). The final stdout JSON summarizes the run, so `--once`
//! doubles as a CI probe: it exits nonzero when the server is
//! unreachable or any document fails validation.

use crate::args::MonitorOptions;
use crate::commands::CliError;
use serde_json::{json, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Per-request socket timeout: a healthy server answers `/metrics` in
/// microseconds, so anything past this is "gone", not "slow".
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A minimal HTTP/1.1 client that holds one keep-alive connection.
///
/// Responses are framed by `Content-Length` (the server sets it on
/// every response), never by EOF, so the connection survives across
/// polls and exercises the server's keep-alive reuse path.
struct HttpClient {
    addr: String,
    conn: Option<TcpStream>,
}

impl HttpClient {
    fn new(addr: &str) -> Self {
        HttpClient {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// `GET path`, returning `(status, parsed JSON body)`.
    fn get(&mut self, path: &str) -> Result<(u16, Value), CliError> {
        // A parked connection may have been idle-reaped or hit its
        // request cap since the last poll; retry once on a fresh one.
        if let Some(conn) = self.conn.take() {
            if let Ok(got) = self.round_trip(conn, path) {
                return Self::parse_body(path, got);
            }
        }
        let conn =
            TcpStream::connect(&self.addr).map_err(|e| CliError::Io(self.addr.clone(), e))?;
        let got = self
            .round_trip(conn, path)
            .map_err(|e| CliError::Io(format!("{} {path}", self.addr), e))?;
        Self::parse_body(path, got)
    }

    fn parse_body(path: &str, (status, body): (u16, String)) -> Result<(u16, Value), CliError> {
        let doc: Value = serde_json::from_str(&body)
            .map_err(|e| CliError::Stats(format!("{path}: body is not JSON: {e}")))?;
        Ok((status, doc))
    }

    /// One request/response on `conn`; parks it back when the server
    /// agreed to keep the connection alive.
    fn round_trip(&mut self, mut conn: TcpStream, path: &str) -> std::io::Result<(u16, String)> {
        conn.set_read_timeout(Some(IO_TIMEOUT))?;
        conn.set_write_timeout(Some(IO_TIMEOUT))?;
        write!(conn, "GET {path} HTTP/1.1\r\nHost: monitor\r\n\r\n")?;
        conn.flush()?;

        // Head: byte-wise until the blank line (no over-read — the
        // body must come off the same socket by exact length).
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            if conn.read(&mut byte)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ));
            }
            head.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&head).into_owned();
        let status: u16 = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let header = |name: &str| -> Option<String> {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
            })
        };
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "missing Content-Length")
            })?;
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body)?;

        let keep = header("connection")
            .map(|v| v.eq_ignore_ascii_case("keep-alive"))
            .unwrap_or(false);
        if keep {
            self.conn = Some(conn);
        }
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The fields the delta view tracks between polls.
#[derive(Default, Clone, Copy)]
struct Sample {
    requests: u64,
}

/// Pull one windowed rate out of the `/metrics` document.
fn window_rate(metrics: &Value, name: &str) -> (u64, f64) {
    let r = &metrics["telemetry"]["windows"]["rates"][name];
    (
        r["count"].as_u64().unwrap_or(0),
        r["per_s"].as_f64().unwrap_or(0.0),
    )
}

/// Pull one windowed histogram quantile (seconds) out of `/metrics`.
fn window_quantile(metrics: &Value, name: &str, q: &str) -> f64 {
    metrics["telemetry"]["windows"]["histograms"][name][q]
        .as_f64()
        .unwrap_or(0.0)
}

/// Render the one-line delta view for a poll.
fn render_line(elapsed_s: f64, metrics: &Value, slo: &Value, prev: Sample) -> (String, Sample) {
    let (req, req_per_s) = window_rate(metrics, "serve.requests");
    let (err, _) = window_rate(metrics, "serve.errors");
    let (shed, _) = window_rate(metrics, "serve.shed");
    let p50_ms = window_quantile(metrics, "serve.request.latency_s", "p50") * 1e3;
    let p99_ms = window_quantile(metrics, "serve.request.latency_s", "p99") * 1e3;
    let delta = req as i64 - prev.requests as i64;
    let slo_level = slo["level"].as_str().unwrap_or("?");
    let drift = &metrics["drift"];
    let drift_view = if drift["active"] == json!(true) {
        format!(
            "{} ({:.3})",
            drift["level"].as_str().unwrap_or("?"),
            drift["score"].as_f64().unwrap_or(0.0)
        )
    } else {
        "off".to_string()
    };
    let line = format!(
        "[{elapsed_s:7.1}s] req {req} in window ({req_per_s:.2}/s, {delta:+}) \
         err {err} shed {shed} | p50 {p50_ms:.2}ms p99 {p99_ms:.2}ms | \
         slo {slo_level} | drift {drift_view}"
    );
    (line, Sample { requests: req })
}

/// Run the monitor loop; returns the stdout summary JSON.
pub fn run_monitor(opts: &MonitorOptions) -> Result<String, CliError> {
    let mut client = HttpClient::new(&opts.addr);
    let polls = if opts.once { Some(1) } else { opts.count };
    let started = Instant::now();
    let mut prev = Sample::default();
    let mut done: u64 = 0;

    let mut out_file = match &opts.out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| CliError::Io(path.clone(), e))?,
        ),
        None => None,
    };

    let (last_metrics, last_slo, last_profile) = loop {
        let (status, metrics) = client.get("/metrics")?;
        if status != 200 {
            return Err(CliError::Stats(format!("/metrics returned {status}")));
        }
        recipe_obs::validate_document(&metrics)
            .map_err(|e| CliError::Stats(format!("/metrics: {e}")))?;
        let (status, slo) = client.get("/admin/slo")?;
        if status != 200 {
            return Err(CliError::Stats(format!("/admin/slo returned {status}")));
        }
        recipe_obs::validate_slo_document(&slo)
            .map_err(|e| CliError::Stats(format!("/admin/slo: {e}")))?;
        let (status, profile) = client.get("/admin/profile")?;
        if status != 200 {
            return Err(CliError::Stats(format!("/admin/profile returned {status}")));
        }
        recipe_obs::validate_profile(&profile)
            .map_err(|e| CliError::Stats(format!("/admin/profile: {e}")))?;

        let elapsed_s = started.elapsed().as_secs_f64();
        let (line, sample) = render_line(elapsed_s, &metrics, &slo, prev);
        eprintln!("{line}");
        prev = sample;

        if let Some(f) = out_file.as_mut() {
            let snapshot = json!({
                "poll": done,
                "elapsed_s": elapsed_s,
                "addr": opts.addr,
                "metrics": metrics,
                "slo": slo,
                "profile": profile,
            });
            let rendered = serde_json::to_string(&snapshot)
                .map_err(|e| CliError::Stats(format!("snapshot serialization: {e}")))?;
            writeln!(f, "{rendered}")
                .map_err(|e| CliError::Io(opts.out.clone().unwrap_or_default(), e))?;
        }

        done += 1;
        if polls.map(|n| done >= n).unwrap_or(false) {
            break (metrics, slo, profile);
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    };

    let summary = json!({
        "monitored": { "addr": opts.addr, "polls": done },
        "slo_level": last_slo["level"],
        "drift": last_metrics["drift"],
        "windows": last_metrics["telemetry"]["windows"],
        "profile": {
            "stages": last_profile["nodes"].as_array().map(|n| n.len()).unwrap_or(0),
            "total_ticks": last_profile["total_ticks"],
        },
    });
    let rendered = serde_json::to_string_pretty(&summary)
        .map_err(|e| CliError::Stats(format!("summary serialization: {e}")))?;
    Ok(format!("{rendered}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_doc(requests: u64) -> Value {
        json!({
            "telemetry": {
                "windows": {
                    "window_s": 60.0,
                    "rates": {
                        "serve.requests": { "count": requests, "per_s": requests as f64 / 60.0 },
                        "serve.errors": { "count": 0, "per_s": 0.0 },
                        "serve.shed": { "count": 0, "per_s": 0.0 },
                    },
                    "histograms": {
                        "serve.request.latency_s":
                            { "count": requests, "p50": 0.001, "p99": 0.004, "p999": 0.004 },
                    },
                },
            },
            "drift": { "active": true, "level": "stable", "score": 0.02 },
        })
    }

    #[test]
    fn delta_line_tracks_windowed_requests() {
        let slo = json!({ "level": "ok" });
        let (line, s) = render_line(1.0, &metrics_doc(60), &slo, Sample::default());
        assert!(line.contains("req 60 in window"), "{line}");
        assert!(line.contains("+60"), "{line}");
        assert!(line.contains("slo ok"), "{line}");
        assert!(line.contains("drift stable (0.020)"), "{line}");
        // The next poll saw a rotated-down window: the delta goes negative.
        let (line, _) = render_line(2.0, &metrics_doc(40), &slo, s);
        assert!(line.contains("-20"), "{line}");
        assert!(line.contains("p99 4.00ms"), "{line}");
    }

    #[test]
    fn inactive_drift_renders_off() {
        let doc = json!({
            "telemetry": metrics_doc(1)["telemetry"],
            "drift": { "active": false },
        });
        let (line, _) = render_line(0.0, &doc, &json!({"level": "ok"}), Sample::default());
        assert!(line.contains("drift off"), "{line}");
    }

    #[test]
    fn unreachable_server_is_an_io_error() {
        // Reserved port 0 never accepts.
        let mut client = HttpClient::new("127.0.0.1:1");
        match client.get("/metrics") {
            Err(CliError::Io(addr, _)) => assert!(addr.contains("127.0.0.1:1")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
