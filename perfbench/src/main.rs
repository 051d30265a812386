//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_hot|serve_cold|batch_mine> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! From the seed it trains a model (untimed), writes the files a user
//! deploys (`model.rma` for serving, `model.json` for mining), builds
//! the workload's inputs from a held-out seed, runs the workload and
//! checks every output. It prints each metric by name and unit, then as
//! its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`. A
//! mismatching output fails the run (exit code 1).

mod batch;
mod client;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("p50_ms.lo", "ms"),
    ("p50_ms.hi", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), every workload: name and unit.
/// Times are per operation (request or recipe); a layer a workload
/// does not reach reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.connect_us", "us"),
    ("serve.ttfb_us", "us"),
    ("serve.last_byte_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.write_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.keepalive_reuse_frac", "frac"),
    ("serve.batch_size_mean", "count"),
    ("serve.shed", "count"),
    ("client.lateness_p99_us", "us"),
    ("text.preprocess_us", "us"),
    ("ner.decode_us", "us"),
    ("ner.tokens", "count"),
    ("core.ingredient_entry_us", "us"),
    ("core.entry_assembly_us", "us"),
    ("core.cache_hit_frac", "frac"),
    ("core.cache_rejected_inserts", "count"),
    ("parser.parse_us", "us"),
    ("tagger.tag_us", "us"),
    ("ner.instruction_decode_us", "us"),
    ("core.events_self_us", "us"),
    ("runtime.parallel_efficiency", "frac"),
    ("artifact.load_ms", "ms"),
    ("artifact.crc_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("core.json_load_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("input.phrases_per_op", "count"),
    ("input.tokens_per_phrase", "count"),
    ("input.unique_phrase_frac", "frac"),
    ("input.train_overlap_frac", "frac"),
];

const WORKLOADS: &[&str] = &["serve_hot", "serve_cold", "batch_mine"];

/// Worker threads, shards and client connections: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident memory of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, correct: bool) -> Outcome {
        Outcome {
            attempted,
            failed,
            correct,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn input_props(&mut self, p: &inputs::InputProps) {
        self.metric("input.phrases_per_op", p.phrases_per_op);
        self.metric("input.tokens_per_phrase", p.tokens_per_phrase);
        self.metric("input.unique_phrase_frac", p.unique_phrase_frac);
        self.metric("input.train_overlap_frac", p.train_overlap_frac);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Args {
    let workload = flag(args, "--workload")
        .unwrap_or_else(|| usage())
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let num = |name: &str| -> f64 {
        flag(args, name)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| usage())
    };
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let seconds = num("--seconds");
    if seconds <= 0.0 {
        usage();
    }
    Args {
        workload,
        seed: flag(args, "--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage()),
        seconds,
        trace,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flag(&args, "--child") {
        Some("serve") => {
            let model = flag(&args, "--model").unwrap_or_else(|| usage());
            let reps = flag(&args, "--reps")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            serve::child_main(model, reps);
            return;
        }
        Some("batch") => {
            let model = flag(&args, "--model").unwrap_or_else(|| usage());
            let seed = flag(&args, "--input-seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            let seconds = flag(&args, "--seconds")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            batch::child_main(model, seed, seconds);
            return;
        }
        Some(_) => usage(),
        None => {}
    }
    let a = parse_args(&args);
    let seeds = inputs::Seeds::from_run(a.seed);
    let work = PathBuf::from(".perfbench_work");
    let dir = work.join(format!("{}-{}-{}", a.workload, a.seed, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create work directory");
    let trace_path = work.join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));

    eprintln!(
        "perfbench {}: training on seed {:#x}, inputs from held-out seed {:#x}, {} cores",
        a.workload,
        seeds.train,
        seeds.input,
        nproc()
    );
    let models = inputs::train_and_write(seeds, &dir);
    let hot = a.workload == "serve_hot";
    let out = match (a.workload.as_str(), a.trace) {
        ("batch_mine", false) => batch::run(seeds, &models, a.seconds),
        ("batch_mine", true) => batch::trace_run(seeds, &models, &trace_path),
        (_, false) => serve::run(hot, seeds, &models, a.seconds),
        (_, true) => serve::trace_run(hot, seeds, &models, a.seconds, &trace_path),
    };
    std::fs::remove_dir_all(&dir).expect("remove work directory");
    report(&a, &out);
    if !out.correct {
        std::process::exit(1);
    }
}

/// Print every metric by name and unit, then the result line.
fn report(a: &Args, out: &Outcome) {
    let list = if a.trace { PER_LAYER } else { END_TO_END };
    for note in &out.notes {
        println!("# {note}");
    }
    let mut fields = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let v = *out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {} did not measure {name}", a.workload));
        assert!(v.is_finite(), "{name} is not finite: {v}");
        assert!(stats::valid_name(name), "invalid metric name {name}");
        println!("{name:<30} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_name_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w), "bad workload name {w}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("list present")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), listed(END_TO_END));
        assert_eq!(names("per_layer"), listed(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
    }
}
