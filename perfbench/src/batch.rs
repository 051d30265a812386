//! `batch_mine`: corpus mining through `TrainedPipeline::model_recipes`
//! over a fixed batch of unseen recipes, after `TrainedPipeline::load`
//! of the JSON model.
//!
//! The end-to-end run happens in a child process (so its peak memory is
//! the loaded model plus the workload, not the training that preceded
//! it) and reports:
//! - per-recipe latency mining one recipe per call, with one caller
//!   (`lo`) and with `nproc` concurrent callers (`hi`);
//! - recipes/s of `model_recipes` over the whole batch on
//!   `Runtime::new(nproc)` (`ops_per_s`).
//!
//! Every output is checked against `model_recipes_reference` on a
//! serial runtime (later whole-batch calls through the first one); a
//! mismatching recipe is a failed operation.

use crate::inputs::{self, Models, Seeds};
use crate::layers::{ns, replay_recipes};
use crate::stats::{median, percentile, supports};
use crate::trace::{self_times, Tracer};
use crate::{nproc, Outcome};
use recipe_core::pipeline::TrainedPipeline;
use recipe_core::RecipeModel;
use recipe_corpus::Recipe;
use recipe_runtime::Runtime;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// JSON model loads per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of `--seconds` spent on whole-batch throughput calls.
const THROUGHPUT_SHARE: f64 = 0.5;

/// Rounds of the end-to-end run. Each round makes one `lo` pass and one
/// `hi` pass over the batch and its share of the whole-batch calls (at
/// least one), so every metric samples the whole run rather than one
/// stretch of a host whose speed drifts.
const ROUNDS: usize = 3;

fn render(m: &RecipeModel) -> String {
    serde_json::to_string(m).expect("render recipe model")
}

/// Mine one recipe per call from `callers` threads; returns per-recipe
/// (index, latency seconds, model), in input order.
fn per_recipe(p: &TrainedPipeline, recipes: &[Recipe], callers: usize) -> Vec<(f64, RecipeModel)> {
    p.inference.clear_caches();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(recipes.len()));
    std::thread::scope(|s| {
        for _ in 0..callers {
            s.spawn(|| {
                let rt = Runtime::serial();
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(r) = recipes.get(i) else { break };
                    let t0 = Instant::now();
                    let m = p.model_recipes(std::slice::from_ref(r), &rt);
                    let lat = t0.elapsed().as_secs_f64();
                    mine.extend(m.into_iter().map(|m| (i, lat, m)));
                }
                out.lock().expect("results lock").extend(mine);
            });
        }
    });
    let mut v = out.into_inner().expect("results lock");
    v.sort_by_key(|(i, _, _)| *i);
    v.into_iter().map(|(_, lat, m)| (lat, m)).collect()
}

/// Per-recipe latency, ms: p50 is the median of the passes' p50s; p90
/// and p99 (reported, not gated) are over every pass. A wrong output
/// misses any latency limit: it ranks last.
fn latency_ms(passes: &[Vec<(f64, RecipeModel)>], ok: &[Vec<bool>]) -> [f64; 3] {
    let (mut p50s, mut all) = (Vec::new(), Vec::new());
    for (pass, ok) in passes.iter().zip(ok) {
        let mut lat: Vec<f64> = pass
            .iter()
            .zip(ok)
            .map(|((l, _), &good)| if good { *l } else { f64::MAX })
            .collect();
        lat.sort_by(f64::total_cmp);
        p50s.push(percentile(&lat, 50.0));
        all.extend(lat);
    }
    all.sort_by(f64::total_cmp);
    assert!(
        supports(all.len(), 99.0),
        "too few recipes ({}) for p99",
        all.len()
    );
    [
        median(&p50s),
        percentile(&all, 90.0),
        percentile(&all, 99.0),
    ]
    .map(|v| v * 1e3)
}

/// Child side of the end-to-end run; prints one JSON line.
pub fn child_main(model: &str, input_seed: u64, seconds: f64) {
    let mut setup_s = Vec::new();
    let mut pipeline = None;
    for _ in 0..SETUP_REPS {
        drop(pipeline.take());
        let t0 = Instant::now();
        let p = TrainedPipeline::load(model).expect("load model.json");
        setup_s.push(t0.elapsed().as_secs_f64());
        pipeline = Some(p);
    }
    let p = pipeline.expect("model loaded");
    let recipes = inputs::batch_recipes(input_seed);

    let rt = Runtime::new(nproc());
    let budget = seconds * THROUGHPUT_SHARE / ROUNDS as f64;
    let (mut lo, mut hi, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    // The first whole-batch output is checked against the reference
    // below; every later call is checked against the first (untimed).
    let mut batch_out: Vec<String> = Vec::new();
    let mut call_mismatches = 0;
    for _ in 0..ROUNDS {
        lo.push(per_recipe(&p, &recipes, 1));
        hi.push(per_recipe(&p, &recipes, nproc()));
        let started = Instant::now();
        loop {
            p.inference.clear_caches();
            let t0 = Instant::now();
            let models = p.model_recipes(&recipes, &rt);
            rates.push(recipes.len() as f64 / t0.elapsed().as_secs_f64());
            let rendered: Vec<String> = models.iter().map(render).collect();
            if batch_out.is_empty() {
                batch_out = rendered;
            } else {
                call_mismatches += recipes.len()
                    - rendered
                        .iter()
                        .zip(&batch_out)
                        .filter(|(a, b)| a == b)
                        .count();
            }
            if started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }
    let rss_mb = crate::peak_rss_mb();

    let reference: Vec<String> = p
        .model_recipes_reference(&recipes, &Runtime::serial())
        .iter()
        .map(render)
        .collect();
    let check = |got: &mut dyn Iterator<Item = &RecipeModel>| -> Vec<bool> {
        let ok: Vec<bool> = got
            .zip(&reference)
            .map(|(m, want)| render(m) == *want)
            .collect();
        // A missing output is a mismatch too.
        ok.into_iter()
            .chain(std::iter::repeat(false))
            .take(reference.len())
            .collect()
    };
    let lo_ok: Vec<Vec<bool>> = lo
        .iter()
        .map(|pass| check(&mut pass.iter().map(|(_, m)| m)))
        .collect();
    let hi_ok: Vec<Vec<bool>> = hi
        .iter()
        .map(|pass| check(&mut pass.iter().map(|(_, m)| m)))
        .collect();
    let batch_ok: Vec<bool> = (0..reference.len())
        .map(|i| batch_out.get(i) == reference.get(i))
        .collect();
    let mismatches = call_mismatches
        + lo_ok
            .iter()
            .chain(&hi_ok)
            .chain(std::iter::once(&batch_ok))
            .flatten()
            .filter(|&&good| !good)
            .count();
    let [p50_lo, p90_lo, p99_lo] = latency_ms(&lo, &lo_ok);
    let [p50_hi, p90_hi, p99_hi] = latency_ms(&hi, &hi_ok);
    let doc = serde_json::json!({
        "attempted": (2 * ROUNDS + rates.len()) * recipes.len(),
        "mismatches": mismatches,
        "setup_s": median(&setup_s),
        "rss_mb": rss_mb,
        "p50_ms.lo": p50_lo,
        "p90_ms.lo": p90_lo,
        "p99_ms.lo": p99_lo,
        "p50_ms.hi": p50_hi,
        "p90_ms.hi": p90_hi,
        "p99_ms.hi": p99_hi,
        "ops_per_s": median(&rates),
        "batch_calls": rates.len(),
        "recipes": recipes.len(),
    });
    println!("{}", doc.to_compact_string());
}

/// One end-to-end batch run: the child does the measuring.
pub fn run(seeds: Seeds, models: &Models, seconds: f64) -> Outcome {
    let exe = std::env::current_exe().expect("locate own executable");
    let output = Command::new(exe)
        .args(["--child", "batch", "--model"])
        .arg(&models.json)
        .args(["--input-seed", &seeds.input.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("run batch process");
    assert!(
        output.status.success(),
        "batch process failed: {}",
        output.status
    );
    let text = String::from_utf8_lossy(&output.stdout);
    let doc: serde_json::Value = serde_json::from_str(text.lines().last().unwrap_or("").trim())
        .expect("batch process speaks JSON");
    let f = |k: &str| {
        doc.get(k)
            .and_then(|x| x.as_f64())
            .expect("batch metric present")
    };
    let mismatches = f("mismatches") as u64;
    let mut out = Outcome::new(f("attempted") as u64, mismatches, mismatches == 0);
    for name in ["setup_s", "rss_mb", "p50_ms.lo", "p50_ms.hi", "ops_per_s"] {
        out.metric(name, f(name));
    }
    let recipes = f("recipes");
    for (name, callers) in [("lo", 1), ("hi", nproc())] {
        out.note(format!(
            "{name}: one recipe per call from {callers} caller(s), {ROUNDS} passes over {recipes} recipes; \
             p90_ms.{name} {:.4} ms, p99_ms.{name} {:.4} ms over {} samples",
            f(&format!("p90_ms.{name}")),
            f(&format!("p99_ms.{name}")),
            recipes * ROUNDS as f64,
        ));
    }
    out.note(format!(
        "ops_per_s: median of {} whole-batch model_recipes calls on {} threads; setup reps {SETUP_REPS}; \
         failed_frac {:.6}",
        f("batch_calls"),
        nproc(),
        mismatches as f64 / f("attempted").max(1.0),
    ));
    out
}

/// The traced batch run: JSON load time, parallel efficiency, and a
/// serial replay of the batch through the layers' public functions
/// (untraced, then traced).
pub fn trace_run(seeds: Seeds, models: &Models, trace_path: &Path) -> Outcome {
    let mut load_ms = Vec::new();
    let mut pipeline = None;
    for _ in 0..3 {
        drop(pipeline.take());
        let t0 = Instant::now();
        pipeline = Some(TrainedPipeline::load(&models.json).expect("load model.json"));
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let p = pipeline.expect("model loaded");
    let recipes = inputs::batch_recipes(seeds.input);
    let n = recipes.len() as f64;

    let time_batch = |threads: usize| {
        p.inference.clear_caches();
        let t0 = Instant::now();
        let models = p.model_recipes(&recipes, &Runtime::new(threads));
        (t0.elapsed().as_secs_f64(), models)
    };
    let (t1, _) = time_batch(1);
    let (tn, batch_models) = time_batch(nproc());
    let efficiency = t1 / (nproc() as f64 * tn);

    let origin = Instant::now();
    let replay = |traced: bool| {
        p.inference.clear_caches();
        let mut tr = Tracer::new(origin, traced);
        let (models, wall, tokens) = replay_recipes(&p, &mut tr, &recipes);
        (
            models,
            wall,
            tokens,
            tr.into_spans(),
            p.inference.cache_stats(),
        )
    };
    // The first pass warms allocator and CPU caches; it is not timed.
    replay(false);
    let (_, wall_untraced, _, _, _) = replay(false);
    let (replayed, wall_traced, tokens, spans, cache) = replay(true);
    let reference = p.model_recipes_reference(&recipes, &Runtime::serial());
    let mismatches = replayed
        .iter()
        .zip(&batch_models)
        .zip(&reference)
        .filter(|((a, b), want)| {
            let want = render(want);
            render(a) != want || render(b) != want
        })
        .count() as u64;
    let mut out = Outcome::new(2 * recipes.len() as u64, mismatches, mismatches == 0);

    let agg = self_times(&spans);
    let per = |name: &str| ns(&agg, name).0 / n / 1e3;
    let decode = per("ner.decode");
    let assembly = per("core.entry_assembly");
    let (tag, instr, parse) = (
        per("tagger.tag"),
        per("ner.instruction_decode"),
        per("parser.parse"),
    );
    let (root_total, root_self) = ns(&agg, "mine.recipe");
    let probes_ns = [
        "ner.decode",
        "core.entry_assembly",
        "tagger.tag",
        "ner.instruction_decode",
        "parser.parse",
    ]
    .iter()
    .map(|s| ns(&agg, s).0)
    .sum::<f64>();
    for name in [
        "serve.connect_us",
        "serve.ttfb_us",
        "serve.last_byte_us",
        "serve.queue_wait_us",
        "serve.handle_us",
        "serve.write_us",
        "serve.unattributed_us",
        "serve.keepalive_reuse_frac",
        "serve.batch_size_mean",
        "serve.shed",
        "client.lateness_p99_us",
        "artifact.load_ms",
        "artifact.crc_ms",
        "artifact.bytes",
    ] {
        out.metric(name, 0.0);
    }
    out.metric("text.preprocess_us", per("text.preprocess"));
    out.metric("ner.decode_us", decode);
    out.metric("ner.tokens", tokens as f64 / n);
    out.metric(
        "core.ingredient_entry_us",
        (per("core.ingredient_entry") - decode - assembly).max(0.0),
    );
    out.metric("core.entry_assembly_us", assembly);
    out.metric("core.cache_hit_frac", cache.hit_rate());
    let reg = p.inference.metrics_registry();
    out.metric(
        "core.cache_rejected_inserts",
        (reg.counter("cache.ingredient.rejected_inserts").get()
            + reg.counter("cache.events.rejected_inserts").get()) as f64,
    );
    out.metric("parser.parse_us", parse);
    out.metric("tagger.tag_us", tag);
    out.metric("ner.instruction_decode_us", instr);
    out.metric(
        "core.events_self_us",
        (per("core.sentence_events") - tag - instr - parse).max(0.0),
    );
    out.metric("runtime.parallel_efficiency", efficiency);
    out.metric("core.json_load_ms", median(&load_ms));
    out.metric("trace.overhead_frac", wall_traced / wall_untraced - 1.0);
    let wall_ns = root_total - probes_ns;
    out.metric(
        "trace.unattributed_frac",
        if wall_ns > 0.0 {
            root_self / wall_ns
        } else {
            0.0
        },
    );

    let lines: Vec<Vec<String>> = recipes.iter().map(|r| r.ingredient_lines()).collect();
    out.input_props(&inputs::input_props(
        lines.iter().map(|l| l.as_slice()),
        &models.train_phrases,
    ));
    out.note(format!(
        "traced replay of {} recipes: untraced {wall_untraced:.3} s, traced {wall_traced:.3} s; \
         model_recipes {t1:.3} s on 1 thread, {tn:.3} s on {} threads; spans in {}",
        recipes.len(),
        nproc(),
        trace_path.display()
    ));
    crate::trace::write_spans(trace_path, &[spans]).expect("write spans");
    out
}
