//! The benchmark's measuring process. `perfbench/run.py` is the command;
//! it starts this program once per measured iteration, so every
//! iteration runs cold in a process of its own and its peak RSS is that
//! process's own.
//!
//! ```text
//! perfbench iterate --workload <w> --seed <n> [--id <i>] [--trace] [--size tiny] [--corrupt-output]
//! perfbench replay  --workload <w> --seed <n> [--id <i>] [--size tiny]
//! perfbench oracle  --workload <w> --seed <n> [--size tiny]
//! perfbench calibrate
//! ```
//!
//! * `iterate` generates the inputs from the seed, then sets up the system
//!   under test, offers every input and takes the complete result: the
//!   measured region. It then digests the output and prints one JSON line
//!   with the iteration's end-to-end figures, plus, with `--trace`, its
//!   per-layer figures (spans are written to `.bench_out/`).
//! * `oracle` prints the digest of the serial per-tuple oracle's output
//!   for the inputs drawn from the seed.
//! * `replay` prints the engine layer's self time: each shard's routed
//!   partition through a bare `Pipeline`, and the output merge.
//! * `calibrate` prints how long a fixed hash-map churn takes on this host
//!   now (see [`calibrate`]).

mod drive;
mod replay;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use drive::{Iter, KERNELS};
use trace::Tracer;
use workload::{Kind, Workload};

#[derive(PartialEq)]
enum Mode {
    Iterate,
    Oracle,
    Replay,
}

struct Args {
    mode: Mode,
    workload: String,
    seed: u64,
    id: u64,
    trace: bool,
    tiny: bool,
    corrupt_output: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = match it.next().as_deref() {
        Some("iterate") => Mode::Iterate,
        Some("oracle") => Mode::Oracle,
        Some("replay") => Mode::Replay,
        m => {
            return Err(format!(
                "first argument must be iterate, oracle, replay or calibrate, not {m:?}"
            ))
        }
    };
    let (mut workload, mut seed, mut id) = (None, None, 0);
    let (mut trace, mut tiny, mut corrupt_output) = (false, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--id" => id = value()?.parse().map_err(|e| format!("--id: {e}"))?,
            "--trace" => trace = true,
            "--size" => match value()?.as_str() {
                "tiny" => tiny = true,
                "full" => tiny = false,
                v => return Err(format!("--size must be tiny or full, not {v}")),
            },
            "--corrupt-output" => corrupt_output = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        id,
        trace,
        tiny,
        corrupt_output,
    })
}

/// Nearest-rank quantile of raw samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A JSON number; non-finite values (an empty ratio) print as 0.
fn num(v: f64) -> String {
    format!("{:?}", if v.is_finite() { v } else { 0.0 })
}

/// Metrics as a JSON object of `name: [value, unit]`.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": [{}, \"{unit}\"]", num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Operations and key domain of the calibration churn (about 0.3 s).
const CALIBRATE_OPS: u64 = 1_500_000;
const CALIBRATE_KEYS: u64 = 400_000;

/// Time a fixed workload that uses none of the repository's code: keyed
/// appends, probes and removals on a std `HashMap` of ~30 MiB, the access
/// pattern of join state. On a shared host the speed of the measured
/// iterations drifts by up to 60 % within minutes, and this churn's time
/// follows the drift (correlation 0.75 with `migrate`'s per-iteration
/// tuples/s over 33 interleaved pairs), so `run.py` scales the timed
/// metrics by it.
fn calibrate() -> f64 {
    let mut x: u64 = 0x6361_6c69_6272_6174;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let t = Instant::now();
    let mut state: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut hits = 0u64;
    for i in 0..CALIBRATE_OPS {
        let k = next() % CALIBRATE_KEYS;
        state.entry(k).or_default().push(i);
        hits += state.get(&(k ^ 1)).map_or(0, |v| v.len() as u64);
        if i % 3 == 0 {
            state.remove(&(next() % CALIBRATE_KEYS));
        }
    }
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64()
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("calibrate") {
        println!("{{\"calibrate_s\": {}}}", num(calibrate()));
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload, args.tiny) else {
        eprintln!(
            "perfbench: unknown workload {:?} (steady, migrate, late)",
            args.workload
        );
        std::process::exit(2);
    };
    let out = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let mut tr = Tracer::new(Instant::now());
    tr.on = args.trace || args.mode == Mode::Replay;
    let g0 = Instant::now();
    // Only `oracle` and `replay` need the processing order; an iteration
    // holds one copy of its input.
    let inputs = workload::generate(&w, args.seed, args.mode != Mode::Iterate);
    let g1 = Instant::now();
    tr.record("workload.generate", g0, g1, 0);
    let tag = match args.mode {
        Mode::Replay => "replay".to_string(),
        _ => args.id.to_string(),
    };
    let spans = out.join(format!("spans-{}-{}-{tag}.jsonl", w.name, args.seed));

    match args.mode {
        Mode::Oracle => {
            let d = workload::oracle(&inputs, w.kind == Kind::Late);
            println!(
                "{{\"digest\": \"{}\", \"outputs\": {}, \"expected_dropped\": {}}}",
                d.hex(),
                d.outputs,
                inputs.expected_dropped
            );
        }
        Mode::Replay => {
            let map = w.is_sharded().then(|| drive::partition_map(&w, &inputs));
            let r = replay::replay(&w, &inputs, map.as_ref(), &mut tr);
            write_spans(&tr, &spans);
            let mut m = vec![
                ("engine.replay.busy_s", r.busy_s, "s"),
                ("engine.output.merge_s", r.merge_s, "s"),
            ];
            if w.is_sharded() {
                m.push(("engine.state.hot_bytes", r.hot_bytes as f64, "bytes"));
            }
            println!(
                "{{\"digest\": \"{}\", \"layers\": {}}}",
                r.digest.hex(),
                metrics_json(&m)
            );
        }
        Mode::Iterate => {
            let it = if w.is_sharded() {
                drive::sharded(&w, &inputs, &mut tr, args.id, args.corrupt_output)
            } else {
                drive::embedded(&w, &inputs, &mut tr, args.id, args.corrupt_output)
            };
            let peak_rss_mb = trace::peak_rss_mb();
            let layers = if args.trace {
                write_spans(&tr, &spans);
                metrics_json(&per_layer(&w, &it, &tr, (g1 - g0).as_secs_f64()))
            } else {
                "null".into()
            };
            let list = |v: Vec<String>| format!("[{}]", v.join(", "));
            println!(
                "{{\"traced\": {}, \"offered\": {}, \
                 \"failed\": {}, \"dropped_late\": {}, \
                 \"accounting_ok\": {}, \"digest\": {}, \"wall_s\": {}, \"setup_s\": {}, \
                 \"push_ns\": {}, \"peak_rss_mb\": {}, \"layers\": {layers}}}",
                args.trace,
                it.offered,
                it.failed,
                it.dropped_late,
                it.accounting_ok,
                it.digest
                    .map_or("null".into(), |d| format!("\"{}\"", d.hex())),
                num(it.wall_s),
                num(it.setup_s),
                list(it.push_ns.iter().map(u64::to_string).collect()),
                num(peak_rss_mb),
            );
        }
    }
}

fn write_spans(tr: &Tracer, path: &Path) {
    if let Err(e) = tr.write(path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

/// One traced iteration's per-layer figures. The engine replay and merge,
/// and the tracing overhead, come from other processes (see `run.py`).
fn per_layer(
    w: &Workload,
    it: &Iter,
    tr: &Tracer,
    gen_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let c = &it.counts;
    let worker_max = it
        .workers
        .iter()
        .map(|w| w.0)
        .max()
        .map_or(0.0, |d| d.as_secs_f64());
    let idle = if it.workers.is_empty() {
        0.0
    } else {
        let busy: f64 = it
            .workers
            .iter()
            .map(|(cpu, life)| cpu.as_secs_f64() / life.as_secs_f64().max(1e-9))
            .sum();
        (1.0 - busy / it.workers.len() as f64).max(0.0)
    };
    let skew = match c.shard_events.iter().max() {
        Some(&max) => {
            let mean = c.shard_events.iter().sum::<u64>() as f64 / c.shard_events.len() as f64;
            max as f64 / mean.max(1.0)
        }
        None => 0.0,
    };

    // Layer self times against the measured wall: the iteration span's
    // self time is what no layer span covers.
    let times = tr.self_times();
    let root = times.get("iteration").copied().unwrap_or_default();
    let residual_pct = 100.0 * root.1 / root.0.max(1e-12);
    eprintln!("perfbench: span self times (total_s, self_s, count):");
    for (name, (total, own, n)) in &times {
        eprintln!("  {name:<26} {total:>10.4} {own:>10.4} {n:>8}");
    }
    eprintln!(
        "perfbench: residual {:.4} s of {:.4} s measured = {residual_pct:.3}%",
        root.1, root.0
    );

    let mut inc = c.batch_incomplete_ns.clone();
    let mut comp = c.batch_complete_ns.clone();
    inc.sort_unstable();
    comp.sort_unstable();
    let batches = (inc.len() + comp.len()).max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut m = vec![
        ("runtime.push.wall_s", it.push_s, "s"),
        ("runtime.push.busy_s", it.caller_busy_s, "s"),
        (
            "runtime.push.blocked_s",
            (it.push_s - it.caller_busy_s).max(0.0),
            "s",
        ),
        ("runtime.finish.wall_s", it.finish_s, "s"),
        ("runtime.worker.busy_s", worker_max, "s"),
        ("runtime.worker.idle_frac", idle, "fraction"),
        ("runtime.queue.peak_depth", c.peak_depth as f64, "events"),
        ("runtime.shard.skew", skew, "ratio"),
        (
            "runtime.apply_latency_p50_us",
            c.apply_p50_ns as f64 / 1e3,
            "us",
        ),
        (
            "runtime.apply_latency_p99_us",
            c.apply_p99_ns as f64 / 1e3,
            "us",
        ),
        ("runtime.late.dropped", c.late_dropped as f64, "count"),
        ("runtime.late.admitted", c.late_admitted as f64, "count"),
    ];
    for ((_, per_elem, elements), &(n, nanos)) in KERNELS.iter().zip(&c.kernels) {
        m.push((per_elem, ratio(nanos, n), "ns"));
        m.push((elements, n as f64, "count"));
    }
    m.extend([
        ("engine.state.probes", c.probes as f64, "count"),
        ("engine.state.inserts", c.inserts as f64, "count"),
        ("engine.state.removals", c.removals as f64, "count"),
        (
            "engine.state.probe_depth_avg",
            ratio(c.probe_depth, c.probes),
            "groups",
        ),
        ("engine.state.rehashes", c.rehashes as f64, "count"),
        ("core.transition.wall_s", c.transition_s, "s"),
        ("core.transitions", c.transitions as f64, "count"),
        ("core.completions", c.completions as f64, "count"),
        ("core.attempted_skips", c.attempted_skips as f64, "count"),
        (
            "core.completions_per_transition",
            ratio(c.completions, c.transitions),
            "ratio",
        ),
        (
            "core.batch.incomplete_p50_us",
            quantile(&inc, 0.5) as f64 / 1e3,
            "us",
        ),
        (
            "core.batch.complete_p50_us",
            quantile(&comp, 0.5) as f64 / 1e3,
            "us",
        ),
        (
            "core.batch.incomplete_share",
            inc.len() as f64 / batches,
            "fraction",
        ),
        ("workload.gen_s", gen_s, "s"),
        ("trace.residual_pct", residual_pct, "%"),
        ("trace.ingest_samples", it.push_ns.len() as f64, "count"),
    ]);
    if !w.is_sharded() {
        // The embedded engine's own state size; sharded runs take it from
        // the replay, whose pipelines are inspected after their last push.
        m.push(("engine.state.hot_bytes", c.hot_bytes as f64, "bytes"));
    }
    m
}
