//! One measured iteration of a workload: set up the system under test,
//! offer every input from one producer thread in a closed loop, and
//! collect what the run returned. Only public APIs are called:
//! `ShardedExecutor` (runtime) and `AdaptiveEngine` (core).

use std::time::{Duration, Instant};

use jisc_common::{BaseTuple, PartitionMap, StreamId, Tuple};
use jisc_core::{AdaptiveEngine, Strategy};
use jisc_engine::OutputSink;
use jisc_runtime::shard::{ShardedConfig, ShardedExecutor, ShardedReport};

use crate::trace::{thread_cpu, ThreadSampler, Tracer};
use crate::workload::{late_policy, Digest, Inputs, Kind, Workload, LATE_GROUP};

/// What one iteration measured and returned.
#[derive(Debug, Default)]
pub struct Iter {
    pub setup_s: f64,
    /// First push → complete result returned.
    pub wall_s: f64,
    /// Σ of the caller's push-call durations.
    pub push_s: f64,
    /// End of input → `finish()` returned (sharded workloads).
    pub finish_s: f64,
    /// Duration of each push call (`late`: each group of `LATE_GROUP`).
    pub push_ns: Vec<u64>,
    pub offered: u64,
    /// Tuples lost to failures: push errors, shed, send timeouts, and
    /// lateness drops beyond those the workload plants by design.
    pub failed: u64,
    /// Lateness drops (by design on `late`).
    pub dropped_late: u64,
    /// Output digest; `None` when the run returned an error.
    pub digest: Option<Digest>,
    /// `events + dropped_late + shed == offered` and an exact run.
    pub accounting_ok: bool,
    // --- filled only on traced iterations ---
    pub caller_busy_s: f64,
    /// Per worker thread: final on-CPU time and lifetime from set-up.
    pub workers: Vec<(Duration, Duration)>,
    pub counts: Counts,
}

/// Per-layer counters of a traced iteration, read off the run's report
/// (sharded) or engine (embedded).
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// `(elements, nanos)` for hash, probe, pair, install, expire.
    pub kernels: [(u64, u64); 5],
    pub probes: u64,
    pub inserts: u64,
    pub removals: u64,
    pub probe_depth: u64,
    pub rehashes: u64,
    pub hot_bytes: u64,
    pub completions: u64,
    pub attempted_skips: u64,
    pub transitions: u64,
    pub peak_depth: u64,
    pub shard_events: Vec<u64>,
    pub apply_p50_ns: u64,
    pub apply_p99_ns: u64,
    pub late_dropped: u64,
    pub late_admitted: u64,
    pub transition_s: f64,
    /// `migrate`: push durations of batches entered with incomplete
    /// states, and with none.
    pub batch_incomplete_ns: Vec<u64>,
    pub batch_complete_ns: Vec<u64>,
}

/// The columnar kernels: their counter name in the engine, and their
/// per-layer metrics (cost per element, elements).
pub const KERNELS: [(&str, &str, &str); 5] = [
    (
        "hash",
        "engine.kernel.hash.ns_per_elem",
        "engine.kernel.hash.elements",
    ),
    (
        "probe",
        "engine.kernel.probe.ns_per_elem",
        "engine.kernel.probe.elements",
    ),
    (
        "pair",
        "engine.kernel.pair.ns_per_elem",
        "engine.kernel.pair.elements",
    ),
    (
        "install",
        "engine.kernel.install.ns_per_elem",
        "engine.kernel.install.elements",
    ),
    (
        "expire",
        "engine.kernel.expire.ns_per_elem",
        "engine.kernel.expire.elements",
    ),
];

/// Runtime configuration for a sharded workload: default shard count,
/// default (blocking) overload policy.
pub fn sharded_config(w: &Workload) -> ShardedConfig {
    let mut c = ShardedConfig::default();
    if w.kind == Kind::Late {
        c.lateness = Some(late_policy(w));
        c.watermark_every = w.watermark_every;
    }
    c
}

/// Corrupt an output multiset on purpose (the self-test's negative case):
/// repeat one output, or invent one when the output is empty.
fn corrupt(sink: &mut OutputSink) {
    let extra = sink
        .log
        .first()
        .cloned()
        .unwrap_or_else(|| Tuple::base(BaseTuple::new(StreamId(0), u64::MAX, 0, 0)));
    sink.log.push(extra);
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// The routing table a fresh executor for this workload starts with (the
/// engine replay partitions the input by it).
pub fn partition_map(w: &Workload, inp: &Inputs) -> PartitionMap {
    let exec = ShardedExecutor::spawn_with(inp.catalog.clone(), &inp.initial, sharded_config(w))
        .expect("spawn executor");
    exec.partition_map().clone()
}

/// One iteration through `ShardedExecutor`.
pub fn sharded(w: &Workload, inp: &Inputs, tr: &mut Tracer, id: u64, corrupt_output: bool) -> Iter {
    let mut it = Iter {
        offered: inp.offered,
        ..Iter::default()
    };
    tr.enter("iteration", id);
    let t0 = Instant::now();
    let spawned = ShardedExecutor::spawn_with(inp.catalog.clone(), &inp.initial, sharded_config(w));
    let t1 = Instant::now();
    tr.record("runtime.spawn", t0, t1, id);
    it.setup_s = (t1 - t0).as_secs_f64();
    let Ok(mut exec) = spawned else {
        tr.exit();
        it.failed = it.offered;
        return it;
    };
    let sampler = tr.on.then(|| ThreadSampler::start("jisc-shard-"));
    let cpu0 = tr.on.then(thread_cpu);
    let mut push_errors = false;
    let start = Instant::now();
    if w.kind == Kind::Late {
        it.push_ns.reserve(inp.offers.len() / LATE_GROUP + 1);
        for (g, group) in inp.offers.chunks(LATE_GROUP).enumerate() {
            let a = Instant::now();
            for o in group {
                push_errors |= exec
                    .push_at(StreamId(o.stream), o.key, o.payload, o.ts)
                    .is_err();
            }
            let b = Instant::now();
            it.push_ns.push(ns(a, b));
            tr.record("runtime.push_at", a, b, g as u64);
        }
    } else {
        it.push_ns.reserve(inp.batches.len());
        for (i, batch) in inp.batches.iter().enumerate() {
            let a = Instant::now();
            push_errors |= exec.push_columnar(batch).is_err();
            let b = Instant::now();
            it.push_ns.push(ns(a, b));
            tr.record("runtime.push_columnar", a, b, i as u64);
        }
    }
    let end_input = Instant::now();
    if let Some(c0) = cpu0 {
        it.caller_busy_s = (thread_cpu() - c0).as_secs_f64();
    }
    let finished = exec.finish();
    let done = Instant::now();
    tr.record("runtime.finish", end_input, done, id);
    if let Some(s) = sampler {
        it.workers = s
            .finish()
            .into_iter()
            .map(|(cpu, seen)| (cpu, seen.saturating_duration_since(t0)))
            .collect();
    }
    tr.exit();
    it.wall_s = (done - start).as_secs_f64();
    it.finish_s = (done - end_input).as_secs_f64();
    it.push_s = it.push_ns.iter().sum::<u64>() as f64 * 1e-9;
    match finished {
        Ok(mut report) if !push_errors => {
            if corrupt_output {
                corrupt(&mut report.output);
            }
            it.digest = Some(Digest::of(&report.output));
            it.dropped_late = report.dropped_late;
            it.failed = report.shed_tuples
                + report.send_timeouts
                + report.dropped_late.abs_diff(inp.expected_dropped);
            it.accounting_ok = report.exactness.is_exact()
                && report.events + report.dropped_late + report.shed_tuples == it.offered;
            if tr.on {
                it.counts = sharded_counts(&report);
            }
        }
        _ => it.failed = it.offered,
    }
    it
}

fn sharded_counts(r: &ShardedReport) -> Counts {
    let m = &r.metrics;
    let tel = &r.telemetry.merged;
    let mut kernels = [(0, 0); 5];
    for (k, (name, _, _)) in KERNELS.iter().enumerate() {
        kernels[k] = (
            tel.counter(&format!("kernel_{name}_elements")),
            tel.counter(&format!("kernel_{name}_nanos")),
        );
    }
    Counts {
        kernels,
        probes: m.probes,
        inserts: m.inserts,
        removals: m.removals,
        probe_depth: m.probe_depth,
        rehashes: m.slab_rehashes,
        completions: m.completions,
        attempted_skips: m.attempted_skips,
        transitions: r.transitions,
        peak_depth: r.peak_queue_depth.iter().copied().max().unwrap_or(0),
        shard_events: r.shard_events.clone(),
        apply_p50_ns: r.latency.quantile(0.5),
        apply_p99_ns: r.latency.quantile(0.99),
        late_dropped: r.dropped_late,
        late_admitted: r.late_admitted,
        ..Counts::default()
    }
}

/// One iteration through the embedded `AdaptiveEngine` under JISC, with a
/// plan transition before every `transition_every`-th batch, alternating
/// between the worst-case swap target and the initial plan.
pub fn embedded(
    w: &Workload,
    inp: &Inputs,
    tr: &mut Tracer,
    id: u64,
    corrupt_output: bool,
) -> Iter {
    let mut it = Iter {
        offered: inp.offered,
        ..Iter::default()
    };
    tr.enter("iteration", id);
    let t0 = Instant::now();
    let built = AdaptiveEngine::new(inp.catalog.clone(), &inp.initial, Strategy::Jisc);
    let t1 = Instant::now();
    tr.record("core.new", t0, t1, id);
    it.setup_s = (t1 - t0).as_secs_f64();
    let Ok(mut eng) = built else {
        tr.exit();
        it.failed = it.offered;
        return it;
    };
    let mut errors = false;
    let mut to_target = true;
    let mut c = Counts::default();
    it.push_ns.reserve(inp.batches.len());
    let start = Instant::now();
    for (i, batch) in inp.batches.iter().enumerate() {
        if i > 0 && i % w.transition_every == 0 {
            let plan = if to_target { &inp.target } else { &inp.initial };
            to_target = !to_target;
            let a = Instant::now();
            errors |= eng.transition_to(plan).is_err();
            let b = Instant::now();
            c.transition_s += (b - a).as_secs_f64();
            tr.record("core.transition_to", a, b, i as u64);
        }
        let incomplete = eng.incomplete_states() > 0;
        let a = Instant::now();
        errors |= eng.push_columnar(batch).is_err();
        let b = Instant::now();
        let d = ns(a, b);
        it.push_ns.push(d);
        if incomplete {
            c.batch_incomplete_ns.push(d);
        } else {
            c.batch_complete_ns.push(d);
        }
        tr.record("core.push_columnar", a, b, i as u64);
    }
    let done = Instant::now();
    tr.exit();
    it.wall_s = (done - start).as_secs_f64();
    if errors {
        it.failed = it.offered;
        return it;
    }
    let mut sink = eng.take_output();
    if corrupt_output {
        corrupt(&mut sink);
    }
    it.digest = Some(Digest::of(&sink));
    let m = eng.metrics();
    it.accounting_ok = m.tuples_in == it.offered;
    if tr.on {
        let mut kernels = [(0, 0); 5];
        if let Some(j) = eng.as_jisc() {
            j.pipeline().kernels.for_each_named(|name, kc| {
                if let Some(k) = KERNELS.iter().position(|k| k.0 == name) {
                    kernels[k] = (kc.elements, kc.nanos);
                }
            });
        }
        it.counts = Counts {
            kernels,
            probes: m.probes,
            inserts: m.inserts,
            removals: m.removals,
            probe_depth: m.probe_depth,
            rehashes: m.slab_rehashes,
            hot_bytes: eng.hot_bytes() as u64,
            completions: m.completions,
            attempted_skips: m.attempted_skips,
            transitions: m.transitions,
            ..c
        };
    }
    it
}
