//! The three workloads: their parameters, their seeded inputs, and the
//! serial oracle every run is checked against.
//!
//! All three run the Figure-9 left-deep hash plan over 21 streams (20
//! joins) with time windows, keys uniform over a domain equal to the
//! per-stream window population, and columnar batches of [`BATCH`] rows.

use jisc_common::{ColumnarBatch, SplitMix64, StreamId, Tuple};
use jisc_core::jisc::JiscSemantics;
use jisc_engine::{
    Catalog, JoinStyle, LatenessGate, LatenessPolicy, OutputSink, Pipeline, PlanSpec, StreamDef,
};
use jisc_workload::{best_case, worst_case, Disorder, Generator};

/// Joins in the plan (Figure 9's setup: 21 streams).
pub const JOINS: usize = 20;
/// Rows per columnar batch handed to the system under test.
pub const BATCH: usize = 256;
/// `push_at` calls timed together as one ingest sample on `late`.
pub const LATE_GROUP: usize = 256;

/// Which workload, and so which public surface it drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ShardedExecutor::push_columnar`, no transitions, no budget.
    Steady,
    /// Embedded `AdaptiveEngine` (JISC, one thread) with a worst-case plan
    /// swap every few batches.
    Migrate,
    /// `steady` through per-tuple `push_at` with bounded disorder,
    /// stragglers past the bound, a lateness gate and watermarks.
    Late,
}

/// One workload's parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Tuples offered per measured iteration.
    pub tuples: usize,
    /// Per-stream window population (also the key domain).
    pub window: usize,
    /// `migrate`: batches between plan transitions.
    pub transition_every: usize,
    /// `late`: disorder bound in ticks, straggler period, watermark period.
    pub disorder_bound: u64,
    pub straggler_every: usize,
    pub watermark_every: u64,
}

impl Workload {
    /// The named workload at full size, or at a tiny size for the
    /// benchmark's self-test.
    pub fn by_name(name: &str, tiny: bool) -> Option<Workload> {
        let base = Workload {
            name: "",
            kind: Kind::Steady,
            tuples: 0,
            window: 0,
            transition_every: 0,
            disorder_bound: 0,
            straggler_every: 0,
            watermark_every: 0,
        };
        let w = match name {
            "steady" => Workload {
                name: "steady",
                kind: Kind::Steady,
                tuples: 160_000,
                window: 400,
                ..base
            },
            "migrate" => Workload {
                name: "migrate",
                kind: Kind::Migrate,
                tuples: 160_000,
                window: 400,
                transition_every: 4,
                ..base
            },
            "late" => Workload {
                name: "late",
                kind: Kind::Late,
                tuples: 160_000,
                window: 400,
                disorder_bound: 64,
                straggler_every: 997,
                watermark_every: 1024,
                ..base
            },
            _ => return None,
        };
        Some(if tiny {
            Workload {
                tuples: 3_000,
                window: 40,
                ..w
            }
        } else {
            w
        })
    }

    pub fn is_sharded(&self) -> bool {
        self.kind != Kind::Migrate
    }
}

/// One arrival as the producer offers it.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    pub stream: u16,
    pub key: u64,
    pub payload: u64,
    /// Event time (`late` only; the other workloads use the arrival clock).
    pub ts: u64,
}

/// Everything generated from the seed before any timing starts.
pub struct Inputs {
    pub catalog: Catalog,
    pub initial: PlanSpec,
    /// `migrate`: the worst-case swap target.
    pub target: PlanSpec,
    /// Columnar batches, in arrival order (all but `late`).
    pub batches: Vec<ColumnarBatch>,
    /// `late`: arrivals in offer order, scrambled with stragglers.
    pub offers: Vec<Offer>,
    /// The order the system under test processes the arrivals in (the
    /// gate-released order on `late`), for the oracle and the replay;
    /// empty unless asked for.
    pub released: Vec<Offer>,
    pub offered: u64,
    /// Lateness drops the gate makes by design (`late`), else 0.
    pub expected_dropped: u64,
}

/// Generate a workload's inputs from `seed`; `with_order` keeps the
/// processing order in `released`.
pub fn generate(w: &Workload, seed: u64, with_order: bool) -> Inputs {
    let scenario = match w.kind {
        Kind::Migrate => worst_case(JOINS, JoinStyle::Hash),
        _ => best_case(JOINS, JoinStyle::Hash),
    };
    let names: Vec<String> = scenario
        .initial
        .leaves()
        .iter()
        .map(|s| s.to_string())
        .collect();
    // With the arrival clock a tuple ages one tick per arrival on any
    // stream, so `window × streams` ticks hold `window` tuples per stream.
    let ticks = (w.window * names.len()) as u64;
    let catalog = Catalog::new(
        names
            .iter()
            .map(|n| StreamDef::timed(n.clone(), ticks))
            .collect(),
    )
    .expect("valid catalog");
    // Streams are drawn uniformly (the paper's setup) and keys are uniform
    // over the domain, but each stream cycles through its own seeded
    // permutation of the domain, so a key occurs about once per window on
    // every stream. With independent draws a key's count per window is
    // Poisson(1), and a 20-join's work is the product of 21 such counts:
    // so heavy-tailed that four seeds ran `steady` at 250k to 600k
    // tuples/s, a spread no bound could hold. The generator supplies the
    // stream and payload; its key draw is replaced.
    let mut gen = Generator::uniform(names.len() as u16, w.window as u64, seed);
    let mut rng = SplitMix64::new(seed ^ 0x6b65_7973_6875_6666);
    let perms: Vec<Vec<u64>> = (0..names.len())
        .map(|_| {
            let mut p: Vec<u64> = (0..w.window as u64).collect();
            for j in (1..p.len()).rev() {
                p.swap(j, rng.next_below(j as u64 + 1) as usize);
            }
            p
        })
        .collect();
    let mut drawn = vec![0usize; names.len()];
    let in_order: Vec<Offer> = (0..w.tuples)
        .map(|i| {
            let a = gen.next_arrival();
            let s = a.stream as usize;
            let key = perms[s][drawn[s] % w.window];
            drawn[s] += 1;
            Offer {
                stream: a.stream,
                key,
                payload: a.payload,
                ts: i as u64,
            }
        })
        .collect();
    let mut batches = Vec::new();
    if w.kind != Kind::Late {
        for chunk in in_order.chunks(BATCH) {
            let mut b = ColumnarBatch::new(BATCH);
            for o in chunk {
                b.push(StreamId(o.stream), o.key, o.payload)
                    .expect("chunk fits the batch");
            }
            batches.push(b);
        }
    }
    let (offers, released, expected_dropped) = if w.kind == Kind::Late {
        let disorder = Disorder::new(w.disorder_bound, seed ^ 0xD15_0DE5)
            .with_stragglers(w.straggler_every, w.disorder_bound);
        let offers = disorder.scramble(&in_order);
        let (released, dropped) = gate_release(&offers, late_policy(w));
        (offers, released, dropped)
    } else {
        (Vec::new(), in_order, 0)
    };
    Inputs {
        catalog,
        initial: scenario.initial,
        target: scenario.target,
        batches,
        offers,
        released: if with_order { released } else { Vec::new() },
        offered: w.tuples as u64,
        expected_dropped,
    }
}

pub fn late_policy(w: &Workload) -> LatenessPolicy {
    LatenessPolicy::AdmitWithinBound {
        bound: w.disorder_bound,
    }
}

/// The order a router-side lateness gate releases `offers` in (the same
/// gate the runtime runs), and how many it drops.
fn gate_release(offers: &[Offer], policy: LatenessPolicy) -> (Vec<Offer>, u64) {
    let mut gate: LatenessGate<Offer> = LatenessGate::new(policy);
    let mut released = Vec::with_capacity(offers.len());
    let mut out = Vec::new();
    for &o in offers {
        gate.offer(o.ts, o, &mut out);
        released.extend(out.drain(..).map(|(_, o)| o));
    }
    gate.flush(&mut out);
    released.extend(out.drain(..).map(|(_, o)| o));
    (released, gate.stats.dropped_late)
}

/// Order-independent digest of an output's lineage multiset: two
/// independent 64-bit lanes, each a wrapping sum over outputs of a mixed
/// sum over the output's base `(stream, seq)` identities. Equal multisets
/// give equal digests; the full lineage is never materialised, so checking
/// a run costs no memory beyond the output it already holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub outputs: u64,
    lane_a: u64,
    lane_b: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Digest {
    pub fn add(&mut self, t: &Tuple) {
        let (mut a, mut b) = (0u64, 0u64);
        t.for_each_base(&mut |base| {
            let id = ((base.stream.0 as u64) << 48) ^ base.seq;
            a = a.wrapping_add(mix(id ^ 0x9e37_79b9_7f4a_7c15));
            b = b.wrapping_add(mix(id.rotate_left(17) ^ 0x2545_f491_4f6c_dd1d));
        });
        self.outputs += 1;
        self.lane_a = self.lane_a.wrapping_add(mix(a));
        self.lane_b = self.lane_b.wrapping_add(mix(b ^ 0x5851_f42d_4c95_7f2d));
    }

    /// The digest as text, for comparing runs made in other processes.
    pub fn hex(&self) -> String {
        format!(
            "{:x}-{:016x}{:016x}",
            self.outputs, self.lane_a, self.lane_b
        )
    }

    pub fn of(sink: &OutputSink) -> Digest {
        let mut d = Digest::default();
        for t in &sink.log {
            d.add(t);
        }
        d
    }
}

/// The serial oracle: a per-tuple `Pipeline` under `JiscSemantics`, with
/// no transitions and no memory budget, fed the order the system under
/// test processes (the gate-released order on `late`).
pub fn oracle(inputs: &Inputs, late: bool) -> Digest {
    let mut pipe = Pipeline::new(inputs.catalog.clone(), &inputs.initial).expect("oracle pipeline");
    let mut sem = JiscSemantics::default();
    for o in &inputs.released {
        let stream = StreamId(o.stream);
        if late {
            pipe.push_at_with(&mut sem, stream, o.key, o.payload, o.ts)
        } else {
            pipe.push_with(&mut sem, stream, o.key, o.payload)
        }
        .expect("oracle push");
    }
    Digest::of(&pipe.output)
}
