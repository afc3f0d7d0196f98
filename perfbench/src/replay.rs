//! Engine self time with no runtime around it: the traced run replays
//! each shard's routed partition through a bare `Pipeline` on the
//! benchmark thread, then times `OutputSink::merged` over the replay
//! sinks. Watermark broadcasts are not replayed; the windows still expire
//! by the tuples' own timestamps.

use std::time::Instant;

use jisc_common::{ColumnarBatch, PartitionMap, StreamId};
use jisc_core::jisc::JiscSemantics;
use jisc_engine::{OutputSink, Pipeline};

use crate::trace::Tracer;
use crate::workload::{Digest, Inputs, Kind, Workload};

/// Rows per staged shard batch in `ShardedExecutor`'s router.
const ROUTER_BATCH: usize = 64;

pub struct Replay {
    pub busy_s: f64,
    pub merge_s: f64,
    pub hot_bytes: u64,
    pub digest: Digest,
}

/// Replay `inp` partitioned by `pmap` (sharded workloads), or whole
/// (`None`: the embedded workload, without its transitions).
pub fn replay(w: &Workload, inp: &Inputs, pmap: Option<&PartitionMap>, tr: &mut Tracer) -> Replay {
    let parts: Vec<Vec<ColumnarBatch>> = match pmap {
        None => vec![inp.batches.clone()],
        Some(pmap) => {
            // Stamp every row with the clocks the router assigns: the
            // global sequence in processing order and the tuple's time.
            let n = pmap.shard_bound();
            let mut parts: Vec<Vec<ColumnarBatch>> = vec![Vec::new(); n];
            for (seq, o) in inp.released.iter().enumerate() {
                let ts = if w.kind == Kind::Late {
                    o.ts
                } else {
                    seq as u64
                };
                let part = &mut parts[pmap.shard_for_key(o.key)];
                if part.last().is_none_or(|b| b.is_full()) {
                    part.push(ColumnarBatch::new(ROUTER_BATCH));
                }
                part.last_mut()
                    .expect("pushed above")
                    .push_stamped(
                        StreamId(o.stream),
                        o.key,
                        o.payload,
                        Some(ts),
                        Some(seq as u64),
                    )
                    .expect("batch cut on full");
            }
            parts
        }
    };
    let mut busy_s = 0.0;
    let mut hot_bytes = 0;
    let mut sinks = Vec::with_capacity(parts.len());
    for (s, batches) in parts.iter().enumerate() {
        let mut pipe = Pipeline::new(inp.catalog.clone(), &inp.initial).expect("replay pipeline");
        let mut sem = JiscSemantics::default();
        tr.enter("engine.replay", s as u64);
        for b in batches {
            let t = Instant::now();
            pipe.push_columnar_with(&mut sem, b).expect("replay push");
            busy_s += t.elapsed().as_secs_f64();
        }
        tr.exit();
        hot_bytes += pipe.hot_bytes() as u64;
        sinks.push(std::mem::take(&mut pipe.output));
    }
    tr.enter("engine.output.merge", 0);
    let t = Instant::now();
    let merged = OutputSink::merged(sinks);
    let merge_s = t.elapsed().as_secs_f64();
    tr.exit();
    Replay {
        busy_s,
        merge_s,
        hot_bytes,
        digest: Digest::of(&merged),
    }
}
