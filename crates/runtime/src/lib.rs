//! The threaded runtime for the JISC engine.
//!
//! The core engine is deliberately synchronous and deterministic (that is
//! what makes the paper's correctness theorems testable bit-for-bit). Real
//! deployments want producers decoupled from the engine: the [`shard`]
//! module's [`ShardedExecutor`] routes arrivals onto supervised worker
//! threads, each running an engine behind a bounded queue that carries the
//! unified in-band [`Event`] stream — columnar data batches, watermarks,
//! migration barriers, and flush punctuation all share one FIFO, so
//! control takes effect at an exact position in the stream. Workers are
//! key-partitioned; a 1-shard executor runs one engine on one background
//! thread with the same supervision, telemetry, spill, and recovery.
//!
//! ```
//! use jisc_common::{ColumnarBatch, StreamId};
//! use jisc_engine::{Catalog, JoinStyle, PlanSpec};
//! use jisc_runtime::{ShardedConfig, ShardedExecutor};
//!
//! let catalog = Catalog::uniform(&["R", "S"], 100).unwrap();
//! let plan = PlanSpec::left_deep(&["R", "S"], JoinStyle::Hash);
//! let mut exec =
//!     ShardedExecutor::spawn_with(catalog, &plan, ShardedConfig::for_shards(1)).unwrap();
//!
//! let mut batch = ColumnarBatch::new(64);
//! batch.push(StreamId(0), 7, 0).unwrap();
//! batch.push(StreamId(1), 7, 0).unwrap();
//! exec.push_columnar(&batch).unwrap();
//!
//! let report = exec.finish().unwrap();
//! assert_eq!(report.outputs, 1);
//! ```

pub mod chan;
pub mod fault;
pub mod shard;
pub(crate) mod supervisor;

pub use fault::{FaultAction, FaultPlan};
pub use shard::{
    Exactness, OverloadPolicy, PhaseClassifier, ShardStrategy, ShardedConfig, ShardedExecutor,
    ShardedReport, SpillSettings,
};

pub use jisc_common::{BatchedTuple, Event, WorkerFault};

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::{ColumnarBatch, Key, StreamId};
    use jisc_core::{AdaptiveEngine, Strategy};
    use jisc_engine::{Catalog, JoinStyle, PlanSpec};

    fn one_shard(streams: &[&str], window: usize) -> ShardedExecutor {
        let catalog = Catalog::uniform(streams, window).unwrap();
        let plan = PlanSpec::left_deep(streams, JoinStyle::Hash);
        ShardedExecutor::spawn_with(catalog, &plan, ShardedConfig::for_shards(1)).unwrap()
    }

    #[test]
    fn batched_producer_matches_synchronous_run() {
        let events: Vec<(u16, Key, u64)> = (0..500).map(|i| ((i % 3) as u16, i % 11, i)).collect();
        // synchronous per-tuple reference
        let catalog = Catalog::uniform(&["R", "S", "T"], 50).unwrap();
        let plan = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let mut sync = AdaptiveEngine::new(catalog, &plan, Strategy::Jisc).unwrap();
        for &(s, k, p) in &events {
            sync.push(StreamId(s), k, p).unwrap();
        }
        // background engine thread fed columnar batches of 64
        let mut exec = one_shard(&["R", "S", "T"], 50);
        for chunk in events.chunks(64) {
            let mut batch = ColumnarBatch::new(64);
            for &(s, k, p) in chunk {
                batch.push(StreamId(s), k, p).unwrap();
            }
            exec.push_columnar(&batch).unwrap();
        }
        let report = exec.finish().unwrap();
        assert_eq!(report.events, 500);
        assert_eq!(report.outputs, sync.output().count() as u64);
        assert_eq!(
            report.output.lineage_multiset(),
            sync.output().lineage_multiset()
        );
    }

    #[test]
    fn transition_requests_are_processed_in_stream_order() {
        let new_plan = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        let catalog = Catalog::uniform(&["R", "S", "T"], 100).unwrap();
        let plan = PlanSpec::left_deep(&["R", "S", "T"], JoinStyle::Hash);
        let mut sync = AdaptiveEngine::new(catalog, &plan, Strategy::Jisc).unwrap();
        let mut exec = one_shard(&["R", "S", "T"], 100);
        for i in 0..400u64 {
            if i == 200 {
                sync.transition_to(&new_plan).unwrap();
                exec.transition(&new_plan).unwrap();
            }
            sync.push(StreamId((i % 3) as u16), i % 7, 0).unwrap();
            exec.push(StreamId((i % 3) as u16), i % 7, 0).unwrap();
        }
        let report = exec.finish().unwrap();
        assert_eq!(report.transitions, 1);
        assert!(report.output.is_duplicate_free());
        assert!(report.outputs > 0);
        assert_eq!(
            report.output.lineage_multiset(),
            sync.output().lineage_multiset(),
            "the barrier must land between arrivals 199 and 200"
        );
    }

    #[test]
    fn snapshot_and_peek_report_progress() {
        let mut exec = one_shard(&["R", "S"], 50);
        for i in 0..2_000u64 {
            exec.push(StreamId((i % 2) as u16), i % 5, 0).unwrap();
        }
        assert_eq!(exec.events(), 2_000);
        let live = exec.telemetry();
        assert_eq!(live.per_shard.len(), 1);
        assert!(live.merged.gauge("routed_events") > 0.0);
        let report = exec.finish().unwrap();
        assert_eq!(report.events, 2_000);
    }
}
