//! Query output sink: the root operator's emission log.

use jisc_common::{FxHashMap, Key, Lineage, SeqNo, Tuple};

/// Collects everything the plan root emits.
///
/// Output is an append-only log, matching the paper's stream semantics: a
/// result is correct at emission time and is never retracted by later window
/// slides. (Set-difference suppressions that reach the root are counted in
/// [`OutputSink::retractions`] for observability but do not rewrite the log.)
///
/// The sink also supports *latency arming*: a migration strategy arms the
/// sink when a transition is triggered, and the sink records how much work
/// (an externally supplied monotonic counter) elapsed until the next
/// emission — the paper's "output latency" measure (§6.3).
#[derive(Debug, Clone, Default)]
pub struct OutputSink {
    /// Emitted result tuples, in emission order.
    pub log: Vec<Tuple>,
    /// Aggregate updates: `(group key or None for global, running count)`.
    pub agg_log: Vec<(Option<Key>, u64)>,
    /// Root-level suppressions observed (set-difference plans).
    pub retractions: u64,
    armed_at: Option<u64>,
    /// Work elapsed between each arming and the next emission.
    pub latency_marks: Vec<u64>,
}

impl OutputSink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        OutputSink::default()
    }

    /// Record an emission; `work_now` is the current monotonic work counter.
    pub fn emit(&mut self, t: Tuple, work_now: u64) {
        if let Some(at) = self.armed_at.take() {
            self.latency_marks.push(work_now.saturating_sub(at));
        }
        self.log.push(t);
    }

    /// Arm the latency marker at the current work counter (called when a
    /// plan transition is triggered).
    pub fn arm_latency(&mut self, work_now: u64) {
        self.armed_at = Some(work_now);
    }

    /// True if a latency measurement is pending (armed but not yet emitted).
    pub fn latency_pending(&self) -> bool {
        self.armed_at.is_some()
    }

    /// Number of emitted result tuples.
    pub fn count(&self) -> usize {
        self.log.len()
    }

    /// Multiset of output lineages — the canonical form used to compare two
    /// executions for equality (Theorems 1–3).
    pub fn lineage_multiset(&self) -> FxHashMap<Lineage, usize> {
        let mut m: FxHashMap<Lineage, usize> = FxHashMap::default();
        for t in &self.log {
            *m.entry(t.lineage()).or_default() += 1;
        }
        m
    }

    /// True if no output lineage appears more than once (duplicate-freedom,
    /// Theorem 3).
    pub fn is_duplicate_free(&self) -> bool {
        self.lineage_multiset().values().all(|&c| c == 1)
    }

    /// Clear the log (between experiment phases), keeping arming state.
    pub fn clear_log(&mut self) {
        self.log.clear();
        self.agg_log.clear();
    }

    /// Merge per-shard sinks into one deterministic sink.
    ///
    /// Join logs are concatenated and put in canonical order: by
    /// `(max_seq, min_seq)`, then by lineage, then by position in the
    /// concatenation (sink order, then emission order). The order depends
    /// only on each output's lineage, not on shard interleaving, so the
    /// merged log is byte-identical across runs and comparable (as a
    /// multiset) to a serial execution. Both seqs are cached on the root
    /// tuple, so only outputs tied on both walk their lineage trees.
    /// Aggregate logs are concatenated in shard order — they are per-shard
    /// running sequences, not a global one. Latency marks are pooled and
    /// sorted; retraction counts are summed.
    pub fn merged(sinks: impl IntoIterator<Item = OutputSink>) -> OutputSink {
        let mut out = OutputSink::new();
        for s in sinks {
            out.log.extend(s.log);
            out.agg_log.extend(s.agg_log);
            out.retractions += s.retractions;
            out.latency_marks.extend(s.latency_marks);
        }
        sort_canonical(&mut out.log);
        out.latency_marks.sort_unstable();
        out
    }
}

/// Sort `log` by `(max_seq, min_seq, lineage, position)`.
///
/// Sorts compact `(max_seq, min_seq, position)` keys, orders each run tied
/// on both seqs by lineage (stably, so equal lineages keep their
/// positions), then permutes the log once.
fn sort_canonical(log: &mut Vec<Tuple>) {
    let mut keys: Vec<(SeqNo, SeqNo, usize)> = log
        .iter()
        .enumerate()
        .map(|(i, t)| (t.max_seq(), t.min_seq(), i))
        .collect();
    keys.sort_unstable();
    for run in keys.chunk_by_mut(|a, b| (a.0, a.1) == (b.0, b.1)) {
        if run.len() > 1 {
            run.sort_by_cached_key(|k| log[k.2].lineage());
        }
    }
    let mut slots: Vec<Option<Tuple>> = log.drain(..).map(Some).collect();
    for &(_, _, i) in &keys {
        log.push(slots[i].take().expect("each position once"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::{BaseTuple, StreamId};
    use proptest::prelude::*;

    fn bt(stream: u16, seq: u64, key: Key) -> Tuple {
        Tuple::base(BaseTuple::new(StreamId(stream), seq, key, 0))
    }

    /// Left-deep composite of `(stream, seq)` constituents; `tag` goes in
    /// every payload, so outputs with equal lineages stay distinguishable.
    fn composite(parts: &[(u16, u64)], tag: u64) -> Tuple {
        let base = |&(s, q): &(u16, u64)| Tuple::base(BaseTuple::new(StreamId(s), q, 7, tag));
        let mut it = parts.iter();
        let first = base(it.next().expect("at least one constituent"));
        it.fold(first, |acc, p| Tuple::joined(7, acc, base(p)))
    }

    fn sink(log: Vec<Tuple>) -> OutputSink {
        OutputSink {
            log,
            ..OutputSink::default()
        }
    }

    /// The canonical order, spelled out: a stable sort of the concatenated
    /// logs on `(max_seq, min_seq, lineage)`.
    fn reference(sinks: &[OutputSink]) -> Vec<Tuple> {
        let mut log: Vec<Tuple> = sinks.iter().flat_map(|s| s.log.iter().cloned()).collect();
        log.sort_by_cached_key(|t| (t.max_seq(), t.min_seq(), t.lineage()));
        log
    }

    fn assert_matches_reference(sinks: Vec<OutputSink>) -> Vec<Tuple> {
        let want = reference(&sinks);
        let got = OutputSink::merged(sinks).log;
        assert_eq!(got, want);
        got
    }

    #[test]
    fn merged_orders_seq_ties_by_lineage_across_sinks() {
        // All four share max_seq 9 and min_seq 1; only the lineage differs.
        let a = sink(vec![
            composite(&[(0, 1), (1, 5), (2, 9)], 0),
            composite(&[(0, 1), (2, 9)], 0),
        ]);
        let b = sink(vec![
            composite(&[(0, 1), (1, 3), (2, 9)], 1),
            composite(&[(2, 9), (0, 1), (1, 4)], 1),
            composite(&[(0, 2), (1, 3)], 1),
        ]);
        let got = assert_matches_reference(vec![a, b]);
        let lineages: Vec<String> = got.iter().map(|t| format!("{:?}", t.lineage())).collect();
        assert_eq!(
            lineages,
            [
                "[S0#2,S1#3]",
                "[S0#1,S1#3,S2#9]",
                "[S0#1,S1#4,S2#9]",
                "[S0#1,S1#5,S2#9]",
                "[S0#1,S2#9]",
            ]
        );
    }

    #[test]
    fn merged_keeps_equal_lineages_in_sink_then_emission_order() {
        // Same lineage, different join shapes and payload tags.
        let a = sink(vec![
            composite(&[(0, 1), (1, 2), (2, 3)], 10),
            composite(&[(2, 3), (1, 2), (0, 1)], 11),
        ]);
        let b = sink(vec![
            composite(&[(1, 2), (0, 1), (2, 3)], 20),
            composite(&[(0, 1), (1, 2), (2, 3)], 21),
        ]);
        let got = assert_matches_reference(vec![a, b]);
        let tags: Vec<u64> = got
            .iter()
            .map(|t| t.base_for(StreamId(0)).unwrap().payload)
            .collect();
        assert_eq!(tags, [10, 11, 20, 21]);
    }

    #[test]
    fn merged_orders_base_outputs() {
        let a = sink(vec![bt(1, 8, 0), bt(0, 3, 0), bt(2, 5, 0)]);
        let b = sink(vec![bt(0, 5, 0), bt(3, 1, 0)]);
        let got = assert_matches_reference(vec![a, b]);
        let ids: Vec<(StreamId, u64)> = got.iter().map(|t| t.lineage().parts()[0]).collect();
        let want = [(3, 1), (0, 3), (0, 5), (2, 5), (1, 8)].map(|(s, q)| (StreamId(s), q));
        assert_eq!(ids, want);
    }

    #[test]
    fn merged_handles_empty_sinks() {
        assert!(OutputSink::merged(Vec::new()).log.is_empty());
        let empties = vec![sink(vec![]), sink(vec![])];
        assert!(OutputSink::merged(empties).log.is_empty());
        let got = assert_matches_reference(vec![
            sink(vec![]),
            sink(vec![composite(&[(0, 4), (1, 2)], 0), bt(0, 3, 0)]),
            sink(vec![]),
        ]);
        assert_eq!(got.len(), 2);
    }

    proptest! {
        /// Random composites over a small seq range (so seq ties are
        /// common), split into random sinks, merge to the reference order.
        #[test]
        fn merged_matches_reference_sort(
            outputs in proptest::collection::vec(
                (proptest::collection::vec((0u16..3, 0u64..5), 1..5), 0usize..4, 0u64..3),
                0..60,
            ),
        ) {
            let mut sinks: Vec<OutputSink> = (0..4).map(|_| OutputSink::new()).collect();
            for (parts, shard, tag) in &outputs {
                sinks[*shard].log.push(composite(parts, *tag));
            }
            let want = reference(&sinks);
            prop_assert_eq!(OutputSink::merged(sinks).log, want);
        }
    }

    #[test]
    fn emit_logs_and_counts() {
        let mut s = OutputSink::new();
        s.emit(bt(0, 1, 5), 10);
        s.emit(bt(0, 2, 5), 20);
        assert_eq!(s.count(), 2);
        assert!(s.is_duplicate_free());
    }

    #[test]
    fn latency_marks_measure_to_first_emission() {
        let mut s = OutputSink::new();
        s.arm_latency(100);
        assert!(s.latency_pending());
        s.emit(bt(0, 1, 5), 175);
        s.emit(bt(0, 2, 5), 500); // second emission does not re-mark
        assert_eq!(s.latency_marks, vec![75]);
        assert!(!s.latency_pending());
        s.arm_latency(600);
        s.emit(bt(0, 3, 5), 630);
        assert_eq!(s.latency_marks, vec![75, 30]);
    }

    #[test]
    fn duplicate_detection() {
        let mut s = OutputSink::new();
        s.emit(bt(0, 1, 5), 0);
        s.emit(bt(0, 1, 5), 0);
        assert!(!s.is_duplicate_free());
        assert_eq!(s.lineage_multiset().values().copied().max(), Some(2));
    }
}
