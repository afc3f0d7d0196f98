//! Just-In-Time State Completion (§4): the paper's contribution.
//!
//! On a plan transition JISC copies every state whose signature survives
//! into the new plan (keeping its completeness per the overlapped-transition
//! rule of §4.5), marks the remaining states *incomplete* (Definition 1),
//! and seeds each with the completion-detection bookkeeping of §4.3. The
//! query keeps running immediately: whenever a tuple would probe entries
//! that an incomplete state is still missing, exactly those entries — the
//! ones matching the tuple's join-attribute value — are computed on demand
//! from the children's states (Procedures 1–3) and merged in.
//!
//! ### Divergence from the paper's pseudo-code (documented)
//!
//! Procedure 1 as printed triggers completion only when the probe *misses*
//! and gates it on the per-stream `isFresh` flag. Both are unsound in
//! corner cases the paper's own Theorem 1 proof glosses over: an incomplete
//! state can hold *partial* entries for a key (accumulated from normal
//! post-transition processing), so a probe can hit yet still miss old
//! combinations; and in bushy plans an *attempted* tuple can reach an
//! operator its fresh predecessor never reached. We therefore track
//! completion **per key per state** (the pending sets behind the §4.3
//! counter) and let `needs_completion(key)` be authoritative: completion
//! runs iff the key is still pending, entries are merged with
//! lineage-deduplication, and the counter semantics of §4.3 are preserved
//! exactly. The `isFresh` classification is kept for §4.2's window-clearing
//! optimization and for metrics.

use jisc_common::Tuple;
use jisc_common::{hash_key, Event, FxHashSet, Key, Result};
use jisc_engine::ops;
use jisc_engine::{NodeId, OpKind, Payload, Pipeline, PlanSpec, QueueItem, Semantics, Signature};

use crate::migrate::{verify_reorderable, verify_same_query};

/// Which completion procedure [`JiscSemantics`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionMode {
    /// Procedure 3 (iterative) on left-deep plans, Procedure 2 (recursive)
    /// otherwise — the paper's choice.
    #[default]
    Auto,
    /// Always Procedure 2, even on left-deep plans (ablation baseline).
    ForceRecursive,
}

/// Operator semantics with on-demand state completion (Procedures 1–3).
#[derive(Debug, Default)]
pub struct JiscSemantics {
    /// Completion-procedure selection (ablations override the default).
    pub mode: CompletionMode,
}

impl Semantics for JiscSemantics {
    fn process(&mut self, p: &mut Pipeline, node: NodeId, item: QueueItem) {
        match p.plan().node(node).op {
            OpKind::HashJoin | OpKind::NljJoin(_) => jisc_join(p, node, item, self.mode),
            OpKind::SetDiff => jisc_set_diff(p, node, item, self.mode),
            OpKind::Scan(_) | OpKind::Aggregate(_) => ops::default_process(p, node, item),
        }
    }

    /// Batched-path counterpart of the `ensure_key_complete_with` call in
    /// `jisc_join`: complete the probed state's entries for the key
    /// before any batch tuple reads them.
    fn before_probe(&mut self, p: &mut Pipeline, state_node: NodeId, key: Key) {
        ensure_key_complete_with(p, state_node, key, self.mode);
    }

    /// JISC `Remove` handling is the default walk plus `note_removal`,
    /// which is a no-op on complete states — so once every state is
    /// complete (no migration debt in flight), the bulk retraction kernel
    /// is exact.
    fn bulk_retract_ok(&self, p: &Pipeline) -> bool {
        p.all_states_complete()
    }
}

/// Procedure 1: JISC join. Complete the opposite state's entries for the
/// tuple's key on demand, then join as usual.
fn jisc_join(p: &mut Pipeline, node: NodeId, item: QueueItem, mode: CompletionMode) {
    match item.payload {
        Payload::Insert { tuple, fresh } => {
            let from = item.from.expect("join items come from a child");
            let opp = p
                .plan()
                .sibling(node, from)
                .expect("binary node has sibling");
            ensure_key_complete_with(p, opp, tuple.key(), mode);
            ops::probe_and_emit_joins(p, node, item.from, tuple, fresh);
        }
        Payload::Remove {
            stream,
            seq,
            key,
            fresh,
        } => {
            let removed = p.state_remove_containing(node, stream, seq, key);
            // §4.2: an incomplete state cannot prove absence for a key it
            // has not completed — the clearing-tuple continues upward, since
            // (adopted, complete) states above may still hold its entries.
            // The per-key pending check is strictly tighter than the paper's
            // fresh/attempted gate, which is unsound when the attempted
            // arrival never completed this state (see module docs).
            if removed > 0 || p.plan().node(node).state.needs_completion(key) {
                p.forward_or_emit(
                    node,
                    Payload::Remove {
                        stream,
                        seq,
                        key,
                        fresh,
                    },
                );
            }
            note_removal(p, node, key);
        }
        Payload::RemoveEntry {
            lineage,
            key,
            fresh,
        } => {
            let removed = p.state_remove_superset(node, &lineage, key);
            if removed > 0 || p.plan().node(node).state.needs_completion(key) {
                p.forward_or_emit(
                    node,
                    Payload::RemoveEntry {
                        lineage,
                        key,
                        fresh,
                    },
                );
            }
            note_removal(p, node, key);
        }
        Payload::SuppressKey { key, fresh } => {
            let removed = p.state_remove_key(node, key);
            if removed > 0 || p.plan().node(node).state.needs_completion(key) {
                p.forward_or_emit(node, Payload::SuppressKey { key, fresh });
            }
            note_removal(p, node, key);
        }
    }
}

/// §4.7: JISC set-difference. Inner arrivals probing an incomplete state
/// forward a key-suppression up the pipeline (they cannot prove local
/// absence); inner expiries complete the outer child before re-adding.
fn jisc_set_diff(p: &mut Pipeline, node: NodeId, item: QueueItem, mode: CompletionMode) {
    let from = item.from.expect("set-difference items come from a child");
    let from_left = p.plan().is_left_child(node, from);
    let inner = p.plan().node(node).right.expect("set-diff has right child");
    let outer = p.plan().node(node).left.expect("set-diff has left child");
    match item.payload {
        Payload::Insert { tuple, fresh } if !from_left => {
            let key = tuple.key();
            if !p.plan().node(node).state.is_complete() {
                // Visible entries for this key may be missing locally but
                // present in (complete) states above: clear by key upward.
                p.state_remove_key(node, key);
                p.forward_or_emit(node, Payload::SuppressKey { key, fresh });
                // With the inner tuple in its window the visible set for
                // this key is now empty — nothing left to complete.
                if p.plan_mut().node_mut(node).state.note_key_completed(key) {
                    on_state_completed(p, node);
                }
            } else {
                ops::process_set_diff(
                    p,
                    node,
                    QueueItem {
                        from: Some(from),
                        payload: Payload::Insert { tuple, fresh },
                    },
                );
            }
        }
        Payload::Insert { tuple, fresh } => {
            // Outer arrival: the inner child may itself be incomplete.
            ensure_key_complete_with(p, inner, tuple.key(), mode);
            ops::process_set_diff(
                p,
                node,
                QueueItem {
                    from: Some(from),
                    payload: Payload::Insert { tuple, fresh },
                },
            );
        }
        Payload::Remove { key, fresh, .. } if !from_left => {
            // Inner expiry: formerly suppressed outers may become visible.
            if !p.state_contains_key(inner, key) {
                ensure_key_complete_with(p, outer, key, mode);
                let mut candidates = p.take_probe_scratch();
                p.lookup_state_into(outer, key, &mut candidates);
                for c in candidates.drain(..) {
                    if p.state_insert_if_absent(node, c.clone()) {
                        p.forward_or_emit(node, Payload::Insert { tuple: c, fresh });
                    }
                }
                p.recycle_probe_scratch(candidates);
                // The visible set for this key is now fully materialized.
                if p.plan().node(node).state.needs_completion(key)
                    && p.plan_mut().node_mut(node).state.note_key_completed(key)
                {
                    on_state_completed(p, node);
                }
            }
        }
        Payload::Remove {
            stream,
            seq,
            key,
            fresh,
        } => {
            let removed = p.state_remove_containing(node, stream, seq, key);
            if removed > 0 || p.plan().node(node).state.needs_completion(key) {
                p.forward_or_emit(
                    node,
                    Payload::Remove {
                        stream,
                        seq,
                        key,
                        fresh,
                    },
                );
            }
            note_removal(p, node, key);
        }
        Payload::RemoveEntry {
            lineage,
            key,
            fresh,
        } => {
            let removed = p.state_remove_superset(node, &lineage, key);
            if removed > 0 || p.plan().node(node).state.needs_completion(key) {
                p.forward_or_emit(
                    node,
                    Payload::RemoveEntry {
                        lineage,
                        key,
                        fresh,
                    },
                );
            }
            note_removal(p, node, key);
        }
        Payload::SuppressKey { key, fresh } => {
            let removed = p.state_remove_key(node, key);
            if removed > 0 || p.plan().node(node).state.needs_completion(key) {
                p.forward_or_emit(node, Payload::SuppressKey { key, fresh });
            }
            note_removal(p, node, key);
        }
    }
}

/// Complete the entries for `key` at node `n`'s state if (and only if) they
/// are still pending, choosing the iterative procedure for left-deep plans
/// (Procedure 3) and the recursive one otherwise (Procedure 2).
pub fn ensure_key_complete(p: &mut Pipeline, n: NodeId, key: Key) {
    ensure_key_complete_with(p, n, key, CompletionMode::Auto)
}

/// [`ensure_key_complete`] with an explicit completion-procedure choice.
pub fn ensure_key_complete_with(p: &mut Pipeline, n: NodeId, key: Key, mode: CompletionMode) {
    let st = &p.plan().node(n).state;
    if !st.needs_completion(key) {
        if !st.is_complete() {
            // The paper's "attempted" short-circuit: entries for this key
            // are already known complete even though the state is not.
            p.metrics.attempted_skips += 1;
        }
        return;
    }
    p.metrics.completions += 1;
    if mode == CompletionMode::Auto && p.plan().is_left_deep() {
        complete_key_left_deep(p, n, key);
    } else {
        complete_key_recursive(p, n, key);
    }
}

/// Procedure 2: recursive state completion (bushy plans). Children are
/// completed for `key` first, then the missing entries at `n` are computed
/// from the children's states and merged (lineage-deduplicated against
/// entries accumulated by normal post-transition processing).
pub fn complete_key_recursive(p: &mut Pipeline, n: NodeId, key: Key) {
    if !p.plan().node(n).state.needs_completion(key) {
        return;
    }
    let node = p.plan().node(n);
    if let (Some(l), Some(r)) = (node.left, node.right) {
        complete_key_recursive(p, l, key);
        complete_key_recursive(p, r, key);
        materialize_key(p, n, key);
    }
    if p.plan_mut().node_mut(n).state.note_key_completed(key) {
        on_state_completed(p, n);
    }
}

/// Procedure 3: iterative state completion for left-deep plans. Descends
/// the left spine below `n` and materializes upward — no recursion, as the
/// right children (inner streams) always have complete states.
pub fn complete_key_left_deep(p: &mut Pipeline, n: NodeId, key: Key) {
    // Collect the left spine from `n` down to the leaf.
    let mut spine = vec![n];
    let mut cur = n;
    while let Some(l) = p.plan().node(cur).left {
        spine.push(l);
        cur = l;
    }
    // Materialize bottom-up wherever the key is still pending.
    for &node in spine.iter().rev() {
        if !p.plan().node(node).state.needs_completion(key) {
            continue;
        }
        if p.plan().node(node).left.is_some() {
            materialize_key(p, node, key);
        }
        if p.plan_mut().node_mut(node).state.note_key_completed(key) {
            on_state_completed(p, node);
        }
    }
}

/// Compute the full entry set for `key` at binary node `n` from its
/// children's (key-complete) states and merge the missing entries.
///
/// Entries that accumulated through normal post-transition processing are
/// skipped by lineage; the existing-lineage set is built once per key so
/// the merge is linear in the bucket, not quadratic.
pub(crate) fn materialize_key(p: &mut Pipeline, n: NodeId, key: Key) {
    let node = p.plan().node(n);
    let (Some(l), Some(r)) = (node.left, node.right) else {
        return;
    };
    // One key, several probes and inserts against hash-indexed slab states:
    // hash once and hand the hash down (list-backed states ignore it).
    let h = hash_key(key);
    match node.op {
        OpKind::HashJoin | OpKind::NljJoin(_) => {
            let mut ls = Vec::new();
            p.lookup_state_into_hashed(l, h, key, &mut ls);
            if ls.is_empty() {
                return;
            }
            let mut rs = Vec::new();
            p.lookup_state_into_hashed(r, h, key, &mut rs);
            if rs.is_empty() {
                return;
            }
            let mut own = p.take_probe_scratch();
            p.lookup_state_into_hashed(n, h, key, &mut own);
            let existing: FxHashSet<jisc_common::Lineage> =
                own.iter().map(|t| t.lineage()).collect();
            p.recycle_probe_scratch(own);
            for a in &ls {
                for b in &rs {
                    let t = Tuple::joined(key, a.clone(), b.clone());
                    if existing.is_empty() || !existing.contains(&t.lineage()) {
                        p.state_insert_hashed(n, h, t);
                    }
                }
            }
        }
        OpKind::SetDiff => {
            if !p.state_contains_key(r, key) {
                let mut own = p.take_probe_scratch();
                p.lookup_state_into_hashed(n, h, key, &mut own);
                let existing: FxHashSet<jisc_common::Lineage> =
                    own.iter().map(|t| t.lineage()).collect();
                p.recycle_probe_scratch(own);
                let mut outers = Vec::new();
                p.lookup_state_into_hashed(l, h, key, &mut outers);
                for a in outers {
                    if existing.is_empty() || !existing.contains(&a.lineage()) {
                        p.state_insert_hashed(n, h, a);
                    }
                }
            }
        }
        OpKind::Scan(_) | OpKind::Aggregate(_) => {}
    }
}

/// §4.3 child-completion notification: when `n`'s state becomes complete,
/// a Case-3 parent whose other child is also complete can finally resolve
/// its pending set; completion may then cascade upward.
pub fn on_state_completed(p: &mut Pipeline, n: NodeId) {
    let mut cur = n;
    while let Some(par) = p.plan().node(cur).parent {
        let pst = &p.plan().node(par).state;
        if pst.is_complete() || pst.counter().is_some() {
            // Complete already, or Known pending that resolves by counter.
            return;
        }
        let parent_node = p.plan().node(par);
        let (Some(l), Some(r)) = (parent_node.left, parent_node.right) else {
            return;
        };
        if !(p.plan().node(l).state.is_complete() && p.plan().node(r).state.is_complete()) {
            return;
        }
        let residual = case3_residual(p, par, l, r);
        if p.plan_mut().node_mut(par).state.resolve_case3(residual) {
            cur = par;
        } else {
            return;
        }
    }
}

/// Residual pending keys for a Case-3 state whose children just became
/// complete: the counter basis of §4.3 (smaller child key set; outer keys
/// for set-difference) minus keys already completed on demand. Keys fully
/// handled by post-transition processing may linger in the residual; their
/// later completion is a deduplicated no-op.
fn case3_residual(p: &Pipeline, parent: NodeId, l: NodeId, r: NodeId) -> FxHashSet<Key> {
    let basis = match p.plan().node(parent).op {
        OpKind::SetDiff => p.plan().node(l).state.distinct_keys(),
        _ => {
            let (lc, rc) = (
                p.plan().node(l).state.distinct_key_count(),
                p.plan().node(r).state.distinct_key_count(),
            );
            if lc <= rc {
                p.plan().node(l).state.distinct_keys()
            } else {
                p.plan().node(r).state.distinct_keys()
            }
        }
    };
    match p.plan().node(parent).state.completed_keys() {
        Some(done) => basis.difference(done).copied().collect(),
        None => basis,
    }
}

/// After removing entries for `key` at an incomplete state, drop the key
/// from the pending set if the children can no longer produce anything for
/// it (window expiry made the completion moot) — keeps the §4.3 counter
/// converging under sliding windows.
fn note_removal(p: &mut Pipeline, n: NodeId, key: Key) {
    let st = &p.plan().node(n).state;
    if st.is_complete() || st.counter().is_none() || !st.needs_completion(key) {
        return;
    }
    let node = p.plan().node(n);
    let (Some(l), Some(r)) = (node.left, node.right) else {
        return;
    };
    // A child can be declared key-empty only if its own entries for the key
    // are authoritative: an incomplete child that still needs completion for
    // the key may be hiding entries it has not materialized yet.
    let is_set_diff = matches!(node.op, OpKind::SetDiff);
    let l_empty = !p.plan().node(l).state.needs_completion(key) && !p.state_contains_key(l, key);
    let moot = if is_set_diff {
        // Visible set is provably empty: no outer candidates, or an inner
        // match positively suppresses the key.
        l_empty || p.state_contains_key(r, key)
    } else {
        let r_empty =
            !p.plan().node(r).state.needs_completion(key) && !p.state_contains_key(r, key);
        l_empty || r_empty
    };
    if moot && p.plan_mut().node_mut(n).state.note_key_expired(key) {
        on_state_completed(p, n);
    }
}

/// Perform a JISC plan transition on a running pipeline (§4.1, §4.5):
/// buffer-clearing through the old plan, state adoption by signature with
/// completeness carried over, and incomplete-state initialization (§4.3).
pub fn jisc_transition(p: &mut Pipeline, new_spec: &PlanSpec) -> Result<()> {
    let mut sem = JiscSemantics::default();
    // Safe transition: clear all input queues through the old plan first.
    p.run_with(&mut sem);
    let new_plan = p.compile(new_spec)?;
    verify_same_query(p.plan(), &new_plan)?;
    verify_reorderable(&new_plan)?;
    p.mark_transition();
    let mut old = p.replace_plan(new_plan);
    // §4.5: a state is complete in the new plan only if it exists *and is
    // complete* in the old plan — adopted states carry their flags.
    let outcome = p.adopt_states(&mut old, |_, _| {});
    let adopted: FxHashSet<Signature> = outcome.adopted.into_iter().collect();
    init_incomplete_states(p, &adopted);
    Ok(())
}

/// Mark non-adopted binary states incomplete and seed their §4.3 counters.
/// Also the crash-recovery entry point (`crate::recovery`): a restarted
/// pipeline is a transition that adopted nothing.
pub(crate) fn init_incomplete_states(p: &mut Pipeline, adopted: &FxHashSet<Signature>) {
    use jisc_engine::PendingKeys;
    let order: Vec<NodeId> = p.plan().topo().to_vec();
    for id in order {
        let node = p.plan().node(id);
        if adopted.contains(&node.signature) {
            continue;
        }
        let (Some(l), Some(r)) = (node.left, node.right) else {
            continue;
        };
        let is_set_diff = matches!(node.op, OpKind::SetDiff);
        let l_complete = p.plan().node(l).state.is_complete();
        let r_complete = p.plan().node(r).state.is_complete();
        let pending = if is_set_diff {
            if l_complete {
                // Counter basis: outer keys (every visible candidate).
                PendingKeys::Known(p.plan().node(l).state.distinct_keys())
            } else {
                PendingKeys::Unknown {
                    completed: Default::default(),
                }
            }
        } else {
            match (l_complete, r_complete) {
                // Case 1: both complete — smaller distinct-key side.
                (true, true) => {
                    let (lc, rc) = (
                        p.plan().node(l).state.distinct_key_count(),
                        p.plan().node(r).state.distinct_key_count(),
                    );
                    let keys = if lc <= rc {
                        p.plan().node(l).state.distinct_keys()
                    } else {
                        p.plan().node(r).state.distinct_keys()
                    };
                    PendingKeys::Known(keys)
                }
                // Case 2: one incomplete — count the complete child.
                (true, false) => PendingKeys::Known(p.plan().node(l).state.distinct_keys()),
                (false, true) => PendingKeys::Known(p.plan().node(r).state.distinct_keys()),
                // Case 3: both incomplete — counter unknowable.
                (false, false) => PendingKeys::Unknown {
                    completed: Default::default(),
                },
            }
        };
        match pending {
            PendingKeys::Known(s) if s.is_empty() => {
                // Nothing can be missing: trivially complete.
            }
            pending => {
                p.plan_mut().node_mut(id).state.mark_incomplete(pending);
                p.metrics.states_incomplete += 1;
            }
        }
    }
}

/// Semantics that can additionally apply a [`Event::MigrationBarrier`]
/// (jisc_common's `Event`): the hook that puts plan migration in-band.
///
/// Serial executors and the sharded runtime's workers both drive their
/// pipelines exclusively through [`apply_event`], so there is exactly one
/// migration code path regardless of deployment shape.
pub trait EventSemantics: Semantics {
    /// Apply a migration barrier carrying the target plan.
    fn apply_barrier(p: &mut Pipeline, spec: &PlanSpec) -> Result<()>;
}

impl EventSemantics for JiscSemantics {
    fn apply_barrier(p: &mut Pipeline, spec: &PlanSpec) -> Result<()> {
        jisc_transition(p, spec)
    }
}

impl EventSemantics for jisc_engine::DefaultSemantics {
    fn apply_barrier(_p: &mut Pipeline, _spec: &PlanSpec) -> Result<()> {
        Err(jisc_common::JiscError::InvalidConfig(
            "plan transitions require JISC semantics".into(),
        ))
    }
}

/// Apply one in-band event to a pipeline: the single consumption path for
/// the unified event stream. `Columnar` runs the batched ingest,
/// `Expiry` advances the watermark, `MigrationBarrier` performs the
/// semantics' plan transition, and `Flush` drains all operator queues.
pub fn apply_event<S: EventSemantics>(
    p: &mut Pipeline,
    sem: &mut S,
    ev: Event<PlanSpec>,
) -> Result<()> {
    match ev {
        Event::Columnar(batch) => p.push_columnar_with(sem, &batch),
        Event::Expiry(ts) => p.advance_watermark_with(sem, ts),
        Event::Watermark(ts) => p.apply_watermark_with(sem, ts),
        Event::MigrationBarrier(spec) => S::apply_barrier(p, &spec),
        Event::Flush => {
            p.run_with(sem);
            Ok(())
        }
        // Routing is the runtime's concern; an engine accepts the epoch
        // punctuation as a no-op. Its value is its *position*: the router
        // guarantees all pre-repartition events were routed under the old
        // map and all later ones under the new map.
        Event::Repartition(_) => Ok(()),
    }
}

/// Number of states currently marked incomplete.
pub fn incomplete_state_count(p: &Pipeline) -> usize {
    p.plan()
        .ids()
        .filter(|&i| !p.plan().node(i).state.is_complete())
        .count()
}

/// The JISC executor: a pipeline driven by [`JiscSemantics`] with
/// [`jisc_transition`] plan changes. This is the paper's system.
#[derive(Debug)]
pub struct JiscExec {
    pipe: Pipeline,
    sem: JiscSemantics,
}

impl JiscExec {
    /// Build over a catalog and initial plan. The plan must be reorderable
    /// (hash or `KeyEq` nested-loops joins, set-differences).
    pub fn new(catalog: jisc_engine::Catalog, spec: &PlanSpec) -> Result<Self> {
        let pipe = Pipeline::new(catalog, spec)?;
        verify_reorderable(pipe.plan())?;
        Ok(JiscExec {
            pipe,
            sem: JiscSemantics::default(),
        })
    }

    /// Process one arrival to quiescence.
    pub fn push(&mut self, stream: jisc_common::StreamId, key: Key, payload: u64) -> Result<()> {
        self.pipe.push_with(&mut self.sem, stream, key, payload)
    }

    /// Process one arrival by stream name.
    pub fn push_named(&mut self, stream: &str, key: Key, payload: u64) -> Result<()> {
        let id = self.pipe.catalog().id(stream)?;
        self.push(id, key, payload)
    }

    /// Process one arrival carrying an explicit timestamp (time windows).
    pub fn push_at(
        &mut self,
        stream: jisc_common::StreamId,
        key: Key,
        payload: u64,
        ts: u64,
    ) -> Result<()> {
        self.pipe
            .push_at_with(&mut self.sem, stream, key, payload, ts)
    }

    /// Process a whole columnar batch through the vectorized kernel path.
    pub fn push_columnar(&mut self, batch: &jisc_common::ColumnarBatch) -> Result<()> {
        self.pipe.push_columnar_with(&mut self.sem, batch)
    }

    /// Consume one in-band event (data batch, watermark, migration
    /// barrier, or flush).
    pub fn on_event(&mut self, ev: Event<PlanSpec>) -> Result<()> {
        apply_event(&mut self.pipe, &mut self.sem, ev)
    }

    /// Migrate to a new plan without halting (§4).
    pub fn transition_to(&mut self, new_spec: &PlanSpec) -> Result<()> {
        jisc_transition(&mut self.pipe, new_spec)
    }

    /// Override the completion-procedure selection (ablations).
    pub fn set_completion_mode(&mut self, mode: CompletionMode) {
        self.sem.mode = mode;
    }

    /// The underlying pipeline (output, metrics, plan inspection).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }

    /// Mutable pipeline access (tests and benches).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipe
    }

    /// States still incomplete from the most recent transition.
    pub fn incomplete_states(&self) -> usize {
        incomplete_state_count(&self.pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jisc_common::{SplitMix64, StreamId};
    use jisc_engine::{Catalog, JoinStyle};

    fn exec(streams: &[&str], window: usize) -> JiscExec {
        let catalog = Catalog::uniform(streams, window).unwrap();
        let spec = PlanSpec::left_deep(streams, JoinStyle::Hash);
        JiscExec::new(catalog, &spec).unwrap()
    }

    fn feed(e: &mut JiscExec, n: usize, streams: u64, keys: u64, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..n {
            e.push(
                StreamId(rng.next_below(streams) as u16),
                rng.next_below(keys),
                0,
            )
            .unwrap();
        }
    }

    #[test]
    fn best_case_transition_leaves_one_incomplete_state() {
        let mut e = exec(&["R", "S", "T", "U"], 50);
        feed(&mut e, 400, 4, 10, 1);
        // Swap the two topmost streams: only the join below the root changes.
        let target = PlanSpec::left_deep(&["R", "S", "U", "T"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        assert_eq!(e.incomplete_states(), 1);
        assert_eq!(e.pipeline().metrics.states_incomplete, 1);
    }

    #[test]
    fn worst_case_transition_invalidates_all_intermediates() {
        let mut e = exec(&["R", "S", "T", "U", "V"], 40);
        feed(&mut e, 500, 5, 10, 2);
        let target = PlanSpec::left_deep(&["V", "S", "T", "U", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        // 4 joins; the root always survives (covers all streams).
        assert_eq!(e.incomplete_states(), 3);
    }

    #[test]
    fn counter_initialized_from_complete_child_case2() {
        let mut e = exec(&["R", "S", "T", "U"], 50);
        feed(&mut e, 400, 4, 6, 3);
        // Worst case: RU and RUT incomplete in ((R U) T) S ... use swap 0<->3
        let target = PlanSpec::left_deep(&["U", "S", "T", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        let p = e.pipeline();
        // Find the lowest incomplete join: children are two scans (Case 1);
        // the next one up has an incomplete left child (Case 2).
        let mut counters = Vec::new();
        for id in p.plan().ids() {
            let st = &p.plan().node(id).state;
            if !st.is_complete() {
                counters.push(st.counter().expect("left-deep states use Known pending"));
            }
        }
        assert_eq!(counters.len(), 2);
        for c in counters {
            assert!(
                c > 0 && c <= 6,
                "counter must hold distinct key count, got {c}"
            );
        }
    }

    #[test]
    fn completion_decrements_counter_and_converges() {
        let mut e = exec(&["R", "S", "T"], 30);
        feed(&mut e, 300, 3, 5, 4);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        assert_eq!(e.incomplete_states(), 1);
        let before = {
            let p = e.pipeline();
            p.plan()
                .ids()
                .filter_map(|i| p.plan().node(i).state.counter())
                .next()
                .expect("one incomplete state")
        };
        assert!(before > 0);
        // Probing arrivals complete keys on demand; all 5 keys recur fast.
        feed(&mut e, 200, 3, 5, 5);
        assert_eq!(e.incomplete_states(), 0, "all keys probed or expired");
        assert!(e.pipeline().metrics.completions > 0);
    }

    #[test]
    fn overlapped_transition_keeps_revisited_state_incomplete() {
        // §4.5 / Figure 4: ST incomplete after transition 1; transition 2
        // revisits a plan containing ST — it must stay incomplete.
        let mut e = exec(&["R", "S", "T", "U"], 60);
        feed(&mut e, 500, 4, 50, 6); // many keys: completion will not finish
        let t1 = PlanSpec::left_deep(&["R", "S", "U", "T"], JoinStyle::Hash);
        e.transition_to(&t1).unwrap(); // RSU incomplete
        assert_eq!(e.incomplete_states(), 1);
        feed(&mut e, 3, 4, 50, 7); // far too few probes to complete RSU
        assert_eq!(e.incomplete_states(), 1);
        let t2 = PlanSpec::left_deep(&["S", "R", "U", "T"], JoinStyle::Hash);
        e.transition_to(&t2).unwrap();
        // {R,S,U} exists in the old plan but was incomplete there: must
        // remain incomplete here (plus nothing else changed: {R,S} swaps
        // produce the same signature).
        assert!(
            e.incomplete_states() >= 1,
            "revisited state must stay incomplete"
        );
    }

    #[test]
    fn attempted_probes_skip_completion() {
        let mut e = exec(&["R", "S", "T"], 40);
        feed(&mut e, 300, 3, 4, 8);
        let target = PlanSpec::left_deep(&["T", "S", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        feed(&mut e, 300, 3, 4, 9);
        let m = &e.pipeline().metrics;
        assert!(m.completions <= 4 * 2, "at most once per key per state");
        assert!(
            m.attempted_skips > 0,
            "repeat keys must take the short path"
        );
    }

    #[test]
    fn transition_is_rejected_for_unknown_stream_plan() {
        let mut e = exec(&["R", "S", "T"], 10);
        let bad = PlanSpec::left_deep(&["R", "S", "X"], JoinStyle::Hash);
        assert!(e.transition_to(&bad).is_err());
        // engine still works afterwards
        e.push_named("R", 1, 0).unwrap();
        e.push_named("S", 1, 0).unwrap();
        e.push_named("T", 1, 0).unwrap();
        assert_eq!(e.pipeline().output.count(), 1);
    }

    #[test]
    fn jisc_latency_is_tiny_compared_to_state_sizes() {
        let mut e = exec(&["R", "S", "T", "U"], 100);
        feed(&mut e, 2_000, 4, 100, 10);
        let work_before = e.pipeline().metrics.total_work();
        let target = PlanSpec::left_deep(&["U", "S", "T", "R"], JoinStyle::Hash);
        e.transition_to(&target).unwrap();
        let transition_work = e.pipeline().metrics.total_work() - work_before;
        // The transition itself moves states and seeds counters — it must
        // not rebuild anything (that would show up as inserts/probes).
        assert_eq!(e.pipeline().metrics.eager_entries_built, 0);
        assert!(
            transition_work < 10,
            "lazy transition should do ~no state work, did {transition_work}"
        );
    }

    #[test]
    fn iterative_and_recursive_completion_agree() {
        let streams = ["R", "S", "T", "U"];
        let mut outs = Vec::new();
        for mode in [CompletionMode::Auto, CompletionMode::ForceRecursive] {
            let mut e = exec(&streams, 30);
            e.set_completion_mode(mode);
            feed(&mut e, 300, 4, 6, 11);
            let target = PlanSpec::left_deep(&["U", "T", "S", "R"], JoinStyle::Hash);
            e.transition_to(&target).unwrap();
            feed(&mut e, 300, 4, 6, 12);
            outs.push(e.pipeline().output.lineage_multiset());
        }
        assert_eq!(outs[0], outs[1]);
    }
}
