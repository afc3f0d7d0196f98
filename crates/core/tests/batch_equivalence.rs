//! Property test: batched execution is observationally equivalent to
//! per-tuple execution.
//!
//! Random multi-stream scenarios — count and time windows, with mid-stream
//! migrations and expiry watermarks at random points — are run twice per
//! strategy: once pushing every arrival individually, once through the
//! unified event stream in [`ColumnarBatch`]es of size 1, 7, 64 and 256
//! and cut at the case's own arbitrary partition points. Migration and
//! expiry points rarely fall on a batch boundary, so the
//! [`Event::MigrationBarrier`] and [`Event::Expiry`] routinely land
//! "mid-batch", cutting the current batch short exactly as a router would.
//! Output lineage multisets must be identical in every configuration, for
//! all four strategies: plain pipelined execution (no migrations), JISC,
//! Moving State, and Parallel Track.

use jisc_common::{ColumnarBatch, Event, Lineage, StreamId};
use jisc_core::jisc::apply_event;
use jisc_core::{AdaptiveEngine, JiscExec, Strategy as Mig};
use jisc_engine::{Catalog, DefaultSemantics, JoinStyle, Pipeline, PlanSpec, StreamDef};
use proptest::prelude::*;

type OutputMultiset = Vec<(Lineage, usize)>;

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 256];

#[derive(Debug, Clone)]
struct Case {
    /// Stream names, 3..=4 of them.
    names: Vec<String>,
    /// Time-window ticks, or `None` for a count window of 20.
    ticks: Option<u64>,
    /// `(stream, key)` arrivals.
    arrivals: Vec<(u16, u64)>,
    /// Arrival indices at which a migration (leaf rotation) fires.
    migrations: Vec<usize>,
    /// Arrival indices at which the arbitrary batch partition cuts.
    cuts: Vec<usize>,
    /// Arrival indices at which an expiry watermark is punctuated.
    expiries: Vec<usize>,
}

impl Case {
    fn catalog(&self) -> Catalog {
        let defs = self
            .names
            .iter()
            .map(|n| match self.ticks {
                Some(t) => StreamDef::timed(n.clone(), t),
                None => StreamDef::new(n.clone(), 20),
            })
            .collect();
        Catalog::new(defs).expect("valid catalog")
    }

    /// Plan after `rot` leaf rotations (rot = 0 is the initial plan).
    fn plan(&self, rot: usize) -> PlanSpec {
        let mut names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        let by = rot % names.len();
        names.rotate_left(by);
        PlanSpec::left_deep(&names, JoinStyle::Hash)
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (3usize..=4, 0usize..3, 40usize..120).prop_flat_map(|(streams, wkind, n)| {
        (
            Just(streams),
            Just(wkind),
            proptest::collection::vec((0..streams as u16, 0u64..9), n),
            proptest::collection::vec(1usize..n, 0..3),
            proptest::collection::vec(1usize..n, 0..10),
            proptest::collection::vec(1usize..n, 0..3),
        )
            .prop_map(
                |(streams, wkind, arrivals, mut migrations, mut cuts, mut expiries)| {
                    migrations.sort_unstable();
                    migrations.dedup();
                    cuts.sort_unstable();
                    cuts.dedup();
                    expiries.sort_unstable();
                    expiries.dedup();
                    Case {
                        names: (0..streams).map(|i| format!("S{i}")).collect(),
                        // wkind 0: count windows; 1: slow expiry; 2: fast expiry.
                        ticks: match wkind {
                            0 => None,
                            1 => Some(40),
                            _ => Some(12),
                        },
                        arrivals,
                        migrations,
                        cuts,
                        expiries,
                    }
                },
            )
    })
}

fn sorted_multiset(m: jisc_common::FxHashMap<Lineage, usize>) -> OutputMultiset {
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort();
    v
}

/// Per-tuple reference run: `None` is the plain pipeline (DefaultSemantics,
/// no migrations), `Some` an [`AdaptiveEngine`] under that strategy with
/// the case's migrations. Both apply the case's expiry watermarks.
fn per_tuple(case: &Case, strategy: Option<Mig>) -> OutputMultiset {
    match strategy {
        None => {
            let mut pipe = Pipeline::new(case.catalog(), &case.plan(0)).expect("pipeline");
            for (i, &(s, k)) in case.arrivals.iter().enumerate() {
                if case.expiries.contains(&i) {
                    pipe.advance_watermark_with(&mut DefaultSemantics, i as u64)
                        .expect("expiry");
                }
                pipe.push(StreamId(s), k, i as u64).expect("push");
            }
            sorted_multiset(pipe.output.lineage_multiset())
        }
        Some(strategy) => {
            let mut e =
                AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
            let mut rot = 0usize;
            for (i, &(s, k)) in case.arrivals.iter().enumerate() {
                if case.migrations.contains(&i) {
                    rot += 1;
                    e.transition_to(&case.plan(rot)).expect("transition");
                }
                if case.expiries.contains(&i) {
                    e.on_event(Event::Expiry(i as u64)).expect("expiry");
                }
                e.push(StreamId(s), k, i as u64).expect("push");
            }
            sorted_multiset(e.output().lineage_multiset())
        }
    }
}

/// Materialize the case as a unified event stream of columnar batches:
/// data cut every `batch_size` arrivals, or at the case's *arbitrary*
/// partition points when `batch_size` is `None`, with migration barriers
/// and expiry watermarks cutting the current batch short wherever they
/// land (so they routinely fall "mid-batch" relative to the partition).
fn event_stream(
    case: &Case,
    batch_size: Option<usize>,
    with_migrations: bool,
) -> Vec<Event<PlanSpec>> {
    fn cut(evs: &mut Vec<Event<PlanSpec>>, batch: &mut ColumnarBatch) {
        if !batch.is_empty() {
            let full = std::mem::replace(batch, ColumnarBatch::new(batch.capacity()));
            evs.push(Event::Columnar(full));
        }
    }
    let n = case.arrivals.len().max(1);
    let mut evs = Vec::new();
    let mut batch = ColumnarBatch::new(batch_size.unwrap_or(n));
    let mut rot = 0usize;
    for (i, &(s, k)) in case.arrivals.iter().enumerate() {
        if with_migrations && case.migrations.contains(&i) {
            cut(&mut evs, &mut batch);
            rot += 1;
            evs.push(Event::MigrationBarrier(case.plan(rot)));
        }
        if case.expiries.contains(&i) {
            cut(&mut evs, &mut batch);
            // Arrival `j` gets ts `j` (engine-assigned), so a watermark of
            // `i` here is monotonic and, under time windows, expires a
            // prefix of the rings mid-stream.
            evs.push(Event::Expiry(i as u64));
        }
        if batch_size.is_none() && case.cuts.contains(&i) {
            cut(&mut evs, &mut batch);
        }
        batch
            .push(StreamId(s), k, i as u64)
            .expect("batch cut on full");
        if batch.is_full() {
            cut(&mut evs, &mut batch);
        }
    }
    cut(&mut evs, &mut batch);
    evs
}

/// Every partition the properties cover: the fixed batch sizes, then the
/// case's arbitrary cut points.
fn partitions() -> impl Iterator<Item = Option<usize>> {
    BATCH_SIZES.into_iter().map(Some).chain([None])
}

/// Drive an event stream to completion: `None` runs the plain pipeline
/// (DefaultSemantics), `Some` an [`AdaptiveEngine`] under that strategy.
fn run_events(case: &Case, strategy: Option<Mig>, evs: &[Event<PlanSpec>]) -> OutputMultiset {
    match strategy {
        None => {
            let mut pipe = Pipeline::new(case.catalog(), &case.plan(0)).expect("pipeline");
            let mut sem = DefaultSemantics;
            for ev in evs {
                apply_event(&mut pipe, &mut sem, ev.clone()).expect("event");
            }
            sorted_multiset(pipe.output.lineage_multiset())
        }
        Some(strategy) => {
            let mut e =
                AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
            for ev in evs {
                e.on_event(ev.clone()).expect("event");
            }
            sorted_multiset(e.output().lineage_multiset())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_equals_per_tuple_plain(case in case_strategy()) {
        // Plain pipelined execution rejects barriers; both runs skip them.
        let expected = per_tuple(&case, None);
        for part in partitions() {
            let got = run_events(&case, None, &event_stream(&case, part, false));
            prop_assert_eq!(
                &got, &expected,
                "plain pipeline diverged at partition {:?} ({} expiries, ticks {:?})",
                part, case.expiries.len(), case.ticks
            );
        }
    }

    #[test]
    fn batched_equals_per_tuple_all_strategies(case in case_strategy()) {
        for strategy in [
            Mig::Jisc,
            Mig::MovingState,
            Mig::ParallelTrack { check_period: 10 },
        ] {
            let expected = per_tuple(&case, Some(strategy));
            for part in partitions() {
                let got = run_events(&case, Some(strategy), &event_stream(&case, part, true));
                prop_assert_eq!(
                    &got, &expected,
                    "{:?} diverged at partition {:?} ({} migrations, {} expiries, ticks {:?})",
                    strategy, part, case.migrations.len(), case.expiries.len(), case.ticks
                );
            }
        }
    }

    /// A checkpoint/restore round-trip mid-way through a columnar event
    /// stream reproduces the uninterrupted run: base state is snapshotted
    /// at an event boundary, a fresh engine is restored from it (derived
    /// states rebuilt per strategy — just-in-time for JISC), the drained
    /// prefix output is reinstated, and the remaining events continue on
    /// the restored engine.
    #[test]
    fn columnar_checkpoint_restore_round_trip(case in case_strategy()) {
        for strategy in [
            Mig::Jisc,
            Mig::MovingState,
            Mig::ParallelTrack { check_period: 10 },
        ] {
            let evs = event_stream(&case, None, true);
            let full = run_events(&case, Some(strategy), &evs);

            let mut e =
                AdaptiveEngine::new(case.catalog(), &case.plan(0), strategy).expect("engine");
            let mut spec = case.plan(0);
            let mut restored = false;
            for (j, ev) in evs.iter().enumerate() {
                // At the first event boundary past the midpoint where the
                // engine can snapshot (Parallel Track may be mid-migration),
                // round-trip through checkpoint + restore.
                if !restored && j * 2 >= evs.len() {
                    if let Some(snap) = e.base_snapshot() {
                        let saved = e.take_output();
                        let mut r =
                            AdaptiveEngine::restore(case.catalog(), &spec, strategy, Some(&snap))
                                .expect("restore");
                        r.set_output(saved);
                        e = r;
                        restored = true;
                    }
                }
                if let Event::MigrationBarrier(p) = ev {
                    spec = p.clone();
                }
                e.on_event(ev.clone()).expect("event");
            }
            let got = sorted_multiset(e.output().lineage_multiset());
            prop_assert_eq!(
                &got, &full,
                "{:?} checkpoint/restore diverged (restored: {}, ticks {:?})",
                strategy, restored, case.ticks
            );
        }
    }
}

/// A worst-case plan swap leaves the join states incomplete; every batch
/// after it spans window expiries, so the columnar flush cannot take it in
/// bulk and runs it through the per-arrival path. The output must equal
/// per-tuple execution, and the migration debt must drain in both runs.
#[test]
fn fallback_mid_migration_matches_per_tuple_and_drains_debt() {
    let names = ["A", "B", "C", "D"];
    let catalog = || {
        Catalog::new(names.iter().map(|n| StreamDef::timed(*n, 24)).collect())
            .expect("valid catalog")
    };
    let initial = PlanSpec::left_deep(&names, JoinStyle::Hash);
    let target = PlanSpec::left_deep(&["D", "C", "B", "A"], JoinStyle::Hash);
    let arrivals: Vec<(u16, u64)> = (0..600u64)
        .map(|i| ((i % 4) as u16, (i * 5 + i / 7) % 6))
        .collect();
    const BATCH: usize = 40;
    const SWAP_AT: usize = 200;

    let mut serial = JiscExec::new(catalog(), &initial).expect("engine");
    for (i, &(s, k)) in arrivals.iter().enumerate() {
        if i == SWAP_AT {
            serial.transition_to(&target).expect("transition");
        }
        serial.push(StreamId(s), k, i as u64).expect("push");
    }

    let mut batched = JiscExec::new(catalog(), &initial).expect("engine");
    let mut fallbacks = 0;
    for (c, chunk) in arrivals.chunks(BATCH).enumerate() {
        if c * BATCH == SWAP_AT {
            batched.transition_to(&target).expect("transition");
            assert!(
                batched.incomplete_states() > 0,
                "worst-case swap leaves debt"
            );
        }
        let mut batch = ColumnarBatch::new(BATCH);
        for (j, &(s, k)) in chunk.iter().enumerate() {
            batch
                .push(StreamId(s), k, (c * BATCH + j) as u64)
                .expect("capacity");
        }
        let incomplete = batched.incomplete_states() > 0;
        let hashed = batched.pipeline().kernels.hash.invocations;
        batched.push_columnar(&batch).expect("push batch");
        if incomplete {
            assert_eq!(
                batched.pipeline().kernels.hash.invocations,
                hashed,
                "a batch spanning expiries mid-migration runs per arrival"
            );
            fallbacks += 1;
        }
    }
    assert!(fallbacks > 0, "the swap must force the per-arrival path");

    assert_eq!(
        sorted_multiset(batched.pipeline().output.lineage_multiset()),
        sorted_multiset(serial.pipeline().output.lineage_multiset()),
        "per-arrival fallback diverged from per-tuple execution"
    );
    assert!(
        serial.pipeline().metrics.completions > 0,
        "JISC completed keys"
    );
    assert_eq!(serial.incomplete_states(), 0, "per-tuple debt drains");
    assert_eq!(batched.incomplete_states(), 0, "batched debt drains");
}
