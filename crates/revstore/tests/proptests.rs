//! Property-based tests for action reduction and the preprocessing cache.

use proptest::prelude::*;
use wiclean_revstore::reduce::net_effect;
use wiclean_revstore::{
    is_reduced, reduce_actions, try_extract_actions, try_extract_actions_full, Action, ActionCache,
    CacheLookup, EditOp, FaultPlan, FaultyStore, GarbleMode, RevisionStore,
};
use wiclean_types::{EntityId, RelId, Universe, Window};

/// Arbitrary actions over a tiny id space so that edge collisions (and thus
/// cancellations) actually occur.
fn action_strategy() -> impl Strategy<Value = Action> {
    (prop::bool::ANY, 0u32..4, 0u32..3, 0u32..4, 0u64..1000).prop_map(|(add, s, r, t, time)| {
        Action::new(
            if add { EditOp::Add } else { EditOp::Remove },
            EntityId::from_u32(s),
            RelId::from_u32(r),
            EntityId::from_u32(t),
            time,
        )
    })
}

/// An *alternating* per-edge action sequence, as snapshot diffing actually
/// produces: a link toggles between present and absent.
fn alternating_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec((0u32..3, 0u32..2, 0u32..3, prop::bool::ANY), 0..24).prop_map(
        |edges| {
            use std::collections::HashMap;
            let mut present: HashMap<(u32, u32, u32), bool> = HashMap::new();
            let mut out = Vec::new();
            let mut time = 0u64;
            for (s, r, t, _seed) in edges {
                let slot = present.entry((s, r, t)).or_insert(false);
                let op = if *slot { EditOp::Remove } else { EditOp::Add };
                *slot = !*slot;
                time += 7;
                out.push(Action::new(
                    op,
                    EntityId::from_u32(s),
                    RelId::from_u32(r),
                    EntityId::from_u32(t),
                    time,
                ));
            }
            out
        },
    )
}

proptest! {
    /// Reduction output is always reduced (idempotence).
    #[test]
    fn reduction_idempotent(actions in proptest::collection::vec(action_strategy(), 0..32)) {
        let once = reduce_actions(&actions);
        prop_assert!(is_reduced(&once));
        prop_assert_eq!(reduce_actions(&once), once);
    }

    /// Reduction preserves the net graph effect (the paper's equivalence).
    #[test]
    fn reduction_preserves_net_effect(actions in alternating_actions()) {
        let red = reduce_actions(&actions);
        prop_assert_eq!(net_effect(&actions), net_effect(&red));
    }

    /// On alternating histories the reduced set is exactly the net effect:
    /// one action per surviving edge, matching op.
    #[test]
    fn reduced_matches_net_effect_exactly(actions in alternating_actions()) {
        let red = reduce_actions(&actions);
        let net = net_effect(&actions);
        prop_assert_eq!(red.len(), net.len());
        for a in &red {
            prop_assert_eq!(net.get(&a.triple()).copied(), Some(a.op));
        }
    }

    /// Reduction never invents actions: survivors are a subset of input.
    #[test]
    fn reduction_is_subset(actions in proptest::collection::vec(action_strategy(), 0..32)) {
        let red = reduce_actions(&actions);
        for a in &red {
            prop_assert!(actions.contains(a));
        }
        prop_assert!(red.len() <= actions.len());
    }

    /// The size deficit is always even: cancellations remove pairs.
    #[test]
    fn cancellations_come_in_pairs(actions in proptest::collection::vec(action_strategy(), 0..32)) {
        let red = reduce_actions(&actions);
        prop_assert_eq!((actions.len() - red.len()) % 2, 0);
    }
}

/// A tiny universe of 4 source pages and 5 target pages joined by one
/// relation, so arbitrary revision streams produce resolvable links.
fn link_universe() -> (Universe, Vec<EntityId>) {
    use wiclean_types::TypeId;
    let mut u = Universe::new("Thing");
    let page = u.taxonomy_mut().add("Page", TypeId::from_u32(0)).unwrap();
    u.relation("linked_to");
    let sources: Vec<EntityId> = (0..4)
        .map(|i| u.add_entity(&format!("P{i}"), page).unwrap())
        .collect();
    for k in 0..5 {
        u.add_entity(&format!("T{k}"), page).unwrap();
    }
    (u, sources)
}

fn link_text(target: usize) -> String {
    format!("{{{{Infobox x\n| linked_to = [[T{target}]]\n}}}}\n")
}

/// An arbitrary revision stream: (source index, timestamp, target index).
fn revision_stream() -> impl Strategy<Value = Vec<(usize, u64, usize)>> {
    proptest::collection::vec((0usize..4, 0u64..200, 0usize..5), 1..40)
}

fn build_store(sources: &[EntityId], stream: &[(usize, u64, usize)]) -> RevisionStore {
    let mut store = RevisionStore::new();
    for &(src, time, target) in stream {
        store.record(sources[src], time, link_text(target));
    }
    store
}

fn assert_same_outcome(
    cached: &wiclean_revstore::ExtractOutcome,
    direct: &wiclean_revstore::ExtractOutcome,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&cached.actions, &direct.actions);
    prop_assert_eq!(cached.unresolved_targets, direct.unresolved_targets);
    prop_assert_eq!(cached.unresolved_relations, direct.unresolved_relations);
    prop_assert_eq!(cached.parse_issues, direct.parse_issues);
    prop_assert_eq!(cached.base_parse_issues, direct.base_parse_issues);
    Ok(())
}

/// Multi-line pages — leading comment, infobox, bullet section, prose — so
/// the incremental splice path gets real line structure to work with.
fn rich_text(targets: &[usize]) -> String {
    let mut s = String::from("<!-- autogenerated snapshot -->\n");
    match targets.split_first() {
        None => s.push_str("An empty stub.\n"),
        Some((first, rest)) => {
            s.push_str(&format!(
                "{{{{Infobox x\n| linked_to = [[T{first}]]\n}}}}\n"
            ));
            if !rest.is_empty() {
                s.push_str("== linked_to ==\n");
                for t in rest {
                    s.push_str(&format!("* [[T{t}]]\n"));
                }
            }
            s.push_str("Closing prose mentioning [[P0]].\n");
        }
    }
    s
}

/// A revision stream of multi-line pages: (source, timestamp, targets).
/// Timestamps are arbitrary, so `record` ingests revisions out of order.
fn rich_stream() -> impl Strategy<Value = Vec<(usize, u64, Vec<usize>)>> {
    proptest::collection::vec(
        (
            0usize..4,
            0u64..200,
            proptest::collection::vec(0usize..5, 0..5),
        ),
        1..30,
    )
}

fn build_rich_store(sources: &[EntityId], stream: &[(usize, u64, Vec<usize>)]) -> RevisionStore {
    let mut store = RevisionStore::new();
    for (src, time, targets) in stream {
        store.record(sources[*src], *time, rich_text(targets));
    }
    store
}

proptest! {
    /// The tentpole differential at the extraction boundary: the interned
    /// incremental pipeline produces byte-identical actions and counters to
    /// the frozen full-reparse pipeline, over out-of-order ingested
    /// multi-line histories and arbitrary windows. The byte accounting
    /// differs only in what it skips: the incremental pipeline parses or
    /// skips every byte the frozen one parses, and the frozen one skips
    /// nothing.
    #[test]
    fn incremental_extraction_equals_full_reparse(
        stream in rich_stream(),
        cut in 1u64..200,
    ) {
        let (u, sources) = link_universe();
        let store = build_rich_store(&sources, &stream);
        for &e in &sources {
            for w in [Window::new(0, cut), Window::new(cut, 200), Window::new(0, 200)] {
                let incr = try_extract_actions(&store, &u, e, &w).unwrap();
                let full = try_extract_actions_full(&store, &u, e, &w).unwrap();
                assert_same_outcome(&incr, &full)?;
                prop_assert_eq!(incr.bytes_parsed + incr.bytes_skipped, full.bytes_parsed);
                prop_assert_eq!(full.bytes_skipped, 0);
            }
        }
    }

    /// Same differential through a fault-injecting source: garbled
    /// (truncated or scrambled) and permanently missing pages must degrade
    /// both pipelines identically.
    #[test]
    fn incremental_equals_full_reparse_under_faults(
        stream in rich_stream(),
        seed in 0u64..1000,
        scramble in prop::bool::ANY,
        garble_rate in 0.0f64..1.0,
        gone_rate in 0.0f64..0.5,
    ) {
        let (u, sources) = link_universe();
        let store = build_rich_store(&sources, &stream);
        let plan = FaultPlan {
            seed,
            garble_rate,
            gone_rate,
            garble_mode: if scramble { GarbleMode::Scramble } else { GarbleMode::Truncate },
            ..FaultPlan::default()
        };
        let faulty = FaultyStore::new(&store, plan);
        let w = Window::new(0, 200);
        for &e in &sources {
            let incr = try_extract_actions(&faulty, &u, e, &w);
            let full = try_extract_actions_full(&faulty, &u, e, &w);
            match (incr, full) {
                (Ok(a), Ok(b)) => assert_same_outcome(&a, &b)?,
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "pipelines disagree on fallibility: {:?} vs {:?}", a, b),
            }
        }
    }

    /// Cache + incremental pipeline vs direct frozen extraction: the
    /// composed path, the cached path, and both pipelines all agree.
    #[test]
    fn cached_incremental_equals_direct_full_reparse(
        stream in rich_stream(),
        cut in 1u64..200,
    ) {
        let (u, sources) = link_universe();
        let store = build_rich_store(&sources, &stream);
        let cache = ActionCache::new();
        let (lo, hi, full) = (Window::new(0, cut), Window::new(cut, 200), Window::new(0, 200));
        for &e in &sources {
            for w in [&lo, &hi] {
                cache.extract(&store, &u, e, w).unwrap();
            }
            let (got, lookup) = cache.extract(&store, &u, e, &full).unwrap();
            prop_assert_eq!(lookup, CacheLookup::Composed);
            let frozen = try_extract_actions_full(&store, &u, e, &full).unwrap();
            assert_same_outcome(&got, &frozen)?;
        }
    }
}

proptest! {
    /// Cached extraction — including windows assembled by composing cached
    /// sub-windows — is byte-identical to a direct extraction.
    #[test]
    fn cached_extraction_equals_direct(stream in revision_stream(), cut in 1u64..200) {
        let (u, sources) = link_universe();
        let store = build_store(&sources, &stream);
        let cache = ActionCache::new();
        let (lo, hi, full) = (Window::new(0, cut), Window::new(cut, 200), Window::new(0, 200));
        for &e in &sources {
            for w in [&lo, &hi] {
                let (got, _) = cache.extract(&store, &u, e, w).unwrap();
                assert_same_outcome(&got, &try_extract_actions(&store, &u, e, w).unwrap())?;
            }
            // The full window must now be served by composition, not re-diffed.
            let (got, lookup) = cache.extract(&store, &u, e, &full).unwrap();
            prop_assert_eq!(lookup, CacheLookup::Composed);
            assert_same_outcome(&got, &try_extract_actions(&store, &u, e, &full).unwrap())?;
        }
    }

    /// Appending a revision invalidates exactly the appended entity's cached
    /// extractions: it recomputes (fresh, correct), everyone else still hits.
    #[test]
    fn append_invalidates_only_that_entity(
        stream in revision_stream(),
        victim in 0usize..4,
        new_time in 0u64..200,
        new_target in 0usize..5,
    ) {
        let (u, sources) = link_universe();
        let mut store = build_store(&sources, &stream);
        let cache = ActionCache::new();
        let w = Window::new(0, 200);
        for &e in &sources {
            cache.extract(&store, &u, e, &w).unwrap();
        }

        store.record(sources[victim], new_time, link_text(new_target));

        for (i, &e) in sources.iter().enumerate() {
            let (got, lookup) = cache.extract(&store, &u, e, &w).unwrap();
            if i == victim {
                prop_assert_eq!(lookup, CacheLookup::Miss, "version bump must force recompute");
            } else {
                prop_assert_eq!(lookup, CacheLookup::Hit, "untouched entities must stay cached");
            }
            assert_same_outcome(&got, &try_extract_actions(&store, &u, e, &w).unwrap())?;
        }
    }
}
