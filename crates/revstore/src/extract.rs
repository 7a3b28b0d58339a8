//! Extracting timestamped actions from page histories by snapshot diffing.
//!
//! Two extraction modes produce byte-identical actions and counters:
//!
//! * [`ExtractMode::FullReparse`] — the frozen reference: parse every
//!   snapshot from scratch with the owned-string parser and diff
//!   consecutive [`PageLinks`] sets;
//! * [`ExtractMode::Incremental`] — the default: one page-local
//!   [`SymTable`] per entity, an [`IncrementalParser`] that re-parses only
//!   the lines a revision changed, and memoized symbol→id resolution so
//!   relation/target strings are looked up once per distinct string
//!   instead of once per edit.
//!
//! Differential proptests (`tests/proptests.rs`) pin the equivalence,
//! including under injected faults and out-of-order ingestion.

use crate::action::Action;
use crate::fetch::{FetchError, FetchSource};
use crate::store::RevisionStore;
use wiclean_types::{EntityId, RelId, Sym, SymTable, Universe, Window};
use wiclean_wikitext::{diff_revisions, parse_page_checked, IncrementalParser, PageLinks};

/// Which extraction pipeline to run. Both produce identical output; the
/// frozen path exists as the differential-testing reference and as an
/// ablation knob (`WcConfig::use_incremental_extract = false`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExtractMode {
    /// Interned links + prediff-gated incremental parsing (default).
    #[default]
    Incremental,
    /// Frozen reference: full owned-string re-parse of every snapshot.
    FullReparse,
}

/// Result of extracting one entity's actions within a window.
#[derive(Debug, Clone, Default)]
pub struct ExtractOutcome {
    /// Resolved actions, in revision order.
    pub actions: Vec<Action>,
    /// Link edits whose target page title is not a registered entity
    /// ("red links" and vandalism targets); counted but not mined.
    pub unresolved_targets: u64,
    /// Link edits whose relation label is not registered. With a generator
    /// that registers its vocabulary this stays zero; unknown labels would
    /// be free-form prose structure.
    pub unresolved_relations: u64,
    /// Total recoverable markup defects the parser healed while scanning
    /// this entity's snapshots (truncated downloads, broken closers). The
    /// actions extracted from such snapshots are best-effort.
    pub parse_issues: u64,
    /// The share of [`ExtractOutcome::parse_issues`] contributed by parsing
    /// the *base* snapshot (the page state just before the window opens).
    /// Needed to compose adjacent-window outcomes without double counting:
    /// a sub-window's base snapshot is the previous sub-window's last
    /// revision, whose issues that window already counted (see
    /// [`crate::cache::ActionCache`]).
    pub base_parse_issues: u64,
    /// Snapshot bytes actually fed through a parser for this extraction.
    pub bytes_parsed: u64,
    /// Snapshot bytes the incremental path skipped (identical revisions,
    /// re-used prefix/suffix lines). Always 0 for the frozen path.
    pub bytes_skipped: u64,
    /// The share of [`ExtractOutcome::bytes_parsed`] spent on the base
    /// snapshot; subtracted when composing adjacent windows, exactly like
    /// [`ExtractOutcome::base_parse_issues`].
    pub base_bytes_parsed: u64,
}

impl ExtractOutcome {
    /// Sums another outcome's counters (not its actions) into this one.
    fn absorb_counters(&mut self, other: &ExtractOutcome) {
        self.unresolved_targets += other.unresolved_targets;
        self.unresolved_relations += other.unresolved_relations;
        self.parse_issues += other.parse_issues;
        self.bytes_parsed += other.bytes_parsed;
        self.bytes_skipped += other.bytes_skipped;
    }
}

/// Extracts the actions performed on `entity`'s page within `window`.
///
/// The base state is the last snapshot strictly before `window.start` (or
/// an empty page if none), so edits are attributed to the revision that
/// introduced them — never to pre-window state. Each revision inside the
/// window is diffed against its predecessor; every structured link edit
/// becomes an [`Action`] stamped with the revision time.
///
/// Infallible variant over the in-memory store; see
/// [`try_extract_actions`] for the fallible fetch boundary.
pub fn extract_actions(
    store: &RevisionStore,
    universe: &Universe,
    entity: EntityId,
    window: &Window,
) -> ExtractOutcome {
    try_extract_actions(store, universe, entity, window)
        .expect("the in-memory store never fails a fetch")
}

/// Extracts `entity`'s actions within `window` through the fallible fetch
/// boundary. A fetch error is returned to the caller, which decides what
/// the lost entity means (the miner records it as degraded coverage);
/// recoverable *parse* defects are healed and counted in
/// [`ExtractOutcome::parse_issues`] instead of failing the entity.
///
/// Runs the default [`ExtractMode::Incremental`] pipeline; see
/// [`try_extract_actions_with`] to pick the mode explicitly.
pub fn try_extract_actions(
    source: &dyn FetchSource,
    universe: &Universe,
    entity: EntityId,
    window: &Window,
) -> Result<ExtractOutcome, FetchError> {
    try_extract_actions_with(source, universe, entity, window, ExtractMode::default())
}

/// [`try_extract_actions`] with an explicit [`ExtractMode`].
pub fn try_extract_actions_with(
    source: &dyn FetchSource,
    universe: &Universe,
    entity: EntityId,
    window: &Window,
    mode: ExtractMode,
) -> Result<ExtractOutcome, FetchError> {
    match mode {
        ExtractMode::Incremental => {
            try_extract_actions_incremental(source, universe, entity, window)
        }
        ExtractMode::FullReparse => try_extract_actions_full(source, universe, entity, window),
    }
}

/// The frozen full-reparse extraction pipeline (reference implementation).
pub fn try_extract_actions_full(
    source: &dyn FetchSource,
    universe: &Universe,
    entity: EntityId,
    window: &Window,
) -> Result<ExtractOutcome, FetchError> {
    let mut out = ExtractOutcome::default();
    let Some(history) = source.fetch_history(entity)? else {
        return Ok(out);
    };
    let history = &*history;

    // Base snapshot: page state just before the window opens.
    let mut prev: PageLinks = match window.start.checked_sub(1) {
        Some(t) => match history.snapshot_at(t) {
            Some(r) => {
                let (links, issues) = parse_page_checked(&r.text);
                out.parse_issues += issues.total();
                out.base_parse_issues = issues.total();
                out.bytes_parsed += r.text.len() as u64;
                out.base_bytes_parsed = r.text.len() as u64;
                links
            }
            None => PageLinks::default(),
        },
        None => PageLinks::default(),
    };

    for rev in history.revisions_in(window) {
        // Diff against the previous *parsed* state: equivalent to text-level
        // diffing (parsing is lossless for structured links) while parsing
        // each snapshot exactly once.
        let (new_links, issues) = parse_page_checked(&rev.text);
        out.parse_issues += issues.total();
        out.bytes_parsed += rev.text.len() as u64;
        let edits = wiclean_wikitext::diff::diff_links(&prev, &new_links);
        prev = new_links;
        for e in edits {
            let Some(rel) = universe.lookup_relation(&e.relation) else {
                out.unresolved_relations += 1;
                continue;
            };
            let Some(target) = universe.entities().lookup(&e.target) else {
                out.unresolved_targets += 1;
                continue;
            };
            out.actions
                .push(Action::new(e.op, entity, rel, target, rev.time));
        }
    }
    Ok(out)
}

/// Memoized symbol→id resolution: each distinct string is looked up in the
/// universe once, then every further edit carrying the same symbol hits the
/// dense side table. `None` in the outer layer means "not looked up yet";
/// `Some(None)` caches a definitive miss.
fn resolve_memo<T: Copy>(
    memo: &mut Vec<Option<Option<T>>>,
    sym: Sym,
    lookup: impl FnOnce() -> Option<T>,
) -> Option<T> {
    let ix = sym.as_usize();
    if ix >= memo.len() {
        memo.resize(ix + 1, None);
    }
    if let Some(cached) = memo[ix] {
        return cached;
    }
    let looked = lookup();
    memo[ix] = Some(looked);
    looked
}

/// The interned incremental extraction pipeline. Byte-identical output to
/// [`try_extract_actions_full`]; the work differs: revision texts are
/// line-diffed against their predecessor and only changed spans re-parsed,
/// and diffing happens on interned symbols instead of owned strings.
pub fn try_extract_actions_incremental(
    source: &dyn FetchSource,
    universe: &Universe,
    entity: EntityId,
    window: &Window,
) -> Result<ExtractOutcome, FetchError> {
    let mut out = ExtractOutcome::default();
    let Some(history) = source.fetch_history(entity)? else {
        return Ok(out);
    };
    let history = &*history;

    let mut syms = SymTable::new();
    let mut parser = IncrementalParser::new();

    // Base snapshot: page state just before the window opens. Its edits
    // (vs the empty page) are discarded — only the state matters.
    if let Some(t) = window.start.checked_sub(1) {
        if let Some(r) = history.snapshot_at(t) {
            let step = parser.advance(&r.text, &mut syms);
            out.parse_issues += step.issues.total();
            out.base_parse_issues = step.issues.total();
            out.bytes_parsed += step.bytes_parsed;
            out.bytes_skipped += step.bytes_skipped;
            out.base_bytes_parsed = step.bytes_parsed;
        }
    }

    let mut rel_memo: Vec<Option<Option<RelId>>> = Vec::new();
    let mut target_memo: Vec<Option<Option<EntityId>>> = Vec::new();
    for rev in history.revisions_in(window) {
        let step = parser.advance(&rev.text, &mut syms);
        out.parse_issues += step.issues.total();
        out.bytes_parsed += step.bytes_parsed;
        out.bytes_skipped += step.bytes_skipped;
        for e in step.edits {
            let rel = resolve_memo(&mut rel_memo, e.relation, || {
                universe.lookup_relation(syms.resolve(e.relation))
            });
            let Some(rel) = rel else {
                out.unresolved_relations += 1;
                continue;
            };
            let target = resolve_memo(&mut target_memo, e.target, || {
                universe.entities().lookup(syms.resolve(e.target))
            });
            let Some(target) = target else {
                out.unresolved_targets += 1;
                continue;
            };
            out.actions
                .push(Action::new(e.op, entity, rel, target, rev.time));
        }
    }
    Ok(out)
}

/// Extracts and concatenates the actions of many entities within `window`,
/// in (entity, revision) order. This is the raw (unreduced) action set `A`
/// of the paper for the entity set `S`.
pub fn extract_actions_for(
    store: &RevisionStore,
    universe: &Universe,
    entities: &[EntityId],
    window: &Window,
) -> ExtractOutcome {
    let mut out = ExtractOutcome::default();
    for &e in entities {
        let one = extract_actions(store, universe, e, window);
        out.absorb_counters(&one);
        out.actions.extend(one.actions);
    }
    out
}

/// Text-level variant used by differential tests: diffs raw revision texts
/// with [`diff_revisions`] instead of cached parsed states. Semantically
/// identical to [`extract_actions`], quadratically more parsing.
pub fn extract_actions_textdiff(
    store: &RevisionStore,
    universe: &Universe,
    entity: EntityId,
    window: &Window,
) -> ExtractOutcome {
    let mut out = ExtractOutcome::default();
    let Some(history) = store.fetch(entity) else {
        return out;
    };
    // Borrow snapshot texts straight out of the store — cloning the full
    // page text once to seed and once per revision step doubled the
    // allocation traffic of this path for no reason.
    let mut prev_text: &str = window
        .start
        .checked_sub(1)
        .and_then(|t| history.snapshot_at(t))
        .map(|r| r.text.as_str())
        .unwrap_or_default();
    for rev in history.revisions_in(window) {
        for e in diff_revisions(prev_text, &rev.text) {
            let Some(rel) = universe.lookup_relation(&e.relation) else {
                out.unresolved_relations += 1;
                continue;
            };
            let Some(target) = universe.entities().lookup(&e.target) else {
                out.unresolved_targets += 1;
                continue;
            };
            out.actions
                .push(Action::new(e.op, entity, rel, target, rev.time));
        }
        prev_text = &rev.text;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiclean_types::TypeId;
    use wiclean_wikitext::EditOp;

    fn setup() -> (Universe, RevisionStore, EntityId, EntityId, EntityId) {
        let mut u = Universe::new("Thing");
        let root = TypeId::from_u32(0);
        let player = u.taxonomy_mut().add("SoccerPlayer", root).unwrap();
        let club = u.taxonomy_mut().add("SoccerClub", root).unwrap();
        u.relation("current_club");
        let neymar = u.add_entity("Neymar", player).unwrap();
        let barca = u.add_entity("Barcelona F.C.", club).unwrap();
        let psg = u.add_entity("PSG F.C.", club).unwrap();

        let mut s = RevisionStore::new();
        s.record(
            neymar,
            5,
            "{{Infobox p\n| current_club = [[Barcelona F.C.]]\n}}\n".into(),
        );
        s.record(
            neymar,
            50,
            "{{Infobox p\n| current_club = [[PSG F.C.]]\n}}\n".into(),
        );
        (u, s, neymar, barca, psg)
    }

    #[test]
    fn extracts_transfer_actions() {
        let (u, s, neymar, barca, psg) = setup();
        let rel = u.lookup_relation("current_club").unwrap();
        let out = extract_actions(&s, &u, neymar, &Window::new(10, 100));
        assert_eq!(
            out.actions,
            vec![
                Action::new(EditOp::Remove, neymar, rel, barca, 50),
                Action::new(EditOp::Add, neymar, rel, psg, 50),
            ]
        );
        assert_eq!(out.unresolved_targets, 0);
    }

    #[test]
    fn base_state_comes_from_pre_window_snapshot() {
        let (u, s, neymar, ..) = setup();
        // Window covering the first revision: the page creation itself is
        // an Add (diff against empty page).
        let out = extract_actions(&s, &u, neymar, &Window::new(0, 10));
        assert_eq!(out.actions.len(), 1);
        assert_eq!(out.actions[0].op, EditOp::Add);
    }

    #[test]
    fn window_excludes_outside_revisions() {
        let (u, s, neymar, ..) = setup();
        let out = extract_actions(&s, &u, neymar, &Window::new(10, 50));
        assert!(
            out.actions.is_empty(),
            "revision at t=50 is outside [10,50)"
        );
    }

    #[test]
    fn unknown_target_is_counted_not_mined() {
        let (mut u, mut s, ..) = setup();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let kesla = u.add_entity("Kesla", club).unwrap();
        s.record(
            kesla,
            20,
            "{{Infobox c\n| current_club = [[Unknown Page]]\n}}\n".into(),
        );
        let out = extract_actions(&s, &u, kesla, &Window::new(0, 100));
        assert!(out.actions.is_empty());
        assert_eq!(out.unresolved_targets, 1);
    }

    #[test]
    fn unknown_relation_is_counted_not_mined() {
        let (mut u, mut s, ..) = setup();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let e = u.add_entity("X Club", club).unwrap();
        s.record(
            e,
            20,
            "{{Infobox c\n| exotic_rel = [[PSG F.C.]]\n}}\n".into(),
        );
        let out = extract_actions(&s, &u, e, &Window::new(0, 100));
        assert!(out.actions.is_empty());
        assert_eq!(out.unresolved_relations, 1);
    }

    #[test]
    fn textdiff_variant_agrees() {
        let (u, s, neymar, ..) = setup();
        let w = Window::new(0, 100);
        let a = extract_actions(&s, &u, neymar, &w);
        let b = extract_actions_textdiff(&s, &u, neymar, &w);
        assert_eq!(a.actions, b.actions);
    }

    #[test]
    fn extract_for_many_concatenates() {
        let (u, s, neymar, barca, _psg) = setup();
        let w = Window::new(0, 100);
        let out = extract_actions_for(&s, &u, &[neymar, barca], &w);
        // barca has no revisions; neymar has 3 edits total (create + transfer).
        assert_eq!(out.actions.len(), 3);
    }

    #[test]
    fn missing_history_is_empty() {
        let (u, s, _n, barca, _p) = setup();
        let out = extract_actions(&s, &u, barca, &Window::new(0, 100));
        assert!(out.actions.is_empty());
    }

    #[test]
    fn fetch_error_propagates_from_faulty_source() {
        use crate::fault::{FaultPlan, FaultyStore};
        use crate::fetch::FetchError;
        let (u, s, neymar, ..) = setup();
        let plan = FaultPlan {
            gone_rate: 1.0,
            ..FaultPlan::default()
        };
        let faulty = FaultyStore::new(&s, plan);
        let err = try_extract_actions(&faulty, &u, neymar, &Window::new(0, 100)).unwrap_err();
        assert!(matches!(err, FetchError::Gone { revisions_lost: 2 }));
    }

    #[test]
    fn truncated_snapshots_are_healed_and_counted() {
        let (mut u, mut s, ..) = setup();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let e = u.add_entity("Torn Club", club).unwrap();
        // Unterminated link + unclosed infobox: recoverable defects.
        s.record(e, 20, "{{Infobox c\n| current_club = [[PSG F.C.\n".into());
        let out = try_extract_actions(&s, &u, e, &Window::new(0, 100)).unwrap();
        assert!(out.parse_issues > 0, "defects must be counted");
    }

    fn assert_modes_agree(
        store: &RevisionStore,
        u: &Universe,
        entity: EntityId,
        window: &Window,
    ) -> ExtractOutcome {
        let incr =
            try_extract_actions_with(store, u, entity, window, ExtractMode::Incremental).unwrap();
        let full =
            try_extract_actions_with(store, u, entity, window, ExtractMode::FullReparse).unwrap();
        assert_eq!(incr.actions, full.actions);
        assert_eq!(incr.unresolved_targets, full.unresolved_targets);
        assert_eq!(incr.unresolved_relations, full.unresolved_relations);
        assert_eq!(incr.parse_issues, full.parse_issues);
        assert_eq!(incr.base_parse_issues, full.base_parse_issues);
        incr
    }

    #[test]
    fn incremental_mode_matches_full_reparse() {
        let (u, s, neymar, ..) = setup();
        for w in [
            Window::new(0, 100),
            Window::new(10, 100),
            Window::new(10, 50),
            Window::new(60, 100),
        ] {
            assert_modes_agree(&s, &u, neymar, &w);
        }
    }

    #[test]
    fn incremental_mode_skips_unchanged_bytes() {
        let (mut u, mut s, ..) = setup();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let a = u.add_entity("Club A", club).unwrap();
        let b = u.add_entity("Club B", club).unwrap();
        let e = u.add_entity("Busy Page", club).unwrap();
        let pad: String = (0..40).map(|i| format!("prose line {i}\n")).collect();
        for (t, club_name) in [
            (10, "Club A"),
            (20, "Club B"),
            (30, "Club A"),
            (40, "Club B"),
        ] {
            s.record(
                e,
                t,
                format!("{pad}{{{{Infobox c\n| current_club = [[{club_name}]]\n}}}}\n"),
            );
        }
        let _ = (a, b);
        let out = assert_modes_agree(&s, &u, e, &Window::new(0, 100));
        assert!(
            out.bytes_skipped > out.bytes_parsed,
            "small edits on a large page should skip most bytes: parsed={} skipped={}",
            out.bytes_parsed,
            out.bytes_skipped
        );
        let full =
            try_extract_actions_with(&s, &u, e, &Window::new(0, 100), ExtractMode::FullReparse)
                .unwrap();
        assert_eq!(full.bytes_skipped, 0, "frozen path never skips");
        assert!(full.bytes_parsed > out.bytes_parsed);
    }

    #[test]
    fn default_mode_is_incremental() {
        assert_eq!(ExtractMode::default(), ExtractMode::Incremental);
    }
}
