//! A tiny scripted soccer fixture for core unit tests.
//!
//! Five players, four clubs; during the window four of the five players
//! transfer in the coordinated way the paper describes: the player's page
//! adds the `current_club` link and the club's page adds the player to its
//! `squad`. The fifth player performs only a *partial* edit (the club never
//! reciprocates), giving Algorithm 3 something to flag.

use crate::config::{MinerConfig, StreamPolicy};
use crate::miner::MineStats;
use crate::pattern::{Pattern, WorkingPattern};
use crate::stream::StreamConfig;
use crate::var::Var;
use crate::AbstractAction;
use wiclean_revstore::{EditOp, FeedEvent, RevisionStore};
use wiclean_types::{EntityId, TypeId, Universe, Window};
use wiclean_wikitext::render::render_links;
use wiclean_wikitext::PageLinks;

/// The assembled fixture.
pub struct Fixture {
    pub universe: Universe,
    pub store: RevisionStore,
    pub window: Window,
    pub player_ty: TypeId,
    pub club_ty: TypeId,
    pub players: Vec<EntityId>,
    pub clubs: Vec<EntityId>,
    /// The player whose transfer is partial (club never reciprocated).
    pub partial_player: EntityId,
}

impl Fixture {
    /// Default miner config for the fixture.
    pub fn config(&self) -> MinerConfig {
        MinerConfig {
            tau: 0.8,
            tau_rel: 0.5,
            max_pattern_actions: 4,
            max_abstraction_height: 1,
            max_vars_per_type: 2,
            ..MinerConfig::default()
        }
    }

    /// A stream over the fixture's timeline: `width`-second windows, grace
    /// 1, a refresh every `refresh` arrivals.
    pub fn stream_config(&self, width: u64, refresh: u64) -> StreamConfig {
        StreamConfig {
            width,
            timeline_start: self.window.start,
            miner: self.config(),
            policy: StreamPolicy {
                grace: 1,
                refresh_revisions: refresh,
            },
        }
    }

    /// The fixture's revisions in time order, then a revision in which the
    /// first player's page returns to its base text, retracting the
    /// transfer; plus a store holding all of them, for the batch answer.
    pub fn retraction_feed(&self) -> (Vec<FeedEvent>, RevisionStore) {
        let player = self.players[0];
        let base = self.store.peek(player).expect("player history");
        let mut events = events_of(&self.store);
        events.sort_by_key(|e| e.time);
        events.push(FeedEvent {
            entity: player,
            time: self.window.end - 1,
            text: base.revisions()[0].text.clone(),
        });
        let mut store = RevisionStore::new();
        for e in &events {
            store.record(e.entity, e.time, e.text.clone());
        }
        (events, store)
    }

    /// The planted pattern: `{+(player_1, current_club, club_1),
    /// +(club_1, squad, player_1)}`.
    pub fn expected_pair_pattern(&self) -> Pattern {
        self.expected_pair_working().canonical()
    }

    /// Working form of the planted pattern (player var first).
    pub fn expected_pair_working(&self) -> WorkingPattern {
        let cc = self.universe.lookup_relation("current_club").unwrap();
        let squad = self.universe.lookup_relation("squad").unwrap();
        let p = Var::new(self.player_ty, 0);
        let c = Var::new(self.club_ty, 0);
        WorkingPattern::from_actions(vec![
            AbstractAction::new(EditOp::Add, p, cc, c),
            AbstractAction::new(EditOp::Add, c, squad, p),
        ])
    }
}

/// The work counters the fixture runs pin exactly: candidates, joins,
/// memo hits, memo misses, tables materialized, tables pruned, rows
/// probed, pairs matched, hash pair stages, delta rows joined, fallbacks,
/// patterns found, most specific found. A change to the mining loop that
/// moves one changed what work runs, not only where it runs.
pub fn work_counters(s: &MineStats) -> [usize; 13] {
    [
        s.candidates_considered,
        s.joins_executed,
        s.cache_hits,
        s.cache_misses,
        s.tables_materialized,
        s.tables_pruned,
        s.rows_probed,
        s.pairs_matched,
        s.plan_picks_hash,
        s.delta_rows_joined as usize,
        s.full_remine_fallbacks as usize,
        s.patterns_found,
        s.most_specific_found,
    ]
}

/// Every revision of a store as feed events, entity by entity.
pub fn events_of(store: &RevisionStore) -> Vec<FeedEvent> {
    let mut entities: Vec<EntityId> = store.entities().collect();
    entities.sort_by_key(|e| e.as_u32());
    let mut out = Vec::new();
    for e in entities {
        for r in store.peek(e).expect("entity has history").revisions() {
            out.push(FeedEvent {
                entity: e,
                time: r.time,
                text: r.text.clone(),
            });
        }
    }
    out
}

/// Records a page state as a new revision.
fn snap(
    store: &mut RevisionStore,
    universe: &Universe,
    e: EntityId,
    time: u64,
    links: &PageLinks,
    kind: &str,
) {
    let text = render_links(universe.entity_name(e), kind, links);
    store.record(e, time, text);
}

/// Builds the fixture described in the module docs.
pub fn soccer_fixture() -> Fixture {
    let mut u = Universe::new("Thing");
    let root = u.taxonomy().root();
    let agent = u.taxonomy_mut().add("Agent", root).unwrap();
    let person = u.taxonomy_mut().add("Person", agent).unwrap();
    let athlete = u.taxonomy_mut().add("Athlete", person).unwrap();
    let player_ty = u.taxonomy_mut().add("SoccerPlayer", athlete).unwrap();
    let org = u.taxonomy_mut().add("Organisation", agent).unwrap();
    let team = u.taxonomy_mut().add("SportsTeam", org).unwrap();
    let club_ty = u.taxonomy_mut().add("SoccerClub", team).unwrap();

    u.relation("current_club");
    u.relation("squad");

    let players: Vec<EntityId> = (0..5)
        .map(|i| u.add_entity(&format!("Player {i}"), player_ty).unwrap())
        .collect();
    let clubs: Vec<EntityId> = (0..4)
        .map(|i| u.add_entity(&format!("Club {i}"), club_ty).unwrap())
        .collect();

    let mut store = RevisionStore::new();
    let window = Window::new(10, 1000);

    // Base state before the window: empty pages.
    let mut player_state: Vec<PageLinks> = (0..5).map(|_| PageLinks::new()).collect();
    let mut club_state: Vec<PageLinks> = (0..4).map(|_| PageLinks::new()).collect();
    for (i, &p) in players.iter().enumerate() {
        snap(&mut store, &u, p, 1, &player_state[i], "football biography");
    }
    for (i, &c) in clubs.iter().enumerate() {
        snap(&mut store, &u, c, 1, &club_state[i], "football club");
    }

    // Four complete transfers inside the window.
    let mut t = 20;
    for i in 0..4 {
        let club_ix = i % 4;
        let club_name = u.entity_name(clubs[club_ix]).to_owned();
        let player_name = u.entity_name(players[i]).to_owned();

        player_state[i].insert("current_club", &club_name);
        snap(
            &mut store,
            &u,
            players[i],
            t,
            &player_state[i],
            "football biography",
        );
        club_state[club_ix].insert("squad", &player_name);
        snap(
            &mut store,
            &u,
            clubs[club_ix],
            t + 3,
            &club_state[club_ix],
            "football club",
        );
        t += 10;
    }

    // The fifth player's transfer is partial: only the player page edited.
    let club_name = u.entity_name(clubs[3]).to_owned();
    player_state[4].insert("current_club", &club_name);
    snap(
        &mut store,
        &u,
        players[4],
        t,
        &player_state[4],
        "football biography",
    );

    Fixture {
        partial_player: players[4],
        universe: u,
        store,
        window,
        player_ty,
        club_ty,
        players,
        clubs,
    }
}
