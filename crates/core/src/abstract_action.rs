//! Abstract actions: edit operations over typed variables.
//!
//! An abstract action `(op, (t', l, t''))` generalizes concrete actions to
//! entity types (paper §3). A concrete action's *abstractions* are obtained
//! by replacing its source/target by variables of any supertype — walking
//! the taxonomy's ancestor chains. This is what lets WiClean mine patterns
//! "at all abstraction levels", e.g. both `SoccerPlayer` and `Athlete`
//! variants of a transfer pattern.

use crate::var::Var;
use serde::{Deserialize, Serialize};
use wiclean_revstore::Action;
use wiclean_types::{RelId, TypeId, Universe};
use wiclean_wikitext::EditOp;

/// An abstract action: `(op, (source_var, rel, target_var))`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct AbstractAction {
    /// Add or remove.
    pub op: EditOp,
    /// The source variable (whose page is edited).
    pub source: Var,
    /// The edge label.
    pub rel: RelId,
    /// The target variable.
    pub target: Var,
}

impl AbstractAction {
    /// Convenience constructor.
    pub fn new(op: EditOp, source: Var, rel: RelId, target: Var) -> Self {
        Self {
            op,
            source,
            rel,
            target,
        }
    }

    /// The *shape* of the action: everything except variable indices.
    /// Two abstract actions with the same shape differ only in which
    /// variables they touch.
    pub fn shape(&self) -> (EditOp, TypeId, RelId, TypeId) {
        (self.op, self.source.ty, self.rel, self.target.ty)
    }

    /// Whether the concrete action `a` can realize this abstract action in
    /// isolation: op and label match and the endpoint entity types are
    /// subtypes of the variable types. (Variable injectivity is a
    /// pattern-level constraint, checked by the realization tables.)
    pub fn admits(&self, a: &Action, universe: &Universe) -> bool {
        self.op == a.op
            && self.rel == a.rel
            && universe.is_subtype(universe.entity_type(a.source), self.source.ty)
            && universe.is_subtype(universe.entity_type(a.target), self.target.ty)
    }

    /// Human-readable rendering, e.g. `+ (SoccerPlayer_1, current_club,
    /// SoccerClub_1)`.
    pub fn display(&self, universe: &Universe) -> String {
        format!(
            "{} ({}, {}, {})",
            self.op,
            self.source.display(universe.taxonomy()),
            universe.relation_name(self.rel),
            self.target.display(universe.taxonomy()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Universe, Action) {
        let mut u = Universe::new("Thing");
        let root = u.taxonomy().root();
        let person = u.taxonomy_mut().add("Person", root).unwrap();
        let athlete = u.taxonomy_mut().add("Athlete", person).unwrap();
        let player = u.taxonomy_mut().add("SoccerPlayer", athlete).unwrap();
        let org = u.taxonomy_mut().add("Organisation", root).unwrap();
        let club = u.taxonomy_mut().add("SoccerClub", org).unwrap();
        let rel = u.relation("current_club");
        let neymar = u.add_entity("Neymar", player).unwrap();
        let psg = u.add_entity("PSG", club).unwrap();
        let action = Action::new(EditOp::Add, neymar, rel, psg, 7);
        (u, action)
    }

    #[test]
    fn admits_checks_types_and_shape() {
        let (mut u, a) = setup();
        let player = u.taxonomy().lookup("SoccerPlayer").unwrap();
        let athlete = u.taxonomy().lookup("Athlete").unwrap();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let rel = a.rel;

        let exact = AbstractAction::new(a.op, Var::new(player, 0), rel, Var::new(club, 0));
        assert!(exact.admits(&a, &u));

        let lifted = AbstractAction::new(a.op, Var::new(athlete, 0), rel, Var::new(club, 0));
        assert!(
            lifted.admits(&a, &u),
            "supertype variable admits subtype entity"
        );

        let wrong_op =
            AbstractAction::new(a.op.inverse(), Var::new(player, 0), rel, Var::new(club, 0));
        assert!(!wrong_op.admits(&a, &u));

        let wrong_rel_id = u.relation("squad");
        let wrong_rel =
            AbstractAction::new(a.op, Var::new(player, 0), wrong_rel_id, Var::new(club, 0));
        assert!(!wrong_rel.admits(&a, &u));

        let too_specific_elsewhere =
            AbstractAction::new(a.op, Var::new(club, 0), rel, Var::new(club, 0));
        assert!(!too_specific_elsewhere.admits(&a, &u));
    }

    #[test]
    fn display_is_readable() {
        let (u, a) = setup();
        let player = u.taxonomy().lookup("SoccerPlayer").unwrap();
        let club = u.taxonomy().lookup("SoccerClub").unwrap();
        let aa = AbstractAction::new(a.op, Var::new(player, 0), a.rel, Var::new(club, 1));
        assert_eq!(
            aa.display(&u),
            "+ (SoccerPlayer_1, current_club, SoccerClub_2)"
        );
    }
}
