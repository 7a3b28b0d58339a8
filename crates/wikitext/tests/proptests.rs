//! Property-based tests for the wikitext substrate.

use proptest::prelude::*;
use std::collections::BTreeSet;
use wiclean_types::SymTable;
use wiclean_wikitext::render::render_links;
use wiclean_wikitext::{
    diff::apply_edits, diff::diff_links, parse_page, parse_page_checked, parse_page_interned,
    IncrementalParser, PageLinks,
};

/// Names that are safe as page titles / relation labels in our dialect:
/// no wikitext metacharacters, no leading/trailing whitespace.
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9 _.]{0,18}[A-Za-z0-9]".prop_map(|s| s.trim().to_owned())
}

fn links_strategy() -> impl Strategy<Value = PageLinks> {
    proptest::collection::btree_set((name_strategy(), name_strategy()), 0..12).prop_map(|set| {
        let mut p = PageLinks::new();
        p.links = set.into_iter().collect::<BTreeSet<(String, String)>>();
        p
    })
}

/// Adversarial-but-representable names: unicode letters and digits mixed
/// with punctuation our dialect can carry inside `[[...]]` and labels —
/// everything except wikitext metacharacters (`[ ] | = { } < >`), the `:`
/// of namespace prefixes, and leading/trailing whitespace (the link
/// scanner trims those; a separate property covers padding).
fn adversarial_name() -> impl Strategy<Value = String> {
    "[\\pL\\pN][\\pL\\pN .,'()\\-_]{0,14}[\\pL\\pN]".prop_map(|s| s)
}

fn adversarial_links_strategy() -> impl Strategy<Value = PageLinks> {
    proptest::collection::btree_set((adversarial_name(), adversarial_name()), 1..8).prop_map(
        |set| {
            let mut p = PageLinks::new();
            p.links = set.into_iter().collect::<BTreeSet<(String, String)>>();
            p
        },
    )
}

/// One revision of a random page history: mostly well-formed rendered
/// pages (so the splice path engages), with redirect stubs, arbitrary
/// garbage, and mid-byte truncations mixed in.
fn revision_text_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        6 => links_strategy().prop_map(|l| render_links("Test Page", "thing", &l)),
        1 => name_strategy().prop_map(|t| format!("#REDIRECT [[{t}]]\n")),
        // A marker fused by ref stripping, ahead of a page that would
        // otherwise have links.
        1 => (name_strategy(), links_strategy()).prop_map(|(t, l)| {
            format!("#RED<ref name=x />IRECT [[{t}]]\n{}", render_links("Test Page", "thing", &l))
        }),
        1 => ".{0,200}",
        2 => (links_strategy(), 0usize..400).prop_map(|(l, cut)| {
            let text = render_links("Test Page", "thing", &l);
            let mut cut = cut.min(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        }),
    ]
}

/// Asserts the incremental parser tracks the frozen parse+diff oracle at
/// every revision of `history`.
fn assert_incremental_matches_frozen<S: AsRef<str>>(history: &[S]) -> Result<(), TestCaseError> {
    let mut syms = SymTable::new();
    let mut incr = IncrementalParser::new();
    let mut prev = PageLinks::new();
    for (i, text) in history.iter().map(AsRef::as_ref).enumerate() {
        let (frozen_page, frozen_issues) = parse_page_checked(text);
        let frozen_edits = diff_links(&prev, &frozen_page);

        let out = incr.advance(text, &mut syms);
        let got_edits: Vec<_> = out.edits.iter().map(|e| e.resolve(&syms)).collect();
        prop_assert_eq!(got_edits, frozen_edits, "edits diverge at rev {}", i);
        prop_assert_eq!(out.issues, frozen_issues, "issues diverge at rev {}", i);
        prop_assert_eq!(
            incr.current_links().resolve(&syms),
            frozen_page.clone(),
            "state diverges at rev {}",
            i
        );
        prev = frozen_page;
    }
    Ok(())
}

proptest! {
    /// render → parse recovers exactly the structured links.
    #[test]
    fn render_parse_round_trip(links in links_strategy()) {
        let text = render_links("Test Page", "thing", &links);
        let parsed = parse_page(&text);
        prop_assert_eq!(parsed.links, links.links);
    }

    /// Diffing a page against itself yields no edits.
    #[test]
    fn self_diff_is_empty(links in links_strategy()) {
        prop_assert!(diff_links(&links, &links).is_empty());
    }

    /// Applying the diff of (old → new) to old yields new.
    #[test]
    fn diff_apply_identity(old in links_strategy(), new in links_strategy()) {
        let edits = diff_links(&old, &new);
        let mut state = old.clone();
        apply_edits(&mut state, &edits);
        prop_assert_eq!(state.links, new.links);
    }

    /// The diff is minimal: |edits| = |symmetric difference|.
    #[test]
    fn diff_is_minimal(old in links_strategy(), new in links_strategy()) {
        let edits = diff_links(&old, &new);
        let sym: usize = old.links.symmetric_difference(&new.links).count();
        prop_assert_eq!(edits.len(), sym);
    }

    /// Reversing the diff direction inverts every edit.
    #[test]
    fn reverse_diff_is_inverse(old in links_strategy(), new in links_strategy()) {
        let fwd: BTreeSet<_> = diff_links(&old, &new).into_iter().collect();
        let bwd: BTreeSet<_> = diff_links(&new, &old)
            .into_iter()
            .map(|e| e.inverse())
            .collect();
        prop_assert_eq!(fwd, bwd);
    }

    /// Parsing never panics on arbitrary input.
    #[test]
    fn parse_total_on_arbitrary_text(text in ".{0,400}") {
        let _ = parse_page(&text);
    }

    /// Parsing is idempotent w.r.t. re-rendering: render(parse(render(x)))
    /// equals render(x) modulo structured links.
    #[test]
    fn reparse_stability(links in links_strategy()) {
        let text = render_links("Page", "thing", &links);
        let once = parse_page(&text);
        let text2 = render_links("Page", "thing", &once);
        let twice = parse_page(&text2);
        prop_assert_eq!(once.links, twice.links);
    }

    /// The interned parser agrees with the frozen parser on arbitrary
    /// input — links, infobox kind, redirect, and issue counts.
    #[test]
    fn interned_parse_matches_frozen(text in ".{0,400}") {
        let (frozen, frozen_issues) = parse_page_checked(&text);
        let mut syms = SymTable::new();
        let (interned, issues) = parse_page_interned(&text, &mut syms);
        prop_assert_eq!(interned.resolve(&syms), frozen);
        prop_assert_eq!(issues, frozen_issues);
    }

    /// parse(render(links)) == links over adversarial titles (unicode,
    /// punctuation, internal whitespace) — for the frozen, interned, and
    /// incremental parsers alike.
    #[test]
    fn adversarial_round_trip_all_parsers(links in adversarial_links_strategy()) {
        let text = render_links("Tëst Pagé", "thing", &links);

        let parsed = parse_page(&text);
        prop_assert_eq!(&parsed.links, &links.links, "frozen parser");

        let mut syms = SymTable::new();
        let (interned, _) = parse_page_interned(&text, &mut syms);
        prop_assert_eq!(interned.resolve(&syms).links, links.links.clone(), "interned parser");

        let mut inc_syms = SymTable::new();
        let mut incr = IncrementalParser::new();
        incr.advance(&text, &mut inc_syms);
        prop_assert_eq!(
            incr.current_links().resolve(&inc_syms).links,
            links.links,
            "incremental parser"
        );
    }

    /// Titles padded with leading/trailing whitespace inside `[[ ... ]]`
    /// parse back trimmed, identically across parsers.
    #[test]
    fn padded_titles_parse_trimmed(
        title in adversarial_name(),
        pad_l in " {0,3}",
        pad_r in " {0,3}",
    ) {
        let text = format!("== squad ==\n* [[{pad_l}{title}{pad_r}]]\n");
        let parsed = parse_page(&text);
        prop_assert!(parsed.contains("squad", &title));

        let mut syms = SymTable::new();
        let (interned, _) = parse_page_interned(&text, &mut syms);
        prop_assert_eq!(interned.resolve(&syms), parsed);
    }

    /// The tentpole differential: over random histories — well-formed,
    /// truncated, garbled, and redirect revisions interleaved — the
    /// incremental parser's per-revision edits, issues, and link state are
    /// byte-identical to full-reparse-and-diff at every step.
    #[test]
    fn incremental_matches_frozen_over_histories(
        history in proptest::collection::vec(revision_text_strategy(), 1..8)
    ) {
        assert_incremental_matches_frozen(&history)?;
    }

    /// Same differential over *small-edit* histories: a base page whose
    /// revisions each change one relation's targets, so the splice path
    /// (not the rebuild path) is what's being exercised.
    #[test]
    fn incremental_matches_frozen_under_small_edits(
        base in links_strategy(),
        edits in proptest::collection::vec((name_strategy(), name_strategy()), 1..6)
    ) {
        let mut state = base;
        let mut history = vec![render_links("Test Page", "thing", &state)];
        for (rel, target) in edits {
            if !state.insert(&rel, &target) {
                state.remove(&rel, &target);
            }
            history.push(render_links("Test Page", "thing", &state));
        }
        assert_incremental_matches_frozen(&history)?;
    }
}

#[test]
fn swar_newline_vt_adjacency() {
    // '\n' immediately followed by 0x0B inside an 8-byte chunk
    let r1 = "aaaaaa\n\u{b}bbbbbb\ncccccc\n== s ==\n* [[A]]\n";
    let r2 = "aaaaaa\n\u{b}bbbbbb\ncccccc\n== s ==\n* [[B]]\n";
    assert_incremental_matches_frozen(&[r1, r2]).unwrap();
}

#[test]
fn redirect_synthesized_by_comment_stripping() {
    assert_incremental_matches_frozen(&[
        "== s ==\n* [[A]]\n",
        "#RED<!--x-->IRECT [[T]]\n{{Infobox a\n| f = [[B]]\n}}\n",
    ])
    .unwrap();
}

#[test]
fn redirect_magic_word_is_case_insensitive() {
    // MediaWiki matches `#REDIRECT` in any ASCII case, comments and refs
    // stripped first; the incremental gate must see every spelling the
    // frozen parser does.
    let body = "{{Infobox a\n| f = [[B]]\n}}\n== s ==\n* [[A]]\n";
    for marker in [
        "#redirect",
        "#Redirect",
        "#red<!--x-->irect",
        "#REDirect",
        "#RED<ref name=x />IRECT",
        "#red<ref>y</ref>irect",
    ] {
        let stub = format!("{marker} [[T]]\n{body}");
        assert_eq!(parse_page(&stub).redirect.as_deref(), Some("T"), "{marker}");
        assert_incremental_matches_frozen(&[body, stub.as_str(), body]).unwrap();
        assert_incremental_matches_frozen(&["== s ==\n* [[A]]\n", stub.as_str()]).unwrap();
    }
}
