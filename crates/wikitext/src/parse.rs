//! Parsing wikitext snapshots into structured links.
//!
//! The parser is a single forward pass over the text, line-oriented for the
//! block structure (infobox, sections, tables) with a small in-line scanner
//! for `[[link]]` syntax. It tolerates the noise real pages carry: HTML
//! comments, piped links, unknown templates, stray markup, and prose links
//! (which are skipped — only infobox fields, relation sections, and captioned
//! tables are structured data, per the paper's scope).

use crate::ast::{PageLinks, SymLinks};
use serde::{Deserialize, Serialize};
use wiclean_types::{Sym, SymTable};

/// Recoverable defects observed while parsing one snapshot.
///
/// Real crawled revision text is routinely truncated or garbled in transit;
/// the parser never fails on such input — it recovers at the next structural
/// boundary — but it *counts* what it had to recover from, so the crawl
/// layer can report degraded coverage instead of silently mining a page
/// whose tail was lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseIssues {
    /// `<!--` comments with no closing `-->` (rest of page discarded).
    pub unterminated_comments: u64,
    /// `<ref>` tags with no closing `</ref>` (rest of page discarded).
    pub unterminated_refs: u64,
    /// `[[` link openers with no closing `]]` on the fragment.
    pub unterminated_links: u64,
    /// Page ended inside an `{{Infobox …}}` block.
    pub unclosed_infoboxes: u64,
    /// Page ended inside a `{| … |}` table.
    pub unclosed_tables: u64,
}

impl ParseIssues {
    /// Total defect count.
    pub fn total(&self) -> u64 {
        self.unterminated_comments
            + self.unterminated_refs
            + self.unterminated_links
            + self.unclosed_infoboxes
            + self.unclosed_tables
    }

    /// Whether the snapshot parsed without recovery.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Merges another snapshot's counts into this one.
    pub fn absorb(&mut self, other: &ParseIssues) {
        self.unterminated_comments += other.unterminated_comments;
        self.unterminated_refs += other.unterminated_refs;
        self.unterminated_links += other.unterminated_links;
        self.unclosed_infoboxes += other.unclosed_infoboxes;
        self.unclosed_tables += other.unclosed_tables;
    }
}

/// Namespaced links (`[[Category:...]]`, `[[File:...]]`, …) are metadata,
/// not entity links, and are excluded from structured extraction.
fn is_namespaced(target: &str) -> bool {
    const NAMESPACES: [&str; 5] = ["Category:", "File:", "Image:", "Template:", "Help:"];
    NAMESPACES.iter().any(|ns| target.starts_with(ns))
}

/// Extracts the link targets from an inline fragment, resolving piped links
/// `[[Target|display]]` to `Target` and trimming whitespace. Malformed link
/// openers without a closing `]]` and namespaced links (categories, files)
/// are ignored.
pub fn scan_links(fragment: &str) -> Vec<&str> {
    scan_links_counted(fragment, &mut ParseIssues::default())
}

/// [`scan_links`] that also counts unterminated `[[` openers.
pub(crate) fn scan_links_counted<'a>(fragment: &'a str, issues: &mut ParseIssues) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut rest = fragment;
    while let Some(start) = rest.find("[[") {
        rest = &rest[start + 2..];
        let Some(end) = rest.find("]]") else {
            issues.unterminated_links += 1;
            break;
        };
        let inner = &rest[..end];
        rest = &rest[end + 2..];
        let target = match inner.find('|') {
            Some(pipe) => &inner[..pipe],
            None => inner,
        };
        let target = target.trim();
        if !target.is_empty() && !is_namespaced(target) {
            out.push(target);
        }
    }
    out
}

/// Strips `<ref>…</ref>` footnotes (and self-closing `<ref … />` tags);
/// reference bodies may contain links, but those cite sources rather than
/// relate entities. Unterminated refs run to the end of the input.
pub fn strip_refs(text: &str) -> String {
    strip_refs_counted(text, &mut ParseIssues::default())
}

/// [`strip_refs`] that also counts unterminated `<ref>` tags.
pub(crate) fn strip_refs_counted(text: &str, issues: &mut ParseIssues) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("<ref") {
        out.push_str(&rest[..start]);
        rest = &rest[start..];
        // Self-closing tag?
        let close_tag = rest.find("/>");
        let open_end = rest.find('>');
        match (open_end, close_tag) {
            (Some(oe), Some(ct)) if ct + 1 == oe => {
                // `<ref ... />`
                rest = &rest[oe + 1..];
            }
            (Some(_), _) => match rest.find("</ref>") {
                Some(end) => rest = &rest[end + 6..],
                None => {
                    issues.unterminated_refs += 1;
                    return out;
                }
            },
            (None, _) => {
                issues.unterminated_refs += 1;
                return out;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Strips `<!-- ... -->` comments. Unterminated comments run to the end of
/// the input, like MediaWiki's sanitizer.
pub fn strip_comments(text: &str) -> String {
    strip_comments_counted(text, &mut ParseIssues::default())
}

/// [`strip_comments`] that also counts unterminated comments.
pub(crate) fn strip_comments_counted(text: &str, issues: &mut ParseIssues) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("<!--") {
        out.push_str(&rest[..start]);
        rest = &rest[start + 4..];
        match rest.find("-->") {
            Some(end) => rest = &rest[end + 3..],
            None => {
                issues.unterminated_comments += 1;
                return out;
            }
        }
    }
    out.push_str(rest);
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Block {
    /// Top level prose; links here are unstructured and skipped.
    Prose,
    /// Inside `{{Infobox ...}}`.
    Infobox,
    /// Inside a `== relation ==` section; bullets are structured links.
    Section,
    /// Inside a `{| ... |}` table.
    Table,
}

/// Parses one page snapshot into its structured links.
///
/// Recognized structure:
/// * `{{Infobox KIND` opens an infobox; `| field = value` lines contribute
///   `(field, target)` for every link in the value; `}}` closes it.
/// * `== title ==` opens a section named `title`; `* ...` bullets inside it
///   contribute `(title, target)` pairs.
/// * `{|` opens a table; `|+ caption` names its relation; `| cell` and
///   `! cell` lines contribute links under that caption; `|}` closes it.
///   Tables without a caption are presentation-only and skipped.
/// * everything else is prose and ignored.
pub fn parse_page(text: &str) -> PageLinks {
    parse_page_checked(text).0
}

/// [`parse_page`] that also reports the recoverable defects encountered —
/// the crawl layer's view of truncated or garbled revision text. The links
/// returned are identical to [`parse_page`]'s.
pub fn parse_page_checked(text: &str) -> (PageLinks, ParseIssues) {
    let mut issues = ParseIssues::default();
    let text = {
        let stripped = strip_comments_counted(text, &mut issues);
        strip_refs_counted(&stripped, &mut issues)
    };
    let mut page = PageLinks::new();
    let mut block = Block::Prose;
    let mut section_name = String::new();
    let mut table_caption: Option<String> = None;
    // Brace depth *inside* the infobox: nested templates ({{cite …}},
    // {{formatnum:…}}) may span lines and must not contribute fields or
    // close the infobox early.
    let mut infobox_depth = 0i32;

    // Redirect stubs: the whole page is just a pointer.
    if let Some(rest) = strip_redirect(&text) {
        if let Some(target) = scan_links_counted(rest, &mut issues).first() {
            page.redirect = Some((*target).to_owned());
        }
        return (page, issues);
    }

    for raw_line in text.lines() {
        let line = raw_line.trim_end();
        let trimmed = line.trim_start();

        match block {
            Block::Infobox => {
                let opens = trimmed.matches("{{").count() as i32;
                let closes = trimmed.matches("}}").count() as i32;
                if infobox_depth == 0 {
                    if let Some(rest) = trimmed.strip_prefix('|') {
                        if let Some(eq) = rest.find('=') {
                            let field = rest[..eq].trim();
                            let value = &rest[eq + 1..];
                            if !field.is_empty() {
                                for target in scan_links_counted(value, &mut issues) {
                                    page.insert(field, target);
                                }
                            }
                        }
                    }
                }
                infobox_depth += opens - closes;
                if infobox_depth < 0 {
                    // The infobox's own `}}` closed it.
                    block = Block::Prose;
                    infobox_depth = 0;
                }
            }
            Block::Table => {
                if trimmed == "|}" {
                    block = Block::Prose;
                    table_caption = None;
                } else if let Some(rest) = trimmed.strip_prefix("|+") {
                    let caption = rest.trim();
                    if !caption.is_empty() {
                        table_caption = Some(caption.to_owned());
                    }
                } else if trimmed.starts_with("|-") {
                    // row separator
                } else if let Some(rest) = trimmed
                    .strip_prefix('|')
                    .or_else(|| trimmed.strip_prefix('!'))
                {
                    if let Some(caption) = &table_caption {
                        for target in scan_links_counted(rest, &mut issues) {
                            page.insert(caption, target);
                        }
                    }
                }
            }
            Block::Prose | Block::Section => {
                if let Some(kind) = trimmed
                    .strip_prefix("{{Infobox ")
                    .or_else(|| trimmed.strip_prefix("{{infobox "))
                {
                    page.infobox_kind = Some(kind.trim().trim_end_matches('}').trim().to_owned());
                    block = Block::Infobox;
                    infobox_depth = 0;
                } else if trimmed.starts_with("{|") {
                    block = Block::Table;
                    table_caption = None;
                } else if let Some(title) = heading_title(trimmed) {
                    section_name = title.to_owned();
                    block = Block::Section;
                } else if block == Block::Section {
                    if let Some(rest) = trimmed.strip_prefix('*') {
                        for target in scan_links_counted(rest, &mut issues) {
                            page.insert(&section_name, target);
                        }
                    } else if !trimmed.is_empty() && !trimmed.starts_with('*') {
                        // Prose inside a section ends the structured list:
                        // subsequent links are unstructured.
                        if !trimmed.starts_with("[[") && !trimmed.contains("[[") {
                            // pure prose: stay in section, bullets may resume
                        } else {
                            block = Block::Prose;
                        }
                    }
                }
            }
        }
    }
    match block {
        Block::Infobox => issues.unclosed_infoboxes += 1,
        Block::Table => issues.unclosed_tables += 1,
        Block::Prose | Block::Section => {}
    }
    (page, issues)
}

/// If the line is a `== title ==` heading (any level ≥ 2), returns the title.
pub(crate) fn heading_title(line: &str) -> Option<&str> {
    if !line.starts_with("==") || !line.ends_with("==") || line.len() < 5 {
        return None;
    }
    let inner = line.trim_matches('=').trim();
    if inner.is_empty() {
        None
    } else {
        Some(inner)
    }
}

/// The block-machine state *between* two lines of the interned parser.
///
/// This is the full parser state: feeding the same line to two machines in
/// equal `LineState`s yields identical links and identical successor states.
/// That O(1)-comparable property is what lets the incremental parser splice
/// reparsed spans back into a cached per-line record list and re-use the
/// unchanged suffix (see [`crate::incr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineState {
    pub(crate) block: Block,
    /// Current `== section ==` name; `Some` iff `block == Section`.
    pub(crate) section: Option<Sym>,
    /// Current `|+ caption`; only meaningful while `block == Table`.
    pub(crate) table_caption: Option<Sym>,
    /// Nested-template depth inside an infobox; only meaningful while
    /// `block == Infobox`.
    pub(crate) infobox_depth: i32,
}

impl LineState {
    pub(crate) fn initial() -> Self {
        Self {
            block: Block::Prose,
            section: None,
            table_caption: None,
            infobox_depth: 0,
        }
    }
}

/// What feeding one line produced: links, maybe an infobox kind, and any
/// unterminated-`[[` count. All other issue classes are either whole-text
/// (comments/refs, handled before the machine runs) or end-of-input
/// (unclosed blocks, derived from the final state).
#[derive(Debug, Default, Clone)]
pub(crate) struct LineEffect {
    pub(crate) links: Vec<(Sym, Sym)>,
    pub(crate) kind: Option<Sym>,
    pub(crate) unterminated_links: u64,
}

/// The per-line block machine of [`parse_page_checked`], factored out so it
/// can be resumed from any recorded [`LineState`]. `feed` expects lines of
/// *already comment/ref-stripped* text — it must not re-strip, because
/// whole-text stripping can reconstruct `<!--`/`<ref` tokens in its output
/// and the frozen parser is deliberately single-pass.
#[derive(Debug, Clone)]
pub(crate) struct LineMachine {
    pub(crate) state: LineState,
}

impl LineMachine {
    pub(crate) fn new() -> Self {
        Self {
            state: LineState::initial(),
        }
    }

    pub(crate) fn resume(state: LineState) -> Self {
        Self { state }
    }

    /// Transcribes one loop iteration of [`parse_page_checked`], interning
    /// labels and targets instead of allocating strings.
    pub(crate) fn feed(&mut self, raw_line: &str, syms: &mut SymTable) -> LineEffect {
        let mut fx = LineEffect::default();
        let mut issues = ParseIssues::default();
        let line = raw_line.trim_end();
        let trimmed = line.trim_start();

        match self.state.block {
            Block::Infobox => {
                let opens = trimmed.matches("{{").count() as i32;
                let closes = trimmed.matches("}}").count() as i32;
                if self.state.infobox_depth == 0 {
                    if let Some(rest) = trimmed.strip_prefix('|') {
                        if let Some(eq) = rest.find('=') {
                            let field = rest[..eq].trim();
                            let value = &rest[eq + 1..];
                            if !field.is_empty() {
                                let mut rel = None;
                                for target in scan_links_counted(value, &mut issues) {
                                    let rel = *rel.get_or_insert_with(|| syms.intern(field));
                                    let target = syms.intern(target);
                                    fx.links.push((rel, target));
                                }
                            }
                        }
                    }
                }
                self.state.infobox_depth += opens - closes;
                if self.state.infobox_depth < 0 {
                    self.state.block = Block::Prose;
                    self.state.infobox_depth = 0;
                }
            }
            Block::Table => {
                if trimmed == "|}" {
                    self.state.block = Block::Prose;
                    self.state.table_caption = None;
                } else if let Some(rest) = trimmed.strip_prefix("|+") {
                    let caption = rest.trim();
                    if !caption.is_empty() {
                        self.state.table_caption = Some(syms.intern(caption));
                    }
                } else if trimmed.starts_with("|-") {
                    // row separator
                } else if let Some(rest) = trimmed
                    .strip_prefix('|')
                    .or_else(|| trimmed.strip_prefix('!'))
                {
                    if let Some(caption) = self.state.table_caption {
                        for target in scan_links_counted(rest, &mut issues) {
                            let target = syms.intern(target);
                            fx.links.push((caption, target));
                        }
                    }
                }
            }
            Block::Prose | Block::Section => {
                if let Some(kind) = trimmed
                    .strip_prefix("{{Infobox ")
                    .or_else(|| trimmed.strip_prefix("{{infobox "))
                {
                    fx.kind = Some(syms.intern(kind.trim().trim_end_matches('}').trim()));
                    self.state.block = Block::Infobox;
                    self.state.infobox_depth = 0;
                    self.state.section = None;
                } else if trimmed.starts_with("{|") {
                    self.state.block = Block::Table;
                    self.state.table_caption = None;
                    self.state.section = None;
                } else if let Some(title) = heading_title(trimmed) {
                    self.state.section = Some(syms.intern(title));
                    self.state.block = Block::Section;
                } else if self.state.block == Block::Section {
                    if let Some(rest) = trimmed.strip_prefix('*') {
                        let section = self.state.section.expect("Section block carries a name");
                        for target in scan_links_counted(rest, &mut issues) {
                            let target = syms.intern(target);
                            fx.links.push((section, target));
                        }
                    } else if !trimmed.is_empty() && !trimmed.starts_with('*') {
                        if !trimmed.starts_with("[[") && !trimmed.contains("[[") {
                            // pure prose: stay in section, bullets may resume
                        } else {
                            self.state.block = Block::Prose;
                            self.state.section = None;
                        }
                    }
                }
            }
        }
        fx.unterminated_links = issues.unterminated_links;
        fx
    }
}

/// End-of-input bookkeeping shared by the full interned parse and the
/// incremental splicer: a page ending inside a block counts it unclosed.
pub(crate) fn eof_issues(state: LineState, issues: &mut ParseIssues) {
    match state.block {
        Block::Infobox => issues.unclosed_infoboxes += 1,
        Block::Table => issues.unclosed_tables += 1,
        Block::Prose | Block::Section => {}
    }
}

/// The redirect magic word. MediaWiki matches it in any ASCII case.
pub(crate) const REDIRECT: &str = "#REDIRECT";

/// What follows a leading [`REDIRECT`] magic word (any ASCII case) in
/// comment-stripped `text`, or `None` if the page is no redirect stub.
fn strip_redirect(text: &str) -> Option<&str> {
    let text = text.trim_start();
    let head = text.get(..REDIRECT.len())?;
    head.eq_ignore_ascii_case(REDIRECT)
        .then(|| &text[REDIRECT.len()..])
}

/// [`parse_page_checked`] with interned output: identical structure and
/// issue counts, but links come back as [`Sym`] pairs against `syms`.
///
/// The differential property `parse_page_interned(t).resolve(syms) ==
/// parse_page(t)` holds for every input; proptests pin it.
pub fn parse_page_interned(text: &str, syms: &mut SymTable) -> (SymLinks, ParseIssues) {
    let mut issues = ParseIssues::default();
    let text = {
        let stripped = strip_comments_counted(text, &mut issues);
        strip_refs_counted(&stripped, &mut issues)
    };
    let mut page = SymLinks::new();

    if let Some(rest) = strip_redirect(&text) {
        if let Some(target) = scan_links_counted(rest, &mut issues).first() {
            page.redirect = Some(syms.intern(target));
        }
        return (page, issues);
    }

    let mut machine = LineMachine::new();
    for raw_line in text.lines() {
        let fx = machine.feed(raw_line, syms);
        issues.unterminated_links += fx.unterminated_links;
        if fx.kind.is_some() {
            page.infobox_kind = fx.kind;
        }
        for (rel, target) in fx.links {
            page.insert(rel, target);
        }
    }
    eof_issues(machine.state, &mut issues);
    (page, issues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render_page, PageSpec, RelationLayout};

    #[test]
    fn scan_links_basic_and_piped() {
        assert_eq!(scan_links("[[A]] and [[B|bee]]"), vec!["A", "B"]);
        assert_eq!(scan_links("no links"), Vec::<&str>::new());
        assert_eq!(scan_links("[[  Padded  ]]"), vec!["Padded"]);
    }

    #[test]
    fn scan_links_malformed() {
        assert_eq!(scan_links("[[unterminated"), Vec::<&str>::new());
        assert_eq!(scan_links("[[]]"), Vec::<&str>::new(), "empty link skipped");
        assert_eq!(scan_links("]] stray [[X]]"), vec!["X"]);
    }

    #[test]
    fn strip_comments_variants() {
        assert_eq!(strip_comments("a<!-- b -->c"), "ac");
        assert_eq!(strip_comments("a<!-- unterminated"), "a");
        assert_eq!(strip_comments("plain"), "plain");
        assert_eq!(strip_comments("<!--x--><!--y-->z"), "z");
    }

    #[test]
    fn parses_infobox_fields() {
        let text =
            "{{Infobox football biography\n| name = Neymar\n| current_club = [[PSG F.C.]]\n}}\n";
        let page = parse_page(text);
        assert_eq!(page.infobox_kind.as_deref(), Some("football biography"));
        assert!(page.contains("current_club", "PSG F.C."));
        // `name = Neymar` has no link, so it contributes nothing.
        assert_eq!(page.len(), 1);
    }

    #[test]
    fn parses_multi_valued_infobox_field() {
        let text = "{{Infobox x\n| member_of = [[A]]<br>[[B]]\n}}\n";
        let page = parse_page(text);
        assert!(page.contains("member_of", "A"));
        assert!(page.contains("member_of", "B"));
    }

    #[test]
    fn parses_bullet_sections() {
        let text = "== squad ==\n* [[Neymar]]\n* [[Kylian Mbappe|Mbappe]]\n";
        let page = parse_page(text);
        assert!(page.contains("squad", "Neymar"));
        assert!(page.contains("squad", "Kylian Mbappe"));
    }

    #[test]
    fn parses_captioned_tables_and_skips_uncaptioned() {
        let text = "{| class=\"wikitable\"\n|+ squad\n! Name\n|-\n| [[Neymar]]\n|}\n\n{|\n|-\n| [[Hidden]]\n|}\n";
        let page = parse_page(text);
        assert!(page.contains("squad", "Neymar"));
        assert!(!page.links.iter().any(|(_, t)| t == "Hidden"));
    }

    #[test]
    fn prose_links_are_not_structured() {
        let text = "Some intro mentioning [[Unrelated Article]].\n";
        let page = parse_page(text);
        assert!(page.is_empty());
    }

    #[test]
    fn comments_hide_links() {
        let text = "== squad ==\n* <!-- [[Ghost]] --> [[Real]]\n";
        let page = parse_page(text);
        assert!(page.contains("squad", "Real"));
        assert!(!page.links.iter().any(|(_, t)| t == "Ghost"));
    }

    #[test]
    fn namespaced_links_are_skipped() {
        assert_eq!(
            scan_links("[[Category:Footballers]] [[Neymar]] [[File:pic.jpg]]"),
            vec!["Neymar"]
        );
    }

    #[test]
    fn refs_are_stripped() {
        assert_eq!(
            strip_refs("a<ref>see [[Source]]</ref>b<ref name=x />c"),
            "abc"
        );
        assert_eq!(strip_refs("a<ref>unterminated"), "a");
        assert_eq!(strip_refs("plain"), "plain");
    }

    #[test]
    fn ref_links_are_not_structured() {
        let text = "== squad ==\n* [[Real]]<ref>cited at [[Ghost Source]]</ref>\n";
        let page = parse_page(text);
        assert!(page.contains("squad", "Real"));
        assert_eq!(page.len(), 1);
    }

    #[test]
    fn redirect_pages_have_no_links() {
        let page = parse_page("#REDIRECT [[Neymar Jr.]]\n");
        assert_eq!(page.redirect.as_deref(), Some("Neymar Jr."));
        assert!(page.is_empty());
    }

    #[test]
    fn nested_templates_in_infobox_are_opaque() {
        let text = "{{Infobox club\n| ground = {{cite\n| url = [[Not A Field]]\n}}\n| in_league = [[Ligue 1]]\n}}\n";
        let page = parse_page(text);
        assert!(page.contains("in_league", "Ligue 1"));
        assert!(
            !page.links.iter().any(|(_, t)| t == "Not A Field"),
            "nested template params must not become infobox fields: {:?}",
            page.links
        );
    }

    #[test]
    fn inline_nested_template_in_value_is_fine() {
        let text =
            "{{Infobox club\n| capacity = {{formatnum:47929}} seats at [[Parc des Princes]]\n}}\n";
        let page = parse_page(text);
        assert!(page.contains("capacity", "Parc des Princes"));
    }

    #[test]
    fn heading_levels() {
        assert_eq!(heading_title("== squad =="), Some("squad"));
        assert_eq!(heading_title("=== seasons ==="), Some("seasons"));
        assert_eq!(heading_title("not a heading"), None);
        assert_eq!(heading_title("===="), None);
    }

    #[test]
    fn checked_parse_is_clean_on_well_formed_pages() {
        let text = "{{Infobox x\n| f = [[A]]\n}}\n== s ==\n* [[B]]\n";
        let (page, issues) = parse_page_checked(text);
        assert!(issues.is_clean(), "{issues:?}");
        assert_eq!(page, parse_page(text));
    }

    #[test]
    fn truncated_page_is_recovered_and_counted() {
        // Truncation mid-infobox: unterminated link + unclosed infobox.
        let text = "{{Infobox x\n| f = [[A]]\n| g = [[Trunc";
        let (page, issues) = parse_page_checked(text);
        assert!(page.contains("f", "A"), "prefix links survive truncation");
        assert_eq!(issues.unclosed_infoboxes, 1);
        assert_eq!(issues.unterminated_links, 1);
        assert!(!issues.is_clean());
    }

    #[test]
    fn garbled_markup_is_counted() {
        let (_, issues) = parse_page_checked("a<!-- chopped");
        assert_eq!(issues.unterminated_comments, 1);
        let (_, issues) = parse_page_checked("b<ref>chopped");
        assert_eq!(issues.unterminated_refs, 1);
        let (_, issues) = parse_page_checked("{| \n|+ cap\n| [[X]]\n");
        assert_eq!(issues.unclosed_tables, 1);
    }

    #[test]
    fn issues_absorb_and_total() {
        let (_, mut a) = parse_page_checked("{{Infobox x\n| f = [[A");
        let (_, b) = parse_page_checked("x<!-- chopped");
        a.absorb(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.unterminated_comments, 1);
    }

    #[test]
    fn full_round_trip() {
        let spec = PageSpec::new("PSG F.C.", "football club")
            .relation("in_league", RelationLayout::InfoboxField, vec!["Ligue 1"])
            .relation(
                "squad",
                RelationLayout::BulletSection,
                vec!["Neymar", "Kylian Mbappe"],
            )
            .relation("honours", RelationLayout::Table, vec!["Ligue 1 Trophy"])
            .prose("The club also has fans like [[Some Person]].");
        let text = render_page(&spec);
        let page = parse_page(&text);
        assert_eq!(page.infobox_kind.as_deref(), Some("football club"));
        assert!(page.contains("in_league", "Ligue 1"));
        assert!(page.contains("squad", "Neymar"));
        assert!(page.contains("squad", "Kylian Mbappe"));
        assert!(page.contains("honours", "Ligue 1 Trophy"));
        // The prose link must NOT appear.
        assert_eq!(page.len(), 4);
    }

    fn assert_interned_matches_frozen(text: &str) {
        let (frozen, frozen_issues) = parse_page_checked(text);
        let mut syms = SymTable::new();
        let (interned, interned_issues) = parse_page_interned(text, &mut syms);
        assert_eq!(interned.resolve(&syms), frozen, "links diverge on {text:?}");
        assert_eq!(interned_issues, frozen_issues, "issues diverge on {text:?}");
    }

    #[test]
    fn interned_parse_matches_frozen_on_fixtures() {
        let fixtures: &[&str] = &[
            "",
            "plain prose with [[Unstructured]] link\n",
            "{{Infobox football biography\n| name = Neymar\n| current_club = [[PSG F.C.]]\n}}\n",
            "== squad ==\n* [[Neymar]]\n* [[Kylian Mbappe|Mbappe]]\nprose [[exit]]\n* [[After]]\n",
            "{| class=\"wikitable\"\n|+ squad\n! [[Neymar]]\n|-\n| [[X]]\n|}\n",
            "{|\n| [[Uncaptioned]]\n|}\n",
            "#REDIRECT [[Neymar Jr.]]\n",
            "<!--c-->\n#REDIRECT [[Via Comment]]\n",
            "{{Infobox x\n| f = [[A]]\n| g = [[Trunc",
            "a<!-- chopped",
            "b<ref>chopped",
            "{{Infobox club\n| ground = {{cite\n| url = [[Not A Field]]\n}}\n| in_league = [[Ligue 1]]\n}}\n",
            "== s ==\n* <!-- [[Ghost]] --> [[Real]]<ref>see [[Src]]</ref>\n",
            "== a ==\n* [[X]]\n== b ==\n* [[X]]\n",
            "{{Infobox x\n| f = [[A]]\n}}\nmore\n{{Infobox y\n| f = [[B]]\n}}\n",
        ];
        for text in fixtures {
            assert_interned_matches_frozen(text);
        }
    }

    #[test]
    fn interned_parse_matches_frozen_on_rendered_page() {
        let spec = PageSpec::new("PSG F.C.", "football club")
            .relation("in_league", RelationLayout::InfoboxField, vec!["Ligue 1"])
            .relation("squad", RelationLayout::BulletSection, vec!["Neymar"])
            .relation("honours", RelationLayout::Table, vec!["Trophy"])
            .prose("Prose with [[Noise]].");
        assert_interned_matches_frozen(&render_page(&spec));
    }
}
