//! Prediff-gated incremental parsing.
//!
//! Consecutive revisions of a page are nearly identical — a typical edit
//! touches one line out of hundreds. The frozen extraction path still
//! re-parses the full text of every revision. [`IncrementalParser`] instead
//! keeps the previous revision's per-line parse records and, on each new
//! snapshot, byte-diffs against the previous text (chunked-`memcmp` common
//! prefix/suffix snapped to line boundaries), re-parses only the changed
//! span, and patches the cached link multiset in place. Link edits then
//! fall out of the patch itself: a link pair whose reference count crosses
//! zero is an add/remove. Per-splice work beyond the prefix/suffix scan is
//! proportional to the edit span, not the page: line counts derive from
//! the changed middle's newline delta, and the gates run only on the lines
//! fed to the machine.
//!
//! # Determinism contract
//!
//! For every revision sequence, the edits and [`ParseIssues`] emitted by
//! [`IncrementalParser::advance`] are byte-identical to parsing each
//! snapshot from scratch with [`parse_page_interned`] and diffing with
//! [`diff_sym_links`] — including on truncated/garbled fault-injected text
//! and on histories ingested out of order and re-extracted. Differential
//! proptests in this crate and in `wiclean-revstore` pin the contract.
//!
//! The splice path is only sound when parsing decomposes per line. Three
//! constructs may span lines, so they gate a fallback to the frozen-shape
//! full parse (which is itself interned, so the output representation does
//! not change — only the work done):
//!
//! * a `<!-- comment` or `<ref>` whose terminator is not on the same line
//!   (whole-text stripping would join lines); line-local comments and refs
//!   are stripped per line and splice fine — important because every
//!   synthetic snapshot opens with a one-line autogenerated comment;
//! * any `#REDIRECT` occurrence, in any ASCII case, in a line after its
//!   comments and refs are stripped (the redirect check runs against the
//!   whole stripped text, not a line, and stripping can fuse a marker out
//!   of fragments like `#RED<!--x-->IRECT` or `#RED<ref name=x />IRECT`).
//!   Once every line passed the comment and ref gate, the whole stripped
//!   text is the stripped lines joined, and the marker holds no newline,
//!   so a stripped marker anywhere lies inside one prepared line;
//! * the first snapshot after a fallback (no per-line records to splice
//!   against) — handled by rebuilding the record list in one pass.

use crate::ast::{EditOp, SymEdit, SymLinks};
use crate::diff::{diff_sym_links, sort_sym_edits};
use crate::parse::{
    eof_issues, parse_page_interned, strip_comments_counted, strip_refs_counted, LineMachine,
    LineState, ParseIssues,
};
use std::borrow::Cow;
use std::collections::HashMap;
use wiclean_types::{Sym, SymTable};

/// Which path [`IncrementalParser::advance`] took for a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPath {
    /// Text byte-identical to the previous snapshot: nothing parsed.
    SkippedIdentical,
    /// Only the changed line span was re-parsed; prefix and suffix records
    /// were re-used.
    Spliced,
    /// The whole text ran through the line machine (first snapshot, or the
    /// previous snapshot was not line-local), rebuilding the record list.
    Rebuilt,
    /// A line-spanning construct forced the frozen-shape full parse; the
    /// record list is dropped until a line-local snapshot rebuilds it.
    FullReparse,
}

/// The result of advancing the parser by one revision.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Link edits vs the previous snapshot, in the frozen diff order:
    /// removals then additions, each sorted by resolved strings.
    pub edits: Vec<SymEdit>,
    /// Parse issues of *this* snapshot (not cumulative), identical to what
    /// [`crate::parse::parse_page_checked`] would report.
    pub issues: ParseIssues,
    /// Which path produced this outcome.
    pub path: StepPath,
    /// Bytes actually fed through the line machine or full parser.
    pub bytes_parsed: u64,
    /// Bytes skipped by the identical-text check or prefix/suffix re-use.
    pub bytes_skipped: u64,
}

/// One line's cached parse: the machine state on entry plus what the line
/// contributed. Re-usable as long as the line text and entry state match.
#[derive(Debug, Clone)]
struct LineRec {
    state_before: LineState,
    links: Vec<(Sym, Sym)>,
    kind: Option<Sym>,
    unterminated_links: u64,
}

/// Per-line comment/ref stripping for the line machine.
///
/// Returns the line as the machine should see it, or `Err` if the line
/// opens a comment or ref it does not close — those constructs span lines
/// — or if the stripped line holds a `#REDIRECT` marker in any ASCII case,
/// which may make the whole page a redirect stub. Either way the snapshot
/// must take the whole-text path.
fn prepare_line(line: &str) -> Result<Cow<'_, str>, ()> {
    let mut prepared = Cow::Borrowed(line);
    if prepared.contains("<!--") {
        let mut probe = ParseIssues::default();
        let stripped = strip_comments_counted(&prepared, &mut probe);
        if probe.unterminated_comments > 0 {
            return Err(());
        }
        prepared = Cow::Owned(stripped);
    }
    if prepared.contains("<ref") {
        let mut probe = ParseIssues::default();
        let stripped = strip_refs_counted(&prepared, &mut probe);
        if probe.unterminated_refs > 0 {
            return Err(());
        }
        prepared = Cow::Owned(stripped);
    }
    if has_redirect_marker(&prepared) {
        return Err(());
    }
    Ok(prepared)
}

/// Whether `text` contains the `#REDIRECT` magic word in any ASCII case.
fn has_redirect_marker(text: &str) -> bool {
    const REDIRECT: &[u8] = crate::parse::REDIRECT.as_bytes();
    text.match_indices('#').any(|(i, _)| {
        text.as_bytes()
            .get(i..i + REDIRECT.len())
            .is_some_and(|w| w.eq_ignore_ascii_case(REDIRECT))
    })
}

/// Longest common prefix of two byte slices, compared in chunks so the
/// hot path is `memcmp`, not a byte-at-a-time loop.
fn common_prefix_bytes(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 128;
    let limit = a.len().min(b.len());
    let mut i = 0;
    while i + CHUNK <= limit && a[i..i + CHUNK] == b[i..i + CHUNK] {
        i += CHUNK;
    }
    while i < limit && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Longest common suffix of two byte slices, at most `max` bytes.
fn common_suffix_bytes(a: &[u8], b: &[u8], max: usize) -> usize {
    const CHUNK: usize = 128;
    let mut i = 0;
    while i + CHUNK <= max
        && a[a.len() - i - CHUNK..a.len() - i] == b[b.len() - i - CHUNK..b.len() - i]
    {
        i += CHUNK;
    }
    while i < max && a[a.len() - 1 - i] == b[b.len() - 1 - i] {
        i += 1;
    }
    i
}

/// Newline count via SWAR zero-byte detection: eight lanes per step with
/// per-lane hit counters, flushed before a lane can overflow. The scalar
/// `filter().count()` runs at ~1 byte/ns and was the dominant cost of a
/// splice; this runs at memory speed.
fn count_newlines(bytes: &[u8]) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NEEDLE: u64 = LO * b'\n' as u64;
    let mut chunks = bytes.chunks_exact(8);
    let mut total = 0usize;
    let mut acc = 0u64;
    let mut pending = 0u32;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("exact chunk")) ^ NEEDLE;
        // High bit set exactly in the lanes where the byte was '\n'. The
        // per-lane sum (low 7 bits + 0x7F) cannot carry across lanes, so —
        // unlike the `(x - LO) & !x & HI` haszero trick, whose borrow out
        // of a zero lane can falsely flag a neighboring 0x01 lane — every
        // lane is exact, not just the "any zero byte?" aggregate.
        let hit = !((x & !HI).wrapping_add(!HI) | x) & HI;
        acc += hit >> 7;
        pending += 1;
        // 8 lanes × 31 ≤ 248 keeps the horizontal sum's top byte exact.
        if pending == 31 {
            total += (acc.wrapping_mul(LO) >> 56) as usize;
            acc = 0;
            pending = 0;
        }
    }
    total += (acc.wrapping_mul(LO) >> 56) as usize;
    total + chunks.remainder().iter().filter(|&&b| b == b'\n').count()
}

/// Incremental revision-to-revision parser over one page history.
///
/// Feed snapshots in timeline order with [`advance`](Self::advance); each
/// call returns the link edits vs the previous snapshot and the snapshot's
/// parse issues. The borrowed lifetime ties the parser to the revision
/// texts it caches line slices of (the page history it walks).
#[derive(Debug)]
pub struct IncrementalParser<'a> {
    prev_text: Option<&'a str>,
    /// Per-line parse records, one per line of the previous snapshot
    /// (valid when `line_local`).
    recs: Vec<LineRec>,
    /// Whether the previous snapshot parsed line-locally (records valid).
    line_local: bool,
    /// Machine state after the last line (valid when `line_local`).
    final_state: LineState,
    /// Reference counts: how many lines contribute each link pair.
    refs: HashMap<(Sym, Sym), u32>,
    /// Sum of per-line unterminated-link counts (valid when `line_local`).
    line_issue_sum: u64,
    /// Canonical parse of the previous snapshot (always valid).
    current: SymLinks,
    /// Issues of the previous snapshot, re-reported on identical skips.
    last_issues: ParseIssues,
}

impl<'a> Default for IncrementalParser<'a> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> IncrementalParser<'a> {
    /// A parser whose "previous snapshot" is the empty page.
    pub fn new() -> Self {
        Self {
            prev_text: None,
            recs: Vec::new(),
            line_local: true,
            final_state: LineState::initial(),
            refs: HashMap::new(),
            line_issue_sum: 0,
            current: SymLinks::new(),
            last_issues: ParseIssues::default(),
        }
    }

    /// The parse of the most recent snapshot.
    pub fn current_links(&self) -> &SymLinks {
        &self.current
    }

    /// Advances to the next snapshot, returning its edits and issues.
    pub fn advance(&mut self, text: &'a str, syms: &mut SymTable) -> StepOutcome {
        if self.prev_text == Some(text) {
            return StepOutcome {
                edits: Vec::new(),
                issues: self.last_issues,
                path: StepPath::SkippedIdentical,
                bytes_parsed: 0,
                bytes_skipped: text.len() as u64,
            };
        }
        // Both line paths gate every line they feed (`prepare_line`); a
        // line that fails sends the snapshot down the whole-text path. The
        // splice feeds only changed lines: the lines it re-uses passed the
        // gate when the line-local previous snapshot was parsed.
        let step = if self.line_local && self.prev_text.is_some() {
            self.splice(text, syms)
        } else {
            self.rebuild(text, syms)
        };
        let outcome = step.unwrap_or_else(|()| self.full_reparse(text, syms));
        self.prev_text = Some(text);
        outcome
    }

    /// Whole-text parse through the frozen-shape interned parser. Drops the
    /// per-line records; the next line-local snapshot rebuilds them.
    fn full_reparse(&mut self, text: &str, syms: &mut SymTable) -> StepOutcome {
        let (page, issues) = parse_page_interned(text, syms);
        let edits = diff_sym_links(&self.current, &page, syms);
        self.recs.clear();
        self.refs.clear();
        self.line_local = false;
        self.line_issue_sum = 0;
        self.final_state = LineState::initial();
        self.current = page;
        self.last_issues = issues;
        StepOutcome {
            edits,
            issues,
            path: StepPath::FullReparse,
            bytes_parsed: text.len() as u64,
            bytes_skipped: 0,
        }
    }

    /// Full line-machine run that (re)builds the per-line record list.
    /// `Err` means a line failed the line-local gate.
    fn rebuild(&mut self, text: &'a str, syms: &mut SymTable) -> Result<StepOutcome, ()> {
        let mut machine = LineMachine::new();
        let mut recs = Vec::new();
        let mut line_issue_sum = 0u64;
        for line in text.lines() {
            let prepared = prepare_line(line)?;
            let state_before = machine.state;
            let fx = machine.feed(&prepared, syms);
            line_issue_sum += fx.unterminated_links;
            recs.push(LineRec {
                state_before,
                links: fx.links,
                kind: fx.kind,
                unterminated_links: fx.unterminated_links,
            });
        }
        let mut issues = ParseIssues {
            unterminated_links: line_issue_sum,
            ..ParseIssues::default()
        };
        eof_issues(machine.state, &mut issues);

        let mut refs: HashMap<(Sym, Sym), u32> = HashMap::new();
        let mut page = SymLinks::new();
        for rec in &recs {
            for &pair in &rec.links {
                *refs.entry(pair).or_insert(0) += 1;
            }
            if rec.kind.is_some() {
                page.infobox_kind = rec.kind;
            }
        }
        page.links = refs.keys().copied().collect();

        let edits = diff_sym_links(&self.current, &page, syms);
        let bytes_parsed = text.len() as u64;
        self.recs = recs;
        self.refs = refs;
        self.line_local = true;
        self.line_issue_sum = line_issue_sum;
        self.final_state = machine.state;
        self.current = page;
        self.last_issues = issues;
        Ok(StepOutcome {
            edits,
            issues,
            path: StepPath::Rebuilt,
            bytes_parsed,
            bytes_skipped: 0,
        })
    }

    /// The fast path: re-parse only the changed line span, re-using the
    /// common prefix outright and the common suffix once the machine state
    /// resynchronizes. `Err` means a changed line failed the gate.
    ///
    /// The prefix/suffix scan is byte-level (chunked `memcmp`), not
    /// line-level: no line vector is built for either snapshot, and the
    /// common regions are snapped to line boundaries afterwards. Only the
    /// changed middle span is ever materialized as lines — and only one
    /// line at a time, straight off the iterator.
    fn splice(&mut self, text: &'a str, syms: &mut SymTable) -> Result<StepOutcome, ()> {
        let old = self.prev_text.expect("splice requires a previous snapshot");
        let (ob, nb) = (old.as_bytes(), text.as_bytes());
        let n = self.recs.len();

        // Longest common byte prefix/suffix; the suffix is capped so the
        // two regions never overlap in either text.
        let limit = ob.len().min(nb.len());
        let pb = common_prefix_bytes(ob, nb);
        let sb = common_suffix_bytes(ob, nb, limit - pb);

        // Snap to line boundaries. A line is re-usable when it *and its
        // delimiting newline* fall inside a common region, so equal bytes
        // guarantee it is the same complete line in both snapshots.
        let p = count_newlines(&nb[..pb]);
        let line_start = nb[..pb]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |j| j + 1);
        // Total line count, derived from the changed middle alone: the
        // shared prefix/suffix byte regions contribute identical newline
        // counts to both snapshots, so `m - n` is the newline delta of the
        // two middles (plus the trailing-partial-line indicator when the
        // texts do not share their final byte). No full-text scan.
        let suffix_start = nb.len() - sb;
        let m = {
            let new_mid = count_newlines(&nb[pb..suffix_start])
                + usize::from(sb == 0 && !nb.is_empty() && nb[nb.len() - 1] != b'\n');
            let old_mid = count_newlines(&ob[pb..ob.len() - sb])
                + usize::from(sb == 0 && !ob.is_empty() && ob[ob.len() - 1] != b'\n');
            (n + new_mid) - old_mid
        };
        // Re-usable suffix lines start right after a newline *inside* the
        // common suffix (the final newline delimits no line). Rather than
        // counting newlines across the whole suffix region, locate the
        // first one and subtract the lines that end at or before it —
        // everything after is suffix. The guarded arm keeps the scan O(span)
        // when the only suffix newline is the text's final byte.
        let s = if sb == 0 {
            0
        } else {
            match nb[suffix_start..].iter().position(|&b| b == b'\n') {
                Some(j) if suffix_start + j < nb.len() - 1 => {
                    let mid_lines = count_newlines(&nb[line_start..=suffix_start + j]);
                    m - p - mid_lines
                }
                _ => 0,
            }
        };
        debug_assert!(p + s <= m && p + s <= n, "common regions overlap");
        let mid_end = m - s;

        // Resume the machine from the recorded state at the first changed
        // line and feed until it re-aligns with a recorded suffix state.
        let mut machine = LineMachine::resume(if p < n {
            self.recs[p].state_before
        } else {
            self.final_state
        });
        let mut fed: Vec<LineRec> = Vec::new();
        let mut bytes_parsed = 0u64;
        let mut idx = p;
        let mut resync: Option<usize> = None;
        let mut tail = text[line_start..].lines();
        while idx < m {
            if idx >= mid_end {
                let old_idx = n - (m - idx);
                if machine.state == self.recs[old_idx].state_before {
                    resync = Some(old_idx);
                    break;
                }
            }
            let line = tail.next().expect("line counts match the iterator");
            let prepared = prepare_line(line)?;
            let state_before = machine.state;
            let fx = machine.feed(&prepared, syms);
            bytes_parsed += line.len() as u64;
            fed.push(LineRec {
                state_before,
                links: fx.links,
                kind: fx.kind,
                unterminated_links: fx.unterminated_links,
            });
            idx += 1;
        }
        // Records replaced: old [p, old_end) -> fed (new [p, idx)).
        let old_end = resync.unwrap_or(n);
        let final_state = if resync.is_some() {
            // State re-aligned and the remaining lines are identical, so
            // the machine ends exactly where it ended before.
            self.final_state
        } else {
            machine.state
        };

        // Patch the link multiset; edits are the pairs whose reference
        // count crossed zero.
        let mut delta: HashMap<(Sym, Sym), i64> = HashMap::new();
        for rec in &self.recs[p..old_end] {
            for &pair in &rec.links {
                *delta.entry(pair).or_insert(0) -= 1;
            }
        }
        for rec in &fed {
            for &pair in &rec.links {
                *delta.entry(pair).or_insert(0) += 1;
            }
        }
        let mut removals = Vec::new();
        let mut additions = Vec::new();
        for (&pair, &d) in &delta {
            if d == 0 {
                continue;
            }
            let old_count = self.refs.get(&pair).copied().unwrap_or(0) as i64;
            let new_count = old_count + d;
            debug_assert!(new_count >= 0, "negative link refcount");
            match (old_count > 0, new_count > 0) {
                (true, false) => removals.push(SymEdit::new(EditOp::Remove, pair.0, pair.1)),
                (false, true) => additions.push(SymEdit::new(EditOp::Add, pair.0, pair.1)),
                _ => {}
            }
        }
        let edits = sort_sym_edits(removals.into_iter(), additions.into_iter(), syms);

        // Commit: records, refcounts, canonical set, issues.
        let removed_issue_sum: u64 = self.recs[p..old_end]
            .iter()
            .map(|r| r.unterminated_links)
            .sum();
        let fed_issue_sum: u64 = fed.iter().map(|r| r.unterminated_links).sum();
        self.line_issue_sum = self.line_issue_sum - removed_issue_sum + fed_issue_sum;
        let mut issues = ParseIssues {
            unterminated_links: self.line_issue_sum,
            ..ParseIssues::default()
        };
        eof_issues(final_state, &mut issues);

        // The last kind-bearing record moves only if the replaced span or
        // the replacement contains one; otherwise the O(page) rescan below
        // is skipped entirely.
        let kind_touched = fed.iter().any(|r| r.kind.is_some())
            || self.recs[p..old_end].iter().any(|r| r.kind.is_some());
        self.recs.splice(p..old_end, fed);
        let bytes_skipped = (text.len() as u64).saturating_sub(bytes_parsed);
        self.final_state = final_state;
        for (pair, d) in delta {
            if d == 0 {
                continue;
            }
            let old_count = self.refs.get(&pair).copied().unwrap_or(0) as i64;
            let new_count = (old_count + d) as u32;
            if new_count == 0 {
                self.refs.remove(&pair);
                self.current.links.remove(&pair);
            } else {
                self.refs.insert(pair, new_count);
                if old_count == 0 {
                    self.current.links.insert(pair);
                }
            }
        }
        if kind_touched {
            self.current.infobox_kind = self.recs.iter().rev().find_map(|r| r.kind);
        }
        self.last_issues = issues;
        Ok(StepOutcome {
            edits,
            issues,
            path: StepPath::Spliced,
            bytes_parsed,
            bytes_skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_links;
    use crate::parse::parse_page_checked;

    /// Frozen oracle: full string parse + diff at every step.
    fn assert_matches_frozen(history: &[&str]) -> Vec<StepPath> {
        let mut syms = SymTable::new();
        let mut incr = IncrementalParser::new();
        let mut prev = crate::ast::PageLinks::new();
        let mut paths = Vec::new();
        for (i, text) in history.iter().enumerate() {
            let (frozen_page, frozen_issues) = parse_page_checked(text);
            let frozen_edits = diff_links(&prev, &frozen_page);

            let out = incr.advance(text, &mut syms);
            let got_edits: Vec<_> = out.edits.iter().map(|e| e.resolve(&syms)).collect();
            assert_eq!(
                got_edits, frozen_edits,
                "edits diverge at rev {i}: {text:?}"
            );
            assert_eq!(
                out.issues, frozen_issues,
                "issues diverge at rev {i}: {text:?}"
            );
            assert_eq!(
                incr.current_links().resolve(&syms),
                frozen_page,
                "state diverges at rev {i}: {text:?}"
            );
            paths.push(out.path);
            prev = frozen_page;
        }
        paths
    }

    #[test]
    fn single_field_edit_splices() {
        let paths = assert_matches_frozen(&[
            "<!-- autogenerated -->\n{{Infobox club\n| in_league = [[Ligue 1]]\n| ground = [[Parc]]\n}}\n== squad ==\n* [[Neymar]]\n",
            "<!-- autogenerated -->\n{{Infobox club\n| in_league = [[Premier League]]\n| ground = [[Parc]]\n}}\n== squad ==\n* [[Neymar]]\n",
        ]);
        assert_eq!(paths, vec![StepPath::Rebuilt, StepPath::Spliced]);
    }

    #[test]
    fn identical_revision_is_skipped() {
        let text = "{{Infobox x\n| f = [[A]]\n}}\n";
        let paths = assert_matches_frozen(&[text, text, text]);
        assert_eq!(
            paths,
            vec![
                StepPath::Rebuilt,
                StepPath::SkippedIdentical,
                StepPath::SkippedIdentical
            ]
        );
    }

    #[test]
    fn duplicate_links_across_lines_refcount() {
        // [[A]] contributed by two different lines; removing one occurrence
        // must NOT emit a remove edit.
        let paths = assert_matches_frozen(&[
            "== s ==\n* [[A]]\n* [[A]] and [[B]]\n",
            "== s ==\n* [[A]]\n* [[B]]\n",
            "== s ==\n* [[B]]\n",
        ]);
        assert!(paths[1..].iter().all(|p| *p == StepPath::Spliced));
    }

    #[test]
    fn line_insertion_and_deletion_splice() {
        let paths = assert_matches_frozen(&[
            "== s ==\n* [[A]]\n* [[C]]\n",
            "== s ==\n* [[A]]\n* [[B]]\n* [[C]]\n",
            "== s ==\n* [[C]]\n",
        ]);
        assert!(paths[1..].iter().all(|p| *p == StepPath::Spliced));
    }

    #[test]
    fn structural_change_needs_resync() {
        // The edit closes a section early: suffix lines keep their text but
        // their meaning changes, so the machine must NOT resync on text
        // equality alone.
        assert_matches_frozen(&[
            "== s ==\nplain prose\n* [[A]]\n",
            "== s ==\nprose with [[Exit]] link\n* [[A]]\n",
        ]);
    }

    #[test]
    fn table_caption_change_rewrites_suffix() {
        assert_matches_frozen(&[
            "{|\n|+ old cap\n| [[X]]\n| [[Y]]\n|}\n",
            "{|\n|+ new cap\n| [[X]]\n| [[Y]]\n|}\n",
        ]);
    }

    #[test]
    fn multiline_comment_falls_back_and_recovers() {
        let paths = assert_matches_frozen(&[
            "== s ==\n* [[A]]\n",
            "== s ==\n<!-- spanning\ncomment -->\n* [[A]]\n* [[B]]\n",
            "== s ==\n* [[B]]\n",
            "== s ==\n* [[B]]\n* [[C]]\n",
        ]);
        assert_eq!(
            paths,
            vec![
                StepPath::Rebuilt,
                StepPath::FullReparse,
                StepPath::Rebuilt,
                StepPath::Spliced
            ]
        );
    }

    #[test]
    fn redirect_falls_back() {
        let paths = assert_matches_frozen(&[
            "{{Infobox x\n| f = [[A]]\n}}\n",
            "#REDIRECT [[Elsewhere]]\n",
            "{{Infobox x\n| f = [[A]]\n}}\n",
        ]);
        assert_eq!(paths[1], StepPath::FullReparse);
        assert_eq!(paths[2], StepPath::Rebuilt);
    }

    #[test]
    fn truncated_snapshot_matches_frozen_issues() {
        assert_matches_frozen(&[
            "{{Infobox x\n| f = [[A]]\n}}\n",
            "{{Infobox x\n| f = [[A]]\n| g = [[Trunc",
            "{{Infobox x\n| f = [[A]]\n}}\n",
        ]);
    }

    #[test]
    fn unterminated_ref_falls_back() {
        let paths = assert_matches_frozen(&[
            "== s ==\n* [[A]]\n",
            "== s ==\n* [[A]]<ref>chopped\n* [[Ghost]]\n",
        ]);
        assert_eq!(paths[1], StepPath::FullReparse);
    }

    #[test]
    fn infobox_kind_tracks_last_open() {
        assert_matches_frozen(&[
            "{{Infobox a\n}}\ntext\n{{Infobox b\n}}\n",
            "{{Infobox a\n}}\ntext\n{{Infobox c\n}}\n",
            "{{Infobox a\n}}\ntext\n",
        ]);
    }

    #[test]
    fn empty_and_growing_pages() {
        assert_matches_frozen(&["", "== s ==\n* [[A]]\n", "", "== s ==\n* [[B]]\n"]);
    }

    #[test]
    fn bytes_accounting_favors_small_edits() {
        let mut syms = SymTable::new();
        let mut incr = IncrementalParser::new();
        let base = "{{Infobox club\n| a = [[A]]\n| b = [[B]]\n| c = [[C]]\n| d = [[D]]\n}}\n";
        incr.advance(base, &mut syms);
        let edited = "{{Infobox club\n| a = [[A]]\n| b = [[B2]]\n| c = [[C]]\n| d = [[D]]\n}}\n";
        let out = incr.advance(edited, &mut syms);
        assert_eq!(out.path, StepPath::Spliced);
        assert!(
            out.bytes_parsed < out.bytes_skipped,
            "one-line edit should skip most bytes: parsed={} skipped={}",
            out.bytes_parsed,
            out.bytes_skipped
        );
    }

    #[test]
    fn line_local_comments_still_splice() {
        // Every synthetic page opens with a one-line comment; the gate must
        // not force full reparses for those.
        let paths = assert_matches_frozen(&[
            "<!-- autogenerated snapshot of X -->\n== s ==\n* [[A]]\n",
            "<!-- autogenerated snapshot of X -->\n== s ==\n* [[B]]\n",
        ]);
        assert_eq!(paths, vec![StepPath::Rebuilt, StepPath::Spliced]);
    }
}
