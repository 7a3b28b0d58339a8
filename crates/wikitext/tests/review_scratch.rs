use wiclean_types::SymTable;
use wiclean_wikitext::diff::diff_links;
use wiclean_wikitext::{parse_page_checked, IncrementalParser, PageLinks};

fn check(history: &[&str]) {
    let mut syms = SymTable::new();
    let mut incr = IncrementalParser::new();
    let mut prev = PageLinks::new();
    for (i, text) in history.iter().enumerate() {
        let (frozen_page, frozen_issues) = parse_page_checked(text);
        let frozen_edits = diff_links(&prev, &frozen_page);
        let out = incr.advance(text, &mut syms);
        let got: Vec<_> = out.edits.iter().map(|e| e.resolve(&syms)).collect();
        assert_eq!(got, frozen_edits, "edits diverge at rev {i}");
        assert_eq!(out.issues, frozen_issues, "issues diverge at rev {i}");
        prev = frozen_page;
    }
}

#[test]
fn swar_newline_vt_adjacency() {
    // '\n' immediately followed by 0x0B inside an 8-byte chunk
    let r1 = "aaaaaa\n\u{b}bbbbbb\ncccccc\n== s ==\n* [[A]]\n";
    let r2 = "aaaaaa\n\u{b}bbbbbb\ncccccc\n== s ==\n* [[B]]\n";
    check(&[r1, r2]);
}

#[test]
fn redirect_synthesized_by_comment_stripping() {
    check(&[
        "== s ==\n* [[A]]\n",
        "#RED<!--x-->IRECT [[T]]\n{{Infobox a\n| f = [[B]]\n}}\n",
    ]);
}

#[test]
fn redirect_magic_word_is_case_insensitive() {
    // MediaWiki matches `#REDIRECT` in any ASCII case, comments stripped
    // first; the incremental gate must see every spelling the frozen
    // parser does.
    let body = "{{Infobox a\n| f = [[B]]\n}}\n== s ==\n* [[A]]\n";
    for marker in ["#redirect", "#Redirect", "#red<!--x-->irect", "#REDirect"] {
        let stub = format!("{marker} [[T]]\n{body}");
        let page = wiclean_wikitext::parse_page(&stub);
        assert_eq!(page.redirect.as_deref(), Some("T"), "{marker}");
        check(&[body, &stub, body]);
        check(&["== s ==\n* [[A]]\n", &stub]);
    }
}
