//! Out-of-core corpus run at full scale: 1M players (8M revisions, about
//! 8.7 GB of text) streamed into delta-encoded segment logs, mined from
//! disk under 2 GiB peak RSS, and checked against the in-memory store.
//!
//! Usage: `corpus_scale` (no arguments). Writes `BENCH_corpus.json` at the
//! repository root; segment files go under the system temp directory
//! (about 2.3 GB) and are removed at the end. The in-memory baseline holds
//! the whole corpus, so the host needs room for it. Panics, exiting
//! nonzero, if any invariant of [`wiclean_eval::corpus_scale`] fails.

fn main() {
    let dir = std::env::temp_dir().join("wiclean-corpus-scale");
    let report = wiclean_eval::corpus_scale::corpus_scale(false, &dir);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_corpus.json");
    std::fs::write(path, json + "\n").expect("write BENCH_corpus.json");
    println!("wrote {path}");
}
