//! Wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response line back. Requests are parsed
//! defensively from [`serde_json::Value`] — the server must survive any
//! bytes a client sends — while responses are derive-serialized structs.
//! Every response carries `ok` and the `epoch` of the index generation
//! that answered it, which is what the hot-swap differential test keys on.
//!
//! Request shapes:
//!
//! ```json
//! {"op":"suggest","entity":"Wayne Rooney"}
//! {"op":"suggest","entity":"Wayne Rooney","sig":{"edit":"add","rel":"plays_for"}}
//! {"op":"stats"}
//! {"op":"reload"}            // re-run the configured loader
//! {"op":"reload","spec":"…"} // loader-defined argument
//! {"op":"ping"}
//! {"op":"shutdown"}
//! {"op":"panic"}             // debug builds of the harness only
//! ```

use crate::index::IndexStats;
use crate::stats::StatsSnapshot;
use serde::Serialize;
use serde_json::Value;
use wiclean_wikitext::EditOp;

/// The edit signature as it appears on the wire (names, not ids — clients
/// don't know the universe's id space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSig {
    /// `"add"`/`"+"` or `"remove"`/`"-"`.
    pub op: EditOp,
    /// Relation name, resolved against the universe by the server.
    pub rel: String,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Suggest completions for the named entity's in-flight edit.
    Suggest {
        /// Entity name (catalog name).
        entity: String,
        /// Optional in-flight edit signature to narrow candidates.
        sig: Option<WireSig>,
    },
    /// Report serving counters and index stats.
    Stats,
    /// Rebuild the pattern index and hot-swap it in.
    Reload {
        /// Loader-defined argument (e.g. a pattern-set spec).
        spec: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Stop the server.
    Shutdown,
    /// Deliberately panic inside the handler (panic-proofing tests only).
    Panic,
}

/// Parses one request line. Errors are strings the server echoes back in
/// an error response — they must never contain client-controlled newlines.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
    let op = v
        .get("op")
        .and_then(|o| o.as_str())
        .ok_or_else(|| "missing op".to_string())?;
    match op {
        "suggest" => {
            let entity = v
                .get("entity")
                .and_then(|e| e.as_str())
                .ok_or_else(|| "suggest: missing entity".to_string())?
                .to_string();
            let sig = match v.get("sig") {
                None | Some(Value::Null) => None,
                Some(sig) => {
                    let edit = sig
                        .get("edit")
                        .and_then(|e| e.as_str())
                        .ok_or_else(|| "sig: missing edit".to_string())?;
                    let op = match edit {
                        "add" | "+" => EditOp::Add,
                        "remove" | "-" => EditOp::Remove,
                        other => return Err(format!("sig: unknown edit {other:?}")),
                    };
                    let rel = sig
                        .get("rel")
                        .and_then(|r| r.as_str())
                        .ok_or_else(|| "sig: missing rel".to_string())?
                        .to_string();
                    Some(WireSig { op, rel })
                }
            };
            Ok(Request::Suggest { entity, sig })
        }
        "stats" => Ok(Request::Stats),
        "reload" => Ok(Request::Reload {
            spec: v
                .get("spec")
                .and_then(|s| s.as_str())
                .map(|s| s.to_string()),
        }),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "panic" => Ok(Request::Panic),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// One suggestion on the wire.
#[derive(Debug, Clone, Serialize)]
pub struct SuggestionOut {
    /// The rendered suggestion text (identical to the batch
    /// `Suggestion::display` output).
    pub text: String,
    /// The owning pattern's display form.
    pub pattern: String,
    /// The owning pattern's confidence.
    pub confidence: f64,
}

/// Response to `suggest`.
#[derive(Debug, Clone, Serialize)]
pub struct SuggestResponse {
    /// Always `true` on this type.
    pub ok: bool,
    /// Index generation that answered.
    pub epoch: u64,
    /// Suggestions, most confident first.
    pub suggestions: Vec<SuggestionOut>,
    /// Server-side suggestion-path latency for this request, nanoseconds.
    pub latency_ns: u64,
}

/// Response to `stats`.
#[derive(Debug, Clone, Serialize)]
pub struct StatsResponse {
    /// Always `true` on this type.
    pub ok: bool,
    /// Index generation currently serving.
    pub epoch: u64,
    /// Serving counters and latency percentiles.
    pub serve: StatsSnapshot,
    /// Build-time stats of the current index.
    pub index: IndexStats,
}

/// Response to a successful `reload`.
#[derive(Debug, Clone, Serialize)]
pub struct ReloadResponse {
    /// Always `true` on this type.
    pub ok: bool,
    /// The new index generation.
    pub epoch: u64,
    /// Patterns in the new index.
    pub patterns: usize,
    /// Precomputed suggestions in the new index.
    pub suggestions: usize,
}

/// Response to `ping` / `shutdown`.
#[derive(Debug, Clone, Serialize)]
pub struct AckResponse {
    /// Always `true` on this type.
    pub ok: bool,
    /// Index generation currently serving.
    pub epoch: u64,
    /// What is being acknowledged (`"pong"` / `"shutting down"`).
    pub ack: String,
}

/// Any failure: parse errors, handler errors, caught panics, rejected
/// reloads. The server stays up; the previous index stays live.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorResponse {
    /// Always `false` on this type.
    pub ok: bool,
    /// Index generation currently serving.
    pub epoch: u64,
    /// Human-readable cause (single line).
    pub error: String,
}

/// Serializes an error response line (newlines in `error` are flattened so
/// the framing survives hostile input).
pub fn error_line(epoch: u64, error: &str) -> String {
    let flat: String = error
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    serde_json::to_string(&ErrorResponse {
        ok: false,
        epoch,
        error: flat,
    })
    .expect("error response serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_suggest_with_and_without_sig() {
        assert_eq!(
            parse_request(r#"{"op":"suggest","entity":"Wayne Rooney"}"#).unwrap(),
            Request::Suggest {
                entity: "Wayne Rooney".into(),
                sig: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"suggest","entity":"E","sig":{"edit":"+","rel":"plays_for"}}"#)
                .unwrap(),
            Request::Suggest {
                entity: "E".into(),
                sig: Some(WireSig {
                    op: EditOp::Add,
                    rel: "plays_for".into()
                })
            }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        assert!(parse_request("not json").unwrap_err().contains("bad json"));
        assert!(parse_request(r#"{"entity":"x"}"#)
            .unwrap_err()
            .contains("missing op"));
        assert!(parse_request(r#"{"op":"suggest"}"#)
            .unwrap_err()
            .contains("missing entity"));
        assert!(parse_request(r#"{"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(
            parse_request(r#"{"op":"suggest","entity":"E","sig":{"edit":"x","rel":"r"}}"#)
                .unwrap_err()
                .contains("unknown edit")
        );
    }

    /// Valid requests of every op, for the mutation half of the hostile
    /// bytes property.
    const VALID: [&str; 6] = [
        r#"{"op":"suggest","entity":"Wayne Rooney"}"#,
        r#"{"op":"suggest","entity":"E","sig":{"edit":"+","rel":"plays_for"}}"#,
        r#"{"op":"suggest","entity":"E","sig":{"edit":"remove","rel":"r"}}"#,
        r#"{"op":"reload","spec":"soccer"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"ping"}"#,
    ];

    /// The parser never panics and no error carries a line break.
    fn check_hostile(bytes: &[u8]) -> Result<(), proptest::test_runner::TestCaseError> {
        let line = String::from_utf8_lossy(bytes);
        if let Err(e) = parse_request(&line) {
            proptest::prop_assert!(!e.contains(['\n', '\r']), "{:?} -> {:?}", line, e);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Lines of 0–512 arbitrary bytes, decoded lossily.
        #[test]
        fn arbitrary_bytes_never_panic_or_break_lines(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..513),
        ) {
            check_hostile(&bytes)?;
        }

        /// Valid requests with bytes overwritten, inserted and deleted.
        #[test]
        fn mutated_requests_never_panic_or_break_lines(
            which in 0usize..VALID.len(),
            edits in proptest::collection::vec(
                (0u8..3, proptest::prelude::any::<usize>(), proptest::prelude::any::<u8>()),
                1..6,
            ),
        ) {
            let mut bytes = VALID[which].as_bytes().to_vec();
            for (kind, at, byte) in edits {
                let at = at % (bytes.len() + 1);
                match kind {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            check_hostile(&bytes)?;
        }
    }

    #[test]
    fn error_line_flattens_newlines() {
        let line = error_line(3, "boom\nline2\r");
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(false));
        assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(3));
        assert_eq!(v.get("error").and_then(|e| e.as_str()), Some("boom line2 "));
    }
}
