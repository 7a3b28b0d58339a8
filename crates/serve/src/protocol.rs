//! Wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response line back. [`parse_request`] reads
//! a request in one pass over the line's bytes: it validates the whole
//! line as JSON, keeps only the members a request reads (`op`, `entity`,
//! `sig.edit`, `sig.rel`, `spec`) and borrows their strings from the line
//! unless they hold escapes. It builds no value tree and skips unknown
//! members without recursion, so the server survives any bytes a client
//! sends: nesting deeper than [`MAX_DEPTH`] containers is a `bad json`
//! error, not a stack overflow. Responses are derive-serialized structs,
//! except on the hot path: [`write_suggest_response`] renders a `suggest`
//! answer straight from the index into the connection's output buffer,
//! byte for byte what serializing the matching [`SuggestResponse`] gives.
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

use crate::index::{IndexStats, StoredSuggestion};
use crate::stats::StatsSnapshot;
use serde::Serialize;
use std::borrow::Cow;
use std::io::Write;
use wiclean_wikitext::EditOp;

/// The edit signature as it appears on the wire (names, not ids — clients
/// don't know the universe's id space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSig<'a> {
    /// `"add"`/`"+"` or `"remove"`/`"-"`.
    pub op: EditOp,
    /// Relation name, resolved against the universe by the server.
    pub rel: Cow<'a, str>,
}

/// A parsed client request. Names borrow from the request line unless
/// they hold escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    /// Suggest completions for the named entity's in-flight edit.
    Suggest {
        /// Entity name (catalog name).
        entity: Cow<'a, str>,
        /// Optional in-flight edit signature to narrow candidates.
        sig: Option<WireSig<'a>>,
    },
    /// Report serving counters and index stats.
    Stats,
    /// Rebuild the pattern index and hot-swap it in.
    Reload {
        /// Loader-defined argument (e.g. a pattern-set spec).
        spec: Option<Cow<'a, str>>,
    },
    /// Liveness probe.
    Ping,
    /// Stop the server.
    Shutdown,
    /// Deliberately panic inside the handler (panic-proofing tests only).
    Panic,
}

/// Containers a request line may nest, the line's own object included:
/// upstream `serde_json`'s default recursion limit.
pub const MAX_DEPTH: usize = 128;

/// Parses one request line. Errors are strings the server echoes back in
/// an error response — they must never contain client-controlled newlines.
///
/// The whole line is validated as JSON before any member is interpreted,
/// so a malformed line is `bad json` wherever its fault lies. Unknown
/// members are ignored; when a key repeats, its first value counts.
pub fn parse_request(line: &str) -> Result<Request<'_>, String> {
    let members = Scanner::new(line)
        .request()
        .map_err(|e| format!("bad json: {e}"))?;
    let Some(Val::Str(op)) = members.op else {
        return Err("missing op".to_string());
    };
    match &*op {
        "suggest" => {
            let Some(Val::Str(entity)) = members.entity else {
                return Err("suggest: missing entity".to_string());
            };
            let sig = match members.sig {
                None | Some(Sig::Null) => None,
                Some(Sig::Object { edit, rel }) => {
                    let Some(Val::Str(edit)) = edit else {
                        return Err("sig: missing edit".to_string());
                    };
                    let op = match &*edit {
                        "add" | "+" => EditOp::Add,
                        "remove" | "-" => EditOp::Remove,
                        other => return Err(format!("sig: unknown edit {other:?}")),
                    };
                    let Some(Val::Str(rel)) = rel else {
                        return Err("sig: missing rel".to_string());
                    };
                    Some(WireSig { op, rel })
                }
            };
            Ok(Request::Suggest { entity, sig })
        }
        "stats" => Ok(Request::Stats),
        "reload" => Ok(Request::Reload {
            spec: match members.spec {
                Some(Val::Str(spec)) => Some(spec),
                _ => None,
            },
        }),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        "panic" => Ok(Request::Panic),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// What the scanner keeps of a member's value.
enum Val<'a> {
    /// A string, borrowed from the line unless it holds escapes.
    Str(Cow<'a, str>),
    /// Any other value, validated and skipped.
    Other,
}

/// What the scanner keeps of the first `sig` member.
enum Sig<'a> {
    /// `null`: no signature.
    Null,
    /// An object's first `edit` and `rel` values; any other value has
    /// neither.
    Object {
        edit: Option<Val<'a>>,
        rel: Option<Val<'a>>,
    },
}

/// The first value of each member a request reads; `None` when absent or
/// when the line is not an object.
#[derive(Default)]
struct Members<'a> {
    op: Option<Val<'a>>,
    entity: Option<Val<'a>>,
    spec: Option<Val<'a>>,
    sig: Option<Sig<'a>>,
}

/// One pass over a request line's bytes: validates the whole line as JSON
/// and keeps only the members a request reads. Unknown values are skipped
/// without recursion, so nesting costs no stack; more than [`MAX_DEPTH`]
/// open containers is an error.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    /// The whole line: an object's members, or any other value (which
    /// leaves every member absent).
    fn request(&mut self) -> Result<Members<'a>, String> {
        let mut m = Members::default();
        self.ws();
        if self.eat(b'{') {
            self.members(|s, key| {
                let slot = match key {
                    "op" => &mut m.op,
                    "entity" => &mut m.entity,
                    "spec" => &mut m.spec,
                    "sig" if m.sig.is_none() => {
                        m.sig = Some(s.sig()?);
                        return Ok(());
                    }
                    _ => return s.skip(1),
                };
                s.keep(slot, 1)
            })?;
        } else {
            self.skip(0)?;
        }
        self.ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters"));
        }
        Ok(m)
    }

    /// The value of a top-level `sig` member.
    fn sig(&mut self) -> Result<Sig<'a>, String> {
        if self.eat(b'{') {
            let (mut edit, mut rel) = (None, None);
            self.members(|s, key| match key {
                "edit" => s.keep(&mut edit, 2),
                "rel" => s.keep(&mut rel, 2),
                _ => s.skip(2),
            })?;
            Ok(Sig::Object { edit, rel })
        } else if self.peek() == Some(b'n') {
            self.literal("null").map(|()| Sig::Null)
        } else {
            self.skip(1).map(|()| Sig::Object {
                edit: None,
                rel: None,
            })
        }
    }

    /// Scans the members of an object whose `{` was just consumed.
    /// `member` is called at each value with its key and must consume the
    /// value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            member(self, &key)?;
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    /// Stores a member's value in `slot` unless an earlier occurrence of
    /// the key already did; the value is consumed either way.
    fn keep(&mut self, slot: &mut Option<Val<'a>>, depth: usize) -> Result<(), String> {
        let val = if self.peek() == Some(b'"') {
            Val::Str(self.string()?)
        } else {
            self.skip(depth)?;
            Val::Other
        };
        slot.get_or_insert(val);
        Ok(())
    }

    /// A string literal, borrowed from the line when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break,
                Some(0x20..) => self.pos += 1,
                _ => return Err(self.error("unterminated string")),
            }
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{0008}',
                        Some(b'f') => '\u{000C}',
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just consumed; a
    /// leading surrogate must be followed by an escaped trailing one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("invalid surrogate pair"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut v = 0;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            v = v << 4 | nibble;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Validates and skips one value, `depth` containers deep, with an
    /// explicit stack instead of recursion.
    fn skip(&mut self, depth: usize) -> Result<(), String> {
        // Bit `i` is set when the `i`-th container opened here is an
        // object; `open + depth` never exceeds MAX_DEPTH = 128 bits.
        let mut objects: u128 = 0;
        let mut open = 0;
        loop {
            // At the start of a value.
            self.ws();
            match self.peek() {
                Some(c @ (b'[' | b'{')) => {
                    if depth + open == MAX_DEPTH {
                        return Err(self.error("recursion limit exceeded"));
                    }
                    self.pos += 1;
                    let object = c == b'{';
                    objects = objects & !(1 << open) | u128::from(object) << open;
                    open += 1;
                    self.ws();
                    if !self.eat(if object { b'}' } else { b']' }) {
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                    open -= 1;
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'n') => self.literal("null")?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'-' | b'0'..=b'9') => self.number()?,
                _ => return Err(self.error("unexpected character")),
            }
            // After a value: close containers until one takes another.
            loop {
                if open == 0 {
                    return Ok(());
                }
                let object = objects >> (open - 1) & 1 == 1;
                self.ws();
                match (self.peek(), object) {
                    (Some(b','), _) => {
                        self.pos += 1;
                        if object {
                            self.ws();
                            self.key()?;
                        }
                        break;
                    }
                    (Some(b'}'), true) | (Some(b']'), false) => {
                        self.pos += 1;
                        open -= 1;
                    }
                    (_, true) => return Err(self.error("expected `,` or `}`")),
                    (_, false) => return Err(self.error("expected `,` or `]`")),
                }
            }
        }
    }

    /// A member's key and its colon.
    fn key(&mut self) -> Result<(), String> {
        self.string()?;
        self.ws();
        self.expect(b':')
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    /// A number, accepted exactly when `serde_json::from_str` accepts it:
    /// the same run of number bytes, checked by the same conversions.
    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        let mut float = false;
        self.eat(b'-');
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' => float = true,
                b'+' | b'-' if float => {}
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let valid = if float {
            text.parse::<f64>().is_ok()
        } else {
            text.bytes().any(|b| b.is_ascii_digit())
        };
        if valid {
            Ok(())
        } else {
            Err(self.error("invalid number"))
        }
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

/// Response to `suggest`. The server renders it with
/// [`write_suggest_response`], which writes the same bytes.
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

/// Appends the `suggest` response for `suggestions` to `out`, without its
/// line break: the bytes `serde_json::to_string` gives for the
/// [`SuggestResponse`] of the same epoch, suggestions and latency, but
/// rendered from the index's own strings, with no owned copies and no
/// serializer tree in between.
pub fn write_suggest_response(
    out: &mut Vec<u8>,
    epoch: u64,
    suggestions: &[&StoredSuggestion],
    latency_ns: u64,
) {
    // Writes into a `Vec` cannot fail.
    let _ = write!(out, "{{\"ok\":true,\"epoch\":{epoch},\"suggestions\":[");
    for (i, s) in suggestions.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"text\":");
        write_json_str(out, &s.text);
        out.extend_from_slice(b",\"pattern\":");
        write_json_str(out, &s.pattern_text);
        out.extend_from_slice(b",\"confidence\":");
        if s.confidence.is_finite() {
            let _ = write!(out, "{}", s.confidence);
        } else {
            // The serializer's stand-in for a non-finite float.
            out.extend_from_slice(b"null");
        }
        out.push(b'}');
    }
    let _ = write!(out, "],\"latency_ns\":{latency_ns}}}");
}

/// Appends `s` as a JSON string literal with the serializer's escapes:
/// `\"`, `\\`, `\n`, `\r`, `\t`, `\u00xx` for the other control
/// characters, and every other character (non-ASCII included) as is.
/// Runs that need no escape are copied whole.
fn write_json_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut unicode = *b"\\u0000";
    let mut run = 0;
    out.push(b'"');
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode[4] = HEX[usize::from(b >> 4)];
                unicode[5] = HEX[usize::from(b & 0xf)];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_REQUEST_BYTES;
    use proptest::prelude::{any, TestCaseError, TestRng};
    use serde_json::Value;

    /// The reference parser: the whole line as a `serde_json::Value`
    /// tree, then the members read out of it.
    fn parse_request_tree(line: &str) -> Result<Request<'static>, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
        let text = |v: &Value| v.as_str().map(|s| Cow::Owned(s.to_string()));
        let op = v
            .get("op")
            .and_then(|o| o.as_str())
            .ok_or_else(|| "missing op".to_string())?;
        match op {
            "suggest" => {
                let entity = v
                    .get("entity")
                    .and_then(text)
                    .ok_or_else(|| "suggest: missing entity".to_string())?;
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
                            .and_then(text)
                            .ok_or_else(|| "sig: missing rel".to_string())?;
                        Some(WireSig { op, rel })
                    }
                };
                Ok(Request::Suggest { entity, sig })
            }
            "stats" => Ok(Request::Stats),
            "reload" => Ok(Request::Reload {
                spec: v.get("spec").and_then(text),
            }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "panic" => Ok(Request::Panic),
            other => Err(format!("unknown op {other:?}")),
        }
    }

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
    fn names_borrow_from_the_line_unless_escaped() {
        let Ok(Request::Suggest { entity, sig }) = parse_request(
            r#"{"op":"suggest","entity":"Wayne Rooney","sig":{"edit":"add","rel":"plays_for"}}"#,
        ) else {
            panic!("suggest parses");
        };
        assert!(matches!(entity, Cow::Borrowed("Wayne Rooney")));
        assert!(matches!(sig.unwrap().rel, Cow::Borrowed("plays_for")));
        let Ok(Request::Suggest { entity, .. }) =
            parse_request(r#"{"op":"suggest","entity":"\u0057ayne \"R\" \ud83d\ude00"}"#)
        else {
            panic!("escaped suggest parses");
        };
        assert!(matches!(entity, Cow::Owned(ref e) if e == "Wayne \"R\" \u{1F600}"));
    }

    #[test]
    fn first_occurrence_wins_and_unknown_members_are_ignored() {
        assert_eq!(
            parse_request(
                r#"{"x":{"op":[{}]},"entity":"A","op":"suggest","entity":"B","op":"ping"}"#
            )
            .unwrap(),
            Request::Suggest {
                entity: "A".into(),
                sig: None
            }
        );
        // A wrong-typed first value is not replaced by a later good one.
        assert_eq!(
            parse_request(r#"{"op":1,"op":"ping"}"#).unwrap_err(),
            "missing op"
        );
        assert_eq!(
            parse_request(r#"{"op":"suggest","entity":"E","sig":null,"sig":{"edit":"x"}}"#)
                .unwrap(),
            Request::Suggest {
                entity: "E".into(),
                sig: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"suggest","entity":"E","sig":"add"}"#).unwrap_err(),
            "sig: missing edit"
        );
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        assert!(parse_request("not json").unwrap_err().contains("bad json"));
        assert!(parse_request(r#"{"entity":"x"}"#)
            .unwrap_err()
            .contains("missing op"));
        assert!(parse_request(r#"["op","ping"]"#)
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
        // Validity is checked over the whole line before any member counts.
        assert!(parse_request(r#"{"op":"ping","x":[1,}"#)
            .unwrap_err()
            .starts_with("bad json"));
        assert!(parse_request(r#"{"op":"ping","x":"\ud800"}"#)
            .unwrap_err()
            .starts_with("bad json"));
    }

    /// `depth` containers in all: the request object and `depth - 1`
    /// arrays in an unknown member.
    fn nested_request(depth: usize) -> String {
        format!(
            r#"{{"op":"ping","x":{}{}}}"#,
            "[".repeat(depth - 1),
            "]".repeat(depth - 1)
        )
    }

    #[test]
    fn nesting_is_bounded_like_the_tree_parser() {
        for line in [nested_request(MAX_DEPTH), nested_request(MAX_DEPTH + 1)] {
            assert_eq!(
                parse_request(&line).map_err(|e| e.starts_with("bad json")),
                parse_request_tree(&line).map_err(|e| e.starts_with("bad json")),
            );
        }
        assert_eq!(parse_request(&nested_request(MAX_DEPTH)), Ok(Request::Ping));
        assert!(parse_request(&nested_request(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("recursion limit exceeded"));
    }

    /// A request line as long as the server accepts, nested all the way,
    /// on a thread with the default stack: a `bad json` error, not a
    /// stack overflow that aborts the process.
    #[test]
    fn maximal_nesting_is_bad_json_on_a_default_stack() {
        let lines = [
            "[".repeat(MAX_REQUEST_BYTES),
            r#"{"a":"#.repeat(MAX_REQUEST_BYTES / 5),
        ];
        std::thread::spawn(move || {
            for line in &lines {
                let e = parse_request(line).unwrap_err();
                assert!(e.starts_with("bad json: recursion limit exceeded"), "{e}");
            }
        })
        .join()
        .unwrap();
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

    /// Random request lines for the differential property: JSON written
    /// token by token from the test RNG, with whitespace anywhere, escapes
    /// in any string, keys in any order and repeated, and wrong types.
    struct LineGen {
        rng: TestRng,
        out: String,
    }

    const KEYS: [&str; 10] = [
        "op", "entity", "sig", "spec", "edit", "rel", "x", "opx", "Op", "",
    ];
    const OPS: [&str; 9] = [
        "suggest", "suggest", "stats", "reload", "ping", "shutdown", "panic", "frob", "Suggest",
    ];
    const EDITS: [&str; 6] = ["add", "+", "remove", "-", "x", "Add"];
    const NAMES: [&str; 7] = [
        "Wayne Rooney",
        "Zoë Ödegaard",
        "😀 Club",
        "a\"b\\c/d",
        "tab\there\u{1}",
        "line\nbreak: op",
        "",
    ];
    const NUMBERS: [&str; 8] = [
        "0",
        "-1",
        "12.5",
        "1e3",
        "-0.25E-2",
        "18446744073709551616",
        "007",
        "1.",
    ];
    /// Broken escapes, rarely written into a string.
    const BAD_ESCAPES: [&str; 5] = [r"\ud800", r"\udc00", r"\ud83dA", r"\x", r"\u12g4"];

    impl LineGen {
        fn new(seed: u64) -> Self {
            Self {
                rng: TestRng::for_case(seed, 0),
                out: String::new(),
            }
        }

        fn below(&mut self, n: usize) -> usize {
            self.rng.below(n as u64) as usize
        }

        fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
            items[self.below(items.len())]
        }

        fn ws(&mut self) {
            if self.below(4) == 0 {
                for _ in 0..=self.below(3) {
                    let c = self.pick(&[" ", "\t", "\n", "\r"]);
                    self.out.push_str(c);
                }
            }
        }

        /// `s` as a string literal, each character raw or escaped at
        /// random (`\u` escapes as UTF-16 units, surrogate pairs included);
        /// now and then a control character raw or a broken escape.
        fn string(&mut self, s: &str) {
            self.out.push('"');
            for c in s.chars() {
                let short = match c {
                    '"' => Some("\\\""),
                    '\\' => Some("\\\\"),
                    '/' => Some("\\/"),
                    '\n' => Some("\\n"),
                    '\r' => Some("\\r"),
                    '\t' => Some("\\t"),
                    _ => None,
                };
                match (self.below(8), short) {
                    (0, _) => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            let hex = if self.below(2) == 0 {
                                format!("\\u{unit:04x}")
                            } else {
                                format!("\\u{unit:04X}")
                            };
                            self.out.push_str(&hex);
                        }
                    }
                    // A raw control character: invalid JSON.
                    (1, _) if (c as u32) < 0x20 => self.out.push(c),
                    (_, Some(esc)) => self.out.push_str(esc),
                    _ if (c as u32) < 0x20 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                    _ => self.out.push(c),
                }
            }
            if self.below(64) == 0 {
                let bad = self.pick(&BAD_ESCAPES);
                self.out.push_str(bad);
            }
            self.out.push('"');
        }

        /// Any value; containers nest at most `depth` more levels.
        fn value(&mut self, depth: usize) {
            match self.below(if depth == 0 { 5 } else { 7 }) {
                0 => self.out.push_str("null"),
                1 => {
                    let b = self.pick(&["true", "false"]);
                    self.out.push_str(b);
                }
                2 => {
                    let n = self.pick(&NUMBERS);
                    self.out.push_str(n);
                }
                3 => {
                    let n = self.pick(&NAMES);
                    self.string(n);
                }
                4 => {
                    let n = self.pick(&OPS);
                    self.string(n);
                }
                5 => {
                    self.out.push('[');
                    for i in 0..self.below(4) {
                        if i > 0 {
                            self.out.push(',');
                        }
                        self.ws();
                        self.value(depth - 1);
                        self.ws();
                    }
                    self.out.push(']');
                }
                _ => self.object(&[], depth - 1),
            }
        }

        /// An object holding, each most of the time, the keys in `usual`,
        /// plus up to three keys drawn from [`KEYS`] (so known keys repeat
        /// and appear at either level), in random order. Each value is
        /// what that key's reader expects four times in five.
        fn object(&mut self, usual: &[&'static str], depth: usize) {
            let mut keys: Vec<&str> = usual
                .iter()
                .copied()
                .filter(|_| self.below(5) != 0)
                .collect();
            for _ in 0..self.below(4) {
                let key = self.pick(&KEYS);
                let at = self.below(keys.len() + 1);
                keys.insert(at, key);
            }
            self.out.push('{');
            self.ws();
            for (i, key) in keys.into_iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                    self.ws();
                }
                self.string(key);
                self.ws();
                self.out.push(':');
                self.ws();
                match (key, self.below(5)) {
                    (_, 0) => self.value(depth),
                    ("op", _) => {
                        let op = self.pick(&OPS);
                        self.string(op);
                    }
                    ("edit", _) => {
                        let edit = self.pick(&EDITS);
                        self.string(edit);
                    }
                    ("sig", 1) => self.out.push_str("null"),
                    ("sig", _) if depth > 0 => self.object(&["edit", "rel"], depth - 1),
                    _ => {
                        let name = self.pick(&NAMES);
                        self.string(name);
                    }
                }
                self.ws();
            }
            self.out.push('}');
        }

        /// A request line: mostly an object, sometimes any other value.
        fn line(mut self) -> String {
            self.ws();
            if self.below(10) == 0 {
                self.value(3);
            } else {
                self.object(&["op", "entity", "sig", "spec"], 3);
            }
            self.ws();
            self.out
        }
    }

    /// The scanner and the tree parser agree on `line`: equal requests, or
    /// errors of one class (the message up to its first `:`), with equal
    /// messages outside `bad json`.
    fn check_against_tree(line: &str) -> Result<(), TestCaseError> {
        match (parse_request(line), parse_request_tree(line)) {
            (Ok(scanned), Ok(tree)) => proptest::prop_assert_eq!(scanned, tree, "{:?}", line),
            (Err(scanned), Err(tree)) => {
                let class = |e: &str| e.split(':').next().unwrap_or_default().to_string();
                proptest::prop_assert_eq!(class(&scanned), class(&tree), "{:?}", line);
                if !tree.starts_with("bad json") {
                    proptest::prop_assert_eq!(scanned, tree, "{:?}", line);
                }
            }
            (scanned, tree) => {
                return Err(TestCaseError::fail(format!(
                    "{line:?}: scanner {scanned:?}, tree {tree:?}"
                )))
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Generated request lines and every prefix of each parse the same
        /// with the scanner as with the tree parser.
        #[test]
        fn scanner_matches_tree_parser(seed in any::<u64>()) {
            let line = LineGen::new(seed).line();
            for (end, _) in line.char_indices() {
                check_against_tree(&line[..end])?;
            }
            check_against_tree(&line)?;
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
