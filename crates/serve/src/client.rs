//! A minimal blocking client for the suggestion server.
//!
//! One TCP connection, one JSON line per request, one line back. Used by
//! the `wiclean suggest` one-shot mode, the load-generator bench, and the
//! differential tests; real editor plug-ins would speak the same protocol.

use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client. Requests are answered in order on the connection.
pub struct SuggestClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl SuggestClient {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // Don't hang forever on a wedged server.
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one raw request line and returns the raw response line.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<String> {
        // One write per request: on a `TCP_NODELAY` socket a separate
        // newline write would go out as a segment of its own.
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.writer.write_all(&request)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends one request line and parses the response as JSON.
    pub fn send(&mut self, line: &str) -> std::io::Result<Value> {
        let response = self.send_line(line)?;
        serde_json::from_str(&response).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response json: {e}"),
            )
        })
    }

    /// Convenience: a `suggest` request for `entity`, optionally narrowed
    /// by an in-flight edit signature (`edit` is `"add"`/`"remove"`).
    pub fn suggest(&mut self, entity: &str, sig: Option<(&str, &str)>) -> std::io::Result<Value> {
        let request = match sig {
            None => format!(r#"{{"op":"suggest","entity":{}}}"#, json_str(entity)),
            Some((edit, rel)) => format!(
                r#"{{"op":"suggest","entity":{},"sig":{{"edit":{},"rel":{}}}}}"#,
                json_str(entity),
                json_str(edit),
                json_str(rel)
            ),
        };
        self.send(&request)
    }

    /// Convenience: a `stats` request.
    pub fn stats(&mut self) -> std::io::Result<Value> {
        self.send(r#"{"op":"stats"}"#)
    }

    /// Convenience: a `reload` request.
    pub fn reload(&mut self, spec: Option<&str>) -> std::io::Result<Value> {
        let request = match spec {
            None => r#"{"op":"reload"}"#.to_string(),
            Some(s) => format!(r#"{{"op":"reload","spec":{}}}"#, json_str(s)),
        };
        self.send(&request)
    }

    /// Convenience: a `shutdown` request.
    pub fn shutdown(&mut self) -> std::io::Result<Value> {
        self.send(r#"{"op":"shutdown"}"#)
    }
}

/// JSON-escapes a string literal (entity names may hold quotes or
/// backslashes; everything the catalog allows must round-trip).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::json_str;

    #[test]
    fn json_str_escapes_control_and_quote_chars() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("n\nl"), "\"n\\nl\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
