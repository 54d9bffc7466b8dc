//! The client half of HTTP/1.1 the load generator needs: request encoding
//! and an incremental response parser that copes with pipelined replies
//! arriving split across, or packed into, arbitrary reads.

/// Encodes a keep-alive JSON `POST`.
pub fn post_json(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Encodes a keep-alive `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
}

/// Accumulates bytes and yields complete responses in order.
#[derive(Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Appends bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` if more bytes are needed, or
    /// an error for a malformed head.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header line {line:?}"));
            };
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {:?}", value.trim()))?;
            }
        }
        let body_start = head_end + 4;
        if self.buf.len() < body_start + length {
            return Ok(None);
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Some(Response { status, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n\
             content-length: {}\r\nX-Trace-Id: 9\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn pipelined_replies_split_at_every_byte() {
        let mut wire = reply(200, r#"{"a":1}"#);
        wire.extend(reply(429, r#"{"error":"overloaded"}"#));
        wire.extend(reply(200, ""));
        for cut in 0..wire.len() {
            let mut parser = ResponseParser::default();
            let mut got = Vec::new();
            for part in [&wire[..cut], &wire[cut..]] {
                parser.feed(part);
                while let Some(r) = parser.next_response().expect("well-formed") {
                    got.push(r);
                }
            }
            assert_eq!(got.len(), 3, "cut at {cut}");
            assert_eq!(got[0], Response { status: 200, body: br#"{"a":1}"#.to_vec() });
            assert_eq!(got[1].status, 429);
            assert!(got[2].body.is_empty());
            assert_eq!(parser.next_response(), Ok(None));
        }
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let wire = reply(200, r#"{"results":[]}"#);
        let mut parser = ResponseParser::default();
        let mut got = None;
        for b in &wire {
            assert!(got.is_none(), "no response before the last byte");
            parser.feed(std::slice::from_ref(b));
            got = parser.next_response().expect("well-formed");
        }
        assert_eq!(got.map(|r| r.body), Some(br#"{"results":[]}"#.to_vec()));
    }

    #[test]
    fn malformed_heads_are_errors() {
        let mut parser = ResponseParser::default();
        parser.feed(b"HTTP/1.1 abc\r\n\r\n");
        assert!(parser.next_response().is_err());
        let mut parser = ResponseParser::default();
        parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n");
        assert!(parser.next_response().is_err());
    }

    #[test]
    fn requests_carry_their_length() {
        let req = String::from_utf8(post_json("/v1/query", "{}")).expect("ascii");
        assert!(req.starts_with("POST /v1/query HTTP/1.1\r\n"));
        assert!(req.contains("Content-Length: 2\r\n"));
        assert!(req.ends_with("\r\n\r\n{}"));
    }
}
