//! HTTP/1.x messages with byte-exact fidelity.
//!
//! The censorship phenomena reproduced from the paper are *byte-level*:
//! middleboxes match the literal token `Host` (case-sensitively, or with a
//! strict `"Host: "` pattern), while RFC 2616-compliant origin servers
//! accept any header-name case and tolerate extra whitespace around values.
//! A request is therefore represented as its raw bytes, built by
//! [`RequestBuilder`] and *interpreted* twice: by the RFC-tolerant
//! [`HttpRequest::parse`] here, as an origin server reads it, and by each
//! middlebox's own Host matcher. The same bytes can legitimately mean
//! different things to the two, which is exactly the gap evasion exploits.

use std::fmt::Write as _;

use crate::error::ParseError;

/// A parsed HTTP request. Header names and values are kept exactly as they
/// appeared on the wire; semantic lookups normalize on the fly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET` in everything modelled here).
    pub method: String,
    /// Request target (path).
    pub target: String,
    /// Protocol version string, e.g. `HTTP/1.1`.
    pub version: String,
    /// Headers in wire order: (raw name, raw value with surrounding
    /// spaces and tabs already trimmed).
    pub headers: Vec<(String, String)>,
}

impl HttpRequest {
    /// Parse one request head from `buf` with RFC 2616/7230 semantics:
    /// header names are case-insensitive, optional whitespace (spaces and
    /// tabs) around values is dropped, and the first `Host` wins.
    ///
    /// Returns the request and the number of bytes consumed (up to and
    /// including the terminating blank line). Trailing bytes belong to the
    /// next pipelined message — the covert-interceptive-middlebox evasion
    /// depends on servers honoring this framing.
    pub fn parse(buf: &[u8]) -> Result<(HttpRequest, usize), ParseError> {
        let end = find_head_end(buf).ok_or(ParseError::BadHttp { reason: "no blank line" })?;
        let head = &buf[..end - 4]; // without the \r\n\r\n
        let mut lines = head.split(|&b| b == b'\n').map(|l| l.strip_suffix(b"\r").unwrap_or(l));
        let request_line = lines.next().ok_or(ParseError::BadHttp { reason: "empty head" })?;
        let line = std::str::from_utf8(request_line)
            .map_err(|_| ParseError::BadHttp { reason: "request line not utf-8" })?;
        let mut parts = line.split(' ').filter(|p| !p.is_empty());
        let method = parts.next().ok_or(ParseError::BadHttp { reason: "missing method" })?;
        // RFC 7230 §3.2.6: a method is a token — visible ASCII minus
        // separators. Binary bytes here mean we are not looking at HTTP.
        if !method.bytes().all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)) {
            return Err(ParseError::BadHttp { reason: "method not a token" });
        }
        let target = parts.next().ok_or(ParseError::BadHttp { reason: "missing target" })?;
        let version = parts.next().ok_or(ParseError::BadHttp { reason: "missing version" })?;
        if !version.starts_with("HTTP/") {
            return Err(ParseError::BadHttp { reason: "bad version" });
        }
        let mut headers = Vec::new();
        for raw in lines {
            if raw.is_empty() {
                continue;
            }
            let text = std::str::from_utf8(raw)
                .map_err(|_| ParseError::BadHttp { reason: "header not utf-8" })?;
            let colon = text.find(':').ok_or(ParseError::BadHttp { reason: "header missing colon" })?;
            let name = &text[..colon];
            let value = text[colon + 1..].trim_matches([' ', '\t']);
            if name.is_empty() || name.contains(' ') {
                return Err(ParseError::BadHttp { reason: "bad header name" });
            }
            headers.push((name.to_string(), value.to_string()));
        }
        Ok((
            HttpRequest {
                method: method.to_string(),
                target: target.to_string(),
                version: version.to_string(),
                headers,
            },
            end,
        ))
    }

    /// RFC semantics for the `Host` header: case-insensitive name match,
    /// first occurrence wins.
    pub fn host(&self) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("host"))
            .map(|(_, v)| v.as_str())
    }

    /// Look up any header by case-insensitive name (first occurrence).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Locate the end of a message head: index just past the first
/// `\r\n\r\n`, or `None` if incomplete.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Builder producing byte-exact HTTP/1.x requests.
///
/// Every fudging technique from Section 5 of the paper maps to one method
/// here; [`RequestBuilder::build`] returns the literal bytes that will ride
/// in TCP payloads.
///
/// ```
/// use lucent_packet::http::RequestBuilder;
///
/// // A canonical browser request…
/// let plain = RequestBuilder::browser("blocked.example", "/").build();
/// assert!(plain.starts_with(b"GET / HTTP/1.1\r\n"));
///
/// // …and a whitespace-fudged one that a strict middlebox parser
/// // misreads while an RFC server serves it normally.
/// let fudged = RequestBuilder::get("/")
///     .raw_line("Host:  blocked.example")
///     .build();
/// assert!(fudged.windows(2).any(|w| w == b":\x20"));
/// ```
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    method: String,
    target: String,
    version: String,
    lines: Vec<String>,
}

impl RequestBuilder {
    /// Start a standard `GET <path> HTTP/1.1` request.
    pub fn get(path: &str) -> Self {
        RequestBuilder {
            method: "GET".into(),
            target: path.into(),
            version: "HTTP/1.1".into(),
            lines: Vec::new(),
        }
    }

    /// Override the version token (e.g. `HTTP/2.0` probing).
    pub fn version(mut self, v: &str) -> Self {
        self.version = v.into();
        self
    }

    /// Override the method token case (e.g. `get`).
    pub fn method(mut self, m: &str) -> Self {
        self.method = m.into();
        self
    }

    /// Append a canonical `Name: value` header.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.lines.push(format!("{name}: {value}"));
        self
    }

    /// Append a header line *verbatim* — no colon-space normalization.
    /// This is how whitespace-fudged and duplicate `Host` lines are built.
    pub fn raw_line(mut self, line: &str) -> Self {
        self.lines.push(line.to_string());
        self
    }

    /// The canonical browser-like request for `host`: title-case `Host`,
    /// a plausible `User-Agent`, `Accept` and `Connection` headers.
    pub fn browser(host: &str, path: &str) -> Self {
        RequestBuilder::get(path)
            .header("Host", host)
            .header("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) lucent/0.1")
            .header("Accept", "text/html,application/xhtml+xml")
            .header("Connection", "keep-alive")
    }

    /// Serialize to wire bytes.
    pub fn build(&self) -> Vec<u8> {
        let mut out = String::new();
        let _ = write!(out, "{} {} {}\r\n", self.method, self.target, self.version);
        for line in &self.lines {
            let _ = write!(out, "{line}\r\n");
        }
        out.push_str("\r\n");
        out.into_bytes()
    }
}

/// An HTTP response: status line, headers, body.
///
/// Responses are structured (not raw) because nothing in the paper depends
/// on response byte quirks — OONI and the probes compare status, header
/// *names*, body length and `<title>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 302, 400, ...).
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers in order (name, value).
    pub headers: Vec<(String, String)>,
    /// Message body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Build a response with a `Content-Length` header derived from `body`.
    pub fn new(status: u16, reason: &str, body: Vec<u8>) -> Self {
        let headers = vec![("Content-Length".to_string(), body.len().to_string())];
        HttpResponse { status, reason: reason.to_string(), headers: headers_with_defaults(headers), body }
    }

    /// Append a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize to wire bytes.
    pub fn emit(&self) -> Vec<u8> {
        let mut out = String::new();
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, self.reason);
        for (n, v) in &self.headers {
            let _ = write!(out, "{n}: {v}\r\n");
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }

    /// Parse a response from wire bytes. The body is everything after the
    /// blank line, clipped to `Content-Length` when present.
    pub fn parse(buf: &[u8]) -> Result<HttpResponse, ParseError> {
        let end = find_head_end(buf).ok_or(ParseError::BadHttp { reason: "no blank line" })?;
        let head = std::str::from_utf8(&buf[..end - 4])
            .map_err(|_| ParseError::BadHttp { reason: "head not utf-8" })?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or(ParseError::BadHttp { reason: "empty head" })?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/") {
            return Err(ParseError::BadHttp { reason: "bad status line" });
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ParseError::BadHttp { reason: "bad status code" })?;
        let reason = parts.next().unwrap_or("").to_string();
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let colon = line.find(':').ok_or(ParseError::BadHttp { reason: "header missing colon" })?;
            headers.push((
                line[..colon].to_string(),
                line[colon + 1..].trim_matches([' ', '\t']).to_string(),
            ));
        }
        let mut body = buf[end..].to_vec();
        if let Some(cl) = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse::<usize>().ok())
        {
            body.truncate(cl);
        }
        Ok(HttpResponse { status, reason, headers, body })
    }

    /// Look up a header (case-insensitive, first occurrence).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Header *names*, lowercased and sorted — OONI's header comparison
    /// looks at names only.
    pub fn header_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.headers.iter().map(|(n, _)| n.to_ascii_lowercase()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Extract the `<title>` text from an HTML body, if any.
    pub fn title(&self) -> Option<String> {
        let body = std::str::from_utf8(&self.body).ok()?;
        let lower = body.to_ascii_lowercase();
        let start = lower.find("<title>")? + "<title>".len();
        let end = lower[start..].find("</title>")? + start;
        Some(body[start..end].trim().to_string())
    }
}

fn headers_with_defaults(mut headers: Vec<(String, String)>) -> Vec<(String, String)> {
    headers.push(("Connection".to_string(), "close".to_string()));
    headers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn browser_request_builds_canonically() {
        let bytes = RequestBuilder::browser("blocked.example.in", "/").build();
        assert_eq!(
            bytes,
            b"GET / HTTP/1.1\r\n\
              Host: blocked.example.in\r\n\
              User-Agent: Mozilla/5.0 (X11; Linux x86_64) lucent/0.1\r\n\
              Accept: text/html,application/xhtml+xml\r\n\
              Connection: keep-alive\r\n\r\n"
        );
        let (req, used) = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(req.host(), Some("blocked.example.in"));
        assert_eq!(req.method, "GET");
    }

    #[test]
    fn rfc_parse_accepts_case_fudged_host() {
        // Section 5: "HOst", "HoST", "HOST" must all reach the RFC server.
        for fudge in ["HOst", "HoST", "HoSt", "HOST", "host"] {
            let bytes = RequestBuilder::get("/")
                .raw_line(&format!("{fudge}: blocked.example.in"))
                .build();
            let (req, _) = HttpRequest::parse(&bytes).unwrap();
            assert_eq!(req.host(), Some("blocked.example.in"), "fudge {fudge}");
        }
    }

    #[test]
    fn rfc_parse_trims_extra_whitespace_in_value() {
        // Section 5: "Host:  blocked.com" and "Host:blocked.com  " variants.
        for line in [
            "Host:  blocked.example.in",
            "Host:\tblocked.example.in",
            "Host: blocked.example.in  ",
            "Host:blocked.example.in",
            "Host:   blocked.example.in\t",
        ] {
            let bytes = RequestBuilder::get("/").raw_line(line).build();
            let (req, _) = HttpRequest::parse(&bytes).unwrap();
            assert_eq!(req.host(), Some("blocked.example.in"), "line {line:?}");
        }
    }

    #[test]
    fn first_host_wins_for_rfc_semantics() {
        let bytes = RequestBuilder::get("/")
            .header("Host", "first.example")
            .header("Host", "second.example")
            .build();
        let (req, _) = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(req.host(), Some("first.example"));
    }

    #[test]
    fn pipelined_framing_returns_consumed_length() {
        // The covert-IM evasion: server must treat the first \r\n\r\n as the
        // end of the request and the trailing "Host:" line as a *separate*
        // (malformed) message.
        let mut bytes = RequestBuilder::get("/").header("Host", "blocked.example.in").build();
        let tail = b"Host: allowed.example.com\r\n\r\n";
        bytes.extend_from_slice(tail);
        let (req, used) = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(req.host(), Some("blocked.example.in"));
        assert_eq!(&bytes[used..], tail);
        // The leftover does not parse as a valid request (no request line).
        assert!(HttpRequest::parse(&bytes[used..]).is_err());
    }

    #[test]
    fn incomplete_head_reports_no_blank_line() {
        let partial = b"GET / HTTP/1.1\r\nHost: x";
        assert_eq!(
            HttpRequest::parse(partial),
            Err(ParseError::BadHttp { reason: "no blank line" })
        );
    }

    #[test]
    fn response_roundtrip_and_title() {
        let body = b"<html><head><title>Blocked Site</title></head><body>hi</body></html>".to_vec();
        let resp = HttpResponse::new(200, "OK", body).with_header("Server", "nginx");
        let wire = resp.emit();
        let parsed = HttpResponse::parse(&wire).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.title().as_deref(), Some("Blocked Site"));
        assert_eq!(parsed.header("server"), Some("nginx"));
        assert!(parsed.header_names().contains(&"content-length".to_string()));
    }

    #[test]
    fn response_without_title_returns_none() {
        let resp = HttpResponse::new(200, "OK", b"<html><body>iframe only</body></html>".to_vec());
        assert_eq!(resp.title(), None);
    }

    #[test]
    fn content_length_clips_body() {
        let mut wire = HttpResponse::new(200, "OK", b"12345".to_vec()).emit();
        wire.extend_from_slice(b"garbage-after-body");
        let parsed = HttpResponse::parse(&wire).unwrap();
        assert_eq!(parsed.body, b"12345");
    }

    #[test]
    fn malformed_responses_rejected() {
        assert!(HttpResponse::parse(b"not http\r\n\r\n").is_err());
        assert!(HttpResponse::parse(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(HttpResponse::parse(b"HTTP/1.1 200 OK\r\nbadheader\r\n\r\n").is_err());
    }

    #[test]
    fn http2_version_token_is_carried() {
        let bytes = RequestBuilder::get("/").version("HTTP/2.0").header("Host", "x.com").build();
        let (req, _) = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(req.version, "HTTP/2.0");
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let bytes = RequestBuilder::get("/")
            .header("User-Agent", "x")
            .header("Host", "h.example")
            .build();
        let (req, _) = HttpRequest::parse(&bytes).unwrap();
        assert_eq!(req.header("user-agent"), Some("x"));
        assert_eq!(req.header("USER-AGENT"), Some("x"));
        assert_eq!(req.header("absent"), None);
    }
}
