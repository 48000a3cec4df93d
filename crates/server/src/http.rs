//! A minimal HTTP/1.1 codec over blocking streams.
//!
//! Only what the serving layer needs: request-line + headers +
//! `Content-Length` bodies (no chunked encoding, no TLS, no HTTP/2), with
//! hard limits on header and body size so a misbehaving client cannot make
//! the server allocate unboundedly. Every malformed input maps to a typed
//! [`HttpError`] the router turns into a 4xx — parsing never panics.
//!
//! This module is the only code in the workspace that writes an HTTP/1.1
//! message. [`Request::write_to`] and [`Response::write_to`] own the
//! framing headers (`content-length`, `connection`, and `host` or
//! `content-type`), pass every other header through, and send head and
//! body in one write. [`exchange`] is the one-shot client (a fresh
//! connection, `connection: close`) and [`Client`] the keep-alive one,
//! which rebuilds a stale connection once.

use cqp_obs::Json;
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest accepted request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parse-level failure; each maps to one 4xx response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived (a
    /// clean close between keep-alive requests surfaces as this with
    /// zero bytes consumed).
    ConnectionClosed,
    /// Malformed request line (wanted `METHOD PATH HTTP/1.x`).
    BadRequestLine(String),
    /// A header line without a `:` separator.
    BadHeader(String),
    /// `Content-Length` missing on a method that requires a body, or not
    /// a number.
    BadContentLength,
    /// Head grew past [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Declared body length exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// Underlying socket error.
    Io(io::ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::BadRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            HttpError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            HttpError::BadContentLength => write!(f, "missing or invalid content-length"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.kind())
    }
}

impl From<HttpError> for io::Error {
    fn from(e: HttpError) -> Self {
        match e {
            HttpError::Io(kind) => kind.into(),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/personalize` (query strings are kept).
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-delimited; empty when absent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// A request to send: `method` on `path`, with no headers and no body.
    pub fn new(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    /// A `GET` of `path`.
    pub fn get(path: &str) -> Request {
        Request::new("GET", path)
    }

    /// A `POST` of `body` to `path`.
    pub fn post(path: &str, body: impl AsRef<[u8]>) -> Request {
        Request {
            body: body.as_ref().to_vec(),
            ..Request::new("POST", path)
        }
    }

    /// Adds a header (builder-style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the request onto `writer` in one write. The writer owns
    /// `host`, `content-length` and `connection` (keep-alive or close, per
    /// `keep_alive` rather than the parsed `self.keep_alive`) and passes
    /// every other header through, so a relay forwards trace IDs and
    /// deadlines untouched.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        write_message(
            writer,
            format_args!("{} {} HTTP/1.1", self.method, self.path),
            ("host", "cqp"),
            keep_alive,
            &self.headers,
            &self.body,
        )
    }

    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path split into `/`-separated segments, query string dropped.
    pub fn segments(&self) -> Vec<&str> {
        let path = self.path.split('?').next().unwrap_or("");
        path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Value of `key` in the query string, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let qs = self.path.split_once('?')?.1;
        qs.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Strips trailing `\n`/`\r` bytes and decodes lossily — the one line
/// normalization both parsers share.
fn finish_line(line: &[u8]) -> String {
    let mut end = line.len();
    while end > 0 && (line[end - 1] == b'\n' || line[end - 1] == b'\r') {
        end -= 1;
    }
    // Lossy is fine: header values the router cares about are ASCII, and
    // a garbled line fails its downstream parse with a typed error.
    String::from_utf8_lossy(&line[..end]).into_owned()
}

/// Parses the request line into `(method, path, keep_alive_default)`.
/// HTTP/1.1 defaults to keep-alive, 1.0 to close.
fn parse_request_line(request_line: String) -> Result<(String, String, bool), HttpError> {
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if v.starts_with("HTTP/1.") && p.starts_with('/') => {
            Ok((m.to_ascii_uppercase(), p.to_string(), v != "HTTP/1.0"))
        }
        _ => Err(HttpError::BadRequestLine(request_line)),
    }
}

/// Parses one header line into `(lowercase name, trimmed value)`,
/// flipping `keep_alive` on `connection: close`.
fn parse_header_line(line: String, keep_alive: &mut bool) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::BadHeader(line.clone()))?;
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim().to_string();
    if name == "connection" {
        *keep_alive = !value.eq_ignore_ascii_case("close");
    }
    Ok((name, value))
}

/// Decides how many body bytes the head declares. `POST`/`PUT` without a
/// `Content-Length` is a typed error; declared bodies above
/// [`MAX_BODY_BYTES`] are rejected before any allocation.
fn declared_body_len(method: &str, headers: &[(String, String)]) -> Result<usize, HttpError> {
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| HttpError::BadContentLength))
        .transpose()?;
    match content_length {
        None if method == "POST" || method == "PUT" => Err(HttpError::BadContentLength),
        None | Some(0) => Ok(0),
        Some(n) if n > MAX_BODY_BYTES => Err(HttpError::BodyTooLarge(n)),
        Some(n) => Ok(n),
    }
}

/// Reads one line terminated by `\n`, stripping `\r\n`/`\n`. Returns
/// `None` on a clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::ConnectionClosed);
        }
        let nl = buf.iter().position(|&b| b == b'\n');
        let take = nl.map_or(buf.len(), |i| i + 1);
        if take > *budget {
            return Err(HttpError::HeadTooLarge);
        }
        *budget -= take;
        line.extend_from_slice(&buf[..take]);
        reader.consume(take);
        if nl.is_some() {
            break;
        }
    }
    Ok(Some(finish_line(&line)))
}

/// Parses one request from `reader`. Blocks until a full head (and body,
/// when declared) arrives or the connection closes.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        None => return Err(HttpError::ConnectionClosed),
        Some(l) => l,
    };
    let (method, path, mut keep_alive) = parse_request_line(request_line)?;

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            None => return Err(HttpError::ConnectionClosed),
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        headers.push(parse_header_line(line, &mut keep_alive)?);
    }

    let body = match declared_body_len(&method, &headers)? {
        0 => Vec::new(),
        n => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        }
    };
    Ok(Request {
        method,
        path,
        headers,
        body,
        keep_alive,
    })
}

/// How far an incremental parse has progressed through one request.
#[derive(Debug)]
enum ParsePhase {
    /// Waiting for the request line to complete.
    RequestLine,
    /// Request line parsed; consuming header lines.
    Headers {
        method: String,
        path: String,
        keep_alive: bool,
        headers: Vec<(String, String)>,
    },
    /// Head complete; waiting for `body_len` body bytes.
    Body {
        method: String,
        path: String,
        keep_alive: bool,
        headers: Vec<(String, String)>,
        body_len: usize,
    },
}

/// An incremental (resumable) request parser for readiness-driven I/O.
///
/// The epoll backend reads whatever fragment the socket has and calls
/// [`RequestParser::feed`] + [`RequestParser::try_next`]; the parser
/// consumes bytes as lines complete and yields a [`Request`] exactly when
/// the blocking [`parse_request`] would have, with byte-for-byte identical
/// results and identical typed errors **regardless of how the input is
/// fragmented** (the `http_fuzz` suite replays every corpus at every split
/// point to prove it). Pipelined requests are supported: leftover bytes
/// stay buffered for the next `try_next`.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed offset into `buf` (everything before it belongs to
    /// already-yielded requests).
    start: usize,
    /// Start of the line currently being scanned (absolute).
    line_start: usize,
    /// Resume point for the newline scan (absolute, `>= line_start`).
    scan: usize,
    /// Head bytes consumed by completed lines of the current request.
    head_bytes: usize,
    phase: ParsePhase,
    /// A parse error is terminal for the connection; it is sticky so a
    /// caller that polls again gets the same answer.
    failed: Option<HttpError>,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// An empty parser at the start of a connection.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            line_start: 0,
            scan: 0,
            head_bytes: 0,
            phase: ParsePhase::RequestLine,
            failed: None,
        }
    }

    /// Appends newly-read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered (a nonzero value between
    /// requests means a pipelined request is already arriving).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True once any byte of the *current* request has arrived.
    pub fn mid_request(&self) -> bool {
        self.buffered() > 0 || !matches!(self.phase, ParsePhase::RequestLine)
    }

    /// The error the blocking parser would report if the peer closed the
    /// connection right now: `Io(UnexpectedEof)` mid-body, otherwise
    /// `ConnectionClosed` (which is also the clean between-requests EOF).
    pub fn eof_error(&self) -> HttpError {
        match self.phase {
            ParsePhase::Body { .. } => HttpError::Io(io::ErrorKind::UnexpectedEof),
            _ => HttpError::ConnectionClosed,
        }
    }

    /// Advances the parse as far as the buffered bytes allow. Returns
    /// `Ok(Some(request))` when one request completed, `Ok(None)` when
    /// more bytes are needed, or the same typed error [`parse_request`]
    /// would produce. Errors are sticky and terminal.
    pub fn try_next(&mut self) -> Result<Option<Request>, HttpError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.advance() {
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
            Ok(out) => Ok(out),
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            if let ParsePhase::Body { body_len, .. } = &self.phase {
                let body_len = *body_len;
                if self.buffered() < body_len {
                    return Ok(None);
                }
                let body = self.buf[self.start..self.start + body_len].to_vec();
                let phase = std::mem::replace(&mut self.phase, ParsePhase::RequestLine);
                let ParsePhase::Body {
                    method,
                    path,
                    keep_alive,
                    headers,
                    ..
                } = phase
                else {
                    unreachable!("phase checked above");
                };
                self.start += body_len;
                self.finish_request();
                return Ok(Some(Request {
                    method,
                    path,
                    headers,
                    body,
                    keep_alive,
                }));
            }

            // Head phase: hunt for the next newline from the resume point.
            let Some(rel) = self.buf[self.scan..].iter().position(|&b| b == b'\n') else {
                self.scan = self.buf.len();
                // The blocking parser consumes partial-line bytes as they
                // arrive and trips the head budget as soon as cumulative
                // consumption would exceed it — even mid-line.
                if self.head_bytes + (self.scan - self.line_start) > MAX_HEAD_BYTES {
                    return Err(HttpError::HeadTooLarge);
                }
                return Ok(None);
            };
            let nl = self.scan + rel;
            let take = nl + 1 - self.line_start;
            if self.head_bytes + take > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            self.head_bytes += take;
            let line = finish_line(&self.buf[self.line_start..=nl]);
            self.line_start = nl + 1;
            self.scan = self.line_start;
            self.start = self.line_start;

            match std::mem::replace(&mut self.phase, ParsePhase::RequestLine) {
                ParsePhase::RequestLine => {
                    let (method, path, keep_alive) = parse_request_line(line)?;
                    self.phase = ParsePhase::Headers {
                        method,
                        path,
                        keep_alive,
                        headers: Vec::new(),
                    };
                }
                ParsePhase::Headers {
                    method,
                    path,
                    mut keep_alive,
                    mut headers,
                } => {
                    if line.is_empty() {
                        // Head complete: the body plan (and its typed
                        // errors) is decided here, same as the blocking
                        // parser deciding it right after the header loop.
                        let body_len = declared_body_len(&method, &headers)?;
                        self.phase = ParsePhase::Body {
                            method,
                            path,
                            keep_alive,
                            headers,
                            body_len,
                        };
                    } else {
                        headers.push(parse_header_line(line, &mut keep_alive)?);
                        self.phase = ParsePhase::Headers {
                            method,
                            path,
                            keep_alive,
                            headers,
                        };
                    }
                }
                ParsePhase::Body { .. } => unreachable!("body handled before line scan"),
            }
        }
    }

    /// Resets per-request state and compacts the buffer once the consumed
    /// prefix grows past the head cap (keeps long-lived keep-alive
    /// connections from accreting memory).
    fn finish_request(&mut self) {
        self.head_bytes = 0;
        self.line_start = self.start;
        self.scan = self.start;
        if self.start == self.buf.len() {
            self.buf.clear();
        } else if self.start > MAX_HEAD_BYTES {
            self.buf.drain(..self.start);
        } else {
            return;
        }
        self.line_start -= self.start;
        self.scan -= self.start;
        self.start = 0;
    }
}

/// A response under construction.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` value: a constant for the server's own responses,
    /// the peer's value for a relayed one.
    pub content_type: Cow<'static, str>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Response {
        Response::text_with_type(status, body.render(), "application/json")
    }

    /// The JSON error every serving tier answers with:
    /// `{"error": {"code", "message"}}`.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        Response::json(
            status,
            &Json::obj(vec![(
                "error",
                Json::obj(vec![
                    ("code", Json::from(code)),
                    ("message", Json::from(message)),
                ]),
            )]),
        )
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::text_with_type(status, body, "text/plain")
    }

    /// A text response with an explicit `Content-Type` — the Prometheus
    /// exposition endpoint needs `text/plain; version=0.0.4; charset=utf-8`.
    pub fn text_with_type(
        status: u16,
        body: impl Into<String>,
        content_type: &'static str,
    ) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: Cow::Borrowed(content_type),
        }
    }

    /// Adds a header (builder-style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Serializes the response onto `writer` in one write. The writer
    /// owns `content-type`, `content-length` and `connection`; every
    /// other header passes through.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        write_message(
            writer,
            format_args!("HTTP/1.1 {} {}", self.status, self.reason()),
            ("content-type", self.content_type.as_ref()),
            keep_alive,
            &self.headers,
            &self.body,
        )
    }
}

/// A response relayed from a peer: its status, body and end-to-end
/// headers, with its `content-type` kept. [`Response::write_to`] writes
/// the framing headers anew.
impl From<ClientResponse> for Response {
    fn from(mut resp: ClientResponse) -> Response {
        let content_type = match resp.headers.iter().position(|(k, _)| k == "content-type") {
            Some(i) => Cow::Owned(resp.headers.remove(i).1),
            None => Cow::Borrowed("application/octet-stream"),
        };
        Response {
            status: resp.status,
            headers: resp.headers,
            body: resp.body,
            content_type,
        }
    }
}

/// Writes one message in one write: the `start` line, the `first` header
/// the message type owns (`host` or `content-type`), `content-length`,
/// `connection`, every other header of `headers`, the blank line and
/// `body`. A header in `headers` that the writer owns is dropped, so the
/// message carries exactly one of each.
fn write_message<W: Write>(
    writer: &mut W,
    start: std::fmt::Arguments<'_>,
    first: (&str, &str),
    keep_alive: bool,
    headers: &[(String, String)],
    body: &[u8],
) -> io::Result<()> {
    let owned = |name: &str| {
        [first.0, "content-length", "connection"]
            .iter()
            .any(|o| name.eq_ignore_ascii_case(o))
    };
    let extra: usize = headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
    let mut out = Vec::with_capacity(160 + first.1.len() + extra + body.len());
    write!(
        out,
        "{start}\r\n{}: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        first.0,
        first.1,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in headers.iter().filter(|(name, _)| !owned(name)) {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    writer.write_all(&out)?;
    writer.flush()
}

/// A client-side view of one response (used by the router, the load
/// drivers and the socket tests; not a general client).
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response off `reader`.
pub fn parse_response<R: BufRead>(reader: &mut R) -> Result<ClientResponse, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = match read_line(reader, &mut budget)? {
        None => return Err(HttpError::ConnectionClosed),
        Some(l) => l,
    };
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| HttpError::BadRequestLine(status_line.clone()))?;
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            None => return Err(HttpError::ConnectionClosed),
            Some(l) => l,
        };
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let n = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; n];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// How long a client exchange waits.
#[derive(Debug, Clone, Copy)]
pub struct Timeouts {
    /// For the TCP connect.
    pub connect: Duration,
    /// For each read of the response.
    pub read: Duration,
}

/// A connection to `addr` with the caller's deadlines; writes go through
/// the reader's stream.
fn connect(addr: SocketAddr, timeouts: Timeouts) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect_timeout(&addr, timeouts.connect)?;
    stream.set_read_timeout(Some(timeouts.read))?;
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// Writes `req` on `conn` and reads its response.
fn round_trip(
    conn: &mut BufReader<TcpStream>,
    req: &Request,
    keep_alive: bool,
) -> io::Result<ClientResponse> {
    req.write_to(conn.get_mut(), keep_alive)?;
    Ok(parse_response(conn)?)
}

/// One request over a fresh connection to `addr` that closes after the
/// response (`connection: close`). Nothing is re-sent: the one exchange
/// for requests that must not be applied twice.
pub fn exchange(addr: SocketAddr, req: &Request, timeouts: Timeouts) -> io::Result<ClientResponse> {
    round_trip(&mut connect(addr, timeouts)?, req, false)
}

/// A keep-alive client of one peer. Each [`Client::exchange`] reuses the
/// open connection; when that fails (the peer closed it while idle), the
/// request is sent once more over a rebuilt connection, so use it only
/// for requests that are safe to send twice.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeouts: Timeouts,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client of `addr`; it connects on its first exchange.
    pub fn new(addr: SocketAddr, timeouts: Timeouts) -> Client {
        Client {
            addr,
            timeouts,
            conn: None,
        }
    }

    /// One request over the kept connection, rebuilt at most once. A
    /// failure on a fresh connection is returned and leaves none kept.
    pub fn exchange(&mut self, req: &Request) -> io::Result<ClientResponse> {
        if let Some(conn) = &mut self.conn {
            match round_trip(conn, req, true) {
                Ok(resp) => return Ok(resp),
                Err(_) => self.conn = None,
            }
        }
        let conn = self.conn.insert(connect(self.addr, self.timeouts)?);
        let resp = round_trip(conn, req, true);
        if resp.is_err() {
            self.conn = None;
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, HttpError> {
        parse_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_with_headers_and_query() {
        let req = parse(
            "GET /profiles/al?merge=true HTTP/1.1\r\nHost: x\r\nX-Cqp-Deadline-Ms: 25\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.segments(), vec!["profiles", "al"]);
        assert_eq!(req.query_param("merge"), Some("true"));
        assert_eq!(req.query_param("nope"), None);
        assert_eq!(req.header("x-cqp-deadline-ms"), Some("25"));
        assert!(req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse("POST /personalize HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}ab").unwrap();
        assert_eq!(req.body, b"{}ab");
    }

    #[test]
    fn post_without_content_length_is_typed_error() {
        assert_eq!(
            parse("POST /x HTTP/1.1\r\n\r\n").unwrap_err(),
            HttpError::BadContentLength
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(
            parse("BLARG\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
        assert!(matches!(
            parse("GET x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_allocating() {
        let head = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&head), Err(HttpError::BodyTooLarge(_))));
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    /// The bytes are pinned: the response writer's output must not move.
    #[test]
    fn response_round_trips_through_client_parser() {
        let body = cqp_obs::Json::obj(vec![("ok", cqp_obs::Json::Bool(true))]);
        let resp = Response::json(429, &body)
            .with_header("retry-after", "1")
            .with_header("x-cqp-trace-id", "00000000feedc0de");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        assert_eq!(
            wire,
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
              content-length: 11\r\nconnection: keep-alive\r\nretry-after: 1\r\n\
              x-cqp-trace-id: 00000000feedc0de\r\n\r\n{\"ok\":true}"
        );
        let parsed = parse_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.body_text(), r#"{"ok":true}"#);
    }

    #[test]
    fn written_requests_parse_back_whole_and_byte_by_byte() {
        for sent in [
            Request::get("/healthz?x=1"),
            Request::post("/p", "{\"u\":1}"),
        ] {
            let sent = sent.with_header("x-cqp-trace-id", "ab");
            for keep_alive in [true, false] {
                let mut wire = Vec::new();
                sent.write_to(&mut wire, keep_alive).unwrap();
                let mut parser = RequestParser::new();
                let mut incremental = None;
                for byte in &wire {
                    parser.feed(std::slice::from_ref(byte));
                    incremental = incremental.or(parser.try_next().unwrap());
                }
                for got in [parse_request(&mut &wire[..]).unwrap(), incremental.unwrap()] {
                    assert_eq!((&got.method, &got.path), (&sent.method, &sent.path));
                    assert_eq!((&got.body, got.keep_alive), (&sent.body, keep_alive));
                    // `host`, `content-length` and `connection` come first.
                    assert_eq!(got.headers[3..], sent.headers);
                }
            }
        }
    }

    #[test]
    fn relayed_response_keeps_end_to_end_headers_and_owns_the_framing() {
        let backend = b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
            x-cqp-trace-id: 00000000000000ab\r\ncontent-length: 2\r\nretry-after: 1\r\n\
            connection: keep-alive\r\n\r\n{}";
        let relayed = Response::from(parse_response(&mut &backend[..]).unwrap());
        let mut wire = Vec::new();
        relayed.write_to(&mut wire, false).unwrap();
        let got = parse_response(&mut &wire[..]).unwrap();
        let count = |name: &str| got.headers.iter().filter(|(k, _)| k == name).count();
        assert_eq!((count("content-length"), count("connection")), (1, 1));
        assert_eq!(got.header("connection"), Some("close"));
        assert_eq!(got.header("content-type"), Some("application/json"));
        assert_eq!(got.header("x-cqp-trace-id"), Some("00000000000000ab"));
        assert_eq!(got.header("retry-after"), Some("1"));
        assert_eq!((got.status, got.body_text().as_str()), (503, "{}"));
    }

    #[test]
    fn keep_alive_client_rebuilds_a_stale_connection_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (closed, on_close) = std::sync::mpsc::channel();
        // Connection i answers `answers[i]` requests, then the peer closes it.
        let peer = std::thread::spawn(move || {
            for answers in [1, 1, 0] {
                let mut conn = BufReader::new(listener.accept().unwrap().0);
                for _ in 0..answers {
                    let req = parse_request(&mut conn).unwrap();
                    let resp = Response::text(200, req.path);
                    resp.write_to(conn.get_mut(), true).unwrap();
                }
                drop(conn);
                closed.send(()).unwrap();
            }
            listener
        });
        let wait = Duration::from_secs(5);
        let mut client = Client::new(
            addr,
            Timeouts {
                connect: wait,
                read: wait,
            },
        );
        assert_eq!(
            client.exchange(&Request::get("/a")).unwrap().body_text(),
            "/a"
        );
        on_close.recv().unwrap();
        // The kept connection is closed: rebuilt once, and answered there.
        assert_eq!(
            client.exchange(&Request::get("/b")).unwrap().body_text(),
            "/b"
        );
        on_close.recv().unwrap();
        // Closed again, and the rebuilt connection fails too: an error,
        // with no third connection tried.
        assert!(client.exchange(&Request::get("/c")).is_err());
        let listener = peer.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        assert_eq!(
            listener.accept().unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }
}
