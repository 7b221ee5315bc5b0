//! A minimal keep-alive HTTP/1.1 client over `std::net`, plus the chunked
//! NDJSON reader for streamed `/v1/infer` responses.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bishop_gateway::Json;

/// One complete response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// `X-Request-Id`, when the server sent one.
    pub request_id: Option<u64>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text).map_err(|e| format!("body is not JSON ({e}): {text}"))
    }
}

/// One NDJSON line of a streamed response and when it was complete.
#[derive(Debug, Clone)]
pub struct Event {
    /// The line, without its newline.
    pub line: String,
    /// When the client held the whole line.
    pub at: Instant,
}

/// Incremental decoder of a chunked body carrying NDJSON lines. Lines may
/// span chunks and chunks may span reads; [`ChunkedNdjson::feed`] accepts
/// bytes as they arrive and returns the lines they complete.
#[derive(Debug, Default)]
pub struct ChunkedNdjson {
    raw: Vec<u8>,
    line: Vec<u8>,
    done: bool,
}

impl ChunkedNdjson {
    /// Feeds received body bytes; returns every NDJSON line they complete.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<String>, String> {
        self.raw.extend_from_slice(bytes);
        let mut lines = Vec::new();
        loop {
            if self.done {
                break;
            }
            let Some(eol) = find(&self.raw, b"\r\n") else {
                break;
            };
            let size_text = std::str::from_utf8(&self.raw[..eol])
                .map_err(|_| "chunk size line is not UTF-8".to_string())?;
            let size_text = size_text.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| format!("bad chunk size {size_text:?}"))?;
            if size == 0 {
                // Terminal chunk: wait for the empty trailer line.
                if self.raw.len() < eol + 4 {
                    break;
                }
                if &self.raw[eol + 2..eol + 4] != b"\r\n" {
                    return Err("trailers are not supported".to_string());
                }
                self.raw.drain(..eol + 4);
                self.done = true;
                break;
            }
            let end = eol + 2 + size;
            if self.raw.len() < end + 2 {
                break;
            }
            if &self.raw[end..end + 2] != b"\r\n" {
                return Err("chunk payload is not followed by CRLF".to_string());
            }
            for &byte in &self.raw[eol + 2..end] {
                if byte == b'\n' {
                    let text = String::from_utf8(std::mem::take(&mut self.line))
                        .map_err(|_| "event line is not UTF-8".to_string())?;
                    lines.push(text);
                } else {
                    self.line.push(byte);
                }
            }
            self.raw.drain(..end + 2);
        }
        Ok(lines)
    }

    /// Whether the terminal chunk has arrived.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Bytes received past the end of the body (must be none on a
    /// request/response connection) plus any unterminated line.
    pub fn leftover(&self) -> usize {
        self.raw.len() + self.line.len()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A parsed response head.
struct Head {
    status: u16,
    request_id: Option<u64>,
    content_length: Option<usize>,
    chunked: bool,
}

fn parse_head(head: &[u8]) -> Result<Head, String> {
    let text = std::str::from_utf8(head).map_err(|_| "response head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut parsed = Head {
        status,
        request_id: None,
        content_length: None,
        chunked: false,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                parsed.content_length =
                    Some(value.parse().map_err(|_| format!("bad length {value:?}"))?)
            }
            "transfer-encoding" => parsed.chunked = value.eq_ignore_ascii_case("chunked"),
            "x-request-id" => parsed.request_id = value.parse().ok(),
            _ => {}
        }
    }
    Ok(parsed)
}

/// One keep-alive client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Conn {
    /// Connects to the gateway.
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            buffer: Vec::new(),
        })
    }

    /// Writes one request (`Content-Length` framed, keep-alive).
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<(), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads more bytes into the buffer; fails on close.
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 8192];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        self.buffer.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_head(&mut self) -> Result<Head, String> {
        loop {
            if let Some(end) = find(&self.buffer, b"\r\n\r\n") {
                let head = parse_head(&self.buffer[..end])?;
                self.buffer.drain(..end + 4);
                return Ok(head);
            }
            self.fill()?;
        }
    }

    /// Reads a `length`-byte body.
    fn read_body(&mut self, length: usize) -> Result<Vec<u8>, String> {
        while self.buffer.len() < length {
            self.fill()?;
        }
        Ok(self.buffer.drain(..length).collect())
    }

    /// Sends one request and reads its whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Reply, String> {
        self.send(method, path, body)?;
        self.read_reply()
    }

    /// Reads one `Content-Length` framed response.
    pub fn read_reply(&mut self) -> Result<Reply, String> {
        let head = self.read_head()?;
        if head.chunked {
            return Err("unexpected chunked response".to_string());
        }
        let body = self.read_body(head.content_length.unwrap_or(0))?;
        Ok(Reply {
            status: head.status,
            request_id: head.request_id,
            body,
        })
    }

    /// Sends one streamed request; returns its status, request id and the
    /// NDJSON events with their arrival times. A non-chunked (error) reply
    /// comes back as `Err` with its body.
    pub fn stream(
        &mut self,
        path: &str,
        body: &str,
    ) -> Result<(u16, Option<u64>, Vec<Event>), String> {
        self.send("POST", path, body)?;
        let head = self.read_head()?;
        if !head.chunked {
            let body = self.read_body(head.content_length.unwrap_or(0))?;
            return Err(format!(
                "status {} without a stream: {}",
                head.status,
                String::from_utf8_lossy(&body)
            ));
        }
        let events = self.read_events()?;
        Ok((head.status, head.request_id, events))
    }

    fn read_events(&mut self) -> Result<Vec<Event>, String> {
        let mut decoder = ChunkedNdjson::default();
        let mut events = Vec::new();
        let pending = std::mem::take(&mut self.buffer);
        for line in decoder.feed(&pending)? {
            events.push(Event {
                line,
                at: Instant::now(),
            });
        }
        while !decoder.is_done() {
            let mut chunk = [0u8; 8192];
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read stream: {e}"))?;
            if n == 0 {
                return Err("server closed mid-stream".to_string());
            }
            let at = Instant::now();
            for line in decoder.feed(&chunk[..n])? {
                events.push(Event { line, at });
            }
        }
        if decoder.leftover() != 0 {
            return Err(format!(
                "{} unexpected bytes after the stream",
                decoder.leftover()
            ));
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(payload: &str) -> String {
        format!("{:x}\r\n{payload}\r\n", payload.len())
    }

    fn body() -> String {
        [
            chunk("{\"event\":\"step\",\"index\":0}\n"),
            chunk("{\"event\":\"step\",\"index\":1}\n"),
            chunk("{\"event\":\"result\",\"logits\":[0.5]}\n"),
            "0\r\n\r\n".to_string(),
        ]
        .concat()
    }

    #[test]
    fn decodes_whole_body_in_one_feed() {
        let mut decoder = ChunkedNdjson::default();
        let lines = decoder.feed(body().as_bytes()).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"event\":\"step\",\"index\":0}");
        assert_eq!(lines[2], "{\"event\":\"result\",\"logits\":[0.5]}");
        assert!(decoder.is_done());
        assert_eq!(decoder.leftover(), 0);
    }

    #[test]
    fn decodes_byte_by_byte_with_the_same_lines() {
        let mut decoder = ChunkedNdjson::default();
        let mut lines = Vec::new();
        for byte in body().as_bytes() {
            assert!(!decoder.is_done());
            lines.extend(decoder.feed(std::slice::from_ref(byte)).unwrap());
        }
        assert!(decoder.is_done());
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "{\"event\":\"step\",\"index\":1}");
    }

    #[test]
    fn lines_may_span_chunks_and_chunks_may_hold_several_lines() {
        let body = [
            chunk("{\"a\":"),
            chunk("1}\n{\"b\":2}\n"),
            "0\r\n\r\n".to_string(),
        ]
        .concat();
        let mut decoder = ChunkedNdjson::default();
        let lines = decoder.feed(body.as_bytes()).unwrap();
        assert_eq!(
            lines,
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
    }

    #[test]
    fn a_line_is_released_only_once_its_chunk_is_complete() {
        let payload = "{\"event\":\"step\"}\n";
        let framed = chunk(payload);
        let mut decoder = ChunkedNdjson::default();
        let cut = framed.len() - 1;
        assert!(decoder.feed(&framed.as_bytes()[..cut]).unwrap().is_empty());
        assert_eq!(decoder.feed(&framed.as_bytes()[cut..]).unwrap().len(), 1);
        assert!(!decoder.is_done());
    }

    #[test]
    fn malformed_framing_is_an_error() {
        let mut decoder = ChunkedNdjson::default();
        assert!(decoder.feed(b"zz\r\nabc\r\n").is_err());
        let mut decoder = ChunkedNdjson::default();
        assert!(decoder.feed(b"3\r\nabcXY").is_err());
    }

    #[test]
    fn parses_status_length_and_request_id() {
        let head = parse_head(
            b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nX-Request-Id: 41\r\nConnection: keep-alive",
        )
        .unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, Some(12));
        assert_eq!(head.request_id, Some(41));
        assert!(!head.chunked);
        let head = parse_head(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked").unwrap();
        assert!(head.chunked);
    }
}
