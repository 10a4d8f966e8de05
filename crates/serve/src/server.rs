//! Transport: JSONL over stdin/stdout or a Unix domain socket.
//!
//! The daemon reads request lines, accumulates up to `batch_size` of
//! them, hands the batch to the [`Engine`], and writes the responses —
//! one JSON document per line, sorted by request id — before reading
//! on. A `{"op":"shutdown"}` request flushes its batch immediately and
//! ends the session (and, for the socket transport, the daemon), so a
//! client that terminates its burst with a shutdown request never
//! blocks waiting for the batch to fill. Clients that keep the daemon
//! running instead end a burst by closing (or half-closing) their
//! stream.
//!
//! Both transports share one engine and therefore one cache, journal
//! and stats stream; the transport never touches response bytes, so
//! stdin-driven gates and socket clients observe identical documents.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;

use crate::engine::Engine;

/// Default maximum batch size: bounds queue depth (and therefore
/// memory) without starving the work-pull executor of parallelism.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// Longest request line the transports accept, in bytes, line ending
/// excluded. A longer line is answered with a per-line error and the
/// rest of it is read and discarded, so no line holds more memory than
/// this.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Reads the next line into `buf`, without its `\n` or `\r\n`,
/// keeping at most [`MAX_REQUEST_BYTES`] of it. `None` at end of input;
/// `Some(Err(reason))` for a line that is too long or not UTF-8.
fn read_request<'b, R: BufRead>(
    input: &mut R,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Result<&'b str, String>>> {
    buf.clear();
    let mut read_any = false;
    let mut oversize = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            if !read_any {
                return Ok(None);
            }
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        // One byte of slack keeps the `\r` of a CRLF line at the cap.
        if oversize || buf.len() + take > MAX_REQUEST_BYTES + 1 {
            oversize = true;
            buf.clear();
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            break;
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    if oversize || buf.len() > MAX_REQUEST_BYTES {
        return Ok(Some(Err(format!(
            "request line exceeds {MAX_REQUEST_BYTES} bytes"
        ))));
    }
    Ok(Some(
        std::str::from_utf8(buf).map_err(|_| "request line is not valid UTF-8".to_owned()),
    ))
}

/// Serves one line-oriented session. Returns `Ok(true)` if a shutdown
/// request ended it, `Ok(false)` on end-of-input.
///
/// A line that cannot be read as a request — longer than
/// [`MAX_REQUEST_BYTES`] or not UTF-8 — flushes the batch read before
/// it and is then answered with a `"status":"error"` response of its
/// own; the session goes on.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &mut Engine,
    mut input: R,
    output: &mut W,
    batch_size: usize,
) -> io::Result<bool> {
    let batch_size = batch_size.max(1);
    let mut batch: Vec<String> = Vec::with_capacity(batch_size);
    let mut buf = Vec::new();
    loop {
        batch.clear();
        let mut ended = false;
        let mut unreadable = None;
        while batch.len() < batch_size {
            match read_request(&mut input, &mut buf)? {
                Some(Ok(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    // A shutdown request flushes the batch now: the
                    // client is done sending and is waiting on us.
                    let flush = matches!(
                        crate::spec::parse_request(line, 0),
                        Ok(crate::spec::Request::Shutdown { .. })
                    );
                    batch.push(line.to_owned());
                    if flush {
                        break;
                    }
                }
                Some(Err(reason)) => {
                    unreadable = Some(reason);
                    break;
                }
                None => {
                    ended = true;
                    break;
                }
            }
        }
        if !batch.is_empty() {
            let out = engine.process_batch(&batch)?;
            for r in &out.responses {
                writeln!(output, "{}", r.render())?;
            }
            if out.shutdown {
                output.flush()?;
                return Ok(true);
            }
        }
        if let Some(reason) = unreadable {
            writeln!(output, "{}", engine.reject_line(&reason).render())?;
        }
        output.flush()?;
        if ended {
            return Ok(false);
        }
    }
}

/// Binds `socket` and serves connections sequentially until a client
/// sends a shutdown request. The socket file is removed first (stale
/// daemon leftovers) and on clean shutdown.
pub fn serve_unix(engine: &mut Engine, socket: &Path, batch_size: usize) -> io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    for conn in listener.incoming() {
        let stream = conn?;
        let mut writer = stream.try_clone()?;
        let reader = BufReader::new(stream);
        if serve_lines(engine, reader, &mut writer, batch_size)? {
            break;
        }
    }
    let _ = std::fs::remove_file(socket);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn line_session_answers_in_id_order_and_honours_shutdown() {
        let input = concat!(
            "{\"id\":2,\"design\":\"rca16\"}\n",
            "{\"id\":1,\"design\":\"rca16\"}\n",
            "\n",
            "{\"op\":\"shutdown\",\"id\":3}\n",
            "{\"id\":4,\"design\":\"rca16\"}\n",
        );
        let mut out = Vec::new();
        let shutdown = serve_lines(
            &mut engine(),
            BufReader::new(input.as_bytes()),
            &mut out,
            64,
        )
        .unwrap();
        assert!(shutdown);
        let text = String::from_utf8(out).unwrap();
        let ids: Vec<&str> = text.lines().map(|l| &l[..l.find(',').unwrap()]).collect();
        // id 4 sits after the shutdown and is never served.
        assert_eq!(ids, vec!["{\"id\":1", "{\"id\":2", "{\"id\":3"]);
    }

    #[test]
    fn batch_size_one_still_serves_everything() {
        let input = "{\"id\":1,\"design\":\"rca16\"}\n{\"id\":2,\"design\":\"rca16\"}\n";
        let mut out = Vec::new();
        let shutdown =
            serve_lines(&mut engine(), BufReader::new(input.as_bytes()), &mut out, 1).unwrap();
        assert!(!shutdown);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        // Second line was a cache hit on the first's result: identical
        // bodies behind different ids.
        let strip = |l: &str| l[l.find(',').unwrap()..].to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(strip(lines[0]), strip(lines[1]));
    }

    /// Runs one session over raw bytes and returns its response lines.
    fn session(input: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        serve_lines(&mut engine(), BufReader::new(input), &mut out, 64).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn a_non_utf8_line_is_answered_and_the_session_goes_on() {
        let mut input = b"{\"id\":7,\"design\":\"rca16\"}\n".to_vec();
        input.extend_from_slice(b"{\"design\":\"rca\xff16\"}\n");
        input.extend_from_slice(b"{\"id\":9,\"design\":\"rca16\"}\r\n");
        let lines = session(&input);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(
            lines[0].starts_with("{\"id\":7,\"status\":\"ok\""),
            "{}",
            lines[0]
        );
        // The error takes the next running id: one line was read before.
        assert_eq!(
            lines[1],
            "{\"id\":1,\"status\":\"error\",\"error\":\"request line is not valid UTF-8\"}"
        );
        assert!(
            lines[2].starts_with("{\"id\":9,\"status\":\"ok\""),
            "{}",
            lines[2]
        );
    }

    #[test]
    fn an_oversize_line_is_answered_and_skipped_in_bounded_memory() {
        let mut input = vec![b'x'; 1 << 20];
        input.extend_from_slice(b"\n{\"id\":5,\"design\":\"rca16\"}\n");
        let lines = session(&input);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(
            lines[0],
            format!(
                "{{\"id\":0,\"status\":\"error\",\"error\":\"request line exceeds \
                 {MAX_REQUEST_BYTES} bytes\"}}"
            )
        );
        assert!(
            lines[1].starts_with("{\"id\":5,\"status\":\"ok\""),
            "{}",
            lines[1]
        );

        // The line buffer never grows past the cap while it skips.
        let mut reader = BufReader::new(&input[..]);
        let mut buf = Vec::new();
        let first = read_request(&mut reader, &mut buf).unwrap();
        assert!(matches!(first, Some(Err(_))));
        assert!(
            buf.capacity() <= 2 * MAX_REQUEST_BYTES,
            "{}",
            buf.capacity()
        );
        let second = read_request(&mut reader, &mut buf).unwrap();
        assert_eq!(second, Some(Ok("{\"id\":5,\"design\":\"rca16\"}")));
        assert_eq!(read_request(&mut reader, &mut buf).unwrap(), None);
    }

    #[test]
    fn a_line_at_the_cap_is_still_read() {
        let line = "a".repeat(MAX_REQUEST_BYTES);
        for ending in ["", "\n", "\r\n"] {
            let input = format!("{line}{ending}");
            let mut reader = BufReader::new(input.as_bytes());
            let mut buf = Vec::new();
            let read = read_request(&mut reader, &mut buf).unwrap();
            assert_eq!(read, Some(Ok(line.as_str())), "ending {ending:?}");
        }
        // One byte more is over the cap, whatever the line ending.
        for ending in ["", "\n", "\r\n"] {
            let input = format!("{line}a{ending}");
            let mut reader = BufReader::new(input.as_bytes());
            let mut buf = Vec::new();
            let read = read_request(&mut reader, &mut buf).unwrap();
            assert!(matches!(read, Some(Err(_))), "ending {ending:?}");
        }
    }

    #[test]
    fn unix_socket_round_trip() {
        let mut path = std::env::temp_dir();
        path.push(format!("timber-serve-sock-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server_path = path.clone();
        let server = std::thread::spawn(move || {
            let mut e = engine();
            serve_unix(&mut e, &server_path, 8).unwrap();
        });
        // Wait for the listener to bind.
        let mut stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        stream
            .write_all(b"{\"id\":1,\"design\":\"rca16\"}\n{\"op\":\"shutdown\",\"id\":2}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut first = String::new();
        reader.read_line(&mut first).unwrap();
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        let mut second = String::new();
        reader.read_line(&mut second).unwrap();
        assert!(second.contains("\"shutdown\":true"), "{second}");
        server.join().unwrap();
        assert!(!path.exists());
    }
}
