//! A std-only metrics endpoint: a thread-per-connection TCP listener
//! serving the live registry as Prometheus text exposition
//! (`GET /metrics`) and as a strict-JSON snapshot (`GET /metrics.json`
//! or `/json`).
//!
//! Deliberately minimal HTTP/1.x: one request per connection,
//! `Connection: close`, `Content-Length` always set. The accept loop
//! is non-blocking with a short poll so shutdown needs no platform
//! tricks; each accepted connection is handled on its own thread, so a
//! slow scraper can never stall the accept loop or another scrape.
//! The solver's workers share the machine with these threads, so a
//! client cannot hold many of them, or one for long: at most
//! `MAX_CONNS` connections are live at a time (the next one is told
//! `503` and closed on the spot), and each gets one `CONN_DEADLINE` for
//! its whole exchange, however slowly its bytes trickle in.
//! Scrape handling allocates — it runs on serving threads, far from
//! the workers and the collector, and never touches the trace rings
//! (it reads the registry's counters only).

use crate::export;
use crate::registry::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Accept-loop poll period while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Connection threads alive at a time; a scraper needs one.
const MAX_CONNS: usize = 8;

/// What one connection gets for reading its request and taking the
/// response, start to finish.
const CONN_DEADLINE: Duration = Duration::from_secs(5);

/// Longest request head read before answering `431`.
const MAX_HEAD_BYTES: usize = 8192;

/// How much of itself the server lends to its clients.
#[derive(Clone, Copy)]
struct Limits {
    max_conns: usize,
    deadline: Duration,
}

/// Handle to a running metrics server. Shuts down (and joins the
/// accept loop) on `shutdown` or drop.
pub struct MetricsServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `registry`.
    pub fn bind(addr: &str, registry: Arc<MetricsRegistry>) -> io::Result<MetricsServer> {
        let limits = Limits {
            max_conns: MAX_CONNS,
            deadline: CONN_DEADLINE,
        };
        Self::bind_limited(addr, registry, limits)
    }

    fn bind_limited(
        addr: &str,
        registry: Arc<MetricsRegistry>,
        limits: Limits,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("islands-metrics-http".into())
            .spawn(move || accept_loop(listener, registry, flag, limits))?;
        Ok(MetricsServer {
            local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops accepting and joins the accept loop. In-flight connection
    /// threads finish on their own (bounded by `CONN_DEADLINE`).
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            // ordering: Relaxed — advisory shutdown flag polled by the
            // accept loop; the join below is the completion edge.
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
    limits: Limits,
) {
    // One clone per live connection thread, dropped when it ends
    // (however it ends): the strong count is the census.
    let live = Arc::new(());
    // ordering: Relaxed — advisory flag (see `shutdown`).
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut conn, _peer)) => {
                // Only this thread adds clones, so the cap holds.
                if Arc::strong_count(&live) > limits.max_conns {
                    // Neither call may hold the accept loop up: take in
                    // what the client has already sent (closing over
                    // unread bytes resets the connection, and the answer
                    // with it); a fresh socket's send buffer has room
                    // for these few bytes.
                    let _ = conn.set_nonblocking(true);
                    let _ = conn.read(&mut [0; 1024]);
                    let busy = "all connection slots are busy; retry\n";
                    let _ = respond(&mut conn, "503 Service Unavailable", "text/plain", busy);
                    continue;
                }
                let slot = Arc::clone(&live);
                let registry = Arc::clone(&registry);
                let deadline = Instant::now() + limits.deadline;
                // A failed spawn drops the closure, and the slot with it.
                let _ = thread::Builder::new()
                    .name("islands-metrics-conn".into())
                    .spawn(move || {
                        let _slot = slot;
                        let _ = serve_connection(conn, &registry, deadline);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ACCEPT_POLL);
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// The time left until `deadline`, as a socket timeout.
fn time_left(deadline: Instant) -> io::Result<Option<Duration>> {
    match deadline.checked_duration_since(Instant::now()) {
        Some(left) if !left.is_zero() => Ok(Some(left)),
        _ => Err(io::ErrorKind::TimedOut.into()),
    }
}

fn respond(conn: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes())?;
    conn.write_all(body.as_bytes())?;
    conn.flush()
}

fn serve_connection(
    mut conn: TcpStream,
    registry: &MetricsRegistry,
    deadline: Instant,
) -> io::Result<()> {
    let (status, content_type, body) = match read_request_path(&mut conn, deadline)? {
        Head::Get(path) => route(&path, registry),
        Head::TooLarge => (
            "431 Request Header Fields Too Large",
            "text/plain",
            format!("request head exceeds {MAX_HEAD_BYTES} bytes\n"),
        ),
        Head::Malformed => (
            "400 Bad Request",
            "text/plain",
            "expected `GET <path> HTTP/1.x`\n".to_string(),
        ),
    };
    conn.set_write_timeout(time_left(deadline)?)?;
    respond(&mut conn, status, content_type, &body)
}

/// What the client asked for.
enum Head {
    /// `GET <path>`.
    Get(String),
    /// No blank line within [`MAX_HEAD_BYTES`].
    TooLarge,
    /// Anything else, an early end of stream included.
    Malformed,
}

/// Reads the request head — every read under what is left of
/// `deadline`, each new chunk scanned for the blank line once.
fn read_request_path(conn: &mut TcpStream, deadline: Instant) -> io::Result<Head> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        conn.set_read_timeout(time_left(deadline)?)?;
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        // The terminator may straddle the previous chunk's last bytes.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if buf[from..].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Ok(Head::TooLarge);
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    Ok(match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Head::Get(path.to_string()),
        _ => Head::Malformed,
    })
}

fn route(path: &str, registry: &MetricsRegistry) -> (&'static str, &'static str, String) {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" | "/" => match export::prometheus(&registry.snapshot()) {
            Ok(body) => ("200 OK", "text/plain; version=0.0.4", body),
            Err(e) => ("500 Internal Server Error", "text/plain", format!("{e}\n")),
        },
        "/metrics.json" | "/json" => match export::render_json_snapshot(&registry.snapshot()) {
            Ok(body) => ("200 OK", "application/json", body),
            Err(e) => ("500 Internal Server Error", "text/plain", format!("{e}\n")),
        },
        _ => (
            "404 Not Found",
            "text/plain",
            "not found; try /metrics or /metrics.json\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn try_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
        let mut conn = TcpStream::connect(addr)?;
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")?;
        let mut text = String::new();
        conn.read_to_string(&mut text)?;
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        Ok((head.to_string(), body.to_string()))
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        try_get(addr, path).unwrap()
    }

    #[test]
    fn serves_prometheus_json_and_404() {
        let registry = Arc::new(MetricsRegistry::new(2));
        registry.note_step(9);
        let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        crate::export::validate_exposition(&body).unwrap();
        assert!(body.contains("islands_current_step 9"));

        let (head, body) = get(addr, "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(doc.get("current_step"), Some(&json::Json::Num(9.0)));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
        // Shutdown is idempotent and the port is released.
        server.shutdown();
    }

    /// A server that lends four connection slots for 300 ms each.
    fn tight_server() -> (MetricsServer, Limits) {
        let limits = Limits {
            max_conns: 4,
            deadline: Duration::from_millis(300),
        };
        let registry = Arc::new(MetricsRegistry::new(1));
        let server = MetricsServer::bind_limited("127.0.0.1:0", registry, limits).unwrap();
        (server, limits)
    }

    /// Retries while the slots are busy — `503`, or a reset when the
    /// refusal crossed the request on the wire; the first other answer.
    fn get_when_free(addr: SocketAddr, path: &str) -> String {
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            match try_get(addr, path) {
                Ok((head, _)) if !head.starts_with("HTTP/1.1 503") => return head,
                busy => assert!(Instant::now() < give_up, "slots never freed: {busy:?}"),
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn idle_connections_are_capped_and_expire() {
        let (server, limits) = tight_server();
        let addr = server.local_addr();
        // 64 clients connect and say nothing.
        let mut idle: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
        // All but `max_conns` of them are refused on the spot: told so
        // and closed, while the admitted ones have nothing to read yet.
        let mut refused = 0;
        for conn in &mut idle {
            conn.set_read_timeout(Some(Duration::from_millis(10)))
                .unwrap();
            let mut text = String::new();
            if conn.read_to_string(&mut text).is_ok() && text.starts_with("HTTP/1.1 503") {
                refused += 1;
            }
        }
        assert!(refused >= 64 - limits.max_conns, "only {refused} refused");
        // With every client still holding its socket, the deadline
        // frees the slots and a scrape is answered.
        let head = get_when_free(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        drop(idle);
    }

    #[test]
    fn a_trickled_head_gets_one_deadline_not_one_per_byte() {
        let (server, limits) = tight_server();
        let addr = server.local_addr();
        let mut loris = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        // A byte every 20 ms: each read succeeds well inside the
        // deadline, the head never completes.
        let mut sent = 0;
        let cut = loop {
            if loris.write_all(b"G").is_err() {
                break started.elapsed();
            }
            sent += 1;
            // A scrape beside the trickle is answered meanwhile.
            if sent == 3 {
                let (head, _) = get(addr, "/metrics");
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            }
            assert!(sent < 2000, "still accepted after {:?}", started.elapsed());
            thread::sleep(Duration::from_millis(20));
        };
        assert!(cut >= limits.deadline, "cut early, after {cut:?}");
        assert!(cut < limits.deadline * 20, "held for {cut:?}");
    }

    #[test]
    fn oversized_and_malformed_heads_are_told_so() {
        let (server, _) = tight_server();
        let addr = server.local_addr();
        let exchange = |request: &[u8]| {
            let mut conn = TcpStream::connect(addr).unwrap();
            // The server may answer and close before the last bytes of
            // an oversized head are written.
            let _ = conn.write_all(request);
            let mut text = String::new();
            let _ = conn.read_to_string(&mut text);
            text
        };
        // 9 KiB of header and no blank line.
        let mut head = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(9 * 1024, b'a');
        assert!(exchange(&head).starts_with("HTTP/1.1 431"));
        assert!(exchange(b"POST /metrics HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 400"));
        // A terminator split across two writes (and two reads) is found.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /json HTTP/1.1\r\nHost: x\r\n\r")
            .unwrap();
        thread::sleep(Duration::from_millis(30));
        conn.write_all(b"\n").unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        let head = get_when_free(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    }
}
