//! Client-side plumbing over loopback TCP: a keep-alive HTTP connection
//! that sends prebuilt request bytes, and a framed transport that counts
//! bytes and remembers when its last frame went out and came back.

use crate::trace::Tracer;
use snowflake::channel::{TcpTransport, Transport};
use snowflake::http::{HttpRequest, HttpResponse};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A `Read` that counts what passes through it.
struct CountingReader {
    inner: TcpStream,
    bytes: usize,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        Ok(n)
    }
}

/// One keep-alive HTTP connection.
pub struct HttpConn {
    write: TcpStream,
    read: BufReader<CountingReader>,
}

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> io::Result<HttpConn> {
        let write = TcpStream::connect(addr)?;
        write.set_nodelay(true)?;
        let inner = write.try_clone()?;
        Ok(HttpConn {
            write,
            read: BufReader::new(CountingReader { inner, bytes: 0 }),
        })
    }

    /// Sends already-serialized request bytes and reads one response,
    /// returning it with the bytes moved in both directions.  With a
    /// tracer, records `client.write`, `client.wait` (until the first
    /// response byte) and `client.parse`.
    pub fn send_raw(
        &mut self,
        request: &[u8],
        tracer: Option<&mut Tracer>,
    ) -> io::Result<(HttpResponse, u32)> {
        let before = self.read.get_ref().bytes;
        let t0 = Instant::now();
        self.write.write_all(request)?;
        let t1 = Instant::now();
        if self.read.fill_buf()?.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let t2 = Instant::now();
        let resp = HttpResponse::read_from(&mut self.read)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        if let Some(t) = tracer {
            t.record("client.write", None, t0, t1);
            t.record("client.wait", None, t1, t2);
            t.record("client.parse", None, t2, Instant::now());
        }
        let moved = request.len() + self.read.get_ref().bytes - before;
        Ok((resp, moved as u32))
    }

    /// Serializes and sends a request (set-up traffic).
    pub fn send(&mut self, req: &HttpRequest) -> io::Result<HttpResponse> {
        self.send_raw(&request_bytes(req), None)
            .map(|(resp, _)| resp)
    }
}

pub fn request_bytes(req: &HttpRequest) -> Vec<u8> {
    let mut out = Vec::new();
    req.write_to(&mut out).expect("serialize to a Vec");
    out
}

/// What the [`ProbeTransport`] saw last.
#[derive(Default, Clone, Copy)]
pub struct Probe {
    pub bytes: u64,
    pub sent: Option<(Instant, Instant)>,
    pub received: Option<Instant>,
}

/// A `TcpTransport` that counts wire bytes (length prefixes included) and
/// timestamps its last send and receive, for client spans around an
/// `RmiClient` that owns the channel.
pub struct ProbeTransport {
    inner: TcpTransport,
    probe: Arc<Mutex<Probe>>,
}

impl ProbeTransport {
    pub fn connect(addr: SocketAddr) -> io::Result<(ProbeTransport, Arc<Mutex<Probe>>)> {
        let probe = Arc::new(Mutex::new(Probe::default()));
        let inner = TcpTransport::new(TcpStream::connect(addr)?);
        Ok((
            ProbeTransport {
                inner,
                probe: Arc::clone(&probe),
            },
            probe,
        ))
    }
}

impl Transport for ProbeTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        self.inner.send(frame)?;
        let mut p = self.probe.lock().expect("probe poisoned");
        p.bytes += frame.len() as u64 + 4;
        p.sent = Some((start, Instant::now()));
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let frame = self.inner.recv()?;
        let mut p = self.probe.lock().expect("probe poisoned");
        p.bytes += frame.len() as u64 + 4;
        p.received = Some(Instant::now());
        Ok(frame)
    }
}
