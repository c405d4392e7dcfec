//! Framed byte transports.
//!
//! Channels move discrete frames (handshake messages, encrypted records,
//! RPC envelopes).  Two transports are provided: an in-memory duplex pipe
//! for colocated parties and tests, and length-prefixed TCP for loopback or
//! real networks.

use std::sync::mpsc::{channel as unbounded, sync_channel, Receiver, Sender, SyncSender};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Default frame capacity for [`PipeTransport::bounded_pair`]: deep enough
/// to ride out bursts, shallow enough that a stalled consumer stalls its
/// producer instead of growing an unbounded buffer.
pub const DEFAULT_PIPE_CAPACITY: usize = 64;

/// A reliable, ordered, framed byte transport.
pub trait Transport: Send {
    /// Sends one frame.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Receives one frame, blocking.
    fn recv(&mut self) -> io::Result<Vec<u8>>;
}

/// The sending half of a pipe: bounded (production) or unbounded (tests).
enum PipeTx {
    Unbounded(Sender<Vec<u8>>),
    Bounded(SyncSender<Vec<u8>>),
}

/// An in-memory duplex pipe ("implemented without any operating system IPC
/// services", §5.2).
///
/// Production code uses [`PipeTransport::bounded_pair`], whose `send`
/// blocks once `capacity` frames are in flight — real backpressure, like
/// a TCP socket with a full send window.  The unbounded
/// [`PipeTransport::pair`] exists only for tests.
pub struct PipeTransport {
    tx: PipeTx,
    rx: Receiver<Vec<u8>>,
}

impl PipeTransport {
    /// Creates a connected pair of **unbounded** pipe endpoints.
    ///
    /// Tests only: nothing limits how far a producer can run ahead of a
    /// stalled consumer.  Serving paths use
    /// [`PipeTransport::bounded_pair`], which exerts backpressure.
    pub fn pair() -> (PipeTransport, PipeTransport) {
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        (
            PipeTransport {
                tx: PipeTx::Unbounded(atx),
                rx: brx,
            },
            PipeTransport {
                tx: PipeTx::Unbounded(btx),
                rx: arx,
            },
        )
    }

    /// Creates a connected pair of **bounded** pipe endpoints: at most
    /// `capacity` frames may be in flight per direction, after which
    /// `send` blocks until the peer drains (backpressure).
    pub fn bounded_pair(capacity: usize) -> (PipeTransport, PipeTransport) {
        let capacity = capacity.max(1);
        let (atx, arx) = sync_channel(capacity);
        let (btx, brx) = sync_channel(capacity);
        (
            PipeTransport {
                tx: PipeTx::Bounded(atx),
                rx: brx,
            },
            PipeTransport {
                tx: PipeTx::Bounded(btx),
                rx: arx,
            },
        )
    }
}

impl Transport for PipeTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let result = match &self.tx {
            PipeTx::Unbounded(tx) => tx.send(frame.to_vec()).map_err(|_| ()),
            // Blocks while the pipe is at capacity: a slow peer slows the
            // sender instead of growing an unbounded buffer.
            PipeTx::Bounded(tx) => tx.send(frame.to_vec()).map_err(|_| ()),
        };
        result.map_err(|()| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.rx
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"))
    }
}

/// Maximum accepted frame size (prevents a hostile peer from forcing a
/// multi-gigabyte allocation with a forged length prefix).
pub const MAX_FRAME: usize = 64 << 20;

/// Length-prefixed frames over a TCP stream.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected TCP stream.
    pub fn new(stream: TcpStream) -> TcpTransport {
        // Snowflake frames are small and latency-sensitive.
        let _ = stream.set_nodelay(true);
        TcpTransport { stream }
    }
}

/// Reads a frame's length from its 4-byte big-endian prefix, refusing one
/// over [`MAX_FRAME`].
fn frame_len(prefix: [u8; 4]) -> Result<usize, &'static str> {
    let len = u32::from_be_bytes(prefix) as usize;
    (len <= MAX_FRAME)
        .then_some(len)
        .ok_or("frame exceeds MAX_FRAME")
}

/// Scans buffered bytes for one whole frame in the [`TcpTransport`] wire
/// format: `Ok(Some(n))` when the first `n` bytes are one frame (prefix
/// included), `Ok(None)` when more bytes are needed, and `Err` for a
/// length over [`MAX_FRAME`].  A reactor driver's frame scan.
pub fn scan_frame(buf: &[u8]) -> Result<Option<usize>, &'static str> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = frame_len(*prefix)?;
    Ok((buf.len() >= 4 + len).then_some(4 + len))
}

/// One frame in the [`TcpTransport`] wire format (4-byte big-endian length
/// prefix), for bytes a reactor writes raw to a socket.
pub fn length_prefixed(frame: &[u8]) -> Vec<u8> {
    let len = u32::try_from(frame.len()).expect("a frame fits its u32 length prefix");
    let mut out = Vec::with_capacity(4 + frame.len());
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(frame);
    out
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let len: u32 = frame
            .len()
            .try_into()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        self.stream.write_all(&len.to_be_bytes())?;
        self.stream.write_all(frame)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf)?;
        let len =
            frame_len(len_buf).map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))?;
        let mut buf = vec![0u8; len];
        self.stream.read_exact(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn pipe_roundtrip() {
        let (mut a, mut b) = PipeTransport::pair();
        a.send(b"hello").unwrap();
        a.send(b"world").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap(), b"world");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
    }

    #[test]
    fn pipe_detects_closed_peer() {
        let (mut a, b) = PipeTransport::pair();
        drop(b);
        assert!(a.send(b"x").is_err());
        assert!(a.recv().is_err());
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let msg = t.recv().unwrap();
            t.send(&msg).unwrap(); // echo
        });
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        t.send(&payload).unwrap();
        assert_eq!(t.recv().unwrap(), payload);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_rejects_oversize_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Forge a huge length prefix.
            stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        });
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
        assert!(t.recv().is_err());
        handle.join().unwrap();
    }

    /// The reactor's frame scan agrees with what `TcpTransport` writes
    /// and refuses what its `recv` refuses.
    #[test]
    fn scan_frame_reads_the_tcp_wire_format() {
        let frame = length_prefixed(b"hello");
        assert_eq!(scan_frame(&frame[..3]), Ok(None), "prefix incomplete");
        assert_eq!(scan_frame(&frame[..6]), Ok(None), "body incomplete");
        assert_eq!(scan_frame(&frame), Ok(Some(9)));
        assert_eq!(scan_frame(&[frame.clone(), frame].concat()), Ok(Some(9)));
        assert_eq!(scan_frame(&length_prefixed(b"")), Ok(Some(4)));
        assert!(scan_frame(&u32::MAX.to_be_bytes()).is_err());
    }

    #[test]
    fn empty_frames_allowed() {
        let (mut a, mut b) = PipeTransport::pair();
        a.send(b"").unwrap();
        assert_eq!(b.recv().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bounded_pipe_roundtrip_and_close() {
        let (mut a, mut b) = PipeTransport::bounded_pair(4);
        a.send(b"hello").unwrap();
        assert_eq!(b.recv().unwrap(), b"hello");
        b.send(b"reply").unwrap();
        assert_eq!(a.recv().unwrap(), b"reply");
        drop(b);
        assert!(a.send(b"x").is_err());
        assert!(a.recv().is_err());
    }

    #[test]
    fn bounded_pipe_send_blocks_at_capacity() {
        let (mut a, mut b) = PipeTransport::bounded_pair(1);
        a.send(b"one").unwrap();
        let producer = std::thread::spawn(move || {
            a.send(b"two").unwrap();
            a
        });
        // The second send cannot complete until the consumer drains.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!producer.is_finished(), "send must block while the pipe is full");
        assert_eq!(b.recv().unwrap(), b"one");
        producer.join().unwrap();
        assert_eq!(b.recv().unwrap(), b"two");
    }
}
