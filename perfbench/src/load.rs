//! Load generation over one real unix-socket connection to the server.

use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use culinaria::serve::protocol::{read_frame, split_response, MAX_FRAME};

/// Append one frame (little-endian length + payload) to `buf`.
fn push_frame(buf: &mut Vec<u8>, id: u64, body: &str) {
    let payload = format!("{id} {body}");
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload.as_bytes());
}

fn recv(reader: &mut impl Read) -> io::Result<(u64, String)> {
    let frame = read_frame(reader, MAX_FRAME)
        .map_err(|e| io::Error::other(e.to_string()))?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    split_response(&frame).ok_or_else(|| io::Error::other("malformed reply frame"))
}

/// Connect, retrying while the server is still binding, for up to
/// `patience`.
pub fn connect(path: &str, patience: Duration) -> io::Result<UnixStream> {
    let t = Instant::now();
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) if t.elapsed() > patience => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

/// Send every request at once (pipelined) and wait for all replies.
/// Replies come back in request order, with their id stripped.
pub fn call_all(stream: &UnixStream, bodies: &[String]) -> io::Result<Vec<String>> {
    let mut buf = Vec::new();
    for (i, b) in bodies.iter().enumerate() {
        push_frame(&mut buf, i as u64, b);
    }
    (&*stream).write_all(&buf)?;
    let mut reader = BufReader::new(stream);
    let mut out = vec![String::new(); bodies.len()];
    for _ in 0..bodies.len() {
        let (id, rest) = recv(&mut reader)?;
        let slot = out
            .get_mut(id as usize)
            .ok_or_else(|| io::Error::other(format!("reply to unknown id {id}")))?;
        *slot = rest;
    }
    Ok(out)
}

/// Outcome of one paced or closed-loop run.
#[derive(Debug, Default)]
pub struct Run {
    /// Per request: reply received minus its due time (open loop) or
    /// send time (closed loop), in ms.
    pub latency_ms: Vec<f64>,
    /// Per request, in request order: the reply with its id stripped.
    pub replies: Vec<String>,
    /// Per request: how late the sender wrote it, in ms (open loop).
    pub lateness_ms: Vec<f64>,
    /// Requests sent but not yet answered when the last one was sent.
    pub backlog_at_end: usize,
    /// First due time to last reply.
    pub elapsed: Duration,
}

impl Run {
    /// Replies answered `BUSY` (shed by the server's bounded queue).
    pub fn busy(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| r.starts_with("BUSY"))
            .count()
    }

    /// Replies answered `ERR`.
    pub fn errs(&self) -> usize {
        self.replies.iter().filter(|r| r.starts_with("ERR")).count()
    }

    /// The generator fell behind its schedule: the run does not measure
    /// the offered rate, so it is not a result.
    pub fn generator_behind(&self) -> bool {
        crate::stats::median(&self.lateness_ms) > 0.5
            || self.lateness_ms.iter().copied().fold(0.0, f64::max) > 20.0
    }
}

/// Open loop at `rate_rps` over one connection: a sender thread writes
/// request `i` at `start + i / rate` (every request already due goes
/// out in one write), a receiver thread reads replies. Latency counts
/// from the due time, so a stall of the sender or the server is
/// charged to every request it delays.
pub fn open_loop(stream: &UnixStream, bodies: &[String], rate_rps: f64) -> io::Result<Run> {
    let n = bodies.len();
    let period = Duration::from_secs_f64(1.0 / rate_rps);
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + period.mul_f64(i as f64);
    let mut writer = stream.try_clone()?;
    let reader = stream.try_clone()?;
    let (sent, got) = std::thread::scope(|scope| {
        let received = &received;
        let sender = scope.spawn(move || -> io::Result<(Vec<f64>, usize)> {
            let mut lateness = Vec::with_capacity(n);
            let mut buf = Vec::new();
            let mut next = 0;
            while next < n {
                let now = Instant::now();
                let d = due(next);
                if d > now {
                    std::thread::sleep(d - now);
                    continue;
                }
                buf.clear();
                while next < n && due(next) <= now {
                    push_frame(&mut buf, next as u64, &bodies[next]);
                    lateness.push((now - due(next)).as_secs_f64() * 1e3);
                    next += 1;
                }
                writer.write_all(&buf)?;
            }
            Ok((lateness, n - received.load(Ordering::Relaxed)))
        });
        let receiver = scope.spawn(move || -> io::Result<(Vec<f64>, Vec<String>, Instant)> {
            let mut reader = BufReader::with_capacity(1 << 16, reader);
            let mut lat = vec![f64::NAN; n];
            let mut replies = vec![String::new(); n];
            for k in 0..n {
                let (id, rest) = recv(&mut reader)?;
                let now = Instant::now();
                let i = id as usize;
                if i >= n || !replies[i].is_empty() {
                    return Err(io::Error::other(format!("unexpected reply id {id}")));
                }
                lat[i] = (now - due(i)).as_secs_f64() * 1e3;
                replies[i] = rest;
                received.store(k + 1, Ordering::Relaxed);
            }
            Ok((lat, replies, Instant::now()))
        });
        let sent = sender
            .join()
            .map_err(|_| io::Error::other("sender panicked"));
        let got = receiver
            .join()
            .map_err(|_| io::Error::other("receiver panicked"));
        (sent, got)
    });
    let (lateness_ms, backlog_at_end) = sent??;
    let (latency_ms, replies, end) = got??;
    Ok(Run {
        latency_ms,
        replies,
        lateness_ms,
        backlog_at_end,
        elapsed: end - start,
    })
}

/// Closed loop over one connection: at most `window` requests in
/// flight, the next sent as soon as a reply arrives.
pub fn closed_loop(stream: &UnixStream, bodies: &[String], window: usize) -> io::Result<Run> {
    let n = bodies.len();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut sent_at = vec![Instant::now(); n];
    let mut lat = vec![f64::NAN; n];
    let mut replies = vec![String::new(); n];
    let start = Instant::now();
    let mut next = 0;
    let mut buf = Vec::new();
    let mut send_upto =
        |upto: usize, next: &mut usize, sent_at: &mut [Instant]| -> io::Result<()> {
            buf.clear();
            let now = Instant::now();
            while *next < upto.min(n) {
                push_frame(&mut buf, *next as u64, &bodies[*next]);
                sent_at[*next] = now;
                *next += 1;
            }
            writer.write_all(&buf)
        };
    send_upto(window, &mut next, &mut sent_at)?;
    for k in 0..n {
        let (id, rest) = recv(&mut reader)?;
        let i = id as usize;
        if i >= n || !replies[i].is_empty() {
            return Err(io::Error::other(format!("unexpected reply id {id}")));
        }
        lat[i] = sent_at[i].elapsed().as_secs_f64() * 1e3;
        replies[i] = rest;
        send_upto(k + 1 + window, &mut next, &mut sent_at)?;
    }
    Ok(Run {
        latency_ms: lat,
        replies,
        lateness_ms: Vec::new(),
        backlog_at_end: 0,
        elapsed: start.elapsed(),
    })
}
