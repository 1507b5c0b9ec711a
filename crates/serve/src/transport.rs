//! Where connections come from: [`run`] serves a [`Server`] over a
//! [`Listener`] until its input ends or shutdown.
//!
//! Stdio is one unarmed connection, with no signal handler installed.
//! A socket gets one thread per connection and the operational
//! hardening of `DESIGN.md` §15: a clobber guard on bind, SIGINT/SIGTERM
//! (or the caller's [`ShutdownFlag`]) draining accepted requests before
//! the socket is unlinked, the
//! [`ServeConfig::max_conns`](crate::ServeConfig::max_conns) cap, [`arm`]ed
//! deadlines, and backoff on accept failures. A connection's slot is
//! taken in the accept loop, before its thread starts, so a burst of
//! queued connects cannot overshoot the cap.
//!
//! Progress and per-connection failures go to stderr, prefixed
//! `serve:`; an error that ends the run is returned instead.

use std::io::{self, ErrorKind};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::time::Duration;

use culinaria_stats::fault;

use crate::deadline::arm;
use crate::lifecycle::ShutdownFlag;
use crate::protocol::{encode_conn_limit, write_frame};
use crate::server::Server;

/// How often the accept loop polls for connections and the shutdown
/// flag, and the base of the accept-failure backoff.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Consecutive accept failures tolerated (with capped exponential
/// backoff between retries) before the server gives up. Transient
/// conditions — fd exhaustion, aborted handshakes — clear well inside
/// this horizon; only a persistently broken listener is fatal.
pub const MAX_ACCEPT_ERRORS: u32 = 8;

/// The transport `culinaria serve` listens on. No network — queries
/// arrive framed over stdin/stdout or a unix-domain socket.
#[derive(Debug, PartialEq, Eq)]
pub enum Listener {
    /// One connection on stdin/stdout.
    Stdio,
    /// A unix-domain socket at `path`; `force_bind` replaces a live
    /// server answering there.
    Socket { path: String, force_bind: bool },
}

/// Serve `server` over `listener` until the input ends (stdio) or
/// `shutdown` trips (socket; SIGINT/SIGTERM trip it too). See the
/// module docs for what each transport guarantees.
///
/// # Errors
/// The stdio connection's transport error; for a socket, a refused or
/// failed bind, or [`MAX_ACCEPT_ERRORS`] accept failures in a row.
pub fn run(server: &Server<'_>, listener: &Listener, shutdown: &ShutdownFlag) -> io::Result<()> {
    match listener {
        Listener::Stdio => {
            let stats = server
                .serve_connection(io::stdin().lock(), io::stdout())
                .map_err(|e| context(e, "transport error"))?;
            eprintln!(
                "serve: connection closed ({} served, {} shed, {} protocol errors)",
                stats.served, stats.shed, stats.protocol_errors
            );
            Ok(())
        }
        Listener::Socket { path, force_bind } => {
            let listener = bind(path, *force_bind)?;
            let shutdown = shutdown.with_signal_handlers();
            eprintln!("serve: listening on {path}");
            let result = accept_loop(server, &listener, &shutdown);
            let _ = std::fs::remove_file(path);
            result
        }
    }
}

/// Prefix an error's message, keeping its kind.
fn context(e: io::Error, what: &str) -> io::Error {
    io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// Bind a non-blocking listener at `path` behind the clobber guard.
fn bind(path: &str, force_bind: bool) -> io::Result<UnixListener> {
    if Path::new(path).exists() {
        // Only replace a socket nobody answers on. A successful connect
        // means a live server; clobbering it would steal its clients.
        if UnixStream::connect(path).is_ok() {
            if !force_bind {
                return Err(io::Error::new(
                    ErrorKind::AddrInUse,
                    format!(
                        "{path}: a live server is answering on this socket; \
                         refusing to replace it (pass --force-bind to override)"
                    ),
                ));
            }
            eprintln!("serve: {path}: replacing a live server (--force-bind)");
        }
        std::fs::remove_file(path)
            .map_err(|e| context(e, &format!("cannot remove stale socket {path}")))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| context(e, &format!("cannot bind {path}")))?;
    // Non-blocking accepts let the loop poll the shutdown flag; the
    // accepted streams are switched back to blocking (with deadline
    // timeouts) in the loop.
    listener
        .set_nonblocking(true)
        .map_err(|e| context(e, &format!("cannot poll {path}")))?;
    Ok(listener)
}

/// Accept until shutdown, one scoped thread per connection. Returning
/// joins every connection thread, so accepted work is answered first.
fn accept_loop(
    server: &Server<'_>,
    listener: &UnixListener,
    shutdown: &ShutdownFlag,
) -> io::Result<()> {
    let cfg = *server.config();
    // Every accept call, for the `serve.accept` fault probe's index.
    let mut attempts = 0usize;
    let mut errors = 0u32;
    std::thread::scope(|scope| loop {
        if shutdown.is_triggered() {
            eprintln!("serve: shutdown signal received; draining connections");
            return Ok(());
        }
        let accepted = fault::probe("serve.accept", attempts)
            .map_err(io::Error::other)
            .and_then(|()| listener.accept());
        attempts += 1;
        let stream = match accepted {
            Ok((stream, _)) => {
                errors = 0;
                stream
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            }
            Err(e) => {
                errors += 1;
                if errors >= MAX_ACCEPT_ERRORS {
                    return Err(context(
                        e,
                        &format!("accept failed {errors} times in a row, giving up"),
                    ));
                }
                let backoff = ACCEPT_POLL * 2u32.pow(errors.min(6));
                eprintln!("serve: accept failed ({e}); retrying in {backoff:?}");
                std::thread::sleep(backoff);
                continue;
            }
        };
        let Some(slot) = server.claim_connection(cfg.max_conns) else {
            let mut stream = stream;
            let _ = write_frame(&mut stream, encode_conn_limit(cfg.max_conns).as_bytes());
            continue; // dropping the stream closes it
        };
        // Arm the per-connection deadlines, and make reads blocking
        // again so the poll tick (not O_NONBLOCK) paces them.
        if let Err(e) = stream
            .set_nonblocking(false)
            .and_then(|()| arm(&stream, &cfg))
        {
            eprintln!("serve: cannot arm connection deadlines: {e}");
            continue;
        }
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("serve: cannot clone socket: {e}");
                continue;
            }
        };
        scope.spawn(move || {
            let _slot = slot;
            if let Err(e) = server.serve_until(reader, stream, shutdown) {
                eprintln!("serve: transport error: {e}");
            }
        });
    })
}
