//! The socket transport driven in-process through `transport::run`: the
//! connection cap under a connect burst, the clobber guard, graceful
//! shutdown through a `ShutdownFlag`, and (under `fault-injection`) the
//! `serve.write` and `serve.accept` probes: reply-path faults, accept
//! backoff and give-up.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use culinaria_serve::protocol::Client;
use culinaria_serve::transport::{self, Listener};
use culinaria_serve::{ServeConfig, Server, ShutdownFlag};

mod common;
use common::{server_over, tiny_world};

/// The fault plan registry is process-global: an installed plan fires
/// in every connection of this process, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A fresh socket path for one test.
fn socket(name: &str) -> (PathBuf, Listener) {
    let path = std::env::temp_dir().join(format!(
        "culinaria-transport-{name}-{}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let listener = Listener::Socket {
        path: path.to_str().expect("utf-8 path").to_owned(),
        force_bind: false,
    };
    (path, listener)
}

/// Serve on a background thread while `client` runs; the shutdown flag
/// trips when `client` returns (or panics, so a failing test ends
/// instead of hanging) and the run must then end cleanly.
fn serving<R>(
    server: &Server<'_>,
    listener: &Listener,
    client: impl FnOnce(&ShutdownFlag) -> R,
) -> R {
    struct TripOnDrop<'f>(&'f ShutdownFlag);
    impl Drop for TripOnDrop<'_> {
        fn drop(&mut self) {
            self.0.trigger();
        }
    }
    let shutdown = ShutdownFlag::new();
    std::thread::scope(|scope| {
        let run = scope.spawn(|| transport::run(server, listener, &shutdown));
        let out = {
            let _trip = TripOnDrop(&shutdown);
            client(&shutdown)
        };
        run.join().expect("run thread").expect("clean shutdown");
        out
    })
}

/// Connect as soon as the listener is bound.
fn connect_when_up(path: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return stream,
            Err(e) if Instant::now() > deadline => panic!("listener never came up: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

#[test]
fn connection_burst_cannot_overshoot_max_conns() {
    let _serial = serial();
    let world = tiny_world();
    let cfg = ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    };
    let server = server_over(&world, cfg);
    let (path, listener) = socket("burst");
    let n = 4;
    serving(&server, &listener, |_| {
        // All connects land in the backlog back-to-back, before the
        // accept loop has started a thread for any of them.
        let mut clients = vec![Client::new(connect_when_up(&path))];
        for _ in 1..n {
            clients.push(Client::new(UnixStream::connect(&path).expect("connect")));
        }
        let mut served = 0;
        let mut refused = 0;
        for (id, client) in clients.iter_mut().enumerate() {
            // A refused client may already be closed: the write can
            // fail, the conn-limit frame is still there to read.
            let _ = client.send(&format!("{id} PING"));
            match client.recv().expect("a reply frame").expect("not EOF") {
                (rid, rest) if rest == "OK pong" => {
                    assert_eq!(rid, id as u64);
                    served += 1;
                }
                (0, rest) if rest.starts_with("ERR conn-limit ") => refused += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!((served, refused), (1, n - 1));
    });
    assert!(!path.exists(), "socket file must be unlinked");
}

#[test]
fn shutdown_flag_drains_accepted_requests_then_unlinks_the_socket() {
    let _serial = serial();
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (path, listener) = socket("drain");
    serving(&server, &listener, |shutdown| {
        let mut client = Client::new(connect_when_up(&path));
        // One round trip proves the connection was accepted.
        assert_eq!(client.call(99, "PING").unwrap(), "OK pong");
        for id in 1..=5u64 {
            client.send(&format!("{id} PING")).unwrap();
        }
        shutdown.trigger();
        let mut answered = Vec::new();
        while let Some((id, rest)) = client.recv().unwrap() {
            assert_eq!(rest, "OK pong");
            answered.push(id);
        }
        answered.sort_unstable();
        assert_eq!(answered, vec![1, 2, 3, 4, 5]);
    });
    let snap = server.metrics().snapshot();
    assert_eq!(snap.counter("serve.requests"), Some(6));
    assert!(!path.exists(), "socket file must be unlinked");
}

#[test]
fn clobber_guard_refuses_a_live_socket_and_replaces_a_stale_one() {
    let _serial = serial();
    let world = tiny_world();
    let server = server_over(&world, ServeConfig::default());
    let (path, listener) = socket("clobber");
    // A stale file from a dead process: nobody answers, so it goes.
    drop(std::os::unix::net::UnixListener::bind(&path).expect("stale bind"));
    assert!(path.exists());
    serving(&server, &listener, |_| {
        let mut client = Client::new(connect_when_up(&path));
        assert_eq!(client.call(1, "PING").unwrap(), "OK pong");
        // A second server on the live path is refused.
        let err = transport::run(&server, &listener, &ShutdownFlag::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("refusing to replace"), "{err}");
        assert_eq!(client.call(2, "PING").unwrap(), "OK pong");
    });
    assert!(!path.exists(), "socket file must be unlinked");
}

#[cfg(feature = "fault-injection")]
mod faults {
    use super::*;
    use common::{deadline_cfg, with_connection};
    use culinaria_serve::arm;
    use culinaria_serve::transport::MAX_ACCEPT_ERRORS;
    use culinaria_stats::fault::{self, FaultKind, FaultPlan};

    /// With the `serve.write` probe armed, a reply-path failure kills that
    /// connection (reader stops via the dead flag) but never the server.
    #[test]
    fn injected_write_fault_kills_the_connection_not_the_server() {
        let _serial = serial();
        let world = tiny_world();
        let server = server_over(&world, deadline_cfg(200, 200));
        let failed = fault::with_plan(
            FaultPlan::new().fail("serve.write", 0, FaultKind::Error),
            || {
                let (server_side, client_side) = UnixStream::pair().expect("socketpair");
                arm(&server_side, server.config()).expect("arm");
                std::thread::scope(|scope| {
                    let reader = server_side.try_clone().expect("clone");
                    let server_ref = &server;
                    let handle =
                        scope.spawn(move || server_ref.serve_connection(reader, server_side));
                    let mut client = Client::new(client_side);
                    client.send("1 PING").unwrap();
                    // The reply path died before the response: EOF, no frame.
                    assert!(client.recv().unwrap().is_none());
                    handle.join().expect("server thread")
                })
            },
        );
        assert!(failed.is_err(), "injected write fault must surface");
        // A fresh connection (plan cleared) serves normally.
        let stats = with_connection(&server, |client| {
            assert_eq!(client.call(1, "PING").unwrap(), "OK pong");
        });
        assert_eq!(stats.served, 1);
    }

    /// Fail the first `n` accept calls.
    fn failing_accepts(n: u32) -> FaultPlan {
        (0..n as usize).fold(FaultPlan::new(), |plan, i| {
            plan.fail("serve.accept", i, FaultKind::Error)
        })
    }

    #[test]
    fn accept_failures_below_the_limit_back_off_and_keep_serving() {
        let _serial = serial();
        let world = tiny_world();
        let server = server_over(&world, ServeConfig::default());
        let (path, listener) = socket("accept-retry");
        fault::with_plan(failing_accepts(3), || {
            serving(&server, &listener, |_| {
                let mut client = Client::new(connect_when_up(&path));
                assert_eq!(client.call(1, "PING").unwrap(), "OK pong");
            })
        });
        assert!(!path.exists(), "socket file must be unlinked");
    }

    #[test]
    fn max_accept_errors_in_a_row_end_the_run_and_unlink_the_socket() {
        let _serial = serial();
        let world = tiny_world();
        let server = server_over(&world, ServeConfig::default());
        let (path, listener) = socket("accept-give-up");
        let result = fault::with_plan(failing_accepts(MAX_ACCEPT_ERRORS), || {
            transport::run(&server, &listener, &ShutdownFlag::new())
        });
        let err = result.expect_err("persistent accept failures are fatal");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("accept failed {MAX_ACCEPT_ERRORS} times in a row")),
            "{msg}"
        );
        assert!(!path.exists(), "socket file must be unlinked");
    }
}
