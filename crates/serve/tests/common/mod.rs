//! Helpers shared by the serve integration tests.
#![allow(dead_code)] // each test binary uses a subset

use std::os::unix::net::UnixStream;

use culinaria_core::{FlavorViewRef, RecipesViewRef};
use culinaria_datagen::{generate_world, World, WorldConfig};
use culinaria_obs::Metrics;
use culinaria_serve::protocol::Client;
use culinaria_serve::{ConnStats, ServeConfig, Server};

pub fn tiny_world() -> World {
    generate_world(&WorldConfig::tiny())
}

pub fn server_over<'a>(world: &'a World, cfg: ServeConfig) -> Server<'a> {
    Server::new(
        FlavorViewRef::Owned(&world.flavor),
        RecipesViewRef::Owned(&world.recipes),
        cfg,
        Metrics::enabled(),
    )
}

/// Run `f` against a served connection; returns the connection stats.
pub fn with_connection<F>(server: &Server<'_>, f: F) -> ConnStats
where
    F: FnOnce(&mut Client<UnixStream>) + Send,
{
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        let mut client = Client::new(client_side);
        f(&mut client);
        drop(client);
        handle.join().expect("server thread")
    })
}

/// A config with tight deadlines for the timeout tests; armed sockets
/// tick every 25ms, so sub-second deadlines keep the tests fast.
pub fn deadline_cfg(read_ms: u64, idle_ms: u64) -> ServeConfig {
    ServeConfig {
        read_timeout_ms: read_ms,
        idle_timeout_ms: idle_ms,
        ..ServeConfig::default()
    }
}
