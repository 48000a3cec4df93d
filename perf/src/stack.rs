//! Booting and loading the serving stack a workload runs against.
//!
//! Servers start through `cqp_server::start` with the default config,
//! setting only addresses, WAL directories and replication roles, and the
//! router through `cqp_cluster::start_router` — the benchmark measures
//! what ships. Every server journals its sessions to a WAL under the
//! benchmark's work directory, with the program's flush policy.

use crate::client::Client;
use crate::workload::{user_name, write_request, Read, Universe, Workload, CLIENTS};
use cqp_cluster::{start_router, RouterConfig, RouterHandle, ShardSpec};
use cqp_obs::Json;
use cqp_server::{start, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest any set-up condition wait may take.
const SETUP_DEADLINE: Duration = Duration::from_secs(20);

/// A running topology: one server, or a router in front of a primary +
/// follower group.
pub struct Stack {
    /// Where clients send every request.
    pub target: SocketAddr,
    /// Profile bytes the set-up load sent.
    pub loaded_bytes: u64,
    /// `[server]` or `[primary, follower]`.
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    dir: PathBuf,
}

/// Seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub db_gen_s: f64,
    pub boot_s: f64,
    pub load_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

/// A fresh per-process directory under `.perf_work/` in the working
/// directory, for WALs.
pub fn work_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(".perf_work").join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Polls `ready` until it holds, failing after [`SETUP_DEADLINE`].
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + SETUP_DEADLINE;
    while !ready() {
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A standalone WAL-backed server.
pub fn start_server(db: &Arc<cqp_storage::Database>, wal: PathBuf) -> Result<ServerHandle, String> {
    start(
        Arc::clone(db),
        ServerConfig {
            wal_dir: Some(wal),
            ..ServerConfig::default()
        },
    )
    .map_err(io)
}

/// A router in front of a primary + follower group.
pub struct Group {
    pub router: RouterHandle,
    pub primary: ServerHandle,
    pub follower: ServerHandle,
}

/// Boots a group and waits until the router reports the primary and the
/// follower in their roles.
pub fn start_group(db: &Arc<cqp_storage::Database>, dir: &Path) -> Result<Group, String> {
    let primary = start(
        Arc::clone(db),
        ServerConfig {
            wal_dir: Some(dir.join("primary")),
            repl_listen: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .map_err(io)?;
    let repl = primary
        .repl_addr()
        .ok_or("primary has no replication listener")?;
    let follower = start(
        Arc::clone(db),
        ServerConfig {
            wal_dir: Some(dir.join("follower")),
            follow: Some(repl.to_string()),
            ..ServerConfig::default()
        },
    )
    .map_err(io)?;
    let router = start_router(RouterConfig {
        shards: vec![ShardSpec {
            name: "g0".into(),
            replicas: vec![primary.addr(), follower.addr()],
        }],
        ..RouterConfig::default()
    })
    .map_err(io)?;
    let mut client = Client::new(router.addr());
    wait_until("the router to see primary and follower", || {
        let stats = client
            .send(b"GET /router/stats HTTP/1.1\r\nhost: perf\r\n\r\n")
            .ok()
            .and_then(|r| cqp_server::json::parse(&r.body_text()).ok());
        let roles: Vec<String> = stats
            .as_ref()
            .and_then(|s| {
                s.get("groups")?
                    .as_array()?
                    .first()?
                    .get("replicas")?
                    .as_array()
            })
            .map(|rs| {
                rs.iter()
                    .filter_map(|r| r.get("role").and_then(Json::as_str).map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        roles == ["primary", "follower"]
    })?;
    Ok(Group {
        router,
        primary,
        follower,
    })
}

/// Waits until the follower holds each of the first `users` profiles at
/// the primary's version.
pub fn wait_replicated(
    primary: &ServerHandle,
    follower: &ServerHandle,
    users: usize,
) -> Result<(), String> {
    let (p, f) = (&primary.state().store, &follower.state().store);
    wait_until("the follower to catch up", || {
        (0..users as u16).all(|u| {
            let name = user_name(u);
            matches!((p.get(&name), f.get(&name)), (Some(a), Some(b)) if a.version == b.version)
        })
    })
}

impl Group {
    pub fn shutdown(self) {
        let Group {
            mut router,
            primary,
            follower,
        } = self;
        router.stop();
        stop_servers(vec![primary, follower]);
    }
}

fn stop_servers(servers: Vec<ServerHandle>) {
    for mut s in servers {
        s.shutdown(Duration::from_secs(2));
    }
}

/// Sends `request` and requires a 200.
pub fn expect_ok(
    client: &mut Client,
    request: &[u8],
) -> Result<cqp_server::http::ClientResponse, String> {
    let resp = client.send(request).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("HTTP {}: {}", resp.status, resp.body_text()));
    }
    Ok(resp)
}

/// Loads every user's base profile over HTTP (version 1); returns the
/// profile bytes sent.
pub fn load_profiles(target: SocketAddr, universe: &Universe) -> Result<u64, String> {
    let mut client = Client::new(target);
    let mut bytes = 0;
    for user in 0..universe.users.len() as u16 {
        let text = universe.text(user, None);
        expect_ok(&mut client, &write_request(user, text))?;
        bytes += text.len() as u64;
    }
    Ok(bytes)
}

/// Sends every client's warm-up reads, the clients in parallel.
pub fn warm_up(target: SocketAddr, w: Workload) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::new(target);
                    crate::workload::warmup(w, c)
                        .iter()
                        .try_for_each(|r: &Read| expect_ok(&mut client, &r.request()).map(drop))
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up client panicked"))
    })
}

impl Stack {
    /// Generates the universe, boots the workload's topology, loads the
    /// profiles over HTTP and warms the caches. Warm-up counts as set-up.
    pub fn boot(w: Workload, tag: &str) -> Result<(Stack, Universe, SetupTimes), String> {
        let t0 = Instant::now();
        let universe = Universe::generate(w.mix().users);
        let db_gen_s = t0.elapsed().as_secs_f64();

        let t = Instant::now();
        let dir = work_dir(tag).map_err(io)?;
        let mut stack = if w.mix().cluster {
            let g = start_group(&universe.db, &dir)?;
            Stack {
                target: g.router.addr(),
                loaded_bytes: 0,
                servers: vec![g.primary, g.follower],
                router: Some(g.router),
                dir,
            }
        } else {
            let server = start_server(&universe.db, dir.join("server"))?;
            Stack {
                target: server.addr(),
                loaded_bytes: 0,
                servers: vec![server],
                router: None,
                dir,
            }
        };
        let boot_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        stack.loaded_bytes = load_profiles(stack.target, &universe)?;
        if let [primary, follower] = stack.servers.as_slice() {
            wait_replicated(primary, follower, universe.users.len())?;
        }
        let load_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        warm_up(stack.target, w)?;
        let warmup_s = t.elapsed().as_secs_f64();

        let times = SetupTimes {
            db_gen_s,
            boot_s,
            load_s,
            warmup_s,
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok((stack, universe, times))
    }

    /// WAL bytes appended since boot, summed over every replica.
    pub fn wal_bytes(&self) -> u64 {
        self.servers
            .iter()
            .filter_map(|s| s.state().store.wal().map(|w| w.counters().2))
            .sum()
    }

    /// Stops the router and every server, then removes the WALs.
    pub fn shutdown(mut self) {
        if let Some(r) = self.router.as_mut() {
            r.stop();
        }
        stop_servers(std::mem::take(&mut self.servers));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
