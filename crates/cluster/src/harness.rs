//! In-process cluster harness: N primary/follower shard groups behind a
//! router, all in one process.
//!
//! This is the CI-runnable shape of the distributed tier: every replica
//! is a real `cqp-server` instance with its own WAL directory, real
//! loopback sockets, and a real replication stream — only the process
//! boundary is folded away so tests can reach into [`ServerHandle`]s
//! (stop a primary, dump a store) without signals. CI's kill-primary
//! smoke runs `routerd` over child `serverd` processes for the SIGKILL
//! failover check; the cluster and partition suites run on this harness.

use crate::nemesis::{start_nemesis, NemesisHandle};
use crate::router::{start_router, RouterConfig, RouterHandle, RoutingPolicy, ShardSpec};
use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_server::{start, ServerConfig, ServerHandle};
use cqp_storage::Database;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Cluster topology knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard groups; each gets one primary and one follower.
    pub groups: usize,
    /// Datagen database seed (all replicas share the database).
    pub seed: u64,
    /// Read-routing policy for the router.
    pub policy: RoutingPolicy,
    /// Root directory for WAL storage: group `i` journals under
    /// `root/g{i}/primary` and `root/g{i}/follower`.
    pub root: PathBuf,
    /// Router health-probe period (also the failover detection bound).
    pub probe_interval: Duration,
    /// When `true`, every link — primary HTTP, follower HTTP, and the
    /// replication stream — is fronted by a [`crate::nemesis`] proxy so
    /// tests can partition, delay, or flap any of them independently.
    pub nemesis: bool,
}

impl ClusterConfig {
    /// A `groups`-group cluster journaling under `root`.
    pub fn new(groups: usize, root: impl Into<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            groups,
            seed: 7,
            policy: RoutingPolicy::Divergent,
            root: root.into(),
            probe_interval: Duration::from_millis(100),
            nemesis: false,
        }
    }

    /// Same, with every link nemesis-fronted for partition testing.
    pub fn with_nemesis(groups: usize, root: impl Into<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            nemesis: true,
            ..ClusterConfig::new(groups, root)
        }
    }
}

/// The nemesis proxies fronting one group's links (present when
/// [`ClusterConfig::nemesis`] is set).
#[derive(Debug)]
pub struct GroupNemesis {
    /// Fronts the replication stream (follower connects through this).
    pub repl: NemesisHandle,
    /// Fronts the primary's HTTP endpoint (what the router probes and
    /// writes through).
    pub primary_http: NemesisHandle,
    /// Fronts the follower's HTTP endpoint.
    pub follower_http: NemesisHandle,
}

/// One running shard group.
#[derive(Debug)]
pub struct ClusterGroup {
    /// Ring name (`g{i}`) — what the router places users onto.
    pub name: String,
    /// The initial primary (ships its WAL to the follower).
    pub primary: ServerHandle,
    /// The follower (applies the stream; promotable).
    pub follower: ServerHandle,
    /// Fault-injection proxies fronting this group's links, when the
    /// cluster was started with [`ClusterConfig::nemesis`].
    pub nemesis: Option<GroupNemesis>,
}

/// A running in-process cluster.
#[derive(Debug)]
pub struct Cluster {
    /// The shard groups, index-aligned with the router's ring names.
    pub groups: Vec<ClusterGroup>,
    /// The front door.
    pub router: RouterHandle,
    db: Arc<Database>,
}

impl Cluster {
    /// Boots `config.groups` primary/follower pairs and a router over
    /// them. Stores start empty — populate through the router so ring
    /// placement is real.
    pub fn start(config: ClusterConfig) -> io::Result<Cluster> {
        let db = Arc::new(generate_movie_db(&MovieDbConfig::tiny(config.seed)));
        let mut groups = Vec::with_capacity(config.groups);
        let mut shards = Vec::with_capacity(config.groups);
        for i in 0..config.groups {
            let name = format!("g{i}");
            let primary = start(
                Arc::clone(&db),
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    wal_dir: Some(config.root.join(&name).join("primary")),
                    repl_listen: Some("127.0.0.1:0".into()),
                    seed_users: 0,
                    seed: config.seed,
                    ..Default::default()
                },
            )?;
            let repl_addr = primary.repl_addr().ok_or_else(|| {
                io::Error::other("primary started without a replication listener")
            })?;
            // With the nemesis enabled, the follower follows *through*
            // the repl proxy and the router reaches both replicas
            // *through* the HTTP proxies — so tests can cut any link.
            let repl_nemesis = if config.nemesis {
                Some(start_nemesis(repl_addr)?)
            } else {
                None
            };
            let follow_addr = repl_nemesis.as_ref().map(|n| n.addr()).unwrap_or(repl_addr);
            let follower = start(
                Arc::clone(&db),
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    wal_dir: Some(config.root.join(&name).join("follower")),
                    follow: Some(follow_addr.to_string()),
                    seed_users: 0,
                    seed: config.seed,
                    ..Default::default()
                },
            )?;
            let (nemesis, replicas) = if let Some(repl) = repl_nemesis {
                let primary_http = start_nemesis(primary.addr())?;
                let follower_http = start_nemesis(follower.addr())?;
                let replicas = vec![primary_http.addr(), follower_http.addr()];
                (
                    Some(GroupNemesis {
                        repl,
                        primary_http,
                        follower_http,
                    }),
                    replicas,
                )
            } else {
                (None, vec![primary.addr(), follower.addr()])
            };
            shards.push(ShardSpec {
                name: name.clone(),
                replicas,
            });
            groups.push(ClusterGroup {
                name,
                primary,
                follower,
                nemesis,
            });
        }
        let router = start_router(RouterConfig {
            shards,
            policy: config.policy,
            probe_interval: config.probe_interval,
            ..Default::default()
        })?;
        Ok(Cluster { groups, router, db })
    }

    /// The shared movie database every replica serves.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Stops the router, then every replica (drains in-flight work),
    /// then the nemesis proxies.
    pub fn stop(&mut self) {
        self.router.stop();
        for group in &mut self.groups {
            group.primary.stop();
            group.follower.stop();
            if let Some(nemesis) = &mut group.nemesis {
                nemesis.repl.stop();
                nemesis.primary_http.stop();
                nemesis.follower_http.stop();
            }
        }
    }
}
