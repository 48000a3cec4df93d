//! `routerd` — a standalone consistent-hash router process.
//!
//! Fronts N shard groups of `serverd` replicas (primary/follower pairs
//! wired with `--repl-listen`/`--follow`). CI's kill-primary smoke
//! drives this binary against three child `serverd` processes.
//!
//! ```text
//! routerd --addr 127.0.0.1:9100 \
//!         --shard g0=127.0.0.1:9142,127.0.0.1:9143 \
//!         --shard g1=127.0.0.1:9144,127.0.0.1:9145 \
//!         [--routing divergent|uniform] [--probe-ms N]
//! ```
//!
//! Each `--shard` is `name=primary[,follower...]` — the first address
//! starts as the group's primary. The last line printed on successful
//! boot is `routing on ADDR` (the readiness contract with spawners).

use cqp_cluster::{start_router, RouterConfig, RoutingPolicy, ShardSpec};
use std::net::SocketAddr;
use std::time::Duration;

fn main() {
    let mut config = RouterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("routerd: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--shard" => {
                let spec = value("--shard");
                let Some((name, addrs)) = spec.split_once('=') else {
                    eprintln!("routerd: --shard wants name=addr[,addr...], got {spec:?}");
                    std::process::exit(2);
                };
                let replicas: Vec<SocketAddr> = addrs
                    .split(',')
                    .map(|a| {
                        a.parse().unwrap_or_else(|_| {
                            eprintln!("routerd: bad replica address {a:?} in --shard {spec:?}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
                config.shards.push(ShardSpec {
                    name: name.to_string(),
                    replicas,
                });
            }
            "--routing" => {
                let v = value("--routing");
                config.policy = RoutingPolicy::parse(&v).unwrap_or_else(|| {
                    eprintln!("routerd: --routing must be 'divergent' or 'uniform'");
                    std::process::exit(2);
                });
            }
            "--probe-ms" => {
                let ms: u64 = value("--probe-ms").parse().unwrap_or_else(|_| {
                    eprintln!("routerd: --probe-ms must be an integer");
                    std::process::exit(2);
                });
                config.probe_interval = Duration::from_millis(ms.max(1));
            }
            "--help" | "-h" => {
                println!(
                    "routerd — consistent-hash router over serverd shard groups\n\
                     \n\
                     usage: routerd --shard name=primary[,follower...] [FLAGS]\n\
                     \n\
                     \x20 --addr HOST:PORT   bind address (default 127.0.0.1:0 = ephemeral port)\n\
                     \x20 --shard SPEC       add a shard group, name=addr[,addr...]; repeatable;\n\
                     \x20                    the first address starts as the group's primary\n\
                     \x20 --routing POLICY   read routing: 'divergent' pins each canonical SQL\n\
                     \x20                    template class to one replica (warm caches);\n\
                     \x20                    'uniform' alternates replicas (default divergent)\n\
                     \x20 --probe-ms N       health-probe period, milliseconds (default 250)\n\
                     \n\
                     Routes /profiles/{{user}} (writes to the group primary, no retry;\n\
                     failover on primary death) and /personalize (policy-routed reads).\n\
                     GET /router/stats reports counters and topology; GET /healthz/live\n\
                     answers from the router itself.\n\
                     \n\
                     The readiness contract: the last line printed on successful boot is\n\
                     `routing on ADDR`."
                );
                return;
            }
            other => {
                eprintln!("routerd: unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let policy = config.policy;
    let shards = config.shards.len();
    let mut handle = match start_router(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("routerd: failed to start: {e}");
            std::process::exit(1);
        }
    };
    // The "routing on" line is the readiness contract with CI scripts.
    println!(
        "routing on {} ({} shard groups, {} reads)",
        handle.addr(),
        shards,
        policy.as_str()
    );
    wait_for_termination();
    // Graceful drain: stop() unblocks and joins the accept loop and the
    // probe thread; in-flight connection handlers (each owning its
    // pooled backend connections) finish their current exchange and
    // exit, closing those connections with them. Like "routing on", this
    // line goes to stdout, where CI's SIGTERM smoke looks for it.
    println!("routerd: termination signal received, draining");
    handle.stop();
    std::process::exit(0);
}

/// Parks until SIGTERM/SIGINT on Linux; forever elsewhere (the process
/// dies with the default signal disposition there, as before).
fn wait_for_termination() {
    #[cfg(target_os = "linux")]
    {
        if cqp_sys::install_termination_flag().is_ok() {
            while !cqp_sys::termination_requested() {
                std::thread::sleep(Duration::from_millis(100));
            }
            return;
        }
    }
    loop {
        std::thread::park();
    }
}
