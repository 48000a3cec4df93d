//! `serverd` — a standalone cqp-server process for crash testing.
//!
//! The in-process test harness can exercise graceful drain, but only a
//! real process can be SIGKILLed. This binary boots a server over a
//! deterministic datagen movie database with a WAL-backed session store,
//! prints the bound address, and parks until killed — CI's
//! kill-and-restart smoke drives it with curl.
//!
//! ```text
//! serverd --addr 127.0.0.1:9142 --wal-dir /tmp/cqp-wal --seed 42 [--seed-users 8]
//!         [--trace-sample N] [--slo-ms N] [--chrome-trace PATH]
//!         [--backend threaded|epoll] [--read-timeout-ms N] [--max-conns N]
//!         [--repl-listen HOST:PORT | --follow HOST:PORT]
//! ```
//!
//! `--repl-listen` / `--follow` form primary/follower pairs: the primary
//! ships its WAL synchronously to the follower, and `POST /admin/promote`
//! fails the follower over (see `cqp_server::repl`). `serverd --help`
//! documents every flag.
//!
//! `--backend` picks the serving core (defaults to `CQP_SERVER_BACKEND`,
//! then `threaded`). A connection-scale client run against
//! `serverd --backend epoll` keeps the server's side of its herd in this
//! process's fd table; `--max-conns` sizes it.
//!
//! `--chrome-trace PATH` periodically dumps the trace retention ring as a
//! Chrome trace-event document (loadable in `chrome://tracing` or
//! Perfetto), written atomically via tmp-file + rename so a reader never
//! sees a torn JSON file.

use cqp_obs::reqtrace::traces_to_chrome;
use cqp_server::{start, Backend, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Writes `content` to `path` atomically (tmp + rename).
fn write_atomic(path: &PathBuf, content: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content)?;
    std::fs::rename(&tmp, path)
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    };
    let mut db_seed = 7u64;
    let mut chrome_trace: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("serverd: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--wal-dir" => config.wal_dir = Some(value("--wal-dir").into()),
            "--seed" => {
                db_seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("serverd: --seed must be an integer");
                    std::process::exit(2);
                })
            }
            "--seed-users" => {
                config.seed_users = value("--seed-users").parse().unwrap_or_else(|_| {
                    eprintln!("serverd: --seed-users must be an integer");
                    std::process::exit(2);
                })
            }
            "--trace-sample" => {
                config.trace_sample_every = value("--trace-sample").parse().unwrap_or_else(|_| {
                    eprintln!("serverd: --trace-sample must be an integer (0 = off)");
                    std::process::exit(2);
                })
            }
            "--slo-ms" => {
                config.slo_objective_ms = value("--slo-ms").parse().unwrap_or_else(|_| {
                    eprintln!("serverd: --slo-ms must be an integer");
                    std::process::exit(2);
                })
            }
            "--chrome-trace" => chrome_trace = Some(value("--chrome-trace").into()),
            "--no-answer-cache" => config.answer_cache = false,
            "--repl-listen" => config.repl_listen = Some(value("--repl-listen")),
            "--follow" => config.follow = Some(value("--follow")),
            "--backend" => {
                let v = value("--backend");
                config.backend = Backend::parse(&v).unwrap_or_else(|| {
                    eprintln!("serverd: --backend must be 'threaded' or 'epoll'");
                    std::process::exit(2);
                })
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms = value("--read-timeout-ms").parse().unwrap_or_else(|_| {
                    eprintln!("serverd: --read-timeout-ms must be an integer");
                    std::process::exit(2);
                })
            }
            "--max-conns" => {
                config.max_connections = value("--max-conns").parse().unwrap_or_else(|_| {
                    eprintln!("serverd: --max-conns must be an integer");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                println!(
                    "serverd — a standalone cqp-server process\n\
                     \n\
                     usage: serverd [FLAGS]\n\
                     \n\
                     serving:\n\
                     \x20 --addr HOST:PORT         bind address (default 127.0.0.1:0 = ephemeral port)\n\
                     \x20 --backend threaded|epoll serving core (default $CQP_SERVER_BACKEND, then threaded)\n\
                     \x20 --max-conns N            epoll backend: most connections held open at once\n\
                     \x20 --read-timeout-ms N      per-request read deadline / keep-alive idle timeout\n\
                     \n\
                     data:\n\
                     \x20 --wal-dir DIR            journal the session store to a WAL in DIR and\n\
                     \x20                          recover from it on startup\n\
                     \x20 --seed N                 datagen database seed (default 7)\n\
                     \x20 --seed-users N           pre-seed N deterministic user profiles (0 = none;\n\
                     \x20                          only applies when recovery left the store empty)\n\
                     \x20 --no-answer-cache        disable the cross-request answer cache\n\
                     \n\
                     replication:\n\
                     \x20 --repl-listen HOST:PORT  act as a primary: ship the WAL to whichever\n\
                     \x20                          follower connects here (requires --wal-dir)\n\
                     \x20 --follow HOST:PORT       act as a follower of the primary whose replication\n\
                     \x20                          listener is at this address (requires --wal-dir;\n\
                     \x20                          POST /admin/promote fails over); mutually\n\
                     \x20                          exclusive with --repl-listen\n\
                     \n\
                     observability:\n\
                     \x20 --trace-sample N         capture one span tree every N personalize requests\n\
                     \x20                          (0 = off; explicit x-cqp-trace-id always captured)\n\
                     \x20 --slo-ms N               latency objective for SLO burn accounting\n\
                     \x20 --chrome-trace PATH      periodically dump the trace ring as a Chrome\n\
                     \x20                          trace-event document (atomic tmp+rename)\n\
                     \n\
                     The readiness contract: the last line printed on successful boot is\n\
                     `listening on ADDR (recovered N records)`; with --repl-listen a\n\
                     `replication on ADDR` line precedes it."
                );
                return;
            }
            other => {
                eprintln!("serverd: unknown flag {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    config.seed = db_seed;
    if config.backend == Backend::Epoll {
        // A C10k herd needs fd headroom: one fd per connection plus the
        // reactor plumbing. Best effort — the kernel hard cap rules.
        let want = (config.max_connections as u64)
            .saturating_mul(2)
            .saturating_add(64);
        let got = cqp_sys::raise_nofile_limit(want).unwrap_or(0);
        if got < want {
            eprintln!("serverd: nofile limit {got} < requested {want}; large herds may shed");
        }
    }
    let db = Arc::new(cqp_datagen::generate_movie_db(
        &cqp_datagen::MovieDbConfig::tiny(db_seed),
    ));
    let handle = match start(db, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serverd: failed to start: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = chrome_trace {
        let state = Arc::clone(handle.state());
        std::thread::spawn(move || loop {
            let traces = state.telemetry.ring.recent(usize::MAX);
            let doc = traces_to_chrome(&traces).render();
            if let Err(e) = write_atomic(&path, &doc) {
                eprintln!("serverd: chrome trace dump failed: {e}");
            }
            std::thread::sleep(Duration::from_secs(2));
        });
    }
    let recovered = handle
        .state()
        .recovery
        .as_ref()
        .map_or(0, |r| r.records_replayed());
    if let Some(repl_addr) = handle.repl_addr() {
        // Where followers connect; printed before the readiness line so a
        // spawner reading until "listening on" has it already.
        println!("replication on {repl_addr}");
    }
    // The "listening on" line is the readiness contract with CI scripts.
    println!(
        "listening on {} (recovered {recovered} records)",
        handle.addr()
    );
    loop {
        std::thread::park();
    }
}
