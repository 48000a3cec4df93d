//! A deterministic partition nemesis: a seeded TCP fault-injection
//! proxy for cluster links.
//!
//! The nemesis sits between two real sockets — router→serverd, or the
//! primary→follower replication stream — and forwards bytes until told
//! to misbehave. Faults are the classic partition-test repertoire:
//!
//! * [`Fault::Partition`] — refuse new connections **and** sever every
//!   established one, both directions. This is what a switch failure
//!   looks like to TCP: existing streams die mid-flight, reconnects
//!   fail fast.
//! * [`Fault::Delay`] — forward every chunk after a fixed pause, in
//!   both directions (a slow or congested link).
//! * [`Fault::DropEveryNth`] — accept then immediately drop every
//!   `n`-th connection (a flapping link that kills some handshakes).
//! * [`Fault::Open`] — heal: forward everything again.
//!
//! Two properties make it a *nemesis* rather than a toy proxy:
//!
//! 1. **Determinism.** Nothing in here consults a wall clock or an OS
//!    RNG for decisions. Fault *schedules* come from a seeded
//!    [`NemesisPlan`] (splitmix64, same discipline as the chaos
//!    client), so a failing partition test replays byte-for-byte from
//!    its seed.
//! 2. **Severability.** Partitioning does not wait for in-flight
//!    requests to finish: the proxy keeps handles to both legs of every
//!    live connection and calls `shutdown(Both)` on them, so a write
//!    caught mid-replication observes a genuine connection reset — the
//!    case the epoch-fencing protocol exists for.
//!
//! The harness ([`crate::harness`]) can front every link of an
//! in-process cluster with one of these; the partition suite
//! (`tests/partition.rs`) drives its split-brain and churn schedules
//! through it.

use rand::{splitmix64, splitmix64_mix};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What the link is currently doing to traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Healthy: forward everything.
    Open,
    /// Refuse new connections and sever established ones.
    Partition,
    /// Forward each chunk after `ms` milliseconds, both directions.
    Delay {
        /// Added one-way latency per forwarded chunk.
        ms: u64,
    },
    /// Accept, then immediately drop, every `n`-th connection.
    DropEveryNth {
        /// Drop cadence; `n = 1` drops everything.
        n: u64,
    },
}

impl Fault {
    /// The wire/report name of this fault.
    pub fn as_str(&self) -> &'static str {
        match self {
            Fault::Open => "open",
            Fault::Partition => "partition",
            Fault::Delay { .. } => "delay",
            Fault::DropEveryNth { .. } => "drop_every_nth",
        }
    }
}

/// Monotonic nemesis counters (diagnostics, `Ordering::Relaxed`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NemesisCounters {
    /// Connections accepted and proxied.
    pub proxied: u64,
    /// Connections refused at accept time (partition or drop cadence).
    pub refused: u64,
    /// Established connections severed by a partition.
    pub severed: u64,
    /// Chunks forwarded late under a delay fault.
    pub delayed_chunks: u64,
}

/// Shared proxy state: current fault, live-connection registry,
/// counters.
#[derive(Debug)]
struct NemesisState {
    upstream: SocketAddr,
    fault: Mutex<Fault>,
    /// Both legs of every live connection, kept so a partition can
    /// sever them without waiting for the pumps to notice.
    conns: Mutex<Vec<(TcpStream, TcpStream)>>,
    accepted_seq: AtomicU64,
    proxied: AtomicU64,
    refused: AtomicU64,
    severed: AtomicU64,
    delayed_chunks: AtomicU64,
    stopping: AtomicBool,
}

/// A running nemesis proxy; dropping it stops the proxy.
#[derive(Debug)]
pub struct NemesisHandle {
    addr: SocketAddr,
    state: Arc<NemesisState>,
    accept: Option<JoinHandle<()>>,
    driver: Option<JoinHandle<()>>,
}

/// Starts a nemesis proxy on an ephemeral loopback port, forwarding to
/// `upstream`. The link starts [`Fault::Open`].
pub fn start_nemesis(upstream: SocketAddr) -> io::Result<NemesisHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let state = Arc::new(NemesisState {
        upstream,
        fault: Mutex::new(Fault::Open),
        conns: Mutex::new(Vec::new()),
        accepted_seq: AtomicU64::new(0),
        proxied: AtomicU64::new(0),
        refused: AtomicU64::new(0),
        severed: AtomicU64::new(0),
        delayed_chunks: AtomicU64::new(0),
        stopping: AtomicBool::new(false),
    });
    let accept = {
        let state = Arc::clone(&state);
        thread::Builder::new()
            .name("nemesis-accept".into())
            .spawn(move || accept_loop(&state, listener))?
    };
    Ok(NemesisHandle {
        addr,
        state,
        accept: Some(accept),
        driver: None,
    })
}

impl NemesisHandle {
    /// The address clients should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address the proxy forwards to.
    pub fn upstream(&self) -> SocketAddr {
        self.state.upstream
    }

    /// Applies `fault` immediately. [`Fault::Partition`] also severs
    /// every established connection (both directions).
    pub fn set_fault(&self, fault: Fault) {
        *self.state.fault.lock().unwrap_or_else(|p| p.into_inner()) = fault;
        if fault == Fault::Partition {
            self.state.sever_all();
        }
    }

    /// Heals the link: equivalent to `set_fault(Fault::Open)`.
    pub fn heal(&self) {
        self.set_fault(Fault::Open);
    }

    /// The fault currently in force.
    pub fn fault(&self) -> Fault {
        *self.state.fault.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Counter snapshot.
    pub fn counters(&self) -> NemesisCounters {
        NemesisCounters {
            proxied: self.state.proxied.load(Ordering::Relaxed),
            refused: self.state.refused.load(Ordering::Relaxed),
            severed: self.state.severed.load(Ordering::Relaxed),
            delayed_chunks: self.state.delayed_chunks.load(Ordering::Relaxed),
        }
    }

    /// Runs `plan` on a background thread: sleep each step's gap, apply
    /// its fault, repeat. At most one plan runs at a time (starting a
    /// new one joins the previous). The thread exits after the last
    /// step; the final fault stays in force until [`Self::heal`].
    pub fn run_plan(&mut self, plan: NemesisPlan) {
        if let Some(t) = self.driver.take() {
            let _ = t.join();
        }
        let state = Arc::clone(&self.state);
        self.driver = Some(
            thread::Builder::new()
                .name("nemesis-driver".into())
                .spawn(move || {
                    for step in plan.steps {
                        if state.stopping.load(Ordering::SeqCst) {
                            return;
                        }
                        thread::sleep(step.after);
                        *state.fault.lock().unwrap_or_else(|p| p.into_inner()) = step.fault;
                        if step.fault == Fault::Partition {
                            state.sever_all();
                        }
                    }
                })
                .expect("spawn nemesis-driver"),
        );
    }

    /// Blocks until the running plan (if any) has applied its last step.
    pub fn join_plan(&mut self) {
        if let Some(t) = self.driver.take() {
            let _ = t.join();
        }
    }

    /// Stops the proxy: no new connections, every live one severed.
    pub fn stop(&mut self) {
        if self.state.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.driver.take() {
            let _ = t.join();
        }
        self.state.sever_all();
    }
}

impl Drop for NemesisHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl NemesisState {
    /// Severs every registered connection, both legs, both directions.
    fn sever_all(&self) {
        let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
        for (client, upstream) in conns.drain(..) {
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
            self.severed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops connection registry entries whose pumps have finished
    /// (best-effort: identified by peer address equality is unreliable,
    /// so instead the registry is pruned when it grows — severing an
    /// already-dead stream is a harmless no-op).
    fn register(&self, client: &TcpStream, upstream: &TcpStream) {
        if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
            let mut conns = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            conns.push((c, u));
            // Keep the registry bounded: entries for long-closed
            // connections only waste fds, and shutting them down twice
            // is harmless.
            if conns.len() > 512 {
                conns.drain(..256).for_each(drop);
            }
        }
    }
}

/// Accepts connections and applies the accept-time half of the fault
/// model (refuse under partition, drop every `n`-th).
fn accept_loop(state: &Arc<NemesisState>, listener: TcpListener) {
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = stream else { continue };
        let fault = *state.fault.lock().unwrap_or_else(|p| p.into_inner());
        let seq = state.accepted_seq.fetch_add(1, Ordering::Relaxed);
        match fault {
            Fault::Partition => {
                state.refused.fetch_add(1, Ordering::Relaxed);
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
            Fault::DropEveryNth { n } if n > 0 && seq % n == 0 => {
                state.refused.fetch_add(1, Ordering::Relaxed);
                let _ = client.shutdown(Shutdown::Both);
                continue;
            }
            _ => {}
        }
        let Ok(upstream) = TcpStream::connect_timeout(&state.upstream, Duration::from_secs(1))
        else {
            state.refused.fetch_add(1, Ordering::Relaxed);
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = upstream.set_nodelay(true);
        state.register(&client, &upstream);
        state.proxied.fetch_add(1, Ordering::Relaxed);
        spawn_pump(state, &client, &upstream, "nemesis-up");
        spawn_pump(state, &upstream, &client, "nemesis-down");
    }
}

/// Spawns one direction of the byte pump (`from` → `to`).
fn spawn_pump(state: &Arc<NemesisState>, from: &TcpStream, to: &TcpStream, name: &str) {
    let (Ok(from), Ok(to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let state = Arc::clone(state);
    let _ = thread::Builder::new()
        .name(name.into())
        .spawn(move || pump(&state, from, to));
}

/// Copies bytes `from` → `to`, applying the in-flight half of the fault
/// model (delay, partition-sever). Polls with a short read timeout so a
/// fault applied mid-stream takes effect within ~20 ms even on an idle
/// connection.
fn pump(state: &NemesisState, from: TcpStream, to: TcpStream) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    let mut from = from;
    let mut to = to;
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let fault = *state.fault.lock().unwrap_or_else(|p| p.into_inner());
                match fault {
                    Fault::Partition => break,
                    Fault::Delay { ms } => {
                        state.delayed_chunks.fetch_add(1, Ordering::Relaxed);
                        thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.stopping.load(Ordering::SeqCst)
                    || *state.fault.lock().unwrap_or_else(|p| p.into_inner()) == Fault::Partition
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// One step of a nemesis schedule: wait, then apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Gap to sleep *before* applying this step's fault.
    pub after: Duration,
    /// The fault to apply.
    pub fault: Fault,
}

/// A deterministic fault timeline, generated from a seed with the same
/// splitmix64 discipline the chaos client uses: the same seed always
/// yields the same schedule, so a failing run replays exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NemesisPlan {
    /// The steps, applied in order by [`NemesisHandle::run_plan`].
    pub steps: Vec<PlanStep>,
}

impl NemesisPlan {
    /// Generates `steps` fault/heal steps from `seed`. Gaps are
    /// 1..=`max_gap_ms` milliseconds; every injected fault is followed
    /// (eventually) by heals — odd steps are always [`Fault::Open`], so
    /// a plan never ends more than one step away from a healed link.
    pub fn seeded(seed: u64, steps: usize, max_gap_ms: u64) -> NemesisPlan {
        let mut rng = splitmix64_mix(seed ^ 0x6e65_6d65_7369_7321); // "nemesis!"
        let max_gap_ms = max_gap_ms.max(1);
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let gap = 1 + splitmix64(&mut rng) % max_gap_ms;
            let fault = if i % 2 == 1 {
                Fault::Open
            } else {
                match splitmix64(&mut rng) % 3 {
                    0 => Fault::Partition,
                    1 => Fault::Delay {
                        ms: 1 + splitmix64(&mut rng) % 20,
                    },
                    _ => Fault::DropEveryNth {
                        n: 2 + splitmix64(&mut rng) % 3,
                    },
                }
            };
            out.push(PlanStep {
                after: Duration::from_millis(gap),
                fault,
            });
        }
        NemesisPlan { steps: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial line-echo upstream for proxy tests.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let t = thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone echo conn");
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    while let Ok(n) = reader.read_line(&mut line) {
                        if n == 0 || line == "quit\n" {
                            break;
                        }
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, t)
    }

    fn roundtrip(addr: SocketAddr, msg: &str) -> io::Result<String> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        stream.write_all(msg.as_bytes())?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no echo"));
        }
        Ok(line)
    }

    #[test]
    fn open_link_forwards_both_directions() {
        let (upstream, _t) = echo_server();
        let mut nemesis = start_nemesis(upstream).expect("start nemesis");
        let echoed = roundtrip(nemesis.addr(), "hello\n").expect("echo through proxy");
        assert_eq!(echoed, "hello\n");
        assert_eq!(nemesis.counters().proxied, 1);
        nemesis.stop();
    }

    #[test]
    fn partition_refuses_new_and_severs_established() {
        let (upstream, _t) = echo_server();
        let mut nemesis = start_nemesis(upstream).expect("start nemesis");

        // Establish a connection and prove it works.
        let mut stream =
            TcpStream::connect_timeout(&nemesis.addr(), Duration::from_secs(1)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        stream.write_all(b"before\n").expect("write before");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read before");
        assert_eq!(line, "before\n");

        nemesis.set_fault(Fault::Partition);

        // The established stream is severed (EOF or reset), not wedged.
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {}
            Ok(_) => panic!("severed stream still echoed {line:?}"),
            Err(_) => {}
        }
        // New connections fail outright.
        assert!(roundtrip(nemesis.addr(), "during\n").is_err());
        assert!(nemesis.counters().severed >= 1);

        // Healing restores service for fresh connections.
        nemesis.heal();
        let echoed = roundtrip(nemesis.addr(), "after\n").expect("echo after heal");
        assert_eq!(echoed, "after\n");
        nemesis.stop();
    }

    #[test]
    fn drop_every_nth_is_periodic() {
        let (upstream, _t) = echo_server();
        let mut nemesis = start_nemesis(upstream).expect("start nemesis");
        nemesis.set_fault(Fault::DropEveryNth { n: 2 });
        let mut ok = 0;
        let mut failed = 0;
        for i in 0..6 {
            match roundtrip(nemesis.addr(), &format!("msg{i}\n")) {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        // Every second connection (seq 0, 2, 4) is dropped.
        assert_eq!(
            ok, 3,
            "expected alternating drops, got ok={ok} failed={failed}"
        );
        assert_eq!(failed, 3);
        nemesis.stop();
    }

    #[test]
    fn delay_fault_still_delivers() {
        let (upstream, _t) = echo_server();
        let mut nemesis = start_nemesis(upstream).expect("start nemesis");
        nemesis.set_fault(Fault::Delay { ms: 5 });
        let echoed = roundtrip(nemesis.addr(), "slow\n").expect("delayed echo");
        assert_eq!(echoed, "slow\n");
        assert!(nemesis.counters().delayed_chunks >= 1);
        nemesis.stop();
    }

    #[test]
    fn seeded_plans_are_deterministic_and_heal_on_odd_steps() {
        let a = NemesisPlan::seeded(42, 8, 50);
        let b = NemesisPlan::seeded(42, 8, 50);
        let c = NemesisPlan::seeded(43, 8, 50);
        assert_eq!(a, b, "same seed must yield the same plan");
        assert_ne!(a, c, "different seeds should diverge");
        assert_eq!(a.steps.len(), 8);
        for (i, step) in a.steps.iter().enumerate() {
            assert!(step.after >= Duration::from_millis(1));
            assert!(step.after <= Duration::from_millis(50));
            if i % 2 == 1 {
                assert_eq!(step.fault, Fault::Open, "odd steps heal");
            }
        }
    }
}
