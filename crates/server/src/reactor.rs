//! The epoll serving backend: a readiness-driven reactor pool.
//!
//! The threaded backend spends one OS thread per connection; this module
//! spends one *registration* per connection. A small pool of reactor
//! threads (each owning its own [`Epoll`] set) multiplexes every socket:
//! reactor 0 additionally owns the non-blocking listener and deals
//! accepted connections round-robin across the pool (cross-reactor
//! hand-off via an inbox + [`EventFd`] doorbell). Bytes are parsed
//! incrementally ([`RequestParser`]) as they arrive in arbitrary
//! fragments; a complete request is handed to a resident
//! [`Executor`](cqp_par::Executor) worker pool so the event loop never
//! runs solver work, and the finished response flows back through a
//! completion queue plus eventfd wakeup.
//!
//! ## Connection state machine
//!
//! ```text
//!              first byte                 request complete
//!   Idle ───────────────────▶ Reading ─────────────────────▶ Dispatched
//!    ▲                          │ parse error → Writing           │
//!    │                          │ deadline    → 408/Writing       │ worker done
//!    │        response flushed  ▼                                 ▼
//!    └───────────────────────  Writing  ◀─────────────────────────┘
//! ```
//!
//! Interest follows state: `READ` while Idle/Reading, `NONE` while
//! Dispatched (backpressure: a conn cannot pipeline past its in-flight
//! request), `WRITE` while a response is partially flushed. Deadlines are
//! a `BinaryHeap` of `(Instant, token)` pairs with lazy invalidation —
//! expiry semantics mirror the threaded backend exactly: Idle → reaped
//! silently (`server.idle_reaped`), Reading → `408` + close
//! (`server.read_timeouts`), Writing → severed (`server.write_timeouts`).
//!
//! ## Drain protocol
//!
//! [`EpollHandle::drain`] flips the phase (done by the caller), rings
//! every reactor's doorbell, and waits for the active-connection gauge to
//! hit zero. On the wakeup each reactor closes the listener (reactor 0)
//! and every *idle* connection immediately; Reading/Dispatched/Writing
//! connections finish their request — the shared
//! [`handle_request`] answers new work `503 + Connection: close` with the
//! same health/metrics/debug exemption as the threaded backend — and
//! close on write completion. Past the deadline a force-stop flag severs
//! whatever remains (counted in `DrainStats::forced`), reactors are
//! joined, then the worker pool is joined. Nothing is detached.

use crate::http::{HttpError, RequestParser, Response};
use crate::server::{
    handle_request, http_error_response, read_timeout_response, Phase, ServerState,
};
use cqp_par::Executor;
use cqp_sys::{Epoll, Event, EventFd, Interest};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reactor-internal token for the wakeup eventfd.
const TOKEN_WAKE: u64 = 0;
/// Reactor-internal token for the listener (reactor 0 only).
const TOKEN_LISTENER: u64 = 1;
/// First token handed to a connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Readiness events fetched per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 1024;
/// Longest nap between housekeeping passes even with no deadline due.
const TICK: Duration = Duration::from_millis(500);
/// Most bytes read from one connection per readiness event, so a
/// firehose peer cannot starve its reactor's other connections.
const MAX_READ_PER_EVENT: usize = 1 << 20;

/// A finished response travelling from a worker back to its reactor.
#[derive(Debug)]
struct Completion {
    token: u64,
    response: Response,
    keep: bool,
}

/// The cross-thread face of one reactor.
#[derive(Debug)]
struct ReactorShared {
    /// Doorbell: rung for inbox hand-offs, completions, drain, and stop.
    wake: EventFd,
    /// Connections accepted by reactor 0, awaiting adoption here.
    inbox: Mutex<Vec<TcpStream>>,
    /// Finished responses awaiting write-out here.
    done: Mutex<Vec<Completion>>,
    /// Sever-everything-now flag, set at the drain deadline.
    force_stop: AtomicBool,
    /// Connections this reactor currently owns (gauge).
    conns_live: AtomicUsize,
}

impl ReactorShared {
    fn new() -> io::Result<ReactorShared> {
        Ok(ReactorShared {
            wake: EventFd::new()?,
            inbox: Mutex::new(Vec::new()),
            done: Mutex::new(Vec::new()),
            force_stop: AtomicBool::new(false),
            conns_live: AtomicUsize::new(0),
        })
    }
}

/// What one connection is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Keep-alive, between requests; idle deadline armed.
    Idle,
    /// Request bytes arriving; per-request read deadline armed.
    Reading,
    /// A complete request is executing on a worker; no interest, no
    /// deadline (the solver has its own `Budget`).
    Dispatched,
    /// Response partially flushed; write deadline armed.
    Writing,
}

/// One connection owned by a reactor thread.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    interest: Interest,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Requests parsed off this connection (the keep-alive cap input).
    served: usize,
    /// Active deadline, if any; heap entries not matching it are stale.
    deadline: Option<Instant>,
    /// Whether to return to Idle (true) or close after the current write.
    keep_after_write: bool,
    /// First-byte instant of the request currently being read.
    req_t0: Option<Instant>,
    /// Peer closed its write half (read returned 0).
    eof: bool,
}

/// The epoll backend's owner handle, held inside `ServerHandle`.
#[derive(Debug)]
pub(crate) struct EpollHandle {
    reactors: Vec<Arc<ReactorShared>>,
    threads: Vec<Option<JoinHandle<usize>>>,
    executor: Arc<Executor>,
}

impl EpollHandle {
    /// Spawns the reactor pool over an already-bound listener. Fails only
    /// on resource exhaustion (epoll/eventfd creation).
    pub(crate) fn start(listener: TcpListener, state: Arc<ServerState>) -> io::Result<EpollHandle> {
        listener.set_nonblocking(true)?;
        let n = state.config.reactor_threads.max(1);
        let workers = match state.config.worker_threads {
            // Auto: wide enough that every admissible (slot or queued)
            // request gets a worker, keeping the admission gate — not
            // this pool — the shedding bottleneck.
            0 => state.config.max_inflight + state.config.queue_cap + 2,
            w => w,
        };
        let executor = Arc::new(Executor::new(workers));
        let reactors = (0..n)
            .map(|_| ReactorShared::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let mut listener_slot = Some(listener);
        let mut threads = Vec::with_capacity(n);
        for idx in 0..n {
            let epoll = Epoll::with_capacity(EVENTS_PER_WAIT)?;
            let mut reactor = Reactor {
                idx,
                state: Arc::clone(&state),
                me: Arc::clone(&reactors[idx]),
                all: reactors.clone(),
                executor: Arc::clone(&executor),
                epoll,
                listener: if idx == 0 { listener_slot.take() } else { None },
                conns: HashMap::new(),
                timers: BinaryHeap::new(),
                next_token: TOKEN_FIRST_CONN,
                rr: 0,
                forced: 0,
                drained: false,
            };
            threads.push(Some(std::thread::spawn(move || reactor.run())));
        }
        Ok(EpollHandle {
            reactors,
            threads,
            executor,
        })
    }

    /// Wakes every reactor so it notices the phase flip, waits for the
    /// active-connection gauge to reach zero (or the deadline), then
    /// severs stragglers, joins every reactor thread, and joins the
    /// worker pool. Returns how many connections were severed.
    pub(crate) fn drain(&mut self, state: &Arc<ServerState>, deadline: Instant) -> usize {
        for r in &self.reactors {
            r.wake.notify();
        }
        while Instant::now() < deadline {
            if state.active_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for r in &self.reactors {
            r.force_stop.store(true, Ordering::Release);
            r.wake.notify();
        }
        let mut forced = 0;
        for t in &mut self.threads {
            if let Some(h) = t.take() {
                forced += h.join().unwrap_or(0);
            }
        }
        self.executor.shutdown();
        forced
    }

    /// Idempotent late join for the already-drained path.
    pub(crate) fn join_all(&mut self) {
        for r in &self.reactors {
            r.force_stop.store(true, Ordering::Release);
            r.wake.notify();
        }
        for t in &mut self.threads {
            if let Some(h) = t.take() {
                let _ = h.join();
            }
        }
        self.executor.shutdown();
    }
}

/// One reactor thread's private world.
struct Reactor {
    idx: usize,
    state: Arc<ServerState>,
    me: Arc<ReactorShared>,
    all: Vec<Arc<ReactorShared>>,
    executor: Arc<Executor>,
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Min-heap of `(deadline, token)`; entries whose instant no longer
    /// matches the conn's `deadline` are stale and skipped.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    next_token: u64,
    /// Round-robin cursor for dealing accepted connections.
    rr: usize,
    forced: usize,
    drained: bool,
}

impl Reactor {
    fn read_timeout(&self) -> Duration {
        Duration::from_millis(self.state.config.read_timeout_ms.max(1))
    }

    fn write_timeout(&self) -> Duration {
        Duration::from_millis(self.state.config.write_timeout_ms.max(1))
    }

    /// The event loop; returns how many connections it force-severed.
    fn run(&mut self) -> usize {
        if self
            .epoll
            .add(self.me.wake.raw_fd(), TOKEN_WAKE, Interest::READ)
            .is_err()
        {
            return 0;
        }
        if let Some(l) = &self.listener {
            if self
                .epoll
                .add(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
                .is_err()
            {
                return 0;
            }
        }
        loop {
            self.adopt_inbox();
            self.process_completions();
            self.check_drain();
            if self.me.force_stop.load(Ordering::Acquire) {
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                self.forced += tokens.len();
                for t in tokens {
                    self.close_conn(t);
                }
                self.state.registry.add("server.reactor.stops", 1);
                return self.forced;
            }
            if self.drained && self.conns.is_empty() {
                return self.forced;
            }
            let timeout = match self.timers.peek() {
                Some(&Reverse((when, _))) => {
                    when.saturating_duration_since(Instant::now()).min(TICK)
                }
                None => TICK,
            };
            let events: Vec<Event> = match self.epoll.wait(Some(timeout)) {
                Ok(evs) => evs.to_vec(),
                Err(_) => Vec::new(),
            };
            for ev in events {
                match ev.token {
                    TOKEN_WAKE => {
                        self.me.wake.drain();
                        self.state.registry.add("server.reactor.wakeups", 1);
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    _ => self.conn_event(ev),
                }
            }
            self.fire_timers();
        }
    }

    /// Registers connections handed over by reactor 0 (or closes them if
    /// the drain started before adoption).
    fn adopt_inbox(&mut self) {
        let pending: Vec<TcpStream> = {
            let mut inbox = self.me.inbox.lock().unwrap_or_else(|p| p.into_inner());
            inbox.drain(..).collect()
        };
        for stream in pending {
            if self.drained || self.state.phase() != Phase::Live {
                drop(stream);
                continue;
            }
            self.adopt(stream);
        }
    }

    /// Takes ownership of one accepted connection.
    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.state.active_conns.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + self.read_timeout();
        self.conns.insert(
            token,
            Conn {
                stream,
                parser: RequestParser::new(),
                state: ConnState::Idle,
                interest: Interest::READ,
                write_buf: Vec::new(),
                write_pos: 0,
                served: 0,
                deadline: Some(deadline),
                keep_after_write: false,
                req_t0: None,
                eof: false,
            },
        );
        self.me.conns_live.store(self.conns.len(), Ordering::SeqCst);
        self.timers.push(Reverse((deadline, token)));
    }

    /// Accepts everything the listener has ready, dealing connections
    /// round-robin across the reactor pool.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.state.active_connections() >= self.state.config.max_connections {
                        // Over the fd budget: refuse by immediate close.
                        self.state.registry.add("server.reactor.over_capacity", 1);
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.state.registry.add("server.reactor.accepted", 1);
                    let target = self.rr % self.all.len();
                    self.rr += 1;
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        {
                            let mut inbox = self.all[target]
                                .inbox
                                .lock()
                                .unwrap_or_else(|p| p.into_inner());
                            inbox.push(stream);
                        }
                        self.all[target].wake.notify();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Writes out every response the workers finished.
    fn process_completions(&mut self) {
        let pending: Vec<Completion> = {
            let mut done = self.me.done.lock().unwrap_or_else(|p| p.into_inner());
            done.drain(..).collect()
        };
        for c in pending {
            // The connection may have been severed while the request
            // executed; its response is dropped, same as the threaded
            // backend's write failing on a severed socket.
            if self.conns.contains_key(&c.token) {
                self.respond(c.token, c.response, c.keep);
            }
        }
    }

    /// One-time drain transition: close the listener and every idle
    /// connection; everything mid-request finishes normally.
    fn check_drain(&mut self) {
        if self.drained || self.state.phase() == Phase::Live {
            return;
        }
        self.drained = true;
        if let Some(l) = self.listener.take() {
            let _ = self.epoll.delete(l.as_raw_fd());
            drop(l);
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Idle)
            .map(|(&t, _)| t)
            .collect();
        for t in idle {
            self.close_conn(t);
        }
    }

    /// Removes, deregisters, and severs one connection.
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.state.active_conns.fetch_sub(1, Ordering::SeqCst);
            self.me.conns_live.store(self.conns.len(), Ordering::SeqCst);
        }
    }

    /// Points a connection's registration at a new interest set.
    fn set_interest(&mut self, token: u64, interest: Interest) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.interest != interest {
                let _ = self.epoll.modify(conn.stream.as_raw_fd(), token, interest);
                conn.interest = interest;
            }
        }
    }

    /// Routes one readiness notification.
    fn conn_event(&mut self, ev: Event) {
        if ev.error {
            // EPOLLERR/EPOLLHUP: the peer is gone in both directions —
            // nothing useful can be read or written.
            self.close_conn(ev.token);
            return;
        }
        if ev.readable || ev.read_closed {
            self.on_readable(ev.token);
        }
        if ev.writable {
            self.flush(ev.token);
        }
    }

    /// Reads whatever the socket has buffered and advances the parser.
    fn on_readable(&mut self, token: u64) {
        let read_timeout = self.read_timeout();
        let mut closed = false;
        let mut new_deadline = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                return;
            }
            let mut buf = [0u8; 16 * 1024];
            let mut total = 0usize;
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.state == ConnState::Idle {
                            // First byte of a request: the per-request
                            // read deadline starts now, exactly like the
                            // threaded backend's request clock.
                            conn.state = ConnState::Reading;
                            let t0 = Instant::now();
                            conn.req_t0 = Some(t0);
                            let dl = t0 + read_timeout;
                            conn.deadline = Some(dl);
                            new_deadline = Some(dl);
                        }
                        conn.parser.feed(&buf[..n]);
                        total += n;
                        if total >= MAX_READ_PER_EVENT {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
        }
        if let Some(dl) = new_deadline {
            self.timers.push(Reverse((dl, token)));
        }
        if closed {
            self.close_conn(token);
            return;
        }
        self.pump(token);
    }

    /// Tries to complete a request off the parse buffer; dispatches it,
    /// answers a parse error, or (on EOF) closes — mirroring the
    /// threaded backend's error arms exactly.
    fn pump(&mut self, token: u64) {
        let parsed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.state, ConnState::Idle | ConnState::Reading) {
                return;
            }
            conn.parser.try_next()
        };
        match parsed {
            Ok(Some(req)) => self.dispatch(token, req),
            Ok(None) => {
                let eof = self.conns.get(&token).is_some_and(|c| c.eof);
                if eof {
                    // Clean close, truncated head, or mid-body disconnect:
                    // the threaded backend returns silently on all three
                    // (`ConnectionClosed` / `Io(_)` arms) — reap, don't
                    // answer.
                    self.close_conn(token);
                }
            }
            Err(e) => match e {
                HttpError::ConnectionClosed | HttpError::Io(_) => self.close_conn(token),
                e => {
                    self.state.registry.add("server.http_errors", 1);
                    self.respond(token, http_error_response(&e), false);
                }
            },
        }
    }

    /// Hands one complete request to the worker pool.
    fn dispatch(&mut self, token: u64, req: crate::http::Request) {
        let (served, t0) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.served += 1;
            conn.state = ConnState::Dispatched;
            conn.deadline = None;
            (conn.served, conn.req_t0.take().unwrap_or_else(Instant::now))
        };
        self.set_interest(token, Interest::NONE);
        let parse_us = t0.elapsed().as_micros() as u64;
        let state = Arc::clone(&self.state);
        let me = Arc::clone(&self.me);
        let spawned = self.executor.spawn(move || {
            let (response, keep) = handle_request(&state, &req, served, t0, parse_us);
            {
                let mut done = me.done.lock().unwrap_or_else(|p| p.into_inner());
                done.push(Completion {
                    token,
                    response,
                    keep,
                });
            }
            me.wake.notify();
        });
        if !spawned {
            // Executor already stopping (shutdown raced ahead): the
            // connection cannot be answered anymore.
            self.close_conn(token);
        }
    }

    /// Serializes a response and starts (or finishes) flushing it.
    fn respond(&mut self, token: u64, response: Response, keep: bool) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.write_buf.clear();
            conn.write_pos = 0;
            // Writing into a Vec cannot fail.
            let _ = response.write_to(&mut conn.write_buf, keep);
            conn.keep_after_write = keep;
            conn.state = ConnState::Writing;
            conn.deadline = None;
        }
        self.flush(token);
    }

    /// Pushes buffered response bytes to the socket until done or blocked.
    fn flush(&mut self, token: u64) {
        enum Outcome {
            Finished,
            Blocked,
            Dead,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Writing {
                return;
            }
            loop {
                if conn.write_pos >= conn.write_buf.len() {
                    break Outcome::Finished;
                }
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => break Outcome::Dead,
                    Ok(n) => conn.write_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Outcome::Blocked,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break Outcome::Dead,
                }
            }
        };
        match outcome {
            Outcome::Dead => self.close_conn(token),
            Outcome::Blocked => {
                let dl = Instant::now() + self.write_timeout();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.deadline = Some(dl);
                }
                self.timers.push(Reverse((dl, token)));
                self.set_interest(token, Interest::WRITE);
            }
            Outcome::Finished => self.finish_write(token),
        }
    }

    /// After a fully-flushed response: close, go idle, or start on the
    /// next pipelined request already sitting in the parse buffer.
    fn finish_write(&mut self, token: u64) {
        enum Next {
            Close,
            Idle,
            Pipelined,
        }
        let read_timeout = self.read_timeout();
        let (next, deadline) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.keep_after_write {
                (Next::Close, None)
            } else {
                conn.write_buf.clear();
                conn.write_pos = 0;
                let now = Instant::now();
                let dl = now + read_timeout;
                conn.deadline = Some(dl);
                if conn.parser.buffered() > 0 {
                    // The next request's bytes are already here — its
                    // clock starts now, same as the threaded backend
                    // seeing buffered bytes right after a response.
                    conn.state = ConnState::Reading;
                    conn.req_t0 = Some(now);
                    (Next::Pipelined, Some(dl))
                } else if conn.eof {
                    (Next::Close, None)
                } else {
                    conn.state = ConnState::Idle;
                    conn.req_t0 = None;
                    (Next::Idle, Some(dl))
                }
            }
        };
        if let Some(dl) = deadline {
            self.timers.push(Reverse((dl, token)));
        }
        match next {
            Next::Close => self.close_conn(token),
            Next::Idle => {
                if self.drained {
                    // Keep-alive between requests during drain: close,
                    // same as the threaded idle-wait drain check.
                    self.close_conn(token);
                } else {
                    self.set_interest(token, Interest::READ);
                }
            }
            Next::Pipelined => {
                self.set_interest(token, Interest::READ);
                self.pump(token);
            }
        }
    }

    /// Fires every expired deadline with the threaded backend's exact
    /// expiry semantics.
    fn fire_timers(&mut self) {
        let now = Instant::now();
        loop {
            match self.timers.peek() {
                Some(&Reverse((when, _))) if when <= now => {}
                _ => break,
            }
            let Reverse((when, token)) = self.timers.pop().expect("peeked entry");
            let state = {
                let Some(conn) = self.conns.get(&token) else {
                    continue;
                };
                if conn.deadline != Some(when) {
                    continue; // stale entry; the real deadline moved
                }
                conn.state
            };
            match state {
                ConnState::Idle => {
                    self.state.registry.add("server.idle_reaped", 1);
                    self.close_conn(token);
                }
                ConnState::Reading => {
                    self.state.registry.add("server.read_timeouts", 1);
                    self.respond(token, read_timeout_response(), false);
                }
                ConnState::Writing => {
                    self.state.registry.add("server.write_timeouts", 1);
                    self.close_conn(token);
                }
                ConnState::Dispatched => {}
            }
        }
    }
}
