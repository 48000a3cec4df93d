//! The four workloads: a fixed data universe and the seeded request
//! streams drawn over it.
//!
//! The universe (database, user profiles, profile variants) is the same
//! for every seed. The request stream is a pure function of
//! `(workload, seed, client, index)` through splitmix64, so the program
//! under test receives only generated requests and a seed reproduces them.

use cqp_core::prelude::ProblemSpec;
use cqp_datagen::{generate_movie_db, generate_movie_profile, MovieDbConfig, ProfileGenConfig};
use cqp_obs::Json;
use cqp_prefs::{to_text, Doi, Profile};
use cqp_storage::Database;
use std::sync::Arc;

/// Closed-loop clients; each holds one keep-alive connection. Two, the
/// core count of the machine the op sizes were chosen on.
pub const CLIENTS: usize = 2;

/// Profile variants pre-generated per user; a write replaces a profile
/// with one of them.
const VARIANTS: usize = 4;

/// Warm-up ops per client for `cold_solve`, whose key space is too large
/// to sweep (the other workloads sweep every read key once).
const COLD_WARMUP_OPS: u64 = 512;

/// Query templates. `hot_read`, `execute_rows` and `write_mix` use the
/// first four; `cold_solve` uses all ten.
const TEMPLATES: [&str; 10] = [
    "SELECT title FROM MOVIE",
    "SELECT title, year FROM MOVIE",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 1990",
    "SELECT title, duration FROM MOVIE WHERE MOVIE.year >= 1980",
    "SELECT mid, title FROM MOVIE",
    "SELECT title, duration FROM MOVIE",
    "SELECT title FROM MOVIE WHERE MOVIE.year >= 1975",
    "SELECT title, year FROM MOVIE WHERE MOVIE.year >= 1995",
    "SELECT mid, title FROM MOVIE WHERE MOVIE.year >= 2000",
    "SELECT title, duration FROM MOVIE WHERE MOVIE.year >= 1970",
];

/// The algorithms the workloads draw from, by wire name.
pub const ALGORITHMS: [&str; 5] = [
    "c_boundaries",
    "d_maxdoi",
    "branch_bound",
    "c_maxbounds",
    "d_heurdoi",
];

const SMIN: f64 = 1.0;
const SMAX: f64 = 500.0;
const DMIN: f64 = 0.5;
const P3_CMAX: u64 = 200;

/// One of the six Table-1 problems, with the benchmark's fixed
/// constraints (P2 carries its cost bound in blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    P1,
    P2(u64),
    P3,
    P4,
    P5,
    P6,
}

impl Problem {
    /// The `problem` object of a `/personalize` body.
    pub fn json(self) -> String {
        match self {
            Problem::P1 => format!("{{\"kind\":\"p1\",\"smin\":{SMIN},\"smax\":{SMAX}}}"),
            Problem::P2(cmax) => format!("{{\"kind\":\"p2\",\"cmax\":{cmax}}}"),
            Problem::P3 => {
                format!("{{\"kind\":\"p3\",\"cmax\":{P3_CMAX},\"smin\":{SMIN},\"smax\":{SMAX}}}")
            }
            Problem::P4 => format!("{{\"kind\":\"p4\",\"dmin\":{DMIN}}}"),
            Problem::P5 => {
                format!("{{\"kind\":\"p5\",\"dmin\":{DMIN},\"smin\":{SMIN},\"smax\":{SMAX}}}")
            }
            Problem::P6 => format!("{{\"kind\":\"p6\",\"smin\":{SMIN},\"smax\":{SMAX}}}"),
        }
    }

    /// The same problem as the solver's spec.
    pub fn spec(self) -> ProblemSpec {
        match self {
            Problem::P1 => ProblemSpec::p1(SMIN, SMAX),
            Problem::P2(cmax) => ProblemSpec::p2(cmax),
            Problem::P3 => ProblemSpec::p3(P3_CMAX, SMIN, SMAX),
            Problem::P4 => ProblemSpec::p4(Doi::new(DMIN)),
            Problem::P5 => ProblemSpec::p5(Doi::new(DMIN), SMIN, SMAX),
            Problem::P6 => ProblemSpec::p6(SMIN, SMAX),
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotRead,
    ColdSolve,
    ExecuteRows,
    WriteMix,
}

/// What a workload draws from.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Users the reads draw from.
    pub users: usize,
    /// Leading entries of [`TEMPLATES`] in use.
    pub templates: usize,
    /// Indices into [`ALGORITHMS`].
    pub algorithms: &'static [usize],
    pub problems: &'static [Problem],
    /// Personalization depths (`None` = the full profile).
    pub top_k: &'static [Option<u8>],
    /// Whether reads ask for the executed rows.
    pub rows: bool,
    /// Zipf skew of the user draw (0 = uniform).
    pub zipf_theta: f64,
    /// Per-mille of ops that replace a profile.
    pub write_permille: u64,
    /// Router in front of a primary + follower group instead of one
    /// server; users are split between the clients, so each client is
    /// the only writer of its users.
    pub cluster: bool,
    pub balance: Balance,
}

/// How a stream spreads its reads. Dealing keys or cells from seeded
/// shuffled decks keeps every run's mix of costly and cheap requests the
/// same, so seeds change the order but not the share of any request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Balance {
    /// Independent draws.
    None,
    /// Every pass deals each read key once.
    Keys,
    /// Every block deals each `(algorithm, problem, depth)` cell once;
    /// user and template are drawn independently.
    Cells,
}

const HOT_ALGORITHMS: [usize; 2] = [3, 2];
const HOT_PROBLEMS: [Problem; 2] = [Problem::P2(100), Problem::P2(200)];
const COLD_PROBLEMS: [Problem; 8] = [
    Problem::P1,
    Problem::P2(100),
    Problem::P2(200),
    Problem::P2(400),
    Problem::P3,
    Problem::P4,
    Problem::P5,
    Problem::P6,
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotRead,
        Workload::ColdSolve,
        Workload::ExecuteRows,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdSolve => "cold_solve",
            Workload::ExecuteRows => "execute_rows",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mix(self) -> Mix {
        let hot = Mix {
            users: 16,
            templates: 4,
            algorithms: &HOT_ALGORITHMS,
            problems: &HOT_PROBLEMS,
            top_k: &[None],
            rows: false,
            zipf_theta: 0.0,
            write_permille: 0,
            cluster: false,
            balance: Balance::Keys,
        };
        match self {
            Workload::HotRead => hot,
            // K is capped at 16: at 20 the exact algorithms take up to a
            // second per request.
            Workload::ColdSolve => Mix {
                users: 256,
                templates: 10,
                algorithms: &[0, 1, 2, 3, 4],
                problems: &COLD_PROBLEMS,
                top_k: &[Some(12), Some(16)],
                balance: Balance::Cells,
                ..hot
            },
            Workload::ExecuteRows => Mix { rows: true, ..hot },
            Workload::WriteMix => Mix {
                users: 64,
                zipf_theta: 1.0,
                write_permille: 200,
                cluster: true,
                balance: Balance::None,
                ..hot
            },
        }
    }
}

/// One personalize request, as indices into the universe and the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Read {
    pub user: u16,
    pub template: u8,
    pub algorithm: u8,
    pub problem: Problem,
    pub top_k: Option<u8>,
    pub rows: bool,
}

/// One operation of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read(Read),
    /// Replace `user`'s profile with variant `variant`.
    Write {
        user: u16,
        variant: u8,
    },
}

/// splitmix64: advances `state` and returns the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream phases, kept apart so warm-up never replays timed ops.
const PHASE_TIMED: u64 = 0;
const PHASE_WARMUP: u64 = 1;
const PHASE_DECK: u64 = 2;

fn stream_state(w: Workload, seed: u64, phase: u64, client: usize, index: u64) -> u64 {
    let mut s = seed;
    let seed_mix = splitmix64(&mut s);
    let mut state = seed_mix
        ^ ((w as u64) << 60)
        ^ (phase << 56)
        ^ ((client as u64) << 48)
        ^ (index & ((1 << 48) - 1));
    splitmix64(&mut state);
    state
}

fn uniform(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

/// Inverse-CDF Zipf draw over ranks `0..n`, weight `1/(rank+1)^theta`.
fn zipf(state: &mut u64, n: usize, theta: f64) -> usize {
    let unit = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let weight = |i: usize| 1.0 / ((i + 1) as f64).powf(theta);
    let mut target = unit * (0..n).map(weight).sum::<f64>();
    for i in 0..n {
        target -= weight(i);
        if target <= 0.0 {
            return i;
        }
    }
    n - 1
}

impl Mix {
    /// The users `client` draws from: all of them, or on a cluster its
    /// own share (`user % CLIENTS == client`).
    fn draw_user(&self, client: usize, state: &mut u64) -> u16 {
        if !self.cluster {
            return uniform(state, self.users) as u16;
        }
        let owned = self.users / CLIENTS;
        let rank = if self.zipf_theta > 0.0 {
            zipf(state, owned, self.zipf_theta)
        } else {
            uniform(state, owned)
        };
        (rank * CLIENTS + client) as u16
    }

    /// `(algorithm, problem, depth)` combinations.
    fn cells(&self) -> usize {
        self.algorithms.len() * self.problems.len() * self.top_k.len()
    }

    /// Distinct reads: users × templates × cells.
    fn keys(&self) -> usize {
        self.users * self.templates * self.cells()
    }

    fn cell_read(&self, cell: usize, user: u16, template: u8) -> Read {
        let (k, rest) = (cell % self.top_k.len(), cell / self.top_k.len());
        let (p, a) = (rest % self.problems.len(), rest / self.problems.len());
        Read {
            user,
            template,
            algorithm: self.algorithms[a] as u8,
            problem: self.problems[p],
            top_k: self.top_k[k],
            rows: self.rows,
        }
    }

    /// Read key `k` of `0..keys()`.
    fn key(&self, k: usize) -> Read {
        let cells = self.cells();
        let user = k / (self.templates * cells);
        let template = (k / cells) % self.templates;
        self.cell_read(k % cells, user as u16, template as u8)
    }

    fn draw_read(&self, client: usize, state: &mut u64) -> Read {
        let user = self.draw_user(client, state);
        let template = uniform(state, self.templates) as u8;
        self.cell_read(uniform(state, self.cells()), user, template)
    }
}

/// A seeded Fisher–Yates shuffle of `0..n`.
fn deck(w: Workload, seed: u64, client: usize, pass: u64, n: usize) -> Vec<u32> {
    let mut state = stream_state(w, seed, PHASE_DECK, client, pass);
    let mut d: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        d.swap(i, uniform(&mut state, i + 1));
    }
    d
}

/// One client's timed stream. It caches the deck of the current pass;
/// [`op`] computes the same ops one at a time.
#[derive(Debug)]
pub struct Stream {
    w: Workload,
    mix: Mix,
    seed: u64,
    client: usize,
    index: u64,
    deck: (u64, Vec<u32>),
}

impl Stream {
    pub fn new(w: Workload, seed: u64, client: usize) -> Stream {
        Stream {
            w,
            mix: w.mix(),
            seed,
            client,
            index: 0,
            deck: (u64::MAX, Vec::new()),
        }
    }

    /// The index of the op [`Stream::next_op`] returns next.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Position `i` of the pass it falls in, dealt from that pass's deck
    /// of `n`.
    fn dealt(&mut self, i: u64, n: usize) -> usize {
        let pass = i / n as u64;
        if self.deck.0 != pass {
            self.deck = (pass, deck(self.w, self.seed, self.client, pass, n));
        }
        self.deck.1[(i % n as u64) as usize] as usize
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.index;
        self.index += 1;
        let mix = self.mix;
        let mut state = stream_state(self.w, self.seed, PHASE_TIMED, self.client, i);
        match mix.balance {
            Balance::Keys => Op::Read(mix.key(self.dealt(i, mix.keys()))),
            Balance::Cells => {
                let cell = self.dealt(i, mix.cells());
                let user = mix.draw_user(self.client, &mut state);
                let template = uniform(&mut state, mix.templates) as u8;
                Op::Read(mix.cell_read(cell, user, template))
            }
            Balance::None => {
                if splitmix64(&mut state) % 1000 < mix.write_permille {
                    return Op::Write {
                        user: mix.draw_user(self.client, &mut state),
                        variant: uniform(&mut state, VARIANTS) as u8,
                    };
                }
                Op::Read(mix.draw_read(self.client, &mut state))
            }
        }
    }
}

/// Op `index` of `client`'s timed stream.
pub fn op(w: Workload, seed: u64, client: usize, index: u64) -> Op {
    let mut stream = Stream::new(w, seed, client);
    stream.index = index;
    stream.next_op()
}

/// `client`'s warm-up reads: its share of a sweep over every read key,
/// or for `cold_solve` a fixed number of ops drawn from a stream that does
/// not depend on the seed, so every run's set-up does the same work.
pub fn warmup(w: Workload, client: usize) -> Vec<Read> {
    let mix = w.mix();
    if w == Workload::ColdSolve {
        return (0..COLD_WARMUP_OPS)
            .map(|i| {
                let mut state = stream_state(w, 0, PHASE_WARMUP, client, i);
                mix.draw_read(client, &mut state)
            })
            .collect();
    }
    (0..mix.keys())
        .map(|k| (k, mix.key(k)))
        .filter(|(k, r)| {
            let owner = if mix.cluster { r.user as usize } else { *k };
            owner % CLIENTS == client
        })
        .map(|(_, r)| r)
        .collect()
}

/// The wire name of user `i`.
pub fn user_name(i: u16) -> String {
    format!("u{i:03}")
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perf\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Read {
    pub fn sql(&self) -> &'static str {
        TEMPLATES[self.template as usize]
    }

    pub fn algorithm_name(&self) -> &'static str {
        ALGORITHMS[self.algorithm as usize]
    }

    /// The `/personalize` JSON body.
    pub fn body(&self) -> String {
        let mut body = format!(
            "{{\"user\":\"{}\",\"sql\":{},\"problem\":{},\"algorithm\":\"{}\"",
            user_name(self.user),
            Json::from(self.sql()).render(),
            self.problem.json(),
            self.algorithm_name(),
        );
        if let Some(k) = self.top_k {
            body.push_str(&format!(",\"top_k\":{k}"));
        }
        if self.rows {
            body.push_str(",\"rows\":true");
        }
        body.push('}');
        body
    }

    /// The whole HTTP request.
    pub fn request(&self) -> Vec<u8> {
        http_post("/personalize", &self.body())
    }
}

/// The HTTP request replacing `user`'s profile with `text`.
pub fn write_request(user: u16, text: &str) -> Vec<u8> {
    http_post(&format!("/profiles/{}", user_name(user)), text)
}

/// A user's profiles in the `# cqp-profile v1` wire format.
#[derive(Debug, Clone)]
pub struct UserProfiles {
    /// Loaded at set-up (version 1).
    pub base: String,
    pub variants: Vec<String>,
}

/// The fixed data every seed shares.
#[derive(Debug)]
pub struct Universe {
    pub db: Arc<Database>,
    pub users: Vec<UserProfiles>,
}

/// The movie database: the default generator at 256 tuples per block
/// (3,000 movies, 105 blocks), the paper-regime block size.
fn movie_db_config() -> MovieDbConfig {
    MovieDbConfig {
        block_capacity: 256,
        ..MovieDbConfig::default()
    }
}

impl Universe {
    /// Generates the database and `users` profiles with their variants.
    pub fn generate(users: usize) -> Universe {
        let db_config = movie_db_config();
        let db = generate_movie_db(&db_config);
        let users = (0..users)
            .map(|i| {
                // Vary the doi distribution across users, as the
                // experiment harness does.
                let config = ProfileGenConfig {
                    doi_mean: 0.35 + 0.5 * ((i % 8) as f64 / 8.0),
                    doi_deviation: 0.15 + 0.05 * (i % 4) as f64,
                    n_directors: db_config.directors,
                    n_actors: db_config.actors,
                    seed: 1000 + i as u64,
                    ..ProfileGenConfig::default()
                };
                let base = generate_movie_profile(db.catalog(), &config);
                let variants = (0..VARIANTS)
                    .map(|v| to_text(&variant(&base, i, v), db.catalog()))
                    .collect();
                UserProfiles {
                    base: to_text(&base, db.catalog()),
                    variants,
                }
            })
            .collect();
        Universe {
            db: Arc::new(db),
            users,
        }
    }

    /// The wire text of `user`'s base profile or one of its variants.
    pub fn text(&self, user: u16, variant: Option<u8>) -> &str {
        let u = &self.users[user as usize];
        match variant {
            None => &u.base,
            Some(v) => &u.variants[v as usize],
        }
    }
}

/// `base` with one selection's doi moved by 0.3, so every variant
/// invalidates the user's cached answers without changing the profile's
/// size.
fn variant(base: &Profile, user: usize, v: usize) -> Profile {
    let selections = base.graph().selections();
    let target = (user + 7 * v) % selections.len();
    let mut p = Profile::new(base.name.clone());
    for j in base.graph().joins() {
        p.graph_mut().add_join(j.clone());
    }
    for (i, s) in selections.iter().enumerate() {
        let mut s = s.clone();
        if i == target {
            let d = s.doi.value();
            s.doi = Doi::clamped(if d < 0.5 { d + 0.3 } else { d - 0.3 });
        }
        p.graph_mut().add_selection(s);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_workload_seed_client_and_index() {
        for w in Workload::ALL {
            for client in 0..CLIENTS {
                for i in 0..200 {
                    assert_eq!(op(w, 7, client, i), op(w, 7, client, i));
                }
            }
            let differs = |a: u64, b: u64| (0..200).any(|i| op(w, a, 0, i) != op(w, b, 0, i));
            assert!(
                differs(7, 8),
                "{}: another seed must change the stream",
                w.name()
            );
            assert!((0..200).any(|i| op(w, 7, 0, i) != op(w, 7, 1, i)));
        }
        assert_ne!(
            (0..50)
                .map(|i| op(Workload::HotRead, 7, 0, i))
                .collect::<Vec<_>>(),
            (0..50)
                .map(|i| op(Workload::ExecuteRows, 7, 0, i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn write_mix_clients_write_only_their_own_users_at_about_a_fifth() {
        let mut writes = 0;
        for client in 0..CLIENTS {
            for i in 0..5000 {
                match op(Workload::WriteMix, 3, client, i) {
                    Op::Write { user, .. } => {
                        writes += 1;
                        assert_eq!(user as usize % CLIENTS, client);
                    }
                    Op::Read(r) => assert_eq!(r.user as usize % CLIENTS, client),
                }
            }
        }
        let share = writes as f64 / (5000.0 * CLIENTS as f64);
        assert!((0.17..0.23).contains(&share), "write share {share}");
        assert!((0..1000).all(|i| matches!(op(Workload::HotRead, 3, 0, i), Op::Read(_))));
    }

    fn distinct(reads: impl Iterator<Item = Read>) -> (usize, usize) {
        let mut all: Vec<String> = reads.map(|r| format!("{r:?}")).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        (n, all.len())
    }

    #[test]
    fn warmup_sweeps_cover_every_key_exactly_once() {
        for w in [Workload::HotRead, Workload::WriteMix] {
            let (n, unique) = distinct((0..CLIENTS).flat_map(|c| warmup(w, c)));
            assert_eq!((n, unique), (w.mix().keys(), w.mix().keys()));
        }
        assert_eq!(
            warmup(Workload::ColdSolve, 1),
            warmup(Workload::ColdSolve, 1)
        );
    }

    #[test]
    fn balanced_streams_deal_every_key_or_cell_once_per_pass() {
        let read = |o: Op| match o {
            Op::Read(r) => r,
            Op::Write { .. } => panic!("read-only workload wrote"),
        };
        let hot = Workload::HotRead.mix();
        let mut s = Stream::new(Workload::HotRead, 9, 1);
        for _pass in 0..3 {
            let pass = (0..hot.keys()).map(|_| read(s.next_op()));
            assert_eq!(distinct(pass), (hot.keys(), hot.keys()));
        }
        let cold = Workload::ColdSolve.mix();
        let mut s = Stream::new(Workload::ColdSolve, 9, 0);
        let cells = |r: Read| format!("{} {:?} {:?}", r.algorithm, r.problem, r.top_k);
        let mut block: Vec<String> = (0..cold.cells())
            .map(|_| cells(read(s.next_op())))
            .collect();
        block.sort();
        block.dedup();
        assert_eq!(block.len(), 80);
        // The cached deck and the one-op function agree.
        let mut s = Stream::new(Workload::ColdSolve, 4, 1);
        for i in 0..300 {
            assert_eq!(s.next_op(), op(Workload::ColdSolve, 4, 1, i));
        }
    }

    #[test]
    fn bodies_are_valid_json_naming_the_read() {
        let read = Read {
            user: 5,
            template: 2,
            algorithm: 1,
            problem: Problem::P5,
            top_k: Some(12),
            rows: true,
        };
        let body = cqp_server::json::parse(&read.body()).unwrap();
        assert_eq!(body.get("user").and_then(Json::as_str), Some("u005"));
        assert_eq!(body.get("sql").and_then(Json::as_str), Some(TEMPLATES[2]));
        assert_eq!(
            body.get("algorithm").and_then(Json::as_str),
            Some("d_maxdoi")
        );
        assert_eq!(body.get("top_k").and_then(Json::as_u64), Some(12));
        let problem = body.get("problem").unwrap();
        assert_eq!(problem.get("kind").and_then(Json::as_str), Some("p5"));
    }
}
