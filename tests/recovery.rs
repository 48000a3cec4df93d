//! Crash-recovery tests of the WAL-backed session store.
//!
//! The load-bearing claim: recovery reconstructs the *exact* pre-crash
//! store — same users, same profile text, same versions — no matter
//! where the crash lands. A crash between records loses nothing; a
//! crash mid-record loses only the torn record, and replay after the
//! healed truncation is idempotent: recovering twice gives the same
//! store as recovering once.

use cqp_datagen::{generate_movie_db, MovieDbConfig};
use cqp_server::http::{exchange, Request, Timeouts};
use cqp_server::{start, Backend, ServerConfig, SessionStore, UpsertMode};
use cqp_storage::{Catalog, Database};
use proptest::prelude::*;
use rand::splitmix64_mix as splitmix64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How long each request a test sends waits to connect and to be answered.
const WAIT: Timeouts = Timeouts {
    connect: Duration::from_secs(60),
    read: Duration::from_secs(60),
};

/// Matches `wal.rs`'s private file names: the on-disk layout is part of
/// the crash contract these tests exercise, so name them once here.
const LOG_FILE: &str = "log.wal";
const SNAPSHOT_FILE: &str = "snapshot.wal";

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cqp-recovery-{tag}-{}-{}",
        std::process::id(),
        DIR_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn db() -> Database {
    generate_movie_db(&MovieDbConfig::tiny(7))
}

/// One op of a seeded write burst: `(user, profile_text)`.
fn burst_op(seed: u64, i: u64) -> (String, String) {
    const USERS: [&str; 5] = ["al", "bo", "cy", "di", "ed"];
    const GENRES: [&str; 4] = ["comedy", "drama", "horror", "scifi"];
    let r = splitmix64(seed ^ splitmix64(i));
    let user = USERS[(r % USERS.len() as u64) as usize].to_string();
    let w1 = 0.05 * (1 + (r >> 8) % 19) as f64;
    let w2 = 0.05 * (1 + (r >> 16) % 19) as f64;
    let year = 1940 + (r >> 24) % 70;
    let genre = GENRES[((r >> 32) % GENRES.len() as u64) as usize];
    let text = format!(
        "# cqp-profile v1\nprofile {user}\n\
         join 0.9 MOVIE.mid GENRE.mid\n\
         select {w1:.2} GENRE.genre eq \"{genre}\"\n\
         select {w2:.2} MOVIE.year ge {year}\n"
    );
    (user, text)
}

/// Applies the first `k` ops of burst `seed` to a plain in-memory store:
/// the reference a crashed-and-recovered store must match exactly.
fn reference_dump(catalog: &Catalog, seed: u64, k: usize) -> BTreeMap<String, (u64, String)> {
    let store = SessionStore::new(4);
    for i in 0..k {
        let (user, text) = burst_op(seed, i as u64);
        store
            .upsert_text(&user, &text, catalog, UpsertMode::Replace)
            .expect("reference upsert");
    }
    store.dump(catalog)
}

/// Runs a full burst through a durable store and returns the raw log.
fn run_burst(catalog: &Catalog, dir: &Path, seed: u64, ops: usize) -> Vec<u8> {
    let (store, report) = SessionStore::recover(4, dir, catalog).expect("fresh recover");
    assert_eq!(report.records_replayed(), 0);
    for i in 0..ops {
        let (user, text) = burst_op(seed, i as u64);
        store
            .upsert_text(&user, &text, catalog, UpsertMode::Replace)
            .expect("burst upsert");
    }
    drop(store);
    std::fs::read(dir.join(LOG_FILE)).expect("read log")
}

/// Record boundaries of a log: each frame is newline-terminated and the
/// JSON payload escapes raw newlines, so every `\n` ends one record.
fn boundaries(log: &[u8]) -> Vec<usize> {
    let mut b = vec![0];
    b.extend(
        log.iter()
            .enumerate()
            .filter(|(_, c)| **c == b'\n')
            .map(|(i, _)| i + 1),
    );
    b
}

/// Writes a crash image — the first `cut` bytes of `log` — into a fresh
/// store dir and recovers from it.
fn recover_cut(
    catalog: &Catalog,
    tag: &str,
    log: &[u8],
    cut: usize,
) -> (SessionStore, cqp_server::RecoveryReport, PathBuf) {
    let dir = tmpdir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(LOG_FILE), &log[..cut]).expect("write crash image");
    let (store, report) = SessionStore::recover(4, &dir, catalog).expect("recover");
    (store, report, dir)
}

#[test]
fn crash_at_every_record_boundary_recovers_version_exact() {
    let db = db();
    let catalog = db.catalog();
    let seed = 0xB00737;
    let ops = 18;
    let dir = tmpdir("boundary");
    let log = run_burst(catalog, &dir, seed, ops);
    let bounds = boundaries(&log);
    assert_eq!(bounds.len(), ops + 1, "one record per op");

    for (k, cut) in bounds.iter().enumerate() {
        let (store, report, d) = recover_cut(catalog, "boundary-cut", &log, *cut);
        assert_eq!(report.records_replayed(), k as u64, "cut at {cut}");
        assert_eq!(report.torn_tail_bytes, 0, "clean boundary at {cut}");
        assert_eq!(
            store.dump(catalog),
            reference_dump(catalog, seed, k),
            "store after replaying {k} records"
        );
        std::fs::remove_dir_all(&d).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_idempotent_and_heals_the_torn_tail() {
    let db = db();
    let catalog = db.catalog();
    let seed = 0x1D3A;
    let ops = 8;
    let dir = tmpdir("idem");
    let log = run_burst(catalog, &dir, seed, ops);
    let bounds = boundaries(&log);

    // Crash mid-record: a few bytes past the second-to-last boundary.
    let cut = bounds[ops - 1] + 7;
    let (first, report, d) = recover_cut(catalog, "idem-cut", &log, cut);
    assert_eq!(report.records_replayed(), ops as u64 - 1);
    assert_eq!(report.torn_tail_bytes, 7);
    let dump = first.dump(catalog);
    assert_eq!(dump, reference_dump(catalog, seed, ops - 1));
    drop(first);

    // Replay again (and again): the tail was healed by truncation, so
    // later recoveries see a clean log and the identical store.
    for round in 0..2 {
        let (again, report) = SessionStore::recover(4, &d, catalog).expect("re-recover");
        assert_eq!(report.records_replayed(), ops as u64 - 1, "round {round}");
        assert_eq!(report.torn_tail_bytes, 0, "round {round}: already healed");
        assert_eq!(report.parse_skipped, 0);
        assert_eq!(again.dump(catalog), dump, "round {round}");
    }
    std::fs::remove_dir_all(&d).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_after_compaction_replays_snapshot_plus_log() {
    let db = db();
    let catalog = db.catalog();
    let seed = 0xC0517;
    let dir = tmpdir("compact");
    let (store, _) = SessionStore::recover(4, &dir, catalog).expect("recover");
    for i in 0..10 {
        let (user, text) = burst_op(seed, i);
        store
            .upsert_text(&user, &text, catalog, UpsertMode::Replace)
            .unwrap();
    }
    store.compact().expect("compact");
    for i in 10..14 {
        let (user, text) = burst_op(seed, i);
        store
            .upsert_text(&user, &text, catalog, UpsertMode::Replace)
            .unwrap();
    }
    let expected = store.dump(catalog);
    drop(store);

    // Tear the post-compaction log mid-way through its last record: the
    // snapshot plus the log's intact prefix must survive.
    let log_path = dir.join(LOG_FILE);
    let log = std::fs::read(&log_path).unwrap();
    assert!(std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len() > 0);
    std::fs::write(&log_path, &log[..log.len() - 3]).unwrap();
    let (recovered, report) = SessionStore::recover(4, &dir, catalog).expect("recover");
    assert!(report.snapshot_records > 0, "snapshot replayed");
    assert_eq!(report.log_records, 3, "intact post-compaction records");
    assert!(report.torn_tail_bytes > 0);
    assert_eq!(
        recovered.dump(catalog),
        reference_dump(catalog, seed, 13),
        "snapshot + healed log equals the first 13 ops"
    );
    assert_ne!(recovered.dump(catalog), expected, "the torn op is lost");

    // Finish the lost op against the recovered store: versions continue
    // from the recovered state, and the next restart sees all of it.
    let (user, text) = burst_op(seed, 13);
    recovered
        .upsert_text(&user, &text, catalog, UpsertMode::Replace)
        .unwrap();
    assert_eq!(recovered.dump(catalog), expected);
    drop(recovered);
    let (next, _) = SessionStore::recover(4, &dir, catalog).expect("recover");
    assert_eq!(next.dump(catalog), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The compaction crash window *after* the snapshot rename but *before*
/// the log truncation: the renamed snapshot already contains every
/// record, and the stale log still holds pre-compaction records at
/// versions the snapshot has since superseded. A crash here must not
/// let the stale log drag any user's version backwards on replay —
/// and the window itself must be durable (the snapshot rename is
/// fsynced into the directory, which is what makes "the snapshot is
/// now authoritative" true across power loss).
#[test]
fn crash_between_snapshot_rename_and_log_truncation_never_regresses() {
    let db = db();
    let catalog = db.catalog();
    let seed = 0x5EED;
    let dir = tmpdir("rename-window");
    let (store, _) = SessionStore::recover(4, &dir, catalog).expect("recover");
    for i in 0..10 {
        let (user, text) = burst_op(seed, i);
        store
            .upsert_text(&user, &text, catalog, UpsertMode::Replace)
            .unwrap();
    }
    let stale_log = std::fs::read(dir.join(LOG_FILE)).expect("pre-compaction log");
    store.compact().expect("compact");
    let at_compaction = store.dump(catalog);
    drop(store);

    // Recreate the window: snapshot.wal is the renamed snapshot, but
    // log.wal still holds the entire pre-compaction history (truncation
    // never happened). Replaying snapshot + full stale log must land on
    // exactly the compaction-time store — the stale records are all at
    // versions the snapshot already covers.
    std::fs::write(dir.join(LOG_FILE), &stale_log).expect("restore stale log");
    let (recovered, report) = SessionStore::recover(4, &dir, catalog).expect("recover window");
    assert!(report.snapshot_records > 0, "snapshot replayed");
    assert_eq!(report.log_records, 10, "the stale log replays in full");
    assert_eq!(
        recovered.dump(catalog),
        at_compaction,
        "stale log records must not regress any user past the snapshot"
    );

    // Writes continue from the snapshot's version chain, not the stale
    // log's.
    let (user, text) = burst_op(seed, 10);
    let before = recovered.dump(catalog).get(&user).map(|(v, _)| *v);
    recovered
        .upsert_text(&user, &text, catalog, UpsertMode::Replace)
        .unwrap();
    let after = recovered.dump(catalog).get(&user).map(|(v, _)| *v);
    assert_eq!(after, before.map(|v| v + 1), "versions continue forward");
    drop(recovered);

    // And the crash can also tear the stale log anywhere: any prefix of
    // it beside the snapshot still recovers to the compaction-time
    // store (completed-but-stale records are skipped, torn tails are
    // healed as usual).
    let bounds = boundaries(&stale_log);
    for cut in [bounds[3], bounds[7] + 5, stale_log.len() - 2] {
        std::fs::write(dir.join(LOG_FILE), &stale_log[..cut]).expect("torn stale log");
        let (recovered, _) = SessionStore::recover(4, &dir, catalog).expect("recover torn window");
        assert_eq!(
            recovered.dump(catalog),
            at_compaction,
            "cut at {cut}: snapshot remains authoritative"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// WAL durability is backend-independent: a burst written through real
/// sockets against either serving backend leaves a log that (a) recovers
/// to the exact reference store, and (b) a server on the *other* backend
/// can adopt mid-stream — versions continue, and the final recovered
/// store equals the single-store reference for the whole op sequence.
#[test]
fn wal_written_through_either_backend_recovers_identically() {
    let db = std::sync::Arc::new(db());
    let catalog = db.catalog();
    let seed = 0xEB011;
    let ops = 12;
    let split = 7; // ops 0..split on the first backend, the rest on the other

    for (first, second) in [
        (Backend::Threaded, Backend::Epoll),
        (Backend::Epoll, Backend::Threaded),
    ] {
        let dir = tmpdir(&format!("xbackend-{}", first.as_str()));
        let config = |backend| ServerConfig {
            backend,
            wal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };

        let mut server = start(db.clone(), config(first)).expect("first server");
        for i in 0..split {
            let (user, text) = burst_op(seed, i as u64);
            let req = Request::post(&format!("/profiles/{user}"), &text);
            let resp = exchange(server.addr(), &req, WAIT).unwrap();
            assert_eq!(resp.status, 200, "upsert {user}: {}", resp.body_text());
        }
        server.stop();

        // Cold recovery of the half-written log matches the reference.
        let (store, report) = SessionStore::recover(4, &dir, catalog).expect("recover");
        assert_eq!(report.records_replayed(), split as u64);
        assert_eq!(report.torn_tail_bytes, 0, "graceful stop leaves no tear");
        assert_eq!(store.dump(catalog), reference_dump(catalog, seed, split));
        drop(store);

        // The other backend adopts the same WAL dir and continues it.
        let mut server = start(db.clone(), config(second)).expect("second server");
        for i in split..ops {
            let (user, text) = burst_op(seed, i as u64);
            let req = Request::post(&format!("/profiles/{user}"), &text);
            let resp = exchange(server.addr(), &req, WAIT).unwrap();
            assert_eq!(resp.status, 200, "upsert {user}: {}", resp.body_text());
        }
        server.stop();

        let (store, report) = SessionStore::recover(4, &dir, catalog).expect("re-recover");
        assert_eq!(report.records_replayed(), ops as u64);
        assert_eq!(
            store.dump(catalog),
            reference_dump(catalog, seed, ops),
            "{} then {}: recovered store diverged from reference",
            first.as_str(),
            second.as_str()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash anywhere: for an arbitrary burst seed and an arbitrary cut
    /// byte offset, recovery equals the reference store after exactly
    /// the records that were fully on disk — torn bytes lose at most
    /// the in-flight record, never a completed one.
    #[test]
    fn crash_at_any_byte_offset_loses_at_most_the_torn_record(
        seed in 0u64..1024,
        cut_sel in 0u64..10_000,
        ops in 3usize..12,
    ) {
        let db = db();
        let catalog = db.catalog();
        let dir = tmpdir("prop");
        let log = run_burst(catalog, &dir, seed, ops);
        let cut = (cut_sel as usize) % (log.len() + 1);
        let bounds = boundaries(&log);
        let complete = bounds.iter().filter(|b| **b <= cut).count() - 1;

        let (store, report, d) = recover_cut(catalog, "prop-cut", &log, cut);
        prop_assert_eq!(report.records_replayed(), complete as u64);
        prop_assert_eq!(
            report.torn_tail_bytes,
            (cut - bounds[complete]) as u64
        );
        prop_assert_eq!(store.dump(catalog), reference_dump(catalog, seed, complete));
        std::fs::remove_dir_all(&d).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
