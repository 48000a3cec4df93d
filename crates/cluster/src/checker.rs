//! The acked-write consistency checker: did the cluster keep its
//! durability promise through partitions and failovers?
//!
//! The protocol under test promises exactly one thing to a client whose
//! profile write got a 200: *that write is durable and will never be
//! contradicted*. Writes that were in flight when a partition hit may
//! vanish — the client got a 503 or a reset, not an ack — but an acked
//! write surviving as something else, or two acked writes fighting over
//! the same `(user, version)` slot, means split-brain: two primaries
//! both believed they owned the session.
//!
//! The checker is deliberately dumb and external. A load generator
//! records every **acknowledged** write into an [`AckLog`] (user,
//! version from the response, epoch, exact profile text). After the
//! schedule — partitions, promotions, heals — the test dumps every
//! replica's store and hands everything to [`check`], which verifies:
//!
//! * **No acked write lost** — every authoritative (non-fenced) replica
//!   holds each user at *at least* the highest acked version.
//! * **No split-brain divergence** — no replica (fenced ones included:
//!   a deposed primary's store is exactly where divergence would hide)
//!   holds a `(user, version)` that any acked write holds with
//!   different content, and no two acked writes share a slot with
//!   different content.
//! * **Linear ack order** — per user, acked versions strictly increase
//!   in acknowledgement order: the surviving version chain is a linear
//!   extension of what clients observed. A version going backwards
//!   means two primaries handed out the same version number.
//!
//! Fenced replicas are *expected* to be stale (they stopped receiving
//! the stream when deposed, and there is no re-sync), so they are
//! exempt from the lost-write check — but never from divergence.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One acknowledged profile write, as the client observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckedWrite {
    /// Global acknowledgement order (assigned by the [`AckLog`]).
    pub seq: u64,
    /// The session owner.
    pub user: String,
    /// The version the server acknowledged.
    pub version: u64,
    /// The replication epoch in force when the write was acked.
    pub epoch: u64,
    /// The exact profile text that was written.
    pub profile_text: String,
}

/// Thread-safe log of acknowledged writes (the load generator appends,
/// the checker reads).
#[derive(Debug, Default)]
pub struct AckLog {
    seq: AtomicU64,
    writes: Mutex<Vec<AckedWrite>>,
}

impl AckLog {
    /// An empty log.
    pub fn new() -> AckLog {
        AckLog::default()
    }

    /// Records one acked write; returns its global sequence number.
    pub fn record(&self, user: &str, version: u64, epoch: u64, profile_text: &str) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.writes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(AckedWrite {
                seq,
                user: user.to_string(),
                version,
                epoch,
                profile_text: profile_text.to_string(),
            });
        seq
    }

    /// Number of acked writes recorded so far.
    pub fn len(&self) -> usize {
        self.writes.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the log in acknowledgement order.
    pub fn snapshot(&self) -> Vec<AckedWrite> {
        let mut writes = self
            .writes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        writes.sort_by_key(|w| w.seq);
        writes
    }
}

/// One replica's store dump, labeled for the report.
#[derive(Debug, Clone)]
pub struct ReplicaDump {
    /// Display name (`g0/primary`, `g0/follower`…).
    pub name: String,
    /// Whether this replica ended the schedule fenced (deposed primary).
    /// Fenced replicas are exempt from the lost-write check only.
    pub fenced: bool,
    /// `user → (version, profile_text)` — the surviving session state.
    pub sessions: BTreeMap<String, (u64, String)>,
}

/// The checker's verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Acked writes examined.
    pub acked_writes: usize,
    /// Replicas examined.
    pub replicas: usize,
    /// Users whose highest acked version is missing from an
    /// authoritative replica.
    pub lost_acked_writes: usize,
    /// `(user, version)` slots held with conflicting content — between
    /// two acked writes, between a replica and an acked write, or
    /// between two replicas.
    pub split_brain_divergence: usize,
    /// Users whose acked versions did not strictly increase in
    /// acknowledgement order.
    pub order_violations: usize,
    /// Human-readable descriptions of every violation found.
    pub details: Vec<String>,
}

impl ConsistencyReport {
    /// `true` when every check passed.
    pub fn consistent(&self) -> bool {
        self.lost_acked_writes == 0
            && self.split_brain_divergence == 0
            && self.order_violations == 0
    }
}

/// Runs every check over `acked` (acknowledgement order) and the
/// end-of-schedule `dumps`.
pub fn check(acked: &[AckedWrite], dumps: &[ReplicaDump]) -> ConsistencyReport {
    let mut report = ConsistencyReport {
        acked_writes: acked.len(),
        replicas: dumps.len(),
        ..ConsistencyReport::default()
    };

    // Index acked writes: per user the full chain, and per (user,
    // version) slot the content each ack claimed.
    let mut chains: HashMap<&str, Vec<&AckedWrite>> = HashMap::new();
    let mut slots: HashMap<(&str, u64), &str> = HashMap::new();
    for w in acked {
        chains.entry(w.user.as_str()).or_default().push(w);
        match slots.entry((w.user.as_str(), w.version)) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(w.profile_text.as_str());
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != w.profile_text {
                    report.split_brain_divergence += 1;
                    report.details.push(format!(
                        "two acked writes disagree on ({}, v{}): both were acknowledged \
                         with different content — dual primaries accepted writes",
                        w.user, w.version
                    ));
                }
            }
        }
    }

    // (c) Linear ack order: per user, versions strictly increase in seq
    // order. A repeat or regression means a second primary re-issued a
    // version number it did not own.
    for (user, chain) in &chains {
        let mut ordered = true;
        for pair in chain.windows(2) {
            if pair[1].version <= pair[0].version {
                ordered = false;
                report.details.push(format!(
                    "acked version chain for {user} is not linear: v{} (seq {}) was \
                     acked after v{} (seq {})",
                    pair[1].version, pair[1].seq, pair[0].version, pair[0].seq
                ));
            }
        }
        if !ordered {
            report.order_violations += 1;
        }
    }

    // (a) No acked write lost: every authoritative replica must hold
    // each user at >= the highest acked version (earlier acked versions
    // are legitimately superseded — the store keeps latest-only).
    for dump in dumps.iter().filter(|d| !d.fenced) {
        for (user, chain) in &chains {
            let newest = chain
                .iter()
                .max_by_key(|w| w.version)
                .expect("chains have at least one write");
            match dump.sessions.get(*user) {
                Some((version, text)) => {
                    if *version < newest.version {
                        report.lost_acked_writes += 1;
                        report.details.push(format!(
                            "{}: {user} survived at v{version} but v{} was acked",
                            dump.name, newest.version
                        ));
                    } else if *version == newest.version && text != &newest.profile_text {
                        report.split_brain_divergence += 1;
                        report.details.push(format!(
                            "{}: {user} v{version} content differs from the acked write",
                            dump.name
                        ));
                    }
                }
                None => {
                    report.lost_acked_writes += 1;
                    report.details.push(format!(
                        "{}: {user} missing entirely but v{} was acked",
                        dump.name, newest.version
                    ));
                }
            }
        }
    }

    // (b) Split-brain divergence, store side: any replica — fenced ones
    // very much included — holding a (user, version) slot that an acked
    // write holds with different content, or two replicas disagreeing
    // on a slot. A fenced dump being *behind* is expected; a fenced
    // dump *contradicting* an ack means fencing failed.
    let mut seen: HashMap<(&str, u64), (&str, &str)> = HashMap::new();
    for dump in dumps {
        for (user, (version, text)) in &dump.sessions {
            if let Some(acked_text) = slots.get(&(user.as_str(), *version)) {
                if acked_text != text {
                    report.split_brain_divergence += 1;
                    report.details.push(format!(
                        "{}: ({user}, v{version}) contradicts the acked content — a \
                         fenced-off primary accepted a conflicting write",
                        dump.name
                    ));
                }
            }
            match seen.entry((user.as_str(), *version)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((dump.name.as_str(), text.as_str()));
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let (other_name, other_text) = *e.get();
                    if other_text != text {
                        report.split_brain_divergence += 1;
                        report.details.push(format!(
                            "({user}, v{version}) diverges between {other_name} and {}",
                            dump.name
                        ));
                    }
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acked(seq: u64, user: &str, version: u64, epoch: u64, text: &str) -> AckedWrite {
        AckedWrite {
            seq,
            user: user.into(),
            version,
            epoch,
            profile_text: text.into(),
        }
    }

    fn dump(name: &str, fenced: bool, sessions: &[(&str, u64, &str)]) -> ReplicaDump {
        ReplicaDump {
            name: name.into(),
            fenced,
            sessions: sessions
                .iter()
                .map(|(u, v, t)| (u.to_string(), (*v, t.to_string())))
                .collect(),
        }
    }

    #[test]
    fn clean_history_is_consistent() {
        let acks = vec![
            acked(0, "alice", 1, 0, "a1"),
            acked(1, "alice", 2, 0, "a2"),
            acked(2, "bob", 1, 1, "b1"),
        ];
        let dumps = vec![
            dump("g0/primary", false, &[("alice", 2, "a2"), ("bob", 1, "b1")]),
            dump(
                "g0/follower",
                false,
                &[("alice", 2, "a2"), ("bob", 1, "b1")],
            ),
        ];
        let report = check(&acks, &dumps);
        assert!(
            report.consistent(),
            "unexpected violations: {:?}",
            report.details
        );
        assert_eq!(report.acked_writes, 3);
    }

    #[test]
    fn stale_fenced_replica_is_not_a_loss_but_conflict_is_divergence() {
        let acks = vec![
            acked(0, "alice", 1, 0, "a1"),
            acked(1, "alice", 2, 1, "a2-new-primary"),
        ];
        // Fenced old primary stopped at v1 — expected, not a loss.
        let clean = vec![
            dump("g0/new-primary", false, &[("alice", 2, "a2-new-primary")]),
            dump("g0/old-primary", true, &[("alice", 1, "a1")]),
        ];
        assert!(check(&acks, &clean).consistent());

        // But if the fenced primary holds v2 with *different* content,
        // it accepted a conflicting write — split brain.
        let split = vec![
            dump("g0/new-primary", false, &[("alice", 2, "a2-new-primary")]),
            dump("g0/old-primary", true, &[("alice", 2, "a2-OLD-primary")]),
        ];
        let report = check(&acks, &split);
        assert!(report.split_brain_divergence >= 1, "{:?}", report.details);
    }

    #[test]
    fn lost_acked_write_is_detected() {
        let acks = vec![acked(0, "alice", 3, 1, "a3")];
        let dumps = vec![dump("g0/primary", false, &[("alice", 2, "a2")])];
        let report = check(&acks, &dumps);
        assert_eq!(report.lost_acked_writes, 1);
        assert!(!report.consistent());

        let gone = vec![dump("g0/primary", false, &[])];
        assert_eq!(check(&acks, &gone).lost_acked_writes, 1);
    }

    #[test]
    fn version_regression_in_ack_order_is_an_order_violation() {
        let acks = vec![
            acked(0, "alice", 1, 0, "a1"),
            acked(1, "alice", 2, 0, "a2"),
            acked(2, "alice", 2, 1, "a2-again"),
        ];
        let dumps = vec![dump("g0/primary", false, &[("alice", 2, "a2-again")])];
        let report = check(&acks, &dumps);
        assert_eq!(report.order_violations, 1);
        // The duplicate slot with different content is also divergence.
        assert!(report.split_brain_divergence >= 1);
    }

    #[test]
    fn ack_log_assigns_global_order() {
        let log = AckLog::new();
        assert!(log.is_empty());
        log.record("alice", 1, 0, "a1");
        log.record("bob", 1, 0, "b1");
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
        assert_eq!(snap[0].user, "alice");
    }
}
