//! `cqp-shell` — an interactive personalization shell.
//!
//! Loads the synthetic movie database plus a profile and personalizes every
//! SQL query you type, under a search context you can change on the fly:
//!
//! ```text
//! cargo run --release -p cqp-bench --bin cqp-shell
//! cqp> \problem p2 150
//! cqp> select title from MOVIE
//! ...
//! cqp> \algo d_heurdoi
//! cqp> \soft select title from MOVIE        -- ranked, any-preference match
//! cqp> \quit
//! ```
//!
//! Commands:
//!
//! * `\problem p1 <smin> <smax>` / `p2 <cmax>` / `p3 <cmax> <smin> <smax>` /
//!   `p4 <dmin>` / `p5 <dmin> <smin> <smax>` / `p6 <smin> <smax>`
//! * `\algo <exhaustive|c_boundaries|c_maxbounds|d_maxdoi|d_singlemaxdoi|d_heurdoi|branch_bound>`
//! * `\profile` — print the loaded profile
//! * `\load <path>` — load a profile file (`cqp-profile v1` format)
//! * `\k <n>` — cap the number of extracted preferences
//! * `\soft <query>` — execute with ranked any-match semantics
//! * `\explain <query>` — show the personalized execution plan
//! * `\trace <query>` — personalize + execute under an `Obs`, then print
//!   the folded span tree and the metrics registry
//! * `\serve [n]` — start the HTTP serving layer on an ephemeral port and
//!   drive `n` requests through the closed-loop load generator
//! * `\help`, `\quit`
//!
//! Reads stdin; suitable for piping scripts in tests.

use cqp_core::{Algorithm, CqpSystem, ProblemSpec, SolverConfig};
use cqp_datagen::{generate_movie_db, generate_movie_profile, MovieDbConfig, ProfileGenConfig};
use cqp_engine::parse_query;
use cqp_obs::{Obs, Recorder};
use cqp_prefs::{Doi, Profile};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    let db_cfg = MovieDbConfig::tiny(42);
    let mut db = generate_movie_db(&db_cfg);
    let mut profile = generate_movie_profile(
        db.catalog(),
        &ProfileGenConfig {
            n_directors: db_cfg.directors,
            n_actors: db_cfg.actors,
            ..ProfileGenConfig::tiny(7)
        },
    );
    let mut problem = ProblemSpec::p2(100);
    let mut config = SolverConfig::default();

    println!(
        "cqp-shell — movie database: {} rows / {} blocks; profile `{}` ({} preferences)",
        db.total_rows(),
        db.total_blocks(),
        profile.name,
        profile.num_preferences()
    );
    println!(
        "type \\help for commands; queries are personalized with {:?}",
        problem.kind()
    );

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("cqp> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            let mut parts = cmd.split_whitespace();
            match parts.next().unwrap_or("") {
                "quit" | "q" | "exit" => break,
                "help" => help(),
                "profile" => {
                    print!("{}", cqp_prefs::to_text(&profile, db.catalog()));
                }
                "loadcsv" => {
                    let rel = parts.next();
                    let path = parts.next();
                    match (rel, path) {
                        (Some(rel), Some(path)) => match db.catalog().relation_id(rel) {
                            Ok(rid) => match std::fs::read_to_string(path) {
                                Ok(text) => match cqp_storage::load_table(&mut db, rid, &text) {
                                    Ok(n) => println!(
                                        "loaded {n} row(s) into {rel} \
                                                 (statistics refresh on next query)"
                                    ),
                                    Err(e) => println!("csv error: {e}"),
                                },
                                Err(e) => println!("cannot read {path}: {e}"),
                            },
                            Err(e) => println!("{e}"),
                        },
                        _ => println!("usage: \\loadcsv <RELATION> <path>"),
                    }
                }
                "load" => match parts.next() {
                    Some(path) => match std::fs::read_to_string(path) {
                        Ok(text) => match cqp_prefs::from_text(&text, db.catalog()) {
                            Ok(p) => {
                                println!(
                                    "loaded `{}` ({} preferences)",
                                    p.name,
                                    p.num_preferences()
                                );
                                profile = p;
                            }
                            Err(e) => println!("profile error: {e}"),
                        },
                        Err(e) => println!("cannot read {path}: {e}"),
                    },
                    None => println!("usage: \\load <path>"),
                },
                "k" => match parts.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(k) if k > 0 => {
                        config.extract.max_k = k;
                        println!("K capped at {k}");
                    }
                    _ => println!("usage: \\k <positive integer>"),
                },
                "threads" => match parts.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => {
                        config.parallelism = cqp_core::solver::Parallelism::new(n);
                        println!(
                            "threads: {n} (partitioned exact searches and \\trace \
                             run on a {n}-worker pool)"
                        );
                    }
                    _ => println!("usage: \\threads <positive integer>"),
                },
                "algo" => match parts.next().and_then(parse_algo) {
                    Some(a) => {
                        config.algorithm = a;
                        println!("algorithm: {}", a.name());
                    }
                    None => println!(
                        "usage: \\algo <exhaustive|c_boundaries|c_maxbounds|d_maxdoi|\
                         d_singlemaxdoi|d_heurdoi|branch_bound>"
                    ),
                },
                "problem" => match parse_problem(&mut parts) {
                    Some(p) => {
                        problem = p;
                        println!("problem: {:?} {:?}", problem.kind(), problem.constraints);
                    }
                    None => println!("usage: \\problem p2 <cmax> | p1 <smin> <smax> | …"),
                },
                "explain" => {
                    let rest: String = parts.collect::<Vec<_>>().join(" ");
                    let system = CqpSystem::new(&db);
                    match parse_query(&rest, db.catalog()) {
                        Ok(q) => match system.personalize(&q, &profile, &problem, &config) {
                            Ok(outcome) => {
                                match cqp_engine::explain_personalized(
                                    db.catalog(),
                                    system.stats(),
                                    &outcome.query,
                                ) {
                                    Ok(plan) => print!("{}", plan.render()),
                                    Err(e) => println!("explain error: {e}"),
                                }
                            }
                            Err(e) => println!("personalization error: {e}"),
                        },
                        Err(e) => println!("parse error: {e}"),
                    }
                }
                "soft" => {
                    let rest: String = parts.collect::<Vec<_>>().join(" ");
                    run_query(&db, &profile, &problem, &config, &rest, true);
                }
                "trace" => {
                    let rest: String = parts.collect::<Vec<_>>().join(" ");
                    trace_query(&db, &profile, &problem, &config, &rest);
                }
                "serve" => {
                    let n = parts
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or(8);
                    serve_demo(&db, &profile, n);
                }
                other => println!("unknown command \\{other}; try \\help"),
            }
        } else {
            run_query(&db, &profile, &problem, &config, line, false);
        }
    }
    println!("bye");
}

fn parse_algo(s: &str) -> Option<Algorithm> {
    // Same tokens the serving API accepts — one vocabulary everywhere.
    Algorithm::by_name(s)
}

/// `\serve [n]` — spins up the HTTP serving layer on an ephemeral port
/// over a copy of the shell's database, stores the current profile as user
/// `me`, drives `n` personalize requests through the closed-loop load
/// generator, and prints what the clients saw.
fn serve_demo(db: &cqp_storage::Database, profile: &Profile, requests: usize) {
    let mut handle =
        match cqp_server::start(Arc::new(db.clone()), cqp_server::ServerConfig::default()) {
            Ok(h) => h,
            Err(e) => {
                println!("serve error: {e}");
                return;
            }
        };
    handle.state().store.put("me", profile.clone());
    let clients = 2usize;
    let load = cqp_bench::load::LoadConfig {
        clients,
        requests_per_client: requests.div_ceil(clients).max(1),
        users: vec!["me".to_string()],
        queries: vec!["SELECT title FROM MOVIE".to_string()],
        ..Default::default()
    };
    println!(
        "serving on http://{} — driving {requests} request(s)",
        handle.addr()
    );
    match cqp_bench::load::run_load(handle.addr(), &load) {
        Ok(report) => println!("{}", report.to_json().render()),
        Err(e) => println!("load error: {e}"),
    }
    handle.stop();
}

fn parse_problem<'a>(parts: &mut impl Iterator<Item = &'a str>) -> Option<ProblemSpec> {
    let kind = parts.next()?;
    let mut num = || parts.next().and_then(|s| s.parse::<f64>().ok());
    match kind {
        "p1" => Some(ProblemSpec::p1(num()?, num()?)),
        "p2" => Some(ProblemSpec::p2(num()? as u64)),
        "p3" => Some(ProblemSpec::p3(num()? as u64, num()?, num()?)),
        "p4" => Some(ProblemSpec::p4(Doi::clamped(num()?))),
        "p5" => Some(ProblemSpec::p5(Doi::clamped(num()?), num()?, num()?)),
        "p6" => Some(ProblemSpec::p6(num()?, num()?)),
        _ => None,
    }
}

fn run_query(
    db: &cqp_storage::Database,
    profile: &Profile,
    problem: &ProblemSpec,
    config: &SolverConfig,
    sql: &str,
    soft: bool,
) {
    // Statistics are re-analyzed here so \loadcsv-ed data is visible.
    let system = CqpSystem::new(db);
    let query = match parse_query(sql, db.catalog()) {
        Ok(q) => q,
        Err(e) => {
            println!("parse error: {e}");
            return;
        }
    };
    match system.personalize(&query, profile, problem, config) {
        Ok(outcome) => {
            println!(
                "{} preference(s); doi {:.3}; est. cost {} ms; est. size {:.1}",
                outcome.solution.prefs.len(),
                outcome.solution.doi.value(),
                outcome.solution.cost_blocks,
                outcome.solution.size_rows
            );
            println!("SQL: {}", outcome.sql);
            if soft {
                match system.execute_ranked(&outcome, 1, 1.0) {
                    Ok(rows) => {
                        println!("{} row(s), ranked:", rows.len());
                        for r in rows.iter().take(10) {
                            let vals: Vec<String> = r.row.iter().map(ToString::to_string).collect();
                            println!("  [doi {:.3}] {}", r.doi, vals.join(", "));
                        }
                        if rows.len() > 10 {
                            println!("  … and {} more", rows.len() - 10);
                        }
                    }
                    Err(e) => println!("execution error: {e}"),
                }
            } else {
                match system.execute(&outcome.query, 1.0) {
                    Ok((rows, blocks, ms)) => {
                        println!(
                            "{} row(s) in {ms:.0} ms simulated I/O ({blocks} blocks):",
                            rows.len()
                        );
                        for row in rows.rows.iter().take(10) {
                            let vals: Vec<String> = row.iter().map(ToString::to_string).collect();
                            println!("  {}", vals.join(", "));
                        }
                        if rows.len() > 10 {
                            println!("  … and {} more", rows.len() - 10);
                        }
                    }
                    Err(e) => println!("execution error: {e}"),
                }
            }
        }
        Err(e) => println!("personalization error: {e}"),
    }
}

/// `\trace <query>`: the full personalize-and-execute pipeline under an
/// [`Obs`], followed by the nested span tree (solver phases, engine
/// execution, storage reads) and the metrics registry.
fn trace_query(
    db: &cqp_storage::Database,
    profile: &Profile,
    problem: &ProblemSpec,
    config: &SolverConfig,
    sql: &str,
) {
    let obs = Arc::new(Obs::new());
    let query = match parse_query(sql, db.catalog()) {
        Ok(q) => q,
        Err(e) => {
            println!("parse error: {e}");
            return;
        }
    };
    // With \threads N > 1 the request goes through the batch driver, so the
    // pipeline spans nest under a `workerNN` subtree — the span capture
    // keeps one open-span stack per OS thread, so concurrent workers can
    // never interleave into each other's subtree.
    let (solution, personalized) = if config.parallelism.threads > 1 {
        let driver =
            cqp_core::batch::BatchDriver::new(Arc::new(db.clone()), config.parallelism.threads);
        let request = cqp_core::batch::BatchRequest {
            query,
            profile: profile.clone(),
            problem: *problem,
            config: config.clone(),
        };
        let (mut results, stats) = driver.run_recorded(vec![request], &*obs);
        match results.remove(0) {
            Ok(item) => {
                println!(
                    "batch of 1 on {} worker(s): {:.1} req/s, p50 {} us",
                    stats.threads, stats.requests_per_sec, stats.p50_us
                );
                (item.solution, item.query)
            }
            Err(e) => {
                println!("personalization error: {e}");
                return;
            }
        }
    } else {
        let system = CqpSystem::new_recorded(db, &*obs);
        match system.personalize_recorded(&query, profile, problem, config, &*obs) {
            Ok(o) => (o.solution, o.query),
            Err(e) => {
                println!("personalization error: {e}");
                return;
            }
        }
    };
    let system = CqpSystem::new_recorded(db, &*obs);
    match system.execute_recorded(&personalized, 1.0, Arc::clone(&obs) as Arc<dyn Recorder>) {
        Ok((rows, blocks, ms)) => {
            println!(
                "{} preference(s); doi {:.3}; {} row(s) in {ms:.0} ms simulated I/O ({blocks} blocks)",
                solution.prefs.len(),
                solution.doi.value(),
                rows.len()
            );
        }
        Err(e) => println!("execution error: {e}"),
    }
    println!("\nspan tree:");
    print!("{}", obs.render_tree());
    let snap = obs.snapshot();
    println!("\ncounters:");
    for (name, value) in &snap.counters {
        println!("  {name:<32} {value}");
    }
    if !snap.gauges.is_empty() {
        println!("gauges:");
        for (name, value) in &snap.gauges {
            println!("  {name:<32} {value}");
        }
    }
    if !snap.histograms.is_empty() {
        println!("histograms:");
        for (name, h) in &snap.histograms {
            println!(
                "  {name:<32} count={} min={} mean={:.1} max={}",
                h.count,
                h.min,
                h.mean(),
                h.max
            );
        }
    }
}

fn help() {
    println!(
        "\\problem p1 <smin> <smax> | p2 <cmax> | p3 <cmax> <smin> <smax> |\n\
         \\        p4 <dmin> | p5 <dmin> <smin> <smax> | p6 <smin> <smax>\n\
         \\algo <exhaustive|c_boundaries|c_maxbounds|d_maxdoi|d_singlemaxdoi|d_heurdoi|branch_bound>\n\
         \\k <n>            cap the number of extracted preferences\n\
         \\profile          print the loaded profile\n\
         \\load <path>      load a cqp-profile v1 file\n\
         \\soft <query>     personalize, then rank rows matching any preference\n\
         \\threads <n>      worker pool width for exact searches and \\trace\n\
         \\trace <query>    personalize + execute, print span tree and metrics\n\
         \\serve [n]        start the HTTP serving layer, drive n requests, report\n\
         <query>           personalize and execute (strict conjunction)\n\
         \\quit"
    );
}
