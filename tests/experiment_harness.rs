//! Smoke tests for the experiment harness: every figure/table generator
//! must run at tiny scale and produce structurally sound rows. This keeps
//! the `reproduce` binary trustworthy without paying default-scale runtimes
//! in CI.

use cqp_bench::build_workload;
use cqp_bench::experiments::{self, Cell, CsvRow, FIG12_ALGORITHMS, FIG14_ALGORITHMS};
use cqp_bench::harness::{supreme_cost_blocks, Scale};

fn tiny() -> cqp_bench::Workload {
    build_workload(&Scale::tiny())
}

#[test]
fn fig12a_rows_cover_every_algorithm_and_k() {
    let w = tiny();
    let ks = [4usize, 6];
    let cells = Cell::k_sweep(&ks, |_| FIG12_ALGORITHMS.to_vec());
    let (rows, _) = experiments::fig12a(&w, &cells, 1);
    assert_eq!(rows.len(), ks.len() * FIG12_ALGORITHMS.len());
    for r in &rows {
        assert!(r.seconds >= 0.0);
        assert!(r.states >= 0.0);
    }
    // Every algorithm/K combination is present exactly once.
    for algo in FIG12_ALGORITHMS {
        for k in ks {
            assert_eq!(
                rows.iter()
                    .filter(|r| r.algorithm == algo.name() && r.x == k as f64)
                    .count(),
                1
            );
        }
    }
}

#[test]
fn fig12b_prefspace_times_are_sane() {
    let w = tiny();
    let (rows, _) = experiments::fig12b(&w, &[4, 8]);
    assert_eq!(rows.len(), 4); // 2 Ks × 2 variants
    for r in &rows {
        assert!(r.seconds >= 0.0);
        assert!(r.k == 4 || r.k == 8);
    }
}

#[test]
fn fig12c_sweeps_percent_of_supreme() {
    let w = tiny();
    let cells = Cell::percent_sweep(6, &[20, 60, 100], &FIG12_ALGORITHMS);
    let (rows, _) = experiments::fig12c(&w, &cells, 1);
    assert_eq!(rows.len(), 3 * FIG12_ALGORITHMS.len());
    // At 100% everything is feasible: a single climb, minimal states.
    let at_100: Vec<_> = rows.iter().filter(|r| r.x == 100.0).collect();
    let at_60: Vec<_> = rows.iter().filter(|r| r.x == 60.0).collect();
    let s100: f64 = at_100.iter().map(|r| r.states).sum();
    let s60: f64 = at_60.iter().map(|r| r.states).sum();
    assert!(
        s100 <= s60 + 1e-9,
        "100% supreme must not be harder than 60%"
    );
}

#[test]
fn fig13_memory_rows_are_positive_where_search_happens() {
    let w = tiny();
    let cells = Cell::k_sweep(&[6], |_| FIG12_ALGORITHMS.to_vec());
    let (rows, _) = experiments::fig13a(&w, &cells, 1);
    assert_eq!(rows.len(), FIG12_ALGORITHMS.len());
    for r in &rows {
        assert!(r.kbytes >= 0.0);
    }
}

#[test]
fn fig14_quality_gaps_nonnegative_and_heuristics_listed() {
    let w = tiny();
    let cells = Cell::k_sweep(&[6], |_| FIG14_ALGORITHMS.to_vec());
    let (rows, _) = experiments::fig14a(&w, &cells, cqp_prefs::ConjModel::NoisyOr, 1);
    assert_eq!(rows.len(), FIG14_ALGORITHMS.len());
    for r in &rows {
        assert!(r.quality_gap >= 0.0, "{} gap negative", r.algorithm);
        assert!(r.quality_gap <= 1.0);
    }
}

#[test]
fn fig15_estimate_tracks_measurement() {
    let w = tiny();
    let (rows, _) = experiments::fig15(&w, &[3, 6]);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(r.estimated_ms > 0.0);
        // Measured = simulated I/O (identical to the estimate by
        // construction) + CPU time, so it can only exceed the estimate.
        assert!(r.real_ms >= r.estimated_ms);
        // ... but not by much: the model's error is the CPU overhead only.
        assert!(r.real_ms <= r.estimated_ms * 1.5, "{r:?}");
    }
}

#[test]
fn table1_solves_all_six_and_matches_exact_where_guaranteed() {
    let w = tiny();
    let (rows, _) = experiments::table1(&w, 8);
    assert_eq!(rows.len(), 6);
    for r in &rows {
        assert!((1..=6).contains(&r.problem));
        // The state-space adaptation is exact for Problems 2 and 4 (see
        // algorithms::general); the composite problems are heuristic and
        // may legitimately diverge from branch-and-bound.
        if r.problem == 2 || r.problem == 4 {
            assert!(
                r.matches_exact,
                "P{} diverged from branch-and-bound",
                r.problem
            );
        }
        if r.found {
            assert!(r.doi >= 0.0 && r.doi <= 1.0);
            assert!(r.size_rows >= 0.0);
        }
    }
}

#[test]
fn ablations_run_at_tiny_scale() {
    let w = tiny();
    let (rows, _) = experiments::ablation_generic(&w, 6, 1);
    assert!(rows.len() >= 6);
    for (t, q) in &rows {
        assert!(t.seconds >= 0.0);
        assert!(q.quality_gap >= 0.0);
    }
    let models = experiments::ablation_doi_model(&w, &[5], 1);
    let names: Vec<&str> = models.iter().map(|(name, _, _)| name.as_str()).collect();
    assert_eq!(names, ["Max", "Quadrature"], "noisy-or is fig14a itself");
    let (budget, _) = experiments::ablation_annealing_budget(&w, 6, &[100, 400]);
    assert_eq!(budget.len(), 2);
    assert!(budget[0].x < budget[1].x);
}

/// Every row kind renders one CSV line with as many fields as its header
/// names (the Table 1 spec is one quoted field).
fn csv_table<R: CsvRow>(rows: &[R]) -> Vec<String> {
    let columns = R::HEADER.split(',').count();
    let lines: Vec<String> = rows.iter().map(CsvRow::csv).collect();
    for line in &lines {
        let unquoted: String = line.split('"').step_by(2).collect::<Vec<_>>().join("spec");
        assert_eq!(
            unquoted.split(',').count(),
            columns,
            "{}: {line}",
            R::HEADER
        );
    }
    lines
}

#[test]
fn csv_writers_roundtrip_every_row_kind() {
    let w = tiny();
    let cells = Cell::k_sweep(&[4], |_| vec![cqp_core::Algorithm::CMaxBounds]);
    let times = experiments::fig12a(&w, &cells, 1).0;
    let mem = experiments::fig13a(&w, &cells, 1).0;
    let quality_cells = Cell::k_sweep(&[4], |_| FIG14_ALGORITHMS.to_vec());
    let qual = experiments::fig14a(&w, &quality_cells, cqp_prefs::ConjModel::NoisyOr, 1).0;
    let pres = experiments::fig12b(&w, &[4]).0;
    let cm = experiments::fig15(&w, &[3]).0;
    let probs = experiments::table1(&w, 6).0;
    let blocks = experiments::ablation_block_size(&[32], 4).0;
    for lines in [
        csv_table(&times),
        csv_table(&mem),
        csv_table(&qual),
        csv_table(&pres),
        csv_table(&cm),
        csv_table(&probs),
        csv_table(&blocks),
    ] {
        assert!(!lines.is_empty(), "a table lacks data rows");
    }
    assert_eq!(
        experiments::AlgoTimeRow::HEADER,
        "x,algorithm,seconds,states"
    );
    assert!(times[0].csv().starts_with("4,C_MaxBounds,"));
}

#[test]
fn supreme_cost_and_cmax_policy() {
    let w = tiny();
    let (p, q) = w.pairs().next().unwrap();
    let (space, _) = w.space(p, q, 8, true);
    let supreme = supreme_cost_blocks(&space);
    assert!(supreme > 0);
    // Tiny scale uses the fixed budget.
    assert_eq!(w.scale.cmax_for(&space), w.scale.cmax_blocks);
    // Ratio mode binds to the supreme cost.
    let ratio = Scale {
        cmax_supreme_frac: Some(0.5),
        ..Scale::tiny()
    };
    let half = ratio.cmax_for(&space);
    assert!(half > 0 && half <= supreme);
    assert_eq!(half, ((supreme as f64) * 0.5).round() as u64);
}
