//! Algorithm showdown: all ten search algorithms (the paper's five, the
//! exhaustive oracle, branch-and-bound, and the three generic baselines)
//! on one instance, with time / work / quality side by side — a miniature
//! of the paper's Section 7.2 comparison.
//!
//! ```text
//! cargo run --release -p cqp-bench --example algorithm_showdown
//! ```

use cqp_bench::harness::{supreme_cost_blocks, Scale};
use cqp_bench::{build_workload, experiments};
use cqp_core::{solve_p2, Algorithm};
use cqp_prefs::ConjModel;
use std::time::Instant;

fn main() {
    let w = build_workload(&Scale::default_scale());
    let spaces = experiments::spaces_at_k(&w, 18);
    let space = &spaces[0];
    let supreme = supreme_cost_blocks(space);
    let cmax = supreme / 2; // the hardest regime per Figure 12(c)
    println!(
        "instance: K = {}, Supreme Cost = {supreme} blocks, cmax = {cmax} blocks\n",
        space.k()
    );

    let algorithms = [
        Algorithm::Exhaustive,
        Algorithm::DMaxDoi,
        Algorithm::DSingleMaxDoi,
        Algorithm::CBoundaries,
        Algorithm::CMaxBounds,
        Algorithm::DHeurDoi,
        Algorithm::BranchBound,
        Algorithm::Annealing,
        Algorithm::Tabu,
        Algorithm::Genetic,
    ];

    let optimum = solve_p2(space, ConjModel::NoisyOr, cmax, Algorithm::CBoundaries);
    println!(
        "{:<16} {:>10} {:>10} {:>9} {:>12} {:>8}",
        "algorithm", "seconds", "states", "doi", "gap(x1e-7)", "exact?"
    );
    for algo in algorithms {
        let started = Instant::now();
        let sol = solve_p2(space, ConjModel::NoisyOr, cmax, algo);
        let secs = started.elapsed().as_secs_f64();
        println!(
            "{:<16} {:>10.6} {:>10} {:>9.5} {:>12.2} {:>8}",
            algo.name(),
            secs,
            sol.instrument.states_examined,
            sol.doi.value(),
            (optimum.doi.value() - sol.doi.value()) * 1e7,
            if algo.is_exact() { "yes" } else { "no" }
        );
    }

    println!(
        "\n(the gap column is doi_optimal − doi_found scaled by 10⁷, the unit of \
         the paper's Figure 14)"
    );
}
