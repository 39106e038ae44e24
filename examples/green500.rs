//! Synthetic Green500: generate a Top500-scale fleet and rank it by TGI.
//!
//! ```sh
//! cargo run --release --example green500
//! ```
//!
//! Three views from one sweep engine:
//!
//! 1. List scale: 500 clusters sampled from Top500-style distributions
//!    ([`tgi::cluster::FleetConfig`]), every one simulated and scored
//!    across the paper's full weighting × mean grid in one parallel
//!    [`tgi::harness::FleetSweep`], then the energy-weighted geometric
//!    column sorted into a Green500-style top 20.
//! 2. Scale: Fire vs Fire-GPU at every paper core count, one
//!    [`FleetSweep::system_at`] row per (cluster, cores) point.
//! 3. The built-in presets ranked side by side under FLOPS/W and TGI
//!    ([`tgi::harness::list::Green500StyleList`]), showing which systems
//!    move when the whole machine is scored.

use tgi::cluster::{ClusterSpec, FleetConfig, Workload};
use tgi::core::{MeanKind, Weighting};
use tgi::harness::list::{builtin_fleet, Green500StyleList};
use tgi::harness::sweep::FIRE_CORE_COUNTS;
use tgi::harness::{system_g_reference, FleetSweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 500 systems, deterministically sampled from seed 42: log-normal node
    // counts and idle power, categorical interconnects and socket configs,
    // facility PUE — every spec valid and runnable.
    let fleet = FleetConfig::new(42).generate();

    let sweep = FleetSweep::new().fleet(fleet).suite("fire", Workload::fire_suite()).paper_axes();
    let reference = system_g_reference();
    let table = sweep.run(&reference)?;

    // Pick the energy-weighted geometric-mean column for the headline list.
    let weighting = table
        .weightings()
        .iter()
        .position(|w| *w == Weighting::Energy)
        .expect("paper axes include the energy weighting");
    let mean = table
        .means()
        .iter()
        .position(|m| *m == MeanKind::Geometric)
        .expect("paper axes include the geometric mean");
    let ranking = table.green500_ranking(0, weighting, mean)?;

    println!(
        "Synthetic Green500 — {} systems vs {}, energy-weighted geometric TGI",
        table.systems().len(),
        table.reference_name()
    );
    println!(
        "{:>4}  {:<12} {:>6} {:>8} {:>5} {:>10}",
        "Rank", "System", "Nodes", "Cores", "PUE", "TGI"
    );
    for (rank, entry) in ranking.entries().iter().take(20).enumerate() {
        let s = table
            .systems()
            .iter()
            .position(|name| name == &entry.name)
            .expect("ranked system is in the table");
        println!(
            "{:>4}  {:<12} {:>6} {:>8} {:>5.2} {:>10.4}",
            rank + 1,
            entry.name,
            table.nodes()[s],
            table.cores()[s],
            table.pues()[s],
            entry.tgi
        );
    }

    let (_, misses) = sweep.memo_stats();
    println!(
        "\n{} cells from {} simulations ({} duplicates) — all {} weighting × mean \
         columns share each system's one simulated suite.",
        table.len(),
        misses,
        sweep.duplicate_simulations(),
        table.weightings().len() * table.means().len()
    );

    // The same engine across scale: Fire and Fire-GPU at every Figure 5
    // core count, one row per (cluster, cores) point.
    let grid = [ClusterSpec::fire(), ClusterSpec::fire_gpu()]
        .into_iter()
        .flat_map(|spec| FIRE_CORE_COUNTS.map(|cores| (spec.clone(), cores)))
        .fold(FleetSweep::new(), |sweep, (spec, cores)| sweep.system_at(spec, cores))
        .suite("fire", Workload::fire_suite())
        .paper_axes()
        .run(&reference)?;
    let n = FIRE_CORE_COUNTS.len();
    println!(
        "
TGI vs cores, energy-weighted geometric:"
    );
    println!("{:>6} {:>10} {:>10}", "Cores", grid.systems()[0], grid.systems()[n]);
    for (k, cores) in FIRE_CORE_COUNTS.iter().enumerate() {
        println!(
            "{cores:>6} {:>10.4} {:>10.4}",
            grid.value(k, 0, weighting, mean),
            grid.value(n + k, 0, weighting, mean)
        );
    }

    println!(
        "
{}",
        Green500StyleList::build(&reference, &builtin_fleet())?.to_table().to_text()
    );
    Ok(())
}
