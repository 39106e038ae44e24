//! The paper and fleet path: the paper's artifacts from scratch, then a
//! 500-system synthetic Green500 list built cold and re-scored warm.

use crate::trace::{layer, op, Ledger};
use crate::{Metric, Mode, Tally, Timings};
use cluster_sim::{ExecutionEngine, FleetConfig, Workload};
use std::time::Instant;
use tgi_core::{EvalScratch, Ranking, ReferenceSystem, TgiEvaluator};
use tgi_harness::{
    fig2_hpl_efficiency, fig3_stream_efficiency, fig4_iozone_efficiency, fig5_tgi_arithmetic,
    fig6_tgi_weighted, system_g_reference, table1_reference_performance, table2_pcc, FireSweep,
    FleetSweep, FleetTable,
};

/// FNV-1a digest of the paper artifacts' CSV text (Figs. 2–6, Tables I–II
/// in that order). The artifacts do not depend on the seed; a change here
/// means the program's answers changed.
pub const PAPER_DIGEST: u64 = 0x45e6_7022_8b70_55ca;

/// Systems evaluated by the `core.evaluate_cells` probe per traced list.
const EVAL_PROBE_SYSTEMS: usize = 16;

const PAPER: usize = 0;
const COLD: usize = 1;
const WARM: usize = 2;

pub struct Green500 {
    fleet: FleetConfig,
    reference: ReferenceSystem,
    /// `run_sequential` on a fresh sweep: the table every list must equal.
    oracle: FleetTable,
    /// The oracle's 12 rankings, (weighting, mean) row-major.
    expected: Vec<Ranking>,
    timings: [Timings; 3],
    memo: (usize, usize),
    duplicates: usize,
    pub tally: Tally,
}

fn sweep(specs: Vec<cluster_sim::ClusterSpec>) -> FleetSweep {
    FleetSweep::new().fleet(specs).suite("fire", Workload::fire_suite()).paper_axes()
}

fn rankings(table: &FleetTable) -> Vec<Ranking> {
    let (weightings, means) = (table.weightings().len(), table.means().len());
    (0..weightings * means)
        .map(|cell| {
            let _s = layer("core.rank");
            table.green500_ranking(0, cell / means, cell % means).expect("fleet scores are finite")
        })
        .collect()
}

/// FNV-1a over the CSV rendering of every paper artifact.
fn paper_digest(parts: &[String]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for &b in part.as_bytes().iter().chain(b"\x1e") {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

fn bitwise_equal(a: &FleetTable, b: &FleetTable) -> bool {
    a == b
        && a.values().len() == b.values().len()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Green500 {
    /// Builds the correctness oracle for this seed's fleet (not timed).
    pub fn new(seed: u64, systems: usize) -> Self {
        let fleet = FleetConfig::new(seed).systems(systems);
        let reference = system_g_reference();
        let oracle = sweep(fleet.generate()).run_sequential(&reference).expect("fleet evaluates");
        let expected = rankings(&oracle);
        Green500 {
            fleet,
            reference,
            oracle,
            expected,
            timings: Default::default(),
            memo: (0, 0),
            duplicates: 0,
            tally: Tally::default(),
        }
    }

    /// The set-up a list needs: the SystemG reference every score divides by.
    pub fn setup(&mut self) {
        let _s = layer("core.reference");
        self.reference = system_g_reference();
    }

    /// The reference the lists score against.
    pub fn reference(&self) -> &ReferenceSystem {
        &self.reference
    }

    /// Runs rounds (paper, cold list, warm list) until `until`.
    pub fn run_slice(&mut self, until: Instant, mode: Mode) {
        let traced = mode != Mode::Untraced;
        while Instant::now() < until {
            self.paper(traced);
            self.lists(traced);
        }
    }

    fn paper(&mut self, traced: bool) {
        let start = Instant::now();
        let artifacts = {
            let _op = op("green500.paper");
            let reference = {
                let _s = layer("core.reference");
                system_g_reference()
            };
            let sweep = {
                let _s = layer("harness.fire_sweep");
                FireSweep::run()
            };
            let _s = layer("harness.artifacts");
            (
                [
                    fig2_hpl_efficiency(&sweep),
                    fig3_stream_efficiency(&sweep),
                    fig4_iozone_efficiency(&sweep),
                    fig5_tgi_arithmetic(&sweep, &reference),
                    fig6_tgi_weighted(&sweep, &reference),
                ],
                [table1_reference_performance(&reference), table2_pcc(&sweep, &reference)],
            )
        };
        self.timings[PAPER].push(traced, start.elapsed().as_secs_f64());
        let (figures, tables) = artifacts;
        let csv: Vec<String> =
            figures.iter().map(|f| f.to_csv()).chain(tables.iter().map(|t| t.to_csv())).collect();
        let digest = paper_digest(&csv);
        self.tally.check(digest == PAPER_DIGEST, || {
            format!("paper artifacts digest {digest:#018x} != pinned {PAPER_DIGEST:#018x}")
        });
    }

    fn lists(&mut self, traced: bool) {
        let start = Instant::now();
        let (sweep, cold, cold_ranks) = {
            let _op = op("green500.list_cold");
            let specs = {
                let _s = layer("cluster.generate");
                self.fleet.generate()
            };
            let sweep = {
                let _s = layer("harness.sweep_build");
                sweep(specs)
            };
            let cold = {
                let _s = layer("harness.fleet_cold");
                sweep.run(&self.reference).expect("fleet evaluates")
            };
            let ranks = rankings(&cold);
            (sweep, cold, ranks)
        };
        self.timings[COLD].push(traced, start.elapsed().as_secs_f64());
        self.check_list("cold", &cold, &cold_ranks);

        let start = Instant::now();
        let (warm, warm_ranks) = {
            let _op = op("green500.list_warm");
            let warm = {
                let _s = layer("harness.fleet_warm");
                sweep.run(&self.reference).expect("fleet evaluates")
            };
            let ranks = rankings(&warm);
            (warm, ranks)
        };
        self.timings[WARM].push(traced, start.elapsed().as_secs_f64());
        self.check_list("warm", &warm, &warm_ranks);
        let duplicates = sweep.duplicate_simulations();
        self.tally.check(duplicates == 0, || format!("{duplicates} duplicate simulations"));
        self.duplicates += duplicates;
        self.memo = sweep.memo_stats();
        drop(sweep);
        if traced {
            self.probe_layers();
        }
    }

    fn check_list(&mut self, phase: &str, table: &FleetTable, ranks: &[Ranking]) {
        self.tally.check(bitwise_equal(table, &self.oracle), || {
            format!("{phase} fleet table differs from run_sequential")
        });
        self.tally.check(ranks == self.expected.as_slice(), || {
            format!("{phase} green500 rankings differ from the oracle's")
        });
    }

    /// Calls the layers a sweep hides, each on its own: the fleet's
    /// simulations from cold engines, and the evaluator on single systems.
    fn probe_layers(&mut self) {
        let specs = self.fleet.generate();
        let fire = Workload::fire_suite();
        let runs: Vec<_> = {
            let _s = layer("cluster.simulate");
            specs
                .iter()
                .map(|spec| ExecutionEngine::new(spec.clone()).run_suite(&fire, spec.total_cores()))
                .collect()
        };
        let evaluator = TgiEvaluator::new(&self.reference);
        let (weightings, means) = (self.oracle.weightings(), self.oracle.means());
        let mut scratch = EvalScratch::with_capacity(fire.len());
        let mut cells = Vec::with_capacity(weightings.len() * means.len());
        for (system, runs) in runs.iter().enumerate().take(EVAL_PROBE_SYSTEMS) {
            let measurements: Vec<_> = runs.iter().map(|r| r.measurement()).collect();
            let result = {
                let _s = layer("core.evaluate_cells");
                evaluator.evaluate_cells_into(
                    &measurements,
                    weightings,
                    means,
                    &mut scratch,
                    &mut cells,
                )
            };
            let ok = result.is_ok()
                && cells.iter().enumerate().all(|(c, v)| {
                    v.to_bits()
                        == self.oracle.value(system, 0, c / means.len(), c % means.len()).to_bits()
                });
            self.tally
                .check(ok, || format!("evaluate_cells on system {system} differs from the sweep"));
        }
    }

    pub fn end_to_end(&mut self, out: &mut Vec<Metric>) {
        for (name, class) in
            [("paper_per_s", PAPER), ("list_cold_per_s", COLD), ("list_warm_per_s", WARM)]
        {
            out.push(Metric::rate(name, &mut self.timings[class].untraced));
        }
    }

    pub fn per_layer(&mut self, ledger: &Ledger, out: &mut Vec<Metric>) {
        for (name, span) in [
            ("cluster.generate_ms", "cluster.generate"),
            ("cluster.simulate_ms", "cluster.simulate"),
            ("core.rank_ms", "core.rank"),
            ("core.reference_ms", "core.reference"),
            ("harness.sweep_build_ms", "harness.sweep_build"),
            ("harness.fleet_cold_ms", "harness.fleet_cold"),
            ("harness.fleet_warm_ms", "harness.fleet_warm"),
            ("harness.fire_sweep_ms", "harness.fire_sweep"),
            ("harness.artifacts_ms", "harness.artifacts"),
        ] {
            out.push(Metric::span_median(name, ledger, span, 1e3, "ms"));
        }
        out.push(Metric::span_median(
            "core.evaluate_cells_us",
            ledger,
            "core.evaluate_cells",
            1e6,
            "us",
        ));
        let lists = self.timings[WARM].untraced.len() + self.timings[WARM].traced.len();
        out.push(Metric::count("harness.memo_misses", self.memo.1 as f64, lists));
        out.push(Metric::count("harness.memo_hits", self.memo.0 as f64, lists));
        out.push(Metric::count("harness.duplicate_simulations", self.duplicates as f64, lists));
    }

    pub fn timings(&self) -> &[Timings] {
        &self.timings
    }
}
