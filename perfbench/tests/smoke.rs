//! Smoke mode: every workload on small inputs, with every correctness
//! check on. One test, so runs never share the global span collector.

use perfbench::{run, Config, Sizes, Workload};

fn config(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 3.0,
        trace,
        sizes: Sizes::SMOKE,
        out_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

#[test]
fn every_workload_runs_with_its_checks_passing() {
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        for trace in [false, true] {
            let report = run(&config(workload, 40 + i as u64, trace)).expect("run completes");
            let tally = &report.tally;
            assert!(tally.attempted > 100, "{workload:?}: only {} checks", tally.attempted);
            assert_eq!(tally.failed, 0, "{workload:?} trace={trace}: {:?}", tally.failures);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let expected: &[&str] = if trace {
                &[
                    "cluster.simulate_ms",
                    "store.decodes_per_call",
                    "server.codec_us",
                    "trace.coverage",
                ]
            } else {
                &["paper_per_s", "windows_per_s", "req_p90_ms", "setup_s", "peak_rss_mb"]
            };
            for name in expected {
                assert!(names.contains(name), "{workload:?} trace={trace} lacks {name}");
            }
            if !trace {
                for m in &report.metrics {
                    assert!(m.value.is_finite() && m.value > 0.0, "{}: {}", m.name, m.value);
                }
            }
            assert_eq!(report.chrome_trace.is_some(), trace);
        }
    }
}
