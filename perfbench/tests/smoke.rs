//! Self-tests of the benchmark: a tiny-population, few-timestamp run of
//! every workload emits every metric of its catalogue with its unit and
//! passes its gate, and a sink that silently drops one report trips the
//! gate.

use ldp_perfbench::report::{catalogue, result_line, END_TO_END, PER_LAYER};
use ldp_perfbench::{run, Options, Workload};
use std::path::PathBuf;

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test output dir");
    dir
}

/// The benchmark's settings shrunk to a run of a second or so.
fn tiny(workload: Workload, trace: bool, name: &str) -> Options {
    let mut opts = Options::new(workload, 7, 0.05, trace, out_dir(name));
    opts.population = 600;
    opts.episode_steps = 30;
    opts.block_steps = 10;
    opts
}

fn smoke(workload: Workload, trace: bool) {
    let name = format!("smoke-{}-{}", workload.name(), trace);
    let outcome = run(&tiny(workload, trace, &name)).expect("run completes");
    assert!(
        outcome.correct,
        "{name}: gate failed: {:?}",
        outcome.mismatches
    );
    assert_eq!(outcome.failed, 0, "{name}");
    assert!(
        outcome.attempted >= 30,
        "{name}: {} rounds",
        outcome.attempted
    );
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        got,
        catalogue(trace).to_vec(),
        "{name}: metric names and units"
    );
    assert!(
        outcome.metrics.iter().all(|m| m.value.is_finite()),
        "{name}: {:?}",
        outcome.metrics
    );
    let line = result_line(&outcome);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    if !trace {
        for m in &outcome.metrics {
            assert!(m.value > 0.0, "{name}: end-to-end metric {} is 0", m.name);
        }
    } else {
        let value = |n: &str| outcome.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert!(value("trace.unattributed_share") <= 0.05, "{name}");
        assert!(value("service.reports_accumulated") > 0.0, "{name}");
        assert!(value("recovery.records_replayed") > 0.0, "{name}");
        assert!(value("fo.accumulate_ns_per_report") > 0.0, "{name}");
    }
}

#[test]
fn lba_grr_taxi_durable_emits_every_metric() {
    smoke(Workload::LbaGrrTaxiDurable, false);
    smoke(Workload::LbaGrrTaxiDurable, true);
}

#[test]
fn lba_grr_taxi_2sess_emits_every_metric() {
    smoke(Workload::LbaGrrTaxi2Sess, false);
    smoke(Workload::LbaGrrTaxi2Sess, true);
}

/// The WAL and recovery figures describe the WAL left on disk, which
/// holds only the last block of the last episode, however many episodes
/// the run had time for.
#[test]
fn wal_figures_do_not_scale_with_episodes() {
    let metrics = |seconds: f64, name: &str| {
        let mut opts = tiny(Workload::LbaGrrTaxiDurable, true, name);
        opts.seconds = seconds;
        let outcome = run(&opts).expect("run completes");
        assert!(outcome.correct, "{name}: {:?}", outcome.mismatches);
        let episodes: usize = outcome
            .notes
            .iter()
            .find(|(k, _)| k == "episodes")
            .and_then(|(_, v)| v.parse().ok())
            .expect("episodes note");
        let value = |n: &str| outcome.metrics.iter().find(|m| m.name == n).unwrap().value;
        (
            episodes,
            value("wal.bytes_per_report"),
            value("recovery.records_replayed"),
        )
    };
    let (one, bytes_one, replayed_one) = metrics(0.05, "episodes-one");
    let (many, bytes_many, replayed_many) = metrics(2.0, "episodes-many");
    assert_eq!(one, 1);
    assert!(many >= 2, "{many} episodes");
    assert_eq!(replayed_many, replayed_one);
    assert!(
        (bytes_many / bytes_one - 1.0).abs() < 0.05,
        "{bytes_many} B/report over {many} episodes, {bytes_one} over one"
    );
}

#[test]
fn a_dropped_report_trips_the_gate() {
    let mut opts = tiny(Workload::LbaGrrTaxiDurable, false, "tampered");
    opts.drop_response = Some(17);
    let outcome = run(&opts).expect("run completes");
    assert!(!outcome.correct, "dropping a report must fail the gate");
    let all = outcome.mismatches.join("\n");
    assert!(all.contains("accumulated"), "{all}");
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        let entry = format!("\"name\": \"{}\", \"why\": \"{}\"", w.name(), w.why());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
