//! Experiment-service pins: canonical JSON properties, golden plan hashes,
//! and the shard/merge byte-identity contract — both in-process and through
//! the `reproduce` binary exactly as CI drives it.

use std::path::PathBuf;
use std::process::Command;

use buzz_bench::experiments;
use buzz_bench::orchestrate::runner::run_shard;
use buzz_bench::orchestrate::{
    diff, figures_json, CanonicalJson, DiffOutcome, GridOptions, Runbook, Shard, SweepPlan,
};
use buzz_bench::report::reports_to_json;
use proptest::prelude::*;

/// Golden hashes for the stock plans.  These pin the whole addressing
/// scheme — canonical spec serialization, FNV-1a/SplitMix64 hashing, and
/// plan expansion order.  If one of these moves, every runbook ever written
/// stops being comparable: bump them only for a deliberate, announced
/// format change.
#[test]
fn golden_plan_hashes_are_stable() {
    let all_default = SweepPlan::all(experiments::DEFAULT_LOCATIONS, 2012);
    assert_eq!(all_default.plan_hash(), "96b017c38d06768c");

    let all_ci = SweepPlan::all(2, 2012);
    assert_eq!(all_ci.plan_hash(), "dacc5d847eacf0be");
    assert_eq!(all_ci.jobs[0].id, "table12");
    assert_eq!(all_ci.jobs[0].hash, "468b0406040b601c");

    let grid_default = SweepPlan::uplink_grid(
        &GridOptions::default(),
        experiments::DEFAULT_LOCATIONS,
        2012,
    )
    .unwrap();
    assert_eq!(grid_default.jobs.len(), 15);
    assert_eq!(grid_default.plan_hash(), "bae5c62b05ce2c77");
}

#[test]
fn canonical_float_formatting_is_stable() {
    let cases = [
        (0.0_f64, "0.0"),
        (-0.0, "-0.0"),
        (1.0, "1.0"),
        (2.5, "2.5"),
        // Display never uses exponent notation: big floats expand fully
        // and pick up the `.0` float marker.
        (-1.0e21, "-1000000000000000000000.0"),
        (0.1, "0.1"),
        (1.0 / 3.0, "0.3333333333333333"),
    ];
    for (value, expected) in cases {
        assert_eq!(CanonicalJson::Float(value).serialize(), expected);
    }
}

/// A bounded random canonical-JSON value: scalars at depth 0, arrays and
/// objects above, so generation terminates.
struct JsonStrategy {
    depth: u32,
}

impl Strategy for JsonStrategy {
    type Value = CanonicalJson;
    fn generate(&self, rng: &mut TestRng) -> CanonicalJson {
        let scalar_only = self.depth == 0;
        let pick = rng.next_bounded(if scalar_only { 4 } else { 6 });
        let string = |rng: &mut TestRng| {
            let len = rng.next_bounded(6) as usize;
            (0..len)
                .map(|_| {
                    // Printable ASCII plus the characters the escaper handles.
                    let options = [b'a', b'Z', b'0', b' ', b'"', b'\\', b'\n', b'\t'];
                    options[rng.next_bounded(options.len() as u64) as usize] as char
                })
                .collect::<String>()
        };
        match pick {
            0 => CanonicalJson::Null,
            1 => CanonicalJson::Bool(rng.next_u64() & 1 == 1),
            2 => CanonicalJson::Int(rng.next_u64() as i64 >> 16),
            3 => {
                if rng.next_u64() & 1 == 1 {
                    CanonicalJson::Float((rng.next_f64() - 0.5) * 2e9)
                } else {
                    CanonicalJson::Str(string(rng))
                }
            }
            4 => {
                let child = JsonStrategy {
                    depth: self.depth - 1,
                };
                let len = rng.next_bounded(4) as usize;
                CanonicalJson::Array((0..len).map(|_| child.generate(rng)).collect())
            }
            _ => {
                let child = JsonStrategy {
                    depth: self.depth - 1,
                };
                let len = rng.next_bounded(4) as usize;
                CanonicalJson::object(
                    (0..len)
                        .map(|_| (string(rng), child.generate(rng)))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.clone()))
                        .collect(),
                )
            }
        }
    }
}

proptest! {
    /// serialize → parse → serialize is the identity on canonical bytes.
    #[test]
    fn canonical_serialization_roundtrips(value in JsonStrategy { depth: 3 }) {
        let bytes = value.serialize();
        let reparsed = CanonicalJson::parse(&bytes)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e} on `{bytes}`")))?;
        prop_assert_eq!(reparsed.serialize(), bytes);
    }

    /// Object keys come out sorted regardless of insertion order.
    #[test]
    fn canonical_objects_sort_their_keys(value in JsonStrategy { depth: 2 }) {
        let shuffled = CanonicalJson::object(vec![
            ("zzz", value.clone()),
            ("aaa", CanonicalJson::Null),
            ("mmm", value.clone()),
        ]);
        let bytes = shuffled.serialize();
        let (a, m) = (bytes.find("\"aaa\"").unwrap(), bytes.find("\"mmm\"").unwrap());
        let z = bytes.find("\"zzz\"").unwrap();
        prop_assert!(a < m && m < z, "keys out of order in `{}`", bytes);
    }

    /// Finite floats survive the text round-trip bit-for-bit (shortest
    /// round-trip formatting), and whole floats keep their `.0` marker so
    /// they re-parse as floats, not ints.
    #[test]
    fn canonical_floats_roundtrip_exactly(x in any::<f64>()) {
        let bytes = CanonicalJson::Float(x).serialize();
        prop_assert!(bytes.contains('.') || bytes.contains('e') || bytes.contains('E'));
        match CanonicalJson::parse(&bytes) {
            Ok(CanonicalJson::Float(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
            other => prop_assert!(false, "reparsed as {:?}", other),
        }
    }

    /// Job and plan hashes are stable across re-expansion and sensitive to
    /// the seed.
    #[test]
    fn plan_hashes_are_deterministic(seed in 0u64..1_000_000, locations in 1u64..6) {
        let a = SweepPlan::all(locations, seed);
        let b = SweepPlan::all(locations, seed);
        prop_assert_eq!(a.plan_hash(), b.plan_hash());
        let c = SweepPlan::all(locations, seed + 1);
        prop_assert_ne!(a.plan_hash(), c.plan_hash());
    }
}

/// A cheap four-figure plan for merge tests (sub-second figures only).
fn small_plan() -> SweepPlan {
    SweepPlan::figure_list("table12,fig8,fig9,lemma51", 1, 2012).unwrap()
}

#[test]
fn sharded_runs_merge_byte_identically_for_any_shard_count() {
    let plan = small_plan();
    let serial = run_shard(&plan, Shard::full(), 1);
    let reference = Runbook::assemble(&plan, &serial, "test").unwrap();
    let reference_figures = figures_json(&plan, &serial).unwrap();
    // The merged figures are the legacy serializer over direct calls.
    let direct = reports_to_json(&[
        experiments::table12(),
        experiments::fig8(),
        experiments::fig9(2012),
        experiments::lemma51(2012, 1),
    ]);
    assert_eq!(reference_figures, direct);

    for count in 2..=5 {
        let mut pooled = Vec::new();
        for index in 1..=count {
            let shard = Shard { index, count };
            // Alternate thread counts across shards: artifacts must not care.
            pooled.extend(run_shard(&plan, shard, 1 + index % 2));
        }
        let merged = Runbook::assemble(&plan, &pooled, "test").unwrap();
        assert_eq!(merged.serialize(), reference.serialize(), "count {count}");
        assert!(diff(&reference, &merged).is_identical());
        assert_eq!(figures_json(&plan, &pooled).unwrap(), reference_figures);
    }
}

#[test]
fn diff_localizes_a_corrupted_job() {
    let plan = small_plan();
    let artifacts = run_shard(&plan, Shard::full(), 1);
    let clean = Runbook::assemble(&plan, &artifacts, "test").unwrap();
    let mut corrupt = clean.clone();
    corrupt.jobs[2].artifact_hash = "ffffffffffffffff".into();
    match diff(&clean, &corrupt) {
        DiffOutcome::Divergence { index, id, .. } => {
            assert_eq!(index, 2);
            assert_eq!(id, "fig9");
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

/// `--locations` outside `1..=i64::MAX` is refused with exit 2 on every
/// subcommand: zero would print empty tables, and larger counts would be
/// recorded as negative numbers in the plan's canonical JSON.
#[test]
fn reproduce_binary_rejects_out_of_range_locations() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    let reproduce = |args: &[&str]| Command::new(bin).args(args).output().expect("spawn");
    let plan = |locations| reproduce(&["plan", "--plan", "fig9", "--locations", locations]);
    let refused = [
        reproduce(&["fig10", "--locations", "0"]),
        plan("0"),
        plan("-1"),
        plan("9223372036854775808"),
        plan("18446744073709551615"),
    ];
    for (case, output) in refused.iter().enumerate() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "case {case}: {stderr}");
        assert!(output.stdout.is_empty(), "case {case} printed output");
        assert!(stderr.contains("bad --locations"), "case {case}: {stderr}");
    }
    let output = plan("9223372036854775807");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("\"locations\":9223372036854775807"),
        "{stdout}"
    );
}

/// Drives the real binary the way CI does: three shards at two threads
/// merged against a serial single-process run, `diff` exit code checked,
/// and the merged figures byte-compared to the legacy `--json` output.
#[test]
fn reproduce_binary_shard_merge_diff_pipeline() {
    let bin = env!("CARGO_BIN_EXE_reproduce");
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("runbook-e2e");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let path = |name: &str| root.join(name).to_string_lossy().into_owned();
    let run = |args: &[&str]| {
        let output = Command::new(bin)
            .args(args)
            .env("RUNBOOK_COMMIT", "e2e")
            .output()
            .expect("spawn reproduce");
        assert!(
            output.status.success(),
            "reproduce {args:?} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        output
    };

    let plan_args = ["--plan", "table12,fig8,fig9,lemma51", "--locations", "1"];
    for (shard, dir) in [("1/3", "s1"), ("2/3", "s2"), ("3/3", "s3")] {
        let out = path(dir);
        let mut args = vec!["run"];
        args.extend_from_slice(&plan_args);
        args.extend_from_slice(&["--shard", shard, "--threads", "2", "--out", &out]);
        run(&args);
    }
    let serial_out = path("serial");
    let mut args = vec!["run"];
    args.extend_from_slice(&plan_args);
    args.extend_from_slice(&["--threads", "1", "--out", &serial_out]);
    run(&args);

    let sharded_dirs = format!("{},{},{}", path("s1"), path("s2"), path("s3"));
    for (dirs, book, figures) in [
        (sharded_dirs.clone(), "sharded.json", "figures-sharded.json"),
        (serial_out.clone(), "serial.json", "figures-serial.json"),
    ] {
        let (out, figs) = (path(book), path(figures));
        let mut args = vec!["merge"];
        args.extend_from_slice(&plan_args);
        args.extend_from_slice(&["--artifacts", &dirs, "--out", &out, "--figures", &figs]);
        run(&args);
    }

    let sharded = std::fs::read_to_string(path("sharded.json")).unwrap();
    let serial = std::fs::read_to_string(path("serial.json")).unwrap();
    assert_eq!(sharded, serial, "runbook bytes depend on sharding");

    let (sharded_book, serial_book) = (path("sharded.json"), path("serial.json"));
    let output = run(&["diff", &sharded_book, &serial_book]);
    assert!(String::from_utf8_lossy(&output.stdout).contains("identical"));

    // Legacy path equivalence, through the binary.
    let legacy_out = path("legacy-t12.json");
    run(&["table12", "--locations", "1", "--json", &legacy_out]);
    let legacy = std::fs::read_to_string(path("legacy-t12.json")).unwrap();
    let merged_figures = std::fs::read_to_string(path("figures-sharded.json")).unwrap();
    assert!(merged_figures.starts_with(&legacy[..legacy.len() - 1]));

    // Unknown figures exit non-zero and list the registry.
    let output = Command::new(bin).arg("fig99").output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown experiment `fig99`"));
    assert!(stderr.contains("fig11_large") && stderr.contains("headline"));
}
