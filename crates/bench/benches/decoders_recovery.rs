//! Recovery-layer benchmark: [`buzz::recovery::ResilientBuzzProtocol`]
//! end-to-end sessions under the fault regimes it exists for, next to the
//! fault-free path (which must cost essentially what the plain protocol
//! does — epoch 0 is the plain participation stream and no recovery
//! machinery fires).
//!
//! A reference measurement lives in
//! `benches/decoders_recovery.baseline.json`; rerun with
//! `cargo bench -p backscatter_bench --bench decoders_recovery` and compare
//! against it when touching the recovery loop, the stall detector, or the
//! TDMA fallback.
//!
//! # Smoke mode
//!
//! CI runs the suite with `BENCH_SMOKE=1` (one iteration per entry, handled
//! by the `criterion` shim) and gates on `crates/bench/src/bin/perf_gate.rs`.

use backscatter_sim::faults::{ReaderRestart, SlotErasure};
use backscatter_sim::scenario::{Scenario, ScenarioBuilder};
use buzz::protocol::BuzzConfig;
use buzz::recovery::{RecoveryConfig, ResilientBuzzProtocol};
use buzz::session::Protocol;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Periodic-mode config (genie identification), so the entries measure the
/// transfer + recovery loop rather than the identification phase.
fn periodic_config() -> BuzzConfig {
    BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    }
}

/// One full resilient session on a freshly built scenario.
fn run_session(protocol: &ResilientBuzzProtocol, mut scenario: Scenario, noise_seed: u64) -> u64 {
    let outcome = Protocol::run(protocol, &mut scenario, noise_seed).unwrap();
    outcome.delivered_messages as u64
}

fn bench_decoders_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoders_recovery");
    group.sample_size(3);

    let protocol =
        ResilientBuzzProtocol::new(periodic_config(), RecoveryConfig::default()).unwrap();

    for &k in &[8usize, 16] {
        // Fault-free: the recovery layer idling — decode cost plus the
        // residual-window bookkeeping, nothing else.
        group.bench_with_input(BenchmarkId::new("session_clean", k), &k, |b, &k| {
            b.iter(|| {
                let scenario = ScenarioBuilder::paper_uplink(k, 310).build().unwrap();
                run_session(&protocol, scenario, 6)
            });
        });

        // Total slot erasure: every collision frame lost, so the session
        // burns its stall/retry budget and degrades to per-tag TDMA polls —
        // the most recovery work a session can do.
        group.bench_with_input(
            BenchmarkId::new("session_erase_fallback", k),
            &k,
            |b, &k| {
                b.iter(|| {
                    let scenario = ScenarioBuilder::paper_uplink(k, 320)
                        .fault(SlotErasure::new(1.0).unwrap())
                        .build()
                        .unwrap();
                    run_session(&protocol, scenario, 9)
                });
            },
        );

        // Mid-session reader restart: checkpoint restore plus the replayed
        // slots between the snapshot and the restart.
        group.bench_with_input(
            BenchmarkId::new("session_restart_resume", k),
            &k,
            |b, &k| {
                b.iter(|| {
                    let scenario = ScenarioBuilder::paper_uplink(k, 310)
                        .fault(ReaderRestart::new(5))
                        .build()
                        .unwrap();
                    run_session(&protocol, scenario, 6)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decoders_recovery);
criterion_main!(benches);
