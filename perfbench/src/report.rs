//! Aggregation of unit results into the benchmark's metrics.

use std::collections::BTreeMap;

use crate::workload::{SetupStats, UnitResult};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // JSON has no NaN or infinity; an empty ratio reads 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sessions a run needs before its 95th percentile has ten sessions beyond
/// it; with fewer it is only the slowest few, and `session_p95_ms` is left
/// out.
pub const MIN_P95_SESSIONS: usize = 200;

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Median seconds per set-up, one entry per pass.
    pub setup_s: Vec<f64>,
    /// Scenario-build figures of one set-up.
    pub setup: SetupStats,
    /// Unit results in index order.
    pub units: Vec<UnitResult>,
    /// Whether each unit was cut at its deadline or lost with its worker.
    pub cut: Vec<bool>,
    /// Failed checks that belong to no single pass of a unit.
    pub problems: Vec<String>,
}

impl Run {
    /// Sessions attempted.
    pub fn attempted(&self) -> usize {
        self.units.iter().map(UnitResult::sessions).sum()
    }

    /// Sessions failed.
    pub fn failed(&self) -> usize {
        self.units.iter().map(|u| u.failed).sum()
    }

    fn sum(&self, f: impl Fn(&UnitResult) -> f64) -> f64 {
        self.units.iter().map(f).sum()
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let delivered = self.sum(|u| u.delivered as f64);
        let sessions: Vec<f64> = self
            .units
            .iter()
            .flat_map(|u| u.session_ms.iter().copied())
            .collect();
        let mut metrics = vec![
            metric(
                "msgs_per_host_s",
                ratio(delivered, self.sum(|u| u.host_ms) / 1e3),
                "msg/s",
            ),
            metric("session_p50_ms", percentile(&sessions, 50.0), "ms"),
            metric("session_p95_ms", percentile(&sessions, 95.0), "ms"),
            metric(
                "setup_s",
                self.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
            metric(
                "delivery_ratio",
                ratio(delivered, self.sum(|u| u.offered as f64)),
                "1",
            ),
            metric(
                "air_msgs_per_s",
                ratio(delivered, self.sum(|u| u.air_ms) / 1e3),
                "msg/s",
            ),
            metric(
                "energy_uj_per_msg",
                ratio(self.sum(|u| u.energy_j) * 1e6, delivered),
                "uJ",
            ),
        ];
        if sessions.len() < MIN_P95_SESSIONS {
            metrics.retain(|m| m.name != "session_p95_ms");
        }
        metrics
    }

    /// Deterministic counters summed over the run.
    fn counters(&self) -> BTreeMap<&str, f64> {
        let mut total = BTreeMap::new();
        for u in &self.units {
            for (name, value) in &u.counters {
                *total.entry(name.as_str()).or_insert(0.0) += value;
            }
        }
        total
    }

    /// Total milliseconds of the spans named `name`, and their count.
    fn spans(&self, name: &str) -> (f64, usize) {
        self.units
            .iter()
            .flat_map(|u| &u.spans)
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
    }

    /// The per-layer metrics of a traced run.
    pub fn per_layer(&self) -> Vec<Metric> {
        let c = self.counters();
        let get = |name: &str| c.get(name).copied().unwrap_or(0.0);
        let (medium_ms, media) = self.spans("sim.medium");
        let (ident_ms, _) = self.spans("ident.run");
        let (decode_ms, _) = self.spans("decode.run");
        let (recovery_ms, _) = self.spans("recovery.run");
        let (fleet_ms, _) = self.spans("fleet.run");
        let (wrapper_ms, _) = self.spans("fleet.session");
        let (inner_ms, _) = if fleet_ms > 0.0 {
            self.spans("untraced")
        } else {
            (0.0, 0)
        };
        let fleet_host_ms = if fleet_ms > 0.0 {
            self.sum(|u| u.session_ms.iter().sum())
        } else {
            0.0
        };
        let ident_calls = get("ident.calls");
        let ident_ok = ident_calls - get("ident.failed");
        let decode_calls = get("decode.calls");
        vec![
            metric("sim.build_ms", self.setup.build_ms + medium_ms, "ms"),
            metric("sim.builds", (self.setup.builds + media) as f64, "count"),
            metric("ident.host_ms", ident_ms, "ms"),
            metric("ident.calls", ident_calls, "count"),
            metric("ident.failed", get("ident.failed"), "count"),
            metric(
                "ident.slots_per_call",
                ratio(get("ident.slots"), ident_ok),
                "slots",
            ),
            metric(
                "ident.rounds_per_call",
                ratio(get("ident.rounds"), ident_ok),
                "count",
            ),
            metric(
                "ident.k_hat_over_k",
                ratio(get("ident.k_hat"), get("ident.k")),
                "1",
            ),
            metric(
                "ident.exact_ratio",
                ratio(get("ident.exact"), ident_calls),
                "1",
            ),
            metric("decode.host_ms", decode_ms, "ms"),
            metric("decode.calls", decode_calls, "count"),
            metric(
                "decode.slots_per_call",
                ratio(get("decode.slots"), decode_calls),
                "slots",
            ),
            metric(
                "decode.host_us_per_slot",
                ratio(decode_ms * 1e3, get("decode.slots")),
                "us",
            ),
            metric(
                "decode.complete_ratio",
                ratio(get("decode.complete"), decode_calls),
                "1",
            ),
            metric(
                "decode.bits_per_symbol",
                ratio(get("decode.bits_per_symbol"), decode_calls),
                "bit/symbol",
            ),
            metric("recovery.host_ms", recovery_ms, "ms"),
            metric("recovery.stalls", get("recovery.stalls"), "count"),
            metric(
                "recovery.extra_slot_requests",
                get("recovery.extra_slot_requests"),
                "count",
            ),
            metric(
                "recovery.checkpoint_restores",
                get("recovery.checkpoint_restores"),
                "count",
            ),
            metric(
                "recovery.fallback_polls",
                get("recovery.fallback_polls"),
                "count",
            ),
            metric(
                "recovery.wasted_slot_ratio",
                if get("recovery.sessions") > 0.0 {
                    ratio(get("recovery.wasted_slots"), get("decode.slots"))
                } else {
                    0.0
                },
                "1",
            ),
            metric(
                "recovery.fallback_delivered_ratio",
                ratio(
                    get("recovery.fallback_delivered"),
                    get("recovery.delivered"),
                ),
                "1",
            ),
            metric("fleet.self_ms", fleet_ms - fleet_host_ms, "ms"),
            metric("fleet.session_build_ms", fleet_host_ms - wrapper_ms, "ms"),
            metric("fleet.session_run_ms", inner_ms, "ms"),
            metric("fleet.sessions", get("fleet.sessions"), "count"),
            metric("fleet.carried", get("fleet.carried"), "count"),
            metric("fleet.expired", get("fleet.expired"), "count"),
        ]
    }

    /// Host time of the traced sessions and of the same sessions run
    /// untraced, milliseconds.
    pub fn tracing_cost_ms(&self) -> (f64, f64) {
        (self.spans("session").0, self.spans("untraced").0)
    }

    /// Per unit, a hash of its air-clock results (and, with `counters`, of
    /// its per-layer counters); `None` for a unit that was cut, whose results
    /// depend on the host rather than on the seed.  Two runs of one seed must
    /// agree on every unit both completed, traced or not.
    pub fn fingerprints(&self, counters: bool) -> Vec<Option<u64>> {
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| {
                if self.cut.get(i).copied().unwrap_or(false) {
                    return None;
                }
                let mut h = Fnv::default();
                if counters {
                    for (name, value) in &u.counters {
                        h.bytes(name.as_bytes());
                        h.u64(value.to_bits());
                    }
                } else {
                    h.u64(u.failed as u64);
                    h.u64(u.delivered);
                    h.u64(u.offered);
                    h.u64(u.air_ms.to_bits());
                    h.u64(u.energy_j.to_bits());
                }
                Some(h.0)
            })
            .collect()
    }

    /// Every failed correctness check.
    pub fn problems(&self) -> Vec<&str> {
        self.units
            .iter()
            .flat_map(|u| &u.problems)
            .chain(&self.problems)
            .map(String::as_str)
            .collect()
    }
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(delivered: u64, offered: u64, host_ms: f64, air_ms: f64) -> UnitResult {
        UnitResult {
            host_ms,
            session_ms: vec![host_ms],
            delivered,
            offered,
            air_ms,
            energy_j: 1e-6 * delivered as f64,
            ..UnitResult::default()
        }
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let run = Run {
            setup_s: vec![0.3, 0.1, 0.2],
            units: vec![
                unit(4, 4, 10.0, 5.0),
                unit(3, 4, 30.0, 5.0),
                UnitResult::cut(2000.0, 8),
            ],
            ..Run::default()
        };
        let m: BTreeMap<_, _> = run
            .end_to_end()
            .into_iter()
            .map(|m| (m.name, m.value))
            .collect();
        // A cut session costs its deadline and offers its tags.
        assert!((m["msgs_per_host_s"] - 7.0 / 2.04).abs() < 1e-9);
        assert!((m["delivery_ratio"] - 7.0 / 16.0).abs() < 1e-12);
        assert_eq!(m["session_p50_ms"], 30.0);
        assert!(!m.contains_key("session_p95_ms"), "too few sessions");
        assert_eq!(m["setup_s"], 0.1, "the fastest pass's set-up");
        assert!((m["air_msgs_per_s"] - 700.0).abs() < 1e-9);
        assert!((m["energy_uj_per_msg"] - 1.0).abs() < 1e-12);
        assert_eq!((run.attempted(), run.failed()), (3, 1));
    }

    #[test]
    fn fingerprints_see_every_air_bit_and_skip_cut_units() {
        let a = Run {
            units: vec![unit(4, 4, 10.0, 5.0), UnitResult::cut(2000.0, 4)],
            cut: vec![false, true],
            ..Run::default()
        };
        let mut b = a.clone();
        b.units[0].host_ms = 99.0;
        assert_eq!(
            a.fingerprints(false),
            b.fingerprints(false),
            "host time is not air time"
        );
        assert!(a.fingerprints(false)[0].is_some());
        assert_eq!(a.fingerprints(false)[1], None, "a cut unit is not hashed");
        b.units[0].air_ms = f64::from_bits(5.0f64.to_bits() + 1);
        assert_ne!(a.fingerprints(false), b.fingerprints(false));
    }

    #[test]
    fn p95_needs_enough_sessions() {
        let few = Run {
            units: vec![unit(4, 4, 10.0, 5.0); MIN_P95_SESSIONS - 1],
            ..Run::default()
        };
        let names = |r: &Run| -> Vec<_> { r.end_to_end().iter().map(|m| m.name).collect() };
        assert!(!names(&few).contains(&"session_p95_ms"));
        // A cut session enters the sample at its deadline.
        let mut units = vec![unit(4, 4, 10.0, 5.0); MIN_P95_SESSIONS - 11];
        units.extend(vec![UnitResult::cut(2000.0, 4); 11]);
        let enough = Run {
            units,
            ..Run::default()
        };
        let p95 = enough
            .end_to_end()
            .into_iter()
            .find(|m| m.name == "session_p95_ms")
            .map(|m| m.value);
        assert_eq!(p95, Some(2000.0));
    }

    #[test]
    fn the_result_line_is_json_shaped() {
        let line = json_line(
            true,
            3,
            0,
            &[metric("setup_s", 0.25, "s"), metric("x", f64::NAN, "1")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"1\"}}}"
        );
    }
}
