//! The three-stage compressive-sensing identification protocol (§5).
//!
//! Stage 1 estimates `K` (the number of tags with data) from empty-slot
//! statistics while tags transmit with geometrically decreasing probability.
//! Stage 2 has every tag draw a temporary id from a space of size `a·c·K̂` and
//! announce the *bucket* its id hashes to, letting the reader discard every id
//! that hashed to a silent bucket.  Stage 3 runs the actual compressive
//! sensing: over `M ≈ K̂·log₂(a)` bit-slots each tag transmits its
//! pseudorandom sensing pattern, and the reader recovers which candidate ids
//! are active — and their complex channels — with a sparse solver.
//!
//! The driver below runs all three stages against a [`Medium`], updating the
//! scenario's tags with their assigned temporary ids, and accounts the air
//! time the way Fig. 14 does.

use backscatter_codes::rn16::TemporaryIdSpace;
use backscatter_codes::sparse_matrix::SparseBinaryMatrix;
use backscatter_gen2::commands::ReaderCommand;
use backscatter_gen2::timing::LinkTiming;
use backscatter_phy::channel::Channel;
use backscatter_phy::complex::Complex;
use backscatter_phy::signal::SlotObservation;
use backscatter_prng::{BiasedBits, NodeSeed, SplitMix64};
use backscatter_sim::medium::Medium;
use backscatter_sim::scenario::Scenario;
use sparse_recovery::buckets::BucketHasher;
use sparse_recovery::kest::{KEstimate, KEstimator, KEstimatorConfig};
use sparse_recovery::omp::{
    prune_insignificant, prune_insignificant_incremental, OmpConfig, OmpSolver,
};

use crate::{BuzzError, BuzzResult};

/// Configuration of the identification protocol.
#[derive(Debug, Clone, Copy)]
pub struct IdentificationConfig {
    /// Stage-1 estimator configuration (the paper uses `s = 4`, threshold
    /// 0.75).
    pub estimator: KEstimatorConfig,
    /// Bucket multiplier `c` (the paper uses 10): stage 2 uses `c·K̂` buckets.
    pub c: u64,
    /// Whether `a` (ids per bucket) equals `K̂` (the paper's choice) or a fixed
    /// value.
    pub ids_per_bucket: Option<u64>,
    /// Number of stage-3 measurements as a multiple of `K̂·log₂(a)` (1.0 is the
    /// information-theoretic scaling; a little head-room buys robustness).
    pub measurement_factor: f64,
    /// Sensing-pattern transmit probability (0.5 in the paper's formulation).
    pub sensing_probability: f64,
    /// Magnitude-pruning fraction applied to the sparse solution.
    pub prune_fraction: f64,
    /// Enables the large-population (K = 100+) pipeline: incremental
    /// (Cholesky-based) sparse-recovery refits instead of the historical
    /// direct solver, and temporary-id-space growth when a round restarts on
    /// an id collision (a fixed `ids_per_bucket` space otherwise stays
    /// collision-prone at birthday-bound populations).  Off by default: the
    /// direct pipeline is kept bit-identical for the paper's K ≤ 16
    /// figures.
    pub large_population: bool,
    /// Maximum protocol restarts when tags draw colliding temporary ids.
    pub max_rounds: usize,
    /// Air-interface timing used for the Fig. 14 accounting.
    pub timing: LinkTiming,
}

impl Default for IdentificationConfig {
    fn default() -> Self {
        Self {
            estimator: KEstimatorConfig::paper_default(),
            c: 10,
            ids_per_bucket: None,
            measurement_factor: 2.5,
            sensing_probability: 0.5,
            prune_fraction: 0.02,
            large_population: false,
            max_rounds: 8,
            timing: LinkTiming::paper_default(),
        }
    }
}

impl IdentificationConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for out-of-range fields.
    pub fn validate(&self) -> BuzzResult<()> {
        self.estimator.validate()?;
        if self.c == 0 {
            return Err(BuzzError::InvalidParameter("c must be non-zero"));
        }
        if self.ids_per_bucket == Some(0) {
            return Err(BuzzError::InvalidParameter(
                "ids per bucket must be non-zero",
            ));
        }
        if !(self.measurement_factor > 0.0 && self.measurement_factor.is_finite()) {
            return Err(BuzzError::InvalidParameter(
                "measurement factor must be positive",
            ));
        }
        if !(self.sensing_probability > 0.0 && self.sensing_probability <= 1.0) {
            return Err(BuzzError::InvalidParameter(
                "sensing probability must be in (0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.prune_fraction) {
            return Err(BuzzError::InvalidParameter(
                "prune fraction must be in [0, 1]",
            ));
        }
        if self.max_rounds == 0 {
            return Err(BuzzError::InvalidParameter("max rounds must be non-zero"));
        }
        self.timing
            .validate()
            .map_err(|_| BuzzError::InvalidParameter("link timing is invalid"))?;
        Ok(())
    }
}

/// One tag discovered by the reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveredTag {
    /// The temporary id the reader recovered.
    pub temporary_id: u64,
    /// The reader's estimate of the tag's channel coefficient.
    pub channel_estimate: Complex,
}

/// Slot accounting of the three stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdentificationSlots {
    /// Bit-slots spent in the K-estimation stage.
    pub estimation: usize,
    /// Bit-slots spent in the bucket stage.
    pub bucket: usize,
    /// Bit-slots spent in the compressive-sensing stage.
    pub compressive: usize,
    /// Reader trigger/stop commands issued.
    pub reader_commands: usize,
}

impl IdentificationSlots {
    /// Total uplink bit-slots.
    #[must_use]
    pub fn total(&self) -> usize {
        self.estimation + self.bucket + self.compressive
    }
}

/// The result of running the identification protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentificationOutcome {
    /// The stage-1 estimate of `K`.
    pub k_estimate: KEstimate,
    /// The tags the reader discovered (temporary id + channel estimate).
    pub discovered: Vec<DiscoveredTag>,
    /// The ground-truth temporary id each scenario tag drew (index-aligned
    /// with the scenario's tags) — used by the evaluation to score recovery,
    /// not by the reader.
    pub assignments: Vec<u64>,
    /// Slot/command accounting.
    pub slots: IdentificationSlots,
    /// Number of protocol rounds used (> 1 only after temporary-id
    /// collisions).
    pub rounds: usize,
    /// Total identification air time in milliseconds (the Fig. 14 metric).
    pub time_ms: f64,
    /// The size of the temporary-id space used in the final round.
    pub id_space: u64,
}

impl IdentificationOutcome {
    /// Whether the reader discovered exactly the true set of temporary ids.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        if self.discovered.len() != self.assignments.len() {
            return false;
        }
        let mut truth = self.assignments.clone();
        truth.sort_unstable();
        let mut got: Vec<u64> = self.discovered.iter().map(|d| d.temporary_id).collect();
        got.sort_unstable();
        truth == got
    }

    /// Relative channel-estimation error over correctly discovered tags
    /// (`None` if none were correctly discovered).
    #[must_use]
    pub fn channel_error(&self, true_channels: &[(u64, Channel)]) -> Option<f64> {
        let truth: Vec<(usize, Complex)> = true_channels
            .iter()
            .map(|(id, ch)| (*id as usize, ch.coefficient))
            .collect();
        let est: Vec<(usize, Complex)> = self
            .discovered
            .iter()
            .map(|d| (d.temporary_id as usize, d.channel_estimate))
            .collect();
        sparse_recovery::diagnostics::channel_estimation_error(&truth, &est)
    }
}

/// The identification protocol driver.
#[derive(Debug, Clone)]
pub struct Identifier {
    config: IdentificationConfig,
}

impl Identifier {
    /// Creates an identifier.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for an invalid configuration.
    pub fn new(config: IdentificationConfig) -> BuzzResult<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Runs the three stages against the scenario's tags and medium.
    ///
    /// On success the scenario's tags have been re-seeded with their temporary
    /// ids (ready for the data phase).
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::IdentificationFailed`] if distinct temporary ids
    /// could not be assigned within the retry budget, or propagates lower
    /// layer errors.
    pub fn run(
        &self,
        scenario: &mut Scenario,
        medium: &mut Medium,
    ) -> BuzzResult<IdentificationOutcome> {
        let timing = self.config.timing;
        let mut slots = IdentificationSlots::default();
        let mut time_s = 0.0;
        // Protocol-local slot clock driving scenario dynamics (mobility,
        // interference bursts) across all three stages; a no-op on static
        // media.
        let mut slot_clock: u64 = 0;
        // One per-tag bit buffer, refilled for every slot of all three stages.
        let mut bits: Vec<bool> = Vec::with_capacity(scenario.tags().len());

        // ---- Stage 1: estimate K -------------------------------------------------
        // Reader trigger.
        time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
        slots.reader_commands += 1;

        let mut estimator = KEstimator::new(self.config.estimator)?;
        // Per-tag biased bit streams for this stage (seeded by global id).
        let mut tag_streams: Vec<BiasedBits> = scenario
            .tags()
            .iter()
            .map(|t| BiasedBits::new(NodeSeed(t.global_id).estimation_rng(), 0.5))
            .collect();
        let k_estimate = loop {
            let p = estimator
                .next_probability()
                .ok_or(BuzzError::IdentificationFailed)?;
            for stream in &mut tag_streams {
                stream.set_probability(p);
            }
            let mut empty = 0;
            for _ in 0..self.config.estimator.slots_per_step {
                bits.clear();
                bits.extend(tag_streams.iter_mut().map(BiasedBits::next_bit));
                slots.estimation += 1;
                time_s += timing.uplink_symbol_s();
                medium.begin_slot(slot_clock);
                slot_clock += 1;
                if medium.observe_occupancy(&bits)? == SlotObservation::Empty {
                    empty += 1;
                }
            }
            if let Some(estimate) = estimator.record_step(empty)? {
                break estimate;
            }
        };
        let k_hat = k_estimate.k_rounded() as u64;

        // ---- Stage 2 + 3 (with restarts on temporary-id collisions or a K
        // estimate that turned out too small) --------------------------------------
        let mut k_work = k_hat;
        let mut assignments: Vec<u64> = Vec::new();
        let mut discovered: Vec<DiscoveredTag> = Vec::new();
        let mut rounds = 0;
        let mut id_space_size = 0;

        for round in 0..self.config.max_rounds {
            rounds = round + 1;
            let a = self.config.ids_per_bucket.unwrap_or(k_work.max(2));
            let id_space = TemporaryIdSpace::for_buzz(k_work, a, self.config.c)?;
            id_space_size = id_space.size();

            // Each active tag draws a temporary id deterministically from its
            // global id and the round number.
            assignments = scenario
                .tags()
                .iter()
                .map(|t| SplitMix64::mix(t.global_id, 0xa11_0c8 ^ round as u64) % id_space.size())
                .collect();
            let mut unique = assignments.clone();
            unique.sort_unstable();
            unique.dedup();
            if unique.len() != assignments.len() {
                // Two tags picked the same temporary id; the reader cannot
                // tell them apart, so the protocol restarts with a new round
                // (the paper: "the reader starts over").  Account the trigger.
                time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
                slots.reader_commands += 1;
                if self.config.large_population {
                    // With a fixed ids-per-bucket factor the id space is
                    // linear in K̂ and birthday collisions recur at K = 100+;
                    // grow the space so restarts actually converge.
                    k_work += k_work.div_ceil(2);
                }
                continue;
            }

            // Stage 2: bucket announcement.
            time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
            slots.reader_commands += 1;
            let hasher = BucketHasher::for_buzz(k_work, self.config.c, round as u64)?;
            let num_buckets = hasher.num_buckets() as usize;
            // Each tag's bucket is a pure function of its id: hash once per
            // tag instead of once per (bucket, tag) pair — the bucket stage
            // is O(buckets · K) slots on the air either way, but the reader
            // model should not pay O(buckets · K) *hashes* on top (at
            // K = 150 with c = 10 that is 2¼ million redundant mixes).
            let tag_bucket: Vec<usize> = assignments
                .iter()
                .map(|&id| hasher.bucket_of(id) as usize)
                .collect();
            let mut occupied = vec![false; num_buckets];
            for bucket in 0..num_buckets {
                bits.clear();
                bits.extend(tag_bucket.iter().map(|&b| b == bucket));
                slots.bucket += 1;
                time_s += timing.uplink_symbol_s();
                medium.begin_slot(slot_clock);
                slot_clock += 1;
                occupied[bucket] = medium.observe_occupancy(&bits)? == SlotObservation::Occupied;
            }
            let candidates = hasher.surviving_ids(id_space.size(), &occupied)?;
            if candidates.is_empty() {
                // Detection failed completely (e.g. abysmal SNR); restart.
                continue;
            }

            // The bucket stage gives a second, free estimate of K: at least as
            // many tags are present as buckets were occupied.  Using it to
            // size the final stage protects against a stage-1 underestimate
            // (the coarse s = 4 estimator can be off by 2×).
            let occupied_count = occupied.iter().filter(|&&o| o).count() as u64;
            let k_refined = k_work.max(occupied_count);

            // A gross underestimate also means the temporary-id space itself
            // (sized from K̂) is too small, which inflates the id-collision
            // probability and starves the sparse decode.  Restart the round
            // with the corrected population in that case.
            if occupied_count > 2 * k_work && round + 1 < self.config.max_rounds {
                k_work = occupied_count;
                continue;
            }

            // Stage 3: compressive sensing over the surviving candidates.
            time_s += timing.downlink_s(ReaderCommand::BuzzTrigger.bits()) + timing.t1_s;
            slots.reader_commands += 1;
            let m = ((k_refined as f64) * (a.max(2) as f64).log2() * self.config.measurement_factor)
                .ceil() as usize;
            let m = m.max(2 * k_refined as usize).max(16);

            // The reader's reduced sensing matrix A' over candidate ids...
            let candidate_seeds: Vec<NodeSeed> =
                candidates.iter().map(|&id| NodeSeed(id)).collect();
            let a_reduced = SparseBinaryMatrix::from_sensing_seeds(
                m,
                &candidate_seeds,
                self.config.sensing_probability,
            );
            // ...and the on-air measurements produced by the actual tags.
            let mut measurements: Vec<Complex> = Vec::with_capacity(m);
            for slot in 0..m {
                bits.clear();
                bits.extend(assignments.iter().map(|&id| {
                    NodeSeed(id).sensing_in_slot(slot as u64, self.config.sensing_probability)
                }));
                slots.compressive += 1;
                time_s += timing.uplink_symbol_s();
                medium.begin_slot(slot_clock);
                slot_clock += 1;
                measurements.push(medium.observe(&bits)?);
            }

            // Allow generous head-room over the (coarse, s = 4) stage-1
            // estimate; spurious picks are removed by the noise-aware pruning
            // below.
            let max_sparsity = (2 * k_refined as usize).max(4);
            let solver = OmpSolver::new(OmpConfig {
                max_sparsity,
                residual_tolerance: 1e-4,
                incremental_refit: self.config.large_population,
            })?;
            let raw_solution = solver.solve(&a_reduced, &measurements)?;

            // Drop support entries whose contribution to the fit is explained
            // by noise (a phantom tag in the discovered set would stall the
            // data phase), then apply a light relative-magnitude prune against
            // gross outliers.
            let solution = if self.config.large_population {
                prune_insignificant_incremental(
                    &a_reduced,
                    &measurements,
                    &raw_solution,
                    medium.noise_power(),
                    4.0,
                )?
            } else {
                prune_insignificant(
                    &a_reduced,
                    &measurements,
                    &raw_solution,
                    medium.noise_power(),
                    4.0,
                )?
            };
            let max_mag = solution
                .values
                .iter()
                .map(|v| v.abs())
                .fold(0.0f64, f64::max);
            discovered = solution
                .support
                .iter()
                .zip(&solution.values)
                .filter(|(_, v)| v.abs() > max_mag * self.config.prune_fraction)
                .map(|(&col, &value)| DiscoveredTag {
                    temporary_id: candidates[col],
                    channel_estimate: value,
                })
                .collect();

            // If the solver saturated its sparsity budget while still leaving
            // a large unexplained residual, the stage-1 estimate was probably
            // too small: grow K and start the round over (a couple of extra
            // rounds cost far less than a failed inventory).
            let saturated = solution.support.len() >= max_sparsity
                && solution.relative_residual > 0.05
                && round + 1 < self.config.max_rounds;
            if saturated {
                k_work = (k_work * 2).max(k_work + 1);
                discovered.clear();
                continue;
            }

            if !discovered.is_empty() {
                break;
            }
        }

        if discovered.is_empty() {
            return Err(BuzzError::IdentificationFailed);
        }

        // Reader stops the phase by dropping its carrier.
        time_s += timing.downlink_s(ReaderCommand::BuzzStop.bits()) + timing.t2_s;
        slots.reader_commands += 1;

        // Re-seed the scenario's tags with their temporary ids so the data
        // phase keys off them (what the real tags do on receiving the data-
        // phase trigger).
        for (tag, &tmp) in scenario.tags_mut().iter_mut().zip(&assignments) {
            tag.assign_temporary_id(tmp);
        }

        Ok(IdentificationOutcome {
            k_estimate,
            discovered,
            assignments,
            slots,
            rounds,
            time_ms: time_s * 1e3,
            id_space: id_space_size,
        })
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &IdentificationConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_sim::scenario::ScenarioBuilder;

    fn run_for(k: usize, seed: u64) -> (Scenario, IdentificationOutcome) {
        let mut scenario = ScenarioBuilder::paper_uplink(k, seed).build().unwrap();
        let mut medium = scenario.medium(seed ^ 0xfeed).unwrap();
        let outcome = Identifier::new(IdentificationConfig::default())
            .unwrap()
            .run(&mut scenario, &mut medium)
            .unwrap();
        (scenario, outcome)
    }

    #[test]
    fn config_validation() {
        assert!(IdentificationConfig::default().validate().is_ok());
        let bad = [
            IdentificationConfig {
                c: 0,
                ..IdentificationConfig::default()
            },
            IdentificationConfig {
                measurement_factor: 0.0,
                ..IdentificationConfig::default()
            },
            IdentificationConfig {
                sensing_probability: 0.0,
                ..IdentificationConfig::default()
            },
            IdentificationConfig {
                prune_fraction: 1.5,
                ..IdentificationConfig::default()
            },
            IdentificationConfig {
                max_rounds: 0,
                ..IdentificationConfig::default()
            },
            IdentificationConfig {
                ids_per_bucket: Some(0),
                ..IdentificationConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn identifies_all_tags_in_good_channels() {
        for &k in &[4usize, 8, 16] {
            let (_, outcome) = run_for(k, 100 + k as u64);
            assert!(
                outcome.is_exact(),
                "k = {k}: discovered {} of {} (exact = {})",
                outcome.discovered.len(),
                k,
                outcome.is_exact()
            );
        }
    }

    #[test]
    fn k_estimate_is_right_order_of_magnitude() {
        let (_, outcome) = run_for(16, 7);
        let k_hat = outcome.k_estimate.k_rounded();
        assert!((5..=48).contains(&k_hat), "k_hat = {k_hat}");
    }

    #[test]
    fn tags_receive_their_temporary_ids() {
        let (scenario, outcome) = run_for(8, 11);
        for (tag, &assigned) in scenario.tags().iter().zip(&outcome.assignments) {
            assert_eq!(tag.node_seed, NodeSeed(assigned));
        }
        // All assignments are within the temporary-id space and distinct.
        let mut ids = outcome.assignments.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|&id| id < outcome.id_space));
    }

    #[test]
    fn channel_estimates_are_accurate_in_good_conditions() {
        let (scenario, outcome) = run_for(8, 13);
        let truth: Vec<(u64, Channel)> = scenario
            .tags()
            .iter()
            .zip(&outcome.assignments)
            .map(|(t, &id)| (id, t.channel))
            .collect();
        let err = outcome.channel_error(&truth).expect("no overlap");
        assert!(err < 0.25, "relative channel error = {err}");
    }

    #[test]
    fn identification_is_fast_compared_to_fsa_budget() {
        // Fig. 14 ballpark: Buzz identifies 16 tags in a few ms while FSA
        // needs tens of ms.  Enforce the absolute scale loosely.
        let (_, outcome) = run_for(16, 17);
        assert!(outcome.time_ms < 12.0, "time = {} ms", outcome.time_ms);
        assert!(outcome.slots.total() > 0);
        assert!(outcome.slots.bucket > 0);
        assert!(outcome.slots.compressive > 0);
    }

    #[test]
    fn slot_accounting_adds_up() {
        let (_, outcome) = run_for(4, 19);
        let s = outcome.slots;
        assert_eq!(s.total(), s.estimation + s.bucket + s.compressive);
        assert!(s.reader_commands >= 4);
        assert!(outcome.rounds >= 1);
    }
}
