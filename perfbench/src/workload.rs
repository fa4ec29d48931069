//! The five workloads: inputs drawn from the seed, set-up, and one unit of
//! work, run plainly or traced layer by layer.
//!
//! A *unit* is the smallest piece of work the supervisor can time out: one
//! reader session for `inventory`, `large_k`, `large_k16` and `faulted`, one
//! `run_fleet` call (400 sessions) for `fleet`.  Every unit is a pure function of
//! `(workload, seed, index)`, so a killed worker can be replaced and resumed
//! at the next index.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use backscatter_fleet::{run_fleet, FleetConfig};
use backscatter_prng::{Rng64, SplitMix64, Xoshiro256};
use backscatter_sim::faults::{
    BurstSlotLoss, FeedbackLoss, FrameNoise, ReaderRestart, SlotErasure, TagDropout,
};
use backscatter_sim::scenario::{Scenario, ScenarioBuilder};
use buzz::bp::DecodeSchedule;
use buzz::identification::{DiscoveredTag, IdentificationConfig, Identifier};
use buzz::session::{Protocol, SessionOutcome, SessionResult};
use buzz::transfer::{score_against_truth, DataTransfer, TransferConfig, TransferOutcome};
use buzz::{BuzzConfig, BuzzProtocol, RecoveryConfig, ResilientBuzzProtocol};

use crate::trace::{Span, Tracer};

/// Fig. 14's K grid, cycled by `inventory`.
pub const INVENTORY_KS: [usize; 4] = [4, 8, 12, 16];
/// The `fig11_large` populations `large_k` cycles through.
pub const LARGE_KS: [usize; 3] = [64, 100, 150];
/// The one population `large_k16` runs: small enough that a run holds
/// hundreds of sessions, so its host time is steady across seeds.
pub const LARGE_K16: usize = 16;
/// Cell sizes `faulted` crosses with the fault rows.
pub const FAULTED_KS: [usize; 2] = [8, 16];
/// `fig_resilience`'s eight fault rows.
pub const FAULTS: [&str; 8] = [
    "clean",
    "erase30",
    "erase100",
    "burst8/4",
    "erase50+fb50",
    "noise8x",
    "dropout25",
    "restart5",
];

const SCENARIO_STREAM: u64 = 0x5ce0_0001;
const NOISE_STREAM: u64 = 0x5ce0_0002;
const ORDER_STREAM: u64 = 0x5ce0_0003;
const FLEET_STREAM: u64 = 0x5ce0_0004;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default Buzz, full pipeline, K in {4, 8, 12, 16}.
    Inventory,
    /// `fig11_large`'s configuration at K in {64, 100, 150}.
    LargeK,
    /// `fig11_large`'s configuration at K = 16.
    LargeK16,
    /// `run_fleet` at `fig_fleet`'s largest point, one worker thread.
    Fleet,
    /// `buzz+r` in periodic mode over `fig_resilience`'s fault rows.
    Faulted,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 5] = [
        Workload::Inventory,
        Workload::LargeK,
        Workload::LargeK16,
        Workload::Fleet,
        Workload::Faulted,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Inventory => "inventory",
            Workload::LargeK => "large_k",
            Workload::LargeK16 => "large_k16",
            Workload::Fleet => "fleet",
            Workload::Faulted => "faulted",
        }
    }

    /// Units per second of `--seconds` and pass: calibrated on a loaded
    /// 2-core x86-64 container so that a run measures for about `--seconds`.
    /// The count is fixed by the arguments, never by the clock, so every
    /// air-time result of a seed repeats exactly.
    fn units_per_second(self) -> f64 {
        match self {
            Workload::Inventory => 7.0,
            Workload::LargeK => 1.4,
            Workload::LargeK16 => 86.0,
            Workload::Fleet => 0.75,
            Workload::Faulted => 215.0,
        }
    }

    /// Units in one full cycle of the input grid.  Runs hold whole cycles so
    /// every K (and fault row) is equally represented on every seed.
    fn cycle(self) -> usize {
        match self {
            Workload::Inventory => INVENTORY_KS.len(),
            Workload::LargeK => LARGE_KS.len(),
            Workload::LargeK16 | Workload::Fleet => 1,
            Workload::Faulted => FAULTS.len() * FAULTED_KS.len(),
        }
    }

    /// Passes an untraced run makes over its units.  The host shares its
    /// cores with other tenants and runs up to 1.6x slower while they are
    /// busy.  Load that lasts a second or more is measured and scaled away
    /// (see `calibrate`); shorter bursts only ever add time, so each unit's
    /// host time is the fastest of its passes.  Air-time results must agree
    /// across passes.  `faulted` makes fewer passes over more sessions: its
    /// spread across seeds comes from which sessions it draws (the
    /// `dropout25` tail), not from the host.
    pub fn passes(self) -> usize {
        match self {
            Workload::Faulted => 3,
            _ => 6,
        }
    }

    /// Distinct units a run of `seconds` measures (each run `passes` times).
    pub fn units(self, seconds: u64) -> usize {
        let wanted =
            (seconds as f64 * self.units_per_second() / self.passes() as f64).ceil() as usize;
        wanted.div_ceil(self.cycle()).max(1) * self.cycle()
    }

    /// Host deadline for one unit; a unit past it is killed and counted as
    /// failed.  Healthy `inventory` sessions take at most ~0.7 s and the
    /// pathological ones at least 6.6 s, so 2 s sits in the gap; `large_k16`
    /// sessions take under 0.1 s; `large_k` sessions reach ~3 s at K = 150.
    pub fn deadline(self) -> Duration {
        match self {
            Workload::Inventory | Workload::LargeK16 | Workload::Faulted => Duration::from_secs(2),
            Workload::LargeK => Duration::from_secs(15),
            Workload::Fleet => Duration::from_secs(60),
        }
    }

    /// Messages a unit offers, known without running it (used for units cut
    /// at the deadline).  A fleet's offer depends on its run, so a cut fleet
    /// unit offers nothing.
    pub fn offered(self, seed: u64, index: usize) -> u64 {
        match self {
            Workload::Fleet => 0,
            _ => session_input(self, seed, index).k as u64,
        }
    }
}

/// The generated inputs of one single-reader session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionInput {
    /// Tags in the scenario.
    pub k: usize,
    /// The injected fault row (`faulted` only).
    pub fault: Option<&'static str>,
    /// Scenario (location) seed.
    pub scenario_seed: u64,
    /// Noise (and fault realization) seed.
    pub noise_seed: u64,
}

/// Inputs of session `index` of a single-reader workload.
pub fn session_input(workload: Workload, seed: u64, index: usize) -> SessionInput {
    let i = index as u64;
    let (k, fault) = match workload {
        Workload::Inventory => (INVENTORY_KS[index % INVENTORY_KS.len()], None),
        Workload::LargeK => (LARGE_KS[index % LARGE_KS.len()], None),
        Workload::LargeK16 => (LARGE_K16, None),
        Workload::Faulted => {
            // Each cycle visits every (fault, K) pair once, in a seeded order.
            let cycle = workload.cycle();
            let mut order: Vec<usize> = (0..cycle).collect();
            let mut rng = Xoshiro256::seed_from_u64(SplitMix64::mix(
                seed ^ ORDER_STREAM,
                (index / cycle) as u64,
            ));
            for j in (1..cycle).rev() {
                order.swap(j, rng.next_bounded(j as u64 + 1) as usize);
            }
            let pair = order[index % cycle];
            (
                FAULTED_KS[pair / FAULTS.len()],
                Some(FAULTS[pair % FAULTS.len()]),
            )
        }
        Workload::Fleet => unreachable!("fleet units are fleet runs, not sessions"),
    };
    SessionInput {
        k,
        fault,
        scenario_seed: SplitMix64::mix(seed ^ SCENARIO_STREAM, i),
        noise_seed: SplitMix64::mix(seed ^ NOISE_STREAM, i),
    }
}

/// The fleet of unit `index`: `fig_fleet`'s largest point with its own
/// master seed.
pub fn fleet_input(seed: u64, index: usize) -> FleetConfig {
    FleetConfig {
        readers: 200,
        population: 10_000,
        seed: SplitMix64::mix(seed ^ FLEET_STREAM, index as u64),
        ..FleetConfig::default()
    }
}

/// Builds the scenario of a session.
pub fn build_scenario(input: &SessionInput) -> Result<Scenario, String> {
    let builder = ScenarioBuilder::paper_uplink(input.k, input.scenario_seed);
    let fault = |e: backscatter_sim::SimError| e.to_string();
    let builder = match input.fault {
        None | Some("clean") => builder,
        Some("erase30") => builder.fault(SlotErasure::new(0.3).map_err(fault)?),
        Some("erase100") => builder.fault(SlotErasure::new(1.0).map_err(fault)?),
        Some("burst8/4") => builder.fault(BurstSlotLoss::new(8, 4).map_err(fault)?),
        Some("erase50+fb50") => builder
            .fault(SlotErasure::new(0.5).map_err(fault)?)
            .fault(FeedbackLoss::new(0.5).map_err(fault)?),
        Some("noise8x") => builder.fault(FrameNoise::new(0.5, 8.0).map_err(fault)?),
        Some("dropout25") => builder.fault(TagDropout::new(0.25, 40).map_err(fault)?),
        Some("restart5") => builder.fault(ReaderRestart::new(5)),
        Some(other) => return Err(format!("unknown fault row {other}")),
    };
    builder.build().map_err(|e| e.to_string())
}

/// The protocol configuration `large_k` runs (`fig11_large`'s).
pub fn large_k_config() -> BuzzConfig {
    BuzzConfig {
        identification: IdentificationConfig {
            ids_per_bucket: Some(16),
            large_population: true,
            ..IdentificationConfig::default()
        },
        transfer: TransferConfig {
            target_collision_size: 4.0,
            decode_schedule: DecodeSchedule::Worklist,
            ..TransferConfig::default()
        },
        periodic_mode: false,
    }
}

fn periodic() -> BuzzConfig {
    BuzzConfig {
        periodic_mode: true,
        ..BuzzConfig::default()
    }
}

/// Result of one unit of work, as the worker reports it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitResult {
    /// Host time of the unit, milliseconds.
    pub host_ms: f64,
    /// Host time of each session in the unit, milliseconds.
    pub session_ms: Vec<f64>,
    /// Sessions that returned an error or were cut at the deadline.
    pub failed: usize,
    /// Messages delivered correctly.
    pub delivered: u64,
    /// Messages offered: every tag in the scenario (or fleet offer).
    pub offered: u64,
    /// Simulated air time, milliseconds (fleet: makespan).
    pub air_ms: f64,
    /// Tag energy spent, joules.
    pub energy_j: f64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// Deterministic per-layer work counters (traced runs).
    pub counters: std::collections::BTreeMap<String, f64>,
    /// Layer spans (traced runs).
    pub spans: Vec<Span>,
}

impl UnitResult {
    /// Folds in another pass over the same unit: host times become the
    /// fastest of the passes; every air-time result must be identical.
    pub fn repeat(&mut self, other: &UnitResult) -> Result<(), String> {
        let air = |u: &UnitResult| {
            (
                u.failed,
                u.delivered,
                u.offered,
                u.air_ms.to_bits(),
                u.energy_j.to_bits(),
                u.session_ms.len(),
            )
        };
        if air(self) != air(other) || self.counters != other.counters {
            return Err(format!(
                "a repeated pass changed the air-time results: {:?} vs {:?}",
                air(self),
                air(other)
            ));
        }
        self.host_ms = self.host_ms.min(other.host_ms);
        for (mine, theirs) in self.session_ms.iter_mut().zip(&other.session_ms) {
            *mine = mine.min(*theirs);
        }
        Ok(())
    }

    /// Scales the unit's host times (not its spans) by `factor`.
    pub fn scale_host_time(&mut self, factor: f64) {
        self.host_ms *= factor;
        for ms in &mut self.session_ms {
            *ms *= factor;
        }
    }

    /// The record of a unit killed at `deadline_ms`.
    pub fn cut(deadline_ms: f64, offered: u64) -> Self {
        Self {
            host_ms: deadline_ms,
            session_ms: vec![deadline_ms],
            failed: 1,
            offered,
            ..Self::default()
        }
    }

    /// Sessions in the unit.
    pub fn sessions(&self) -> usize {
        self.session_ms.len()
    }

    fn session(outcome: &SessionResult<SessionOutcome>, host_ms: f64, offered: usize) -> Self {
        let mut unit = Self {
            host_ms,
            session_ms: vec![host_ms],
            offered: offered as u64,
            ..Self::default()
        };
        match outcome {
            Ok(o) => {
                unit.delivered = o.delivered_messages as u64;
                unit.air_ms = o.wall_time_ms;
                unit.energy_j = o.per_tag_energy_j.iter().sum();
            }
            Err(e) => {
                unit.failed = 1;
                eprintln!("session failed: {e}");
            }
        }
        if unit.delivered > unit.offered {
            unit.problems.push(format!(
                "delivered {} > offered {}",
                unit.delivered, unit.offered
            ));
        }
        unit
    }
}

/// Scenario-build figures of one set-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupStats {
    /// Time spent in `ScenarioBuilder::build`, milliseconds.
    pub build_ms: f64,
    /// Scenarios built.
    pub builds: usize,
}

enum Kind {
    /// `inventory` and `large_k`: plain Buzz, decomposable into its layers.
    Buzz {
        protocol: BuzzProtocol,
        identifier: Identifier,
    },
    Faulted {
        protocol: ResilientBuzzProtocol,
    },
    Fleet {
        protocol: BuzzProtocol,
        configs: Vec<FleetConfig>,
    },
}

/// A set-up workload, ready to run its units.
pub struct Bench {
    kind: Kind,
    transfer: DataTransfer,
    sessions: Vec<(Scenario, SessionInput)>,
}

impl Bench {
    /// Builds the protocol objects and every scenario the run will use.
    pub fn setup(
        workload: Workload,
        seed: u64,
        units: usize,
    ) -> Result<(Self, SetupStats), String> {
        let e = |e: buzz::BuzzError| e.to_string();
        let config = match workload {
            Workload::Inventory => BuzzConfig::default(),
            Workload::LargeK | Workload::LargeK16 => large_k_config(),
            Workload::Fleet | Workload::Faulted => periodic(),
        };
        let transfer = DataTransfer::new(config.transfer).map_err(e)?;
        let kind = match workload {
            Workload::Inventory | Workload::LargeK | Workload::LargeK16 => Kind::Buzz {
                protocol: BuzzProtocol::new(config).map_err(e)?,
                identifier: Identifier::new(config.identification).map_err(e)?,
            },
            Workload::Faulted => Kind::Faulted {
                protocol: ResilientBuzzProtocol::new(config, RecoveryConfig::default())
                    .map_err(e)?,
            },
            Workload::Fleet => {
                let configs: Vec<FleetConfig> = (0..units).map(|i| fleet_input(seed, i)).collect();
                for c in &configs {
                    c.validate().map_err(|e| e.to_string())?;
                }
                Kind::Fleet {
                    protocol: BuzzProtocol::new(config).map_err(e)?,
                    configs,
                }
            }
        };
        let mut stats = SetupStats::default();
        let mut sessions = Vec::new();
        if workload != Workload::Fleet {
            for index in 0..units {
                let input = session_input(workload, seed, index);
                let t = Instant::now();
                let scenario = build_scenario(&input)?;
                stats.build_ms += t.elapsed().as_secs_f64() * 1e3;
                stats.builds += 1;
                sessions.push((scenario, input));
            }
        }
        Ok((
            Self {
                kind,
                transfer,
                sessions,
            },
            stats,
        ))
    }

    /// Runs unit `index`, traced layer by layer when `traced`.
    pub fn run(&mut self, index: usize, traced: bool) -> Result<UnitResult, String> {
        if let Kind::Fleet { protocol, configs } = &self.kind {
            let config = configs.get(index).ok_or("unit index out of range")?;
            return if traced {
                run_fleet_traced(protocol, &self.transfer, config, index)
            } else {
                run_fleet_plain(protocol, config)
            };
        }
        // A unit may run once per pass; each run gets a fresh copy.
        let (scenario, input) = self.sessions.get(index).ok_or("unit index out of range")?;
        let (mut scenario, input) = (scenario.clone(), *input);
        let protocol: &dyn Protocol = match &self.kind {
            Kind::Buzz { protocol, .. } => protocol,
            Kind::Faulted { protocol } => protocol,
            Kind::Fleet { .. } => unreachable!("handled above"),
        };
        if !traced {
            let started = Instant::now();
            let outcome = protocol.run(&mut scenario, input.noise_seed);
            let host_ms = started.elapsed().as_secs_f64() * 1e3;
            return Ok(UnitResult::session(&outcome, host_ms, input.k));
        }

        let mut tracer = Tracer::new(index);
        let mut reference = scenario.clone();
        let decomposed = match &self.kind {
            Kind::Buzz { identifier, .. } => decompose_buzz(
                &mut tracer,
                None,
                &mut scenario,
                input.noise_seed,
                Some(identifier),
                &self.transfer,
            ),
            Kind::Faulted { protocol } => {
                decompose_faulted(&mut tracer, protocol, &mut scenario, input.noise_seed)
            }
            Kind::Fleet { .. } => unreachable!("handled above"),
        };
        let untraced = tracer.open("untraced", None);
        let outcome = protocol.run(&mut reference, input.noise_seed);
        tracer.close(untraced);
        let host_ms = tracer.spans[untraced].ms();
        let mut unit = UnitResult::session(&outcome, host_ms, input.k);
        if let Some(problem) = compare(&decomposed, &outcome) {
            unit.problems.push(format!("unit {index}: {problem}"));
        }
        unit.counters = tracer.counters;
        unit.spans = tracer.spans;
        Ok(unit)
    }
}

/// What a decomposed session delivered and how long it was on the air.
type Decomposed = Option<(usize, f64)>;

/// Checks a decomposed session against the protocol's own run.
fn compare(decomposed: &Decomposed, outcome: &SessionResult<SessionOutcome>) -> Option<String> {
    let reference = outcome
        .as_ref()
        .ok()
        .map(|o| (o.delivered_messages, o.wall_time_ms));
    let same = match (decomposed, reference) {
        (Some((d, a)), Some((rd, ra))) => *d == rd && a.to_bits() == ra.to_bits(),
        (None, None) => true,
        _ => false,
    };
    (!same).then(|| {
        format!("decomposed session {decomposed:?} differs from the protocol's {reference:?}")
    })
}

fn add_decode_counters(t: &mut Tracer, transfer: &TransferOutcome) {
    t.add("decode.calls", 1.0);
    t.add("decode.slots", transfer.slots_used as f64);
    t.add("decode.complete", f64::from(u8::from(transfer.complete)));
    t.add("decode.bits_per_symbol", transfer.bits_per_symbol());
}

/// Runs one Buzz session layer by layer, in `BuzzProtocol::run`'s order:
/// `Scenario::medium`, `Identifier::run` (or the periodic-mode genie ids when
/// `identifier` is `None`), `DataTransfer::run`, `score_against_truth`.
fn decompose_buzz(
    t: &mut Tracer,
    parent: Option<usize>,
    scenario: &mut Scenario,
    noise_seed: u64,
    identifier: Option<&Identifier>,
    transfer: &DataTransfer,
) -> Decomposed {
    let root = t.open("session", parent);
    let result = (|| {
        let mut medium = t
            .time("sim.medium", Some(root), || scenario.medium(noise_seed))
            .ok()?;
        let (ident_ms, discovered) = match identifier {
            Some(identifier) => {
                t.add("ident.calls", 1.0);
                let outcome = t.time("ident.run", Some(root), || {
                    identifier.run(scenario, &mut medium)
                });
                let Ok(outcome) = outcome else {
                    t.add("ident.failed", 1.0);
                    return None;
                };
                t.add("ident.slots", outcome.slots.total() as f64);
                t.add("ident.rounds", outcome.rounds as f64);
                t.add("ident.k_hat", outcome.k_estimate.k_hat);
                t.add("ident.k", scenario.tags().len() as f64);
                t.add("ident.exact", f64::from(u8::from(outcome.is_exact())));
                (Some(outcome.time_ms), outcome.discovered)
            }
            None => {
                let mut discovered = Vec::with_capacity(scenario.tags().len());
                for (i, tag) in scenario.tags_mut().iter_mut().enumerate() {
                    tag.assign_temporary_id(i as u64);
                    discovered.push(DiscoveredTag {
                        temporary_id: i as u64,
                        channel_estimate: tag.channel.coefficient,
                    });
                }
                (None, discovered)
            }
        };
        let outcome = t
            .time("decode.run", Some(root), || {
                transfer.run(scenario.tags(), &discovered, &mut medium)
            })
            .ok()?;
        add_decode_counters(t, &outcome);
        let (correct, _) = t.time("score", Some(root), || {
            score_against_truth(&outcome, &discovered, scenario.tags())
        });
        Some((correct, ident_ms.unwrap_or(0.0) + outcome.time_ms))
    })();
    t.close(root);
    result
}

/// Runs one `buzz+r` session inside a `recovery.run` span and records the
/// recovery layer's counters.
fn decompose_faulted(
    t: &mut Tracer,
    protocol: &ResilientBuzzProtocol,
    scenario: &mut Scenario,
    noise_seed: u64,
) -> Decomposed {
    let root = t.open("session", None);
    let result = t.time("recovery.run", Some(root), || {
        protocol.run(scenario, noise_seed)
    });
    t.close(root);
    let (outcome, diag) = result.ok()?;
    t.add("recovery.sessions", 1.0);
    t.add("recovery.stalls", diag.stalls_detected as f64);
    t.add(
        "recovery.extra_slot_requests",
        diag.extra_slot_requests as f64,
    );
    t.add(
        "recovery.checkpoint_restores",
        diag.checkpoint_restores as f64,
    );
    t.add("recovery.fallback_polls", diag.fallback_polls as f64);
    t.add(
        "recovery.fallback_delivered",
        diag.fallback_delivered as f64,
    );
    t.add("recovery.wasted_slots", diag.wasted_slots as f64);
    t.add("recovery.delivered", outcome.correct_messages as f64);
    add_decode_counters(t, &outcome.transfer);
    let session = SessionOutcome::from(outcome);
    Some((session.delivered_messages, session.wall_time_ms))
}

fn fleet_unit(outcome: &backscatter_fleet::FleetOutcome, host_ms: f64) -> UnitResult {
    let mut unit = UnitResult {
        host_ms,
        session_ms: outcome.records.iter().map(|r| r.host_ms).collect(),
        delivered: outcome.delivered as u64,
        offered: outcome.offered as u64,
        air_ms: outcome.makespan_ms,
        energy_j: outcome.energy_per_delivered_j * outcome.delivered as f64,
        ..UnitResult::default()
    };
    if !outcome.conservation_holds() {
        unit.problems.push(format!(
            "fleet conservation broken: offered {} != delivered {} + lost {} + carried {}",
            outcome.offered, outcome.delivered, outcome.lost, outcome.carried_over
        ));
    }
    if unit.delivered > unit.offered {
        unit.problems.push(format!(
            "delivered {} > offered {}",
            unit.delivered, unit.offered
        ));
    }
    unit
}

fn run_fleet_plain(protocol: &BuzzProtocol, config: &FleetConfig) -> Result<UnitResult, String> {
    let started = Instant::now();
    let outcome = run_fleet(protocol, config, 1).map_err(|e| e.to_string())?;
    Ok(fleet_unit(&outcome, started.elapsed().as_secs_f64() * 1e3))
}

/// A `Protocol` wrapper that runs each fleet session twice: decomposed into
/// its layers (traced), then through the wrapped protocol (timed as
/// `untraced`, and the outcome the fleet commits).
struct TracedSessions<'a> {
    protocol: &'a BuzzProtocol,
    transfer: &'a DataTransfer,
    parent: usize,
    tracer: Mutex<(Tracer, Vec<String>)>,
}

impl Protocol for TracedSessions<'_> {
    fn name(&self) -> &str {
        Protocol::name(self.protocol)
    }

    fn run(&self, scenario: &mut Scenario, seed: u64) -> SessionResult<SessionOutcome> {
        let mut guard = self
            .tracer
            .lock()
            .expect("fleet runs on one thread; no holder panicked");
        let (t, problems) = &mut *guard;
        let wrapper = t.open("fleet.session", Some(self.parent));
        let mut decomposed_scenario = scenario.clone();
        let decomposed = decompose_buzz(
            t,
            Some(wrapper),
            &mut decomposed_scenario,
            seed,
            None,
            self.transfer,
        );
        let untraced = t.open("untraced", Some(wrapper));
        let outcome = Protocol::run(self.protocol, scenario, seed);
        t.close(untraced);
        t.close(wrapper);
        if let Some(problem) = compare(&decomposed, &outcome) {
            problems.push(format!("fleet session: {problem}"));
        }
        outcome
    }
}

fn run_fleet_traced(
    protocol: &BuzzProtocol,
    transfer: &DataTransfer,
    config: &FleetConfig,
    index: usize,
) -> Result<UnitResult, String> {
    let mut tracer = Tracer::new(index);
    let root = tracer.open("fleet.run", None);
    let wrapped = TracedSessions {
        protocol,
        transfer,
        parent: root,
        tracer: Mutex::new((tracer, Vec::new())),
    };
    let outcome = run_fleet(&wrapped, config, 1).map_err(|e| e.to_string());
    let (mut tracer, problems) = wrapped
        .tracer
        .into_inner()
        .expect("fleet runs on one thread; no holder panicked");
    tracer.close(root);
    let outcome = outcome?;
    let mut unit = fleet_unit(&outcome, tracer.spans[root].ms());
    unit.problems.extend(problems);
    tracer.add("fleet.sessions", outcome.sessions as f64);
    tracer.add("fleet.carried", outcome.carried_over as f64);
    tracer.add("fleet.expired", outcome.lost as f64);
    unit.counters = tracer.counters;
    unit.spans = tracer.spans;
    Ok(unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_cover_the_grid() {
        for w in [
            Workload::Inventory,
            Workload::LargeK,
            Workload::LargeK16,
            Workload::Faulted,
        ] {
            let n = w.units(1);
            assert_eq!(n % w.cycle(), 0, "{w:?}");
            let a: Vec<_> = (0..n).map(|i| session_input(w, 5, i)).collect();
            let b: Vec<_> = (0..n).map(|i| session_input(w, 5, i)).collect();
            assert_eq!(a, b);
            assert_ne!(a[0].scenario_seed, session_input(w, 6, 0).scenario_seed);
        }
        // Every faulted cycle holds each (fault, K) pair exactly once.
        let cycle: Vec<_> = (16..32)
            .map(|i| session_input(Workload::Faulted, 9, i))
            .map(|s| (s.fault.unwrap(), s.k))
            .collect();
        for fault in FAULTS {
            for k in FAULTED_KS {
                assert_eq!(cycle.iter().filter(|&&p| p == (fault, k)).count(), 1);
            }
        }
        assert_ne!(fleet_input(1, 0).seed, fleet_input(1, 1).seed);
    }

    #[test]
    fn repeated_passes_keep_the_fastest_host_time_and_demand_equal_air_time() {
        let mut a = UnitResult {
            host_ms: 5.0,
            session_ms: vec![5.0],
            delivered: 4,
            offered: 4,
            air_ms: 2.0,
            ..UnitResult::default()
        };
        let b = UnitResult {
            host_ms: 3.0,
            session_ms: vec![3.0],
            ..a.clone()
        };
        a.repeat(&b).unwrap();
        a.repeat(&UnitResult {
            host_ms: 9.0,
            session_ms: vec![9.0],
            ..b.clone()
        })
        .unwrap();
        assert_eq!((a.host_ms, a.session_ms.clone()), (3.0, vec![3.0]));
        let drifted = UnitResult { air_ms: 2.5, ..b };
        assert!(a.repeat(&drifted).is_err());
    }

    #[test]
    fn every_fault_row_builds() {
        for fault in FAULTS {
            let input = SessionInput {
                k: 8,
                fault: Some(fault),
                scenario_seed: 1,
                noise_seed: 2,
            };
            build_scenario(&input).unwrap();
        }
    }

    /// A session whose identification misses a tag lowers the delivery
    /// ratio: the offer is every tag in the scenario, not the decoder's
    /// columns.  (K = 4, scenario seed 150465, noise seed 594 discovers and
    /// delivers 3 of its 4 tags.)
    #[test]
    fn a_missed_tag_counts_against_delivery() {
        let input = SessionInput {
            k: 4,
            fault: None,
            scenario_seed: 150_465,
            noise_seed: 594,
        };
        let mut scenario = build_scenario(&input).unwrap();
        let protocol = BuzzProtocol::new(BuzzConfig::default()).unwrap();
        let outcome = Protocol::run(&protocol, &mut scenario, input.noise_seed);
        let o = outcome.as_ref().unwrap();
        assert_eq!(o.delivered_messages + o.lost_messages, 3, "one tag missed");
        let unit = UnitResult::session(&outcome, 1.0, input.k);
        assert_eq!((unit.delivered, unit.offered), (3, 4));
        assert!(unit.problems.is_empty());
    }

    /// The decomposed session and `BuzzProtocol::run` agree on delivered
    /// count and air time, on every workload that decomposes.
    #[test]
    fn traced_units_match_the_protocol() {
        for (workload, units) in [
            (Workload::Inventory, 4),
            (Workload::LargeK16, 3),
            (Workload::LargeK, 1),
            (Workload::Faulted, 16),
        ] {
            let (mut bench, stats) = Bench::setup(workload, 3, units).unwrap();
            assert_eq!(stats.builds, units);
            let (mut plain, _) = Bench::setup(workload, 3, units).unwrap();
            for i in 0..units {
                let traced = bench.run(i, true).unwrap();
                let untraced = plain.run(i, false).unwrap();
                assert!(traced.problems.is_empty(), "{:?}", traced.problems);
                assert_eq!(traced.delivered, untraced.delivered);
                assert_eq!(traced.air_ms.to_bits(), untraced.air_ms.to_bits());
                assert_eq!(traced.energy_j.to_bits(), untraced.energy_j.to_bits());
                assert!(traced.spans.iter().any(|s| s.name == "session"));
            }
        }
    }

    #[test]
    fn traced_fleet_matches_the_plain_fleet() {
        let protocol = BuzzProtocol::new(periodic()).unwrap();
        let transfer = DataTransfer::new(periodic().transfer).unwrap();
        let config = FleetConfig {
            readers: 4,
            population: 80,
            ..fleet_input(1, 0)
        };
        let plain = run_fleet_plain(&protocol, &config).unwrap();
        let traced = run_fleet_traced(&protocol, &transfer, &config, 0).unwrap();
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.delivered, plain.delivered);
        assert_eq!(traced.air_ms.to_bits(), plain.air_ms.to_bits());
        assert_eq!(traced.counters["fleet.sessions"], 8.0);
        assert_eq!(traced.counters["decode.calls"], 8.0);
    }
}
