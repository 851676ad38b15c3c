//! The sharded serve engine: per-bank ownership over `pcm_util::Pool`.
//!
//! A fixed fleet of [`BankCtl`]s — the bank count is part of the
//! configuration, **independent of the shard count** — serves all traffic.
//! Tenants route to banks with [`crate::router::route`]; each bank's
//! controller state is owned by value inside its [`BankShard`] and is only
//! ever touched by whichever worker currently holds the exclusive borrow
//! ([`Pool::map_each_mut`] hands each `&mut BankShard` to exactly one
//! worker). There is no `Arc<Mutex<_>>` anywhere on the serve path — the
//! `serve-ownership` audit rule keeps it that way.
//!
//! Determinism: a request script is partitioned per bank and each bank
//! consumes its subsequence in arrival order, so the final state is a pure
//! function of the script and the bank count. The shard count only decides
//! how many banks progress concurrently — replay runs are byte-identical
//! across shard counts (`tests/serve_replay.rs`).
//!
//! Latency comes from the DDR3-style timing model in `crates/device`: a
//! write occupies its bank for [`TimingParams::write_occupancy_cycles`]
//! starting no earlier than its virtual arrival cycle, so open-loop bursts
//! build real queueing delay that lands in the percentile telemetry.

use crate::router::route;
use crate::telemetry::{BankSnapshot, BankTelemetry, LatencyHist, Snapshot};
use pcm_core::{BankCtl, EccChoice, SystemConfig, SystemKind, WearChoice, WriteError};
use pcm_device::timing::TimingParams;
use pcm_util::{child_seed, Line512, Pool};

/// Serve-engine configuration. One value of this struct plus a request
/// script fully determines every counter the daemon will ever report.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Master seed: bank endurance draws and the traffic generator all
    /// derive from it by index.
    pub seed: u64,
    /// Worker count for the shard pool (0 = available parallelism). Has
    /// **no effect on results**, only on wall-clock speed.
    pub shards: usize,
    /// Bank count. Part of the simulated machine, so changing it changes
    /// results (tenants remap per the router's growth rule).
    pub banks: usize,
    /// Logical lines per bank.
    pub lines_per_bank: u64,
    /// Simulated tenant population.
    pub tenants: u64,
    /// Controller system under test.
    pub system: SystemKind,
    /// Hard-error scheme of the stack under test.
    pub ecc: EccChoice,
    /// Inter-line wear-leveling scheme of the stack under test.
    pub wear: WearChoice,
    /// Mean per-cell endurance for the fault model.
    pub endurance_mean: f64,
    /// Zipf exponent of the tenant popularity mix.
    pub zipf_s: f64,
    /// Mean inter-arrival gap of the open-loop generator, bus cycles.
    pub mean_gap_cycles: f64,
}

impl ServeConfig {
    /// A small deterministic default fleet: 8 banks × 64 lines, 60 tenants
    /// (four times the 15 SPEC profiles), CompWF controller, paper
    /// endurance scaled down so wear telemetry moves within a short run.
    pub fn new(seed: u64) -> Self {
        ServeConfig {
            seed,
            shards: 0,
            banks: 8,
            lines_per_bank: 64,
            tenants: 60,
            system: SystemKind::CompWF,
            ecc: EccChoice::Ecp6,
            wear: WearChoice::StartGap,
            endurance_mean: 1e6,
            zipf_s: 0.99,
            mean_gap_cycles: 40.0,
        }
    }
}

/// One scripted write-back: the unit the generator emits and the replay
/// tests feed back in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedWrite {
    /// Arrival time, virtual bus cycles.
    pub at: u64,
    /// Tenant id.
    pub tenant: u64,
    /// Bank-local logical line index.
    pub line: u64,
    /// Payload.
    pub data: Line512,
}

/// A bank plus everything the serve path tracks about it. Handed out *by
/// value* through `&mut` — never wrapped in shared-ownership containers.
#[derive(Debug)]
pub struct BankShard {
    ctl: BankCtl,
    telem: BankTelemetry,
}

impl BankShard {
    /// The serve-path counters ([`BankTelemetry`]).
    pub fn telemetry(&self) -> &BankTelemetry {
        &self.telem
    }

    fn apply_write(&mut self, timing: &TimingParams, w: &ScriptedWrite) -> Result<u64, WriteError> {
        self.telem.writes += 1;
        // The bank is busy until its previous write finished; queueing
        // delay is the gap between arrival and service start.
        let start = w.at.max(self.telem.free_at);
        let done = start + timing.write_occupancy_cycles();
        self.telem.free_at = done;
        let latency = done - w.at;
        self.telem.latency.record(latency);
        match self.ctl.write(w.line, w.data) {
            Ok(_) => Ok(latency),
            Err(e) => {
                match e {
                    WriteError::LineDead { .. } => self.telem.write_failures += 1,
                    WriteError::BadAddress => self.telem.bad_addresses += 1,
                }
                Err(e)
            }
        }
    }
}

/// The sharded serve engine.
pub struct Engine {
    cfg: ServeConfig,
    banks: Vec<BankShard>,
    pool: Pool,
    timing: TimingParams,
    now: u64,
}

impl Engine {
    /// Builds the bank fleet. Bank `b` draws its endurance from
    /// `child_seed(seed, b)`, so the fleet's initial state depends only on
    /// `(seed, banks, lines_per_bank, system, endurance_mean)` — never on
    /// the shard count.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.banks > 0, "need at least one bank");
        assert!(cfg.tenants > 0, "need at least one tenant");
        let sys = SystemConfig::new(cfg.system)
            .with_ecc(cfg.ecc)
            .with_wear(cfg.wear)
            .with_endurance_mean(cfg.endurance_mean);
        let banks = (0..cfg.banks)
            .map(|b| BankShard {
                ctl: BankCtl::new(sys, cfg.lines_per_bank, child_seed(cfg.seed, b as u64)),
                telem: BankTelemetry::default(),
            })
            .collect();
        let pool = Pool::new(cfg.shards);
        Engine {
            cfg,
            banks,
            pool,
            timing: TimingParams::paper(),
            now: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The bank fleet, in bank order.
    pub fn banks(&self) -> &[BankShard] {
        &self.banks
    }

    /// The bank a tenant's requests land on.
    pub fn bank_of(&self, tenant: u64) -> usize {
        route(tenant, self.cfg.banks as u32) as usize
    }

    /// Serves one write immediately (the socket path). Identical effect to
    /// replaying it inside a script: the scripted batch path and this
    /// serial path share [`BankShard::apply_write`].
    ///
    /// # Errors
    ///
    /// [`WriteError::BadAddress`] / [`WriteError::LineDead`] as from
    /// [`BankCtl::write`]; the bank still counts the attempt either way.
    // pcm-audit: root(hotpath-alloc) — per-request demand-write path of the serve engine
    pub fn write(&mut self, w: &ScriptedWrite) -> Result<u64, WriteError> {
        self.now = self.now.max(w.at);
        let bank = self.bank_of(w.tenant);
        let timing = self.timing;
        // pcm-audit: allow(panic-reach) — bank_of reduces modulo banks.len(), so the index is always in range
        self.banks[bank].apply_write(&timing, w)
    }

    /// Reads a tenant's line back.
    ///
    /// # Errors
    ///
    /// As [`BankCtl::read`].
    pub fn read(&mut self, tenant: u64, line: u64) -> Result<Line512, WriteError> {
        let bank = self.bank_of(tenant);
        // pcm-audit: allow(panic-reach) — bank_of reduces modulo banks.len(), so the index is always in range
        let shard = &mut self.banks[bank];
        shard.telem.reads += 1;
        shard.ctl.read(line)
    }

    /// Replays a whole script: partitions it per bank (preserving arrival
    /// order inside each partition) and drives the banks concurrently on
    /// the shard pool. Results are byte-identical to serving the script
    /// one request at a time.
    pub fn run_script(&mut self, script: &[ScriptedWrite]) {
        if script.is_empty() {
            return;
        }
        self.now = self
            .now
            .max(script.iter().map(|w| w.at).max().expect("non-empty"));
        let banks = self.cfg.banks as u32;
        let mut parts: Vec<Vec<&ScriptedWrite>> = (0..banks).map(|_| Vec::new()).collect();
        for w in script {
            parts[route(w.tenant, banks) as usize].push(w);
        }
        let mut work: Vec<(&mut BankShard, Vec<&ScriptedWrite>)> =
            self.banks.iter_mut().zip(parts).collect();
        let timing = self.timing;
        self.pool.map_each_mut(&mut work, |_, (shard, reqs)| {
            for w in reqs {
                // Outcomes are folded into the shard's own telemetry;
                // per-request results are not needed on the batch path.
                let _ = shard.apply_write(&timing, w);
            }
        });
    }

    /// Takes a telemetry snapshot: per-bank counters plus the merged
    /// latency percentiles, all in bank order.
    pub fn snapshot(&self) -> Snapshot {
        let mut latency = LatencyHist::new();
        let mut writes = 0u64;
        let mut reads = 0u64;
        let mut demand = 0u64;
        let mut compressed = 0u64;
        let mut faults = 0u64;
        let mut dead = 0u64;
        let banks = self
            .banks
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let stats = shard.ctl.stats();
                latency.absorb(&shard.telem.latency);
                writes += shard.telem.writes;
                reads += shard.telem.reads;
                demand += stats.demand_writes;
                compressed += stats.compressed_writes;
                faults += stats.new_faults;
                dead += shard.ctl.dead_lines() as u64;
                BankSnapshot {
                    bank: i,
                    writes: shard.telem.writes,
                    compressed: stats.compressed_writes,
                    flips: stats.total_flips,
                    faults: stats.new_faults,
                    dead_lines: shard.ctl.dead_lines() as u64,
                    write_failures: shard.telem.write_failures,
                    wear_digest: shard.ctl.wear_digest(),
                }
            })
            .collect();
        let (p50, p99, p999) = latency.summary();
        Snapshot {
            now: self.now,
            writes,
            reads,
            compressed_fraction: if demand == 0 {
                0.0
            } else {
                compressed as f64 / demand as f64
            },
            faults,
            dead_lines: dead,
            p50,
            p99,
            p999,
            banks,
        }
    }

    /// Per-bank wear digests, in bank order — the replay suite's final
    /// equality witness.
    pub fn wear_digests(&self) -> Vec<u64> {
        self.banks.iter().map(|s| s.ctl.wear_digest()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TrafficGen;

    #[test]
    fn batch_and_serial_paths_agree() {
        let cfg = ServeConfig::new(11);
        let script = TrafficGen::new(&cfg).script_until(200_000);
        assert!(script.len() > 100, "generator produced {}", script.len());

        let mut batch = Engine::new(cfg.clone());
        batch.run_script(&script);

        let mut serial = Engine::new(cfg);
        for w in &script {
            let _ = serial.write(w);
        }

        assert_eq!(batch.snapshot(), serial.snapshot());
        assert_eq!(batch.wear_digests(), serial.wear_digests());
    }

    /// Batch-vs-serial equality witness shared by the divergence tests:
    /// runs the script both ways and compares every observable.
    fn assert_batch_matches_serial(cfg: ServeConfig, script: &[ScriptedWrite]) {
        let mut batch = Engine::new(cfg.clone());
        batch.run_script(script);

        let mut serial = Engine::new(cfg);
        for w in script {
            let _ = serial.write(w);
        }

        assert_eq!(batch.snapshot(), serial.snapshot());
        assert_eq!(batch.wear_digests(), serial.wear_digests());
    }

    #[test]
    fn batch_agrees_when_a_line_dies_mid_batch() {
        // Tiny endurance plus a hammered single line: deaths (and CompWF
        // resurrection attempts) land mid-script, and the per-bank replay
        // must count them exactly as serving one request at a time does.
        let mut cfg = ServeConfig::new(29);
        cfg.banks = 2;
        cfg.lines_per_bank = 4;
        cfg.endurance_mean = 300.0;
        cfg.mean_gap_cycles = 15.0;
        let script = TrafficGen::new(&cfg).script_until(150_000);
        assert!(script.len() > 500, "generator produced {}", script.len());
        let died: u64 = {
            let mut probe = Engine::new(cfg.clone());
            probe.run_script(&script);
            probe
                .banks()
                .iter()
                .map(|s| s.telemetry().write_failures)
                .sum()
        };
        assert!(died > 0, "script must exercise mid-batch deaths");
        assert_batch_matches_serial(cfg, &script);
    }

    #[test]
    fn batch_agrees_with_bad_addresses_interleaved() {
        // Every 7th request targets one-past-the-end: BadAddress outcomes
        // must be counted identically by the per-bank replay and the
        // serial path.
        let cfg = ServeConfig::new(31);
        let lines = cfg.lines_per_bank;
        let mut script = TrafficGen::new(&cfg).script_until(120_000);
        for (i, w) in script.iter_mut().enumerate() {
            if i % 7 == 3 {
                w.line = lines; // out of range
            }
        }
        let bad: usize = script.iter().filter(|w| w.line == lines).count();
        assert!(bad > 50, "only {bad} bad addresses in the script");
        assert_batch_matches_serial(cfg, &script);
    }

    #[test]
    fn batch_agrees_on_a_single_bank() {
        // A single bank: the whole script is one partition, replayed in
        // arrival order.
        let mut cfg = ServeConfig::new(37);
        cfg.banks = 1;
        let mut script = TrafficGen::new(&cfg).script_until(400_000);
        script.truncate(145);
        assert_eq!(script.len(), 145);
        assert_batch_matches_serial(cfg, &script);
    }

    #[test]
    fn batch_agrees_for_non_compressing_system() {
        // Baseline stores every line raw; its per-bank replay must match
        // the serial path too.
        let mut cfg = ServeConfig::new(41);
        cfg.system = SystemKind::Baseline;
        cfg.endurance_mean = 2_000.0;
        let script = TrafficGen::new(&cfg).script_until(100_000);
        assert_batch_matches_serial(cfg, &script);
    }

    #[test]
    fn queueing_delay_reaches_the_percentiles() {
        // Offered load far above one bank's service rate: tail latency must
        // exceed the bare occupancy.
        let mut cfg = ServeConfig::new(3);
        cfg.banks = 1;
        cfg.mean_gap_cycles = 10.0; // service takes ~68 cycles
        let script = TrafficGen::new(&cfg).script_until(50_000);
        let mut engine = Engine::new(cfg);
        engine.run_script(&script);
        let snap = engine.snapshot();
        let occupancy = TimingParams::paper().write_occupancy_cycles();
        assert!(snap.p50 >= occupancy);
        assert!(
            snap.p999 > 2 * occupancy,
            "p999 {} should show queueing beyond occupancy {}",
            snap.p999,
            occupancy
        );
    }

    #[test]
    fn writes_route_to_the_owning_bank_only() {
        let cfg = ServeConfig::new(5);
        let mut engine = Engine::new(cfg);
        let w = ScriptedWrite {
            at: 0,
            tenant: 12345,
            line: 0,
            data: Line512::ones(),
        };
        let owner = engine.bank_of(12345);
        engine.write(&w).expect("write serves");
        for (i, shard) in engine.banks().iter().enumerate() {
            let expect = if i == owner { 1 } else { 0 };
            assert_eq!(shard.telemetry().writes, expect, "bank {i}");
        }
    }

    #[test]
    fn bad_address_is_counted_not_fatal() {
        let cfg = ServeConfig::new(5);
        let lines = cfg.lines_per_bank;
        let mut engine = Engine::new(cfg);
        let w = ScriptedWrite {
            at: 0,
            tenant: 1,
            line: lines, // one past the end
            data: Line512::ones(),
        };
        assert_eq!(engine.write(&w), Err(WriteError::BadAddress));
        let bank = engine.bank_of(1);
        assert_eq!(engine.banks()[bank].telemetry().bad_addresses, 1);
    }
}
