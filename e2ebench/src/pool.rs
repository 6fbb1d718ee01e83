//! Load generation: a small pool of distinct, seeded motor-pool sEMG
//! sessions with their ground-truth force, built once per run before
//! the system under test is brought up.

use datc_signal::motor::{MotorWorkload, PoolParams, SubjectPreset, WorkloadScenario};
use datc_signal::Signal;

/// Channels per session (the paper's 8-electrode operating point).
pub const CHANNELS: usize = 8;
/// Recording length of one session, seconds.
pub const SESSION_S: f64 = 10.0;
/// sEMG sample rate (the rate `motor_fleet` generates at).
pub const SEMG_FS: f64 = 2500.0;
/// Force rate the hub reconstructs at (`SessionRxConfig::output_fs`).
pub const FORCE_FS: f64 = 100.0;
/// Distinct sEMG sessions the clients cycle through.
pub const POOL_SIZE: usize = 16;
/// Distinct chaos fault schedules the lossy workload cycles through (a
/// multiple of [`POOL_SIZE`], so schedule `j` always rides entry
/// `j % POOL_SIZE`).
pub const CHAOS_SCHEDULES: usize = 256;
/// Threads generating the pool (generation is not timed as system work).
const GEN_THREADS: usize = 2;

/// Channel-seconds of sEMG one session carries.
pub const CHAN_S_PER_SESSION: f64 = CHANNELS as f64 * SESSION_S;

/// One generated session: what the sensor encodes and what the hub's
/// force should track.
#[derive(Debug, Clone)]
pub struct PoolSession {
    /// Rectified, gain-spread sEMG per channel, as `motor_fleet` builds it.
    pub signals: Vec<Signal>,
    /// Ground-truth twitch force per channel, block-averaged to
    /// [`FORCE_FS`].
    pub truth: Vec<Vec<f64>>,
}

/// The generated load: session `n` of a run sends sEMG entry
/// `n % POOL_SIZE` through chaos schedule `n % CHAOS_SCHEDULES`.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The sEMG sessions.
    pub sessions: Vec<PoolSession>,
    /// Chaos-link seeds (lossy workload only): fixed per schedule, so a
    /// schedule drops the same frames whenever it is replayed.
    pub chaos_seeds: Vec<u64>,
}

impl Pool {
    /// The sEMG entry session `n` sends.
    pub fn entry(&self, n: u32) -> usize {
        n as usize % self.sessions.len()
    }

    /// The chaos schedule session `n` runs under.
    pub fn schedule(&self, n: u32) -> usize {
        n as usize % self.chaos_seeds.len()
    }
}

/// SplitMix64 step: decorrelates the per-entry seeds derived from the
/// one workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the pool for `scenario` from `seed`: per channel
/// `MotorWorkload::run` with the subject preset and the 0.3–0.6 gain
/// spread of `motor_fleet`, keeping the force ground truth that
/// `motor_fleet` discards. Same seed ⇒ identical pool.
pub fn generate(scenario: WorkloadScenario, seed: u64) -> Pool {
    let workloads: Vec<(SubjectPreset, MotorWorkload)> = [
        SubjectPreset::Average,
        SubjectPreset::Small,
        SubjectPreset::Strong,
    ]
    .into_iter()
    .map(|p| {
        let params = PoolParams::with_units(p.n_units());
        (p, MotorWorkload::with_pool(scenario, SEMG_FS, params))
    })
    .collect();
    let make = |k: usize| {
        let base = mix(seed ^ mix(k as u64));
        let mut signals = Vec::with_capacity(CHANNELS);
        let mut truth = Vec::with_capacity(CHANNELS);
        for c in 0..CHANNELS {
            let preset = SubjectPreset::for_channel(c);
            let (_, workload) = workloads
                .iter()
                .find(|(p, _)| *p == preset)
                .expect("every preset is built");
            let run = workload.run(SESSION_S, base.wrapping_add(c as u64));
            let gain = 0.3 + 0.3 * (c as f64 / CHANNELS as f64);
            signals.push(run.semg.to_scaled(gain).to_rectified());
            truth.push(block_mean(run.force.samples(), SEMG_FS / FORCE_FS));
        }
        PoolSession { signals, truth }
    };
    let mut sessions: Vec<(usize, PoolSession)> = std::thread::scope(|s| {
        let shards: Vec<_> = (0..GEN_THREADS)
            .map(|t| {
                let make = &make;
                s.spawn(move || {
                    (t..POOL_SIZE)
                        .step_by(GEN_THREADS)
                        .map(|k| (k, make(k)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        shards
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    sessions.sort_by_key(|(k, _)| *k);
    Pool {
        sessions: sessions.into_iter().map(|(_, s)| s).collect(),
        chaos_seeds: (0..CHAOS_SCHEDULES)
            .map(|j| mix(seed ^ mix(0xC4A0_5EED + j as u64)))
            .collect(),
    }
}

/// Averages consecutive blocks of `ratio` samples (the force ground
/// truth brought to the hub's output rate).
fn block_mean(samples: &[f64], ratio: f64) -> Vec<f64> {
    let block = ratio.round() as usize;
    samples
        .chunks_exact(block)
        .map(|b| b.iter().sum::<f64>() / block as f64)
        .collect()
}
