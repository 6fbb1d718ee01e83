//! The struct-of-arrays multi-channel D-ATC kernel.
//!
//! [`BankStream`] advances N channels through the comparator → DTC →
//! DAC cycle **per input frame** in one cache-friendly pass: all
//! per-channel state lives in parallel arrays (threshold voltages,
//! frame counters, comparator bits), the frame countdown and interval
//! ROM are shared scalars, and the code→voltage conversion is a LUT
//! index. The per-channel inner step is branch-free outside the rare
//! end-of-frame and event cases, which is what lets a single core chew
//! through hundreds of millions of channel·ticks per second — see
//! `BENCH_fleet.json` at the workspace root for measured numbers.
//!
//! Three performance layers stack on the SoA state:
//!
//! * **Fused gather + compare** ([`BankStream::push_signals`]): the ZOH
//!   index mapping is resolved once per segment and each channel's
//!   samples are gathered *inside* the compare kernel — on AVX2 hosts
//!   with `vgatherqpd` + `cmp_pd` + `movmskpd` (runtime-detected), with
//!   a bit-identical scalar fallback (same masks, same strict-`>` tie
//!   behaviour, `false` against NaN).
//! * **Cache tiling** ([`TilePolicy`]): large banks process channels in
//!   L2-sized tiles over bounded time segments, so a 64-channel fleet
//!   streams a handful of input arrays at a time instead of thrashing
//!   the prefetcher with 64 concurrent streams.
//! * **SoA non-ideal comparators** ([`BankStream::with_comparators`]):
//!   per-channel offset / hysteresis / noise
//!   ([`Comparator`]) run vectorised — noise
//!   comes from the counter-based lane (a pure function of seed and
//!   tick), hysteresis is resolved 64 ticks at a time through a
//!   carry-propagation identity — so non-ideal fleets keep the bank
//!   speedup instead of falling back to per-channel streams.
//!
//! Results are **bit-exact** with N independent
//! [`DatcStream`](crate::stream::DatcStream)s carrying the same
//! comparator configs and fed the same per-channel samples —
//! property-tested in `tests/` at the workspace root across SIMD
//! policies, tile shapes and comparator models. The multi-threaded
//! sharding driver over this kernel is `FleetRunner` in the
//! `datc-engine` crate.
//!
//! # Example
//!
//! ```
//! use datc_core::bank::{BankCountingSink, BankStream};
//! use datc_core::config::DatcConfig;
//!
//! let mut bank = BankStream::new(DatcConfig::paper(), 4)?;
//! let mut sink = BankCountingSink::new(4);
//! for k in 0..2000u32 {
//!     let t = f64::from(k) * 0.2;
//!     // four phase-shifted channels, one frame per tick
//!     let frame = [
//!         0.4 * t.sin().abs(),
//!         0.4 * (t + 0.5).sin().abs(),
//!         0.4 * (t + 1.0).sin().abs(),
//!         0.4 * (t + 1.5).sin().abs(),
//!     ];
//!     bank.push_frame(&frame, &mut sink);
//! }
//! assert!(sink.channel(0).events > 0);
//! # Ok::<(), datc_core::CoreError>(())
//! ```

use crate::comparator::{gaussian_at, Comparator};
use crate::config::{Arithmetic, DatcConfig};
use crate::dac::Dac;
use crate::dtc::fixed_point::{
    avr_float, avr_scaled, predict_code_fixed, predict_code_float, quantize_weights,
};
use crate::dtc::intervals::IntervalTable;
use crate::dtc::DtcStep;
use crate::encoder::{CountingSink, TickSink};
use crate::error::CoreError;
use crate::event::Event;
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;

/// Consumer of per-channel, per-tick results from a [`BankStream`].
///
/// The multi-channel analogue of [`TickSink`]:
/// called once per channel per system-clock tick. Within one channel,
/// calls arrive in tick order; the interleaving **across** channels is
/// unspecified — the planar drivers run each channel over a whole
/// frame-bounded span (registers-resident inner loop) before moving to
/// the next channel, and cache tiling additionally groups channels into
/// tiles that each replay a run of spans. Implementations should be
/// `#[inline]`-friendly — the kernel loop is monomorphised over the
/// sink.
pub trait BankSink {
    /// `true` (the default) delivers every tick through
    /// [`on_tick`](BankSink::on_tick). Sinks that only consume events,
    /// frame decisions and aggregate counters set this to `false`, which
    /// lets the planar drivers run an **event-sparse** inner loop: quiet
    /// ticks cost a register add, and the sink hears only
    /// [`on_event`](BankSink::on_event), [`on_frame`](BankSink::on_frame)
    /// and per-span [`on_span`](BankSink::on_span) aggregates.
    ///
    /// A sink must account identically through either delivery mode —
    /// the tick-major drivers (`push_frame`, `push_interleaved`) always
    /// use `on_tick`.
    const EVERY_TICK: bool = true;

    /// Called for `channel` at tick `tick` with the channel's DTC step.
    fn on_tick(&mut self, channel: usize, tick: u64, step: &DtcStep);

    /// Sparse mode: a rising edge fired on `channel` at `tick` while
    /// threshold `code` was in force.
    #[inline]
    fn on_event(&mut self, _channel: usize, _tick: u64, _code: u8) {}

    /// Sparse mode: `channel` closed a frame at `tick`, deciding
    /// `set_vth`.
    #[inline]
    fn on_frame(&mut self, _channel: usize, _tick: u64, _set_vth: u8) {}

    /// Sparse mode: `channel` advanced `ticks` ticks of which `ones` had
    /// the comparator bit high (events/frames already reported
    /// separately).
    #[inline]
    fn on_span(&mut self, _channel: usize, _ticks: u64, _ones: u64) {}
}

/// Per-channel scalar counters — one [`CountingSink`] per channel, the
/// counters-only [`BankSink`] (duty cycle per channel comes free via
/// [`CountingSink::duty_cycle`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankCountingSink {
    channels: Vec<CountingSink>,
}

impl BankCountingSink {
    /// Creates counters for `n` channels.
    pub fn new(n: usize) -> Self {
        BankCountingSink {
            channels: vec![CountingSink::default(); n],
        }
    }

    /// The counters of `channel`.
    pub fn channel(&self, channel: usize) -> &CountingSink {
        &self.channels[channel]
    }

    /// All per-channel counters.
    pub fn channels(&self) -> &[CountingSink] {
        &self.channels
    }

    /// Events summed over every channel.
    pub fn total_events(&self) -> u64 {
        self.channels.iter().map(|c| c.events).sum()
    }
}

impl BankSink for BankCountingSink {
    #[inline]
    fn on_tick(&mut self, channel: usize, tick: u64, step: &DtcStep) {
        self.channels[channel].on_tick(tick, step);
    }
}

/// A [`BankSink`] recording per-channel event lists plus the duty-cycle
/// counters — everything `FleetRunner` needs to assemble per-channel
/// `DatcOutput`s.
#[derive(Debug, Clone)]
pub struct BankEventSink {
    events: Vec<Vec<Event>>,
    ones: Vec<u64>,
    ticks: u64,
}

impl BankEventSink {
    /// Creates a sink for `n` channels.
    pub fn new(n: usize) -> Self {
        BankEventSink {
            events: vec![Vec::new(); n],
            ones: vec![0; n],
            ticks: 0,
        }
    }

    /// Pre-reserves capacity for `per_channel` events on every channel,
    /// sparing the hot loop the growth-reallocation copies of long
    /// recordings.
    pub fn reserve_events(&mut self, per_channel: usize) {
        for evs in &mut self.events {
            evs.reserve(per_channel);
        }
    }

    /// Events recorded so far for `channel`.
    pub fn events(&self, channel: usize) -> &[Event] {
        &self.events[channel]
    }

    /// Ticks with the comparator high, per channel.
    pub fn ones(&self) -> &[u64] {
        &self.ones
    }

    /// Ticks observed per channel.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Consumes the sink into `(per-channel events, per-channel ones,
    /// ticks)` for callers assembling richer outputs.
    pub fn into_parts(self) -> (Vec<Vec<Event>>, Vec<u64>, u64) {
        (self.events, self.ones, self.ticks)
    }

    /// Clears all recorded events and counters while keeping the event
    /// buffers' capacity — lets a long-running driver recycle one sink
    /// across encodes instead of re-faulting fresh allocations each
    /// time.
    pub fn clear(&mut self) {
        for evs in &mut self.events {
            evs.clear();
        }
        self.ones.fill(0);
        self.ticks = 0;
    }
}

impl BankSink for BankEventSink {
    // Events and counters only — unlock the event-sparse planar loop.
    const EVERY_TICK: bool = false;

    #[inline]
    fn on_tick(&mut self, channel: usize, tick: u64, step: &DtcStep) {
        self.ticks += u64::from(channel == 0);
        self.ones[channel] += u64::from(step.d_out);
        if step.event {
            self.on_event(channel, tick, step.sampled_code);
        }
    }

    #[inline]
    fn on_event(&mut self, channel: usize, tick: u64, code: u8) {
        self.events[channel].push(Event {
            tick,
            vth_code: Some(code),
        });
    }

    #[inline]
    fn on_span(&mut self, channel: usize, ticks: u64, ones: u64) {
        self.ticks += if channel == 0 { ticks } else { 0 };
        self.ones[channel] += ones;
    }
}

/// Which word-packing compare implementation the bank may use.
///
/// The SIMD paths are **bit-identical** to the scalar fallback (strict
/// `>`, `false` against NaN — `_CMP_GT_OQ` semantics match Rust's `>`
/// exactly), so this knob exists for benchmarking the speedup and for
/// equivalence tests, not for correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use whatever the CPU supports (runtime-detected AVX for packed
    /// compares, AVX2 for the fused gather + compare). The default.
    #[default]
    Auto,
    /// Always run the restructured scalar kernels.
    ForceScalar,
}

/// Cache-tiling policy for the planar/signal drivers.
///
/// A bank with many channels cannot stream every channel's input
/// concurrently without spilling the combined working set out of L2 (and
/// past the prefetcher's stream-tracking budget). Tiling splits the
/// channels into tiles of at most
/// [`max_tile_channels`](TilePolicy::max_tile_channels) and replays each
/// input **segment** (a run of frame-bounded spans sized so one tile's
/// source bytes fit [`target_tile_bytes`](TilePolicy::target_tile_bytes))
/// tile by tile. Results are bit-identical for every policy — only the
/// traversal order over (channel, tick) changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePolicy {
    /// Channels processed per tile (`usize::MAX` = all channels in one
    /// tile, i.e. no channel blocking).
    pub max_tile_channels: usize,
    /// Source-byte budget per tile per segment (`usize::MAX` = segments
    /// as long as the input allows).
    pub target_tile_bytes: usize,
}

impl TilePolicy {
    /// The default: 16-channel tiles over ≈ 256 KiB segments — sized for
    /// a conservative per-core L2 share and well inside hardware
    /// prefetcher stream budgets.
    pub fn auto() -> Self {
        TilePolicy {
            max_tile_channels: 16,
            target_tile_bytes: 256 * 1024,
        }
    }

    /// No tiling: every channel advances span by span across the whole
    /// input (the pre-tiling traversal; useful for measuring what tiling
    /// buys).
    pub fn none() -> Self {
        TilePolicy {
            max_tile_channels: usize::MAX,
            target_tile_bytes: usize::MAX,
        }
    }
}

impl Default for TilePolicy {
    fn default() -> Self {
        TilePolicy::auto()
    }
}

/// Resolved CPU capabilities for the packing kernels.
#[derive(Debug, Clone, Copy)]
struct SimdCaps {
    /// Packed `cmp_pd` + `movmskpd` over contiguous lanes.
    avx: bool,
    /// `vgatherqpd`-fused gather + compare.
    avx2: bool,
}

impl SimdCaps {
    fn detect(policy: SimdPolicy) -> SimdCaps {
        match policy {
            SimdPolicy::ForceScalar => SimdCaps {
                avx: false,
                avx2: false,
            },
            SimdPolicy::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    SimdCaps {
                        avx: std::arch::is_x86_feature_detected!("avx"),
                        avx2: std::arch::is_x86_feature_detected!("avx2"),
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    SimdCaps {
                        avx: false,
                        avx2: false,
                    }
                }
            }
        }
    }
}

/// Struct-of-arrays non-ideal comparator parameters (one lane per
/// channel).
#[derive(Debug, Clone)]
struct BankComparators {
    offset: Vec<f64>,
    /// Half the hysteresis width — the quantity
    /// [`Comparator::compare`] actually adds/subtracts.
    half: Vec<f64>,
    sigma: Vec<f64>,
    seed: Vec<u64>,
}

/// One channel's comparator parameters, copied to registers for a span.
#[derive(Debug, Clone, Copy)]
struct ChannelComp {
    offset: f64,
    half: f64,
    sigma: f64,
    seed: u64,
}

impl BankComparators {
    /// Channel `c`'s parameters — `None` when the channel is effectively
    /// ideal (all-zero lane), so mixed banks keep the fused ideal kernel
    /// for their ideal majority. Bit-identical either way:
    /// `x + 0.0 > vth ± 0.0` is `x > vth` for every `x`.
    #[inline]
    fn channel(&self, c: usize) -> Option<ChannelComp> {
        let cc = ChannelComp {
            offset: self.offset[c],
            half: self.half[c],
            sigma: self.sigma[c],
            seed: self.seed[c],
        };
        (cc.offset != 0.0 || cc.half != 0.0 || cc.sigma > 0.0).then_some(cc)
    }
}

/// A span's worth of per-tick comparator-input samples. The kernels are
/// monomorphised over this, so the contiguous-slice and the fused-gather
/// drives share one span implementation with zero dispatch cost.
trait SpanFeed {
    /// Number of ticks in the span.
    fn len(&self) -> usize;
    /// Sample at tick offset `j` within the span.
    fn get(&self, j: usize) -> f64;
    /// Packs `w ≤ 64` strict compare decisions starting at offset `i`
    /// (bit `j` = `get(i + j) > vth`).
    fn pack(&self, i: usize, w: usize, vth: f64, caps: SimdCaps) -> u64;
    /// Copies `dst.len()` samples starting at offset `i` into `dst`.
    fn load(&self, i: usize, dst: &mut [f64]);
}

/// Contiguous clock-rate samples.
struct SliceFeed<'a>(&'a [f64]);

impl SpanFeed for SliceFeed<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.0[j]
    }

    #[inline]
    fn pack(&self, i: usize, w: usize, vth: f64, caps: SimdCaps) -> u64 {
        pack_block(&self.0[i..i + w], vth, caps)
    }

    #[inline]
    fn load(&self, i: usize, dst: &mut [f64]) {
        dst.copy_from_slice(&self.0[i..i + dst.len()]);
    }
}

/// ZOH-gathered samples: `samples[idx[j]]` is the comparator input at
/// span offset `j`. On AVX2 the gather and the compare fuse into one
/// `vgatherqpd` + `cmp_pd` + `movmskpd` pass with no intermediate store.
struct GatherFeed<'a> {
    samples: &'a [f64],
    idx: &'a [i64],
}

impl SpanFeed for GatherFeed<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.idx.len()
    }

    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.samples[self.idx[j] as usize]
    }

    #[inline]
    fn pack(&self, i: usize, w: usize, vth: f64, caps: SimdCaps) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if w == 64 && caps.avx2 {
            // SAFETY: AVX2 confirmed at runtime; every index is
            // validated against `samples.len()` by the drivers (the ZOH
            // contract `ticks_for_len` ⇒ `index(k) < len`).
            return unsafe { pack64_gather_avx2(self.samples.as_ptr(), &self.idx[i..i + 64], vth) };
        }
        let mut cmp = 0u64;
        for (j, &ix) in self.idx[i..i + w].iter().enumerate() {
            cmp |= u64::from(self.samples[ix as usize] > vth) << j;
        }
        let _ = caps;
        cmp
    }

    #[inline]
    fn load(&self, i: usize, dst: &mut [f64]) {
        for (d, &ix) in dst.iter_mut().zip(&self.idx[i..]) {
            *d = self.samples[ix as usize];
        }
    }
}

/// N-channel streaming D-ATC encoder with struct-of-arrays state.
///
/// All channels share one configuration (clock, frame size, DAC, weights
/// — the realistic multi-electrode case) and advance in lock-step, so
/// the frame countdown, tick counter, interval ROM and voltage LUT are
/// shared scalars; only the genuinely per-channel state (comparator
/// bits, frame counts, history, threshold codes and voltages) is
/// replicated, each kind in its own parallel array.
///
/// Channels default to the **ideal** comparator (the paper's operating
/// point); per-channel offset/hysteresis/noise models attach through
/// [`with_comparators`](BankStream::with_comparators) and run inside the
/// same SoA kernels, bit-exact with N independent
/// [`DatcStream`](crate::stream::DatcStream)s carrying the same configs.
#[derive(Debug, Clone)]
pub struct BankStream {
    config: DatcConfig,
    table: IntervalTable,
    weights_q: (u64, u64, u64),
    vth_lut: Vec<f64>,
    frame_len: u32,
    max_code: u8,
    caps: SimdCaps,
    simd: SimdPolicy,
    tiling: TilePolicy,
    comparators: Option<BankComparators>,
    // --- struct-of-arrays per-channel state ---
    /// Metastability register (`In_reg`) per channel — also the
    /// hysteresis state (both are "the comparator's last raw decision").
    in_reg: Vec<bool>,
    /// Previous `D_out` per channel, for rising-edge detection.
    d_prev: Vec<bool>,
    /// Ones counted in the current frame, per channel.
    counter: Vec<u32>,
    /// Previous-frame count (`N_one2`) per channel.
    n2: Vec<u32>,
    /// Frame-before-that count (`N_one1`) per channel.
    n1: Vec<u32>,
    /// Current threshold code per channel.
    set_vth: Vec<u8>,
    /// Current threshold voltage per channel (code through the LUT,
    /// refreshed only at frame boundaries).
    vth_volts: Vec<f64>,
    // --- shared lock-step scalars ---
    tick_in_frame: u32,
    tick: u64,
    frames: u64,
}

impl BankStream {
    /// Creates an `n`-channel bank kernel with ideal comparators.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// validation or `channels` is zero.
    pub fn new(config: DatcConfig, channels: usize) -> Result<Self, CoreError> {
        config.validate()?;
        if channels == 0 {
            return Err(CoreError::InvalidConfig {
                field: "channels",
                reason: "bank needs at least one channel".into(),
            });
        }
        let dac = Dac::new(config.dac_bits, config.vref)?;
        let vth_lut = dac.voltage_table();
        let initial_volts = vth_lut[usize::from(config.initial_code)];
        Ok(BankStream {
            table: IntervalTable::new(
                config.frame_size.len(),
                config.interval_step,
                1usize << config.dac_bits,
            ),
            weights_q: quantize_weights(config.weights),
            vth_lut,
            frame_len: config.frame_size.len(),
            max_code: config.max_code(),
            caps: SimdCaps::detect(SimdPolicy::Auto),
            simd: SimdPolicy::Auto,
            tiling: TilePolicy::default(),
            comparators: None,
            in_reg: vec![false; channels],
            d_prev: vec![false; channels],
            counter: vec![0; channels],
            n2: vec![0; channels],
            n1: vec![0; channels],
            set_vth: vec![config.initial_code; channels],
            vth_volts: vec![initial_volts; channels],
            tick_in_frame: 0,
            tick: 0,
            frames: 0,
            config,
        })
    }

    /// Attaches per-channel comparator models (offset / hysteresis /
    /// noise). Each comparator's *configuration* is taken at power-on
    /// state — runtime hysteresis state and noise position restart from
    /// zero, exactly as a fresh
    /// [`DatcStream::with_comparator`](crate::stream::DatcStream::with_comparator)
    /// does. A slice of all-ideal comparators keeps the branch-free
    /// ideal kernels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the slice length
    /// differs from the channel count or a parameter is non-finite.
    pub fn with_comparators(mut self, comparators: &[Comparator]) -> Result<Self, CoreError> {
        if comparators.len() != self.channels() {
            return Err(CoreError::InvalidConfig {
                field: "comparators",
                reason: format!(
                    "need one comparator per channel ({}), got {}",
                    self.channels(),
                    comparators.len()
                ),
            });
        }
        if comparators.iter().any(|c| {
            !(c.offset_v().is_finite()
                && c.hysteresis_v().is_finite()
                && c.noise_sigma_v().is_finite())
        }) {
            return Err(CoreError::InvalidConfig {
                field: "comparators",
                reason: "offset, hysteresis and noise sigma must be finite".into(),
            });
        }
        if comparators.iter().all(Comparator::is_ideal) {
            self.comparators = None;
            return Ok(self);
        }
        self.comparators = Some(BankComparators {
            offset: comparators.iter().map(Comparator::offset_v).collect(),
            half: comparators.iter().map(|c| c.hysteresis_v() / 2.0).collect(),
            sigma: comparators.iter().map(Comparator::noise_sigma_v).collect(),
            seed: comparators.iter().map(Comparator::noise_seed).collect(),
        });
        Ok(self)
    }

    /// Overrides the SIMD policy (default
    /// [`Auto`](SimdPolicy::Auto)) — for benches and equivalence tests;
    /// every policy is bit-identical.
    pub fn with_simd_policy(mut self, policy: SimdPolicy) -> Self {
        self.simd = policy;
        self.caps = SimdCaps::detect(policy);
        self
    }

    /// Overrides the cache-tiling policy (default
    /// [`TilePolicy::auto`]) — bit-identical for every policy.
    pub fn with_tiling(mut self, tiling: TilePolicy) -> Self {
        self.tiling = tiling;
        self
    }

    /// The shared configuration.
    pub fn config(&self) -> &DatcConfig {
        &self.config
    }

    /// The active SIMD policy.
    pub fn simd_policy(&self) -> SimdPolicy {
        self.simd
    }

    /// The active tiling policy.
    pub fn tiling(&self) -> TilePolicy {
        self.tiling
    }

    /// `true` when at least one channel runs a non-ideal comparator.
    pub fn has_nonideal_comparators(&self) -> bool {
        self.comparators.is_some()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.set_vth.len()
    }

    /// Ticks executed (per channel — channels advance in lock-step).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Frames completed.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Current threshold codes, one per channel.
    pub fn vth_codes(&self) -> &[u8] {
        &self.set_vth
    }

    /// Resets every channel to power-on state (comparator models keep
    /// their configuration; hysteresis state clears and noise lanes
    /// rewind, because noise is indexed by the tick counter).
    pub fn reset(&mut self) {
        let initial_volts = self.vth_lut[usize::from(self.config.initial_code)];
        self.in_reg.fill(false);
        self.d_prev.fill(false);
        self.counter.fill(0);
        self.n2.fill(0);
        self.n1.fill(0);
        self.set_vth.fill(self.config.initial_code);
        self.vth_volts.fill(initial_volts);
        self.tick_in_frame = 0;
        self.tick = 0;
        self.frames = 0;
    }

    /// Advances every channel by one system-clock tick; `frame[c]` is the
    /// instantaneous rectified input voltage of channel `c`.
    ///
    /// # Panics
    ///
    /// Panics when `frame.len()` differs from the channel count.
    #[inline]
    pub fn push_frame<S: BankSink>(&mut self, frame: &[f64], sink: &mut S) {
        assert_eq!(frame.len(), self.channels(), "one sample per channel");
        self.step_all(sink, |c| frame[c]);
    }

    /// Advances all channels over `data`, interpreted as consecutive
    /// channel-major frames (`data[k·N + c]` is tick `k`, channel `c`).
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not a multiple of the channel count.
    pub fn push_interleaved<S: BankSink>(&mut self, data: &[f64], sink: &mut S) -> u64 {
        let n = self.channels();
        assert_eq!(data.len() % n, 0, "interleaved data must be whole frames");
        for frame in data.chunks_exact(n) {
            self.step_all(sink, |c| frame[c]);
        }
        (data.len() / n) as u64
    }

    /// Advances all channels over planar (one slice per channel)
    /// clock-rate sample buffers, all of the same length.
    ///
    /// This is the SoA fast path: ticks are segmented at frame
    /// boundaries, and within a segment each channel runs a tight
    /// register-resident loop over its slice — the threshold voltage is
    /// a loop constant there (it can only change at `End_of_frame`), so
    /// the per-tick work is one compare and a few bit operations. Large
    /// banks additionally run channel tiles over bounded time segments
    /// per the [`TilePolicy`].
    ///
    /// # Panics
    ///
    /// Panics when the slice count differs from the channel count or the
    /// slices disagree on length.
    pub fn push_planar<S: BankSink>(&mut self, channels: &[&[f64]], sink: &mut S) -> u64 {
        let n = self.channels();
        assert_eq!(channels.len(), n, "one sample slice per channel");
        let len = channels.first().map_or(0, |c| c.len());
        assert!(
            channels.iter().all(|c| c.len() == len),
            "channel slices must share a length"
        );
        // 8 source bytes per channel per tick, read directly.
        let seg_cap = self.segment_ticks(8.0, len);
        self.drive_tiled(len, seg_cap, sink, |c, off, span| {
            SliceFeed(&channels[c][off..off + span])
        });
        len as u64
    }

    /// Drives the bank over whole per-channel [`Signal`]s of a common
    /// sample rate and length, zero-order-holding them onto the system
    /// clock exactly as
    /// [`DatcStream::push_signal`](crate::stream::DatcStream::push_signal)
    /// does. Returns the number of ticks executed.
    ///
    /// The ZOH index mapping is computed **once per segment** and shared
    /// by every channel; the per-channel sample gather is fused into the
    /// compare kernel (AVX2 `vgatherqpd` where available), so no
    /// intermediate resampled buffer is ever materialised.
    ///
    /// # Panics
    ///
    /// Panics when the signal count differs from the channel count or the
    /// signals disagree on rate/length.
    pub fn push_signals<S: BankSink>(&mut self, signals: &[Signal], sink: &mut S) -> u64 {
        let n = self.channels();
        assert_eq!(signals.len(), n, "one signal per channel");
        let Some(first) = signals.first() else {
            return 0;
        };
        let fs = first.sample_rate();
        let len = first.len();
        assert!(
            signals.iter().all(|s| s.sample_rate() == fs),
            "signals must share a sample rate"
        );
        assert!(
            signals.iter().all(|s| s.len() == len),
            "signals must share a length"
        );
        let zoh = ZohResampler::new(fs, self.config.clock_hz);
        let n_ticks = zoh.ticks_for_len(len);

        // Source bytes per channel per tick ≈ 8 · fs / clock (ZOH walks
        // the source monotonically), plus the shared index lane. The
        // segment index buffer is bounded even without a tile policy so
        // it stays cache-resident.
        let src_per_tick = 8.0 * (fs / self.config.clock_hz).max(1.0);
        let seg_cap = self
            .segment_ticks(src_per_tick, n_ticks as usize)
            .min((self.frame_len as usize).max(2048));
        let mut idx: Vec<i64> = Vec::with_capacity(seg_cap);
        let mut done = 0u64;
        while done < n_ticks {
            let seg = seg_cap.min((n_ticks - done) as usize);
            idx.clear();
            idx.extend((0..seg).map(|i| zoh.index(done + i as u64) as i64));
            debug_assert!(idx.iter().all(|&i| (i as usize) < len));
            self.drive_tiled(seg, seg, sink, |c, off, span| GatherFeed {
                samples: signals[c].samples(),
                idx: &idx[off..off + span],
            });
            done += seg as u64;
        }
        n_ticks
    }

    /// Ticks per segment so one tile's source working set stays within
    /// the tiling byte budget.
    fn segment_ticks(&self, src_bytes_per_tick: f64, total: usize) -> usize {
        if self.tiling.target_tile_bytes == usize::MAX {
            return total.max(1);
        }
        let tile_ch = self.tiling.max_tile_channels.min(self.channels()).max(1);
        let per_tick = src_bytes_per_tick * tile_ch as f64;
        let ticks = (self.tiling.target_tile_bytes as f64 / per_tick) as usize;
        ticks.max(self.frame_len as usize)
    }

    /// The tiled segment driver: for each time segment, each channel
    /// tile replays the segment's frame-bounded spans; shared lock-step
    /// counters commit once per segment. Traversal order is the only
    /// thing the policy changes — results are bit-identical.
    fn drive_tiled<'a, S: BankSink, F: SpanFeed, M: Fn(usize, usize, usize) -> F + 'a>(
        &mut self,
        total: usize,
        seg_cap: usize,
        sink: &mut S,
        make: M,
    ) {
        let n = self.channels();
        let tile_ch = self.tiling.max_tile_channels.min(n).max(1);
        let mut off = 0usize;
        while off < total {
            let seg = seg_cap.min(total - off);
            let (mut end_tick, mut end_tif, mut closed) = (self.tick, self.tick_in_frame, 0u64);
            let mut c0 = 0usize;
            while c0 < n {
                let c1 = (c0 + tile_ch).min(n);
                // Replay the segment's spans for this tile. The span
                // boundaries depend only on the shared frame countdown,
                // so every tile sees the identical split.
                let mut local = 0usize;
                let mut k0 = self.tick;
                let mut tif = self.tick_in_frame;
                closed = 0;
                while local < seg {
                    let remaining = (self.frame_len - tif) as usize;
                    let span = remaining.min(seg - local);
                    let closes_frame = span == remaining;
                    for c in c0..c1 {
                        let feed = make(c, off + local, span);
                        self.run_channel_span(c, k0, &feed, closes_frame, sink);
                    }
                    k0 += span as u64;
                    tif = if closes_frame { 0 } else { tif + span as u32 };
                    closed += u64::from(closes_frame);
                    local += span;
                }
                (end_tick, end_tif) = (k0, tif);
                c0 = c1;
            }
            self.tick = end_tick;
            self.tick_in_frame = end_tif;
            self.frames += closed;
            off += seg;
        }
    }

    /// One channel over one frame-bounded span of clock-rate samples.
    /// All mutable per-tick state lives in locals; the SoA arrays are
    /// read once on entry and written once on exit.
    #[inline]
    fn run_channel_span<S: BankSink, F: SpanFeed>(
        &mut self,
        c: usize,
        k0: u64,
        feed: &F,
        closes_frame: bool,
        sink: &mut S,
    ) {
        let vth = self.vth_volts[c];
        let code = self.set_vth[c];
        let comp = self.comparators.as_ref().and_then(|b| b.channel(c));
        let mut in_reg = self.in_reg[c];
        let mut d_prev = self.d_prev[c];
        let mut cnt = self.counter[c];
        let ones_before = cnt;

        let plain = feed.len() - usize::from(closes_frame);
        let mut k = k0;
        if S::EVERY_TICK {
            for j in 0..plain {
                let d = in_reg;
                in_reg = compare_one(feed.get(j), vth, in_reg, k, comp);
                cnt += u32::from(d);
                let event = d & !d_prev;
                d_prev = d;
                sink.on_tick(
                    c,
                    k,
                    &DtcStep {
                        d_out: d,
                        event,
                        sampled_code: code,
                        set_vth: code,
                        end_of_frame: false,
                    },
                );
                k += 1;
            }
        } else {
            // Bit-parallel quiet path: pack 64 comparator decisions into
            // one word, recover `D_out` (one-tick `In_reg` delay) and the
            // rising edges with shifts, count ones with popcount, and
            // touch the sink only where an event bit is set. No
            // data-dependent branch per tick.
            let caps = self.caps;
            let mut eff = [0.0f64; 64];
            let mut i = 0usize;
            while i < plain {
                let w = (plain - i).min(64);
                let cmp = match comp {
                    None => feed.pack(i, w, vth, caps),
                    Some(cc) => {
                        feed.load(i, &mut eff[..w]);
                        pack_nonideal(&mut eff[..w], vth, in_reg, k, cc, caps)
                    }
                };
                let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                let d = ((cmp << 1) | u64::from(in_reg)) & mask;
                let prev = (d << 1) | u64::from(d_prev);
                cnt += d.count_ones();
                let mut rising = d & !prev;
                while rising != 0 {
                    let j = rising.trailing_zeros();
                    sink.on_event(c, k + u64::from(j), code);
                    rising &= rising - 1;
                }
                in_reg = (cmp >> (w - 1)) & 1 == 1;
                d_prev = (d >> (w - 1)) & 1 == 1;
                i += w;
                k += w as u64;
            }
        }

        if closes_frame {
            let d = in_reg;
            in_reg = compare_one(feed.get(plain), vth, in_reg, k, comp);
            cnt += u32::from(d);
            let event = d & !d_prev;
            d_prev = d;
            let ones_total = cnt;
            let new_code = self.decide_code(cnt, self.n2[c], self.n1[c]);
            // History shift of Listing 1.
            self.n1[c] = self.n2[c];
            self.n2[c] = cnt;
            cnt = 0;
            self.set_vth[c] = new_code;
            self.vth_volts[c] = self.vth_lut[usize::from(new_code)];
            if S::EVERY_TICK {
                sink.on_tick(
                    c,
                    k,
                    &DtcStep {
                        d_out: d,
                        event,
                        sampled_code: code,
                        set_vth: new_code,
                        end_of_frame: true,
                    },
                );
            } else {
                if event {
                    sink.on_event(c, k, code);
                }
                sink.on_frame(c, k, new_code);
                sink.on_span(c, feed.len() as u64, u64::from(ones_total - ones_before));
            }
        } else if !S::EVERY_TICK {
            sink.on_span(c, feed.len() as u64, u64::from(cnt - ones_before));
        }

        self.in_reg[c] = in_reg;
        self.d_prev[c] = d_prev;
        self.counter[c] = cnt;
    }

    /// The frame-boundary threshold decision (Listing 1) for one
    /// channel's history.
    #[inline]
    fn decide_code(&self, n3: u32, n2: u32, n1: u32) -> u8 {
        match self.config.arithmetic {
            Arithmetic::Fixed => predict_code_fixed(
                avr_scaled(n3, n2, n1, self.weights_q),
                &self.table,
                self.max_code,
            ),
            Arithmetic::Float => predict_code_float(
                avr_float(n3, n2, n1, self.config.weights),
                &self.table,
                self.max_code,
            ),
        }
    }

    /// One lock-step tick across every channel. `input(c)` yields
    /// channel `c`'s comparator input voltage.
    #[inline]
    fn step_all<S: BankSink, F: Fn(usize) -> f64>(&mut self, sink: &mut S, input: F) {
        self.tick_in_frame += 1;
        let end_of_frame = self.tick_in_frame == self.frame_len;
        let k = self.tick;
        self.tick += 1;

        for c in 0..self.set_vth.len() {
            let x = input(c);
            // In_reg: the synchronous core sees last cycle's bit; the
            // comparator decision is the model's (ideal: strict
            // threshold on the LUT voltage).
            let d = self.in_reg[c];
            let comp = self.comparators.as_ref().and_then(|b| b.channel(c));
            self.in_reg[c] = compare_one(x, self.vth_volts[c], d, k, comp);
            let sampled_code = self.set_vth[c];
            let cnt = self.counter[c] + u32::from(d);
            self.counter[c] = cnt;

            if end_of_frame {
                let n3 = cnt;
                let code = self.decide_code(n3, self.n2[c], self.n1[c]);
                self.set_vth[c] = code;
                self.vth_volts[c] = self.vth_lut[usize::from(code)];
                // History shift of Listing 1.
                self.n1[c] = self.n2[c];
                self.n2[c] = n3;
                self.counter[c] = 0;
            }

            let event = d && !self.d_prev[c];
            self.d_prev[c] = d;

            sink.on_tick(
                c,
                k,
                &DtcStep {
                    d_out: d,
                    event,
                    sampled_code,
                    set_vth: self.set_vth[c],
                    end_of_frame,
                },
            );
        }

        if end_of_frame {
            self.tick_in_frame = 0;
            self.frames += 1;
        }
    }
}

/// One comparator decision, replicating
/// [`Comparator::compare`] expression for expression
/// (`state` is the last raw decision — which the bank stores in
/// `In_reg`; noise is drawn at lane position `k`, the absolute tick).
#[inline]
fn compare_one(x: f64, vth: f64, state: bool, k: u64, comp: Option<ChannelComp>) -> bool {
    match comp {
        None => x > vth,
        Some(cc) => {
            let noise = if cc.sigma > 0.0 {
                cc.sigma * gaussian_at(cc.seed, k)
            } else {
                0.0
            };
            let eff = x + cc.offset + noise;
            let threshold = if state { vth - cc.half } else { vth + cc.half };
            eff > threshold
        }
    }
}

/// Packs one block of ≤ 64 non-ideal comparator decisions. `block`
/// holds the raw samples on entry (they are rewritten in place into the
/// effective inputs `x + offset + noise`); the block's first tick is
/// absolute tick `k`, and `state` carries the hysteresis state in.
///
/// The two hysteresis thresholds become two packed compares, and the
/// sequential state recurrence `d_j = hi_j | (lo_j & d_{j-1})`
/// collapses into the carry chain of a single 64-bit add (see
/// [`hyst_resolve`]).
#[inline]
fn pack_nonideal(
    block: &mut [f64],
    vth: f64,
    state: bool,
    k: u64,
    cc: ChannelComp,
    caps: SimdCaps,
) -> u64 {
    let w = block.len();
    if cc.sigma > 0.0 {
        for (j, e) in block.iter_mut().enumerate() {
            let noise = cc.sigma * gaussian_at(cc.seed, k + j as u64);
            *e = *e + cc.offset + noise;
        }
    } else {
        for e in block.iter_mut() {
            *e = *e + cc.offset + 0.0;
        }
    }
    // `vth + half` with half = 0 is bit-comparable to `vth - half`, so
    // the hysteresis-free case needs only the one packed compare.
    let hi = pack_block(block, vth + cc.half, caps);
    if cc.half > 0.0 {
        let lo = pack_block(block, vth - cc.half, caps);
        hyst_resolve(hi, lo, state, w)
    } else {
        hi
    }
}

/// Resolves the hysteresis recurrence `d_j = hi_j | (lo_j & d_{j-1})`
/// (with `d_{-1}` = `carry_in`) for a whole word in O(1).
///
/// With `g = hi` (generate) and `p = lo` (propagate) — and `hi ⊆ lo`,
/// which holds because `vth + h/2 ≥ vth − h/2` — the recurrence is
/// exactly the carry chain of the addition `g + p + carry_in`:
/// `c_{j+1} = maj(g_j, p_j, c_j) = g_j | (p_j & c_j)`. One 64-bit add
/// recovers all 64 sequential decisions.
#[inline]
fn hyst_resolve(hi: u64, lo: u64, carry_in: bool, w: usize) -> u64 {
    debug_assert_eq!(hi & !lo, 0, "generate must imply propagate");
    let total = hi as u128 + lo as u128 + u128::from(carry_in);
    let sum = total as u64;
    // bit j of `carries` = carry INTO bit j = d_{j-1}
    let carries = sum ^ hi ^ lo;
    let carry_out = (total >> 64) as u64;
    let d = (carries >> 1) | (carry_out << 63);
    if w == 64 {
        d
    } else {
        d & ((1u64 << w) - 1)
    }
}

/// Packs `vals.len() ≤ 64` strict comparator decisions
/// (`vals[j] > vth`, bit `j` = tick `j`) into one word.
#[inline]
fn pack_block(vals: &[f64], vth: f64, caps: SimdCaps) -> u64 {
    debug_assert!(vals.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if caps.avx {
        if let Ok(chunk) = <&[f64; 64]>::try_from(vals) {
            // SAFETY: AVX support confirmed at runtime by `SimdCaps`.
            return unsafe { pack64_avx(chunk, vth) };
        }
    }
    let _ = caps;
    let mut cmp = 0u64;
    for (j, &x) in vals.iter().enumerate() {
        cmp |= u64::from(x > vth) << j;
    }
    cmp
}

/// AVX word-pack: 4-wide ordered-quiet greater-than compares folded into
/// a bitmask through `movmskpd`. `_CMP_GT_OQ` matches Rust's `>` exactly
/// (strict, `false` against NaN), so this is bit-identical to the scalar
/// path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn pack64_avx(chunk: &[f64; 64], vth: f64) -> u64 {
    use std::arch::x86_64::{_mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_set1_pd};
    const GT_OQ: i32 = 0x1e; // _CMP_GT_OQ
    let t = _mm256_set1_pd(vth);
    let mut cmp = 0u64;
    let mut j = 0;
    while j < 64 {
        // SAFETY: `j + 4 <= 64`, so the load stays inside `chunk`.
        let v = _mm256_loadu_pd(chunk.as_ptr().add(j));
        let m = _mm256_cmp_pd::<GT_OQ>(v, t);
        cmp |= (_mm256_movemask_pd(m) as u64) << j;
        j += 4;
    }
    cmp
}

/// AVX2 fused gather + compare: 64 ZOH indices resolved through
/// `vgatherqpd` straight into `cmp_pd` + `movmskpd` bitmask lanes — the
/// samples never round-trip through a scratch buffer. Bit-identical to
/// the scalar gather (`_CMP_GT_OQ` = strict `>`, `false` against NaN).
///
/// # Safety
///
/// Caller must have verified AVX2 support and that every index in
/// `idx[..64]` is in bounds for `samples`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack64_gather_avx2(samples: *const f64, idx: &[i64], vth: f64) -> u64 {
    use std::arch::x86_64::{
        __m256i, _mm256_cmp_pd, _mm256_i64gather_pd, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_set1_pd,
    };
    const GT_OQ: i32 = 0x1e; // _CMP_GT_OQ
    debug_assert!(idx.len() >= 64);
    let t = _mm256_set1_pd(vth);
    let mut cmp = 0u64;
    let mut j = 0;
    while j < 64 {
        // SAFETY: `j + 4 <= 64 <= idx.len()`; indices validated by the
        // caller against the sample buffer.
        let vi = _mm256_loadu_si256(idx.as_ptr().add(j) as *const __m256i);
        let v = _mm256_i64gather_pd::<8>(samples, vi);
        let m = _mm256_cmp_pd::<GT_OQ>(v, t);
        cmp |= (_mm256_movemask_pd(m) as u64) << j;
        j += 4;
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameSize;

    use crate::stream::DatcStream;

    /// Reference: drive N independent single-channel streams and record
    /// every DtcStep.
    fn reference_steps(config: DatcConfig, per_channel: &[Vec<f64>]) -> Vec<Vec<DtcStep>> {
        struct Rec(Vec<DtcStep>);
        impl TickSink for Rec {
            fn on_tick(&mut self, _tick: u64, step: &DtcStep) {
                self.0.push(*step);
            }
        }
        per_channel
            .iter()
            .map(|samples| {
                let mut s = DatcStream::new(config).unwrap();
                let mut rec = Rec(Vec::new());
                s.push_chunk(samples, &mut rec);
                rec.0
            })
            .collect()
    }

    struct BankRec {
        steps: Vec<Vec<DtcStep>>,
    }
    impl BankSink for BankRec {
        fn on_tick(&mut self, channel: usize, _tick: u64, step: &DtcStep) {
            self.steps[channel].push(*step);
        }
    }

    fn test_inputs(channels: usize, ticks: usize) -> Vec<Vec<f64>> {
        (0..channels)
            .map(|c| {
                (0..ticks)
                    .map(|k| {
                        let t = k as f64 * 0.07 + c as f64;
                        (0.2 + 0.15 * c as f64) * (t.sin() * (t * 0.31).cos()).abs()
                    })
                    .collect()
            })
            .collect()
    }

    /// A mixed bag of non-ideal comparators: offset-only, hysteresis,
    /// noise, everything, and one ideal straggler.
    fn test_comparators(channels: usize) -> Vec<Comparator> {
        (0..channels)
            .map(|c| match c % 5 {
                0 => Comparator::ideal().with_offset(0.013),
                1 => Comparator::ideal().with_hysteresis(0.05),
                2 => Comparator::ideal().with_noise(0.02, 11 + c as u64),
                3 => Comparator::ideal()
                    .with_offset(-0.008)
                    .with_hysteresis(0.03)
                    .with_noise(0.015, 77 + c as u64),
                _ => Comparator::ideal(),
            })
            .collect()
    }

    #[test]
    fn bank_is_bit_exact_with_independent_streams() {
        for (frame, arith) in [
            (FrameSize::F100, Arithmetic::Fixed),
            (FrameSize::F200, Arithmetic::Float),
            (FrameSize::F400, Arithmetic::Fixed),
        ] {
            let config = DatcConfig::paper()
                .with_frame_size(frame)
                .with_arithmetic(arith);
            let inputs = test_inputs(5, 3000);
            let expected = reference_steps(config, &inputs);

            let mut bank = BankStream::new(config, 5).unwrap();
            let mut rec = BankRec {
                steps: vec![Vec::new(); 5],
            };
            // uneven frame-boundary chunking must not matter
            let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
            bank.push_planar(&planar, &mut rec);

            assert_eq!(rec.steps, expected, "frame {frame:?} arith {arith:?}");
        }
    }

    #[test]
    fn nonideal_bank_is_bit_exact_with_independent_streams() {
        let config = DatcConfig::paper();
        let inputs = test_inputs(5, 2700);
        let comps = test_comparators(5);
        // reference: N solo streams carrying the same comparator configs
        struct Rec(Vec<DtcStep>);
        impl TickSink for Rec {
            fn on_tick(&mut self, _tick: u64, step: &DtcStep) {
                self.0.push(*step);
            }
        }
        let expected: Vec<Vec<DtcStep>> = inputs
            .iter()
            .zip(&comps)
            .map(|(samples, comp)| {
                let mut s = DatcStream::new(config)
                    .unwrap()
                    .with_comparator(comp.clone());
                let mut rec = Rec(Vec::new());
                s.push_chunk(samples, &mut rec);
                rec.0
            })
            .collect();

        let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            // every-tick delivery
            let mut bank = BankStream::new(config, 5)
                .unwrap()
                .with_comparators(&comps)
                .unwrap()
                .with_simd_policy(simd);
            assert!(bank.has_nonideal_comparators());
            let mut rec = BankRec {
                steps: vec![Vec::new(); 5],
            };
            bank.push_planar(&planar, &mut rec);
            assert_eq!(rec.steps, expected, "every-tick, {simd:?}");

            // sparse delivery: same events, codes and duty counters
            let mut bank = BankStream::new(config, 5)
                .unwrap()
                .with_comparators(&comps)
                .unwrap()
                .with_simd_policy(simd);
            let mut sink = BankEventSink::new(5);
            bank.push_planar(&planar, &mut sink);
            for (c, steps) in expected.iter().enumerate() {
                let solo_events: Vec<(u64, u8)> = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.event)
                    .map(|(k, s)| (k as u64, s.sampled_code))
                    .collect();
                let bank_events: Vec<(u64, u8)> = sink
                    .events(c)
                    .iter()
                    .map(|e| (e.tick, e.vth_code.unwrap()))
                    .collect();
                assert_eq!(bank_events, solo_events, "sparse events ch {c}, {simd:?}");
                let solo_ones: u64 = steps.iter().map(|s| u64::from(s.d_out)).sum();
                assert_eq!(sink.ones()[c], solo_ones, "sparse ones ch {c}, {simd:?}");
            }
        }
    }

    #[test]
    fn all_ideal_comparator_slice_keeps_the_ideal_kernel() {
        let bank = BankStream::new(DatcConfig::paper(), 3)
            .unwrap()
            .with_comparators(&vec![Comparator::ideal(); 3])
            .unwrap();
        assert!(!bank.has_nonideal_comparators());
        let err = BankStream::new(DatcConfig::paper(), 3)
            .unwrap()
            .with_comparators(&vec![Comparator::ideal(); 2]);
        assert!(err.is_err(), "length mismatch rejected");
        for bad in [
            Comparator::ideal().with_offset(f64::NAN),
            Comparator::ideal().with_hysteresis(f64::INFINITY),
            Comparator::ideal().with_noise(f64::INFINITY, 1),
        ] {
            let err = BankStream::new(DatcConfig::paper(), 1)
                .unwrap()
                .with_comparators(std::slice::from_ref(&bad));
            assert!(err.is_err(), "non-finite parameter rejected: {bad:?}");
        }
    }

    #[test]
    fn tiling_policies_are_bit_identical() {
        let config = DatcConfig::paper();
        let inputs = test_inputs(40, 2300);
        let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let reference = {
            let mut bank = BankStream::new(config, 40)
                .unwrap()
                .with_tiling(TilePolicy::none());
            let mut sink = BankEventSink::new(40);
            bank.push_planar(&planar, &mut sink);
            (bank.ticks(), bank.frames(), sink.into_parts())
        };
        for tiling in [
            TilePolicy::auto(),
            TilePolicy {
                max_tile_channels: 3,
                target_tile_bytes: 4096,
            },
            TilePolicy {
                max_tile_channels: 64,
                target_tile_bytes: 1 << 20,
            },
        ] {
            let mut bank = BankStream::new(config, 40).unwrap().with_tiling(tiling);
            let mut sink = BankEventSink::new(40);
            bank.push_planar(&planar, &mut sink);
            assert_eq!(
                (bank.ticks(), bank.frames(), sink.into_parts()),
                reference,
                "{tiling:?}"
            );
        }
    }

    #[test]
    fn hyst_resolve_matches_the_sequential_recurrence() {
        let mut lo = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            // xorshift-scramble a propagate word, carve a generate subset
            lo ^= lo << 13;
            lo ^= lo >> 7;
            lo ^= lo << 17;
            let hi = lo & lo.rotate_left(11) & lo.rotate_right(5);
            for carry in [false, true] {
                for w in [1usize, 3, 63, 64] {
                    let fast = hyst_resolve(hi, lo, carry, w);
                    let mut state = carry;
                    let mut slow = 0u64;
                    for j in 0..w {
                        state = (hi >> j) & 1 == 1 || ((lo >> j) & 1 == 1 && state);
                        slow |= u64::from(state) << j;
                    }
                    assert_eq!(fast, slow, "hi {hi:#x} lo {lo:#x} carry {carry} w {w}");
                }
            }
        }
    }

    #[test]
    fn interleaved_and_planar_drives_agree() {
        let config = DatcConfig::paper();
        let inputs = test_inputs(3, 1700);
        let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();

        let mut a = BankStream::new(config, 3).unwrap();
        let mut ra = BankRec {
            steps: vec![Vec::new(); 3],
        };
        a.push_planar(&planar, &mut ra);

        let mut interleaved = Vec::with_capacity(3 * 1700);
        for k in 0..1700 {
            for ch in &inputs {
                interleaved.push(ch[k]);
            }
        }
        let mut b = BankStream::new(config, 3).unwrap();
        let mut rb = BankRec {
            steps: vec![Vec::new(); 3],
        };
        // split at an awkward frame boundary
        let (lo, hi) = interleaved.split_at(3 * 601);
        b.push_interleaved(lo, &mut rb);
        b.push_interleaved(hi, &mut rb);

        assert_eq!(ra.steps, rb.steps);
        assert_eq!(a.ticks(), b.ticks());
        assert_eq!(a.vth_codes(), b.vth_codes());
    }

    #[test]
    fn push_signals_matches_per_channel_push_signal() {
        use crate::encoder::EventSink;
        let config = DatcConfig::paper();
        let signals: Vec<Signal> = (0..4)
            .map(|c| {
                Signal::from_fn(2500.0, 3.0, |t| {
                    ((t * (40.0 + c as f64 * 13.0)).sin() * (t * 3.0).cos()).abs() * 0.5
                })
            })
            .collect();

        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            let mut bank = BankStream::new(config, 4).unwrap().with_simd_policy(simd);
            let mut sink = BankEventSink::new(4);
            let n_ticks = bank.push_signals(&signals, &mut sink);
            assert_eq!(n_ticks, bank.ticks());

            for (c, s) in signals.iter().enumerate() {
                let mut solo = DatcStream::new(config).unwrap();
                let mut es = EventSink::new(config.clock_hz);
                let solo_ticks = solo.push_signal(s, &mut es);
                assert_eq!(solo_ticks, n_ticks);
                assert_eq!(sink.events(c), es.events(), "channel {c} {simd:?}");
            }
        }
    }

    #[test]
    fn fused_gather_and_scalar_gather_agree_with_nonideal_comparators() {
        use crate::encoder::EventSink;
        let config = DatcConfig::paper();
        let comps = test_comparators(6);
        let signals: Vec<Signal> = (0..6)
            .map(|c| {
                Signal::from_fn(2500.0, 2.0, |t| {
                    ((t * (35.0 + c as f64 * 11.0)).sin() * (t * 2.1).cos()).abs() * 0.45
                })
            })
            .collect();

        let mut outputs = Vec::new();
        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            let mut bank = BankStream::new(config, 6)
                .unwrap()
                .with_comparators(&comps)
                .unwrap()
                .with_simd_policy(simd);
            let mut sink = BankEventSink::new(6);
            bank.push_signals(&signals, &mut sink);
            outputs.push(sink.into_parts());
        }
        assert_eq!(outputs[0], outputs[1], "fused vs scalar gather");

        // and both match the solo streams
        for (c, s) in signals.iter().enumerate() {
            let mut solo = DatcStream::new(config)
                .unwrap()
                .with_comparator(comps[c].clone());
            let mut es = EventSink::new(config.clock_hz);
            solo.push_signal(s, &mut es);
            assert_eq!(outputs[0].0[c], es.events(), "channel {c}");
        }
    }

    #[test]
    fn counting_sink_counts_every_channel() {
        let config = DatcConfig::paper();
        let inputs = test_inputs(2, 1000);
        let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let mut bank = BankStream::new(config, 2).unwrap();
        let mut sink = BankCountingSink::new(2);
        bank.push_planar(&planar, &mut sink);
        for c in 0..2 {
            assert_eq!(sink.channel(c).ticks, 1000);
            assert_eq!(sink.channel(c).frames, 10);
        }
        assert_eq!(bank.frames(), 10);
    }

    #[test]
    fn reset_restores_power_on_state() {
        let config = DatcConfig::paper();
        let mut bank = BankStream::new(config, 3).unwrap();
        let mut sink = BankCountingSink::new(3);
        let inputs = test_inputs(3, 900);
        let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        bank.push_planar(&planar, &mut sink);
        assert!(bank.ticks() == 900);
        bank.reset();
        assert_eq!(bank.ticks(), 0);
        assert_eq!(bank.frames(), 0);
        assert!(bank.vth_codes().iter().all(|&c| c == config.initial_code));
    }

    #[test]
    fn reset_replays_noisy_banks_identically() {
        let config = DatcConfig::paper();
        let comps = test_comparators(4);
        let inputs = test_inputs(4, 1100);
        let planar: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
        let mut bank = BankStream::new(config, 4)
            .unwrap()
            .with_comparators(&comps)
            .unwrap();
        let mut first = BankEventSink::new(4);
        bank.push_planar(&planar, &mut first);
        bank.reset();
        let mut again = BankEventSink::new(4);
        bank.push_planar(&planar, &mut again);
        assert_eq!(first.into_parts(), again.into_parts());
    }

    #[test]
    fn zero_channels_rejected() {
        assert!(BankStream::new(DatcConfig::paper(), 0).is_err());
    }

    #[test]
    fn simd_and_scalar_word_packing_agree() {
        let mut chunk = [0.0f64; 64];
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = ((j as f64 * 0.37).sin() * 0.6).abs();
        }
        // exercise equality, boundaries and extremes
        chunk[7] = 0.5;
        chunk[8] = f64::INFINITY;
        chunk[9] = 0.0;
        chunk[10] = f64::NAN;
        let scalar_caps = SimdCaps {
            avx: false,
            avx2: false,
        };
        let auto_caps = SimdCaps::detect(SimdPolicy::Auto);
        for vth in [0.0, 0.062_5, 0.5, 0.937_5] {
            for w in [64usize, 63, 17, 1] {
                let scalar = pack_block(&chunk[..w], vth, scalar_caps);
                let dispatched = pack_block(&chunk[..w], vth, auto_caps);
                assert_eq!(scalar, dispatched, "vth {vth} w {w}");
            }
        }
        // fused gather against scalar gather on a strided index pattern
        let samples: Vec<f64> = (0..512).map(|i| ((i as f64) * 0.11).sin().abs()).collect();
        let idx: Vec<i64> = (0..64).map(|j| (j * 7 + 3) % 512).collect();
        let feed = GatherFeed {
            samples: &samples,
            idx: &idx,
        };
        for vth in [0.1, 0.5, 0.9] {
            assert_eq!(
                feed.pack(0, 64, vth, scalar_caps),
                feed.pack(0, 64, vth, auto_caps),
                "gather vth {vth}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one sample per channel")]
    fn frame_length_mismatch_panics() {
        let mut bank = BankStream::new(DatcConfig::paper(), 3).unwrap();
        let mut sink = BankCountingSink::new(3);
        bank.push_frame(&[0.0, 0.0], &mut sink);
    }
}
