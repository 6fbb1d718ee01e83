//! Streaming (online) counterparts of the batch receivers.
//!
//! The batch reconstructors in [`crate::reconstruct`] and the rate
//! estimators in [`crate::windowing`] need the whole [`EventStream`]
//! before they produce a single sample. A telemetry receiver decoding a
//! live wire cannot wait 20 seconds: it gets events one at a time and
//! must emit force samples with bounded latency. This module provides
//! that: an [`OnlineReconstructor`] trait plus streaming versions of the
//! sliding-window rate estimator and the EWMA estimator, **bit-exact**
//! with their batch counterparts when fed the same events in the same
//! order.
//!
//! ## The watermark contract
//!
//! Output samples live on the grid `t_k = k / output_fs`. Sample `k` can
//! only be emitted once the receiver knows no future event will carry a
//! timestamp `<= t_k`; events alone cannot prove that (silence is
//! ambiguous), so progress is driven by [`advance_to`]: the caller
//! declares a *watermark* — a lower bound on every future event time —
//! and all samples with `t_k` strictly below it are emitted. A decoder
//! naturally advances the watermark to the timestamp of each decoded
//! event (events arrive in time order), so emission lags the newest
//! event by less than one output period plus the inter-event gap.
//!
//! [`advance_to`]: OnlineReconstructor::advance_to
//!
//! ## Equivalence
//!
//! On a lossless, in-order feed closed with
//! [`finish`](OnlineReconstructor::finish), the emitted samples are
//! bit-identical to [`sliding_rate`](crate::windowing::sliding_rate) /
//! [`ewma_rate`](crate::windowing::ewma_rate) over the same stream: the
//! implementations perform the same comparisons and the same floating
//! point operations in the same order (unit-tested here, property-tested
//! at the workspace level).

use crate::reconstruct::{RateReconstructor, ThresholdTrackReconstructor};
use datc_core::dac::Dac;
use datc_core::event::EventStream;
use datc_signal::filter::{Filter, MovingAverage};
use std::collections::VecDeque;

/// A force reconstructor that accepts events incrementally and emits
/// output samples as soon as they are determined.
///
/// Lifecycle: [`push_event`](OnlineReconstructor::push_event) /
/// [`advance_to`](OnlineReconstructor::advance_to) interleaved freely,
/// then one [`finish`](OnlineReconstructor::finish); emitted samples are
/// collected with [`drain_into`](OnlineReconstructor::drain_into) at any
/// point.
///
/// # Example
///
/// ```
/// use datc_rx::online::{OnlineRateReconstructor, OnlineReconstructor};
///
/// let mut rx = OnlineRateReconstructor::new(0.25, 100.0);
/// for k in 0..50 {
///     let t = k as f64 * 0.02; // a steady 50 ev/s
///     rx.push_event(t);
///     rx.advance_to(t);
/// }
/// rx.finish(1.0);
/// let mut force = Vec::new();
/// rx.drain_into(&mut force);
/// assert_eq!(force.len(), 100); // 1 s at 100 Hz
/// assert!((force[99] - 48.0).abs() < 8.0);
/// ```
pub trait OnlineReconstructor {
    /// The output sample rate (Hz) this reconstructor emits at.
    fn output_fs(&self) -> f64;

    /// Feeds one event timestamp (seconds). Feed order defines the
    /// estimate, exactly as element order does for the batch versions.
    fn push_event(&mut self, time_s: f64);

    /// Feeds one event with its D-ATC threshold code. Estimators that
    /// only use event timing (rate, EWMA) ignore the code — the default
    /// forwards to [`push_event`](OnlineReconstructor::push_event);
    /// code-aware estimators (threshold-track, hybrid) override it.
    fn push_coded(&mut self, time_s: f64, vth_code: Option<u8>) {
        let _ = vth_code;
        self.push_event(time_s);
    }

    /// Declares that every future event will have `time > watermark_s`,
    /// releasing all samples on the output grid strictly below the
    /// watermark.
    fn advance_to(&mut self, watermark_s: f64);

    /// Closes the observation window at `duration_s` and emits every
    /// remaining sample (the batch versions emit
    /// `floor(duration_s * output_fs)` samples in total).
    fn finish(&mut self, duration_s: f64);

    /// Moves all samples emitted so far into `out` (appending), clearing
    /// the internal buffer.
    fn drain_into(&mut self, out: &mut Vec<f64>);

    /// Total samples emitted over the reconstructor's lifetime.
    fn emitted(&self) -> usize;

    /// Convenience: runs a whole [`EventStream`] through the streaming
    /// path and returns the full trace — by construction identical to
    /// the batch reconstruction of the same stream.
    fn run_batch(&mut self, events: &EventStream) -> Vec<f64> {
        for e in events {
            self.push_coded(events.time_of(e), e.vth_code);
        }
        self.finish(events.duration_s());
        let mut out = Vec::with_capacity(self.emitted());
        self.drain_into(&mut out);
        out
    }
}

/// Shared output-grid bookkeeping: next sample index, the hard cap set
/// once the observation window closes, and the emission buffer.
#[derive(Debug, Clone)]
struct OutputClock {
    fs: f64,
    next_k: usize,
    /// `floor(duration * fs)` once known; `usize::MAX` while streaming.
    limit: usize,
    emitted: Vec<f64>,
    total: usize,
}

impl OutputClock {
    fn new(fs: f64) -> Self {
        assert!(fs > 0.0, "output rate must be positive");
        OutputClock {
            fs,
            next_k: 0,
            limit: usize::MAX,
            emitted: Vec::new(),
            total: 0,
        }
    }

    /// The timestamp of the next undetermined sample, or `None` past the
    /// duration cap.
    fn next_t(&self) -> Option<f64> {
        (self.next_k < self.limit).then(|| self.next_k as f64 / self.fs)
    }

    fn emit(&mut self, v: f64) {
        self.emitted.push(v);
        self.next_k += 1;
        self.total += 1;
    }

    fn close(&mut self, duration_s: f64) {
        let n_out = (duration_s * self.fs).floor().max(0.0) as usize;
        self.limit = self.limit.min(n_out);
    }

    /// `true` once every sample this clock will ever emit is out —
    /// queued events can no longer influence anything.
    fn exhausted(&self) -> bool {
        self.next_k >= self.limit
    }
}

/// Streaming sliding-window event rate — the online
/// [`RateReconstructor`] / [`sliding_rate`](crate::windowing::sliding_rate).
///
/// Keeps the events of the current window in a deque (`O(window ·
/// rate)` memory); every sample costs amortised `O(1)`.
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::online::{OnlineRateReconstructor, OnlineReconstructor};
/// use datc_rx::windowing::sliding_rate;
///
/// let ev: Vec<Event> = (0..40)
///     .map(|i| Event { tick: i * 25, vth_code: None })
///     .collect();
/// let stream = EventStream::new(ev, 1000.0, 1.0);
/// let batch = sliding_rate(&stream, 0.25, 100.0);
/// let online = OnlineRateReconstructor::new(0.25, 100.0).run_batch(&stream);
/// assert_eq!(online, batch.samples()); // bit-exact
/// ```
#[derive(Debug, Clone)]
pub struct OnlineRateReconstructor {
    window_s: f64,
    clock: OutputClock,
    /// Events pushed but not yet at/inside any emitted window.
    incoming: VecDeque<f64>,
    /// Events inside the current window (`(t - window, t]`).
    in_window: VecDeque<f64>,
}

impl OnlineRateReconstructor {
    /// Creates a streaming rate estimator over `window_s`-second windows,
    /// emitting at `output_fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics when the window or the output rate is not positive.
    pub fn new(window_s: f64, output_fs: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        OnlineRateReconstructor {
            window_s,
            clock: OutputClock::new(output_fs),
            incoming: VecDeque::new(),
            in_window: VecDeque::new(),
        }
    }

    /// Caps the output at `floor(duration_s * output_fs)` samples up
    /// front (e.g. from a session header), so a watermark running past
    /// the observation window cannot overshoot the batch trace.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.cap_duration(duration_s);
        self
    }

    /// In-place form of
    /// [`with_duration`](OnlineRateReconstructor::with_duration).
    pub fn cap_duration(&mut self, duration_s: f64) {
        self.clock.close(duration_s);
    }

    /// The sliding-window length in seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Emits every sample with `t_k` strictly below `up_to`, or all
    /// remaining samples when `up_to` is `None`.
    fn run(&mut self, up_to: Option<f64>) {
        while let Some(t) = self.clock.next_t() {
            if let Some(limit) = up_to {
                if t >= limit {
                    break;
                }
            }
            // Same comparisons as the batch two-pointer sweep.
            while let Some(&front) = self.incoming.front() {
                if front <= t {
                    self.in_window.push_back(front);
                    self.incoming.pop_front();
                } else {
                    break;
                }
            }
            while let Some(&front) = self.in_window.front() {
                if front <= t - self.window_s {
                    self.in_window.pop_front();
                } else {
                    break;
                }
            }
            self.clock.emit(self.in_window.len() as f64 / self.window_s);
        }
        // Past the duration cap no event can reach an output sample;
        // dropping them keeps a capped reconstructor fed by a
        // misbehaving sender in bounded memory.
        if self.clock.exhausted() {
            self.incoming.clear();
            self.in_window.clear();
        }
    }
}

impl From<&RateReconstructor> for OnlineRateReconstructor {
    /// Builds the streaming counterpart of a batch [`RateReconstructor`]
    /// at 100 Hz output (the experiments' default grid).
    fn from(batch: &RateReconstructor) -> Self {
        OnlineRateReconstructor::new(batch.window_s(), 100.0)
    }
}

impl OnlineReconstructor for OnlineRateReconstructor {
    fn output_fs(&self) -> f64 {
        self.clock.fs
    }

    fn push_event(&mut self, time_s: f64) {
        self.incoming.push_back(time_s);
    }

    fn advance_to(&mut self, watermark_s: f64) {
        self.run(Some(watermark_s));
    }

    fn finish(&mut self, duration_s: f64) {
        self.clock.close(duration_s);
        self.run(None);
    }

    fn drain_into(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.clock.emitted);
    }

    fn emitted(&self) -> usize {
        self.clock.total
    }
}

/// Streaming exponentially-weighted event-rate estimate — the online
/// [`ewma_rate`](crate::windowing::ewma_rate). `O(1)` state beyond the
/// not-yet-absorbed event queue.
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::online::{OnlineEwmaReconstructor, OnlineReconstructor};
/// use datc_rx::windowing::ewma_rate;
///
/// let ev: Vec<Event> = (0..80)
///     .map(|i| Event { tick: i * 25, vth_code: None })
///     .collect();
/// let stream = EventStream::new(ev, 2000.0, 1.0);
/// let batch = ewma_rate(&stream, 0.2, 200.0);
/// let online = OnlineEwmaReconstructor::new(0.2, 200.0).run_batch(&stream);
/// assert_eq!(online, batch.samples()); // bit-exact
/// ```
#[derive(Debug, Clone)]
pub struct OnlineEwmaReconstructor {
    tau_s: f64,
    alpha: f64,
    level: f64,
    clock: OutputClock,
    incoming: VecDeque<f64>,
}

impl OnlineEwmaReconstructor {
    /// Creates a streaming EWMA estimator with time constant `tau_s`,
    /// emitting at `output_fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics when the time constant or the output rate is not positive.
    pub fn new(tau_s: f64, output_fs: f64) -> Self {
        assert!(tau_s > 0.0, "time constant must be positive");
        let dt = 1.0 / output_fs;
        OnlineEwmaReconstructor {
            tau_s,
            alpha: (-dt / tau_s).exp(),
            level: 0.0,
            clock: OutputClock::new(output_fs),
            incoming: VecDeque::new(),
        }
    }

    /// Caps the output at `floor(duration_s * output_fs)` samples up
    /// front — see
    /// [`OnlineRateReconstructor::with_duration`].
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.cap_duration(duration_s);
        self
    }

    /// In-place form of
    /// [`with_duration`](OnlineEwmaReconstructor::with_duration).
    pub fn cap_duration(&mut self, duration_s: f64) {
        self.clock.close(duration_s);
    }

    /// The smoothing time constant in seconds.
    pub fn tau_s(&self) -> f64 {
        self.tau_s
    }

    fn run(&mut self, up_to: Option<f64>) {
        while let Some(t) = self.clock.next_t() {
            if let Some(limit) = up_to {
                if t >= limit {
                    break;
                }
            }
            // Identical accumulation to the batch loop: impulses counted
            // by repeated f64 increments, then one level update.
            let mut impulses = 0.0;
            while let Some(&front) = self.incoming.front() {
                if front <= t {
                    impulses += 1.0;
                    self.incoming.pop_front();
                } else {
                    break;
                }
            }
            self.level = self.alpha * self.level + impulses / self.tau_s;
            self.clock.emit(self.level);
        }
        // See OnlineRateReconstructor::run: a capped clock absorbs no
        // further events, so holding them would leak.
        if self.clock.exhausted() {
            self.incoming.clear();
        }
    }
}

impl OnlineReconstructor for OnlineEwmaReconstructor {
    fn output_fs(&self) -> f64 {
        self.clock.fs
    }

    fn push_event(&mut self, time_s: f64) {
        self.incoming.push_back(time_s);
    }

    fn advance_to(&mut self, watermark_s: f64) {
        self.run(Some(watermark_s));
    }

    fn finish(&mut self, duration_s: f64) {
        self.clock.close(duration_s);
        self.run(None);
    }

    fn drain_into(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.clock.emitted);
    }

    fn emitted(&self) -> usize {
        self.clock.total
    }
}

/// Streaming zero-order hold of the received D-ATC threshold codes —
/// the online [`ThresholdTrackReconstructor`].
///
/// Per-channel state is one held DAC voltage plus the moving-average
/// smoother (`O(window · output_fs)` memory); every sample costs
/// amortised `O(1)`. Feed events with
/// [`push_coded`](OnlineReconstructor::push_coded) so the threshold
/// codes reach the DAC; events without a code (plain ATC spikes) leave
/// the held voltage unchanged, exactly like the batch code track.
///
/// ## Loss recovery: hold-last-code
///
/// A declared gap (dropped datagram, reorder-window overflow) simply
/// means no code updates arrive for its span, so the reconstructor
/// **holds the last decoded code** until the next surviving event — the
/// same zero-order-hold rule it applies between events on a clean feed.
/// The paper's own robustness argument ("artifacts effect is similar to
/// pulse missing") is what makes this sound: the DTC re-transmits its
/// absolute code with *every* event, so the track re-locks on the first
/// event after the hole and the error never accumulates.
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::online::{OnlineReconstructor, OnlineThresholdTrackReconstructor};
/// use datc_rx::reconstruct::{Reconstructor, ThresholdTrackReconstructor};
///
/// let ev: Vec<Event> = (0..60)
///     .map(|i| Event { tick: i * 30, vth_code: Some((i % 16) as u8) })
///     .collect();
/// let stream = EventStream::new(ev, 1000.0, 2.0);
/// let batch = ThresholdTrackReconstructor::paper().reconstruct(&stream, 100.0);
/// let online = OnlineThresholdTrackReconstructor::paper(100.0).run_batch(&stream);
/// assert_eq!(online, batch.samples()); // bit-exact
/// ```
#[derive(Debug, Clone)]
pub struct OnlineThresholdTrackReconstructor {
    dac: Dac,
    clock: OutputClock,
    /// Events (time, code) pushed but not yet absorbed by a sample.
    incoming: VecDeque<(f64, Option<u8>)>,
    /// The held DAC voltage (0 before the first coded event).
    current: f64,
    ma: MovingAverage,
}

impl OnlineThresholdTrackReconstructor {
    /// Creates a streaming threshold tracker decoding codes through
    /// `dac`, smoothing over `smooth_window_s` seconds, emitting at
    /// `output_fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics when the smoothing window or the output rate is not
    /// positive.
    pub fn new(dac: Dac, smooth_window_s: f64, output_fs: f64) -> Self {
        assert!(smooth_window_s > 0.0, "window must be positive");
        let clock = OutputClock::new(output_fs);
        // Same rounding as the batch reconstructor builds its
        // MovingAverage with — part of the bit-exactness contract.
        let n_win = ((smooth_window_s * output_fs).round() as usize).max(1);
        OnlineThresholdTrackReconstructor {
            dac,
            clock,
            incoming: VecDeque::new(),
            current: 0.0,
            ma: MovingAverage::new(n_win),
        }
    }

    /// The paper's receiver: 4-bit 1 V DAC, 750 ms smoothing.
    pub fn paper(output_fs: f64) -> Self {
        OnlineThresholdTrackReconstructor::new(Dac::paper(), 0.75, output_fs)
    }

    /// Caps the output at `floor(duration_s * output_fs)` samples up
    /// front — see [`OnlineRateReconstructor::with_duration`].
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.cap_duration(duration_s);
        self
    }

    /// In-place form of
    /// [`with_duration`](OnlineThresholdTrackReconstructor::with_duration).
    pub fn cap_duration(&mut self, duration_s: f64) {
        self.clock.close(duration_s);
    }

    /// The DAC decoding the received codes.
    pub fn dac(&self) -> &Dac {
        &self.dac
    }

    fn run(&mut self, up_to: Option<f64>) {
        while let Some(t) = self.clock.next_t() {
            if let Some(limit) = up_to {
                if t >= limit {
                    break;
                }
            }
            // Identical update rule to the batch code track: absorb
            // every event at or before t, coded ones move the hold.
            while let Some(&(front, code)) = self.incoming.front() {
                if front <= t {
                    if let Some(code) = code {
                        self.current = self.dac.voltage(u16::from(code)).unwrap_or(self.current);
                    }
                    self.incoming.pop_front();
                } else {
                    break;
                }
            }
            let smoothed = self.ma.process(self.current);
            self.clock.emit(smoothed);
        }
        // See OnlineRateReconstructor::run: a capped clock absorbs no
        // further events, so holding them would leak.
        if self.clock.exhausted() {
            self.incoming.clear();
        }
    }
}

impl From<&ThresholdTrackReconstructor> for OnlineThresholdTrackReconstructor {
    /// Builds the streaming counterpart of a batch threshold tracker at
    /// 100 Hz output (the experiments' default grid).
    fn from(batch: &ThresholdTrackReconstructor) -> Self {
        OnlineThresholdTrackReconstructor::new(batch.dac().clone(), batch.smooth_window_s(), 100.0)
    }
}

impl OnlineReconstructor for OnlineThresholdTrackReconstructor {
    fn output_fs(&self) -> f64 {
        self.clock.fs
    }

    fn push_event(&mut self, time_s: f64) {
        self.push_coded(time_s, None);
    }

    fn push_coded(&mut self, time_s: f64, vth_code: Option<u8>) {
        self.incoming.push_back((time_s, vth_code));
    }

    fn advance_to(&mut self, watermark_s: f64) {
        self.run(Some(watermark_s));
    }

    fn finish(&mut self, duration_s: f64) {
        self.clock.close(duration_s);
        self.run(None);
    }

    fn drain_into(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.clock.emitted);
    }

    fn emitted(&self) -> usize {
        self.clock.total
    }
}

/// Streaming threshold track refined by the event rate — the online
/// [`HybridReconstructor`](crate::reconstruct::HybridReconstructor).
///
/// Runs an [`OnlineThresholdTrackReconstructor`] and an
/// [`OnlineRateReconstructor`] in lockstep and combines their samples
/// `est = (vth + α·lsb·(rate/rate₀ − ½)).max(0)`.
///
/// ## The normalisation rate `rate₀`
///
/// The batch hybrid normalises by the stream's *mean* event rate, which
/// a streaming receiver only knows once the session closes. Three
/// modes:
///
/// * **pinned** ([`with_rate0`](OnlineHybridReconstructor::with_rate0)):
///   the caller supplies `rate₀` (from calibration, the session header,
///   or a previous session) and samples stream out with bounded latency;
/// * **auto-calibrated**
///   ([`with_auto_rate0`](OnlineHybridReconstructor::with_auto_rate0)):
///   `rate₀` is measured from the first `calib_s` seconds of the live
///   session itself and pinned once the watermark passes the
///   calibration window — emission lags by at most `calib_s`, then
///   streams with bounded latency. On a non-stationary workload this
///   tracks the session's own operating point where a rate pinned from
///   a *different* workload would bias every sample; a session that
///   ends inside the calibration window falls back to the deferred
///   exact mean;
/// * **deferred** (default): combined samples are withheld until
///   [`finish`](OnlineReconstructor::finish), where `rate₀` is computed
///   from the exact event count and duration — **bit-identical** to the
///   batch hybrid over the same feed, at the price of emission latency
///   (the two sub-estimators still run incrementally, so the deferred
///   state stays `O(n_samples)`, not `O(n_events)`).
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::online::{OnlineHybridReconstructor, OnlineReconstructor};
/// use datc_rx::reconstruct::{HybridReconstructor, Reconstructor};
///
/// let ev: Vec<Event> = (0..90)
///     .map(|i| Event { tick: i * 20, vth_code: Some((i % 16) as u8) })
///     .collect();
/// let stream = EventStream::new(ev, 1000.0, 2.0);
/// let batch = HybridReconstructor::paper().reconstruct(&stream, 100.0);
/// let online = OnlineHybridReconstructor::paper(100.0).run_batch(&stream);
/// assert_eq!(online, batch.samples()); // bit-exact (deferred rate0)
/// ```
#[derive(Debug, Clone)]
pub struct OnlineHybridReconstructor {
    track: OnlineThresholdTrackReconstructor,
    rate: OnlineRateReconstructor,
    alpha: f64,
    lsb: f64,
    rate0: Option<f64>,
    /// Auto-calibration window (seconds); `rate₀` pins itself from the
    /// events of the first `calib_s` seconds once the watermark passes.
    auto_calib_s: Option<f64>,
    /// Events with `time ≤ auto_calib_s` seen so far.
    calib_events: u64,
    events_seen: u64,
    /// Sub-estimator outputs staged until they can be combined.
    vth_stage: VecDeque<f64>,
    rate_stage: VecDeque<f64>,
    /// Reused drain buffer (stage() runs once per watermark advance).
    stage_scratch: Vec<f64>,
    emitted: Vec<f64>,
    total: usize,
}

impl OnlineHybridReconstructor {
    /// Creates a streaming hybrid: threshold track through `dac`
    /// smoothed over `smooth_window_s`, rate over `rate_window_s`,
    /// refinement weight `alpha` (DAC-LSB units), output at `output_fs`.
    ///
    /// # Panics
    ///
    /// Panics when a window or the output rate is not positive.
    pub fn new(
        dac: Dac,
        smooth_window_s: f64,
        rate_window_s: f64,
        alpha: f64,
        output_fs: f64,
    ) -> Self {
        let lsb = dac.lsb();
        OnlineHybridReconstructor {
            track: OnlineThresholdTrackReconstructor::new(dac, smooth_window_s, output_fs),
            rate: OnlineRateReconstructor::new(rate_window_s, output_fs),
            alpha,
            lsb,
            rate0: None,
            auto_calib_s: None,
            calib_events: 0,
            events_seen: 0,
            vth_stage: VecDeque::new(),
            rate_stage: VecDeque::new(),
            stage_scratch: Vec::new(),
            emitted: Vec::new(),
            total: 0,
        }
    }

    /// The experiments' default: paper DAC, 750 ms windows, α = 1.
    pub fn paper(output_fs: f64) -> Self {
        OnlineHybridReconstructor::new(Dac::paper(), 0.75, 0.75, 1.0, output_fs)
    }

    /// Pins the normalisation rate (events/s), enabling bounded-latency
    /// streaming emission.
    ///
    /// # Panics
    ///
    /// Panics when `rate0_hz` is not positive.
    pub fn with_rate0(mut self, rate0_hz: f64) -> Self {
        assert!(rate0_hz > 0.0, "normalisation rate must be positive");
        self.rate0 = Some(rate0_hz);
        self
    }

    /// Auto-calibrates the normalisation rate from the first `calib_s`
    /// seconds of the session: once the watermark passes `calib_s`,
    /// `rate₀` is pinned to the event rate observed over that window
    /// and emission streams with bounded latency from then on. A
    /// session that closes before the window fills falls back to the
    /// deferred exact mean.
    ///
    /// # Panics
    ///
    /// Panics when `calib_s` is not positive.
    pub fn with_auto_rate0(mut self, calib_s: f64) -> Self {
        assert!(
            calib_s > 0.0 && calib_s.is_finite(),
            "calibration window must be positive and finite"
        );
        self.auto_calib_s = Some(calib_s);
        self
    }

    /// The pinned normalisation rate, once known (immediately for
    /// [`with_rate0`](OnlineHybridReconstructor::with_rate0), after the
    /// calibration window for
    /// [`with_auto_rate0`](OnlineHybridReconstructor::with_auto_rate0),
    /// never in deferred mode).
    pub fn rate0_hz(&self) -> Option<f64> {
        self.rate0
    }

    /// Pins `rate₀` from the calibration window if the watermark (or
    /// session close at `at_s`) has passed it.
    fn try_calibrate(&mut self, at_s: f64) {
        if self.rate0.is_none() {
            if let Some(calib) = self.auto_calib_s {
                if at_s >= calib {
                    self.rate0 = Some((self.calib_events as f64 / calib).max(f64::MIN_POSITIVE));
                }
            }
        }
    }

    /// Caps the output at `floor(duration_s * output_fs)` samples up
    /// front — see [`OnlineRateReconstructor::with_duration`].
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        self.cap_duration(duration_s);
        self
    }

    /// In-place form of
    /// [`with_duration`](OnlineHybridReconstructor::with_duration).
    pub fn cap_duration(&mut self, duration_s: f64) {
        self.track.cap_duration(duration_s);
        self.rate.cap_duration(duration_s);
    }

    /// Moves newly determined sub-estimator samples into the stages.
    fn stage(&mut self) {
        self.stage_scratch.clear();
        self.track.drain_into(&mut self.stage_scratch);
        self.vth_stage.extend(self.stage_scratch.iter().copied());
        self.stage_scratch.clear();
        self.rate.drain_into(&mut self.stage_scratch);
        self.rate_stage.extend(self.stage_scratch.iter().copied());
    }

    /// Combines staged pairs with `rate0` — the same floating-point
    /// expression, in the same order, as the batch hybrid.
    fn combine(&mut self, rate0: f64) {
        while let (Some(&v), Some(&r)) = (self.vth_stage.front(), self.rate_stage.front()) {
            self.vth_stage.pop_front();
            self.rate_stage.pop_front();
            let est = (v + self.alpha * self.lsb * (r / rate0 - 0.5)).max(0.0);
            self.emitted.push(est);
            self.total += 1;
        }
    }
}

impl OnlineReconstructor for OnlineHybridReconstructor {
    fn output_fs(&self) -> f64 {
        self.track.output_fs()
    }

    fn push_event(&mut self, time_s: f64) {
        self.push_coded(time_s, None);
    }

    fn push_coded(&mut self, time_s: f64, vth_code: Option<u8>) {
        self.events_seen += 1;
        if self
            .auto_calib_s
            .is_some_and(|c| self.rate0.is_none() && time_s <= c)
        {
            self.calib_events += 1;
        }
        self.track.push_coded(time_s, vth_code);
        self.rate.push_event(time_s);
    }

    fn advance_to(&mut self, watermark_s: f64) {
        self.track.advance_to(watermark_s);
        self.rate.advance_to(watermark_s);
        self.stage();
        self.try_calibrate(watermark_s);
        if let Some(rate0) = self.rate0 {
            self.combine(rate0);
        }
    }

    fn finish(&mut self, duration_s: f64) {
        self.track.finish(duration_s);
        self.rate.finish(duration_s);
        self.stage();
        self.try_calibrate(duration_s);
        let rate0 = self.rate0.unwrap_or_else(|| {
            // The batch normalisation, computed from exact session
            // totals: mean_rate_hz().max(MIN_POSITIVE). Auto mode lands
            // here too when the session closed inside its calibration
            // window.
            (self.events_seen as f64 / duration_s).max(f64::MIN_POSITIVE)
        });
        self.combine(rate0);
    }

    fn drain_into(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.emitted);
    }

    fn emitted(&self) -> usize {
        self.total
    }
}

/// Declarative per-channel reconstructor choice — what a gateway stores
/// in its per-session config and instantiates once the session header
/// announces the channel count.
///
/// | Variant | Uses | Loss behaviour |
/// |---|---|---|
/// | `Rate` | event times | rate dips over the hole, recovers in one window |
/// | `Ewma` | event times | level decays over the hole, recovers in ~τ |
/// | `ThresholdTrack` | Vth codes | holds last code, re-locks on first surviving event |
/// | `Hybrid` | both | threshold hold + rate dip, weighted by α |
///
/// # Example
///
/// ```
/// use datc_rx::online::{OnlineReconSelect, OnlineReconstructor};
///
/// let mut rx = OnlineReconSelect::paper_threshold_track().build(100.0);
/// rx.push_coded(0.1, Some(8));
/// rx.finish(1.0);
/// assert_eq!(rx.emitted(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineReconSelect {
    /// Sliding-window event rate ([`OnlineRateReconstructor`]).
    Rate {
        /// Sliding-window length, seconds.
        window_s: f64,
    },
    /// Exponentially-weighted rate ([`OnlineEwmaReconstructor`]).
    Ewma {
        /// Smoothing time constant, seconds.
        tau_s: f64,
    },
    /// D-ATC threshold-code track
    /// ([`OnlineThresholdTrackReconstructor`]).
    ThresholdTrack {
        /// DAC decoding the received codes.
        dac: Dac,
        /// Moving-average smoothing window, seconds.
        smooth_window_s: f64,
    },
    /// Threshold track + rate refinement
    /// ([`OnlineHybridReconstructor`]).
    Hybrid {
        /// DAC decoding the received codes.
        dac: Dac,
        /// Moving-average smoothing window, seconds.
        smooth_window_s: f64,
        /// Rate sliding-window length, seconds.
        rate_window_s: f64,
        /// Rate-refinement weight, DAC-LSB units.
        alpha: f64,
        /// Pinned normalisation rate; `None` defers to session totals
        /// (bit-exact with batch, emission at session close) unless
        /// `rate0_calib_s` auto-calibrates it.
        rate0_hz: Option<f64>,
        /// Auto-calibration window (seconds): with `rate0_hz: None`,
        /// measure `rate₀` from the first seconds of the session and
        /// stream from then on
        /// ([`OnlineHybridReconstructor::with_auto_rate0`]). Ignored
        /// when `rate0_hz` is pinned.
        rate0_calib_s: Option<f64>,
    },
}

impl Default for OnlineReconSelect {
    /// The experiments' streaming default: 250 ms sliding rate.
    fn default() -> Self {
        OnlineReconSelect::Rate { window_s: 0.25 }
    }
}

impl OnlineReconSelect {
    /// The paper's D-ATC receiver: 4-bit 1 V DAC, 750 ms smoothing.
    pub fn paper_threshold_track() -> Self {
        OnlineReconSelect::ThresholdTrack {
            dac: Dac::paper(),
            smooth_window_s: 0.75,
        }
    }

    /// The experiments' default hybrid (deferred `rate₀`).
    pub fn paper_hybrid() -> Self {
        OnlineReconSelect::Hybrid {
            dac: Dac::paper(),
            smooth_window_s: 0.75,
            rate_window_s: 0.75,
            alpha: 1.0,
            rate0_hz: None,
            rate0_calib_s: None,
        }
    }

    /// The default hybrid with `rate₀` auto-calibrated from the first
    /// `calib_s` seconds of each session — the long-running-hub
    /// configuration: bounded staging, and the normalisation tracks
    /// each session's own workload.
    pub fn paper_hybrid_auto_rate0(calib_s: f64) -> Self {
        OnlineReconSelect::Hybrid {
            dac: Dac::paper(),
            smooth_window_s: 0.75,
            rate_window_s: 0.75,
            alpha: 1.0,
            rate0_hz: None,
            rate0_calib_s: Some(calib_s),
        }
    }

    /// Instantiates one reconstructor emitting at `output_fs` Hz.
    pub fn build(&self, output_fs: f64) -> AnyOnlineReconstructor {
        match self {
            OnlineReconSelect::Rate { window_s } => {
                AnyOnlineReconstructor::Rate(OnlineRateReconstructor::new(*window_s, output_fs))
            }
            OnlineReconSelect::Ewma { tau_s } => {
                AnyOnlineReconstructor::Ewma(OnlineEwmaReconstructor::new(*tau_s, output_fs))
            }
            OnlineReconSelect::ThresholdTrack {
                dac,
                smooth_window_s,
            } => AnyOnlineReconstructor::ThresholdTrack(OnlineThresholdTrackReconstructor::new(
                dac.clone(),
                *smooth_window_s,
                output_fs,
            )),
            OnlineReconSelect::Hybrid {
                dac,
                smooth_window_s,
                rate_window_s,
                alpha,
                rate0_hz,
                rate0_calib_s,
            } => {
                let mut hybrid = OnlineHybridReconstructor::new(
                    dac.clone(),
                    *smooth_window_s,
                    *rate_window_s,
                    *alpha,
                    output_fs,
                );
                if let Some(r0) = rate0_hz {
                    hybrid = hybrid.with_rate0(*r0);
                } else if let Some(c) = rate0_calib_s {
                    hybrid = hybrid.with_auto_rate0(*c);
                }
                AnyOnlineReconstructor::Hybrid(Box::new(hybrid))
            }
        }
    }
}

/// Enum dispatch over the four streaming reconstructors, so a gateway
/// can hold a homogeneous `Vec` of per-channel pipelines without trait
/// objects.
#[derive(Debug, Clone)]
pub enum AnyOnlineReconstructor {
    /// Sliding-window rate.
    Rate(OnlineRateReconstructor),
    /// EWMA rate.
    Ewma(OnlineEwmaReconstructor),
    /// Threshold-code track.
    ThresholdTrack(OnlineThresholdTrackReconstructor),
    /// Threshold track + rate refinement (boxed: it embeds two
    /// sub-estimators and would otherwise dominate the enum's size).
    Hybrid(Box<OnlineHybridReconstructor>),
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyOnlineReconstructor::Rate($inner) => $body,
            AnyOnlineReconstructor::Ewma($inner) => $body,
            AnyOnlineReconstructor::ThresholdTrack($inner) => $body,
            AnyOnlineReconstructor::Hybrid($inner) => $body,
        }
    };
}

impl AnyOnlineReconstructor {
    /// Caps the output at `floor(duration_s * output_fs)` samples up
    /// front — see [`OnlineRateReconstructor::with_duration`].
    pub fn cap_duration(&mut self, duration_s: f64) {
        dispatch!(self, r => r.cap_duration(duration_s));
    }
}

impl OnlineReconstructor for AnyOnlineReconstructor {
    fn output_fs(&self) -> f64 {
        dispatch!(self, r => r.output_fs())
    }

    fn push_event(&mut self, time_s: f64) {
        dispatch!(self, r => r.push_event(time_s));
    }

    fn push_coded(&mut self, time_s: f64, vth_code: Option<u8>) {
        dispatch!(self, r => r.push_coded(time_s, vth_code));
    }

    fn advance_to(&mut self, watermark_s: f64) {
        dispatch!(self, r => r.advance_to(watermark_s));
    }

    fn finish(&mut self, duration_s: f64) {
        dispatch!(self, r => r.finish(duration_s));
    }

    fn drain_into(&mut self, out: &mut Vec<f64>) {
        dispatch!(self, r => r.drain_into(out));
    }

    fn emitted(&self) -> usize {
        dispatch!(self, r => r.emitted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowing::{ewma_rate, sliding_rate};
    use datc_core::event::{Event, EventStream};

    fn bursty_stream(seed: u64, duration_s: f64) -> EventStream {
        // Deterministic irregular spacing without an RNG dependency: gaps
        // of 2..=1001 ticks on a 20 kHz clock (0.1 ms to 50 ms).
        let rate_hz = 20_000.0;
        let end = (duration_s * rate_hz) as u64;
        let mut x = seed | 1;
        let mut ev = Vec::new();
        let mut tick = 0u64;
        loop {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            tick += 2 + x % 1000;
            if tick >= end {
                break;
            }
            ev.push(Event {
                tick,
                vth_code: Some((x % 16) as u8),
            });
        }
        EventStream::new(ev, rate_hz, duration_s)
    }

    #[test]
    fn online_rate_is_bit_exact_with_batch() {
        for seed in [3, 99, 1234] {
            let s = bursty_stream(seed, 2.3);
            let batch = sliding_rate(&s, 0.25, 100.0);
            let online = OnlineRateReconstructor::new(0.25, 100.0).run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn online_ewma_is_bit_exact_with_batch() {
        for seed in [5, 42] {
            let s = bursty_stream(seed, 1.7);
            let batch = ewma_rate(&s, 0.1, 250.0);
            let online = OnlineEwmaReconstructor::new(0.1, 250.0).run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn incremental_watermarks_match_one_shot_finish() {
        let s = bursty_stream(77, 2.0);
        let mut incremental = OnlineRateReconstructor::new(0.2, 100.0);
        let mut trace = Vec::new();
        for e in &s {
            let t = s.time_of(e);
            incremental.push_event(t);
            incremental.advance_to(t);
            incremental.drain_into(&mut trace); // drain mid-stream too
        }
        incremental.finish(s.duration_s());
        incremental.drain_into(&mut trace);
        let batch = sliding_rate(&s, 0.2, 100.0);
        assert_eq!(trace, batch.samples());
    }

    #[test]
    fn watermark_emission_has_bounded_latency() {
        let mut rx = OnlineRateReconstructor::new(0.25, 100.0);
        rx.push_event(0.5);
        rx.advance_to(0.5);
        // every sample strictly below the watermark is out already
        assert_eq!(rx.emitted(), 50);
    }

    #[test]
    fn duration_cap_stops_overshooting_watermarks() {
        let mut rx = OnlineRateReconstructor::new(0.25, 100.0).with_duration(1.0);
        rx.push_event(5.0); // event far past the observation window
        rx.advance_to(5.0);
        rx.finish(1.0);
        assert_eq!(rx.emitted(), 100);
    }

    #[test]
    fn events_past_the_duration_cap_do_not_accumulate() {
        // A capped reconstructor fed by a misbehaving sender must stay
        // in bounded memory: once the clock is exhausted, queued events
        // can never influence a sample and are dropped.
        let mut rate = OnlineRateReconstructor::new(0.25, 100.0).with_duration(1.0);
        let mut track = OnlineThresholdTrackReconstructor::paper(100.0).with_duration(1.0);
        for k in 0..5_000u64 {
            let t = 1.0 + k as f64 * 1e-3;
            rate.push_event(t);
            track.push_coded(t, Some(3));
            if k % 100 == 0 {
                rate.advance_to(t);
                track.advance_to(t);
            }
        }
        rate.advance_to(10.0);
        track.advance_to(10.0);
        assert!(rate.incoming.is_empty(), "rate queue must be drained");
        assert!(rate.in_window.is_empty());
        assert!(track.incoming.is_empty(), "track queue must be drained");
        assert_eq!(rate.emitted(), 100);
        assert_eq!(track.emitted(), 100);
    }

    #[test]
    fn empty_feed_emits_silence() {
        let mut rx = OnlineEwmaReconstructor::new(0.25, 100.0);
        rx.finish(1.0);
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_batch_rate_reconstructor() {
        let online = OnlineRateReconstructor::from(&RateReconstructor::new(0.4));
        assert_eq!(online.window_s(), 0.4);
        assert_eq!(online.output_fs(), 100.0);
    }

    #[test]
    fn online_threshold_track_is_bit_exact_with_batch() {
        use crate::reconstruct::Reconstructor;
        for seed in [7, 55, 4242] {
            let s = bursty_stream(seed, 2.1);
            let batch = ThresholdTrackReconstructor::paper().reconstruct(&s, 100.0);
            let online = OnlineThresholdTrackReconstructor::paper(100.0).run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn online_threshold_track_incremental_matches_one_shot() {
        use crate::reconstruct::Reconstructor;
        let s = bursty_stream(31, 1.9);
        let mut rx = OnlineThresholdTrackReconstructor::paper(100.0);
        let mut trace = Vec::new();
        for e in &s {
            let t = s.time_of(e);
            rx.push_coded(t, e.vth_code);
            rx.advance_to(t);
            rx.drain_into(&mut trace);
        }
        rx.finish(s.duration_s());
        rx.drain_into(&mut trace);
        let batch = ThresholdTrackReconstructor::paper().reconstruct(&s, 100.0);
        assert_eq!(trace, batch.samples());
    }

    #[test]
    fn threshold_track_holds_last_code_over_a_gap() {
        // Events up to t = 0.5, then silence (a declared gap): the track
        // holds the last decoded code's voltage (smoothed), it does not
        // decay to zero like the rate estimators.
        let mut rx = OnlineThresholdTrackReconstructor::new(Dac::paper(), 0.01, 100.0);
        rx.push_coded(0.1, Some(8)); // 0.5 V
        rx.finish(2.0);
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out.len(), 200);
        assert!(
            (out[199] - 0.5).abs() < 1e-12,
            "held at 0.5 V: {}",
            out[199]
        );
    }

    #[test]
    fn online_hybrid_deferred_is_bit_exact_with_batch() {
        use crate::reconstruct::{HybridReconstructor, Reconstructor};
        for seed in [9, 303] {
            let s = bursty_stream(seed, 2.4);
            let batch = HybridReconstructor::paper().reconstruct(&s, 100.0);
            let online = OnlineHybridReconstructor::paper(100.0).run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn online_hybrid_pinned_rate0_matches_batch_given_the_same_rate() {
        use crate::reconstruct::{HybridReconstructor, Reconstructor};
        let s = bursty_stream(17, 2.0);
        let rate0 = s.mean_rate_hz().max(f64::MIN_POSITIVE);
        let batch = HybridReconstructor::paper().reconstruct(&s, 100.0);
        // Pinned mode emits incrementally; feed with interleaved
        // watermarks to prove mid-stream emission stays exact.
        let mut rx = OnlineHybridReconstructor::paper(100.0).with_rate0(rate0);
        let mut trace = Vec::new();
        for e in &s {
            let t = s.time_of(e);
            rx.push_coded(t, e.vth_code);
            rx.advance_to(t);
            rx.drain_into(&mut trace);
        }
        assert!(!trace.is_empty(), "pinned mode streams before finish");
        rx.finish(s.duration_s());
        rx.drain_into(&mut trace);
        assert_eq!(trace, batch.samples());
    }

    #[test]
    fn hybrid_auto_rate0_calibrates_then_streams_with_bounded_latency() {
        let s = bursty_stream(23, 3.0);
        let calib_s = 0.5;
        // Expected calibration: the rate over the first calib_s seconds.
        let calib_events = s.iter().filter(|e| s.time_of(e) <= calib_s).count();
        let expected_rate0 = (calib_events as f64 / calib_s).max(f64::MIN_POSITIVE);

        let mut rx = OnlineHybridReconstructor::paper(100.0).with_auto_rate0(calib_s);
        let mut trace = Vec::new();
        let mut streamed_before_finish = 0usize;
        for e in &s {
            let t = s.time_of(e);
            rx.push_coded(t, e.vth_code);
            rx.advance_to(t);
            if t < calib_s {
                assert_eq!(rx.emitted(), 0, "holds back inside the calibration window");
                assert_eq!(rx.rate0_hz(), None);
            }
            rx.drain_into(&mut trace);
            streamed_before_finish = trace.len();
        }
        assert_eq!(rx.rate0_hz(), Some(expected_rate0));
        assert!(
            streamed_before_finish > 0,
            "auto mode streams once calibrated"
        );
        rx.finish(s.duration_s());
        rx.drain_into(&mut trace);

        // Identical to pinning the measured rate up front.
        let pinned = OnlineHybridReconstructor::paper(100.0)
            .with_rate0(expected_rate0)
            .run_batch(&s);
        assert_eq!(trace, pinned);
    }

    #[test]
    fn hybrid_auto_rate0_tracks_a_nonstationary_session_better_than_a_misfit_pin() {
        use crate::reconstruct::{HybridReconstructor, Reconstructor};
        // A session whose operating point differs 8× from whatever a
        // previous session would have pinned: the deferred batch trace
        // is the reference; auto-calibration lands near it, the foreign
        // pin does not.
        let s = bursty_stream(61, 4.0);
        let reference = HybridReconstructor::paper().reconstruct(&s, 100.0);
        let auto = OnlineHybridReconstructor::paper(100.0)
            .with_auto_rate0(1.0)
            .run_batch(&s);
        let foreign_rate = s.mean_rate_hz() / 8.0;
        let pinned = OnlineHybridReconstructor::paper(100.0)
            .with_rate0(foreign_rate)
            .run_batch(&s);
        let rmse = |a: &[f64], b: &[f64]| {
            (a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>() / a.len() as f64).sqrt()
        };
        let auto_err = rmse(&auto, reference.samples());
        let pin_err = rmse(&pinned, reference.samples());
        assert!(
            auto_err < 0.2 * pin_err,
            "auto rmse {auto_err} vs misfit-pin rmse {pin_err}"
        );
    }

    #[test]
    fn hybrid_auto_rate0_falls_back_to_deferred_on_a_short_session() {
        use crate::reconstruct::{HybridReconstructor, Reconstructor};
        let s = bursty_stream(13, 1.5);
        let batch = HybridReconstructor::paper().reconstruct(&s, 100.0);
        // Calibration window longer than the session: exact deferred
        // semantics, bit-identical to batch.
        let online = OnlineHybridReconstructor::paper(100.0)
            .with_auto_rate0(10.0)
            .run_batch(&s);
        assert_eq!(online, batch.samples());
    }

    #[test]
    fn recon_select_auto_hybrid_builds_the_auto_mode() {
        let select = OnlineReconSelect::paper_hybrid_auto_rate0(0.5);
        let AnyOnlineReconstructor::Hybrid(h) = select.build(100.0) else {
            panic!("hybrid select must build a hybrid");
        };
        assert_eq!(h.auto_calib_s, Some(0.5));
        assert_eq!(h.rate0_hz(), None);
    }

    #[test]
    fn hybrid_deferred_withholds_until_finish() {
        let mut rx = OnlineHybridReconstructor::paper(100.0);
        rx.push_coded(0.3, Some(4));
        rx.advance_to(0.9);
        assert_eq!(rx.emitted(), 0, "deferred mode holds samples back");
        rx.finish(1.0);
        assert_eq!(rx.emitted(), 100);
    }

    #[test]
    fn recon_select_builds_every_variant_bit_exact() {
        use crate::reconstruct::{HybridReconstructor, Reconstructor};
        let s = bursty_stream(88, 1.6);
        let cases: Vec<(OnlineReconSelect, Vec<f64>)> = vec![
            (
                OnlineReconSelect::Rate { window_s: 0.25 },
                sliding_rate(&s, 0.25, 100.0).samples().to_vec(),
            ),
            (
                OnlineReconSelect::Ewma { tau_s: 0.2 },
                ewma_rate(&s, 0.2, 100.0).samples().to_vec(),
            ),
            (OnlineReconSelect::paper_threshold_track(), {
                use crate::reconstruct::ThresholdTrackReconstructor;
                ThresholdTrackReconstructor::paper()
                    .reconstruct(&s, 100.0)
                    .samples()
                    .to_vec()
            }),
            (
                OnlineReconSelect::paper_hybrid(),
                HybridReconstructor::paper()
                    .reconstruct(&s, 100.0)
                    .samples()
                    .to_vec(),
            ),
        ];
        for (select, batch) in cases {
            let online = select.build(100.0).run_batch(&s);
            assert_eq!(online, batch, "{select:?}");
        }
    }

    #[test]
    fn from_batch_threshold_tracker() {
        let online = OnlineThresholdTrackReconstructor::from(&ThresholdTrackReconstructor::paper());
        assert_eq!(online.dac(), &Dac::paper());
        assert_eq!(online.output_fs(), 100.0);
    }
}
