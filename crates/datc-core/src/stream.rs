//! The streaming D-ATC kernel — the **single** cycle-accurate tick loop
//! every other entry point drives.
//!
//! [`DatcStream`] presents exactly the interface the silicon does
//! (comparator input in, event strobe + threshold code out) and is the
//! one place the comparator→DTC→DAC cycle is written down:
//!
//! * [`DatcStream::tick`] — one sample per call, for real-time /
//!   embedded-style consumers;
//! * [`DatcStream::push_chunk`] — a clock-rate sample slice into a
//!   [`TickSink`], the zero-per-tick-allocation fast path;
//! * [`DatcStream::push_signal`] — an arbitrary-rate
//!   [`Signal`] re-sampled through the exact
//!   rational [`ZohResampler`];
//!   batch [`DatcEncoder::encode`](crate::datc::DatcEncoder) is a thin
//!   driver over this.

use crate::comparator::Comparator;
use crate::config::DatcConfig;
use crate::dac::Dac;
use crate::dtc::{Dtc, DtcStep};
use crate::encoder::TickSink;
use crate::error::CoreError;
use crate::event::Event;
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;

/// What one clock tick of the streaming encoder produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTick {
    /// The event fired this tick, if any (tagged with the code in force
    /// when the comparator decision was sampled).
    pub event: Option<Event>,
    /// The threshold code after this tick.
    pub set_vth: u8,
    /// The threshold voltage after this tick.
    pub vth_volts: f64,
    /// `true` when this tick closed a frame.
    pub end_of_frame: bool,
}

/// Streaming D-ATC encoder: push comparator-input samples at the system
/// clock rate.
///
/// # Example
///
/// ```
/// use datc_core::stream::DatcStream;
/// use datc_core::config::DatcConfig;
///
/// let mut stream = DatcStream::new(DatcConfig::paper())?;
/// let mut events = 0;
/// for k in 0..2000u32 {
///     let x = 0.4 * ((k as f64) * 0.2).sin().abs();
///     if stream.tick(x).event.is_some() {
///         events += 1;
///     }
/// }
/// assert!(events > 0);
/// # Ok::<(), datc_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DatcStream {
    dtc: Dtc,
    comparator: Comparator,
    /// Code→voltage LUT precomputed at construction (the DAC transfer
    /// function); the per-tick kernel does one array index instead of a
    /// fallible `Dac::voltage` call.
    vth_lut: Vec<f64>,
    tick: u64,
}

impl DatcStream {
    /// Creates a streaming encoder with an ideal comparator.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn new(config: DatcConfig) -> Result<Self, CoreError> {
        let dac = Dac::new(config.dac_bits, config.vref)?;
        Ok(DatcStream {
            dtc: Dtc::new(config)?,
            comparator: Comparator::ideal(),
            vth_lut: dac.voltage_table(),
            tick: 0,
        })
    }

    /// Replaces the comparator model.
    pub fn with_comparator(mut self, comparator: Comparator) -> Self {
        self.comparator = comparator;
        self
    }

    /// The encoder configuration.
    pub fn config(&self) -> &DatcConfig {
        self.dtc.config()
    }

    /// Current threshold voltage.
    pub fn vth_volts(&self) -> f64 {
        self.vth_lut[usize::from(self.dtc.vth_code())]
    }

    /// Ticks executed.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The shared kernel: one comparator + DTC cycle on input `x_volts`.
    /// Returns the tick index the cycle ran at and the raw DTC step.
    ///
    /// Branch-free in the threshold path: the code→voltage conversion is
    /// one LUT index (DTC codes are bounded by construction, so the
    /// bounds check never fires).
    #[inline]
    fn step_core(&mut self, x_volts: f64) -> (u64, DtcStep) {
        let vth = self.vth_lut[usize::from(self.dtc.vth_code())];
        let d_in = self.comparator.compare(x_volts, vth);
        let step = self.dtc.step(d_in);
        let k = self.tick;
        self.tick += 1;
        (k, step)
    }

    /// Processes one system-clock tick with the instantaneous rectified
    /// input voltage `x_volts`.
    pub fn tick(&mut self, x_volts: f64) -> StreamTick {
        let (k, step) = self.step_core(x_volts);
        let event = step.event.then_some(Event {
            tick: k,
            vth_code: Some(step.sampled_code),
        });
        StreamTick {
            event,
            set_vth: step.set_vth,
            vth_volts: self.vth_lut[usize::from(step.set_vth)],
            end_of_frame: step.end_of_frame,
        }
    }

    /// Runs one kernel cycle per sample of `chunk` (already at the system
    /// clock rate), reporting each tick to `sink`.
    ///
    /// This is the hot path: per tick it performs the comparator + DTC
    /// work and one `sink.on_tick` call — no `StreamTick`, no `Option`,
    /// no allocation. Chunks may be any length; state carries across
    /// calls exactly as across [`tick`](DatcStream::tick) calls.
    pub fn push_chunk<S: TickSink>(&mut self, chunk: &[f64], sink: &mut S) {
        for &x in chunk {
            let (k, step) = self.step_core(x);
            sink.on_tick(k, &step);
        }
    }

    /// Drives the kernel over a whole [`Signal`] of any sample rate,
    /// zero-order-holding it onto the system clock through the exact
    /// rational [`ZohResampler`], reporting each tick to `sink`.
    ///
    /// Returns the number of ticks executed. Batch
    /// [`DatcEncoder::encode`](crate::datc::DatcEncoder) is this plus a
    /// [`DatcOutputBuilder`](crate::encoder::DatcOutputBuilder) sink.
    pub fn push_signal<S: TickSink>(&mut self, signal: &Signal, sink: &mut S) -> u64 {
        let clock = self.dtc.config().clock_hz;
        let zoh = ZohResampler::new(signal.sample_rate(), clock);
        let n = signal.len();
        let n_ticks = zoh.ticks_for_len(n);
        let samples = signal.samples();
        // `ticks_for_len` guarantees `index(k) < n` for every executed
        // tick, so no per-tick clamp is needed in the loop.
        for k in 0..n_ticks {
            let x = samples[zoh.index(k)];
            let (tick, step) = self.step_core(x);
            sink.on_tick(tick, &step);
        }
        n_ticks
    }

    /// Resets the encoder to power-on state.
    pub fn reset(&mut self) {
        self.dtc.reset();
        self.comparator.reset();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datc::DatcEncoder;
    use crate::encoder::{EventSink, SpikeEncoder, TraceLevel};
    use datc_signal::generator::{ForceProfile, SemgGenerator, SemgModel};

    fn test_semg(seconds: f64) -> Signal {
        let fs = 2500.0;
        let force = ForceProfile::mvc_protocol().samples(fs, seconds);
        SemgGenerator::new(SemgModel::modulated_noise(), fs)
            .generate(&force, 33)
            .to_scaled(0.5)
            .to_rectified()
    }

    #[test]
    fn stream_matches_batch_encoder_exactly() {
        let semg = test_semg(5.0);
        let config = DatcConfig::paper();
        let batch = DatcEncoder::new(config).encode(&semg);

        let mut stream = DatcStream::new(config).unwrap();
        let zoh = ZohResampler::new(semg.sample_rate(), config.clock_hz);
        let n_ticks = zoh.ticks_for_len(semg.len());
        let mut events = Vec::new();
        let mut vth_trace = Vec::new();
        for k in 0..n_ticks {
            let idx = zoh.index(k).min(semg.len() - 1);
            let out = stream.tick(semg.samples()[idx]);
            if let Some(e) = out.event {
                events.push(e);
            }
            vth_trace.push(out.set_vth);
        }
        assert_eq!(events, batch.events.events());
        assert_eq!(vth_trace, batch.vth_code_trace);
    }

    #[test]
    fn push_chunk_matches_per_tick_calls() {
        let config = DatcConfig::paper();
        let samples: Vec<f64> = (0..5000)
            .map(|k| 0.5 * ((k as f64) * 0.07).sin().abs())
            .collect();

        let mut by_tick = DatcStream::new(config).unwrap();
        let mut tick_events = Vec::new();
        for &x in &samples {
            if let Some(e) = by_tick.tick(x).event {
                tick_events.push(e);
            }
        }

        let mut by_chunk = DatcStream::new(config).unwrap();
        let mut sink = EventSink::new(config.clock_hz);
        // uneven chunk boundaries must not matter
        for chunk in samples.chunks(333) {
            by_chunk.push_chunk(chunk, &mut sink);
        }
        assert_eq!(sink.events(), tick_events.as_slice());
        assert_eq!(by_chunk.ticks(), by_tick.ticks());
    }

    #[test]
    fn push_signal_matches_batch_events() {
        let semg = test_semg(3.0);
        let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
        let batch = DatcEncoder::new(config).encode(&semg);

        let mut stream = DatcStream::new(config).unwrap();
        let mut sink = EventSink::new(config.clock_hz);
        let n_ticks = stream.push_signal(&semg, &mut sink);
        assert_eq!(n_ticks, stream.ticks());
        assert_eq!(sink.events(), batch.events.events());
    }

    #[test]
    fn reset_restarts_the_stream() {
        let mut s = DatcStream::new(DatcConfig::paper()).unwrap();
        for _ in 0..500 {
            s.tick(0.9);
        }
        assert!(s.ticks() == 500);
        let code_before = s.tick(0.9).set_vth;
        assert!(code_before > 1);
        s.reset();
        assert_eq!(s.ticks(), 0);
        assert!((s.vth_volts() - 0.0625).abs() < 1e-12, "back to code 1");
    }

    #[test]
    fn events_are_timestamped_on_the_clock() {
        let mut s = DatcStream::new(DatcConfig::paper()).unwrap();
        let mut first_event = None;
        for k in 0..300u64 {
            let x = if k % 3 == 0 { 0.9 } else { 0.0 };
            if let Some(e) = s.tick(x).event {
                first_event = Some((k, e));
                break;
            }
        }
        let (k, e) = first_event.expect("toggling input must fire");
        assert_eq!(e.tick, k, "events carry the tick they fired on");
    }
}
