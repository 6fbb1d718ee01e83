//! OOK modulation and the D-ATC event pattern.
//!
//! Two abstraction levels:
//!
//! * **Symbol level** ([`EventPattern`], [`symbolize_events`]) — what the
//!   20-second experiments use: each event becomes a short symbol pattern
//!   (1 marker + `n` threshold bits for D-ATC, 1 bare symbol for ATC).
//! * **Waveform level** ([`OokModulator`]) — nanosecond-resolution pulse
//!   trains for PSD/receiver studies over microsecond bursts.

use crate::pulse::GaussianPulse;
use datc_core::event::{Event, EventStream};
use datc_signal::Signal;
use serde::{Deserialize, Serialize};

/// One on-air symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Symbol {
    /// Pulse present (OOK "1").
    Pulse,
    /// Silence (OOK "0").
    Silence,
}

/// The serialised form of one event (Fig. 2-E): an always-on event marker
/// followed by the threshold code bits, MSB first (absent for bare ATC
/// events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventPattern {
    /// Symbols of this pattern, marker first.
    pub symbols: Vec<Symbol>,
    /// The event time the pattern is anchored to (seconds).
    pub time_s: f64,
}

impl EventPattern {
    /// Builds the pattern for `event` at `time_s` (the owning stream's
    /// [`EventStream::time_of`]), encoding `vth_bits` bits of threshold
    /// code when present.
    pub fn for_event(event: &Event, time_s: f64, vth_bits: u8) -> Self {
        let mut symbols = vec![Symbol::Pulse];
        if let Some(code) = event.vth_code {
            for b in (0..vth_bits).rev() {
                symbols.push(if code >> b & 1 == 1 {
                    Symbol::Pulse
                } else {
                    Symbol::Silence
                });
            }
        }
        EventPattern { symbols, time_s }
    }

    /// Number of symbol slots this pattern occupies on air.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// `true` when the pattern is empty (never produced by
    /// [`EventPattern::for_event`]).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Decodes the threshold code back from the pattern (skipping the
    /// marker). Returns `None` for bare (ATC) patterns.
    pub fn decode_code(&self) -> Option<u8> {
        if self.symbols.len() <= 1 {
            return None;
        }
        let mut code = 0u8;
        for s in &self.symbols[1..] {
            code = (code << 1) | u8::from(*s == Symbol::Pulse);
        }
        Some(code)
    }
}

/// Serialises a whole event stream into per-event symbol patterns.
pub fn symbolize_events(events: &EventStream, vth_bits: u8) -> Vec<EventPattern> {
    events
        .iter()
        .map(|e| EventPattern::for_event(e, events.time_of(e), vth_bits))
        .collect()
}

/// Total number of **pulse** symbols (transmitter energy is spent only on
/// pulses, not silences — the OOK advantage the paper leans on).
pub fn pulse_count(patterns: &[EventPattern]) -> u64 {
    patterns
        .iter()
        .flat_map(|p| &p.symbols)
        .filter(|&&s| s == Symbol::Pulse)
        .count() as u64
}

/// Waveform-level OOK modulator for short bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct OokModulator {
    pulse: GaussianPulse,
    symbol_period_s: f64,
}

impl OokModulator {
    /// Creates a modulator radiating `pulse` in slots of
    /// `symbol_period_s` seconds (pulse-repetition interval).
    ///
    /// # Panics
    ///
    /// Panics when the symbol period is not positive.
    pub fn new(pulse: GaussianPulse, symbol_period_s: f64) -> Self {
        assert!(symbol_period_s > 0.0, "symbol period must be positive");
        OokModulator {
            pulse,
            symbol_period_s,
        }
    }

    /// The configured pulse shape.
    pub fn pulse(&self) -> &GaussianPulse {
        &self.pulse
    }

    /// Symbol period in seconds.
    pub fn symbol_period_s(&self) -> f64 {
        self.symbol_period_s
    }

    /// Renders a symbol sequence to a waveform sampled at `fs` Hz.
    /// Pulses are centred in their slots.
    pub fn waveform(&self, symbols: &[Symbol], fs: f64) -> Signal {
        let n = ((symbols.len() as f64) * self.symbol_period_s * fs).ceil() as usize;
        let mut out = vec![0.0; n];
        let span = 5.0 * self.pulse.sigma_s;
        for (i, &s) in symbols.iter().enumerate() {
            if s != Symbol::Pulse {
                continue;
            }
            let centre = (i as f64 + 0.5) * self.symbol_period_s;
            let k0 = ((centre - span) * fs).floor().max(0.0) as usize;
            let k1 = (((centre + span) * fs).ceil() as usize).min(n);
            for (k, o) in out.iter_mut().enumerate().take(k1).skip(k0) {
                *o += self.pulse.value_at(k as f64 / fs - centre);
            }
        }
        Signal::from_samples(out, fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(code: Option<u8>) -> Event {
        Event {
            tick: 0,
            vth_code: code,
        }
    }

    #[test]
    fn datc_pattern_is_five_symbols() {
        let p = EventPattern::for_event(&ev(Some(0b1010)), 0.0, 4);
        assert_eq!(p.len(), 5);
        assert_eq!(p.symbols[0], Symbol::Pulse); // marker
        assert_eq!(
            &p.symbols[1..],
            &[
                Symbol::Pulse,
                Symbol::Silence,
                Symbol::Pulse,
                Symbol::Silence
            ]
        );
    }

    #[test]
    fn atc_pattern_is_one_symbol() {
        let p = EventPattern::for_event(&ev(None), 0.0, 4);
        assert_eq!(p.len(), 1);
        assert_eq!(p.decode_code(), None);
    }

    #[test]
    fn code_roundtrips_through_pattern() {
        for code in 0..16u8 {
            let p = EventPattern::for_event(&ev(Some(code)), 0.0, 4);
            assert_eq!(p.decode_code(), Some(code));
        }
    }

    #[test]
    fn pulse_count_counts_only_pulses() {
        let patterns = vec![
            EventPattern::for_event(&ev(Some(0b1111)), 0.0, 4), // 5 pulses
            EventPattern::for_event(&ev(Some(0b0000)), 0.0, 4), // 1 pulse
            EventPattern::for_event(&ev(None), 0.0, 4),         // 1 pulse
        ];
        assert_eq!(pulse_count(&patterns), 7);
    }

    #[test]
    fn waveform_has_energy_only_in_pulse_slots() {
        let m = OokModulator::new(GaussianPulse::paper_tx(), 10e-9);
        let fs = 50e9;
        let w = m.waveform(&[Symbol::Pulse, Symbol::Silence, Symbol::Pulse], fs);
        let slot = (10e-9 * fs) as usize;
        let e = |range: std::ops::Range<usize>| -> f64 {
            w.samples()[range].iter().map(|v| v * v).sum()
        };
        let e0 = e(0..slot);
        let e1 = e(slot..2 * slot);
        let e2 = e(2 * slot..3 * slot);
        assert!(e0 > 100.0 * e1.max(1e-30), "slot0 {e0} slot1 {e1}");
        assert!(e2 > 100.0 * e1.max(1e-30));
    }

    #[test]
    fn symbolize_whole_stream() {
        let events = EventStream::new(
            vec![
                Event {
                    tick: 200,
                    vth_code: Some(3),
                },
                Event {
                    tick: 400,
                    vth_code: Some(9),
                },
            ],
            2000.0,
            1.0,
        );
        let pats = symbolize_events(&events, 4);
        assert_eq!(pats.len(), 2);
        assert_eq!(pats[0].decode_code(), Some(3));
        assert_eq!(pats[1].decode_code(), Some(9));
        assert_eq!(pats[1].time_s, events.time_of(&events.events()[1]));
        // total symbols = 2 × 5, matching EventStream::symbol_count
        let total: usize = pats.iter().map(|p| p.len()).sum();
        assert_eq!(total as u64, events.symbol_count(4));
    }
}
