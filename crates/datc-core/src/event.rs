//! Threshold-crossing events and event streams.

use serde::{Deserialize, Serialize};

/// Seconds at `tick` on a clock of period `tick_period_s`:
/// `tick · tick_period_s`. The one tick→seconds rule — every reader of
/// event time ([`EventStream::time_of`], the AER link's dead-time model,
/// wire decoders holding a tick column) goes through it, so a time
/// derived anywhere is bit-identical to the same tick's time elsewhere.
#[inline]
pub fn tick_to_seconds(tick: u64, tick_period_s: f64) -> f64 {
    tick as f64 * tick_period_s
}

/// A single positive threshold-crossing event, as issued to the IR-UWB
/// modulator.
///
/// The tick is the only stored time: an event's time in seconds depends
/// on the clock it was counted on, so it is read through the owning
/// stream's [`EventStream::time_of`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Clock tick (for clocked D-ATC) or sample index (for asynchronous
    /// ATC) at which the crossing was detected.
    pub tick: u64,
    /// The 4-bit threshold code in force when the event fired (`None` for
    /// plain ATC, which transmits a bare pulse).
    pub vth_code: Option<u8>,
}

impl Event {
    /// Number of IR-UWB symbols this event costs on air: 1 for a bare ATC
    /// pulse, `1 + n_bits` for a D-ATC event pattern (Fig. 2-E: the event
    /// marker plus the digitised threshold level).
    pub fn symbol_cost(&self, vth_bits: u8) -> u64 {
        match self.vth_code {
            None => 1,
            Some(_) => 1 + u64::from(vth_bits),
        }
    }
}

/// An ordered stream of events over a known observation window.
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// let ev = vec![Event { tick: 10, vth_code: Some(3) }];
/// let s = EventStream::new(ev, 2000.0, 1.0);
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.time_of(&s.events()[0]), 10.0 * (1.0 / 2000.0));
/// assert!((s.mean_rate_hz() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventStream {
    events: Vec<Event>,
    tick_rate_hz: f64,
    duration_s: f64,
}

impl EventStream {
    /// Wraps events with their timebase. Events must be tick-ordered.
    ///
    /// # Panics
    ///
    /// Panics when events are out of order (a stream is a time series by
    /// contract) or the duration is not positive.
    pub fn new(events: Vec<Event>, tick_rate_hz: f64, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        assert!(
            events.windows(2).all(|w| w[0].tick <= w[1].tick),
            "events must be ordered by tick"
        );
        EventStream {
            events,
            tick_rate_hz,
            duration_s,
        }
    }

    /// Wraps events whose tick order is guaranteed by construction (the
    /// streaming kernels emit in tick order) without the O(n) ordering
    /// re-scan of [`new`](EventStream::new) — on a 64-channel fleet that
    /// scan rereads every cache-cold event buffer once per encode.
    /// Ordering is still checked in debug builds.
    ///
    /// # Panics
    ///
    /// Panics when the duration is not positive (and, in debug builds,
    /// when events are out of order).
    pub fn from_ordered(events: Vec<Event>, tick_rate_hz: f64, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        debug_assert!(
            events.windows(2).all(|w| w[0].tick <= w[1].tick),
            "events must be ordered by tick"
        );
        EventStream {
            events,
            tick_rate_hz,
            duration_s,
        }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events (the paper's "transmitted events").
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The tick rate the `tick` fields are expressed in (Hz).
    pub fn tick_rate_hz(&self) -> f64 {
        self.tick_rate_hz
    }

    /// Seconds per tick, `1 / tick_rate_hz`.
    pub fn tick_period_s(&self) -> f64 {
        1.0 / self.tick_rate_hz
    }

    /// The time of `event` in seconds ([`tick_to_seconds`] at
    /// [`tick_period_s`](EventStream::tick_period_s)).
    #[inline]
    pub fn time_of(&self, event: &Event) -> f64 {
        tick_to_seconds(event.tick, self.tick_period_s())
    }

    /// Observation-window length in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_s
    }

    /// Mean firing rate over the observation window (events/s).
    pub fn mean_rate_hz(&self) -> f64 {
        self.events.len() as f64 / self.duration_s
    }

    /// Total on-air symbol count (Sec. III-B accounting): ATC events cost
    /// 1 symbol, D-ATC events cost `1 + vth_bits`.
    pub fn symbol_count(&self, vth_bits: u8) -> u64 {
        self.events.iter().map(|e| e.symbol_cost(vth_bits)).sum()
    }

    /// Event count inside `[t0, t1)` seconds.
    pub fn count_in_window(&self, t0: f64, t1: f64) -> usize {
        self.events
            .iter()
            .map(|e| self.time_of(e))
            .filter(|&t| t >= t0 && t < t1)
            .count()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tick: u64, code: Option<u8>) -> Event {
        Event {
            tick,
            vth_code: code,
        }
    }

    #[test]
    fn events_store_the_tick_only() {
        // tick + code, no derived seconds riding along
        assert_eq!(std::mem::size_of::<Event>(), 16);
        let s = EventStream::new(vec![ev(3, None)], 2000.0, 1.0);
        assert_eq!(s.time_of(&s.events()[0]), tick_to_seconds(3, 1.0 / 2000.0));
        assert_eq!(s.tick_period_s(), 1.0 / 2000.0);
    }

    #[test]
    fn symbol_costs_match_paper_accounting() {
        let atc = ev(0, None);
        let datc = ev(0, Some(7));
        assert_eq!(atc.symbol_cost(4), 1);
        assert_eq!(datc.symbol_cost(4), 5); // the paper's "3724×5" factor
    }

    #[test]
    fn stream_symbol_count_sums() {
        let s = EventStream::new(
            vec![ev(0, Some(1)), ev(1, Some(2)), ev(2, Some(3))],
            2000.0,
            1.0,
        );
        assert_eq!(s.symbol_count(4), 15);
    }

    #[test]
    fn window_counting() {
        let s = EventStream::new(
            vec![ev(100, None), ev(200, None), ev(900, None)],
            1000.0,
            1.0,
        );
        assert_eq!(s.count_in_window(0.0, 0.5), 2);
        assert_eq!(s.count_in_window(0.5, 1.0), 1);
    }

    #[test]
    #[should_panic(expected = "ordered by tick")]
    fn unordered_events_rejected() {
        let _ = EventStream::new(vec![ev(5, None), ev(1, None)], 1000.0, 1.0);
    }

    #[test]
    fn iteration_works() {
        let s = EventStream::new(vec![ev(0, None)], 1000.0, 1.0);
        assert_eq!((&s).into_iter().count(), 1);
    }
}
