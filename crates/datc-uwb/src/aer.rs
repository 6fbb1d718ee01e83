//! Address-Event Representation (AER) for multi-channel systems.
//!
//! Ref. \[12\] (and the multi-channel force system of Ref. \[9\]) transmit
//! events from several sEMG channels over one link by prefixing each event
//! with a channel address. Asynchronous sources can collide; the merger
//! models a fixed dead time during which a second event is lost —
//! acceptable because "artifacts effect is similar to pulse missing".

use datc_core::encoder::{EncoderBank, SpikeEncoder};
use datc_core::event::{tick_to_seconds, Event, EventStream};
use datc_signal::Signal;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event tagged with its source channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AddressedEvent {
    /// Source channel (the AER address).
    pub channel: u8,
    /// The underlying threshold-crossing event.
    pub event: Event,
}

/// Result of merging asynchronous channels onto one serial link.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Events that made it through, in time order.
    pub merged: Vec<AddressedEvent>,
    /// Events lost to link contention (arrived within the dead time of a
    /// previous event).
    pub collisions: usize,
}

/// Merges per-channel streams with a serial-link dead time.
///
/// `dead_time_s` models the pattern duration: while one event pattern is
/// on air (e.g. 5 symbols × symbol period), other channels' events are
/// dropped.
///
/// # Panics
///
/// Panics on a negative dead time, on more than 256 channels (the
/// [`AddressedEvent`] address is 8 bits) or on streams counted at
/// different tick rates — see [`merge_channel_refs`].
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_uwb::aer::merge_channels;
///
/// let ch0 = EventStream::new(vec![Event { tick: 0, vth_code: None }], 2000.0, 1.0);
/// let ch1 = EventStream::new(vec![Event { tick: 1, vth_code: None }], 2000.0, 1.0);
/// let report = merge_channels(&[ch0, ch1], 0.001);
/// assert_eq!(report.merged.len(), 1);
/// assert_eq!(report.collisions, 1);
/// ```
pub fn merge_channels(streams: &[EventStream], dead_time_s: f64) -> MergeReport {
    merge_channel_refs(&streams.iter().collect::<Vec<_>>(), dead_time_s)
}

/// [`merge_channels`] over borrowed streams — fleet-scale callers merge
/// per-channel outputs they still own without cloning every event list.
///
/// The link carries each event's tick, so every stream on it must count
/// ticks on one clock; the merge is then a k-way heap merge keyed on
/// `(tick, channel)` — O(N log k) with k live cursors.
///
/// # Panics
///
/// Panics on a negative dead time, on more than 256 channels (the
/// [`AddressedEvent`] address is 8 bits; larger fleets must split into
/// multiple AER links) or when the streams' tick rates differ.
pub fn merge_channel_refs(streams: &[&EventStream], dead_time_s: f64) -> MergeReport {
    assert!(dead_time_s >= 0.0, "dead time must be non-negative");
    assert!(
        streams.len() <= 256,
        "AER addresses are 8 bits: {} channels exceed one link (split the fleet)",
        streams.len()
    );
    if let Some(first) = streams.first() {
        let rate = first.tick_rate_hz();
        if let Some(other) = streams
            .iter()
            .map(|s| s.tick_rate_hz())
            .find(|&r| r != rate)
        {
            panic!(
                "one AER link carries one tick rate: streams at {rate} Hz and {other} Hz \
                 cannot share it"
            );
        }
    }
    apply_dead_time(HeapMerge::new(streams), streams, dead_time_s)
}

/// Serialises a tick-ordered iterator of addressed events through the
/// link's dead-time contention model.
fn apply_dead_time(
    events: impl Iterator<Item = AddressedEvent>,
    streams: &[&EventStream],
    dead_time_s: f64,
) -> MergeReport {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let period = streams.first().map_or(0.0, |s| s.tick_period_s());
    let mut merged = Vec::with_capacity(total);
    let mut collisions = 0usize;
    let mut link_free_at = f64::NEG_INFINITY;
    for ae in events {
        let t = tick_to_seconds(ae.event.tick, period);
        if t < link_free_at {
            collisions += 1;
            continue;
        }
        link_free_at = t + dead_time_s;
        merged.push(ae);
    }
    MergeReport { merged, collisions }
}

/// One per-channel cursor in the k-way merge, ordered by tick, ties
/// broken by channel. The heap holds one cursor per channel, so
/// `(tick, channel)` is unique in it, and equal ticks within a channel
/// leave in slice order.
struct HeapEntry<'a> {
    current: &'a Event,
    channel: u8,
    rest: &'a [Event],
}

impl HeapEntry<'_> {
    fn key(&self) -> (u64, u8) {
        (self.current.tick, self.channel)
    }
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapEntry<'_> {}
impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the merge needs the min.
        other.key().cmp(&self.key())
    }
}

/// Streaming k-way merge over per-channel event slices: `O(N log k)`
/// with only k cursors live, instead of materialising and sorting all N
/// events.
struct HeapMerge<'a> {
    heap: BinaryHeap<HeapEntry<'a>>,
}

impl<'a> HeapMerge<'a> {
    fn new(streams: &[&'a EventStream]) -> Self {
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (ch, s) in streams.iter().enumerate() {
            if let Some((first, rest)) = s.events().split_first() {
                heap.push(HeapEntry {
                    current: first,
                    channel: ch as u8,
                    rest,
                });
            }
        }
        HeapMerge { heap }
    }
}

impl Iterator for HeapMerge<'_> {
    type Item = AddressedEvent;

    fn next(&mut self) -> Option<AddressedEvent> {
        let top = self.heap.pop()?;
        let out = AddressedEvent {
            channel: top.channel,
            event: *top.current,
        };
        if let Some((next, rest)) = top.rest.split_first() {
            self.heap.push(HeapEntry {
                current: next,
                channel: top.channel,
                rest,
            });
        }
        Some(out)
    }
}

/// Splits a merged AER stream back into per-channel [`EventStream`]s
/// (the receiver-side demultiplexer).
pub fn demux(
    merged: &[AddressedEvent],
    n_channels: usize,
    tick_rate_hz: f64,
    duration_s: f64,
) -> Vec<EventStream> {
    let mut per_channel: Vec<Vec<Event>> = vec![Vec::new(); n_channels];
    for ae in merged {
        if usize::from(ae.channel) < n_channels {
            per_channel[usize::from(ae.channel)].push(ae.event);
        }
    }
    per_channel
        .into_iter()
        .map(|evs| EventStream::new(evs, tick_rate_hz, duration_s))
        .collect()
}

/// Fans an [`EncoderBank`] out over per-channel signals and merges the
/// resulting streams onto one serial AER link — the multi-channel
/// front half of the unified pipeline API.
///
/// # Example
///
/// ```
/// use datc_core::{DatcConfig, DatcEncoder, EncoderBank, TraceLevel};
/// use datc_uwb::aer::merge_encoder_bank;
/// use datc_signal::Signal;
///
/// let cfg = DatcConfig::paper().with_trace_level(TraceLevel::Events);
/// let bank = EncoderBank::replicate(DatcEncoder::new(cfg), 2);
/// let ch0 = Signal::from_fn(2500.0, 1.0, |t| (t * 40.0).sin().abs() * 0.5);
/// let ch1 = Signal::from_fn(2500.0, 1.0, |t| (t * 31.0).sin().abs() * 0.4);
/// let report = merge_encoder_bank(&bank, &[ch0, ch1], 25e-6);
/// assert!(!report.merged.is_empty());
/// ```
pub fn merge_encoder_bank<E: SpikeEncoder>(
    bank: &EncoderBank<E>,
    signals: &[Signal],
    dead_time_s: f64,
) -> MergeReport {
    merge_channels(&bank.encode_events(signals), dead_time_s)
}

/// Number of address bits needed for `n_channels`.
pub fn address_bits(n_channels: usize) -> u8 {
    if n_channels <= 1 {
        return 0;
    }
    (usize::BITS - (n_channels - 1).leading_zeros()) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2 kHz stream with events at `ticks`.
    fn stream(ticks: &[u64]) -> EventStream {
        let evs: Vec<Event> = ticks
            .iter()
            .map(|&tick| Event {
                tick,
                vth_code: Some(3),
            })
            .collect();
        EventStream::new(evs, 2000.0, 1.0)
    }

    /// The collect-all-then-stable-sort merge: the reference the heap
    /// merge must reproduce exactly.
    fn merge_by_sort(streams: &[&EventStream]) -> Vec<AddressedEvent> {
        let mut all: Vec<AddressedEvent> = Vec::new();
        for (ch, s) in streams.iter().enumerate() {
            for e in s.iter() {
                all.push(AddressedEvent {
                    channel: ch as u8,
                    event: *e,
                });
            }
        }
        all.sort_by_key(|ae| ae.event.tick);
        all
    }

    #[test]
    fn addressed_events_are_address_plus_event() {
        assert_eq!(std::mem::size_of::<AddressedEvent>(), 24);
    }

    #[test]
    fn non_overlapping_channels_merge_losslessly() {
        let a = stream(&[200, 600]);
        let b = stream(&[400, 800]);
        let rep = merge_channels(&[a, b], 0.01);
        assert_eq!(rep.merged.len(), 4);
        assert_eq!(rep.collisions, 0);
        // strictly time ordered
        assert!(rep
            .merged
            .windows(2)
            .all(|w| w[0].event.tick <= w[1].event.tick));
    }

    #[test]
    fn contention_drops_later_event() {
        let a = stream(&[200]);
        let b = stream(&[201]);
        let rep = merge_channels(&[a, b], 0.01);
        assert_eq!(rep.merged.len(), 1);
        assert_eq!(rep.collisions, 1);
        assert_eq!(rep.merged[0].channel, 0);
    }

    #[test]
    fn zero_dead_time_never_collides() {
        let a = stream(&[200, 200, 200]);
        let rep = merge_channels(&[a], 0.0);
        assert_eq!(rep.collisions, 0);
        assert_eq!(rep.merged.len(), 3);
    }

    #[test]
    fn demux_restores_channels() {
        let a = stream(&[200, 1000]);
        let b = stream(&[600]);
        let rep = merge_channels(&[a, b], 0.001);
        let back = demux(&rep.merged, 2, 2000.0, 1.0);
        assert_eq!(back[0].len(), 2);
        assert_eq!(back[1].len(), 1);
    }

    #[test]
    fn heap_merge_is_bit_identical_to_sort_merge() {
        // Many channels, cross-channel tick ties, ragged lengths: the
        // k-way heap path must reproduce the stable sort exactly,
        // including tie order (channel, then within-channel index).
        let mut streams = Vec::new();
        let mut x = 0x9E37u64;
        for ch in 0..24u64 {
            let mut ticks = Vec::new();
            let mut tick = 0u64;
            for _ in 0..(ch % 7) * 5 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // steps of 0..=3 ticks force repeats and exact
                // cross-channel ties
                tick += x % 4;
                ticks.push(tick);
            }
            streams.push(stream(&ticks));
        }
        let refs: Vec<&EventStream> = streams.iter().collect();
        assert!(
            refs.iter()
                .any(|s| s.events().windows(2).any(|w| w[0].tick == w[1].tick)),
            "the fixture must hold within-channel tick repeats"
        );
        // none, exactly one tick, and twenty ticks
        for dead_time in [0.0, 0.0005, 0.01] {
            let sorted = apply_dead_time(merge_by_sort(&refs).into_iter(), &refs, dead_time);
            let merged = merge_channel_refs(&refs, dead_time);
            assert_eq!(merged, sorted, "dead_time {dead_time}");
        }
    }

    #[test]
    #[should_panic(expected = "one AER link carries one tick rate")]
    fn mixed_rate_merge_rejected() {
        let fast = stream(&[1, 2]);
        let slow = EventStream::new(
            vec![Event {
                tick: 1,
                vth_code: None,
            }],
            1000.0,
            1.0,
        );
        let _ = merge_channels(&[fast, slow], 0.0);
    }

    #[test]
    #[should_panic(expected = "AER addresses are 8 bits")]
    fn more_than_256_channels_rejected() {
        let streams: Vec<EventStream> = (0..257).map(|_| stream(&[200])).collect();
        let _ = merge_channels(&streams, 0.001);
    }

    #[test]
    fn address_bits_formula() {
        assert_eq!(address_bits(1), 0);
        assert_eq!(address_bits(2), 1);
        assert_eq!(address_bits(3), 2);
        assert_eq!(address_bits(8), 3);
        assert_eq!(address_bits(9), 4);
    }
}
