//! Property tests for the wire subsystem — the PR's acceptance gates:
//!
//! * encode → packetize → decode reproduces the original
//!   `AddressedEvent` sequence *exactly*, for any channel count ≤ 256
//!   and arbitrary event timing;
//! * with loss injected through the deterministic [`ChaosLink`], the
//!   decoder reports the exact number of lost events — total and per
//!   channel — and the online reconstructor still produces a finite,
//!   full-length force trace, for *any* chaos seed;
//! * byte-damaging profiles (bit corruption, truncation) replay
//!   bit-for-bit from their seed and never panic the decode path.

use datc_core::Event;
use datc_uwb::aer::AddressedEvent;
use datc_wire::chaos::{ChaosLink, ChaosProfile};
use datc_wire::decode::StreamDecoder;
use datc_wire::packet::{Packetizer, SessionHeader};
use datc_wire::session::{SessionRx, SessionRxConfig};
use proptest::prelude::*;

/// A random session: header plus a tick-ordered addressed-event stream.
fn arb_session() -> impl Strategy<Value = (SessionHeader, Vec<AddressedEvent>)> {
    (
        1u16..=256, // channel count
        prop_oneof![
            Just(1000.0f64),
            Just(2000.0),
            Just(2500.0),
            Just(48000.0),
            Just(1e6),
        ], // tick rate
        proptest::collection::vec(
            (0u64..5000, any::<u8>(), any::<bool>(), any::<u8>()),
            0..400,
        ), // (tick gap, addr seed, has_code, code)
        any::<u32>(), // session id
    )
        .prop_map(|(channels, rate, raw, id)| {
            let header = SessionHeader::new(id, channels, rate, 60.0);
            let mut tick = 0u64;
            let events: Vec<AddressedEvent> = raw
                .into_iter()
                .map(|(gap, addr, has_code, code)| {
                    tick += gap; // non-decreasing, gaps 0..5000 ticks
                    AddressedEvent {
                        channel: (u16::from(addr) % channels) as u8,
                        event: Event {
                            tick,
                            vth_code: has_code.then_some(code),
                        },
                    }
                })
                .collect();
            (header, events)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_is_exact_for_any_session(
        session in arb_session(),
        frame_size in 1usize..80,
        chunk_size in 1usize..512,
    ) {
        let (header, events) = session;
        let mut tx = Packetizer::new(header).with_events_per_frame(frame_size);
        let mut wire = tx.hello();
        for f in tx.data_frames(&events) {
            wire.extend_from_slice(&f);
        }
        wire.extend_from_slice(&tx.bye());

        // arbitrary transport fragmentation
        let mut rx = StreamDecoder::new();
        for chunk in wire.chunks(chunk_size) {
            rx.push_bytes(chunk);
        }
        let mut decoded = Vec::new();
        rx.drain_events(&mut decoded);

        prop_assert_eq!(&decoded, &events, "exact sequence round trip");
        let stats = rx.stats();
        prop_assert_eq!(stats.events_decoded, events.len() as u64);
        prop_assert_eq!(stats.events_lost, 0);
        prop_assert_eq!(stats.crc_failures, 0);
        prop_assert!(stats.closed);
    }

    #[test]
    fn injected_loss_is_counted_exactly_and_force_stays_finite(
        session in arb_session(),
        frame_size in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (header, events) = session;
        let mut tx = Packetizer::new(header).with_events_per_frame(frame_size);
        let hello = tx.hello();
        let data = tx.data_frames(&events);
        let bye = tx.bye();

        // A drop-only chaos link under an arbitrary seed: the fate log
        // is the ground truth the decoder's books must match exactly.
        let mut link = ChaosLink::new(seed, ChaosProfile {
            name: "drop-only",
            drop: 0.25,
            ..ChaosProfile::ideal()
        });
        let mut rx = SessionRx::new(SessionRxConfig::default());
        rx.push_bytes(&hello);
        let mut out: Vec<Vec<u8>> = Vec::new();
        for f in &data {
            out.clear();
            link.push(f, &mut out);
            for unit in &out {
                rx.push_bytes(unit);
            }
        }
        rx.push_bytes(&bye);
        let report = rx.finish();

        let frame_events = |i: usize| {
            let lo = i * frame_size;
            let hi = events.len().min(lo + frame_size);
            &events[lo..hi]
        };
        let dropped_events: u64 = link
            .fates()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_lost())
            .map(|(i, _)| frame_events(i).len() as u64)
            .sum();

        prop_assert_eq!(report.stats.events_lost, dropped_events,
            "decoder must count the injected loss exactly");
        prop_assert_eq!(
            report.stats.events_decoded + report.stats.events_lost,
            events.len() as u64
        );
        // per-channel loss figures reconcile to the same total
        let per_channel_lost: u64 = report
            .stats
            .per_channel
            .iter()
            .map(|c| c.lost.expect("closed session has exact per-channel loss"))
            .sum();
        prop_assert_eq!(per_channel_lost, dropped_events);

        // and the online reconstruction still produced a full-length,
        // finite trace for every channel
        prop_assert!(report.force_is_finite());
        let n_out = (header.duration_s * 100.0).floor() as usize;
        for trace in &report.force_tail {
            prop_assert_eq!(trace.len(), n_out);
        }
    }

    /// The UDP transport model: every framed chunk is one datagram, and
    /// the network may drop, duplicate and reorder them (within the
    /// chaos profile's bounded span).
    /// The decoder must (a) account the loss exactly, per channel,
    /// (b) count every duplicate, and (c) reconstruct the surviving
    /// events exactly — the threshold track over the survivors must be
    /// bit-identical to the batch reconstruction of the same survivor
    /// stream.
    #[test]
    fn datagram_drop_reorder_dup_yields_exact_loss_accounting(
        session in arb_session(),
        frame_size in 1usize..32,
        seed in any::<u64>(),
    ) {
        use datc_core::event::EventStream;
        use datc_rx::online::OnlineReconSelect;
        use datc_rx::reconstruct::{Reconstructor, ThresholdTrackReconstructor};

        let (header, events) = session;
        let mut tx = Packetizer::new(header).with_events_per_frame(frame_size);
        let hello = tx.hello();
        let data = tx.data_frames(&events);
        let bye = tx.bye();

        // Per-datagram fate from a chaos link under an arbitrary seed:
        // heavy drop, duplication and bounded reorder all at once.
        let mut link = ChaosLink::new(seed, ChaosProfile {
            name: "datagram-storm",
            drop: 0.25,
            duplicate: 0.25,
            reorder: 0.25,
            reorder_span: 12,
            ..ChaosProfile::ideal()
        });

        // A reorder window larger than the whole session absorbs any
        // displacement, so the only loss is the dropped datagrams.
        let mut rx = SessionRx::new(SessionRxConfig {
            recon: OnlineReconSelect::paper_threshold_track(),
            reorder_window: data.len() + 2,
            ..SessionRxConfig::default()
        });
        rx.push_bytes(&hello);
        let mut out: Vec<Vec<u8>> = Vec::new();
        for f in &data {
            out.clear();
            link.push(f, &mut out);
            for unit in &out {
                rx.push_bytes(unit);
            }
        }
        out.clear();
        link.flush(&mut out); // pending reorder holds
        for unit in &out {
            rx.push_bytes(unit);
        }
        rx.push_bytes(&bye);
        let report = rx.finish();

        let dropped_frames: Vec<usize> = link
            .fates()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_lost())
            .map(|(i, _)| i)
            .collect();
        let extra_copies = link.stats().duplicated;

        // (a) exact loss accounting, total and per channel
        let frame_events = |i: usize| {
            let lo = i * frame_size;
            let hi = events.len().min(lo + frame_size);
            &events[lo..hi]
        };
        let dropped_events: u64 = dropped_frames.iter().map(|&i| frame_events(i).len() as u64).sum();
        prop_assert_eq!(report.stats.events_lost, dropped_events);
        prop_assert_eq!(
            report.stats.events_decoded + report.stats.events_lost,
            events.len() as u64
        );
        let mut lost_per_channel = vec![0u64; usize::from(header.n_channels)];
        for &i in &dropped_frames {
            for ae in frame_events(i) {
                lost_per_channel[usize::from(ae.channel)] += 1;
            }
        }
        for (ch, stats) in report.stats.per_channel.iter().enumerate() {
            prop_assert_eq!(
                stats.lost,
                Some(lost_per_channel[ch]),
                "channel {} loss", ch
            );
        }

        // (b) every duplicate datagram is counted
        prop_assert_eq!(report.stats.duplicate_frames, extra_copies);

        // (c) exact reconstruction on the survivors: bit-identical to
        // the batch threshold track over the survivor stream
        let mut survivors: Vec<AddressedEvent> = Vec::new();
        for i in 0..data.len() {
            if !dropped_frames.contains(&i) {
                survivors.extend_from_slice(frame_events(i));
            }
        }
        for ch in 0..usize::from(header.n_channels) {
            let ch_events: Vec<Event> = survivors
                .iter()
                .filter(|ae| usize::from(ae.channel) == ch)
                .map(|ae| ae.event)
                .collect();
            let stream = EventStream::new(ch_events, header.tick_rate_hz, header.duration_s);
            let batch = ThresholdTrackReconstructor::paper().reconstruct(&stream, 100.0);
            prop_assert_eq!(&report.force_tail[ch], batch.samples(), "channel {}", ch);
        }
    }

    #[test]
    fn reordering_and_duplication_never_corrupt_the_sequence(
        session in arb_session(),
        swap_seed in any::<u64>(),
    ) {
        let (header, events) = session;
        let mut tx = Packetizer::new(header).with_events_per_frame(8);
        let hello = tx.hello();
        let mut data = tx.data_frames(&events);
        let bye = tx.bye();

        // local reorder within the decoder's window plus duplicates
        let mut x = swap_seed | 1;
        let mut i = 0;
        while i + 2 < data.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 1 {
                data.swap(i, i + 2);
            }
            i += 3;
        }
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&hello);
        for f in &data {
            rx.push_bytes(f);
            if x & 2 == 2 {
                rx.push_bytes(f); // duplicate some frames wholesale
            }
        }
        rx.push_bytes(&bye);
        rx.finish();
        let mut decoded = Vec::new();
        rx.drain_events(&mut decoded);

        prop_assert_eq!(&decoded, &events, "window-sized reorder is absorbed");
        prop_assert_eq!(rx.stats().events_lost, 0);
    }

    /// The chaos layer's own contract, for any seed × profile pair:
    ///
    /// * byte-exact profiles (drop/duplicate/reorder/stall/outage —
    ///   survivors arrive undamaged) yield *exact* loss books, because
    ///   every surviving frame decodes and every lost frame is a
    ///   precisely-sized hole;
    /// * byte-damaging profiles (bit corruption, truncation) cannot
    ///   promise exact books on arbitrary seeds (a damaged frame passes
    ///   a 16-bit CRC with ~2⁻¹⁶ odds), but must stay deterministic —
    ///   the same seed replays the same fates and the same decode —
    ///   and must never panic or produce a non-finite force trace.
    #[test]
    fn any_seed_any_profile_upholds_the_accounting_invariants(
        session in arb_session(),
        frame_size in 1usize..32,
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let (header, events) = session;
        let profile = [
            ChaosProfile::ideal(),
            ChaosProfile::lossy(),
            ChaosProfile::bursty(),
            ChaosProfile::outage(7, 2),
            ChaosProfile::mangler(),
        ][which];

        let mut tx = Packetizer::new(header).with_events_per_frame(frame_size);
        let hello = tx.hello();
        let data = tx.data_frames(&events);
        let bye = tx.bye();

        let decode_under = |link: &mut ChaosLink| {
            let mut rx = SessionRx::new(SessionRxConfig {
                reorder_window: data.len() + 2,
                ..SessionRxConfig::default()
            });
            rx.push_bytes(&hello);
            let mut out: Vec<Vec<u8>> = Vec::new();
            for f in &data {
                out.clear();
                link.push(f, &mut out);
                for unit in &out {
                    rx.push_bytes(unit);
                }
            }
            out.clear();
            link.flush(&mut out);
            for unit in &out {
                rx.push_bytes(unit);
            }
            rx.push_bytes(&bye);
            rx.finish()
        };

        let mut link = ChaosLink::new(seed, profile);
        let report = decode_under(&mut link);

        // Universal invariants: no panic got us here; the books are
        // closed by the (chaos-exempt) BYE and the force is finite.
        prop_assert!(report.stats.closed, "profile {} seed {:#x}", profile.name, seed);
        prop_assert!(report.force_is_finite(), "profile {} seed {:#x}", profile.name, seed);

        if profile.is_byte_exact() {
            // Survivors arrive undamaged: exact loss accounting, total
            // and per channel, straight from the fate log.
            let frame_events = |i: usize| {
                let lo = i * frame_size;
                let hi = events.len().min(lo + frame_size);
                &events[lo..hi]
            };
            let expected_lost: u64 = link
                .fates()
                .iter()
                .enumerate()
                .filter(|(_, f)| f.is_lost())
                .map(|(i, _)| frame_events(i).len() as u64)
                .sum();
            prop_assert_eq!(
                report.stats.events_lost, expected_lost,
                "profile {} seed {:#x}", profile.name, seed
            );
            prop_assert_eq!(
                report.stats.events_decoded + report.stats.events_lost,
                events.len() as u64,
                "profile {} seed {:#x}", profile.name, seed
            );
            let mut lost_per_channel = vec![0u64; usize::from(header.n_channels)];
            for (i, fate) in link.fates().iter().enumerate() {
                if fate.is_lost() {
                    for ae in frame_events(i) {
                        lost_per_channel[usize::from(ae.channel)] += 1;
                    }
                }
            }
            for (ch, stats) in report.stats.per_channel.iter().enumerate() {
                prop_assert_eq!(
                    stats.lost,
                    Some(lost_per_channel[ch]),
                    "profile {} seed {:#x} channel {}", profile.name, seed, ch
                );
            }
        } else {
            // Byte-damaging profile: determinism is the contract. The
            // same seed must replay the identical fault schedule and
            // the identical decode outcome.
            let mut replay = ChaosLink::new(seed, profile);
            let replayed = decode_under(&mut replay);
            prop_assert_eq!(link.fates(), replay.fates());
            prop_assert_eq!(
                replayed.stats, report.stats,
                "profile {} seed {:#x} must replay bit-for-bit", profile.name, seed
            );
        }
    }
}
