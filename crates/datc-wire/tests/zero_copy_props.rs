//! Golden-reference equivalence for the zero-copy decode rewrite.
//!
//! The PR that introduced [`EventBatch`] replaced the owned
//! `Vec<WireEvent>` decoder with an in-place struct-of-arrays parse and
//! a SWAR varint fast path. These properties pin the rewrite to the old
//! behaviour: the **pre-rewrite `decode_data` implementation is
//! embedded verbatim below** as the golden model, and the new path must
//! agree with it bit for bit —
//!
//! * on every well-formed payload the packetizer can produce (including
//!   multi-byte delta extensions that exercise the SWAR word loads);
//! * on arbitrary byte soup and on single-byte corruptions of valid
//!   payloads (accept/reject decisions must match exactly);
//! * at the stream level, across arbitrary transport fragmentation and
//!   every chaos profile, with the SWAR path and the forced-scalar path
//!   producing identical batches and identical loss books.

use datc_uwb::aer::AddressedEvent;
use datc_wire::batch::EventBatch;
use datc_wire::chaos::{ChaosLink, ChaosProfile};
use datc_wire::decode::StreamDecoder;
use datc_wire::packet::{decode_data_into_with, encode_data, Packetizer, SessionHeader, WireEvent};
use datc_wire::varint::VarintPolicy;
use proptest::prelude::*;

/// The pre-rewrite owned decoder, embedded verbatim (modulo the local
/// constant/struct definitions it needs to be self-contained). This is
/// the golden model: it was the shipped behaviour for every session the
/// chaos soak and the loss-accounting proptests ever certified.
mod golden {
    use super::WireEvent;
    use datc_wire::varint::read_varint;

    const KEY_HAS_CODE: u8 = 0x80;
    const KEY_EXT: u8 = 0x40;
    const KEY_DELTA_MASK: u8 = 0x3F;
    const MAX_PAYLOAD: usize = 4096;

    pub struct GoldenPacket {
        pub first_index: u64,
        pub events: Vec<WireEvent>,
    }

    pub fn decode_data(payload: &[u8]) -> Option<GoldenPacket> {
        let (first_index, mut off) = read_varint(payload)?;
        let (n, used) = read_varint(&payload[off..])?;
        off += used;
        let mut events = Vec::with_capacity(n.min(MAX_PAYLOAD as u64) as usize);
        let mut prev_tick: Option<u64> = None;
        for _ in 0..n {
            let addr = *payload.get(off)?;
            let key = *payload.get(off + 1)?;
            off += 2;
            let mut delta = u64::from(key & KEY_DELTA_MASK);
            if key & KEY_EXT != 0 {
                let (ext, used) = read_varint(&payload[off..])?;
                off += used;
                delta |= ext.checked_shl(6).filter(|&v| v >> 6 == ext)?;
            }
            let code = if key & KEY_HAS_CODE != 0 {
                let c = *payload.get(off)?;
                off += 1;
                Some(c)
            } else {
                None
            };
            let tick = match prev_tick {
                None => delta,
                Some(p) => p.checked_add(delta)?,
            };
            prev_tick = Some(tick);
            events.push(WireEvent { addr, tick, code });
        }
        (off == payload.len()).then_some(GoldenPacket {
            first_index,
            events,
        })
    }
}

/// Decode `payload` through the zero-copy path under `policy`,
/// normalised to the golden model's shape for comparison.
fn decode_new(payload: &[u8], policy: VarintPolicy) -> Option<(u64, Vec<WireEvent>)> {
    let mut batch = EventBatch::new();
    let first = decode_data_into_with(payload, &mut batch, policy)?;
    Some((first, batch.iter().collect()))
}

/// Assert both new-path policies agree with the golden model on a
/// single payload — on rejection as much as on content.
fn assert_payload_equivalence(payload: &[u8]) {
    let want = golden::decode_data(payload).map(|p| (p.first_index, p.events));
    for policy in [VarintPolicy::Auto, VarintPolicy::ForceScalar] {
        let got = decode_new(payload, policy);
        assert_eq!(
            got, want,
            "policy {policy:?} diverged from the golden decoder on {payload:02x?}"
        );
    }
}

/// A tick-ordered wire-event run whose gaps cover every varint regime:
/// zero/small deltas (inline 6-bit), mid-size (1–2 ext bytes, the SWAR
/// word's bread and butter) and huge (up to the 58-bit shift guard).
fn arb_wire_events() -> impl Strategy<Value = Vec<WireEvent>> {
    proptest::collection::vec(
        (
            prop_oneof![
                0u64..64,                   // inline, no ext byte
                64u64..1 << 13,             // 1-byte ext
                (1u64 << 13)..1 << 20,      // 2–3 byte ext
                (1u64 << 40)..(1u64 << 57), // near the shift guard
            ],
            any::<u8>(),
            any::<bool>(),
            any::<u8>(),
        ),
        0..200,
    )
    .prop_map(|raw| {
        let mut tick = 0u64;
        raw.into_iter()
            .map(|(gap, addr, has_code, code)| {
                // saturating: a run of near-2^57 gaps must stay
                // tick-ordered, not wrap
                tick = tick.saturating_add(gap);
                WireEvent {
                    addr,
                    tick,
                    code: has_code.then_some(code),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every payload the encoder can produce decodes identically under
    /// the golden model, the SWAR path and the forced-scalar path.
    #[test]
    fn encoded_payloads_decode_bit_identically_to_golden(
        events in arb_wire_events(),
        first_index in any::<u64>(),
    ) {
        let payload = encode_data(first_index, &events);
        let want = golden::decode_data(&payload).expect("encoder output is well-formed");
        prop_assert_eq!(want.first_index, first_index);
        prop_assert_eq!(&want.events, &events, "golden decoder round-trips the encoder");
        assert_payload_equivalence(&payload);
    }

    /// Arbitrary byte soup: accept/reject and decoded content must
    /// match the golden model exactly — including payloads that are
    /// *almost* valid (one byte of a valid payload flipped), where an
    /// off-by-one in the borrowed-buffer parse would show up first.
    #[test]
    fn byte_soup_and_corrupted_payloads_agree_with_golden(
        soup in proptest::collection::vec(any::<u8>(), 0..300),
        events in arb_wire_events(),
        first_index in any::<u64>(),
        flip_at in any::<usize>(),
        flip_mask in 1u8..=255,
    ) {
        assert_payload_equivalence(&soup);

        let mut payload = encode_data(first_index, &events);
        if !payload.is_empty() {
            let at = flip_at % payload.len();
            payload[at] ^= flip_mask;
            assert_payload_equivalence(&payload);
        }
    }

    /// Truncations at every boundary of a valid payload: the borrowed
    /// parse must reject exactly the prefixes the golden model rejects
    /// (an in-place reader that trusts a length it has not checked
    /// would accept a short buffer here).
    #[test]
    fn every_truncation_of_a_valid_payload_agrees_with_golden(
        events in arb_wire_events(),
        first_index in any::<u64>(),
    ) {
        let payload = encode_data(first_index, &events);
        for end in 0..payload.len() {
            assert_payload_equivalence(&payload[..end]);
        }
    }

    /// Stream level: arbitrary fragmentation × every chaos profile. The
    /// SWAR decoder and the forced-scalar decoder see the same damaged
    /// byte stream and must produce identical SoA batches and identical
    /// books — loss, duplicates, CRC failures, per-channel counts.
    #[test]
    fn stream_decode_is_policy_invariant_under_chaos(
        session in arb_session(),
        frame_size in 1usize..40,
        chunk_size in 1usize..512,
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
        let mut wire = tx.hello();
        let data = tx.data_frames(&events);
        let mut link = ChaosLink::new(seed, profile);
        let mut out: Vec<Vec<u8>> = Vec::new();
        for f in &data {
            link.push(f, &mut out);
        }
        link.flush(&mut out);
        for unit in &out {
            wire.extend_from_slice(unit);
        }
        wire.extend_from_slice(&tx.bye());

        let mut auto = StreamDecoder::new();
        let mut scalar = StreamDecoder::new().with_varint_policy(VarintPolicy::ForceScalar);
        for chunk in wire.chunks(chunk_size) {
            auto.push_bytes(chunk);
            scalar.push_bytes(chunk);
        }
        let (mut a, mut s) = (EventBatch::new(), EventBatch::new());
        auto.drain_batch(&mut a);
        scalar.drain_batch(&mut s);
        prop_assert_eq!(&a, &s, "profile {} seed {:#x}", profile.name, seed);
        prop_assert_eq!(auto.stats(), scalar.stats(), "profile {} seed {:#x}", profile.name, seed);
    }
}

/// Same random-session strategy as `wire_props` (duplicated here — the
/// two files are separate integration-test binaries).
fn arb_session() -> impl Strategy<Value = (SessionHeader, Vec<AddressedEvent>)> {
    use datc_core::Event;
    (
        1u16..=256,
        prop_oneof![Just(1000.0f64), Just(2500.0), Just(48000.0), Just(1e6)],
        proptest::collection::vec(
            (0u64..5000, any::<u8>(), any::<bool>(), any::<u8>()),
            0..400,
        ),
        any::<u32>(),
    )
        .prop_map(|(channels, rate, raw, id)| {
            let header = SessionHeader::new(id, channels, rate, 60.0);
            let mut tick = 0u64;
            let events: Vec<AddressedEvent> = raw
                .into_iter()
                .map(|(gap, addr, has_code, code)| {
                    tick += gap;
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
