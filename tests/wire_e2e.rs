//! Gateway loopback smoke test (the CI gate for the wire subsystem):
//! spawn a `TelemetryHub` on an ephemeral loopback port, push N
//! concurrent fleet-encoded sensor sessions through it, and assert zero
//! decode loss plus bit-exact agreement with the batch receive path.

use datc::core::{DatcConfig, EventStream, TraceLevel};
use datc::engine::FleetRunner;
use datc::rx::windowing::sliding_rate;
use datc::signal::generator::semg_fleet;
use datc::wire::{stream_fleet, HubConfig, TelemetryHub};

#[test]
fn gateway_loopback_serves_n_sessions_with_zero_loss() {
    const N_SESSIONS: u32 = 6;
    const CHANNELS: usize = 4;
    const DEAD_TIME: f64 = 25e-6;

    let hub = TelemetryHub::bind("127.0.0.1:0", HubConfig::default()).expect("bind loopback");
    let addr = hub.local_addr();

    // N concurrent sensors, each a fleet encode of its own recording.
    let handles: Vec<_> = (0..N_SESSIONS)
        .map(|id| {
            std::thread::spawn(move || {
                let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
                let signals = semg_fleet(CHANNELS, 2.0, 1000 + u64::from(id) * 17);
                let fleet = FleetRunner::new(config, CHANNELS)
                    .expect("valid fleet")
                    .encode(&signals);
                let sent = fleet.merge_aer(DEAD_TIME).merged.len() as u64;
                let client = stream_fleet(addr, id, &fleet, DEAD_TIME).expect("stream session");
                assert_eq!(client.events_sent, sent);
                (id, fleet, sent)
            })
        })
        .collect();
    let sent: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), N_SESSIONS as usize, "every session lands");

    for (id, fleet, events_sent) in &sent {
        let s = sessions
            .iter()
            .find(|s| s.session_id == *id)
            .expect("session in table");
        // zero decode loss, clean books
        assert_eq!(s.report.stats.events_decoded, *events_sent, "session {id}");
        assert_eq!(s.report.stats.events_lost, 0);
        assert_eq!(s.report.stats.crc_failures, 0);
        assert_eq!(s.report.stats.duplicate_frames, 0);
        assert!(s.report.stats.closed, "BYE processed");
        assert!(s.report.force_is_finite());

        // the hub's streaming per-channel reconstruction is bit-exact
        // with batch sliding-rate over the locally merged+demuxed stream
        let header = s.report.header.expect("hello processed");
        let merged = fleet.merge_aer(DEAD_TIME);
        let demuxed = datc::uwb::aer::demux(
            &merged.merged,
            CHANNELS,
            header.tick_rate_hz,
            header.duration_s,
        );
        // (2 s sessions stay under the hub's bounded force window, so
        // the retained tail is the whole trace)
        for (ch, stream) in demuxed.iter().enumerate() {
            let batch = sliding_rate(stream, 0.25, 100.0);
            assert_eq!(
                s.report.force_tail[ch],
                batch.samples(),
                "session {id} channel {ch}"
            );
        }
    }
}

#[test]
fn wire_round_trip_preserves_fleet_event_streams_exactly() {
    // encode → packetize → decode → demux == the original per-channel
    // streams, ticks and codes exactly.
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let signals = semg_fleet(3, 1.5, 77);
    let fleet = FleetRunner::new(config, 3).unwrap().encode(&signals);
    let merged = fleet.merge_aer(25e-6);

    let header = datc::wire::SessionHeader::new(
        9,
        3,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    let wire = datc::wire::packet::encode_session(header, &merged.merged);
    let mut rx = datc::wire::StreamDecoder::new();
    for chunk in wire.chunks(777) {
        rx.push_bytes(chunk);
    }
    let mut decoded = Vec::new();
    rx.drain_events(&mut decoded);
    assert_eq!(decoded, merged.merged);

    let back = datc::uwb::aer::demux(&decoded, 3, header.tick_rate_hz, header.duration_s);
    let reference =
        datc::uwb::aer::demux(&merged.merged, 3, header.tick_rate_hz, header.duration_s);
    for (ch, (a, b)) in back.iter().zip(&reference).enumerate() {
        let eq = |s: &EventStream| s.events().to_vec();
        assert_eq!(eq(a), eq(b), "channel {ch}");
    }
}
