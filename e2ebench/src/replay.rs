//! Single-threaded replays of the pool's sessions through the wire and
//! receive layers, timed around public calls: the per-event cost of
//! each layer without transport or thread hand-offs.

use std::hint::black_box;
use std::time::Instant;

use datc_engine::FleetRunner;
use datc_obs::Registry;
use datc_uwb::aer::AddressedEvent;
use datc_wire::chaos::{ChaosLink, ChaosProfile};
use datc_wire::gateway::HubConfig;
use datc_wire::obs::SessionObs;
use datc_wire::packet::{Packetizer, SessionHeader};
use datc_wire::session::{SessionRx, SessionRxConfig};
use datc_wire::sink::SessionSink;
use datc_wire::{EventBatch, StreamDecoder};

use crate::pool::{Pool, CHANNELS};
use crate::stats::median;
use crate::system::{DEAD_TIME_S, UDP_CHUNK};

/// Replays per pool entry and layer.
const REPS: usize = 5;
/// Read size of the TCP hub's worker loop.
const HUB_READ: usize = 4096;

/// Per-layer replay results, medians over every replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCosts {
    /// `Packetizer` HELLO + DATA + BYE, ns per event.
    pub packet_ns_per_event: f64,
    /// Wire bytes per event, framing included.
    pub bytes_per_event: f64,
    /// Frames per session (HELLO + DATA + BYE).
    pub frames_per_session: f64,
    /// `StreamDecoder::push_bytes` + drain of the whole image, ns/event.
    pub decode_ns_per_event: f64,
    /// `SessionRx` push + finish with the default config, ns/event.
    pub session_ns_per_event: f64,
    /// `SessionRx` as the hub runs it (its config, `SessionObs`, a sink,
    /// 4 KiB pushes with a feedback check each), ns/event.
    pub hub_ns_per_event: f64,
}

/// One entry's wire image: what a lossless sender writes.
pub struct Image {
    /// Events the encoder produced (all channels, before the merge).
    pub encoded: u64,
    /// Events on the merged link.
    pub events: Vec<AddressedEvent>,
    /// The announced header.
    pub header: SessionHeader,
    /// HELLO + DATA + BYE bytes.
    pub bytes: Vec<u8>,
    /// Frames in `bytes`.
    pub frames: u64,
}

/// Encodes and packetizes every pool entry once.
pub fn images(runner: &FleetRunner, pool: &Pool) -> Vec<Image> {
    pool.sessions
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let fleet = runner.encode(&s.signals);
            let events = fleet.merge_aer(DEAD_TIME_S).merged;
            let first = &fleet.channels[0].events;
            let header = SessionHeader::new(
                k as u32 + 1,
                CHANNELS as u16,
                first.tick_rate_hz(),
                first.duration_s(),
            );
            let (bytes, frames) = packetize(header, &events);
            Image {
                encoded: fleet.total_events() as u64,
                events,
                header,
                bytes,
                frames,
            }
        })
        .collect()
}

fn packetize(header: SessionHeader, events: &[AddressedEvent]) -> (Vec<u8>, u64) {
    let mut tx = Packetizer::new(header);
    let mut bytes = tx.hello();
    for f in tx.data_frames(events) {
        bytes.extend_from_slice(&f);
    }
    bytes.extend_from_slice(&tx.bye());
    (bytes, tx.frames_emitted())
}

/// Chaos drops of each schedule: schedule `j`'s lossy link fed the
/// DATA frames the UDP sender emits for entry `j % images.len()` (one
/// `data_frames` call per `UDP_CHUNK` events). Fates depend only on the
/// seed and the frame index, so this is what the live link drops.
pub fn chaos_drops(images: &[Image], seeds: &[u64]) -> Vec<u64> {
    let frames: Vec<Vec<Vec<u8>>> = images
        .iter()
        .map(|img| {
            let mut tx = Packetizer::new(img.header);
            img.events
                .chunks(UDP_CHUNK)
                .flat_map(|chunk| tx.data_frames(chunk))
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    seeds
        .iter()
        .enumerate()
        .map(|(j, &seed)| {
            let mut link = ChaosLink::new(seed, ChaosProfile::lossy());
            for f in &frames[j % images.len()] {
                out.clear();
                link.push(f, &mut out);
            }
            link.stats().dropped
        })
        .collect()
}

/// Keeps the force the hub would hand downstream, nothing else.
struct ForceSink(Vec<Vec<f64>>);

impl SessionSink for ForceSink {
    fn on_force(&mut self, channel: usize, samples: &[f64]) {
        if channel >= self.0.len() {
            self.0.resize(channel + 1, Vec::new());
        }
        self.0[channel].extend_from_slice(samples);
    }
}

/// Times every layer over every image, `REPS` times each, the layers
/// interleaved within a repetition so host drift hits them alike.
///
/// # Errors
///
/// Fails when a lossless replay does not decode every event.
pub fn measure(images: &[Image], hub: &HubConfig) -> Result<ReplayCosts, String> {
    let registry = Registry::new();
    let (mut packet, mut decode, mut session, mut hub_rx) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut batch = EventBatch::new();
    let mut label = 0u64;
    for _ in 0..REPS {
        for img in images {
            let n = img.events.len() as f64;

            let t = Instant::now();
            black_box(packetize(img.header, black_box(&img.events)));
            packet.push(t.elapsed().as_nanos() as f64 / n);

            let t = Instant::now();
            let mut dec = StreamDecoder::new();
            dec.push_bytes(black_box(&img.bytes));
            dec.finish();
            batch.clear();
            dec.drain_batch(&mut batch);
            decode.push(t.elapsed().as_nanos() as f64 / n);
            if batch.len() != img.events.len() {
                return Err(format!(
                    "decode replay delivered {} of {} events",
                    batch.len(),
                    img.events.len()
                ));
            }

            let t = Instant::now();
            let mut rx = SessionRx::new(SessionRxConfig::default());
            rx.push_bytes(black_box(&img.bytes));
            let report = rx.finish();
            session.push(t.elapsed().as_nanos() as f64 / n);
            check_lossless("session", report.stats.events_decoded, img)?;

            label += 1;
            let t = Instant::now();
            let obs = SessionObs::register(&registry, &label.to_string()).with_retire_on_finish();
            let mut rx = SessionRx::new(hub.session.clone())
                .with_metrics(obs)
                .with_sink(Box::new(ForceSink(Vec::new())));
            for chunk in img.bytes.chunks(HUB_READ) {
                rx.push_bytes(black_box(chunk));
                black_box(rx.feedback_due(0));
            }
            let report = rx.finish();
            hub_rx.push(t.elapsed().as_nanos() as f64 / n);
            check_lossless("hub", report.stats.events_decoded, img)?;
        }
    }
    let events: usize = images.iter().map(|i| i.events.len()).sum();
    let bytes: usize = images.iter().map(|i| i.bytes.len()).sum();
    let frames: u64 = images.iter().map(|i| i.frames).sum();
    Ok(ReplayCosts {
        packet_ns_per_event: median(&packet),
        bytes_per_event: bytes as f64 / events as f64,
        frames_per_session: frames as f64 / images.len() as f64,
        decode_ns_per_event: median(&decode),
        session_ns_per_event: median(&session),
        hub_ns_per_event: median(&hub_rx),
    })
}

fn check_lossless(what: &str, decoded: u64, img: &Image) -> Result<(), String> {
    if decoded == img.events.len() as u64 {
        Ok(())
    } else {
        Err(format!(
            "{what} replay decoded {decoded} of {} events",
            img.events.len()
        ))
    }
}
