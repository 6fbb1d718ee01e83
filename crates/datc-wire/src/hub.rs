//! The hub session lifecycle both transports share ([`LiveSession`]:
//! open, push, retire), and the UDP hub's peer-table policy as a
//! sans-I/O state machine ([`PeerTable`]) that touches no socket and
//! reads no clock: the receive loop hands it each datagram with its
//! arrival time and polls it with the current time, so tests drive it
//! on a virtual clock without sleeping.

use crate::frame::{parse_frame, FrameType, ParseOutcome, HEADER_LEN, SYNC};
use crate::gateway::{HubConfig, HubSession, SessionTable, SinkFactory, Tally};
use crate::obs::SessionObs;
use crate::packet::SessionHeader;
use crate::session::SessionRx;
use crate::udp::POLL;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum lifetime of a straggler-filter entry (see
/// [`PeerTable::retired`]): generous against any realistic
/// reorder/duplicate delay, yet bounding the filter to the sessions
/// retired in the last minute (or [`HubConfig::idle_timeout`], whichever
/// is longer).
const RETIRED_TTL: Duration = Duration::from_secs(60);

/// How a hub session ended — which [`HubHealth`](crate::gateway::HubHealth)
/// tally its retirement moves besides `sessions_finished`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum End {
    /// BYE, EOF or hub shutdown: no extra tally.
    Closed,
    /// Force-retired with open books: an idle or stalled peer, or a
    /// parked session whose resume window expired.
    Evicted,
    /// Over the [`HubConfig::malformed_budget`] framing-garbage budget.
    Quarantined,
}

/// One in-flight hub session: its receive pipeline plus the hub's books
/// on it.
pub(crate) struct LiveSession {
    /// The hub-assigned connection id (the session-table key).
    conn_id: u64,
    pub(crate) rx: SessionRx,
    /// Bytes read off the transport.
    bytes_received: u64,
    budget: Option<u64>,
}

impl LiveSession {
    /// Opens a fresh session: allocates its connection id, books the
    /// start, registers its per-session series (retired when it
    /// finishes) and attaches the factory's sink — the only place a hub
    /// builds a [`SessionRx`] or calls the sink factory.
    pub(crate) fn open(
        table: &SessionTable,
        config: &HubConfig,
        sinks: Option<&SinkFactory>,
    ) -> LiveSession {
        let conn_id = table.next_conn_id();
        table.note(Tally::Started);
        let mut rx = SessionRx::new(config.session.clone()).with_metrics(
            SessionObs::register(table.registry(), &conn_id.to_string()).with_retire_on_finish(),
        );
        if let Some(factory) = sinks {
            rx = rx.with_sink(factory(conn_id));
        }
        LiveSession {
            conn_id,
            rx,
            bytes_received: 0,
            budget: config.malformed_budget,
        }
    }

    /// Counts and decodes `bytes`; `true` when the session's framing
    /// garbage is now over [`HubConfig::malformed_budget`] and it must be
    /// quarantined.
    pub(crate) fn push(&mut self, bytes: &[u8]) -> bool {
        self.bytes_received += bytes.len() as u64;
        self.rx.push_bytes(bytes);
        self.budget.is_some_and(|b| self.rx.framing_garbage() > b)
    }

    /// The FEEDBACK frame to send back to the sender, when its cadence
    /// is due at `now`.
    pub(crate) fn feedback_due(&mut self, pressure: u8, now: Instant) -> Option<Vec<u8>> {
        self.rx.feedback_due_at(pressure, now)
    }

    /// Finishes the session into `table`, moving the tally `end` names.
    pub(crate) fn retire(self, table: &SessionTable, end: End) {
        match end {
            End::Closed => {}
            End::Evicted => table.note(Tally::Evicted),
            End::Quarantined => table.note(Tally::Quarantined),
        }
        let report = self.rx.finish();
        table.insert(
            self.conn_id,
            HubSession {
                session_id: report.header.map_or(0, |h| h.session_id),
                bytes_received: self.bytes_received,
                report,
            },
        );
    }
}

/// One in-flight UDP peer session.
struct Peer {
    session: LiveSession,
    /// A received BYE datagram held until its grace deadline, so
    /// session-tail datagrams reordered behind it are still absorbed.
    pending_bye: Option<(Vec<u8>, Instant)>,
    /// When this peer last delivered a datagram — the idle-eviction
    /// clock.
    last_activity: Instant,
}

impl Peer {
    /// Flushes a held BYE into the decoder and retires the session,
    /// returning its header for the straggler filter.
    fn retire(mut self, table: &SessionTable, end: End) -> Option<SessionHeader> {
        if let Some((bye, _)) = self.pending_bye.take() {
            self.session.rx.push_bytes(&bye);
        }
        let header = self.session.rx.header().copied();
        self.session.retire(table, end);
        header
    }
}

/// The UDP hub's in-flight sessions keyed by peer address, and every
/// policy that opens, feeds and retires them. Sans-I/O: datagrams come
/// in through [`on_datagram`](PeerTable::on_datagram), outgoing
/// FEEDBACK frames leave through [`poll`](PeerTable::poll)'s `send`
/// callback, and time is whatever the caller says it is.
pub(crate) struct PeerTable {
    config: HubConfig,
    table: Arc<SessionTable>,
    sinks: Option<SinkFactory>,
    peers: HashMap<SocketAddr, Peer>,
    /// Addresses whose session was retired (BYE grace expired,
    /// quarantined or idle-evicted), mapped to the retired session's
    /// header and retirement time. A DATA/BYE straggler duplicated or
    /// reordered past the grace window must be dropped, not allowed to
    /// resurrect the address as a ghost session; a CRC-valid HELLO
    /// carrying a *different* header is a genuinely new session
    /// (sensors legitimately reuse one socket) and un-retires the
    /// address — a duplicate of the finished session's own HELLO
    /// cannot, because its header matches. Entries are cleared on reuse
    /// and pruned once they outlive the straggler horizon, so the
    /// filter stays bounded on long-running hubs (stragglers arrive on
    /// the reorder timescale — well inside the horizon; an extreme late
    /// straggler past it would open a ghost peer, which the idle clock
    /// then evicts). With eviction disabled (`idle_timeout: None`) the
    /// filter keeps one entry per finished session — the same memory
    /// class as the session table itself.
    retired: HashMap<SocketAddr, (Option<SessionHeader>, Instant)>,
    /// When `poll` next prunes `retired`. Pruning walks every address
    /// retired in the last minute, so it runs on a fraction of the idle
    /// timeout, never per datagram.
    next_prune: Option<Instant>,
    /// Reused per-poll list of peers due for retirement.
    due: Vec<(SocketAddr, End)>,
}

impl PeerTable {
    /// An empty peer table retiring sessions into `table`, attaching a
    /// sink from `sinks` to every new peer session.
    pub(crate) fn new(
        config: HubConfig,
        table: Arc<SessionTable>,
        sinks: Option<SinkFactory>,
    ) -> PeerTable {
        PeerTable {
            config,
            table,
            sinks,
            peers: HashMap::new(),
            retired: HashMap::new(),
            next_prune: None,
            due: Vec::new(),
        }
    }

    /// Handles one datagram received from `from` at `now`.
    pub(crate) fn on_datagram(&mut self, from: SocketAddr, dgram: &[u8], now: Instant) {
        // Cheap frame-type peek (sync word + discriminant byte). Full
        // CRC-validating parses run only where a probe is actually
        // needed, so the steady-state DATA path costs exactly one parse
        // — the decoder's own.
        let peeked_type = (dgram.len() > HEADER_LEN && dgram[..2] == SYNC).then(|| dgram[2]);
        let looks_hello = peeked_type == Some(FrameType::Hello.to_byte());
        let looks_bye = peeked_type == Some(FrameType::Bye.to_byte());

        if let Some((closed_header, _)) = self.retired.get(&from) {
            match looks_hello.then(|| hello_header(dgram)).flatten() {
                Some(h) if Some(h) != *closed_header => {
                    self.retired.remove(&from); // same sensor, next session
                }
                _ => return, // straggler of the closed session
            }
        }
        // A reused socket can open a new session at any time — while the
        // previous one is in BYE grace, or still nominally in flight
        // because its BYE was lost. A CRC-valid HELLO carrying a
        // *different* header retires the old peer right now (with no
        // straggler-filter entry: the new HELLO takes the address over),
        // so the new session gets a fresh decoder instead of being
        // swallowed by the old one's. A peer whose own HELLO never
        // arrived has no header to compare: the first HELLO to reach it
        // is adopted by its decoder, indistinguishable from reordered
        // delivery (see the `udp` module's "Known limits").
        if looks_hello {
            let old_header = self
                .peers
                .get(&from)
                .and_then(|p| p.session.rx.header().copied());
            if let Some(old_header) = old_header {
                if hello_header(dgram).is_some_and(|h| h != old_header) {
                    let old = self.peers.remove(&from).expect("presence just checked");
                    old.retire(&self.table, End::Closed);
                }
            }
        }
        // Junk from an unknown address must not allocate decoder state
        // (a SessionRx plus a factory-built sink): only a CRC-valid
        // frame opens a peer. Any frame type qualifies — a session whose
        // HELLO is reordered behind its first DATA still gets a peer,
        // and the decoder books the orphans. At the session cap a valid
        // frame from a *new* address is shed — dropped and counted — so
        // overload degrades into refused sessions instead of unbounded
        // decoder state; known peers keep flowing.
        if !self.peers.contains_key(&from) {
            if valid_frame_type(dgram).is_none() {
                return;
            }
            if self
                .config
                .max_sessions
                .is_some_and(|cap| self.peers.len() >= cap)
            {
                self.table.note(Tally::Shed);
                return;
            }
        }
        let (table, config) = (&self.table, &self.config);
        let sinks = self.sinks.as_ref();
        let peer = self.peers.entry(from).or_insert_with(|| Peer {
            session: LiveSession::open(table, config, sinks),
            pending_bye: None,
            last_activity: now,
        });
        peer.last_activity = now;
        let over_budget = if looks_bye && valid_frame_type(dgram) == Some(FrameType::Bye) {
            // Hold the BYE for the grace window; duplicates of a held
            // BYE are byte-identical and dropped.
            peer.session.bytes_received += dgram.len() as u64;
            if peer.pending_bye.is_none() {
                peer.pending_bye = Some((dgram.to_vec(), now + config.bye_grace));
            }
            false
        } else {
            peer.session.push(dgram)
        };
        // An address feeding the decoder garbage past its budget is
        // quarantined: books closed as they stand, address retired into
        // the straggler filter so the flood stops burning CRC scans on a
        // live decoder. A later CRC-valid HELLO with a fresh header
        // reopens the address as usual.
        if over_budget {
            self.retire(from, End::Quarantined, now);
        }
    }

    /// One pass over the in-flight peers at `now`: hands every due
    /// FEEDBACK frame to `send` (addressed to the session's source),
    /// retires peers whose BYE grace expired (books closed) and peers
    /// silent for [`HubConfig::idle_timeout`] (evicted with open books,
    /// exactly as hub shutdown would), then prunes the straggler filter
    /// when its cadence is due.
    pub(crate) fn poll(&mut self, now: Instant, mut send: impl FnMut(SocketAddr, &[u8])) {
        if !self.peers.is_empty() {
            let pressure = self.table.pressure_level(self.config.max_sessions);
            let idle_timeout = self.config.idle_timeout;
            for (&addr, peer) in &mut self.peers {
                if let Some(fb) = peer.session.feedback_due(pressure, now) {
                    send(addr, &fb);
                }
                let idle =
                    idle_timeout.is_some_and(|t| now.duration_since(peer.last_activity) >= t);
                match peer.pending_bye {
                    Some((_, at)) if at <= now => self.due.push((addr, End::Closed)),
                    _ if idle => self.due.push((addr, End::Evicted)),
                    _ => {}
                }
            }
            while let Some((addr, end)) = self.due.pop() {
                self.retire(addr, end, now);
            }
        }
        if let Some(timeout) = self.config.idle_timeout {
            if self.next_prune.is_none_or(|at| now >= at) {
                self.next_prune = Some(now + (timeout / 4).clamp(POLL, Duration::from_secs(1)));
                let horizon = timeout.max(RETIRED_TTL);
                self.retired
                    .retain(|_, &mut (_, at)| now.duration_since(at) < horizon);
            }
        }
    }

    /// Finishes every in-flight peer (hub shutdown), flushing held
    /// BYEs: each decoded event reaches its sink exactly once.
    pub(crate) fn close_all(self) {
        for (_, peer) in self.peers {
            peer.retire(&self.table, End::Closed);
        }
    }

    /// Retires the peer at `addr` into the table and the straggler
    /// filter.
    fn retire(&mut self, addr: SocketAddr, end: End, now: Instant) {
        let peer = self
            .peers
            .remove(&addr)
            .expect("retiring an in-flight peer");
        let header = peer.retire(&self.table, end);
        self.retired.insert(addr, (header, now));
    }
}

/// Parses a datagram as one CRC-valid HELLO frame and returns its
/// header — the only thing allowed to reopen a retired peer address.
fn hello_header(datagram: &[u8]) -> Option<SessionHeader> {
    match parse_frame(datagram) {
        ParseOutcome::Frame { frame, .. } if frame.ftype == FrameType::Hello => {
            SessionHeader::decode(frame.payload)
        }
        _ => None,
    }
}

/// The type of a datagram that parses as one CRC-valid frame — any
/// type is the bar for allocating per-peer decoder state; a BYE is
/// held for the grace window before it closes the books.
fn valid_frame_type(datagram: &[u8]) -> Option<FrameType> {
    match parse_frame(datagram) {
        ParseOutcome::Frame { frame, .. } => Some(frame.ftype),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packetizer;
    use crate::session::SessionReport;
    use crate::sink::SessionSink;
    use datc_core::Event;
    use datc_uwb::aer::AddressedEvent;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts the sinks the factory builds and the closes they see.
    #[derive(Clone, Default)]
    struct SinkCounts {
        built: Arc<AtomicU64>,
        closed: Arc<AtomicU64>,
    }

    impl SessionSink for SinkCounts {
        fn on_close(&mut self, _report: &SessionReport) {
            self.closed.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn sensor(n: usize) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, n as u8], 5000))
    }

    /// Deterministic junk: raw bytes, bytes fronted by a sync word and a
    /// frame-type byte (reaching the HELLO/BYE probes), or a frame with
    /// a broken CRC (burning the framing-garbage budget).
    fn soup(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        match seed % 3 {
            0 if bytes.len() > HEADER_LEN => {
                bytes[..2].copy_from_slice(&SYNC);
                let types = [FrameType::Hello, FrameType::Bye, FrameType::DataV2];
                bytes[2] = types[(seed % 9 / 3) as usize].to_byte();
                bytes
            }
            1 => {
                let mut frame = crate::frame::encode_frame(FrameType::DataV2, 1, &bytes);
                *frame.last_mut().expect("frames carry a CRC") ^= 0xFF;
                frame
            }
            _ => bytes,
        }
    }

    /// One sensor: its session's datagrams in send order and what the
    /// schedule did to it.
    struct Sensor {
        id: u32,
        events: u64,
        datagrams: Vec<Vec<u8>>,
        delivered: usize,
        opened: bool,
        /// Byte soup was sent from this sensor's address.
        souped: bool,
        /// The clock jumped past the idle timeout mid-session.
        idled: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn peer_table_books_balance_under_any_schedule(
            sessions in proptest::collection::vec((0u64..60, 1usize..12), 1..5),
            steps in proptest::collection::vec((0u8..16, 0usize..8, any::<u64>(), 0usize..48), 0..120),
        ) {
            let config = HubConfig {
                malformed_budget: Some(4),
                ..HubConfig::default()
            };
            let (grace, idle) = (config.bye_grace, config.idle_timeout.expect("default idle"));
            let table = SessionTable::shared();
            let counts = SinkCounts::default();
            let factory: SinkFactory = {
                let counts = counts.clone();
                Arc::new(move |_conn_id| {
                    counts.built.fetch_add(1, Ordering::SeqCst);
                    Box::new(counts.clone()) as Box<dyn SessionSink>
                })
            };
            let mut peers = PeerTable::new(config, Arc::clone(&table), Some(factory));
            let mut sensors: Vec<Sensor> = sessions
                .iter()
                .enumerate()
                .map(|(i, &(n, per_frame))| {
                    let header = SessionHeader::new(100 + i as u32, 2, 2000.0, 2.0);
                    let events: Vec<AddressedEvent> = (0..n)
                        .map(|e| AddressedEvent {
                            channel: (e % 2) as u8,
                            event: Event { tick: e * 17 + i as u64, vth_code: Some((e % 16) as u8) },
                        })
                        .collect();
                    let mut tx = Packetizer::new(header).with_events_per_frame(per_frame);
                    let mut datagrams = vec![tx.hello()];
                    datagrams.extend(tx.data_frames(&events));
                    datagrams.push(tx.bye());
                    Sensor {
                        id: header.session_id,
                        events: n,
                        datagrams,
                        delivered: 0,
                        opened: false,
                        souped: false,
                        idled: false,
                    }
                })
                .collect();
            let k = sensors.len();
            let t0 = Instant::now();
            let mut elapsed = Duration::ZERO;

            // The random schedule, then every undelivered datagram in
            // order, so most sessions end up fully delivered.
            let tail: Vec<_> = sensors
                .iter()
                .enumerate()
                .flat_map(|(p, s)| std::iter::repeat_n((0u8, p, 0u64, 0usize), s.datagrams.len()))
                .collect();
            for (kind, p, seed, len) in steps.into_iter().chain(tail) {
                let p = p % k;
                let now = t0 + elapsed;
                match kind {
                    0..=7 if sensors[p].delivered < sensors[p].datagrams.len() => {
                        let s = &mut sensors[p];
                        peers.on_datagram(sensor(p), &s.datagrams[s.delivered], now);
                        s.delivered += 1;
                        s.opened = true;
                    }
                    8 | 9 if sensors[p].delivered > 0 => {
                        let s = &sensors[p];
                        peers.on_datagram(sensor(p), &s.datagrams[seed as usize % s.delivered], now);
                    }
                    // Soup mostly from an address no session uses; a
                    // sensor's own address gets bursts (quarantine).
                    10 if seed % 4 == 0 => {
                        for burst in 0..=seed % 16 {
                            peers.on_datagram(sensor(p), &soup(seed + burst, len), now);
                        }
                        sensors[p].souped = true;
                    }
                    10 => peers.on_datagram(sensor(k), &soup(seed, len), now),
                    11 => {
                        peers.on_datagram(sensor(p), &sensors[p].datagrams[0], now);
                        sensors[p].opened = true;
                    }
                    12 | 13 => elapsed += grace + Duration::from_millis(seed % 5),
                    14 => elapsed += Duration::from_millis(seed % 3),
                    15 if seed % 16 == 0 => {
                        elapsed += idle;
                        for s in &mut sensors {
                            s.idled |= s.opened && s.delivered < s.datagrams.len();
                        }
                    }
                    _ => {}
                }
                peers.poll(t0 + elapsed, |_, _| {});
            }
            peers.close_all();

            let health = table.health();
            let sessions = table.snapshot();
            prop_assert_eq!(health.in_flight, 0);
            prop_assert_eq!(health.sessions_started, health.sessions_finished);
            prop_assert_eq!(health.sessions_finished, table.len() as u64);
            prop_assert_eq!(counts.built.load(Ordering::SeqCst), health.sessions_started);
            prop_assert_eq!(counts.closed.load(Ordering::SeqCst), health.sessions_started);
            for s in sensors.iter().filter(|s| !s.souped && !s.idled) {
                prop_assert!(
                    sessions.iter().any(|h| {
                        let st = &h.report.stats;
                        h.session_id == s.id
                            && st.events_decoded == s.events
                            && st.events_lost == 0
                            && st.closed
                    }),
                    "session {} decoded all {} events with closed books",
                    s.id,
                    s.events
                );
            }
        }
    }
}
