//! Datagram transport: one framed packet per UDP datagram.
//!
//! TCP hides the lossy link the wire format was built for; UDP exposes
//! it. Every datagram carries exactly one framed HELLO / DATA / BYE
//! chunk, so the network's failure modes map one-to-one onto the
//! machinery [`StreamDecoder`](crate::decode::StreamDecoder) already
//! has:
//!
//! * a **dropped** datagram is a hole in the cumulative event index —
//!   declared lost, with the exact event count, the moment the next
//!   index arrives (or at session close);
//! * a **reordered** datagram parks in the bounded reorder buffer and
//!   is released in sequence;
//! * a **duplicated** datagram covers an already-delivered index span —
//!   counted and dropped.
//!
//! No per-datagram state is added on top: the session-level byte-stream
//! decoder consumes each datagram as a self-delimiting frame — parsed
//! in place and drained as struct-of-arrays
//! [`EventBatch`](crate::batch::EventBatch)es, so the datagram path
//! allocates nothing per packet. This is the same address-event
//! discipline neuromorphic AER buses use over unreliable links — events
//! are self-describing, so transport loss degrades the estimate instead
//! of corrupting it.
//!
//! ## Sessions without connections
//!
//! UDP has no accept/EOF, so the [`UdpTelemetryHub`] keys in-flight
//! sessions by peer address. Every rule below lives in one sans-I/O
//! peer table: the receive thread hands it each datagram stamped with
//! its arrival time and polls it with the current time, sending back
//! whatever FEEDBACK frames fall due. The table reads no clock and
//! touches no socket, so its policy is tested on a virtual clock, and
//! its sessions open, ingest and retire through the same lifecycle code
//! as the TCP hub's — both hubs move the [`HubHealth`] tallies alike.
//!
//! A received BYE is held for a grace window ([`HubConfig::bye_grace`])
//! before it closes the books, so DATA datagrams reordered
//! *behind* the BYE are still absorbed by the reorder buffer; the
//! session then retires, and late stragglers of a retired session are
//! dropped rather than resurrecting it as a ghost (a CRC-valid HELLO
//! with a *different* header reopens the address — sensors
//! legitimately reuse one socket for successive sessions). Hub
//! shutdown drains the socket and finishes every in-flight peer, so
//! every datagram received before the stop request is decoded and
//! delivered exactly once. A peer whose BYE is lost is retired by the
//! **idle-eviction clock** ([`HubConfig::idle_timeout`], default 30 s):
//! once it has been silent that long its session lands in the table
//! with the books left open — the in-flight table stays bounded even
//! when sensors die mid-session. A later HELLO with a different header
//! from the same address retires it immediately instead, opening the
//! new session.
//!
//! ## Known limits
//!
//! * Per-peer decoder state is allocated for any **CRC-valid** frame
//!   from a new source address. Random junk is rejected before
//!   allocation, but the frame format is not authenticated — a hub
//!   exposed to untrusted networks should sit behind address
//!   filtering.
//! * DATA-V2 frames carry a one-byte session nonce (a CRC-8 of the
//!   HELLO, [`SessionHeader::nonce`]): when a reused address hands over
//!   from session A to session B, an A-tail datagram reordered *past*
//!   B's HELLO is counted as a **foreign frame** and dropped instead of
//!   being misattributed to B's books. The 8-bit nonce is a
//!   misattribution guard, not an authenticator (1/256 collision odds
//!   between unrelated sessions).
//! * A session whose HELLO never arrives is unidentifiable: its DATA
//!   is booked as orphan frames, and the first HELLO that does reach
//!   the address is adopted by that decoder (indistinguishable from
//!   the session's own HELLO arriving reordered). Header-based
//!   takeover therefore only protects sessions whose HELLO was
//!   decoded.

use crate::chaos::{ChaosLink, ChaosStats};
use crate::gateway::{
    fleet_header, ClientReport, HubConfig, HubHealth, HubSession, RetryPolicy, SessionTable,
    SinkFactory,
};
use crate::hub::PeerTable;
use crate::packet::{Packetizer, SessionHeader};
use datc_engine::FleetOutput;
use datc_uwb::aer::AddressedEvent;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Receive poll interval — also the post-stop drain quantum: after a
/// stop request the receive loop keeps decoding until one full interval
/// passes with the socket empty.
pub(crate) const POLL: Duration = Duration::from_millis(2);

/// A telemetry ingest gateway bound to a local UDP address.
///
/// Shares [`HubConfig`], [`HubSession`] and (optionally) the
/// [`SessionTable`] with the TCP [`TelemetryHub`](crate::gateway::TelemetryHub),
/// so a deployment can serve both transports into one operator view:
///
/// ```
/// use datc_wire::gateway::{HubConfig, SessionTable, TelemetryHub};
/// use datc_wire::udp::UdpTelemetryHub;
///
/// let table = SessionTable::shared();
/// let tcp = TelemetryHub::bind_with("127.0.0.1:0", HubConfig::default(), table.clone(), None)
///     .unwrap();
/// let udp = UdpTelemetryHub::bind_with("127.0.0.1:0", HubConfig::default(), table.clone(), None)
///     .unwrap();
/// // … sensors connect over either transport …
/// udp.shutdown();
/// let all = tcp.shutdown(); // one table, both transports
/// assert_eq!(all.len(), table.len());
/// ```
#[derive(Debug)]
pub struct UdpTelemetryHub {
    addr: SocketAddr,
    table: Arc<SessionTable>,
    stop: Arc<AtomicBool>,
    receiver: Option<JoinHandle<()>>,
}

impl UdpTelemetryHub {
    /// Binds a UDP socket (use port 0 for an ephemeral port) and starts
    /// receiving sessions into a fresh private table, with no sink.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: HubConfig) -> std::io::Result<UdpTelemetryHub> {
        UdpTelemetryHub::bind_with(addr, config, SessionTable::shared(), None)
    }

    /// Binds a UDP socket recording finished sessions into `table`
    /// (shareable with a TCP hub) and attaching a sink from
    /// `sink_factory` to every new peer session.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configure failures.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: HubConfig,
        table: Arc<SessionTable>,
        sink_factory: Option<SinkFactory>,
    ) -> std::io::Result<UdpTelemetryHub> {
        crate::gateway::validate_config(&config)?;
        let socket = UdpSocket::bind(addr)?;
        let addr = socket.local_addr()?;
        socket.set_read_timeout(Some(POLL))?;
        let stop = Arc::new(AtomicBool::new(false));
        let receiver = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || receive_loop(socket, config, table, sink_factory, stop))
        };
        Ok(UdpTelemetryHub {
            addr,
            table,
            stop,
            receiver: Some(receiver),
        })
    }

    /// The bound address (the port to point senders at).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared session table.
    pub fn session_table(&self) -> Arc<SessionTable> {
        Arc::clone(&self.table)
    }

    /// Number of *finished* sessions in the table (in-flight peers
    /// appear once their BYE is decoded or the hub shuts down).
    pub fn session_count(&self) -> usize {
        self.table.len()
    }

    /// Clones the current session table.
    pub fn snapshot(&self) -> Vec<HubSession> {
        self.table.snapshot()
    }

    /// A point-in-time [`HubHealth`] snapshot of the shared table's
    /// operational counters (started/finished/shed/quarantined/…).
    /// When the table is shared with a TCP hub the counters cover both
    /// transports.
    pub fn health(&self) -> HubHealth {
        self.table.health()
    }

    /// The shared metrics registry (hub roll-ups plus per-peer series
    /// for every in-flight session) — render it with
    /// [`datc_obs::render_prometheus`] or [`datc_obs::render_json`].
    pub fn registry(&self) -> datc_obs::Registry {
        self.table.registry().clone()
    }

    /// Stops receiving, drains every datagram already delivered to the
    /// socket, finishes every in-flight peer session (each decoded
    /// event reaches its sink exactly once), and returns the final
    /// session table — moved out when this hub holds the only reference
    /// to it, cloned when it is shared.
    pub fn shutdown(mut self) -> Vec<HubSession> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.receiver.take() {
            let _ = h.join();
        }
        SessionTable::into_sessions(&mut self.table)
    }
}

impl Drop for UdpTelemetryHub {
    fn drop(&mut self) {
        if let Some(h) = self.receiver.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = h.join();
        }
    }
}

/// The receive thread: the socket adapter around [`PeerTable`]. Each
/// datagram goes to the table stamped with its arrival time, then one
/// poll sends due FEEDBACK frames and retires expired peers. After the
/// stop request the loop keeps decoding until a full [`POLL`] interval
/// passes with the socket empty, then finishes every in-flight peer.
fn receive_loop(
    socket: UdpSocket,
    config: HubConfig,
    table: Arc<SessionTable>,
    sink_factory: Option<SinkFactory>,
    stop: Arc<AtomicBool>,
) {
    let mut peers = PeerTable::new(config, table, sink_factory);
    // One datagram = one frame ≤ HEADER + MAX_PAYLOAD + CRC bytes; a
    // 64 KiB buffer holds any datagram the socket can deliver (an
    // oversized/truncated one fails its CRC and is skipped).
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match socket.recv_from(&mut buf) {
            Ok((n, from)) => peers.on_datagram(from, &buf[..n], Instant::now()),
            // An empty poll interval (or a failed receive) after the
            // stop request means the backlog is drained.
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(_) => {}
        }
        // Best effort: a sender that never reads its FEEDBACK just
        // leaves a few tiny datagrams in its kernel buffer.
        peers.poll(Instant::now(), |to, frame| {
            let _ = socket.send_to(frame, to);
        });
    }
    peers.close_all();
}

/// Transmit pacing for [`UdpSessionSender`]: up to `burst` datagrams go
/// out back to back, then the sender pauses for `inter_burst` — a
/// static token-bucket stand-in for real congestion feedback, so a fast
/// encoder cannot trivially overrun a receive buffer.
///
/// The sustained rate is `burst / inter_burst` datagrams per second
/// (bursts themselves are sent as fast as the socket accepts them).
///
/// # Example
///
/// ```
/// use datc_wire::udp::UdpPacing;
/// use std::time::Duration;
/// let pacing = UdpPacing::default();
/// assert_eq!(pacing.burst, 32);
/// let gentle = UdpPacing { burst: 4, inter_burst: Duration::from_micros(500) };
/// assert!(gentle.datagrams_per_s() < pacing.datagrams_per_s());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpPacing {
    /// Datagrams sent back-to-back before the pause (≥ 1; 0 is clamped
    /// to 1 at connect).
    pub burst: u32,
    /// Pause inserted after each burst ([`Duration::ZERO`] disables
    /// pacing entirely — loss experiments on real links may want the
    /// firehose).
    pub inter_burst: Duration,
}

impl Default for UdpPacing {
    /// The historical built-in pacing: 32-datagram bursts, 200 µs apart.
    fn default() -> Self {
        UdpPacing {
            burst: 32,
            inter_burst: Duration::from_micros(200),
        }
    }
}

impl UdpPacing {
    /// The sustained datagram rate this pacing allows (infinite when the
    /// pause is zero).
    pub fn datagrams_per_s(&self) -> f64 {
        if self.inter_burst.is_zero() {
            f64::INFINITY
        } else {
            f64::from(self.burst.max(1)) / self.inter_burst.as_secs_f64()
        }
    }
}

/// One transmit session over UDP: each framed chunk is sent as one
/// datagram from a dedicated ephemeral socket (the source address is
/// what the hub demuxes sessions on).
///
/// Sends are paced per [`UdpPacing`] (default: a sub-millisecond pause
/// every 32 datagrams) so a fast sender cannot trivially overrun a
/// loopback receive buffer; real-loss experiments should inject loss
/// deliberately, not depend on kernel buffer luck. Tune or disable via
/// [`connect_with`](UdpSessionSender::connect_with).
///
/// # Example
///
/// ```no_run
/// use datc_wire::packet::SessionHeader;
/// use datc_wire::udp::UdpSessionSender;
///
/// let header = SessionHeader::new(1, 4, 2000.0, 20.0);
/// let mut tx = UdpSessionSender::connect("127.0.0.1:9000", header).unwrap();
/// tx.send_events(&[]).unwrap();
/// let report = tx.finish().unwrap();
/// assert_eq!(report.events_sent, 0);
/// ```
/// Transient send failures (kernel buffer pressure, spurious
/// timeouts) are retried with backoff when a [`RetryPolicy`] is
/// installed via [`with_retry`](UdpSessionSender::with_retry); a
/// [`ChaosLink`] installed via
/// [`with_chaos`](UdpSessionSender::with_chaos) subjects every DATA
/// datagram to deterministic fault injection before it reaches the
/// socket (HELLO and BYE bypass chaos so the receiver's books stay
/// decidable).
#[derive(Debug)]
pub struct UdpSessionSender {
    socket: UdpSocket,
    packetizer: Packetizer,
    pacing: UdpPacing,
    sent_since_pause: u32,
    refused: u64,
    retry: RetryPolicy,
    chaos: Option<ChaosLink>,
    retries: u64,
    gave_up: bool,
    obs: Option<crate::obs::TxObs>,
    flow: Option<crate::flow::FlowSession>,
    flow_obs: Option<crate::obs::FlowObs>,
}

impl UdpSessionSender {
    /// Datagrams sent back-to-back before the pacing pause under the
    /// default [`UdpPacing`].
    pub const BURST: u32 = 32;

    /// Binds an ephemeral local socket, connects it to `addr` and sends
    /// the HELLO datagram, with the default [`UdpPacing`].
    ///
    /// # Errors
    ///
    /// Propagates socket/send failures.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        header: SessionHeader,
    ) -> std::io::Result<UdpSessionSender> {
        UdpSessionSender::connect_with(addr, header, UdpPacing::default())
    }

    /// [`connect`](UdpSessionSender::connect) with explicit pacing
    /// (burst size clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Propagates socket/send failures.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        header: SessionHeader,
        pacing: UdpPacing,
    ) -> std::io::Result<UdpSessionSender> {
        let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to")
        })?;
        // Bind in the target's address family, or the connect fails.
        let bind_addr: SocketAddr = if target.is_ipv4() {
            "0.0.0.0:0".parse().expect("valid v4 wildcard")
        } else {
            "[::]:0".parse().expect("valid v6 wildcard")
        };
        let socket = UdpSocket::bind(bind_addr)?;
        socket.connect(target)?;
        let mut tx = UdpSessionSender {
            socket,
            packetizer: Packetizer::new(header),
            pacing: UdpPacing {
                burst: pacing.burst.max(1),
                ..pacing
            },
            sent_since_pause: 0,
            refused: 0,
            retry: RetryPolicy::none(),
            chaos: None,
            retries: 0,
            gave_up: false,
            obs: None,
            flow: None,
            flow_obs: None,
        };
        let hello = tx.packetizer.hello();
        tx.send_datagram(&hello)?;
        tx.sync_obs();
        Ok(tx)
    }

    /// Attaches transmit instrumentation: the sender keeps the
    /// `datc_tx_*` series synced after the HELLO, every
    /// [`send_events`](UdpSessionSender::send_events) batch and the
    /// BYE.
    #[must_use]
    pub fn with_metrics(mut self, obs: crate::obs::TxObs) -> UdpSessionSender {
        self.obs = Some(obs);
        self.sync_obs();
        self
    }

    fn sync_obs(&self) {
        if let Some(obs) = &self.obs {
            obs.sync(&self.packetizer);
        }
    }

    /// Installs a retry policy for transient send failures
    /// (`WouldBlock` / `TimedOut` / `Interrupted` — kernel buffer
    /// pressure, not peer loss). Each failed attempt sleeps the
    /// policy's backoff delay; an exhausted budget surfaces the error
    /// with [`ClientReport::gave_up`] set.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> UdpSessionSender {
        self.retry = retry;
        self
    }

    /// Installs a deterministic fault-injection link applied to every
    /// DATA datagram (drop/duplicate/reorder/corrupt/truncate/stall
    /// per the link's [`ChaosProfile`](crate::chaos::ChaosProfile)).
    /// HELLO and BYE bypass chaos. A disconnect boundary on a
    /// datagram transport is just its outage window of drops — there
    /// is no connection to tear down.
    #[must_use]
    pub fn with_chaos(mut self, link: ChaosLink) -> UdpSessionSender {
        self.chaos = Some(link);
        self
    }

    /// Installs receiver-driven flow control: the sender drains the
    /// FEEDBACK datagrams the hub writes back, runs every report
    /// through an [`AimdController`](crate::flow::AimdController) that
    /// re-paces the socket (additive increase on clean feedback,
    /// multiplicative decrease on fresh loss or hub pressure), and
    /// retransmits feedback-reported holes still covered by its
    /// [`ReplayBuffer`](crate::flow::ReplayBuffer). Repairs are
    /// byte-identical originals — the receiver's duplicate/overlap
    /// dedup keeps the books exact — and bypass any installed
    /// [`ChaosLink`], so a pinned fate schedule stays pinned.
    ///
    /// The installed config's AIMD band replaces the connect-time
    /// [`UdpPacing`] from the first feedback onward (pacing starts at
    /// the band's ceiling).
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid (see
    /// [`FlowConfig::validate`](crate::flow::FlowConfig::validate)).
    #[must_use]
    pub fn with_flow(mut self, config: crate::flow::FlowConfig) -> UdpSessionSender {
        let flow = crate::flow::FlowSession::new(config);
        self.pacing = flow.aimd().pacing();
        self.flow = Some(flow);
        self
    }

    /// Attaches flow-control instrumentation: the sender keeps the
    /// `datc_flow_*` series synced after every feedback drain. No-op
    /// until [`with_flow`](UdpSessionSender::with_flow) is installed.
    #[must_use]
    pub fn with_flow_metrics(mut self, obs: crate::obs::FlowObs) -> UdpSessionSender {
        self.flow_obs = Some(obs);
        self.sync_flow_obs();
        self
    }

    fn sync_flow_obs(&self) {
        if let (Some(obs), Some(flow)) = (&self.flow_obs, &self.flow) {
            obs.sync(flow);
        }
    }

    /// The flow-control state, when installed via
    /// [`with_flow`](UdpSessionSender::with_flow) — rate, raise and
    /// throttle tallies, repair counts, last accepted feedback.
    pub fn flow(&self) -> Option<&crate::flow::FlowSession> {
        self.flow.as_ref()
    }

    /// The chaos link's running statistics, when one is installed.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|link| link.stats())
    }

    /// The installed chaos link, when any (its fate log drives exact
    /// loss assertions in tests).
    pub fn chaos_link(&self) -> Option<&ChaosLink> {
        self.chaos.as_ref()
    }

    /// A snapshot of the client-side counters, valid at any point in
    /// the session — including after a send error, when
    /// [`finish`](UdpSessionSender::finish) is no longer reachable.
    pub fn report(&self) -> ClientReport {
        ClientReport {
            events_sent: self.packetizer.events_sent(),
            frames_sent: self.packetizer.frames_emitted(),
            bytes_sent: self.packetizer.bytes_emitted(),
            datagrams_refused: self.refused,
            retries: self.retries,
            reconnects: 0,
            repairs: self.flow.as_ref().map_or(0, |f| f.repairs_frames()),
            gave_up: self.gave_up,
        }
    }

    /// The active pacing.
    pub fn pacing(&self) -> UdpPacing {
        self.pacing
    }

    /// Packetises a run of (tick-ordered) events, one DATA frame per
    /// datagram.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn send_events(&mut self, events: &[AddressedEvent]) -> std::io::Result<()> {
        let first_index = self.packetizer.events_sent();
        let frames = self.packetizer.data_frames(events);
        if let Some(flow) = self.flow.as_mut() {
            // Record each frame's event span into the replay window
            // BEFORE any chaos mangling: repairs resend the pristine
            // original, whatever the link did to the first copy.
            let per_frame = self.packetizer.events_per_frame() as u64;
            let mut index = first_index;
            for frame in &frames {
                let n = per_frame.min(events.len() as u64 - (index - first_index));
                flow.record_sent(index, n, frame);
                index += n;
            }
        }
        if self.chaos.is_none() {
            for frame in &frames {
                self.send_datagram(frame)?;
            }
        } else {
            let mut out: Vec<Vec<u8>> = Vec::new();
            for frame in &frames {
                out.clear();
                let link = self.chaos.as_mut().expect("chaos presence checked above");
                link.push(frame, &mut out);
                // No connection to tear down on a datagram transport: a
                // disconnect boundary is fully expressed by the outage
                // window of drops the link already applied.
                let _ = link.take_disconnect();
                for unit in &out {
                    self.send_datagram(unit)?;
                }
            }
        }
        self.pump_feedback(false)?;
        self.sync_obs();
        Ok(())
    }

    /// Drains any FEEDBACK datagrams the hub has written back and — when
    /// flow control is installed — applies each report: one AIMD pacing
    /// step plus any replay-window repairs. Repairs go straight to the
    /// socket (never through the chaos link). Without flow control the
    /// datagrams are read and dropped, keeping the socket buffer clean.
    fn pump_feedback(&mut self, drain: bool) -> std::io::Result<()> {
        if self.socket.set_nonblocking(true).is_err() {
            return Ok(());
        }
        let mut repairs: Vec<Vec<u8>> = Vec::new();
        let mut buf = [0u8; 256];
        // WouldBlock = drained; any other error (e.g. a refused ICMP
        // surfacing on the read side) also ends the pump — feedback is
        // advisory, never session-fatal.
        while let Ok(n) = self.socket.recv(&mut buf) {
            let Some(flow) = self.flow.as_mut() else {
                continue;
            };
            if let crate::frame::ParseOutcome::Frame { frame, .. } =
                crate::frame::parse_frame(&buf[..n])
            {
                if frame.ftype == crate::frame::FrameType::Feedback {
                    if let Some(fb) = crate::packet::FeedbackSummary::decode(frame.payload) {
                        let decision = flow.on_feedback(
                            fb,
                            self.packetizer.header().nonce(),
                            self.packetizer.events_sent(),
                            drain,
                        );
                        self.pacing = UdpPacing {
                            burst: decision.pacing.burst.max(1),
                            ..decision.pacing
                        };
                        repairs.extend(decision.repairs);
                    }
                }
            }
        }
        let _ = self.socket.set_nonblocking(false);
        for frame in &repairs {
            self.send_datagram(frame)?;
        }
        self.sync_flow_obs();
        Ok(())
    }

    /// Flushes any datagrams the chaos link still holds, runs the
    /// flow-control drain when one is installed (pumping feedback and
    /// repairing tail holes until the receiver confirms everything sent
    /// or the [`FlowConfig::drain`](crate::flow::FlowConfig::drain)
    /// budget runs out), sends the BYE datagram and reports the
    /// client-side counters.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    pub fn finish(mut self) -> std::io::Result<ClientReport> {
        if let Some(link) = self.chaos.as_mut() {
            let mut tail: Vec<Vec<u8>> = Vec::new();
            link.flush(&mut tail);
            for unit in &tail {
                self.send_datagram(unit)?;
            }
        }
        if self.flow.is_some() {
            // Tail drain: the last DATA frames have nothing behind them
            // to park, so only drain-mode feedback comparison against
            // `events_sent` can confirm (or repair) them before the BYE
            // closes the books.
            let budget = self.flow.as_ref().expect("presence checked").config().drain;
            let deadline = std::time::Instant::now() + budget;
            loop {
                self.pump_feedback(true)?;
                let confirmed = self
                    .flow
                    .as_ref()
                    .expect("presence checked")
                    .last_feedback()
                    .is_some_and(|fb| fb.next_index >= self.packetizer.events_sent());
                if confirmed || std::time::Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(POLL);
            }
        }
        let bye = self.packetizer.bye();
        self.send_datagram(&bye)?;
        self.sync_obs();
        Ok(self.report())
    }

    /// Datagrams the peer refused so far (see
    /// [`ClientReport::datagrams_refused`]).
    pub fn datagrams_refused(&self) -> u64 {
        self.refused
    }

    fn send_datagram(&mut self, frame: &[u8]) -> std::io::Result<()> {
        // A connected UDP socket surfaces the peer's ICMP port
        // unreachable as ConnectionRefused on a *later* send. For a
        // loss-tolerant AER sender that is transport loss (receiver
        // gone or restarting — exactly what the wire format's exact
        // loss accounting absorbs), not a session-fatal error: count it
        // and keep going. Real failures (socket shut down locally, no
        // route) still propagate.
        let mut attempt: u32 = 0;
        loop {
            match self.socket.send(frame) {
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                    self.refused += 1;
                    break;
                }
                // Transient local pressure (send buffer full, spurious
                // timeout, EINTR): back off per the retry policy. A
                // sender without one fails fast, as before.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) && attempt < self.retry.max_retries =>
                {
                    std::thread::sleep(self.retry.delay(attempt));
                    attempt += 1;
                    self.retries += 1;
                }
                Err(e) => {
                    self.gave_up = true;
                    return Err(e);
                }
            }
        }
        self.sent_since_pause += 1;
        if self.sent_since_pause >= self.pacing.burst {
            self.sent_since_pause = 0;
            if !self.pacing.inter_burst.is_zero() {
                std::thread::sleep(self.pacing.inter_burst);
            }
        }
        Ok(())
    }
}

/// Streams a whole fleet encode through one UDP session — the datagram
/// counterpart of [`stream_fleet`](crate::gateway::stream_fleet).
///
/// # Errors
///
/// Propagates socket/send failures.
///
/// # Panics
///
/// Panics when the fleet is empty or has more than 256 channels.
pub fn udp_stream_fleet<A: ToSocketAddrs>(
    addr: A,
    session_id: u32,
    fleet: &FleetOutput,
    dead_time_s: f64,
) -> std::io::Result<ClientReport> {
    let header = fleet_header(session_id, fleet);
    let merged = fleet.merge_aer(dead_time_s);
    let mut tx = UdpSessionSender::connect(addr, header)?;
    tx.send_events(&merged.merged)?;
    tx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::Event;

    fn test_events(header: &SessionHeader, n: u64) -> Vec<AddressedEvent> {
        (0..n)
            .map(|i| AddressedEvent {
                channel: (i % u64::from(header.n_channels)) as u8,
                event: Event {
                    tick: i * 21,
                    vth_code: Some((i % 16) as u8),
                },
            })
            .collect()
    }

    /// A [`PeerTable`] on a virtual clock `t0 + elapsed`: datagrams are
    /// handed straight to the table, and time moves only when a test
    /// advances it — no socket, no sleep.
    struct VirtualHub {
        peers: PeerTable,
        table: Arc<SessionTable>,
        t0: Instant,
        elapsed: Duration,
    }

    impl VirtualHub {
        fn new(config: HubConfig) -> VirtualHub {
            VirtualHub::with_sinks(config, None)
        }

        fn with_sinks(config: HubConfig, sinks: Option<SinkFactory>) -> VirtualHub {
            let table = SessionTable::shared();
            VirtualHub {
                peers: PeerTable::new(config, Arc::clone(&table), sinks),
                table,
                t0: Instant::now(),
                elapsed: Duration::ZERO,
            }
        }

        fn now(&self) -> Instant {
            self.t0 + self.elapsed
        }

        /// Delivers one datagram from `from` at the current time, then
        /// polls, as the receive loop does.
        fn send(&mut self, from: SocketAddr, datagram: &[u8]) {
            self.peers.on_datagram(from, datagram, self.now());
            self.peers.poll(self.now(), |_, _| {});
        }

        /// Moves the clock forward and polls.
        fn advance(&mut self, by: Duration) {
            self.elapsed += by;
            self.peers.poll(self.now(), |_, _| {});
        }

        /// Lets a held BYE's grace window run out.
        fn advance_past_bye_grace(&mut self) {
            self.advance(HubConfig::default().bye_grace);
        }

        fn session_count(&self) -> usize {
            self.table.len()
        }

        fn health(&self) -> HubHealth {
            self.table.health()
        }

        fn shutdown(self) -> Vec<HubSession> {
            self.peers.close_all();
            self.table.snapshot()
        }
    }

    /// A sensor's source address.
    fn sensor(n: u8) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, n], 5000))
    }

    #[test]
    fn single_udp_session_round_trips() {
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap();
        let header = SessionHeader::new(31, 2, 2000.0, 2.0);
        let events = test_events(&header, 180);
        let mut tx = UdpSessionSender::connect(hub.local_addr(), header).unwrap();
        tx.send_events(&events).unwrap();
        let client = tx.finish().unwrap();
        assert_eq!(client.events_sent, 180);

        // BYE-triggered retirement: the session lands without shutdown.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hub.session_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.session_id, 31);
        assert_eq!(s.bytes_received, client.bytes_sent);
        assert_eq!(s.report.stats.events_decoded, 180);
        assert_eq!(s.report.stats.events_lost, 0);
        assert!(s.report.stats.closed, "BYE reconciled the books");
    }

    #[test]
    fn concurrent_udp_sessions_demux_by_peer_address() {
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap();
        let addr = hub.local_addr();
        let handles: Vec<_> = (0..4u32)
            .map(|id| {
                std::thread::spawn(move || {
                    let header = SessionHeader::new(id, 1, 2000.0, 1.0);
                    let events: Vec<AddressedEvent> = (0..50)
                        .map(|i| AddressedEvent {
                            channel: 0,
                            event: Event {
                                tick: i * 37,
                                vth_code: None,
                            },
                        })
                        .collect();
                    let mut tx = UdpSessionSender::connect(addr, header).unwrap();
                    tx.send_events(&events).unwrap();
                    tx.finish().unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 4);
        for s in &sessions {
            assert_eq!(
                s.report.stats.events_decoded, 50,
                "session {}",
                s.session_id
            );
            assert_eq!(s.report.stats.events_lost, 0);
        }
    }

    #[test]
    fn datagram_behind_the_bye_cannot_resurrect_a_retired_session() {
        // A duplicated (or reordered) DATA datagram arriving after its
        // session's BYE was processed must be dropped, not create a
        // ghost session under a fresh conn id.
        let mut hub = VirtualHub::new(HubConfig::default());
        let header = SessionHeader::new(55, 1, 2000.0, 1.0);
        let events = test_events(&header, 30);

        let mut packetizer = Packetizer::new(header);
        let hello = packetizer.hello();
        let data = packetizer.data_frames(&events);
        let bye = packetizer.bye();

        let socket = sensor(1);
        hub.send(socket, &hello);
        for f in &data {
            hub.send(socket, f);
        }
        hub.send(socket, &bye);
        // BYE-triggered retirement…
        hub.advance_past_bye_grace();
        // …then replay stragglers from the same source address
        hub.send(socket, &data[0]);
        hub.send(socket, &bye);
        hub.advance(Duration::from_millis(50));
        assert_eq!(
            hub.session_count(),
            1,
            "stragglers must not resurrect the session"
        );

        // A fresh HELLO from the same socket, however, IS a new
        // session: sensors legitimately reuse one socket.
        let header_b = SessionHeader::new(56, 1, 2000.0, 1.0);
        let mut tx_b = Packetizer::new(header_b);
        hub.send(socket, &tx_b.hello());
        for f in tx_b.data_frames(&test_events(&header_b, 10)) {
            hub.send(socket, &f);
        }
        hub.send(socket, &tx_b.bye());
        hub.advance_past_bye_grace();

        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 2, "one retired + one reused-socket session");
        assert_eq!(sessions[0].session_id, 55);
        assert_eq!(sessions[0].report.stats.events_decoded, 30);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert_eq!(sessions[1].session_id, 56);
        assert_eq!(sessions[1].report.stats.events_decoded, 10);
    }

    #[test]
    fn data_reordered_behind_the_bye_is_absorbed_by_the_grace_window() {
        // The classic session-tail reorder: [.., D1, BYE, D2]. The BYE
        // is held for `HubConfig::bye_grace`, so D2 still reaches the
        // reorder buffer and the books close with zero loss.
        let mut hub = VirtualHub::new(HubConfig::default());
        let header = SessionHeader::new(60, 1, 2000.0, 1.0);
        let events = test_events(&header, 20);
        let mut tx = Packetizer::new(header).with_events_per_frame(10);
        let hello = tx.hello();
        let data = tx.data_frames(&events);
        let bye = tx.bye();
        assert_eq!(data.len(), 2);

        let socket = sensor(1);
        hub.send(socket, &hello);
        hub.send(socket, &data[0]);
        hub.send(socket, &bye); // BYE overtakes the last DATA
        hub.send(socket, &data[1]);

        hub.advance_past_bye_grace();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].report.stats.events_decoded, 20, "D2 absorbed");
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert!(sessions[0].report.stats.closed);
    }

    #[test]
    fn new_session_hello_during_the_old_byes_grace_window_is_not_swallowed() {
        // Socket reuse, back to back: session B's HELLO lands while
        // session A's BYE is still held in grace. A must retire at
        // once and B must get a fresh decoder.
        let mut hub = VirtualHub::new(HubConfig::default());
        let socket = sensor(1);

        for (id, n) in [(70u32, 25u64), (71, 15)] {
            let header = SessionHeader::new(id, 1, 2000.0, 1.0);
            let mut tx = Packetizer::new(header);
            hub.send(socket, &tx.hello());
            for f in tx.data_frames(&test_events(&header, n)) {
                hub.send(socket, &f);
            }
            hub.send(socket, &tx.bye());
            // no pause: session 71 starts well inside 70's grace
        }

        hub.advance_past_bye_grace();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 2, "both back-to-back sessions land");
        assert_eq!(sessions[0].session_id, 70);
        assert_eq!(sessions[0].report.stats.events_decoded, 25);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert_eq!(sessions[1].session_id, 71);
        assert_eq!(sessions[1].report.stats.events_decoded, 15);
        assert_eq!(sessions[1].report.stats.events_lost, 0);
        assert!(sessions[1].report.stats.closed);
    }

    #[test]
    fn reused_socket_after_a_lost_bye_starts_a_fresh_session() {
        // Session A's BYE is lost; the sensor reuses the socket for
        // session B. B's HELLO (different header) must retire A and
        // open a fresh decoder — not be swallowed by A's.
        let mut hub = VirtualHub::new(HubConfig::default());
        let socket = sensor(1);

        let header_a = SessionHeader::new(80, 1, 2000.0, 1.0);
        let mut tx_a = Packetizer::new(header_a);
        hub.send(socket, &tx_a.hello());
        for f in tx_a.data_frames(&test_events(&header_a, 20)) {
            hub.send(socket, &f);
        }
        // A's BYE is lost on air.

        let header_b = SessionHeader::new(81, 1, 2000.0, 1.0);
        let mut tx_b = Packetizer::new(header_b);
        hub.send(socket, &tx_b.hello());
        for f in tx_b.data_frames(&test_events(&header_b, 10)) {
            hub.send(socket, &f);
        }
        hub.send(socket, &tx_b.bye());

        hub.advance_past_bye_grace();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 2, "A retired by takeover, B landed");
        assert_eq!(sessions[0].session_id, 80);
        assert_eq!(sessions[0].report.stats.events_decoded, 20);
        assert!(!sessions[0].report.stats.closed, "A's BYE was lost");
        assert_eq!(sessions[1].session_id, 81);
        assert_eq!(sessions[1].report.stats.events_decoded, 10);
        assert_eq!(sessions[1].report.stats.events_lost, 0);
        assert!(sessions[1].report.stats.closed);
    }

    #[test]
    fn session_tail_reordered_past_the_next_hello_is_foreign_not_misattributed() {
        // The corner the DATA-V2 nonce closes: session A's last DATA
        // datagram is reordered past session B's HELLO on the same
        // reused address. Without the nonce it would park in B's
        // reorder buffer as a far-future hole and be declared lost at
        // close; with it, B counts one foreign frame and its books
        // close with zero loss and zero gaps.
        let mut hub = VirtualHub::new(HubConfig::default());
        let socket = sensor(1);

        let header_a = SessionHeader::new(90, 1, 2000.0, 1.0);
        let mut tx_a = Packetizer::new(header_a).with_events_per_frame(10);
        let data_a = tx_a.data_frames(&test_events(&header_a, 20));
        assert_eq!(data_a.len(), 2);
        hub.send(socket, &tx_a.hello());
        hub.send(socket, &data_a[0]);
        // data_a[1] is still in flight; A's BYE is lost on air.

        let header_b = SessionHeader::new(91, 1, 2000.0, 1.0);
        let mut tx_b = Packetizer::new(header_b);
        hub.send(socket, &tx_b.hello()); // takeover retires A
        hub.send(socket, &data_a[1]); // A's tail lands in B's decoder
        for f in tx_b.data_frames(&test_events(&header_b, 10)) {
            hub.send(socket, &f);
        }
        hub.send(socket, &tx_b.bye());

        hub.advance_past_bye_grace();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].session_id, 90);
        assert_eq!(sessions[0].report.stats.events_decoded, 10);
        assert!(!sessions[0].report.stats.closed);
        let b = &sessions[1].report.stats;
        assert_eq!(sessions[1].session_id, 91);
        assert_eq!(b.events_decoded, 10);
        assert_eq!(b.foreign_frames, 1, "A's straggler dropped as foreign");
        assert_eq!(b.events_lost, 0, "no phantom far-future hole");
        assert_eq!(b.gaps, 0);
        assert!(b.closed);
    }

    #[test]
    fn junk_datagrams_do_not_allocate_peer_state() {
        let made = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let factory: SinkFactory = {
            let made = made.clone();
            Arc::new(move |_conn| {
                made.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                struct Null;
                impl crate::sink::SessionSink for Null {}
                Box::new(Null)
            })
        };
        let mut hub = VirtualHub::with_sinks(HubConfig::default(), Some(factory));
        let socket = sensor(1);
        for i in 0..20u8 {
            hub.send(socket, &[i, 0xFF, i ^ 0x55, 0x00, i]); // garbage
        }
        hub.advance(Duration::from_millis(30));
        let sessions = hub.shutdown();
        assert!(sessions.is_empty(), "no ghost sessions from junk");
        assert_eq!(
            made.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "no sink was ever built"
        );
    }

    #[test]
    fn configs_that_would_panic_in_the_receive_thread_are_rejected_at_bind() {
        use crate::session::SessionRxConfig;
        use datc_rx::online::OnlineReconSelect;

        let session = |recon: OnlineReconSelect| SessionRxConfig {
            recon,
            ..Default::default()
        };
        let bad_configs = vec![
            HubConfig {
                session: SessionRxConfig {
                    force_window: Some(0),
                    ..Default::default()
                },
                ..HubConfig::default()
            },
            HubConfig {
                session: SessionRxConfig {
                    output_fs: 0.0,
                    ..Default::default()
                },
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Rate { window_s: 0.0 }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Ewma { tau_s: -1.0 }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::ThresholdTrack {
                    dac: datc_core::dac::Dac::paper(),
                    smooth_window_s: 0.0,
                }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Hybrid {
                    dac: datc_core::dac::Dac::paper(),
                    smooth_window_s: 0.75,
                    rate_window_s: 0.75,
                    alpha: 1.0,
                    rate0_hz: Some(0.0),
                    rate0_calib_s: None,
                }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Hybrid {
                    dac: datc_core::dac::Dac::paper(),
                    smooth_window_s: 0.75,
                    rate_window_s: 0.75,
                    alpha: 1.0,
                    rate0_hz: None,
                    rate0_calib_s: Some(-1.0),
                }),
                ..HubConfig::default()
            },
            HubConfig {
                bye_grace: Duration::ZERO,
                ..HubConfig::default()
            },
            HubConfig {
                session: SessionRxConfig {
                    parked_bytes_cap: Some(0),
                    ..Default::default()
                },
                ..HubConfig::default()
            },
            HubConfig {
                session: SessionRxConfig {
                    feedback_every: Some(Duration::ZERO),
                    ..Default::default()
                },
                ..HubConfig::default()
            },
        ];
        for bad in bad_configs {
            let err = UdpTelemetryHub::bind("127.0.0.1:0", bad.clone());
            assert_eq!(
                err.err().map(|e| e.kind()),
                Some(std::io::ErrorKind::InvalidInput),
                "udp bind must reject {bad:?}"
            );
            let err = crate::gateway::TelemetryHub::bind("127.0.0.1:0", bad.clone());
            assert_eq!(
                err.err().map(|e| e.kind()),
                Some(std::io::ErrorKind::InvalidInput),
                "tcp bind must reject {bad:?}"
            );
        }
    }

    #[test]
    fn udp_feedback_round_trips_and_the_aimd_band_takes_over_pacing() {
        use crate::flow::{AimdConfig, FlowConfig};
        use crate::session::SessionRxConfig;

        let config = HubConfig {
            session: SessionRxConfig {
                feedback_every: Some(Duration::from_millis(1)),
                ..Default::default()
            },
            ..HubConfig::default()
        };
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", config).unwrap();
        let header = SessionHeader::new(40, 2, 2000.0, 2.0);
        let events = test_events(&header, 300);
        let flow = FlowConfig {
            aimd: AimdConfig {
                ceiling_datagrams_per_s: 10_000.0,
                ..AimdConfig::default()
            },
            ..FlowConfig::default()
        };
        let mut tx = UdpSessionSender::connect(hub.local_addr(), header)
            .unwrap()
            .with_flow(flow);
        assert!(
            (tx.pacing().datagrams_per_s() - 10_000.0).abs() < 1e-6,
            "flow install re-paces to the AIMD ceiling"
        );
        for chunk in events.chunks(30) {
            tx.send_events(chunk).unwrap();
            std::thread::sleep(Duration::from_millis(3));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while tx.flow().unwrap().last_feedback().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(3));
            tx.send_events(&[]).unwrap(); // keep pumping feedback
        }
        let flow = tx.flow().unwrap();
        assert!(flow.feedback_rx() >= 1, "hub wrote feedback back");
        let fb = flow.last_feedback().expect("waited for feedback above");
        assert_eq!(fb.nonce, header.nonce(), "report pinned to this session");
        assert_eq!(fb.events_lost, 0, "clean loopback loses nothing");
        assert_eq!(flow.aimd().throttles(), 0, "no congestion evidence");
        assert!(
            (tx.pacing().datagrams_per_s() - 10_000.0).abs() < 1e-6,
            "clean feedback holds the rate at the ceiling"
        );

        let client = tx.finish().unwrap();
        assert_eq!(client.events_sent, 300);
        assert_eq!(client.repairs, 0, "nothing to repair on a clean link");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hub.session_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].report.stats.events_decoded, 300);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert!(sessions[0].report.stats.closed);
    }

    #[test]
    fn drain_repairs_a_tail_hole_the_reorder_buffer_cannot_see() {
        use crate::flow::FlowConfig;
        use crate::session::SessionRxConfig;

        // Drop the LAST DATA datagram by hand: nothing parks behind it,
        // so only the finish() drain can notice (cursor short of
        // everything sent) and repair it from the replay window.
        let config = HubConfig {
            session: SessionRxConfig {
                feedback_every: Some(Duration::from_millis(1)),
                ..Default::default()
            },
            ..HubConfig::default()
        };
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", config).unwrap();
        let header = SessionHeader::new(41, 1, 2000.0, 1.0);
        let events = test_events(&header, 30);

        // A raw socket stands in for the sender's wire so the test can
        // lose exactly one datagram; the FlowSession on the side is the
        // same state machine UdpSessionSender embeds.
        let mut flow = crate::flow::FlowSession::new(FlowConfig::default());
        let mut packetizer = Packetizer::new(header).with_events_per_frame(10);
        let socket = UdpSocket::bind("0.0.0.0:0").unwrap();
        socket.connect(hub.local_addr()).unwrap();
        socket.send(&packetizer.hello()).unwrap();
        let data = packetizer.data_frames(&events);
        assert_eq!(data.len(), 3);
        let per_frame = packetizer.events_per_frame() as u64;
        for (i, frame) in data.iter().enumerate() {
            flow.record_sent(i as u64 * per_frame, per_frame, frame);
            if i != 2 {
                socket.send(frame).unwrap(); // the last frame is lost
            }
        }

        // Pump feedback the way finish() would, repairing what the
        // receiver reports missing.
        socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut buf = [0u8; 256];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let repaired = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "drain never converged"
            );
            let Ok(n) = socket.recv(&mut buf) else {
                continue;
            };
            let crate::frame::ParseOutcome::Frame { frame, .. } =
                crate::frame::parse_frame(&buf[..n])
            else {
                continue;
            };
            assert_eq!(frame.ftype, crate::frame::FrameType::Feedback);
            let fb = crate::packet::FeedbackSummary::decode(frame.payload).unwrap();
            let decision = flow.on_feedback(fb, header.nonce(), 30, true);
            for repair in &decision.repairs {
                socket.send(repair).unwrap();
            }
            if fb.next_index >= 30 {
                break flow.repairs_frames();
            }
        };
        // ≥ 1, not == 1: a stale feedback racing the first repair can
        // legitimately trip the stall detector and resend once more —
        // the receiver's dedup keeps the books exact either way.
        assert!(repaired >= 1, "the lost tail frame was resent");
        socket.send(&packetizer.bye()).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hub.session_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(
            sessions[0].report.stats.events_decoded, 30,
            "the dropped tail was repaired"
        );
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert!(sessions[0].report.stats.closed);
    }

    #[test]
    fn idle_peer_is_evicted_without_shutdown() {
        // A peer whose BYE was lost must not pin the in-flight table
        // forever: the idle clock retires it, books open, and a late
        // straggler cannot resurrect it — but a fresh HELLO can reopen
        // the address for the sensor's next session.
        let config = HubConfig {
            idle_timeout: Some(Duration::from_millis(60)),
            ..HubConfig::default()
        };
        let mut hub = VirtualHub::new(config);
        let header = SessionHeader::new(90, 1, 2000.0, 1.0);
        let events = test_events(&header, 25);
        let mut tx = Packetizer::new(header);
        let hello = tx.hello();
        let data = tx.data_frames(&events);
        let _lost_bye = tx.bye();

        let socket = sensor(1);
        hub.send(socket, &hello);
        for f in &data {
            hub.send(socket, f);
        }
        // no BYE: only the idle clock can retire this peer
        hub.advance(Duration::from_millis(60));
        assert_eq!(hub.session_count(), 1, "idle eviction landed the session");

        // a straggler of the evicted session is dropped, not resurrected
        hub.send(socket, &data[0]);
        hub.advance(Duration::from_millis(40));
        assert_eq!(hub.session_count(), 1);

        // the sensor's next session reopens the address
        let header_b = SessionHeader::new(91, 1, 2000.0, 1.0);
        let mut tx_b = Packetizer::new(header_b);
        hub.send(socket, &tx_b.hello());
        for f in tx_b.data_frames(&test_events(&header_b, 10)) {
            hub.send(socket, &f);
        }
        hub.send(socket, &tx_b.bye());
        hub.advance_past_bye_grace();

        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].session_id, 90);
        assert_eq!(sessions[0].report.stats.events_decoded, 25);
        assert!(
            !sessions[0].report.stats.closed,
            "evicted with open books (no BYE)"
        );
        assert_eq!(sessions[1].session_id, 91);
        assert_eq!(sessions[1].report.stats.events_decoded, 10);
        assert!(sessions[1].report.stats.closed);
    }

    #[test]
    fn active_peer_outlives_the_idle_timeout() {
        // Activity resets the clock: a slow-but-alive sender whose
        // session spans many timeouts is not evicted mid-session.
        let config = HubConfig {
            idle_timeout: Some(Duration::from_millis(150)),
            ..HubConfig::default()
        };
        let mut hub = VirtualHub::new(config);
        let header = SessionHeader::new(95, 1, 2000.0, 1.0);
        let events = test_events(&header, 40);
        let mut tx = Packetizer::new(header).with_events_per_frame(5);
        let hello = tx.hello();
        let data = tx.data_frames(&events);
        let bye = tx.bye();
        assert_eq!(data.len(), 8);

        let socket = sensor(1);
        hub.send(socket, &hello);
        for f in &data {
            // each gap stops 1 ms short of the timeout; the whole
            // session spans multiple timeouts
            hub.advance(Duration::from_millis(149));
            hub.send(socket, f);
        }
        hub.send(socket, &bye);

        hub.advance_past_bye_grace();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1, "one session, never split by eviction");
        assert_eq!(sessions[0].report.stats.events_decoded, 40);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert!(sessions[0].report.stats.closed);
    }

    #[test]
    fn zero_idle_timeout_rejected_at_bind() {
        let bad = HubConfig {
            idle_timeout: Some(Duration::ZERO),
            ..HubConfig::default()
        };
        let err = UdpTelemetryHub::bind("127.0.0.1:0", bad);
        assert_eq!(
            err.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidInput)
        );
    }

    #[test]
    fn lost_bye_session_is_flushed_at_shutdown() {
        let mut hub = VirtualHub::new(HubConfig::default());
        let header = SessionHeader::new(77, 1, 2000.0, 1.0);
        let events = test_events(&header, 40);
        let mut tx = Packetizer::new(header);
        let socket = sensor(1);
        hub.send(socket, &tx.hello());
        for f in tx.data_frames(&events) {
            hub.send(socket, &f);
        }
        // never send the BYE
        hub.advance(Duration::from_millis(50));
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1, "in-flight peer flushed at shutdown");
        assert_eq!(sessions[0].report.stats.events_decoded, 40);
        assert!(!sessions[0].report.stats.closed, "no BYE, books stay open");
    }

    #[test]
    fn udp_shutdown_returns_the_same_sessions_from_a_private_or_shared_table() {
        let run = |hub: UdpTelemetryHub| {
            for id in [5u32, 2, 9] {
                let header = SessionHeader::new(id, 2, 2000.0, 1.0);
                let mut tx = UdpSessionSender::connect(hub.local_addr(), header).unwrap();
                tx.send_events(&test_events(&header, 120)).unwrap();
                tx.finish().unwrap();
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while hub.session_count() < 3 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            hub.shutdown()
        };
        // The private table is moved out; a table the caller still
        // holds is cloned and keeps its sessions.
        let moved = run(UdpTelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap());
        let table = SessionTable::shared();
        let shared = run(UdpTelemetryHub::bind_with(
            "127.0.0.1:0",
            HubConfig::default(),
            table.clone(),
            None,
        )
        .unwrap());
        assert_eq!(table.len(), 3, "a shared table keeps its sessions");
        let ids: Vec<u32> = moved.iter().map(|s| s.session_id).collect();
        assert_eq!(ids, [2, 5, 9], "sorted by session id");
        assert_eq!(format!("{moved:?}"), format!("{shared:?}"));
    }

    #[test]
    fn udp_session_cap_sheds_unknown_peers_but_keeps_known_ones_flowing() {
        let config = HubConfig {
            max_sessions: Some(1),
            ..HubConfig::default()
        };
        let mut hub = VirtualHub::new(config);
        let header_a = SessionHeader::new(1, 1, 2000.0, 1.0);
        let events = test_events(&header_a, 60);
        let mut tx_a = Packetizer::new(header_a);
        hub.send(sensor(1), &tx_a.hello());
        for f in tx_a.data_frames(&events[..30]) {
            hub.send(sensor(1), &f);
        }

        // Peer B is valid traffic, but the hub is full: shed.
        let header_b = SessionHeader::new(2, 1, 2000.0, 1.0);
        let mut tx_b = Packetizer::new(header_b);
        hub.send(sensor(2), &tx_b.hello());
        for f in tx_b.data_frames(&test_events(&header_b, 20)) {
            hub.send(sensor(2), &f);
        }
        hub.send(sensor(2), &tx_b.bye());

        // Peer A (known) still flows to a clean close.
        for f in tx_a.data_frames(&events[30..]) {
            hub.send(sensor(1), &f);
        }
        hub.send(sensor(1), &tx_a.bye());

        hub.advance_past_bye_grace();
        let health = hub.health();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1, "only peer A got a session");
        assert_eq!(sessions[0].session_id, 1);
        assert_eq!(sessions[0].report.stats.events_decoded, 60);
        assert!(sessions[0].report.stats.closed);
        assert!(
            health.shed >= 1,
            "peer B's datagrams counted as shed, got {health:?}"
        );
    }

    #[test]
    fn udp_garbage_flood_is_quarantined() {
        let config = HubConfig {
            malformed_budget: Some(4),
            ..HubConfig::default()
        };
        let mut hub = VirtualHub::new(config);
        let header = SessionHeader::new(6, 1, 2000.0, 1.0);
        let mut packetizer = Packetizer::new(header);
        let socket = sensor(1);
        hub.send(socket, &packetizer.hello());
        // CRC-broken frames from a peer that already holds decoder
        // state: each one burns budget until the peer is quarantined.
        let mut bad = crate::frame::encode_frame(crate::frame::FrameType::DataV2, 1, &[0u8; 16]);
        *bad.last_mut().unwrap() ^= 0xFF;
        for _ in 0..64 {
            hub.send(socket, &bad);
            hub.advance(Duration::from_micros(200));
        }
        assert_eq!(hub.health().quarantined, 1, "flooding peer quarantined");
        // Post-quarantine garbage is filtered as straggler traffic and
        // must not resurrect the address.
        for _ in 0..8 {
            hub.send(socket, &bad);
        }
        hub.advance(Duration::from_millis(30));
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1, "books closed once, no ghost revival");
        // Resync bytes also burn budget, so quarantine can trip right
        // at the CRC-failure budget line rather than past it.
        assert!(sessions[0].report.stats.crc_failures >= 4);
    }
}
