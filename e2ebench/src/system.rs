//! The system under test, driven only through public calls: the TCP
//! `TelemetryHub` or the UDP `UdpTelemetryHub` on loopback, a sink that
//! hands each closed session back to the client that sent it, and one
//! sensor session (encode → AER merge → send → hub close).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datc_core::encoder::TraceLevel;
use datc_core::DatcConfig;
use datc_engine::FleetRunner;
use datc_wire::chaos::{ChaosLink, ChaosProfile, ChaosStats};
use datc_wire::flow::{AimdConfig, FlowConfig};
use datc_wire::gateway::{ClientReport, HubConfig, SessionSender, SessionTable, TelemetryHub};
use datc_wire::packet::SessionHeader;
use datc_wire::session::{SessionReport, SessionRxConfig};
use datc_wire::sink::SessionSink;
use datc_wire::udp::{UdpPacing, UdpSessionSender, UdpTelemetryHub};
use datc_wire::WireStats;

use crate::pool::{Pool, CHANNELS};
use crate::stats::{mean, pearson};

/// AER pattern dead time of the merged link (as in `bench_wire`).
pub const DEAD_TIME_S: f64 = 25e-6;
/// A session with no hub close this long after its sender finished has
/// failed; its latency is booked as this value.
pub const SESSION_TIMEOUT: Duration = Duration::from_secs(5);
/// Events per `UdpSessionSender::send_events` call (`bench_wire`'s
/// goodput section).
pub const UDP_CHUNK: usize = 64;

/// How the sensor reaches the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP `TelemetryHub`, default `HubConfig`.
    Tcp,
    /// `UdpTelemetryHub` behind the seeded `ChaosProfile::lossy()` link,
    /// with receiver-driven flow control.
    LossyUdp,
}

/// A paper-config encoder for one client, with no hidden worker
/// threads.
pub fn runner() -> FleetRunner {
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    FleetRunner::new(config, CHANNELS)
        .expect("paper config is valid")
        .with_threads(1)
}

/// The AIMD band of `bench_wire`'s goodput-under-loss section.
fn udp_band() -> AimdConfig {
    AimdConfig {
        floor_datagrams_per_s: 2_000.0,
        ceiling_datagrams_per_s: 20_000.0,
        ..AimdConfig::default()
    }
}

/// The hub configuration of a transport.
pub fn hub_config(transport: Transport) -> HubConfig {
    match transport {
        Transport::Tcp => HubConfig::default(),
        Transport::LossyUdp => HubConfig {
            session: SessionRxConfig {
                feedback_every: Some(Duration::from_millis(1)),
                // Parking slack for the repair round trip at 20 k
                // datagrams/s.
                reorder_window: 1024,
                ..SessionRxConfig::default()
            },
            ..HubConfig::default()
        },
    }
}

/// What the hub delivered for one session, handed back by its sink.
struct Closed {
    session_id: u32,
    sink_created: Instant,
    closed_at: Instant,
    stats: WireStats,
    /// Every force sample the sink received, per channel.
    force: Vec<Vec<f64>>,
    /// Force samples the hub reports emitting, per channel.
    force_emitted: Vec<usize>,
    /// The closing report's own finiteness verdict.
    report_finite: bool,
}

/// A delivered session as the client keeps it: the force traces are
/// checked and correlated with the ground truth as soon as they arrive,
/// then dropped (a run delivers thousands of 64 KB traces).
#[derive(Debug)]
pub struct Delivered {
    /// The session id from the closing report.
    pub session_id: u32,
    /// When the hub asked the sink factory for this session's sink.
    pub sink_created: Instant,
    /// When the sink saw `on_close`.
    pub closed_at: Instant,
    /// Final decoder counters.
    pub stats: WireStats,
    /// Mean over channels of the Pearson correlation between delivered
    /// and ground-truth force, or what was wrong with the delivered
    /// force.
    pub force_corr: Result<f64, String>,
}

impl Closed {
    fn summarise(self, truth: &[Vec<f64>]) -> Delivered {
        Delivered {
            session_id: self.session_id,
            sink_created: self.sink_created,
            closed_at: self.closed_at,
            force_corr: self.check_force(truth),
            stats: self.stats,
        }
    }

    fn check_force(&self, truth: &[Vec<f64>]) -> Result<f64, String> {
        if self.force.len() != CHANNELS || self.force_emitted.len() != CHANNELS {
            return Err(format!("force for {} channels", self.force.len()));
        }
        for (c, f) in self.force.iter().enumerate() {
            if f.len() != self.force_emitted[c] {
                return Err(format!(
                    "channel {c}: sink got {} force samples, hub emitted {}",
                    f.len(),
                    self.force_emitted[c]
                ));
            }
        }
        if !self.report_finite || !self.force.iter().flatten().all(|v| v.is_finite()) {
            return Err("non-finite force".to_string());
        }
        let corr = mean(
            &(0..CHANNELS)
                .map(|c| pearson(&self.force[c], &truth[c]))
                .collect::<Vec<_>>(),
        );
        if corr.is_finite() {
            Ok(corr)
        } else {
            Err("force correlation undefined".to_string())
        }
    }
}

type Waiters = Arc<Mutex<HashMap<u32, Sender<Closed>>>>;

/// Collects a session's force and posts it to the waiting client at
/// `on_close`.
struct ReturnSink {
    waiters: Waiters,
    created: Instant,
    force: Vec<Vec<f64>>,
}

impl SessionSink for ReturnSink {
    fn on_force(&mut self, channel: usize, samples: &[f64]) {
        if channel >= self.force.len() {
            self.force.resize(channel + 1, Vec::new());
        }
        self.force[channel].extend_from_slice(samples);
    }

    fn on_close(&mut self, report: &SessionReport) {
        let closed_at = Instant::now();
        let session_id = report.header.map_or(0, |h| h.session_id);
        let waiter = self
            .waiters
            .lock()
            .expect("waiter map poisoned")
            .remove(&session_id);
        // A session whose client already gave up on it has no waiter.
        if let Some(tx) = waiter {
            let _ = tx.send(Closed {
                session_id,
                sink_created: self.created,
                closed_at,
                stats: report.stats.clone(),
                force: std::mem::take(&mut self.force),
                force_emitted: report.force_emitted.clone(),
                report_finite: report.force_is_finite(),
            });
        }
    }
}

enum Hub {
    Tcp(TelemetryHub),
    Udp(UdpTelemetryHub),
}

/// A running hub plus the routing from session id to waiting client.
/// Dropping it stops the hub and joins its threads; unlike the hubs'
/// `shutdown`, the drop does not copy the hub's table of every finished
/// session.
pub struct System {
    hub: Hub,
    addr: SocketAddr,
    transport: Transport,
    waiters: Waiters,
}

impl System {
    /// Binds a hub of `transport` on an ephemeral loopback port.
    pub fn bind(transport: Transport) -> std::io::Result<System> {
        let waiters: Waiters = Arc::default();
        let factory = {
            let waiters = Arc::clone(&waiters);
            Arc::new(move |_conn: u64| -> Box<dyn SessionSink> {
                Box::new(ReturnSink {
                    waiters: Arc::clone(&waiters),
                    created: Instant::now(),
                    force: Vec::new(),
                })
            })
        };
        let config = hub_config(transport);
        let table = SessionTable::shared();
        let hub = match transport {
            Transport::Tcp => Hub::Tcp(TelemetryHub::bind_with(
                "127.0.0.1:0",
                config,
                table,
                Some(factory),
            )?),
            Transport::LossyUdp => Hub::Udp(UdpTelemetryHub::bind_with(
                "127.0.0.1:0",
                config,
                table,
                Some(factory),
            )?),
        };
        let addr = match &hub {
            Hub::Tcp(h) => h.local_addr(),
            Hub::Udp(h) => h.local_addr(),
        };
        Ok(System {
            hub,
            addr,
            transport,
            waiters,
        })
    }

    /// Sessions the hub shed, evicted or quarantined so far.
    pub fn refusals(&self) -> u64 {
        let h = match &self.hub {
            Hub::Tcp(h) => h.health(),
            Hub::Udp(h) => h.health(),
        };
        h.shed + h.evicted + h.quarantined
    }
}

/// A client's return path: its session ids are routed here.
pub struct Client {
    tx: Sender<Closed>,
    rx: Receiver<Closed>,
    runner: FleetRunner,
}

impl Client {
    /// A client encoding with `runner`.
    pub fn new(runner: FleetRunner) -> Client {
        let (tx, rx) = mpsc::channel();
        Client { tx, rx, runner }
    }
}

/// Timestamps and counters of one session, as the client saw it.
#[derive(Debug)]
pub struct SessionRun {
    /// Pool entry sent.
    pub entry: usize,
    /// Chaos schedule the session ran under (lossy UDP only).
    pub schedule: usize,
    /// Encode start.
    pub t_start: Instant,
    /// `FleetRunner::encode` returned.
    pub t_encoded: Instant,
    /// `merge_aer` returned; connect starts.
    pub t_merged: Instant,
    /// `finish` returned (or the send failed).
    pub t_finished: Instant,
    /// Events the encoder produced (all channels).
    pub events_encoded: u64,
    /// Events on the merged AER link (what the sender sends).
    pub events_merged: u64,
    /// Encoder clock ticks per channel.
    pub ticks: u64,
    /// The sender's report; `None` when connect or send failed.
    pub client: Option<ClientReport>,
    /// What the hub delivered; `None` on a send failure or timeout.
    pub closed: Option<Delivered>,
    /// Chaos counters (lossy UDP only).
    pub chaos: Option<ChaosStats>,
    /// Feedback reports the flow controller accepted before the close
    /// drain (lossy UDP only).
    pub feedback_rx: u64,
    /// AIMD throttles before the close drain (lossy UDP only).
    pub throttles: u64,
}

/// Runs session `session_id` of the pool end to end: encode, merge,
/// send over the system's transport, then wait for the hub's
/// `on_close`.
pub fn run_session(sys: &System, client: &Client, pool: &Pool, session_id: u32) -> SessionRun {
    let entry = pool.entry(session_id);
    let schedule = pool.schedule(session_id);
    let session = &pool.sessions[entry];
    let t_start = Instant::now();
    let fleet = client.runner.encode(&session.signals);
    let t_encoded = Instant::now();
    let merged = fleet.merge_aer(DEAD_TIME_S).merged;
    let t_merged = Instant::now();
    let first = &fleet.channels[0].events;
    let header = SessionHeader::new(
        session_id,
        CHANNELS as u16,
        first.tick_rate_hz(),
        first.duration_s(),
    );
    sys.waiters
        .lock()
        .expect("waiter map poisoned")
        .insert(session_id, client.tx.clone());

    let mut chaos = None;
    let (mut feedback_rx, mut throttles) = (0, 0);
    let sent: std::io::Result<ClientReport> = match sys.transport {
        Transport::Tcp => SessionSender::connect(sys.addr, header).and_then(|mut tx| {
            tx.send_events(&merged)?;
            tx.finish()
        }),
        Transport::LossyUdp => {
            let band = udp_band();
            let pacing = UdpPacing {
                burst: band.burst,
                inter_burst: Duration::from_secs_f64(
                    f64::from(band.burst) / band.ceiling_datagrams_per_s,
                ),
            };
            UdpSessionSender::connect_with(sys.addr, header, pacing).and_then(|tx| {
                let mut tx = tx
                    .with_chaos(ChaosLink::new(
                        pool.chaos_seeds[schedule],
                        ChaosProfile::lossy(),
                    ))
                    .with_flow(FlowConfig {
                        aimd: band,
                        replay_bytes: 4 << 20,
                        drain: Duration::from_millis(500),
                    });
                for chunk in merged.chunks(UDP_CHUNK) {
                    tx.send_events(chunk)?;
                }
                chaos = tx.chaos_stats();
                if let Some(flow) = tx.flow() {
                    feedback_rx = flow.feedback_rx();
                    throttles = flow.aimd().throttles();
                }
                tx.finish()
            })
        }
    };
    let t_finished = Instant::now();
    let client_report = sent.ok();
    let closed = match client_report {
        Some(_) => wait_closed(client, session_id).map(|c| c.summarise(&session.truth)),
        None => None,
    };
    if closed.is_none() {
        sys.waiters
            .lock()
            .expect("waiter map poisoned")
            .remove(&session_id);
    }
    SessionRun {
        entry,
        schedule,
        t_start,
        t_encoded,
        t_merged,
        t_finished,
        events_encoded: fleet.total_events() as u64,
        events_merged: merged.len() as u64,
        ticks: fleet.ticks,
        client: client_report,
        closed,
        chaos,
        feedback_rx,
        throttles,
    }
}

/// Waits for `session_id`'s close, discarding late closes of sessions
/// this client already gave up on.
fn wait_closed(client: &Client, session_id: u32) -> Option<Closed> {
    let deadline = Instant::now() + SESSION_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match client.rx.recv_timeout(left) {
            Ok(c) if c.session_id == session_id => return Some(c),
            Ok(_) => continue,
            Err(_) => return None,
        }
    }
}
