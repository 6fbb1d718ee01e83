//! End-to-end sensor→gateway benchmark for the datc crates.
//!
//! One process runs the whole chain on loopback: motor-pool sEMG →
//! D-ATC encode (`FleetRunner`) → AER merge → packetize → TCP or lossy
//! UDP transport → hub decode → force reconstruction, delivered to a
//! `SessionSink`. Two client threads each keep one session in flight
//! (a closed loop: a client starts its next session when its sink
//! reports the previous one closed). Every session is checked against
//! its sender's books; a violation aborts the run.
//!
//! The untraced run reports the end-to-end metrics. The traced run
//! alternates untraced and traced sub-windows, records a span per
//! layer of every traced session, replays the pool through the wire
//! and receive layers alone, and reports per-layer metrics.

pub mod pool;
pub mod replay;
pub mod stats;
pub mod system;
pub mod trace;

use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use datc_engine::FleetRunner;
use datc_signal::motor::WorkloadScenario;

use pool::{Pool, CHANNELS, CHAN_S_PER_SESSION};
use stats::{mean, median, percentile};
use system::{run_session, Client, SessionRun, System, Transport, SESSION_TIMEOUT};
use trace::Tracer;

/// Concurrent client threads, one session in flight each.
pub const CLIENTS: usize = 2;
/// Fresh bring-ups per run; `setup_s` is their median.
pub const BRING_UPS: usize = 11;
/// Timed windows are cut into slices of about this length; throughput
/// and the latency median are taken per slice and reported as the
/// median over slices, so a short host stall moves one slice, not the
/// figure.
pub const SLICE_S: f64 = 2.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Motor scenario every pool session is generated from.
    pub scenario: WorkloadScenario,
    /// How sessions reach the hub.
    pub transport: Transport,
}

/// Every workload the benchmark defines.
pub fn workloads() -> [Workload; 3] {
    [
        Workload {
            name: "paper_tcp",
            scenario: WorkloadScenario::ramp_and_hold(),
            transport: Transport::Tcp,
        },
        Workload {
            name: "ballistic_tcp",
            scenario: WorkloadScenario::ballistic(),
            transport: Transport::Tcp,
        },
        Workload {
            name: "lossy_udp",
            scenario: WorkloadScenario::ramp_and_hold(),
            transport: Transport::LossyUdp,
        },
    ]
}

/// Looks a workload up by its CLI name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Sessions attempted in the timed window(s).
    pub attempted: u64,
    /// Of those, sessions that failed.
    pub failed: u64,
    /// The end-to-end metrics (over every timed window).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Option<Vec<Metric>>,
}

impl Outcome {
    /// The value of metric `name`, end-to-end or per-layer.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(self.per_layer.iter().flatten())
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The judged result of one session.
struct Verdict {
    ok: bool,
    latency_ms: f64,
    /// Events the session meant to send (the merged link).
    intended: u64,
    decoded: u64,
    force_corr: f64,
    /// Bytes the sender put on the air: its packetizer's output plus
    /// repairs, each repair counted at the session's mean frame size
    /// (`ClientReport::bytes_sent` covers HELLO, DATA and BYE but not
    /// resent frames).
    air_bytes: f64,
}

/// Judges one session: `Ok` with a pass/fail verdict, `Err` when the
/// hub's books contradict the sender's (a correctness violation, not a
/// failure).
fn judge(run: &SessionRun, refusals: u64, transport: Transport) -> Result<Verdict, String> {
    let failed = Verdict {
        ok: false,
        latency_ms: SESSION_TIMEOUT.as_secs_f64() * 1e3,
        intended: run.events_merged,
        decoded: 0,
        force_corr: f64::NAN,
        air_bytes: 0.0,
    };
    let (Some(client), Some(closed)) = (&run.client, &run.closed) else {
        return Ok(failed);
    };
    if client.gave_up || refusals > 0 {
        return Ok(failed);
    }
    let s = &closed.stats;
    let violation = |what: String| Err(format!("session {}: {what}", closed.session_id));
    if client.events_sent != run.events_merged {
        return violation(format!(
            "sender sent {} of {} merged events",
            client.events_sent, run.events_merged
        ));
    }
    if s.events_decoded + s.events_lost != client.events_sent {
        return violation(format!(
            "hub books decoded {} + lost {} != sent {}",
            s.events_decoded, s.events_lost, client.events_sent
        ));
    }
    if transport == Transport::Tcp && (s.events_lost != 0 || !s.closed) {
        return violation(format!(
            "TCP session lost {} events (closed: {})",
            s.events_lost, s.closed
        ));
    }
    let force_corr = match &closed.force_corr {
        Ok(c) => *c,
        Err(e) => return violation(e.clone()),
    };
    Ok(Verdict {
        ok: true,
        latency_ms: ms(run.t_start, closed.closed_at),
        intended: run.events_merged,
        decoded: s.events_decoded,
        force_corr,
        air_bytes: client.bytes_sent as f64
            * (1.0 + client.repairs as f64 / client.frames_sent.max(1) as f64),
    })
}

/// Milliseconds from `a` to `b`, negative when `b` precedes `a`.
fn ms(a: Instant, b: Instant) -> f64 {
    if b >= a {
        (b - a).as_secs_f64() * 1e3
    } else {
        -(a - b).as_secs_f64() * 1e3
    }
}

/// Per pool entry: events encoded and, over TCP, the force correlation
/// and air bytes.
type Reference = (u64, Option<(f64, f64)>);

/// Values that must repeat on every delivery of a pool entry or chaos
/// schedule, and the samples the entry-weighted metrics average.
struct Books {
    reference: Vec<Option<Reference>>,
    /// Chaos drops per schedule (lossy UDP only).
    drops: Vec<Option<u64>>,
    corr: Vec<Vec<f64>>,
    bytes: Vec<Vec<f64>>,
}

impl Books {
    fn new(pool: &Pool) -> Books {
        let entries = pool.sessions.len();
        Books {
            reference: vec![None; entries],
            drops: vec![None; pool.chaos_seeds.len()],
            corr: vec![Vec::new(); entries],
            bytes: vec![Vec::new(); entries],
        }
    }

    /// Checks an OK session against its entry's reference and, when
    /// `sample`, adds it to the entry's metric samples.
    fn record(
        &mut self,
        run: &SessionRun,
        v: &Verdict,
        transport: Transport,
        sample: bool,
    ) -> Result<(), String> {
        let exact = (transport == Transport::Tcp).then_some((v.force_corr, v.air_bytes));
        check_repeats(
            &mut self.reference[run.entry],
            (run.events_encoded, exact),
            "pool entry",
        )?;
        if let Some(chaos) = run.chaos {
            check_repeats(
                &mut self.drops[run.schedule],
                chaos.dropped,
                "chaos schedule",
            )?;
        }
        if sample {
            self.corr[run.entry].push(v.force_corr);
            self.bytes[run.entry].push(v.air_bytes);
        }
        Ok(())
    }

    /// Mean over entries of each entry's median: entries weigh equally,
    /// so the figure does not depend on how often each entry ran, and an
    /// entry whose value repeats exactly contributes it exactly.
    fn entry_mean(per_entry: &[Vec<f64>]) -> f64 {
        mean(
            &per_entry
                .iter()
                .filter(|v| !v.is_empty())
                .map(|v| median(v))
                .collect::<Vec<_>>(),
        )
    }
}

/// Stores the first value seen in `slot` and rejects any later value
/// that differs from it.
fn check_repeats<T: PartialEq + std::fmt::Debug>(
    slot: &mut Option<T>,
    seen: T,
    what: &str,
) -> Result<(), String> {
    match slot {
        None => *slot = Some(seen),
        Some(first) if *first != seen => {
            return Err(format!(
                "{what} is not deterministic: {first:?} then {seen:?}"
            ))
        }
        Some(_) => {}
    }
    Ok(())
}

/// Sessions of one timed window.
struct Window {
    runs: Vec<(SessionRun, u64)>,
    start: Instant,
    seconds: f64,
    wall_s: f64,
    traced: bool,
}

/// Sessions started and completed in one slice of a window.
#[derive(Default)]
struct Slice {
    latencies_ms: Vec<f64>,
    completed: u64,
    seconds: f64,
}

/// Runs the closed loop for `seconds`: `CLIENTS` threads, each sending
/// its next session as soon as the previous one closed at the hub.
fn window(
    sys: &System,
    runner: &FleetRunner,
    pool: &Pool,
    seconds: f64,
    ids: &AtomicU32,
    tracer: Option<&mut Tracer>,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let runs: Vec<(SessionRun, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let client = Client::new(runner.clone());
                    let mut seen = sys.refusals();
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let id = ids.fetch_add(1, Ordering::Relaxed);
                        let run = run_session(sys, &client, pool, id);
                        let now = sys.refusals();
                        out.push((run, now - seen));
                        seen = now;
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let traced = tracer.is_some();
    if let Some(tracer) = tracer {
        for (r, _) in &runs {
            record_spans(tracer, r);
        }
    }
    Window {
        runs,
        start,
        seconds,
        wall_s,
        traced,
    }
}

fn record_spans(tracer: &mut Tracer, r: &SessionRun) {
    let Some(closed) = &r.closed else {
        return;
    };
    let id = closed.session_id;
    let root = Some("session");
    tracer.span(id, "session", None, r.t_start, closed.closed_at);
    tracer.span(id, "engine.encode", root, r.t_start, r.t_encoded);
    tracer.span(id, "uwb.merge", root, r.t_encoded, r.t_merged);
    tracer.span(id, "gateway.send", root, r.t_merged, r.t_finished);
    tracer.span(
        id,
        "gateway.accept_wait",
        Some("gateway.send"),
        r.t_merged,
        closed.sink_created,
    );
    tracer.span(id, "gateway.drain", root, r.t_finished, closed.closed_at);
}

/// Runs workload `w` under `seed` for `seconds` of timed window. A
/// traced run additionally records per-layer metrics and, when
/// `trace_path` is given, writes its spans there.
///
/// # Errors
///
/// Returns the first correctness violation, or a bring-up failure.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_path: Option<&Path>,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let pool = pool::generate(w.scenario, seed);
    let gen_s = epoch.elapsed().as_secs_f64();
    let mut books = Books::new(&pool);
    // Session ids, which also pick each session's pool entry and chaos
    // schedule.
    let ids = AtomicU32::new(1);

    // Set-up: fresh bring-ups, each to its first delivered session.
    let mut setup = Vec::with_capacity(BRING_UPS);
    let mut live: Option<(System, FleetRunner)> = None;
    for _ in 0..BRING_UPS {
        let t = Instant::now();
        let runner = system::runner();
        let sys = System::bind(w.transport).map_err(|e| format!("hub bind: {e}"))?;
        let client = Client::new(runner.clone());
        let id = ids.fetch_add(1, Ordering::Relaxed);
        let r = run_session(&sys, &client, &pool, id);
        let v = judge(&r, 0, w.transport)?;
        if !v.ok {
            return Err("the cold set-up session failed".to_string());
        }
        books.record(&r, &v, w.transport, false)?;
        setup.push(ms(t, r.closed.as_ref().expect("ok").closed_at) / 1e3);
        live = Some((sys, runner));
    }
    let (sys, runner) = live.expect("BRING_UPS > 0");

    // Timed windows: one untraced, or untraced/traced alternating.
    let mut tracer = Tracer::new(epoch);
    let windows: Vec<Window> = if traced {
        [false, true, true, false]
            .into_iter()
            .map(|t| {
                let tr = if t { Some(&mut tracer) } else { None };
                window(&sys, &runner, &pool, seconds / 4.0, &ids, tr)
            })
            .collect()
    } else {
        vec![window(&sys, &runner, &pool, seconds, &ids, None)]
    };

    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut traced_runs: Vec<&SessionRun> = Vec::new();
    let mut slices: Vec<Slice> = Vec::new();
    // (traced, ok sessions, wall seconds) per window.
    let mut tallies: Vec<(bool, u64, f64)> = Vec::new();
    for win in &windows {
        let n = ((win.seconds / SLICE_S).round() as usize).max(1);
        let len = win.seconds / n as f64;
        let first = slices.len();
        slices.extend((0..n).map(|_| Slice {
            seconds: len,
            ..Slice::default()
        }));
        let slice_of = |t: Instant| (ms(win.start, t) / 1e3 / len).floor().max(0.0) as usize;
        let mut ok = 0;
        for (r, refusals) in &win.runs {
            let v = judge(r, *refusals, w.transport)?;
            slices[first + slice_of(r.t_start).min(n - 1)]
                .latencies_ms
                .push(v.latency_ms);
            if v.ok {
                books.record(r, &v, w.transport, true)?;
                ok += 1;
                let done = slice_of(r.closed.as_ref().expect("judged OK").closed_at);
                if done < n {
                    slices[first + done].completed += 1;
                }
                if win.traced {
                    traced_runs.push(r);
                }
            }
            verdicts.push(v);
        }
        tallies.push((win.traced, ok, win.wall_s));
    }
    let attempted = verdicts.len() as u64;
    let ok = verdicts.iter().filter(|v| v.ok).count() as u64;
    let per_slice = |f: &dyn Fn(&Slice) -> f64| {
        median(
            &slices
                .iter()
                .filter(|s| !s.latencies_ms.is_empty())
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let intended: u64 = verdicts.iter().map(|v| v.intended).sum();
    let decoded: u64 = verdicts.iter().map(|v| v.decoded).sum();
    let throughput = |traced: bool| {
        let (mut ok, mut wall) = (0, 0.0);
        for &(_, n, s) in tallies.iter().filter(|w| w.0 == traced) {
            ok += n;
            wall += s;
        }
        ok as f64 * CHAN_S_PER_SESSION / wall
    };
    let end_to_end = vec![
        metric("setup_s", median(&setup), "s"),
        metric(
            "chan_s_per_s",
            per_slice(&|s| s.completed as f64 * CHAN_S_PER_SESSION / s.seconds),
            "chan_s/s",
        ),
        metric(
            "session_ms_p50",
            per_slice(&|s| percentile(&s.latencies_ms, 0.5)),
            "ms",
        ),
        metric(
            "force_corr_pct",
            100.0 * Books::entry_mean(&books.corr),
            "%",
        ),
        metric(
            "delivered_pct",
            100.0 * decoded as f64 / intended.max(1) as f64,
            "%",
        ),
        metric(
            "air_bits_per_chan_s",
            8.0 * Books::entry_mean(&books.bytes) / CHAN_S_PER_SESSION,
            "bit/chan_s",
        ),
    ];

    let per_layer = if traced {
        let overhead_pct = (throughput(false) / throughput(true) - 1.0) * 100.0;
        let layers = per_layer(w, &traced_runs, &books, &runner, &pool, gen_s, overhead_pct)?;
        if let Some(path) = trace_path {
            tracer
                .dump(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        Some(layers)
    } else {
        None
    };
    drop(sys);
    Ok(Outcome {
        attempted,
        failed: attempted - ok,
        end_to_end,
        per_layer,
    })
}

/// The per-layer metrics of a traced run, from its traced sessions
/// (all judged OK) plus single-threaded replays of the pool.
fn per_layer(
    w: Workload,
    traced: &[&SessionRun],
    books: &Books,
    runner: &FleetRunner,
    pool: &Pool,
    gen_s: f64,
    overhead_pct: f64,
) -> Result<Vec<Metric>, String> {
    if traced.is_empty() {
        return Err("no traced session completed".to_string());
    }
    fn closed(r: &SessionRun) -> &system::Delivered {
        r.closed.as_ref().expect("judged OK")
    }
    let col = |f: &dyn Fn(&SessionRun) -> f64| traced.iter().map(|r| f(r)).collect::<Vec<_>>();
    let encode_ms = col(&|r| ms(r.t_start, r.t_encoded));
    let merge_ms = col(&|r| ms(r.t_encoded, r.t_merged));
    let send_ms = col(&|r| ms(r.t_merged, r.t_finished));
    let accept_ms = col(&|r| ms(r.t_merged, closed(r).sink_created));
    let drain_ms = col(&|r| ms(r.t_finished, closed(r).closed_at));
    let session_ms = col(&|r| ms(r.t_start, closed(r).closed_at));
    let encode_ns_per_sample =
        col(&|r| ms(r.t_start, r.t_encoded) * 1e6 / (r.ticks as f64 * CHANNELS as f64));
    let merge_ns_per_event =
        col(&|r| ms(r.t_encoded, r.t_merged) * 1e6 / r.events_encoded.max(1) as f64);
    let client = |r: &SessionRun| r.client.expect("judged OK");
    let datagrams = col(&|r| {
        if w.transport == Transport::Tcp {
            0.0
        } else {
            (client(r).frames_sent + client(r).repairs) as f64
        }
    });
    let repairs = col(&|r| client(r).repairs as f64);
    let feedback = col(&|r| r.feedback_rx as f64);
    let throttles = col(&|r| r.throttles as f64);
    let drops_total: f64 = col(&|r| r.chaos.map_or(0, |c| c.dropped) as f64)
        .iter()
        .sum();
    let repairs_total: f64 = repairs.iter().sum();

    let (p50_encode, p50_merge, p50_send, p50_drain, p50_session) = (
        median(&encode_ms),
        median(&merge_ms),
        median(&send_ms),
        median(&drain_ms),
        median(&session_ms),
    );

    // The replays must see what the live sessions saw: the same encoder
    // output per entry, over TCP the same bytes, and over lossy UDP the
    // same drops per chaos schedule.
    let images = replay::images(runner, pool);
    for (k, img) in images.iter().enumerate() {
        let Some((events, exact)) = books.reference[k] else {
            continue;
        };
        let live_bytes = exact.map(|(_, bytes)| bytes);
        if events != img.encoded || live_bytes.is_some_and(|b| b != img.bytes.len() as f64) {
            return Err(format!(
                "pool entry {k}: replay encoded {} events into {} bytes, live {events} events, \
                 {live_bytes:?} bytes",
                img.encoded,
                img.bytes.len()
            ));
        }
    }
    let drops: Vec<u64> = match w.transport {
        Transport::Tcp => vec![0; pool.chaos_seeds.len()],
        Transport::LossyUdp => replay::chaos_drops(&images, &pool.chaos_seeds),
    };
    for (j, live) in books.drops.iter().enumerate() {
        if live.is_some_and(|d| d != drops[j]) {
            return Err(format!(
                "chaos schedule {j}: replay dropped {}, live {live:?}",
                drops[j]
            ));
        }
    }
    let costs = replay::measure(&images, &system::hub_config(w.transport))?;
    let mean_of = |v: &mut dyn Iterator<Item = u64>| mean(&v.map(|x| x as f64).collect::<Vec<_>>());

    Ok(vec![
        metric("signal.gen_s", gen_s, "s"),
        metric("engine.encode_ms_p50", p50_encode, "ms"),
        metric(
            "engine.encode_ns_per_sample",
            median(&encode_ns_per_sample),
            "ns",
        ),
        metric(
            "engine.events_per_session",
            mean_of(&mut images.iter().map(|i| i.encoded)),
            "count",
        ),
        metric("uwb.merge_ms_p50", p50_merge, "ms"),
        metric("uwb.merge_ns_per_event", median(&merge_ns_per_event), "ns"),
        metric("wire.packet_ns_per_event", costs.packet_ns_per_event, "ns"),
        metric("wire.bytes_per_event", costs.bytes_per_event, "B"),
        metric("wire.frames_per_session", costs.frames_per_session, "count"),
        metric("gateway.send_ms_p50", p50_send, "ms"),
        metric("gateway.accept_wait_ms_p50", median(&accept_ms), "ms"),
        metric("gateway.drain_ms_p50", p50_drain, "ms"),
        metric("wire.decode_ns_per_event", costs.decode_ns_per_event, "ns"),
        metric("rx.session_ns_per_event", costs.session_ns_per_event, "ns"),
        metric("rx.hub_ns_per_event", costs.hub_ns_per_event, "ns"),
        metric("udp.datagrams_per_session", mean(&datagrams), "count"),
        metric("flow.repair_frames_per_session", mean(&repairs), "count"),
        metric("flow.feedback_rx_per_session", mean(&feedback), "count"),
        metric("flow.throttles_per_session", mean(&throttles), "count"),
        metric(
            "chaos.dropped_per_session",
            mean_of(&mut drops.iter().copied()),
            "count",
        ),
        metric(
            "flow.repairs_per_drop",
            if drops_total > 0.0 {
                repairs_total / drops_total
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.session_ms_p50", p50_session, "ms"),
        metric("trace.session_ms_p75", percentile(&session_ms, 0.75), "ms"),
        metric("trace.session_ms_p90", percentile(&session_ms, 0.9), "ms"),
        metric(
            "trace.client_sum_over_session",
            (p50_encode + p50_merge + p50_send + p50_drain) / p50_session,
            "ratio",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("trace.sessions", traced.len() as f64, "count"),
    ])
}
