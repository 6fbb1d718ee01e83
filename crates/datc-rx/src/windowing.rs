//! Event-rate estimation: the receiver's "low-complexity windowing".

use datc_core::event::EventStream;
use datc_signal::Signal;

/// Causal sliding-window event rate in events/second, sampled at
/// `output_fs` Hz.
///
/// At output time `t` the estimate is the number of events inside
/// `(t - window_s, t]` divided by the window length, computed with a
/// two-pointer sweep (O(N + M)).
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::windowing::sliding_rate;
///
/// let ev: Vec<Event> = (0..100)
///     .map(|i| Event { tick: i, vth_code: None })
///     .collect();
/// let s = EventStream::new(ev, 100.0, 1.0);
/// let rate = sliding_rate(&s, 0.2, 100.0);
/// // steady 100 ev/s once the window fills
/// assert!((rate.samples()[80] - 100.0).abs() < 11.0);
/// ```
pub fn sliding_rate(events: &EventStream, window_s: f64, output_fs: f64) -> Signal {
    assert!(window_s > 0.0, "window must be positive");
    assert!(output_fs > 0.0, "output rate must be positive");
    let n_out = (events.duration_s() * output_fs).floor().max(0.0) as usize;
    let times: Vec<f64> = events.iter().map(|e| events.time_of(e)).collect();
    let mut out = Vec::with_capacity(n_out);
    let mut lo = 0usize; // first event inside the window
    let mut hi = 0usize; // one past the last event with time <= t
    for k in 0..n_out {
        let t = k as f64 / output_fs;
        while hi < times.len() && times[hi] <= t {
            hi += 1;
        }
        while lo < hi && times[lo] <= t - window_s {
            lo += 1;
        }
        out.push((hi - lo) as f64 / window_s);
    }
    Signal::from_samples(out, output_fs)
}

/// Non-overlapping (tumbling) window counts: `(window_centre_s, count)`
/// pairs — the simplest receiver the original ATC demo used.
///
/// An event timestamped exactly at the end of the observation window
/// (`time / window_s == n_windows`, which happens whenever the window
/// length divides the duration) belongs to the last window rather than
/// to a non-existent one past the end; it is clamped in, not dropped.
pub fn tumbling_counts(events: &EventStream, window_s: f64) -> Vec<(f64, usize)> {
    assert!(window_s > 0.0, "window must be positive");
    let n_windows = (events.duration_s() / window_s).ceil() as usize;
    let mut counts = vec![0usize; n_windows];
    for e in events {
        let t = events.time_of(e);
        let mut idx = (t / window_s) as usize;
        if idx == n_windows && n_windows > 0 && t <= events.duration_s() {
            // exactly at the window edge: the closed end of the last bin
            // (events strictly past the observation window stay dropped)
            idx = n_windows - 1;
        }
        if idx < n_windows {
            counts[idx] += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| ((i as f64 + 0.5) * window_s, c))
        .collect()
}

/// Exponentially weighted event-rate estimate (one-pole smoothing of the
/// inter-event intervals), an alternative receiver with O(1) memory.
pub fn ewma_rate(events: &EventStream, tau_s: f64, output_fs: f64) -> Signal {
    assert!(tau_s > 0.0, "time constant must be positive");
    let n_out = (events.duration_s() * output_fs).floor().max(0.0) as usize;
    let dt = 1.0 / output_fs;
    let alpha = (-dt / tau_s).exp();
    let mut out = Vec::with_capacity(n_out);
    let mut level = 0.0f64;
    let mut next_event = 0usize;
    let times: Vec<f64> = events.iter().map(|e| events.time_of(e)).collect();
    for k in 0..n_out {
        let t = k as f64 / output_fs;
        let mut impulses = 0.0;
        while next_event < times.len() && times[next_event] <= t {
            impulses += 1.0;
            next_event += 1;
        }
        // impulse contributes 1/tau so that DC gain equals the rate
        level = alpha * level + impulses / tau_s;
        out.push(level);
    }
    Signal::from_samples(out, output_fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::event::Event;

    /// One event per tick of a `rate_hz` clock.
    fn regular_stream(rate_hz: f64, duration_s: f64) -> EventStream {
        let n = (rate_hz * duration_s) as usize;
        let ev: Vec<Event> = (0..n)
            .map(|i| Event {
                tick: i as u64,
                vth_code: None,
            })
            .collect();
        EventStream::new(ev, rate_hz, duration_s)
    }

    #[test]
    fn sliding_rate_recovers_constant_rate() {
        let s = regular_stream(50.0, 2.0);
        let rate = sliding_rate(&s, 0.5, 100.0);
        let tail = &rate.samples()[100..];
        for &r in tail {
            assert!((r - 50.0).abs() <= 2.0 / 0.5, "rate {r}");
        }
    }

    #[test]
    fn sliding_rate_of_empty_stream_is_zero() {
        let s = EventStream::new(vec![], 1000.0, 1.0);
        let rate = sliding_rate(&s, 0.25, 100.0);
        assert!(rate.samples().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn tumbling_counts_partition_all_events() {
        let s = regular_stream(97.0, 2.0);
        let windows = tumbling_counts(&s, 0.13);
        let total: usize = windows.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, s.len());
    }

    #[test]
    fn tumbling_counts_keep_the_event_at_the_exact_window_edge() {
        // duration 1.0 s, window 0.25 s: an event at exactly t = 1.0
        // indexes to 4 == n_windows and used to be dropped silently.
        let ev = vec![
            Event {
                tick: 100,
                vth_code: None,
            },
            Event {
                tick: 1000,
                vth_code: None,
            },
        ];
        let s = EventStream::new(ev, 1000.0, 1.0);
        let windows = tumbling_counts(&s, 0.25);
        assert_eq!(windows.len(), 4);
        let total: usize = windows.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 2, "edge event must not vanish");
        assert_eq!(windows[3].1, 1, "edge event clamps into the last window");

        // but an event strictly past the observation window stays out:
        // the clamp rescues the boundary, not out-of-window data
        let late = EventStream::new(
            vec![Event {
                tick: 1490, // idx == n_windows for window 0.5 yet t > duration
                vth_code: None,
            }],
            1000.0,
            1.0,
        );
        let windows = tumbling_counts(&late, 0.5);
        let total: usize = windows.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 0, "past-duration event must not be clamped in");
    }

    #[test]
    fn ewma_rate_converges_to_true_rate() {
        let s = regular_stream(80.0, 4.0);
        let rate = ewma_rate(&s, 0.25, 200.0);
        let tail = crate::metrics::mean_of(&rate.samples()[600..]);
        assert!((tail - 80.0).abs() < 8.0, "ewma tail {tail}");
    }

    #[test]
    fn rate_tracks_a_step_change() {
        // 20 ev/s for 1 s then 100 ev/s for 1 s, on a 1 kHz clock
        let mut ev = Vec::new();
        let mut tick = 0u64;
        while tick < 1000 {
            ev.push(Event {
                tick,
                vth_code: None,
            });
            tick += 50;
        }
        while tick < 2000 {
            ev.push(Event {
                tick,
                vth_code: None,
            });
            tick += 10;
        }
        let s = EventStream::new(ev, 1000.0, 2.0);
        let rate = sliding_rate(&s, 0.2, 100.0);
        assert!(rate.samples()[80] < 40.0);
        assert!(rate.samples()[190] > 80.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let s = regular_stream(10.0, 1.0);
        let _ = sliding_rate(&s, 0.0, 100.0);
    }
}
