//! Background file-system load ("weather").
//!
//! Table II's negative overheads happen because the Darshan-only
//! baseline campaign ran 1–2 weeks before the connector campaign, under
//! different file-system load. This module reproduces that mechanism: a
//! seeded campaign-level load factor, a diurnal (time-of-day) component
//! — the paper explicitly lists "time of the day being used" as a
//! variability source — and explicit congestion windows used to inject
//! the anomalous `job_id 2` of Figures 7–9.

use iosim_time::Epoch;
use std::f64::consts::TAU;

/// A transient congestion event: while `t` is inside the window, all
/// operation durations are multiplied by `factor`, and optionally the
/// client caches stop being effective (`drops_caches`) — a storm is
/// both server congestion and client memory pressure, and the latter is
/// what turns millisecond cached reads into multi-second server reads
/// (the paper's anomalous job 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionWindow {
    /// Window start (absolute time).
    pub start: Epoch,
    /// Window end (absolute time).
    pub end: Epoch,
    /// Slowdown multiplier (> 1 slows the file system down).
    pub factor: f64,
    /// While active, client cache hits are treated as misses.
    pub drops_caches: bool,
}

impl CongestionWindow {
    /// A pure-slowdown window.
    #[cfg(test)]
    pub(crate) fn slowdown(start: Epoch, end: Epoch, factor: f64) -> Self {
        Self {
            start,
            end,
            factor,
            drops_caches: false,
        }
    }

    /// A storm: slowdown plus cache-defeating memory pressure.
    pub fn storm(start: Epoch, end: Epoch, factor: f64) -> Self {
        Self {
            start,
            end,
            factor,
            drops_caches: true,
        }
    }

    /// True when `t` falls inside the window.
    pub(crate) fn contains(&self, t: Epoch) -> bool {
        t >= self.start && t < self.end
    }
}

/// Parameters of the weather model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherParams {
    /// Baseline multiplier for this measurement campaign (1.0 = nominal;
    /// the Darshan-only and connector campaigns get different values
    /// derived from their seeds).
    pub campaign_load: f64,
    /// Amplitude of the diurnal sinusoid (0 disables it).
    pub diurnal_amplitude: f64,
    /// Phase offset of the diurnal sinusoid in seconds-of-day.
    pub diurnal_phase_s: f64,
}

impl Default for WeatherParams {
    fn default() -> Self {
        Self {
            campaign_load: 1.0,
            diurnal_amplitude: 0.15,
            diurnal_phase_s: 0.0,
        }
    }
}

impl WeatherParams {
    /// Derives campaign parameters from a seed, spreading campaigns over
    /// roughly ±8% of nominal load — enough that an uninstrumented
    /// baseline can lose to (or beat) an instrumented run measured weeks
    /// later, as in the paper's sign-mixed overheads.
    pub fn from_campaign_seed(seed: u64) -> Self {
        // Two independent unit draws via splitmix-style mixing.
        let mix = |x: u64| {
            let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let u1 = (mix(seed) >> 11) as f64 / (1u64 << 53) as f64;
        let u2 = (mix(seed ^ 0xdeadbeef) >> 11) as f64 / (1u64 << 53) as f64;
        Self {
            campaign_load: 1.0 + (u1 - 0.5) * 0.16,
            diurnal_amplitude: 0.10 + u2 * 0.10,
            diurnal_phase_s: (mix(seed ^ 0x00c0_ffee) % 86_400) as f64,
        }
    }
}

/// The assembled weather model for one file system instance.
#[derive(Debug, Clone, Default)]
pub struct Weather {
    params: WeatherParams,
    windows: Vec<CongestionWindow>,
}

impl Weather {
    /// Creates a calm weather model (factor 1.0 everywhere).
    pub fn calm() -> Self {
        Self {
            params: WeatherParams {
                campaign_load: 1.0,
                diurnal_amplitude: 0.0,
                diurnal_phase_s: 0.0,
            },
            windows: Vec::new(),
        }
    }

    /// Creates a weather model from parameters.
    pub fn new(params: WeatherParams) -> Self {
        Self {
            params,
            windows: Vec::new(),
        }
    }

    /// Adds a congestion window.
    pub fn with_congestion(mut self, w: CongestionWindow) -> Self {
        self.windows.push(w);
        self
    }

    /// True when any active window at `t` defeats the client caches.
    pub(crate) fn caches_dropped_at(&self, t: Epoch) -> bool {
        self.windows.iter().any(|w| w.drops_caches && w.contains(t))
    }

    /// The slowdown factor at absolute time `t` (≥ some small positive
    /// floor; multiplies every modelled duration).
    pub(crate) fn factor_at(&self, t: Epoch) -> f64 {
        let diurnal = 1.0
            + self.params.diurnal_amplitude
                * (TAU * (t.seconds_of_day() - self.params.diurnal_phase_s) / 86_400.0).sin();
        let mut f = self.params.campaign_load * diurnal;
        for w in &self.windows {
            if w.contains(t) {
                f *= w.factor;
            }
        }
        f.max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_weather_is_unity() {
        let w = Weather::calm();
        for s in [0u64, 1_000, 86_400, 1_650_000_000] {
            assert!((w.factor_at(Epoch::from_secs(s)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diurnal_cycle_repeats_daily() {
        let w = Weather::new(WeatherParams::default());
        let a = w.factor_at(Epoch::from_secs(3_600));
        let b = w.factor_at(Epoch::from_secs(3_600 + 86_400));
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn congestion_window_applies_inside_only() {
        let w = Weather::calm().with_congestion(CongestionWindow::slowdown(
            Epoch::from_secs(100),
            Epoch::from_secs(200),
            10.0,
        ));
        assert!((w.factor_at(Epoch::from_secs(50)) - 1.0).abs() < 1e-9);
        assert!((w.factor_at(Epoch::from_secs(150)) - 10.0).abs() < 1e-9);
        assert!((w.factor_at(Epoch::from_secs(200)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn campaign_seeds_differ_but_stay_bounded() {
        let a = WeatherParams::from_campaign_seed(1);
        let b = WeatherParams::from_campaign_seed(2);
        assert_ne!(a.campaign_load, b.campaign_load);
        for p in [a, b] {
            assert!((0.8..=1.2).contains(&p.campaign_load));
            assert!((0.10..=0.20).contains(&p.diurnal_amplitude));
        }
    }

    #[test]
    fn storm_windows_drop_caches_inside_only() {
        let w = Weather::calm().with_congestion(CongestionWindow::storm(
            Epoch::from_secs(100),
            Epoch::from_secs(200),
            1.5,
        ));
        assert!(!w.caches_dropped_at(Epoch::from_secs(50)));
        assert!(w.caches_dropped_at(Epoch::from_secs(150)));
        assert!(!w.caches_dropped_at(Epoch::from_secs(250)));
        // Pure slowdowns never drop caches.
        let w2 = Weather::calm().with_congestion(CongestionWindow::slowdown(
            Epoch::from_secs(0),
            Epoch::from_secs(10),
            9.0,
        ));
        assert!(!w2.caches_dropped_at(Epoch::from_secs(5)));
    }

    #[test]
    fn factor_never_collapses_to_zero() {
        let w = Weather::calm().with_congestion(CongestionWindow::slowdown(
            Epoch::from_secs(0),
            Epoch::from_secs(10),
            0.0,
        ));
        assert!(w.factor_at(Epoch::from_secs(5)) >= 0.05);
    }
}
