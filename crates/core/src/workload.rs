//! Workload rate descriptor for a-priori pipeline analysis.
//!
//! The static flow solver (`iolint::flow`) reasons about a campaign
//! *before* it runs, so it needs the one thing a topology cannot tell
//! it: how hard the samplers will publish and for how long. A
//! [`WorkloadSpec`] captures that envelope — publish phase duration,
//! a storm multiplier over the declared per-sampler rates, and the
//! service-level targets (accuracy floor, end-to-end latency budget)
//! the derived bounds are checked against.

/// Publish-phase envelope plus service-level targets for one campaign.
///
/// All rates are *logical messages per virtual second*; the solver
/// converts to wire frames per hop using the samplers' declared batch
/// factors. Fields are public plain data so conf parsing, CLI flags,
/// and test harnesses can all assemble one directly.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Virtual instant (seconds) publishing starts. Downtime windows
    /// in the fault script are absolute epochs, so the solver needs
    /// the campaign anchored on the same clock.
    pub start_s: f64,
    /// Length of the publish phase in virtual seconds.
    pub duration_s: f64,
    /// Multiplier applied to every sampler's declared `rate_hz`
    /// (`1.0` = nominal; `16.0` = the paper's HMMER-class storm).
    pub storm: f64,
    /// Publish rate assumed for samplers that declare no `rate_hz`
    /// of their own (messages/sec, pre-storm). Defaults to the
    /// paper's 120 msg/s Table II footprint.
    pub default_rate_hz: f64,
    /// Minimum acceptable `delivered / (delivered + summarized)`
    /// ratio; the solver's accuracy floor must stay above it or
    /// `FLOW002` fires. `None` = no target declared.
    pub accuracy_floor: Option<f64>,
    /// End-to-end publish-to-store latency budget in seconds; the
    /// static latency bound must fit inside it or `FLOW004` fires.
    /// `None` = no budget declared.
    pub latency_budget_s: Option<f64>,
}

impl WorkloadSpec {
    /// A nominal-rate campaign of `duration_s` seconds starting at
    /// virtual time zero, with no service-level targets.
    pub fn new(duration_s: f64) -> Self {
        Self {
            start_s: 0.0,
            duration_s: duration_s.max(0.0),
            storm: 1.0,
            default_rate_hz: 120.0,
            accuracy_floor: None,
            latency_budget_s: None,
        }
    }

    /// Anchors the publish phase at an absolute virtual instant.
    #[must_use]
    pub fn starting_at(mut self, start_s: f64) -> Self {
        self.start_s = start_s;
        self
    }

    /// Sets the fallback rate for samplers without a declared one.
    #[must_use]
    pub fn with_default_rate(mut self, rate_hz: f64) -> Self {
        self.default_rate_hz = rate_hz.max(0.0);
        self
    }

    /// Virtual instant the publish phase ends.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// Builders only the unit tests call; everything else sets the
/// `pub` fields.
#[cfg(test)]
impl WorkloadSpec {
    /// Scales every sampler's declared rate by `storm`.
    #[must_use]
    pub(crate) fn with_storm(mut self, storm: f64) -> Self {
        self.storm = storm.max(0.0);
        self
    }

    /// Declares the minimum acceptable accuracy ratio.
    #[must_use]
    pub(crate) fn with_accuracy_floor(mut self, floor: f64) -> Self {
        self.accuracy_floor = Some(floor.clamp(0.0, 1.0));
        self
    }

    /// Declares the end-to-end latency budget in seconds.
    #[must_use]
    pub(crate) fn with_latency_budget(mut self, budget_s: f64) -> Self {
        self.latency_budget_s = Some(budget_s.max(0.0));
        self
    }
}

impl Default for WorkloadSpec {
    /// A 100-second nominal campaign — long enough that every example
    /// conf's scheduled faults overlap it unless stated otherwise.
    fn default() -> Self {
        Self::new(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let w = WorkloadSpec::new(30.0)
            .starting_at(100.0)
            .with_storm(16.0)
            .with_accuracy_floor(0.93)
            .with_latency_budget(120.0);
        assert_eq!(w.end_s(), 130.0);
        assert_eq!(w.storm, 16.0);
        assert_eq!(w.accuracy_floor, Some(0.93));
        assert_eq!(w.latency_budget_s, Some(120.0));
    }

    #[test]
    fn negative_inputs_clamp() {
        let w = WorkloadSpec::new(-5.0).with_storm(-1.0);
        assert_eq!(w.duration_s, 0.0);
        assert_eq!(w.storm, 0.0);
        let f = WorkloadSpec::default().with_accuracy_floor(1.5);
        assert_eq!(f.accuracy_floor, Some(1.0));
    }
}
