//! Whole-pipeline abstract interpretation: sound worst-case bounds.
//!
//! The runtime degrades under load through a chain of mechanisms —
//! retry queues that evict, deadlines that expire, overload ladders
//! that pace/spill/fold, write-ahead logs that journal, standbys that
//! absorb failovers. Each mechanism is individually simple; whether a
//! *campaign* survives a given topology is a property of their
//! composition. This module evaluates that composition symbolically:
//! an abstract interpreter over `(TopologySpec, workload envelope)`
//! that derives, per forwarding hop, **sound upper bounds** on peak
//! queue depth, spill volume, WAL high-water mark, attributed loss,
//! and summarized (accuracy-degraded) mass, plus **lower bounds** on
//! loss that is *guaranteed* to occur — and folds them into a
//! whole-network verdict.
//!
//! # Abstract domain
//!
//! Traffic is a fluid: each sampler offers `rate_hz × storm` logical
//! messages per second for `duration_s` seconds. Mass propagates down
//! every reachable route (primary *and* standbys each carry the full
//! flow — a sound over-approximation of failover). Scheduled downtime
//! windows park mass in the hop's retry queue; the interpreter only
//! charges *loss* where the runtime actually loses:
//!
//! - **Eviction** — `DropOldest`/`DropNewest` queues shed the excess
//!   of parked mass over capacity.
//! - **Deadline expiry** — `BlockWithDeadline` sheds mass parked
//!   longer than the deadline (including overload spill whose release
//!   instant the controller schedules arbitrarily far out).
//! - **Best-effort hops** — no retries: every message offered while
//!   all routes are down is gone.
//! - **Silent link loss** — probabilistic faults consume retry
//!   attempts with pure backoff (no recovery instant to wait for),
//!   so the whole offered load is at risk.
//! - **Crash volatility** — a crash-stop destroys parked frames; the
//!   bound ignores the WAL's replay benefit (sound: replay only ever
//!   reduces realized loss).
//! - **Broken paths** — terminals without subscribers, dangling
//!   upstreams, forwarding cycles.
//!
//! Detectable failures (daemon down, link flap) do **not** exhaust
//! retry budgets: the runtime schedules the retry at the component's
//! recovery instant, so a covered window costs residence time, not
//! attempts. That one semantic fact is why `reliable-pipeline.conf`'s
//! hour-mark outage is provably survivable.
//!
//! # Soundness
//!
//! Every bound is an over-approximation of any concrete execution the
//! runtime can produce for the declared envelope (`observed ≤ bound`,
//! CI-gated by `tests/flow_soundness.rs` across the equivalence and
//! chaos suites). Watermark onset times use the *maximum* possible
//! inflow rate (earliest escalation), spill volume uses drain-rate ×
//! active-time (longest spill phase), and per-window arrival mass
//! carries a small in-flight slack for frames on the wire at window
//! edges.

use crate::diag::{self, Diagnostic};
use crate::topology::{walk, DaemonSpec, OutageKind, TopologySpec, WalkEnd};
use darshan_ldms_connector::WorkloadSpec;
use iosim_util::json::JsonWriter;
use ldms_sim::queue::OverflowPolicy;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-hop wire allowance: link latency (site links are ~250 µs) plus
/// serialization of a frame, rounded far up.
const TRANSPORT_S: f64 = 0.1;
/// Ladder signal propagation delay (`OverloadConfig` default 250 ms);
/// the conf format does not carry it, so the solver assumes the
/// runtime's default — doubled where it brackets a state transition.
const PROPAGATION_S: f64 = 0.25;
/// In-flight / window-edge allowance, logical messages per loss term.
const SLACK_MSGS: f64 = 4.0;
/// Settle allowance added once to the end-to-end latency bound.
const SETTLE_S: f64 = 1.0;

/// Sound worst-case bounds for one forwarding hop (the retry queue
/// between a daemon and its upstream routes). All message quantities
/// are logical messages unless the name says frames.
#[derive(Debug, Clone)]
pub struct HopBounds {
    /// Hop owner (the sending daemon).
    pub daemon: String,
    /// Primary upstream target.
    pub target: String,
    /// Logical messages offered to the hop over the whole campaign.
    pub offered: f64,
    /// Offered rate during the publish phase, logical msgs/sec.
    pub rate: f64,
    /// Peak retry-queue occupancy, in wire frames.
    pub peak_queue_frames: f64,
    /// Overload-spill volume ceiling (mass parked by the ladder).
    pub spill_ceiling: f64,
    /// WAL live-record high-water ceiling, frames (`None` = no WAL).
    pub wal_high_water: Option<f64>,
    /// Upper bound on loss attributed at this hop.
    pub loss_ceiling: f64,
    /// Lower bound on loss that *must* occur (0 unless provable).
    pub guaranteed_loss: f64,
    /// Earliest campaign-relative instant guaranteed loss begins.
    pub loss_onset_s: Option<f64>,
    /// Mass the hop's sampler ladder can fold into summary sketches.
    pub summarized_ceiling: f64,
    /// Residence-time bound through the hop, seconds.
    pub latency_s: f64,
}

/// Whole-network result of the abstract interpretation.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The campaign envelope the bounds hold for.
    pub workload: WorkloadSpec,
    /// Per-hop bounds, topology order.
    pub hops: Vec<HopBounds>,
    /// Total logical messages published over the campaign.
    pub published: f64,
    /// Network-wide loss ceiling (sum of per-hop ceilings, each
    /// clamped at its hop's offered mass).
    pub loss_ceiling: f64,
    /// Network-wide guaranteed loss (provable lower bound).
    pub guaranteed_loss: f64,
    /// Hop and instant of the earliest guaranteed loss, if any.
    pub first_loss: Option<(String, f64)>,
    /// Ceiling on mass reaching the store as summaries.
    pub summarized_ceiling: f64,
    /// Sound lower bound on `delivered / (delivered + summarized)`.
    pub accuracy_floor: f64,
    /// End-to-end publish-to-ingest latency bound, seconds.
    pub e2e_latency_s: f64,
    /// Human-readable survival verdict.
    pub verdict: String,
}

/// Half-open virtual-time intervals `[from, until)`, seconds.
type Intervals = Vec<(f64, f64)>;

fn merge(mut v: Intervals) -> Intervals {
    v.retain(|(a, b)| b > a);
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out: Intervals = Vec::new();
    for (a, b) in v {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = e.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

fn intersect(a: &Intervals, b: &Intervals) -> Intervals {
    let mut out = Vec::new();
    for &(a0, a1) in a {
        for &(b0, b1) in b {
            let (lo, hi) = (a0.max(b0), a1.min(b1));
            if hi > lo {
                out.push((lo, hi));
            }
        }
    }
    merge(out)
}

fn total(v: &Intervals) -> f64 {
    v.iter().map(|(a, b)| b - a).sum()
}

fn overlap(v: &Intervals, lo: f64, hi: f64) -> f64 {
    v.iter()
        .map(|&(a, b)| (b.min(hi) - a.max(lo)).max(0.0))
        .sum()
}

/// The campaign envelope the solver evaluates: the spec's own
/// `workload` directive when present, otherwise a nominal default
/// stretched to cover every scheduled fault (so an outage at the hour
/// mark is analyzed, not silently out-of-frame).
pub fn effective_workload(spec: &TopologySpec) -> WorkloadSpec {
    if let Some(w) = &spec.workload {
        return w.clone();
    }
    let mut w = WorkloadSpec::default();
    for o in &spec.outages {
        let until = o.until.as_secs_f64();
        w.duration_s = w.duration_s.max(until - w.start_s + 60.0);
    }
    w
}

struct HopModel {
    idx: usize,
    rate: f64,        // logical msgs/sec offered during the publish phase
    wire_rate: f64,   // frames/sec (logical / min contributing batch)
    b_min: f64,       // min records-per-frame among contributing samplers
    b_max: f64,       // max records-per-frame (occupancy conversions)
    down: Intervals,  // all routes unavailable (merged, clipped)
    crashes: usize,   // crash-stop windows on the hop owner itself
    broken: bool,     // some reachable route ends at a broken endpoint
    all_broken: bool, // every route from here ends broken
}

fn down_windows(spec: &TopologySpec, name: &str, kinds: &[OutageKind]) -> Intervals {
    merge(
        spec.outages
            .iter()
            .filter(|o| o.component == name && kinds.contains(&o.kind))
            .map(|o| (o.from.as_secs_f64(), o.until.as_secs_f64()))
            .collect(),
    )
}

/// Worst-case root-to-`i` latency over the route graph (primary and
/// standby edges), cycle-guarded by `seen`.
fn worst_path(
    daemons: &[DaemonSpec],
    by_name: &HashMap<&str, usize>,
    lat: &HashMap<usize, f64>,
    i: usize,
    seen: &mut Vec<bool>,
) -> f64 {
    if seen[i] {
        return 0.0;
    }
    seen[i] = true;
    let own = lat.get(&i).copied().unwrap_or(0.0);
    let mut worst = 0.0f64;
    for up in std::iter::once(&daemons[i].upstream)
        .flatten()
        .chain(daemons[i].standbys.iter())
    {
        if let Some(&j) = by_name.get(up.as_str()) {
            worst = worst.max(worst_path(daemons, by_name, lat, j, seen));
        }
    }
    seen[i] = false;
    own + worst
}

/// Runs the abstract interpreter. `workload` overrides the spec's own
/// envelope when given (CLI `--storm` / harness-supplied).
pub fn analyze_flow(spec: &TopologySpec, workload: Option<&WorkloadSpec>) -> FlowReport {
    let w = workload
        .cloned()
        .unwrap_or_else(|| effective_workload(spec));
    let daemons = &spec.daemons;
    let by_name: HashMap<&str, usize> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.as_str(), i))
        .collect();
    let tag = spec.stream_tag.as_str();
    let t0 = w.start_s;
    let t1 = w.end_s();
    let dur = w.duration_s;

    // Per-sampler publish rates under the storm multiplier.
    let pub_rate = |d: &DaemonSpec| -> f64 {
        if d.role == crate::topology::Role::Sampler {
            d.rate_hz.unwrap_or(w.default_rate_hz) * w.storm
        } else {
            0.0
        }
    };

    // ── Mass propagation ────────────────────────────────────────────
    // Each sampler's flow is charged to every hop it can reach through
    // any combination of primary/standby routes (BFS over the route
    // graph; each route carries the full flow — sound for failover).
    let mut rate = vec![0.0f64; daemons.len()]; // logical, at hop i
    let mut wire = vec![0.0f64; daemons.len()];
    let mut b_min = vec![f64::INFINITY; daemons.len()];
    let mut b_max = vec![1.0f64; daemons.len()];
    for (s, d) in daemons.iter().enumerate() {
        let r = pub_rate(d);
        if r <= 0.0 {
            continue;
        }
        let b = d.batch.unwrap_or(1).max(1) as f64;
        let mut stack = vec![s];
        let mut seen = vec![false; daemons.len()];
        seen[s] = true;
        while let Some(i) = stack.pop() {
            if daemons[i].upstream.is_some() {
                rate[i] += r;
                wire[i] += r / b;
                b_min[i] = b_min[i].min(b);
                b_max[i] = b_max[i].max(b);
            }
            for up in std::iter::once(&daemons[i].upstream)
                .flatten()
                .chain(daemons[i].standbys.iter())
            {
                if let Some(&j) = by_name.get(up.as_str()) {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
    }

    // ── Route availability ──────────────────────────────────────────
    // A hop is blocked only while *every* route is unavailable: the
    // primary target (or its link, which a flap takes down) and each
    // standby target simultaneously.
    let mut models: Vec<HopModel> = Vec::new();
    // Activity horizon: after the publish phase plus every controller
    // hop's drain time plus a settle margin, no traffic exists, so
    // later windows cannot park (or lose) anything.
    let total_pacing: f64 = daemons
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.overload.as_ref().map(|o| (i, o)))
        .map(|(i, o)| rate[i] * dur / o.service_rate.max(1e-9))
        .sum();
    let horizon = t1 + total_pacing + 60.0;

    for (i, d) in daemons.iter().enumerate() {
        let Some(up) = &d.upstream else { continue };
        let flap = down_windows(spec, &d.name, &[OutageKind::Link]);
        let mut blocked = {
            let mut routes_down: Option<Intervals> = by_name.get(up.as_str()).map(|&j| {
                down_windows(
                    spec,
                    &daemons[j].name,
                    &[OutageKind::Daemon, OutageKind::Crash],
                )
            });
            for sb in &d.standbys {
                let sbd = by_name
                    .get(sb.as_str())
                    .map(|&j| {
                        down_windows(
                            spec,
                            &daemons[j].name,
                            &[OutageKind::Daemon, OutageKind::Crash],
                        )
                    })
                    .unwrap_or_default();
                routes_down = Some(match routes_down {
                    Some(r) => intersect(&r, &sbd),
                    None => sbd,
                });
            }
            routes_down.unwrap_or_default()
        };
        // A link flap conservatively blocks every route of the hop
        // (standby links are not individually modeled).
        blocked.extend(flap);
        let blocked: Intervals = merge(blocked)
            .into_iter()
            .filter_map(|(a, b)| {
                let (a, b) = (a.max(t0 - 1.0), b.min(horizon));
                (b > a).then_some((a, b))
            })
            .collect();

        let crashes = spec
            .outages
            .iter()
            .filter(|o| o.component == d.name && o.kind == OutageKind::Crash)
            .count();

        // Route-graph endpoints: does any (every) path from this hop
        // end somewhere mass dies structurally?
        let (mut any_broken, mut all_broken) = (false, true);
        let mut probe = |start: usize| match walk(daemons, &by_name, start) {
            (_, WalkEnd::Terminal(t)) => {
                let ok = daemons[t].subscribers.iter().any(|s| s == tag);
                if ok {
                    all_broken = false;
                } else {
                    any_broken = true;
                }
            }
            _ => any_broken = true,
        };
        probe(i);
        for sb in &d.standbys {
            if let Some(&j) = by_name.get(sb.as_str()) {
                probe(j);
            }
        }

        models.push(HopModel {
            idx: i,
            rate: rate[i],
            wire_rate: wire[i],
            b_min: if b_min[i].is_finite() { b_min[i] } else { 1.0 },
            b_max: b_max[i],
            down: blocked,
            crashes,
            broken: any_broken,
            all_broken,
        });
    }

    // ── Per-hop bounds ──────────────────────────────────────────────
    let mut hops: Vec<HopBounds> = Vec::new();
    let mut published = 0.0;
    for d in daemons {
        published += pub_rate(d) * dur;
    }

    for m in &models {
        let d = &daemons[m.idx];
        let offered = m.rate * dur;
        let offered_wire = m.wire_rate * dur;
        let mu = d.overload.as_ref().map(|o| o.service_rate.max(1e-9));

        // Overload spill: mass parked while the ladder sits in its
        // spill band. The band is crossed once per pressure episode;
        // over the whole active period the drain rate bounds what the
        // meter can shed, so spilled ≤ watermark + μ·T_active plus the
        // propagation-delayed transition overshoot — all clamped at
        // the offered mass.
        let spill = match (&d.overload, mu) {
            (Some(o), Some(mu)) => {
                let t_active = dur + total_pacing;
                (o.sample_watermark + mu * t_active + m.rate * (2.0 * PROPAGATION_S + 0.1))
                    .min(offered)
            }
            _ => 0.0,
        };

        // Parked mass: arrivals during blocked windows plus spill.
        let windows = total(&m.down);
        let n_windows = m.down.len() as f64;
        let window_mass = m.rate * windows + SLACK_MSGS * n_windows;
        let parked_logical =
            (m.rate * windows + spill + SLACK_MSGS * (n_windows + 1.0)).min(offered + SLACK_MSGS);
        let parked_frames = (m.wire_rate * windows + spill + SLACK_MSGS * (n_windows + 1.0))
            .min(offered_wire + SLACK_MSGS);

        let cap = d.queue.capacity as f64;
        let retries = d.queue.retries_enabled();

        let mut loss = 0.0f64;
        let mut guaranteed = 0.0f64;
        let mut onset: Option<f64> = None;
        let note_onset = |onset: &mut Option<f64>, t: f64| {
            *onset = Some(onset.map_or(t, |o: f64| o.min(t)));
        };

        if retries {
            match d.queue.policy {
                OverflowPolicy::DropOldest | OverflowPolicy::DropNewest => {
                    loss += (parked_logical - cap * m.b_min).max(0.0);
                    if d.overload.is_none() {
                        for &(a, b) in &m.down {
                            let o = (b.min(t1) - a.max(t0)).max(0.0);
                            let g = (m.wire_rate * o - cap).max(0.0);
                            if g >= 1.0 {
                                guaranteed += g;
                                note_onset(&mut onset, a.max(t0) + cap / m.wire_rate.max(1e-9));
                            }
                        }
                    }
                }
                OverflowPolicy::BlockWithDeadline(dl) => {
                    let dl = dl.as_secs_f64();
                    for &(a, b) in &m.down {
                        loss += m.rate * ((b - a) - dl).max(0.0) + SLACK_MSGS;
                        if d.overload.is_none() {
                            let o = (b.min(t1) - a.max(t0)).max(0.0);
                            let g = m.rate * (o - dl).max(0.0);
                            if g >= 1.0 {
                                guaranteed += g;
                                note_onset(&mut onset, a.max(t0) + dl);
                            }
                        }
                    }
                    // Spill release instants are scheduled by the
                    // meter, not the deadline; all spill can expire.
                    loss += spill;
                }
            }
        } else {
            // Best-effort: everything offered while blocked is lost.
            loss += window_mass;
            let g = m.rate * overlap(&m.down, t0, t1);
            if g >= 1.0 {
                guaranteed += g;
                if let Some(&(a, _)) = m.down.first() {
                    note_onset(&mut onset, a.max(t0));
                }
            }
        }

        // Crash-stop of the hop owner destroys whatever is parked;
        // ignore the WAL's replay benefit (it only reduces loss).
        if m.crashes > 0 {
            let occupancy = match d.queue.policy {
                OverflowPolicy::BlockWithDeadline(_) => parked_logical,
                _ => parked_logical.min(cap * m.b_max),
            };
            loss += (occupancy + SLACK_MSGS) * m.crashes as f64;
        }

        // Silent link loss: attempts burn through pure backoff with
        // nothing to wait for — the whole offered load is at risk.
        if spec.lossy_links.contains(&d.name) {
            loss += offered;
        }

        // Structurally broken endpoints reachable from here.
        if m.broken {
            loss += offered;
        }
        if m.all_broken && offered >= 1.0 {
            guaranteed = guaranteed.max(offered);
            note_onset(&mut onset, t0);
        }

        // Sampler ingress: publishing into a down/crashed sampler
        // dies immediately — no queue sits before the first hop.
        let self_down = down_windows(spec, &d.name, &[OutageKind::Daemon, OutageKind::Crash]);
        let own = pub_rate(d);
        if own > 0.0 && !self_down.is_empty() {
            loss += own * total(&self_down) + SLACK_MSGS;
            let g = own * overlap(&self_down, t0, t1);
            if g >= 1.0 {
                guaranteed += g;
                if let Some(&(a, _)) = self_down.first() {
                    note_onset(&mut onset, a.max(t0));
                }
            }
        }

        let loss = loss.min(offered + SLACK_MSGS);
        let guaranteed = guaranteed.min(loss);

        // Summarization: the ladder folds bulk mass only after the
        // fluid meter climbs to the sample watermark; the earliest
        // onset uses the maximum inflow rate, and mass offered before
        // it cannot be folded *at this hop*.
        let summarized = match (&d.overload, mu) {
            (Some(o), Some(mu)) if m.rate > mu => {
                let t_on = o.sample_watermark / (m.rate - mu);
                (offered - m.rate * t_on.min(dur)).max(0.0)
            }
            _ => 0.0,
        };

        // Residence: wire + covered-window wait + silent-loss backoff
        // coverage + controller pacing backlog.
        let coverage = d.queue.backoff_coverage().as_secs_f64() * 1.05;
        let pacing = mu.map_or(0.0, |mu| offered / mu);
        let latency = TRANSPORT_S + windows + coverage + pacing;

        let peak_frames = match d.queue.policy {
            OverflowPolicy::BlockWithDeadline(_) => {
                parked_frames * (1.0 + m.crashes as f64) + SLACK_MSGS
            }
            _ => (parked_frames * (1.0 + m.crashes as f64) + SLACK_MSGS).min(cap),
        };

        hops.push(HopBounds {
            daemon: d.name.clone(),
            target: d.upstream.clone().unwrap_or_default(),
            offered,
            rate: m.rate,
            peak_queue_frames: peak_frames,
            spill_ceiling: spill,
            wal_high_water: d
                .wal_capacity
                .map(|wc| (parked_frames * (1.0 + m.crashes as f64) + SLACK_MSGS).min(wc as f64)),
            loss_ceiling: loss,
            guaranteed_loss: guaranteed,
            loss_onset_s: onset,
            summarized_ceiling: summarized,
            latency_s: latency,
        });
    }

    // Orphan samplers (no upstream at all): their hop never exists,
    // but their published mass still needs a verdict — it dies at the
    // sampler itself unless the sampler subscribes.
    for d in daemons {
        if d.upstream.is_some() {
            continue;
        }
        let own = pub_rate(d) * dur;
        if own >= 1.0 && !d.subscribers.iter().any(|s| s == tag) {
            hops.push(HopBounds {
                daemon: d.name.clone(),
                target: "∅".into(),
                offered: own,
                rate: pub_rate(d),
                peak_queue_frames: 0.0,
                spill_ceiling: 0.0,
                wal_high_water: None,
                loss_ceiling: own,
                guaranteed_loss: own,
                loss_onset_s: Some(t0),
                summarized_ceiling: 0.0,
                latency_s: 0.0,
            });
        }
    }

    // ── Network folds ───────────────────────────────────────────────
    // Per-hop ceilings can each charge the same sampler's mass (it
    // traverses several hops), so the network totals clamp at the
    // published mass — nothing can lose more than was ever offered.
    let loss_ceiling: f64 = hops
        .iter()
        .map(|h| h.loss_ceiling)
        .sum::<f64>()
        .min(published);
    let guaranteed_loss: f64 = hops
        .iter()
        .map(|h| h.guaranteed_loss)
        .sum::<f64>()
        .min(published);
    let first_loss = hops
        .iter()
        .filter_map(|h| h.loss_onset_s.map(|t| (h.daemon.clone(), t)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    let summarized_ceiling = hops
        .iter()
        .map(|h| h.summarized_ceiling)
        .sum::<f64>()
        .min(published);

    // accuracy = delivered / (delivered + summarized); worst case is
    // maximal loss and maximal summarization.
    let l = loss_ceiling.min(published);
    let accuracy_floor = if published - l < 1.0 {
        0.0
    } else {
        ((published - l - summarized_ceiling) / (published - l)).clamp(0.0, 1.0)
    };

    // End-to-end: worst route-graph path from any sampler, plus the
    // publish spread (spill releases can trail the whole phase) and a
    // settle margin.
    let mut hop_latency: HashMap<usize, f64> = HashMap::new();
    for (m, h) in models.iter().zip(hops.iter()) {
        hop_latency.insert(m.idx, h.latency_s);
    }
    let mut e2e = 0.0f64;
    for (i, d) in daemons.iter().enumerate() {
        if pub_rate(d) > 0.0 {
            let mut seen = vec![false; daemons.len()];
            e2e = e2e.max(worst_path(daemons, &by_name, &hop_latency, i, &mut seen));
        }
    }
    let e2e_latency_s = e2e + dur + SETTLE_S;

    let verdict = if let Some((hop, t)) = &first_loss {
        format!(
            "drops begin at t≈{t:.0}s at `{hop}`: ≥{guaranteed_loss:.0} of {published:.0} \
             messages provably lost under a {:.0}× workload",
            w.storm.max(1.0)
        )
    } else if loss_ceiling < 1.0 {
        format!(
            "survives a {:.0}× workload: zero predicted loss, worst-case accuracy \
             ≥ {accuracy_floor:.2}, end-to-end latency ≤ {e2e_latency_s:.0}s",
            w.storm.max(1.0)
        )
    } else {
        format!(
            "survives a {:.0}× workload with bounded loss ≤ {loss_ceiling:.0} of \
             {published:.0} messages, worst-case accuracy ≥ {accuracy_floor:.2}, \
             end-to-end latency ≤ {e2e_latency_s:.0}s",
            w.storm.max(1.0)
        )
    };

    FlowReport {
        workload: w,
        hops,
        published,
        loss_ceiling,
        guaranteed_loss,
        first_loss,
        summarized_ceiling,
        accuracy_floor,
        e2e_latency_s,
        verdict,
    }
}

/// Solver-backed lints over a finished [`FlowReport`].
pub fn lint_flow(spec: &TopologySpec, report: &FlowReport) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let line_of = |name: &str| {
        spec.daemons
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.line)
    };
    let attach = |d: Diagnostic, name: &str| match line_of(name) {
        Some(l) => d.with_line(l),
        None => d,
    };

    for h in &report.hops {
        if h.guaranteed_loss >= 1.0 {
            let when = h
                .loss_onset_s
                .map_or_else(String::new, |t| format!(" beginning at t≈{t:.0}s"));
            diags.push(attach(
                Diagnostic::new(
                    &diag::FLOW001,
                    format!("daemon `{}`", h.daemon),
                    format!(
                        "the declared workload provably loses ≥{:.0} of the {:.0} messages \
                         offered at `{}`{when}; no retry policy, standby, or ladder in the \
                         topology can absorb it",
                        h.guaranteed_loss, h.offered, h.daemon
                    ),
                )
                .with_help(
                    "add a standby route, a retrying queue with headroom, or an overload \
                     ladder; `iolint analyze` prints the per-hop bound table",
                ),
                &h.daemon,
            ));
        }
    }

    // FLOW003 — a crash window on a hop whose worst-case parked-frame
    // demand exceeds its WAL: the excess is volatile-only.
    for h in &report.hops {
        let Some(d) = spec.daemons.iter().find(|d| d.name == h.daemon) else {
            continue;
        };
        let Some(wal_cap) = d.wal_capacity else {
            continue;
        };
        let crashes = spec
            .outages
            .iter()
            .any(|o| o.component == d.name && o.kind == OutageKind::Crash);
        if !crashes {
            continue;
        }
        if let Some(hw) = h.wal_high_water {
            // wal_high_water is clamped at capacity; demand at the
            // clamp means the journal can saturate inside the window.
            if hw >= wal_cap as f64 {
                diags.push(attach(
                    Diagnostic::new(
                        &diag::FLOW003,
                        format!("daemon `{}`", h.daemon),
                        format!(
                            "worst-case parked-frame demand at `{}` reaches the WAL capacity \
                             {wal_cap} inside a scheduled crash window; records past the \
                             clamp are volatile-only and die with the crash",
                            h.daemon
                        ),
                    )
                    .with_help("raise `wal capacity=` above the hop's peak-depth bound"),
                    &h.daemon,
                ));
            }
        }
    }

    if let Some(floor) = report.workload.accuracy_floor {
        if report.accuracy_floor + 1e-9 < floor {
            diags.push(
                Diagnostic::new(
                    &diag::FLOW002,
                    "network",
                    format!(
                    "worst-case accuracy bound {:.3} falls below the declared floor {floor:.3} \
                     (loss ≤ {:.0}, summarized ≤ {:.0} of {:.0} published)",
                    report.accuracy_floor,
                    report.loss_ceiling,
                    report.summarized_ceiling,
                    report.published
                ),
                )
                .with_help(
                    "raise hop service rates / sample watermarks, or relax the \
                 `workload accuracy-floor=`",
                ),
            );
        }
    }
    if let Some(budget) = report.workload.latency_budget_s {
        if report.e2e_latency_s > budget {
            diags.push(
                Diagnostic::new(
                    &diag::FLOW004,
                    "network",
                    format!(
                        "end-to-end latency bound {:.0}s exceeds the declared budget {budget:.0}s",
                        report.e2e_latency_s
                    ),
                )
                .with_help(
                    "raise controller service rates (pacing dominates the bound) or relax \
                 the `workload latency-budget=`",
                ),
            );
        }
    }

    diags
}

impl FlowReport {
    /// Renders the per-hop bound table plus the verdict, aligned for
    /// terminals.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9}",
            "hop",
            "offered",
            "rate/s",
            "depth≤",
            "spill≤",
            "wal≤",
            "loss≤",
            "forced≥",
            "summar.≤",
            "latency≤"
        );
        for h in &self.hops {
            let _ = writeln!(
                out,
                "{:<28} {:>10.0} {:>8.1} {:>9.0} {:>9.0} {:>9} {:>9.0} {:>9.0} {:>10.0} {:>8.1}s",
                format!("{}→{}", h.daemon, h.target),
                h.offered,
                h.rate,
                h.peak_queue_frames,
                h.spill_ceiling,
                h.wal_high_water
                    .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
                h.loss_ceiling,
                h.guaranteed_loss,
                h.summarized_ceiling,
                h.latency_s,
            );
        }
        let _ = writeln!(
            out,
            "network: published {:.0}  loss ≤ {:.0}  forced ≥ {:.0}  summarized ≤ {:.0}  \
             accuracy ≥ {:.2}  e2e ≤ {:.1}s",
            self.published,
            self.loss_ceiling,
            self.guaranteed_loss,
            self.summarized_ceiling,
            self.accuracy_floor,
            self.e2e_latency_s,
        );
        let _ = writeln!(out, "verdict: {}", self.verdict);
        out
    }

    /// Stable machine-readable report (`iolint analyze --format json`).
    pub fn render_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.comma();
        w.key("workload");
        w.begin_object();
        w.field_float("start_s", self.workload.start_s);
        w.field_float("duration_s", self.workload.duration_s);
        w.field_float("storm", self.workload.storm);
        if let Some(f) = self.workload.accuracy_floor {
            w.field_float("accuracy_floor", f);
        }
        if let Some(b) = self.workload.latency_budget_s {
            w.field_float("latency_budget_s", b);
        }
        w.end_object();
        w.comma();
        w.key("hops");
        w.begin_array();
        for h in &self.hops {
            w.comma();
            w.begin_object();
            w.field_str("daemon", &h.daemon);
            w.field_str("target", &h.target);
            w.field_float("offered", h.offered);
            w.field_float("rate_hz", h.rate);
            w.field_float("peak_queue_frames", h.peak_queue_frames);
            w.field_float("spill_ceiling", h.spill_ceiling);
            if let Some(v) = h.wal_high_water {
                w.field_float("wal_high_water", v);
            }
            w.field_float("loss_ceiling", h.loss_ceiling);
            w.field_float("guaranteed_loss", h.guaranteed_loss);
            if let Some(t) = h.loss_onset_s {
                w.field_float("loss_onset_s", t);
            }
            w.field_float("summarized_ceiling", h.summarized_ceiling);
            w.field_float("latency_s", h.latency_s);
            w.end_object();
        }
        w.end_array();
        w.comma();
        w.key("network");
        w.begin_object();
        w.field_float("published", self.published);
        w.field_float("loss_ceiling", self.loss_ceiling);
        w.field_float("guaranteed_loss", self.guaranteed_loss);
        w.field_float("summarized_ceiling", self.summarized_ceiling);
        w.field_float("accuracy_floor", self.accuracy_floor);
        w.field_float("e2e_latency_s", self.e2e_latency_s);
        w.field_str("verdict", &self.verdict);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::parse_conf;

    fn spec(conf: &str) -> TopologySpec {
        parse_conf(conf).expect("conf parses")
    }

    #[test]
    fn calm_linear_chain_is_clean() {
        let s = spec(
            "daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=4096 attempts=8\n\
             daemon agg l2\n subscribe darshanConnector\n",
        );
        let r = analyze_flow(&s, None);
        assert_eq!(r.hops.len(), 1);
        assert!(r.loss_ceiling < 1.0, "verdict: {}", r.verdict);
        assert!(r.guaranteed_loss < 1.0);
        assert!(r.accuracy_floor > 0.999);
        assert!(lint_flow(&s, &r).is_empty());
    }

    #[test]
    fn best_effort_outage_is_guaranteed_loss() {
        let s = spec(
            "daemon n1 sampler\n rate 100\n upstream agg\n\
             daemon agg l2\n subscribe darshanConnector\n\
             outage agg 10 20\n",
        );
        let r = analyze_flow(&s, None);
        assert!(r.guaranteed_loss >= 900.0, "verdict: {}", r.verdict);
        let (hop, t) = r.first_loss.clone().expect("onset");
        assert_eq!(hop, "n1");
        assert!((t - 10.0).abs() < 1.0);
        let diags = lint_flow(&s, &r);
        assert!(diags.iter().any(|d| d.code.code == "FLOW001"));
    }

    #[test]
    fn covered_outage_with_retries_is_survivable() {
        let s = spec(
            "daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=65536 attempts=8\n\
             daemon agg l2\n subscribe darshanConnector\n\
             outage agg 10 20\n",
        );
        let r = analyze_flow(&s, None);
        assert!(r.guaranteed_loss < 1.0, "verdict: {}", r.verdict);
        assert!(r.loss_ceiling < 1.0, "retry-covered window loses nothing");
    }

    #[test]
    fn eviction_when_queue_cannot_hold_window() {
        let s = spec(
            "daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=64 attempts=8\n\
             daemon agg l2\n subscribe darshanConnector\n\
             outage agg 10 20\n",
        );
        let r = analyze_flow(&s, None);
        // 1000 parked − 64 capacity: most of the window must evict.
        assert!(r.guaranteed_loss >= 900.0, "verdict: {}", r.verdict);
        assert!(r.loss_ceiling >= r.guaranteed_loss);
        let onset = r.first_loss.clone().expect("onset").1;
        assert!((onset - 10.64).abs() < 0.1, "evictions start once full");
    }

    #[test]
    fn standby_clears_guaranteed_loss() {
        let s = spec(
            "daemon n1 sampler\n rate 100\n upstream agg\n standby agg2\n queue capacity=64 attempts=8\n\
             daemon agg l1\n upstream store\n queue capacity=65536 attempts=8\n\
             daemon agg2 l1\n upstream store\n queue capacity=65536 attempts=8\n\
             daemon store l2\n subscribe darshanConnector\n\
             outage agg 10 20\n",
        );
        let r = analyze_flow(&s, None);
        assert!(
            r.guaranteed_loss < 1.0,
            "failover absorbs the window: {}",
            r.verdict
        );
    }

    #[test]
    fn storm_with_ladder_bounds_accuracy_not_loss() {
        let s = spec(
            "workload duration=10 storm=16\n\
             daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=65536 attempts=8\n\
             overload rate=50 sample=512\n\
             daemon agg l2\n subscribe darshanConnector\n",
        );
        let r = analyze_flow(&s, None);
        assert!(
            r.guaranteed_loss < 1.0,
            "ladder never forces loss: {}",
            r.verdict
        );
        assert!(r.summarized_ceiling > 0.0, "sampling must be predicted");
        assert!(r.accuracy_floor < 1.0);
    }

    #[test]
    fn accuracy_floor_lint_fires() {
        let s = spec(
            "workload duration=10 storm=16 accuracy-floor=0.99\n\
             daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=65536 attempts=8\n\
             overload rate=50 sample=512\n\
             daemon agg l2\n subscribe darshanConnector\n",
        );
        let r = analyze_flow(&s, None);
        let diags = lint_flow(&s, &r);
        assert!(
            diags.iter().any(|d| d.code.code == "FLOW002"),
            "{}",
            r.verdict
        );
    }

    #[test]
    fn latency_budget_lint_fires() {
        let s = spec(
            "workload duration=10 storm=16 latency-budget=5\n\
             daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=65536 attempts=8\n\
             overload rate=50 sample=512\n\
             daemon agg l2\n subscribe darshanConnector\n",
        );
        let r = analyze_flow(&s, None);
        assert!(r.e2e_latency_s > 5.0);
        let diags = lint_flow(&s, &r);
        assert!(diags.iter().any(|d| d.code.code == "FLOW004"));
    }

    #[test]
    fn wal_overflow_under_crash_window_fires() {
        let s = spec(
            "daemon n1 sampler\n rate 100\n upstream agg\n queue capacity=65536 attempts=8\n\
             wal capacity=128\n\
             daemon agg l2\n subscribe darshanConnector\n\
             outage agg 10 30\n\
             crash n1 40 45\n",
        );
        let r = analyze_flow(&s, None);
        let diags = lint_flow(&s, &r);
        assert!(
            diags.iter().any(|d| d.code.code == "FLOW003"),
            "2000 parked frames vs WAL 128: {}",
            r.render_table()
        );
    }

    #[test]
    fn json_report_is_parseable() {
        let s = spec(
            "daemon n1 sampler\n rate 10\n upstream agg\n\
             daemon agg l2\n subscribe darshanConnector\n",
        );
        let r = analyze_flow(&s, None);
        let v = iosim_util::json::parse(&r.render_json()).expect("valid json");
        assert!(v.get("network").and_then(|n| n.get("verdict")).is_some());
        assert_eq!(
            v.get("hops").and_then(|h| h.as_array()).map(<[_]>::len),
            Some(1)
        );
    }
}
