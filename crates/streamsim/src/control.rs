//! Engine-side state of the lossy control plane.
//!
//! When a scenario opts into `ControlPlaneConfig::Lossy`, the engine
//! owns the "wire": heartbeats flow from every live site towards the
//! controller site, commands flow controller → target site, and acks
//! flow back — all routed through [`ControlTransport`], so every
//! message is subject to link latency, random loss, link blackouts and
//! scheduled control partitions. The controller never reads truth
//! state; it only sees what survives the WAN.
//!
//! All stepping happens in the engine tick (`Engine::step` calls
//! [`Engine::control_step`] before anything else), so lossy runs are
//! as deterministic as oracle runs, and oracle mode — where this state
//! is simply absent — is byte-identical to the pre-control-plane
//! engine.
//!
//! [`Engine::control_step`]: crate::engine::Engine

use std::collections::BTreeSet;

use wasp_controlplane::channel::{CommandAck, CommandEnvelope, HeartbeatArrival};
use wasp_controlplane::config::LossyControlConfig;
use wasp_metrics::{Counter, MetricsHub};
use wasp_netsim::control::ControlTransport;
use wasp_netsim::site::SiteId;

use crate::engine::Command;

/// Hot-path instrument handles for the control plane (present only
/// when a metrics hub is attached).
#[derive(Debug)]
pub(crate) struct ControlMetrics {
    pub(crate) heartbeats_sent: Counter,
    pub(crate) heartbeats_dropped: Counter,
    pub(crate) commands_delivered: Counter,
    pub(crate) commands_dropped: Counter,
    pub(crate) stale_rejections: Counter,
}

impl ControlMetrics {
    pub(crate) fn build(hub: &MetricsHub) -> ControlMetrics {
        ControlMetrics {
            heartbeats_sent: hub.counter(
                "wasp_control_heartbeats_sent_total",
                "Heartbeats emitted by live sites towards the controller",
                &[],
            ),
            heartbeats_dropped: hub.counter(
                "wasp_control_heartbeats_dropped_total",
                "Heartbeats lost to the WAN (loss, blackout, partition)",
                &[],
            ),
            commands_delivered: hub.counter(
                "wasp_control_commands_delivered_total",
                "Control commands that reached the engine",
                &[],
            ),
            commands_dropped: hub.counter(
                "wasp_control_commands_dropped_total",
                "Control commands or acks lost to the WAN",
                &[],
            ),
            stale_rejections: hub.counter(
                "wasp_control_stale_epoch_rejections_total",
                "Commands fenced off for carrying a stale controller epoch",
                &[],
            ),
        }
    }
}

/// One command in flight towards the engine.
#[derive(Debug, Clone)]
pub(crate) struct InFlightCommand {
    /// Tie-break for identical arrival times: submission order.
    pub(crate) seq: u64,
    /// When it reaches the engine.
    pub(crate) arrive_s: f64,
    /// Site the command is addressed to (acks originate here).
    pub(crate) target: SiteId,
    /// The fenced command.
    pub(crate) env: CommandEnvelope<Command>,
}

/// Everything the engine tracks for the lossy control plane.
#[derive(Debug)]
pub(crate) struct ControlPlaneState {
    pub(crate) cfg: LossyControlConfig,
    pub(crate) controller_site: SiteId,
    pub(crate) transport: ControlTransport,
    /// Commands in flight, unordered; delivery sorts by
    /// `(arrive_s, seq)` so a delayed early command can be overtaken.
    pub(crate) inbox: Vec<InFlightCommand>,
    /// Acks in flight back to the controller: `(arrive_s, ack)`.
    pub(crate) acks: Vec<(f64, CommandAck)>,
    /// Heartbeats in flight to the controller: `(arrive_s, hb)`.
    pub(crate) heartbeats: Vec<(f64, HeartbeatArrival)>,
    /// Next scheduled heartbeat emission time.
    pub(crate) next_hb_s: f64,
    /// Monotone per-submission sequence number.
    pub(crate) next_seq: u64,
    /// Ids of commands already applied (idempotent redelivery).
    pub(crate) applied_ids: BTreeSet<u64>,
    /// Fencing epoch: the highest epoch of any accepted command.
    pub(crate) epoch: u64,
    /// Stale-epoch rejections so far (for audits and tests).
    pub(crate) stale_rejections: u64,
    pub(crate) cm: Option<ControlMetrics>,
}

impl ControlPlaneState {
    pub(crate) fn new(
        cfg: LossyControlConfig,
        controller_site: SiteId,
        cm: Option<ControlMetrics>,
    ) -> ControlPlaneState {
        let transport = ControlTransport::new(cfg.loss, cfg.delay_factor, cfg.seed);
        ControlPlaneState {
            cfg,
            controller_site,
            transport,
            inbox: Vec::new(),
            acks: Vec::new(),
            heartbeats: Vec::new(),
            next_hb_s: 0.0,
            next_seq: 0,
            applied_ids: BTreeSet::new(),
            epoch: 0,
            stale_rejections: 0,
            cm,
        }
    }

    /// Remove and return the in-flight commands due at or before `t`,
    /// in `(arrive_s, seq)` order — the order the wire would deliver
    /// them, which is *not* necessarily submission order.
    pub(crate) fn take_due_commands(&mut self, t: f64) -> Vec<InFlightCommand> {
        let mut due: Vec<InFlightCommand> = Vec::new();
        let mut rest: Vec<InFlightCommand> = Vec::new();
        for c in self.inbox.drain(..) {
            if c.arrive_s <= t {
                due.push(c);
            } else {
                rest.push(c);
            }
        }
        self.inbox = rest;
        due.sort_by(|a, b| {
            a.arrive_s
                .partial_cmp(&b.arrive_s)
                .expect("finite arrival times")
                .then(a.seq.cmp(&b.seq))
        });
        due
    }

    /// Remove and return the heartbeats and acks that reached the
    /// controller by `t`, each sorted by arrival time.
    pub(crate) fn take_arrived(&mut self, t: f64) -> (Vec<HeartbeatArrival>, Vec<CommandAck>) {
        let mut hbs: Vec<(f64, HeartbeatArrival)> = Vec::new();
        let mut hb_rest = Vec::new();
        for item in self.heartbeats.drain(..) {
            if item.0 <= t {
                hbs.push(item);
            } else {
                hb_rest.push(item);
            }
        }
        self.heartbeats = hb_rest;
        hbs.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite arrival times")
                .then(a.1.site.cmp(&b.1.site))
        });

        let mut acks: Vec<(f64, CommandAck)> = Vec::new();
        let mut ack_rest = Vec::new();
        for item in self.acks.drain(..) {
            if item.0 <= t {
                acks.push(item);
            } else {
                ack_rest.push(item);
            }
        }
        self.acks = ack_rest;
        acks.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite arrival times")
                .then(a.1.id.cmp(&b.1.id))
        });
        (
            hbs.into_iter().map(|(_, hb)| hb).collect(),
            acks.into_iter().map(|(_, a)| a).collect(),
        )
    }
}
