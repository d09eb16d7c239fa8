//! The wide-area dataflow engine simulation.
//!
//! [`Engine`] executes one deployed query over a dynamic
//! [`Network`], at a fixed tick `dt`, using the fluid cohort model
//! ([`crate::cohort`]). It reproduces the mechanisms WASP's controller
//! interacts with on Flink:
//!
//! * per-site task groups with bounded input queues and output buffers
//!   (credit-based **backpressure**: a full downstream queue stalls the
//!   upstream operator, pushing backlog toward the sources — which is
//!   why §3.3 estimates the *actual* workload from source rates);
//! * WAN transfer of inter-site streams with **max-min fair** sharing
//!   of links, including concurrent state-migration transfers;
//! * tumbling **windows**, whose emitted events carry the *latest*
//!   constituent event time (the paper's delay metric, §8.3);
//! * **checkpointing** every `checkpoint_interval_s` to site-local
//!   storage, with redo-work replay on failure (§5);
//! * **failures** that revoke compute slots and force recovery from the
//!   last local checkpoint (§8.6);
//! * **adaptation commands** — task re-assignment, operator scaling,
//!   and plan switching — applied with a transition phase whose length
//!   is governed by the state transfers the controller chose (§4, §5);
//! * optional **late-event dropping** against an SLO (the Degrade
//!   baseline).

use crate::cohort::{Cohort, CohortQueue};
use crate::control::{ControlMetrics, ControlPlaneState, InFlightCommand};
use crate::ids::OpId;
use crate::metrics::{FailureEvent, QuerySnapshot, RunMetrics, StageObs, TickRow};
use crate::operator::{OperatorKind, StateModel};
use crate::physical::{PhysicalError, PhysicalPlan, Placement};
use crate::plan::LogicalPlan;
use std::collections::BTreeMap;
use std::fmt;
use wasp_controlplane::channel::{AckOutcome, CommandAck, CommandEnvelope, HeartbeatArrival};
use wasp_controlplane::config::LossyControlConfig;
use wasp_metrics::{Counter, Gauge, Histogram, MetricsHub};
use wasp_netsim::control::ControlVerdict;
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::network::{FlowDemand, Network};
use wasp_netsim::site::SiteId;
use wasp_netsim::transit::TransitLedger;
use wasp_netsim::units::{Mbps, MegaBytes, SimTime};
use wasp_telemetry::{Event as TelEvent, SpanId, Telemetry};
use wasp_xray::{Component, DelayLedger, XrayRecorder, XrayRun};

/// A state transfer between two sites, part of an adaptation's
/// transition phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Site the state leaves.
    pub from: SiteId,
    /// Site the state lands on.
    pub to: SiteId,
    /// Volume to move.
    pub mb: MegaBytes,
}

impl Transfer {
    /// Convenience constructor.
    pub fn new(from: SiteId, to: SiteId, mb: MegaBytes) -> Transfer {
        Transfer { from, to, mb }
    }
}

/// A plan switch (query re-planning, §4.3).
#[derive(Debug, Clone)]
pub struct PlanSwitch {
    /// The new logical plan.
    pub plan: LogicalPlan,
    /// The new physical plan.
    pub physical: PhysicalPlan,
    /// `(old op, new op)` pairs whose state/in-flight data carries over
    /// (common sub-plans). Sources should always be carried.
    pub carry: Vec<(OpId, OpId)>,
    /// Cross-site state transfers required by the carried operators.
    pub transfers: Vec<Transfer>,
}

/// An adaptation command issued by a controller.
#[derive(Debug, Clone)]
pub enum Command {
    /// Re-deploy one stage (re-assignment and/or scaling): new
    /// placement plus the state transfers the controller planned.
    /// `skip_state: true` abandons the state instead (the paper's
    /// "No Migrate" baseline — counted as lost accuracy).
    Redeploy {
        /// Stage to re-deploy.
        op: OpId,
        /// New tasks-per-site assignment.
        placement: Placement,
        /// State transfers to perform during the transition.
        transfers: Vec<Transfer>,
        /// Abandon state instead of migrating it.
        skip_state: bool,
    },
    /// Switch to a different logical plan.
    SwitchPlan(Box<PlanSwitch>),
    /// Enable/disable the Degrade baseline's late-event dropping.
    SetDropSlo(Option<f64>),
}

/// Errors returned by [`Engine::apply`] and [`Engine::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The physical plan is invalid for the topology.
    Physical(PhysicalError),
    /// The referenced stage does not exist.
    UnknownOp(OpId),
    /// The stage is already in a transition.
    Busy(OpId),
    /// Sources cannot be re-deployed (they are pinned to where data is
    /// generated).
    SourceImmovable(OpId),
    /// The command targets a site that is currently failed (placing
    /// tasks on a dead site would silently lose them).
    SiteFailed(SiteId),
    /// The command carried a controller epoch older than the newest
    /// epoch the engine has accepted — a delayed pre-failure command
    /// must not clobber a newer emergency re-assignment (lossy control
    /// plane only).
    StaleEpoch {
        /// Epoch carried by the rejected command.
        cmd_epoch: u64,
        /// The engine's fencing epoch at rejection time.
        engine_epoch: u64,
    },
    /// [`Engine::submit`] was called in oracle mode: there is no lossy
    /// channel to carry the command (oracle-mode controllers use
    /// [`Engine::apply`]).
    ControlPlaneDisabled,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Physical(e) => write!(f, "invalid physical plan: {e}"),
            EngineError::UnknownOp(op) => write!(f, "unknown stage {op}"),
            EngineError::Busy(op) => write!(f, "stage {op} is mid-transition"),
            EngineError::SourceImmovable(op) => write!(f, "source {op} cannot move"),
            EngineError::SiteFailed(site) => {
                write!(f, "site {site} is currently failed")
            }
            EngineError::StaleEpoch {
                cmd_epoch,
                engine_epoch,
            } => {
                write!(
                    f,
                    "stale controller epoch {cmd_epoch} (engine at {engine_epoch})"
                )
            }
            EngineError::ControlPlaneDisabled => {
                write!(f, "submit requires the lossy control plane")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PhysicalError> for EngineError {
    fn from(e: PhysicalError) -> Self {
        EngineError::Physical(e)
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulation tick in seconds.
    pub dt: f64,
    /// Input-queue capacity per task, in *seconds of work* at the
    /// operator's processing capacity. A full queue exerts
    /// backpressure toward the sources.
    pub queue_capacity_s: f64,
    /// Output-buffer capacity per stage-site group, events (source
    /// output buffers are unbounded — backlog accumulates at the
    /// data's origin).
    pub edge_buffer_events: f64,
    /// Checkpoint interval (the paper used 30 s).
    pub checkpoint_interval_s: f64,
    /// Fixed restart cost of any re-deployment (instantiating tasks),
    /// seconds.
    pub restart_penalty_s: f64,
    /// When set, events older than this many seconds are dropped
    /// (Degrade's SLO).
    pub drop_slo: Option<f64>,
    /// Where checkpoints are written. WASP checkpoints to site-local
    /// storage (§5); `Remote(site)` models the conventional
    /// rendezvous-storage scheme (e.g. HDFS in one data center), whose
    /// periodic state uploads compete with the data streams for WAN
    /// bandwidth.
    pub checkpoint_target: CheckpointTarget,
    /// How operator state is modeled (§5, Fig. 14). The default,
    /// `Coarse`, keeps the original single-blob semantics bit-exactly:
    /// full-size checkpoint uploads, whole-operator suspension during
    /// migration. `Partitioned` hash-partitions each stateful stage's
    /// key space: checkpoints upload only the delta written since the
    /// last round, per-op migrations ship per-partition slices
    /// pipelined across links (pausing only the partition in flight),
    /// and failure redo replays only the dirty partitions.
    pub state_model: wasp_state::StateModel,
}

/// Destination of periodic checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointTarget {
    /// Site-local storage — WASP's localized checkpointing (§5);
    /// writing costs no WAN bandwidth.
    Local,
    /// A rendezvous storage system at one site: every checkpoint ships
    /// each task group's state over the WAN.
    Remote(SiteId),
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dt: 1.0,
            queue_capacity_s: 5.0,
            // Must comfortably exceed the events one tick can push
            // through a stage (rate × dt), or the buffer itself caps
            // throughput instead of the network/CPU.
            edge_buffer_events: 200_000.0,
            checkpoint_interval_s: 30.0,
            restart_penalty_s: 2.0,
            drop_slo: None,
            checkpoint_target: CheckpointTarget::Local,
            state_model: wasp_state::StateModel::Coarse,
        }
    }
}

/// Per-(stage, site) execution group: all tasks of one stage at one
/// site, which behave identically under balanced partitioning (§7).
#[derive(Debug, Clone, Default)]
struct Group {
    tasks: u32,
    input: CohortQueue,
    pending_out: CohortQueue,
    /// Event-time tumbling windows being assembled: window index →
    /// (event count, latest event time, count-weighted latency sum).
    window_buf: BTreeMap<i64, WinAgg>,
    /// Highest window index already fired; events for fired windows
    /// are stragglers and emit immediately (a late-firing update).
    fired_up_to: i64,
    /// Latest event time observed (the operator's watermark proxy).
    max_birth_seen: f64,
    since_ckpt: CohortQueue,
    redo: CohortQueue,
    state_mb: f64,
    // Counters since the last snapshot.
    arrived: f64,
    processed: f64,
    emitted: f64,
    generated: f64,
    backpressured: bool,
    /// Processing was limited by downstream buffer space (the
    /// bottleneck is elsewhere).
    out_blocked: bool,
    /// Cumulative seconds this group has spent paused for migrations
    /// and slice flights (partial pauses weighted by the paused key
    /// share). Only maintained with xray on; cohort ledgers snapshot
    /// it as their `mark_pause` at enqueue so the dequeue stamp can
    /// split queued time without per-tick work.
    pause_mig_cum: f64,
    /// Cumulative seconds blocked on a failed site (xray only); the
    /// dequeue stamp attributes the overlap to control-plane
    /// adaptation lag.
    pause_fail_cum: f64,
}

/// Accumulator of one event-time window.
#[derive(Debug, Clone, Copy, Default)]
struct WinAgg {
    count: f64,
    max_birth: f64,
    lat_sum: f64,
    /// Count-weighted sums of absorbed cohorts' ledger components
    /// (xray only), indexed by `Component::ALL`.
    comp_sums: [f64; 6],
    /// Count-weighted sum of absorb times (xray only): lets window
    /// firing charge the buffered wait `count·t_fire − entered_sum`
    /// to the flow view.
    entered_sum: f64,
}

impl Group {
    /// A freshly instantiated group.
    fn fresh(tasks: u32) -> Group {
        Group {
            tasks,
            fired_up_to: i64::MIN,
            max_birth_seen: f64::NEG_INFINITY,
            ..Group::default()
        }
    }

    /// Events currently buffered across all open windows.
    fn window_events(&self) -> f64 {
        self.window_buf.values().map(|a| a.count).sum()
    }

    /// Adds one processed cohort to its event-time window, or emits it
    /// immediately (scaled by σ) if its window already fired. With
    /// xray on, `now` is the absorb time and the cohort's ledger
    /// components accumulate (count-weighted) into the window.
    fn absorb_into_window(&mut self, c: Cohort, window_s: f64, sigma: f64, xray: bool, now: f64) {
        let w = (c.birth.secs() / window_s).floor() as i64;
        self.max_birth_seen = self.max_birth_seen.max(c.birth.secs());
        if w <= self.fired_up_to {
            // Late-firing update for an already-emitted window.
            self.pending_out.push(Cohort {
                birth: c.birth,
                count: c.count * sigma,
                net_latency: c.net_latency,
                xray: c.xray,
            });
        } else {
            let agg = self.window_buf.entry(w).or_default();
            agg.count += c.count;
            agg.max_birth = agg.max_birth.max(c.birth.secs());
            agg.lat_sum += c.net_latency * c.count;
            if xray {
                for (sum, comp) in agg.comp_sums.iter_mut().zip(c.xray.components()) {
                    *sum += comp * c.count;
                }
                agg.entered_sum += now * c.count;
            }
        }
    }

    /// Rebuilds the fired cohort's ledger. The delay rule (§8.3) resets
    /// the result's birth to the window's max event time, so only the
    /// budget `t_fire − max_birth` of local age survives into the
    /// delay metric: the absorbed components are rescaled to that
    /// budget (preserving their relative shares) and the carried mean
    /// net latency is re-charged as transit, keeping the conservation
    /// invariant exact for the reborn cohort.
    fn fired_ledger(&self, agg: &WinAgg, t_fire: f64) -> DelayLedger {
        let mut led = DelayLedger::new(agg.max_birth);
        let inv = 1.0 / agg.count;
        led.queue = agg.comp_sums[0] * inv;
        led.service = agg.comp_sums[1] * inv;
        led.transit = agg.comp_sums[2] * inv;
        led.backpressure = agg.comp_sums[3] * inv;
        led.migration = agg.comp_sums[4] * inv;
        led.control = agg.comp_sums[5] * inv;
        led.rescale_to((t_fire - agg.max_birth).max(0.0), Component::Queue);
        led.charge(Component::Transit, agg.lat_sum * inv);
        led.attributed_until = t_fire;
        led.mark_pause = self.pause_mig_cum;
        led.mark_fail = self.pause_fail_cum;
        led
    }

    /// Fires every window whose end the watermark has passed. With
    /// xray on, the buffered window wait (`count·t1 − entered_sum`)
    /// is charged to the flow view's queue component via `node_acc`.
    fn fire_ready_windows(
        &mut self,
        window_s: f64,
        sigma: f64,
        xray: bool,
        t1: f64,
        node_acc: &mut [f64; 6],
    ) {
        while let Some((&w, _)) = self.window_buf.iter().next() {
            if (w + 1) as f64 * window_s > self.max_birth_seen {
                break;
            }
            let agg = self.window_buf.remove(&w).expect("key just read");
            if agg.count > 0.0 {
                let xray_led = if xray {
                    node_acc[Component::Queue as usize] +=
                        (agg.count * t1 - agg.entered_sum).max(0.0);
                    self.fired_ledger(&agg, t1)
                } else {
                    DelayLedger::new(agg.max_birth)
                };
                self.pending_out.push(Cohort {
                    birth: SimTime(agg.max_birth),
                    count: agg.count * sigma,
                    net_latency: agg.lat_sum / agg.count,
                    xray: xray_led,
                });
            }
            self.fired_up_to = self.fired_up_to.max(w);
        }
    }

    /// Drains all open windows into cohorts (one per window, carrying
    /// the window's max event time), e.g. to hand off on redeploy.
    fn drain_windows(&mut self, xray: bool, now: f64) -> Vec<Cohort> {
        let out = self
            .window_buf
            .values()
            .filter(|a| a.count > 0.0)
            .map(|a| Cohort {
                birth: SimTime(a.max_birth),
                count: a.count,
                net_latency: a.lat_sum / a.count,
                xray: if xray {
                    self.fired_ledger(a, now)
                } else {
                    DelayLedger::new(a.max_birth)
                },
            })
            .collect();
        self.window_buf.clear();
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct EdgeKey {
    from_op: OpId,
    from_site: SiteId,
    to_op: OpId,
    to_site: SiteId,
}

/// One unit of per-tick work: a (stage, site) group plus the per-site
/// inputs sampled while sharding. Owns its `Group` for the duration of
/// the compute phase, so tasks share no mutable state.
#[derive(Debug)]
struct ProcTask {
    op: OpId,
    site: SiteId,
    /// Site failed or stage suspended this tick: the group only marks
    /// backpressure, processing and emission are skipped.
    blocked: bool,
    /// The block is a site failure (attribution: control-plane
    /// adaptation lag) rather than a migration suspension.
    blocked_by_failure: bool,
    /// Key-weight share paused by in-flight partition slices (0 when
    /// none); attribution charges it as partial migration pause.
    paused_frac: f64,
    /// Straggler slowdown factor for this site at tick start.
    compute_factor: f64,
    /// `None` only for blocked placements with no instantiated group.
    group: Option<Group>,
    /// Empty output buffers from the engine's pool.
    bufs: EmitBufs,
}

/// A task's reusable output buffers. They travel task → outcome →
/// engine pool, so a warmed-up tick allocates no per-task vectors.
#[derive(Debug, Default)]
struct EmitBufs {
    /// Cohorts taken from `pending_out` this tick: sink deliveries, or
    /// the emission every downstream edge receives (scaled by its
    /// share). Also holds the dequeued input while it is processed.
    cohorts: Vec<Cohort>,
    /// Downstream edge buffers and the share of `cohorts` each
    /// receives, in (downstream op, placement site) order. Empty for
    /// sinks.
    edges: Vec<(EdgeKey, f64)>,
}

/// The immutable pre-tick view shared (read-only) by every compute
/// task.
struct ProcCtx<'a> {
    plan: &'a LogicalPlan,
    physical: &'a PhysicalPlan,
    cfg: &'a EngineConfig,
    edges: &'a BTreeMap<EdgeKey, CohortQueue>,
    dt: f64,
    /// End-of-tick time; the attribution frontier every ledger stamp
    /// in this tick closes to.
    t1: f64,
    /// Delay attribution enabled: cohort ledgers are stamped at queue
    /// dequeue and emission, and flow charges are returned in
    /// `ProcOutcome::xray_nodes`.
    xray: bool,
}

/// Everything a task wants to say back to the engine. The reduce phase
/// applies outcomes in task order.
#[derive(Debug)]
struct ProcOutcome {
    op: OpId,
    site: SiteId,
    /// The group, handed back for re-insertion.
    group: Option<Group>,
    /// The group newly entered backpressure this tick (at most one
    /// counter increment per task, following the `!g.backpressured`
    /// guards).
    backpressure: bool,
    /// Events processed (drives the per-op throughput counter).
    processed: f64,
    /// Events emitted (drives the per-op emission counter).
    emitted: f64,
    /// The op is a sink: `bufs.cohorts` are deliveries, in emission
    /// order (delay accounting happens in the reduce so histograms
    /// observe in task order). Otherwise they are
    /// pushed to each of `bufs.edges`, scaled by its share.
    sink: bool,
    /// The emitted cohorts and their downstream edges; handed back to
    /// the engine's pool after the reduce.
    bufs: EmitBufs,
    /// Flow-view attribution charged at this (op, site) during the
    /// tick: seconds·events per component, indexed by
    /// `Component::ALL`. Folded per-op in the ordered reduce.
    xray_nodes: [f64; 6],
}

/// Closes a cohort's input-queue interval up to `until`. The overlap
/// with the owning group's cumulative pause counters (relative to the
/// marks snapshotted at enqueue) is attributed to migration pause and
/// control-plane lag respectively; up to `service_dt` of the remainder
/// is the current tick's compute, and the rest is genuine queue wait.
/// Returns per-event seconds charged per component (for the flow
/// view).
fn close_queue_interval(
    c: &mut Cohort,
    pause_mig_cum: f64,
    pause_fail_cum: f64,
    until: f64,
    service_dt: f64,
) -> [f64; 6] {
    let total = (until - c.xray.attributed_until).max(0.0);
    let mig = (pause_mig_cum - c.xray.mark_pause).clamp(0.0, total);
    let fail = (pause_fail_cum - c.xray.mark_fail).clamp(0.0, (total - mig).max(0.0));
    let service = service_dt.clamp(0.0, (total - mig - fail).max(0.0));
    let queue = (total - mig - fail - service).max(0.0);
    c.xray.charge(Component::Queue, queue);
    c.xray.charge(Component::Service, service);
    c.xray.charge(Component::Migration, mig);
    c.xray.charge(Component::Control, fail);
    c.xray.attributed_until = c.xray.attributed_until.max(until);
    let mut comps = [0.0; 6];
    comps[Component::Queue as usize] = queue;
    comps[Component::Service as usize] = service;
    comps[Component::Migration as usize] = mig;
    comps[Component::Control as usize] = fail;
    comps
}

/// Closes a cohort's pending-output wait up to `until`: a source
/// counts up to `service_dt` as its emission service, everything else
/// is a stall behind a full downstream buffer.
fn close_pending_interval(c: &mut Cohort, until: f64, service_dt: f64) -> [f64; 6] {
    let total = (until - c.xray.attributed_until).max(0.0);
    let service = service_dt.clamp(0.0, total);
    let stall = (total - service).max(0.0);
    c.xray.charge(Component::Service, service);
    c.xray.charge(Component::Backpressure, stall);
    c.xray.attributed_until = c.xray.attributed_until.max(until);
    let mut comps = [0.0; 6];
    comps[Component::Service as usize] = service;
    comps[Component::Backpressure as usize] = stall;
    comps
}

/// The compute phase for one task: a pure function of the task and the
/// pre-tick context. Must not touch any engine-global mutable state —
/// every effect is returned in the [`ProcOutcome`].
fn run_proc_task(ctx: &ProcCtx<'_>, task: ProcTask) -> ProcOutcome {
    let ProcTask {
        op,
        site,
        blocked,
        blocked_by_failure,
        paused_frac,
        compute_factor,
        group,
        bufs,
    } = task;
    let mut out = ProcOutcome {
        op,
        site,
        group: None,
        backpressure: false,
        processed: 0.0,
        emitted: 0.0,
        sink: false,
        bufs,
        xray_nodes: [0.0; 6],
    };
    if blocked {
        if let Some(mut g) = group {
            if !g.backpressured {
                g.backpressured = true;
                out.backpressure = true;
            }
            if ctx.xray {
                // The whole tick is a pause for everything queued
                // here; queued cohorts pick it up at dequeue via the
                // mark/cum split.
                if blocked_by_failure {
                    g.pause_fail_cum += ctx.dt;
                } else {
                    g.pause_mig_cum += ctx.dt;
                }
            }
            out.group = Some(g);
        }
        return out;
    }
    let spec = ctx.plan.op(op);
    let sigma = spec.selectivity();
    let is_sink = spec.kind().is_sink();
    let is_source = spec.kind().is_source();
    let windowed = spec.kind().window_s().is_some();
    let mut g = group.expect("deployed group");
    if ctx.xray && paused_frac > 0.0 {
        // A partitioned migration pauses a key-space fraction of this
        // group; the pause time accrues pro rata.
        g.pause_mig_cum += paused_frac.min(1.0) * ctx.dt;
    }
    // --- processing ---
    if !is_source {
        // Straggler sites run at a fraction of nominal speed.
        let mut capacity = spec.capacity_per_task() * g.tasks as f64 * ctx.dt * compute_factor;
        if !capacity.is_finite() {
            capacity = g.redo.len_events() + g.input.len_events();
        }
        // Redo work (post-failure recovery) consumes capacity but
        // emits nothing.
        let redo_n = g.redo.len_events().min(capacity);
        if redo_n > 0.0 {
            g.redo.take(redo_n);
            capacity -= redo_n;
        }
        // Output-buffer space limits processing (this is the
        // backpressure stall).
        let pending_room = (ctx.cfg.edge_buffer_events - g.pending_out.len_events()).max(0.0);
        let out_limit = if is_sink {
            f64::INFINITY
        } else if sigma > 0.0 {
            pending_room / sigma
        } else {
            f64::INFINITY
        };
        let n = capacity.min(g.input.len_events()).min(out_limit);
        if out_limit < capacity.min(g.input.len_events()) {
            g.out_blocked = true;
        }
        let per_task = spec.capacity_per_task();
        let queue_cap = if per_task.is_finite() {
            ctx.cfg.queue_capacity_s * per_task * g.tasks as f64
        } else {
            f64::INFINITY
        };
        if (g.input.len_events() >= 0.95 * queue_cap || out_limit < g.input.len_events())
            && !g.backpressured
        {
            g.backpressured = true;
            out.backpressure = true;
        }
        if n > 0.0 {
            let cohorts = &mut out.bufs.cohorts;
            g.input.take_into(n, cohorts);
            if ctx.xray {
                for c in cohorts.iter_mut() {
                    let comps =
                        close_queue_interval(c, g.pause_mig_cum, g.pause_fail_cum, ctx.t1, ctx.dt);
                    for (acc, v) in out.xray_nodes.iter_mut().zip(comps) {
                        *acc += v * c.count;
                    }
                    c.xray.mark_pause = g.pause_mig_cum;
                    c.xray.mark_fail = g.pause_fail_cum;
                }
            }
            g.processed += n;
            out.processed = n;
            g.since_ckpt.push_all(cohorts.iter().copied());
            if windowed {
                let w = spec.kind().window_s().expect("windowed op");
                for c in cohorts.drain(..) {
                    g.absorb_into_window(c, w, sigma, ctx.xray, ctx.t1);
                }
            } else {
                g.pending_out.push_scaled(cohorts, sigma);
                cohorts.clear();
            }
        }
        // --- event-time window firing ---
        // A tumbling window fires once the watermark (the latest event
        // time seen) passes its end: its result carries the window's
        // max event time — the paper's delay rule (§8.3). Straggler
        // events for already-fired windows were emitted immediately by
        // `absorb_into_window` (late-firing updates).
        if windowed {
            let w = spec.kind().window_s().expect("windowed op");
            g.fire_ready_windows(w, sigma, ctx.xray, ctx.t1, &mut out.xray_nodes);
        }
        // --- state bookkeeping ---
        match spec.state() {
            StateModel::Stateless => {}
            StateModel::Fixed(_) => { /* fixed: set at deploy */ }
            StateModel::Window { bytes_per_event } => {
                g.state_mb = g.window_events() * bytes_per_event / 1e6;
            }
        }
    }
    // --- emission: pending_out → edge buffers / sink ---
    let downstream = ctx.plan.downstream(op);
    let pending_len = g.pending_out.len_events();
    let emit_n = if pending_len <= 0.0 {
        0.0
    } else if is_sink {
        pending_len
    } else {
        // Limited by the fullest outgoing buffer. Only this task ever
        // writes those buffers (the key carries `(op, site)` as its
        // source), so the pre-tick snapshot is exact.
        let mut limit = f64::INFINITY;
        if !is_source {
            for &d in downstream {
                let placement = ctx.physical.placement(d);
                for (sd, _) in placement.iter() {
                    let share = placement.share(sd);
                    if share <= 0.0 {
                        continue;
                    }
                    let key = EdgeKey {
                        from_op: op,
                        from_site: site,
                        to_op: d,
                        to_site: sd,
                    };
                    let used = ctx.edges.get(&key).map(|q| q.len_events()).unwrap_or(0.0);
                    let free = (ctx.cfg.edge_buffer_events - used).max(0.0);
                    limit = limit.min(free / share);
                }
            }
        }
        pending_len.min(limit)
    };
    out.sink = is_sink;
    if emit_n > 0.0 {
        let cohorts = &mut out.bufs.cohorts;
        g.pending_out.take_into(emit_n, cohorts);
        if ctx.xray {
            // Sources charge their generation tick as service; everyone
            // else waited here only because a downstream buffer was
            // full.
            let sdt = if is_source { ctx.dt } else { 0.0 };
            for c in cohorts.iter_mut() {
                let comps = close_pending_interval(c, ctx.t1, sdt);
                for (acc, v) in out.xray_nodes.iter_mut().zip(comps) {
                    *acc += v * c.count;
                }
            }
        }
        g.emitted += emit_n;
        out.emitted = emit_n;
        if emit_n < pending_len && !g.backpressured {
            g.backpressured = true;
            out.backpressure = true;
        }
        if !is_sink {
            for &d in downstream {
                let placement = ctx.physical.placement(d);
                for (sd, _) in placement.iter() {
                    let key = EdgeKey {
                        from_op: op,
                        from_site: site,
                        to_op: d,
                        to_site: sd,
                    };
                    out.bufs.edges.push((key, placement.share(sd)));
                }
            }
        }
    }
    out.group = Some(g);
    out
}

#[derive(Debug, Clone)]
struct TransferProgress {
    from: SiteId,
    to: SiteId,
    remaining_mb: f64,
}

/// One stage-site share of a delta-chain compaction's full-snapshot
/// upload. Unlike incremental checkpoint uploads these are *not*
/// superseded by the next round — the snapshot burst runs to
/// completion, contending with stream traffic the whole way — but a
/// later compaction of the same op replaces any still-unfinished
/// flights (the stale snapshot is abandoned).
#[derive(Debug, Clone)]
struct CompactionFlight {
    op: OpId,
    from: SiteId,
    to: SiteId,
    remaining_mb: f64,
    /// Index of the compaction's record in the state timeline, to
    /// stamp `end_s` when the last flight of the burst lands.
    record: usize,
}

/// One partition slice of a partitioned migration. Slices of the same
/// `(from, to)` link drain sequentially (pipelined); only the head
/// slice of each link is in flight — and paused — at a time.
#[derive(Debug, Clone)]
struct SliceFlight {
    partition: u32,
    /// Pre-split root partition this slice descends from (`==
    /// partition` when runtime splitting never touched it): the id
    /// checkpoint deltas taken before a split were recorded against,
    /// so redo replay resolves children through their origin.
    origin: u32,
    from: SiteId,
    to: SiteId,
    /// Key-space weight of the partition (the capacity share paused
    /// while this slice is in flight).
    weight: f64,
    mb: f64,
    remaining_mb: f64,
    /// Simulated time the slice's flight began (`None` until it
    /// reaches the head of its link's queue).
    started_at: Option<f64>,
    /// Index of this slice's record in the engine's state timeline.
    record: Option<usize>,
}

#[derive(Debug, Clone)]
struct Migration {
    /// `None` = whole-query transition (plan switch).
    op: Option<OpId>,
    transfers: Vec<TransferProgress>,
    /// Per-partition slices (partitioned migrations only; `transfers`
    /// is empty then).
    slices: Vec<SliceFlight>,
    /// True for a partitioned per-op migration: the operator keeps
    /// processing at reduced capacity instead of suspending wholesale.
    partitioned: bool,
    resume_no_earlier: f64,
    /// When the transition began (for the downtime histogram).
    started_at: f64,
    /// Telemetry span covering the transition, when recording.
    span: Option<SpanId>,
}

impl Migration {
    fn done(&self, now: f64) -> bool {
        now >= self.resume_no_earlier
            && self.transfers.iter().all(|t| t.remaining_mb <= 1e-9)
            && self.slices.iter().all(|s| s.remaining_mb <= 1e-9)
    }
}

/// Pre-resolved metric instrument handles for the engine hot path.
/// Built once per plan (and rebuilt on plan switch) so each per-tick
/// update is a pointer bump, never a registry lookup. Absent
/// (`Engine::em == None`) when the hub is disabled, so the disabled
/// cost is a single branch per instrumentation site.
#[derive(Debug)]
struct EngineMetrics {
    /// Per-op (indexed by `OpId::index()`) events processed.
    processed: Vec<Counter>,
    /// Per-op events emitted downstream (or delivered, for sinks).
    emitted: Vec<Counter>,
    /// Per-op events waiting in input + redo queues.
    queue: Vec<Gauge>,
    /// Per-op backpressure episodes (a group entering backpressure
    /// counts once per monitoring interval).
    backpressure: Vec<Counter>,
    /// Per-sink delivery-latency histogram (`None` for non-sinks).
    delivery: Vec<Option<Histogram>>,
    /// Query-level totals.
    generated: Counter,
    delivered: Counter,
    dropped: Counter,
    /// Migration lifecycle.
    migrations_started: Counter,
    migrations_aborted: Counter,
    migrations_in_flight: Gauge,
    /// Seconds each completed transition kept its stage(s) suspended.
    migration_downtime: Histogram,
    /// Per-partition state sizes observed at each incremental
    /// checkpoint round (`None` under `StateModel::Coarse`, so the
    /// coarse registry shape — and every export — is unchanged).
    partition_bytes: Option<Histogram>,
    /// Incremental-checkpoint delta volume per stage per round.
    checkpoint_delta: Option<Histogram>,
    /// Pause each completed partition slice inflicted on its keys.
    partition_downtime: Option<Histogram>,
    /// Runtime key-range splits the migration path performed (`None`
    /// unless `split_threshold` is configured, so both the coarse and
    /// the flat-partitioned registry shapes are unchanged).
    partition_splits: Option<Counter>,
    /// Chain length (delta rounds since the last full snapshot)
    /// observed per stage per checkpoint round (`None` unless
    /// delta-chain modeling is on, so pre-chain registry shapes are
    /// unchanged).
    chain_len: Option<Histogram>,
    /// Full-snapshot upload volume per compaction.
    compaction_mb: Option<Histogram>,
    /// Modeled chain-replay stall per failure recovery.
    replay_seconds: Option<Histogram>,
    /// Per-sink per-component delay-attribution histograms, indexed by
    /// `OpId::index()` then [`Component`] discriminant (`None` for
    /// non-sinks or when xray is off, so default registries are
    /// untouched).
    xray_comps: Vec<Option<Vec<Histogram>>>,
}

impl EngineMetrics {
    fn build(
        hub: &MetricsHub,
        plan: &LogicalPlan,
        state: &wasp_state::StateModel,
        xray: bool,
    ) -> EngineMetrics {
        let partitioned = state.is_partitioned();
        let split = state
            .partition_config()
            .and_then(|pc| pc.split_threshold)
            .is_some();
        let compaction = state
            .partition_config()
            .is_some_and(|pc| pc.compaction.is_enabled());
        let mut processed = Vec::with_capacity(plan.len());
        let mut emitted = Vec::with_capacity(plan.len());
        let mut queue = Vec::with_capacity(plan.len());
        let mut backpressure = Vec::with_capacity(plan.len());
        let mut delivery = Vec::with_capacity(plan.len());
        let mut xray_comps = Vec::with_capacity(plan.len());
        for op in plan.op_ids() {
            let spec = plan.op(op);
            let labels = [("op", spec.name())];
            processed.push(hub.counter(
                "wasp_op_processed_events_total",
                "Events processed by the operator",
                &labels,
            ));
            emitted.push(hub.counter(
                "wasp_op_emitted_events_total",
                "Events emitted downstream by the operator",
                &labels,
            ));
            queue.push(hub.gauge(
                "wasp_op_queue_events",
                "Events waiting in the operator's input and redo queues",
                &labels,
            ));
            backpressure.push(hub.counter(
                "wasp_op_backpressure_episodes_total",
                "Times a task group of the operator entered backpressure",
                &labels,
            ));
            delivery.push(if spec.kind().is_sink() {
                Some(hub.histogram(
                    "wasp_delivery_latency_seconds",
                    "End-to-end event delay at the sink (event-weighted)",
                    &labels,
                ))
            } else {
                None
            });
            xray_comps.push((xray && spec.kind().is_sink()).then(|| {
                Component::ALL
                    .iter()
                    .map(|comp| {
                        hub.histogram(
                            "wasp_xray_component_seconds",
                            "Per-component share of end-to-end delay at the sink",
                            &[("op", spec.name()), ("component", comp.label())],
                        )
                    })
                    .collect()
            }));
        }
        EngineMetrics {
            processed,
            emitted,
            queue,
            backpressure,
            delivery,
            generated: hub.counter(
                "wasp_generated_events_total",
                "Events generated by all sources",
                &[],
            ),
            delivered: hub.counter(
                "wasp_delivered_events_total",
                "Events delivered at the sink",
                &[],
            ),
            dropped: hub.counter(
                "wasp_dropped_events_total",
                "Late events dropped against the drop SLO",
                &[],
            ),
            migrations_started: hub.counter(
                "wasp_migrations_started_total",
                "Transitions (re-deployments and plan switches) started",
                &[],
            ),
            migrations_aborted: hub.counter(
                "wasp_migrations_aborted_total",
                "Transitions aborted by a mid-flight failure",
                &[],
            ),
            migrations_in_flight: hub.gauge(
                "wasp_migrations_in_flight",
                "Transitions currently suspending execution",
                &[],
            ),
            migration_downtime: hub.histogram(
                "wasp_migration_downtime_seconds",
                "Seconds each completed transition kept its stage(s) suspended",
                &[],
            ),
            partition_bytes: partitioned.then(|| {
                hub.histogram(
                    "wasp_state_partition_bytes",
                    "Per-partition state size at each incremental checkpoint round",
                    &[],
                )
            }),
            checkpoint_delta: partitioned.then(|| {
                hub.histogram(
                    "wasp_checkpoint_delta_mb",
                    "Megabytes uploaded by each incremental checkpoint round (per stage)",
                    &[],
                )
            }),
            partition_downtime: partitioned.then(|| {
                hub.histogram(
                    "wasp_migration_partition_downtime_seconds",
                    "Pause each completed partition slice inflicted on its keys",
                    &[],
                )
            }),
            partition_splits: split.then(|| {
                hub.counter(
                    "wasp_partition_splits_total",
                    "Runtime key-range splits performed by the migration path",
                    &[],
                )
            }),
            chain_len: compaction.then(|| {
                hub.histogram(
                    "wasp_checkpoint_chain_len",
                    "Delta rounds since the last full snapshot, per stage per round",
                    &[],
                )
            }),
            compaction_mb: compaction.then(|| {
                hub.histogram(
                    "wasp_checkpoint_compaction_mb",
                    "Full-snapshot upload volume per delta-chain compaction",
                    &[],
                )
            }),
            replay_seconds: compaction.then(|| {
                hub.histogram(
                    "wasp_checkpoint_replay_seconds",
                    "Modeled chain-replay stall per failure recovery",
                    &[],
                )
            }),
            xray_comps,
        }
    }
}

/// Engine-side latency-attribution state (absent when xray is off —
/// the default — so oracle runs carry zero extra work).
#[derive(Debug)]
struct XrayState {
    /// Reporting-window width for attribution aggregation (seconds).
    window_s: f64,
    rec: XrayRecorder,
    /// Physical per-WAN-link transit accounting (the recorder holds
    /// the logical DAG-edge view).
    links: TransitLedger,
    /// Window indices `< emitted_up_to` already emitted as telemetry
    /// breakdown events.
    emitted_up_to: i64,
}

/// The wide-area stream engine simulation. See the module docs for the
/// mechanisms covered.
#[derive(Debug)]
pub struct Engine {
    net: Network,
    script: DynamicsScript,
    plan: LogicalPlan,
    physical: PhysicalPlan,
    cfg: EngineConfig,
    now: f64,
    /// Completed ticks since construction. `now` is derived from this
    /// integer count (`now = tick × dt`) so long runs cannot
    /// accumulate floating-point drift across platforms.
    tick: u64,
    groups: BTreeMap<(OpId, SiteId), Group>,
    edges: BTreeMap<EdgeKey, CohortQueue>,
    migrations: Vec<Migration>,
    metrics: RunMetrics,
    last_ckpt: f64,
    last_snapshot: f64,
    failure_applied: Vec<bool>,
    lost_state_mb: f64,
    drop_slo: Option<f64>,
    /// Mbps moved per directed pair during the last tick (data flows
    /// plus state migrations) — telemetry for multi-query coupling.
    last_link_usage: BTreeMap<(SiteId, SiteId), f64>,
    /// In-flight checkpoint uploads to remote storage (never suspend
    /// execution; only consume bandwidth).
    checkpoint_uploads: Vec<TransferProgress>,
    /// In-flight full-snapshot uploads from delta-chain compactions
    /// (empty unless compaction modeling is on). They consume
    /// bandwidth like checkpoint uploads but survive later rounds.
    compaction_uploads: Vec<CompactionFlight>,
    /// Per-op modeled recovery replay: processing stalls until the
    /// stored time (empty unless compaction modeling is on). Not a
    /// migration — emergency re-deployments proceed during the stall.
    recovery_replays: BTreeMap<OpId, f64>,
    /// Checkpoint rounds taken and rounds whose uploads were
    /// superseded before completing.
    ckpt_rounds: u32,
    ckpt_incomplete: u32,
    /// Failure-related events accumulated since the last snapshot.
    pending_events: Vec<FailureEvent>,
    /// Failed-site set as of the previous tick, for edge detection.
    prev_failed: Vec<SiteId>,
    /// Telemetry handle (disabled by default; zero cost when off).
    tel: Telemetry,
    /// Last observed dynamics factors and the next tick time at which
    /// one can change, for transition-edge detection (only maintained
    /// while telemetry is enabled).
    dyn_watch: DynamicsWatch,
    /// Metrics hub (disabled by default; zero cost when off).
    hub: MetricsHub,
    /// Pre-resolved hot-path instrument handles (`None` while the hub
    /// is disabled).
    em: Option<EngineMetrics>,
    /// Monotone version of the deployed (plan, placement) shape;
    /// bumped on every accepted redeploy/plan switch. Controllers use
    /// it to abandon retries whose premise no longer holds.
    plan_version: u64,
    /// Lossy control plane (`None` = oracle mode, the default: apply
    /// is a reliable instantaneous call and no heartbeats exist).
    control: Option<ControlPlaneState>,
    /// Per-stage partitioned state (empty under `StateModel::Coarse`;
    /// one store per stateful op under `Partitioned`).
    stores: BTreeMap<OpId, wasp_state::StateStore>,
    /// Per-partition checkpoint/transfer records (stays empty under
    /// `Coarse`, so nothing downstream changes shape).
    state_timeline: wasp_state::timeline::StateTimeline,
    /// Latency-attribution recorder (`None` = xray off, the default;
    /// every stamp in the hot path is gated on this).
    xray: Option<XrayState>,
    /// Working memory of `transfer_step`, reused across ticks.
    transfer_scratch: TransferScratch,
    /// Recycled per-task output buffers of `process_step`.
    emit_pool: Vec<EmitBufs>,
    /// Task and outcome vectors of `process_step`: empty between
    /// ticks, capacity kept.
    proc_tasks: Vec<ProcTask>,
    proc_outcomes: Vec<ProcOutcome>,
    /// Per-op key-weight share paused by in-flight partition slices
    /// (`process_step`), and the links already counted for the
    /// migration being summed.
    inflight_scratch: Vec<f64>,
    inflight_links: Vec<(SiteId, SiteId)>,
    /// Per-op processed events of the current tick (`process_step`).
    per_op_processed: Vec<f64>,
    /// Per-op queued events of the current tick (metrics only).
    queue_scratch: Vec<f64>,
}

/// Transition-edge detection state of the scripted dynamics.
///
/// Every factor series is piecewise constant, so the factors are
/// re-read only from the first tick at or after the script's next
/// value change (`next_check`); every other tick costs one compare.
#[derive(Debug)]
struct DynamicsWatch {
    /// Earliest tick start at which a factor may differ from `prev`.
    next_check: f64,
    /// Factors as of the last evaluated tick, dense by slot: the
    /// all-link bandwidth, then the workload of each site's sources,
    /// then each site's compute speed (see [`DynamicsWatch::workload`]
    /// and [`DynamicsWatch::compute`]). Unseen slots hold 1.0.
    prev: Vec<f64>,
    /// Compute slots that have been reported once: they are watched
    /// from the first non-nominal factor on.
    compute_seen: Vec<bool>,
}

impl DynamicsWatch {
    const BANDWIDTH: usize = 0;

    fn new(sites: usize) -> DynamicsWatch {
        DynamicsWatch {
            next_check: f64::NEG_INFINITY,
            prev: vec![1.0; 1 + 2 * sites],
            compute_seen: vec![false; sites],
        }
    }

    fn workload(site: SiteId) -> usize {
        1 + site.index()
    }

    fn compute(&self, site: SiteId) -> usize {
        1 + self.compute_seen.len() + site.index()
    }

    /// Compares `factor` against the slot's last value and emits a
    /// transition on a move of more than 1%; the event's `what` string
    /// is built only when it is emitted.
    fn observe(
        &mut self,
        tel: &Telemetry,
        t0: f64,
        slot: usize,
        factor: f64,
        what: impl FnOnce() -> String,
    ) {
        let prev = self.prev[slot];
        if (factor - prev).abs() > 0.01 * prev.max(0.01) {
            tel.emit(t0, || TelEvent::DynamicsTransition {
                what: what(),
                factor,
            });
        }
        self.prev[slot] = factor;
    }
}

/// Working memory of `transfer_step`. Every vector is cleared (never
/// shrunk) at the start of a tick, so once the first ticks have grown
/// them the phase allocates nothing. Deliberately not pre-sized at
/// construction: the growth is a handful of reallocations in the first
/// ticks rather than set-up work.
#[derive(Debug, Default)]
struct TransferScratch {
    /// Edge buffers with data to move this tick, and their backlog.
    candidates: Vec<(EdgeKey, f64)>,
    /// Candidate indices grouped by destination, each group in
    /// water-fill order (smallest backlog first, ties by index).
    order: Vec<u32>,
    /// Events admitted per candidate.
    grants: Vec<f64>,
    flows: Vec<FlowDemand>,
    /// The data edge behind each flow (`None` for state flights).
    flow_edges: Vec<Option<EdgeKey>>,
    /// Admitted events per flow (0 for state flights).
    admissions: Vec<f64>,
    /// Allocated rate per flow.
    rates: Vec<Mbps>,
    /// (checkpoint upload, flow) pairs.
    ckpt_flows: Vec<(usize, usize)>,
    /// (compaction flight, flow) pairs.
    comp_flows: Vec<(usize, usize)>,
    /// (migration, transfer, flow) triples.
    mig_flows: Vec<(usize, usize, usize)>,
    /// (migration, slice, flow) triples.
    slice_flows: Vec<(usize, usize, usize)>,
    /// Links already carrying a head slice of the current migration.
    slice_links: Vec<(SiteId, SiteId)>,
    /// Cohorts taken off one edge buffer.
    moved: Vec<Cohort>,
}

impl Engine {
    /// Deploys a query.
    ///
    /// The script's all-link bandwidth factor (if any) is installed on
    /// the network as its global factor.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Physical`] if the physical plan is
    /// invalid for the network's topology.
    pub fn new(
        mut net: Network,
        script: DynamicsScript,
        plan: LogicalPlan,
        physical: PhysicalPlan,
        cfg: EngineConfig,
    ) -> Result<Engine, EngineError> {
        physical.validate(&plan, net.topology())?;
        if let Some(series) = script.bandwidth_series() {
            let combined = net.global_factor().combine(series);
            net.set_global_factor(combined);
        }
        for ((from, to), series) in script.link_bandwidth() {
            net.combine_pair_factor(*from, *to, series);
        }
        let drop_slo = cfg.drop_slo;
        let failure_applied = vec![false; script.failures().len()];
        let dyn_watch = DynamicsWatch::new(net.topology().num_sites());
        let mut engine = Engine {
            net,
            script,
            plan,
            physical,
            cfg,
            now: 0.0,
            tick: 0,
            groups: BTreeMap::new(),
            edges: BTreeMap::new(),
            migrations: Vec::new(),
            metrics: RunMetrics::new(),
            last_ckpt: 0.0,
            last_snapshot: 0.0,
            failure_applied,
            lost_state_mb: 0.0,
            drop_slo,
            last_link_usage: BTreeMap::new(),
            checkpoint_uploads: Vec::new(),
            compaction_uploads: Vec::new(),
            recovery_replays: BTreeMap::new(),
            ckpt_rounds: 0,
            ckpt_incomplete: 0,
            pending_events: Vec::new(),
            prev_failed: Vec::new(),
            tel: Telemetry::disabled(),
            dyn_watch,
            hub: MetricsHub::disabled(),
            em: None,
            plan_version: 0,
            control: None,
            stores: BTreeMap::new(),
            state_timeline: wasp_state::timeline::StateTimeline::new(),
            xray: None,
            transfer_scratch: TransferScratch::default(),
            emit_pool: Vec::new(),
            proc_tasks: Vec::new(),
            proc_outcomes: Vec::new(),
            inflight_scratch: Vec::new(),
            inflight_links: Vec::new(),
            per_op_processed: Vec::new(),
            queue_scratch: Vec::new(),
        };
        engine.build_groups();
        Ok(engine)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now)
    }

    /// Completed simulation ticks (`now() == tick() × dt`).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The deployed logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The current physical plan.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// The network (for WAN-Monitor-style bandwidth queries).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable network access — used by co-schedulers that install
    /// other executions' link usage as transient cross traffic.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Mbps actually moved per directed pair during the last tick
    /// (inter-site data flows and state migrations).
    pub fn last_link_usage(&self) -> &BTreeMap<(SiteId, SiteId), f64> {
        &self.last_link_usage
    }

    /// The dynamics script driving this run.
    pub fn script(&self) -> &DynamicsScript {
        &self.script
    }

    /// Currently-available bandwidth `from → to` as the WAN Monitor
    /// would report it.
    pub fn link_bandwidth(&self, from: SiteId, to: SiteId) -> Mbps {
        self.net.available(from, to, SimTime(self.now))
    }

    /// The experiment recording so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Consumes the engine, returning the recording.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }

    /// Attaches a telemetry sink; engine transitions, checkpoints,
    /// failures and dynamics shifts are emitted into it from now on.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        // The first enabled tick re-reads every factor.
        self.dyn_watch.next_check = f64::NEG_INFINITY;
    }

    /// The engine's telemetry handle (cheap clone; controllers share
    /// it so their spans and the engine's interleave in one log).
    pub fn telemetry(&self) -> Telemetry {
        self.tel.clone()
    }

    /// Attaches a metrics hub: the engine records per-operator
    /// throughput/queue/backpressure, per-sink delivery-latency
    /// histograms and migration downtime into it, the network records
    /// per-link utilization, and the hub is scraped on its sim-time
    /// interval at the end of every step.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        self.net.set_metrics(hub.clone());
        self.em = if hub.is_enabled() {
            Some(EngineMetrics::build(
                &hub,
                &self.plan,
                &self.cfg.state_model,
                self.xray.is_some(),
            ))
        } else {
            None
        };
        self.hub = hub;
    }

    /// Enables end-to-end latency attribution (xray): every cohort's
    /// delay is split into queue/service/transit/backpressure/
    /// migration/control components, aggregated per sink per reporting
    /// window of `window_s` seconds. Off by default; when off, runs are
    /// byte-identical to pre-xray builds.
    pub fn enable_xray(&mut self, window_s: f64) {
        let mut rec = XrayRecorder::new(window_s);
        rec.set_ops(
            self.plan
                .op_ids()
                .map(|op| (op.0, self.plan.op(op).name().to_string())),
        );
        rec.set_sites(self.net.topology().site_ids().map(|s| {
            (
                u32::from(s.0),
                self.net.topology().site(s).name().to_string(),
            )
        }));
        self.xray = Some(XrayState {
            window_s,
            rec,
            links: TransitLedger::new(),
            emitted_up_to: 0,
        });
        if self.hub.is_enabled() {
            // Re-resolve instrument handles so the per-sink component
            // families exist.
            self.em = Some(EngineMetrics::build(
                &self.hub,
                &self.plan,
                &self.cfg.state_model,
                true,
            ));
        }
    }

    /// True when latency attribution is recording.
    pub fn xray_enabled(&self) -> bool {
        self.xray.is_some()
    }

    /// The attribution recorded so far (`None` when xray is off). The
    /// run's per-link transit rows come from the engine's physical
    /// ledger.
    pub fn take_xray(&self) -> Option<XrayRun> {
        let xs = self.xray.as_ref()?;
        let mut run = xs.rec.finalize();
        run.links = xs
            .links
            .rows()
            .into_iter()
            .map(|(from, to, acc)| wasp_xray::XrayLink {
                from_site: u32::from(from.0),
                to_site: u32::from(to.0),
                seconds: acc.seconds,
                events: acc.events,
            })
            .collect();
        Some(run)
    }

    /// Records one control-plane adaptation lag sample (seconds between
    /// a condition being detected and the resulting command applying).
    /// Controllers call this; a no-op while xray is off.
    pub fn xray_note_adaptation_lag(&mut self, lag_s: f64) {
        let now = self.now;
        if let Some(xs) = self.xray.as_mut() {
            xs.rec.note_adaptation(now, lag_s);
        }
    }

    /// The engine's metrics hub (cheap clone; controllers share it so
    /// SLO metrics land in the same registry).
    pub fn metrics_hub(&self) -> MetricsHub {
        self.hub.clone()
    }

    /// Adds an annotation to the recording (controllers note their
    /// actions here).
    pub fn annotate(&mut self, label: impl Into<String>) {
        let label = label.into();
        self.tel.emit(self.now, || TelEvent::Note {
            text: label.clone(),
        });
        self.metrics.annotate(SimTime(self.now), label);
    }

    /// True while `op` (or the whole query) is *fully* suspended by a
    /// coarse transition. Partitioned migrations never fully suspend:
    /// the operator keeps processing every partition not currently in
    /// flight (see `process_step`).
    pub fn is_suspended(&self, op: OpId) -> bool {
        self.migrations
            .iter()
            .any(|m| !m.partitioned && (m.op.is_none() || m.op == Some(op)))
    }

    /// True while any transition — coarse or partitioned — involves
    /// `op`; used to reject concurrent re-deployments of the same
    /// stage.
    fn op_in_transition(&self, op: OpId) -> bool {
        self.migrations
            .iter()
            .any(|m| m.op.is_none() || m.op == Some(op))
    }

    /// Per-partition checkpoint/transfer records accumulated so far
    /// (always empty under [`wasp_state::StateModel::Coarse`]).
    pub fn state_timeline(&self) -> &wasp_state::timeline::StateTimeline {
        &self.state_timeline
    }

    /// True while any transition is in progress.
    pub fn in_transition(&self) -> bool {
        !self.migrations.is_empty()
    }

    // ----- lossy control plane ---------------------------------------

    /// Switches this engine from oracle mode to the lossy control
    /// plane. From now on heartbeats flow from every live site to the
    /// controller site each `heartbeat_period_s`, and commands must be
    /// handed to [`Engine::submit`] as fenced envelopes rather than
    /// applied directly.
    ///
    /// The controller site defaults to the site hosting the first sink
    /// (the natural "head node" of the deployment).
    pub fn enable_lossy_control(&mut self, cfg: LossyControlConfig) {
        let controller_site = cfg.controller_site.unwrap_or_else(|| {
            let sinks = self.plan.sinks();
            let head = sinks.first().copied().unwrap_or(OpId(0));
            self.physical
                .placement(head)
                .sites()
                .first()
                .copied()
                .unwrap_or_else(|| {
                    self.net
                        .topology()
                        .site_ids()
                        .next()
                        .expect("topology has at least one site")
                })
        });
        let cm = if self.hub.is_enabled() {
            Some(ControlMetrics::build(&self.hub))
        } else {
            None
        };
        self.control = Some(ControlPlaneState::new(cfg, controller_site, cm));
    }

    /// True when the lossy control plane is active.
    pub fn control_enabled(&self) -> bool {
        self.control.is_some()
    }

    /// The engine's fencing epoch: the highest epoch of any accepted
    /// command (0 in oracle mode).
    pub fn control_epoch(&self) -> u64 {
        self.control.as_ref().map(|cp| cp.epoch).unwrap_or(0)
    }

    /// Monotone version of the deployed (plan, placement) shape.
    pub fn plan_version(&self) -> u64 {
        self.plan_version
    }

    /// Site hosting the controller, when the lossy control plane is
    /// active.
    pub fn controller_site(&self) -> Option<SiteId> {
        self.control.as_ref().map(|cp| cp.controller_site)
    }

    /// Commands fenced off so far for carrying a stale epoch.
    pub fn stale_rejections(&self) -> u64 {
        self.control
            .as_ref()
            .map(|cp| cp.stale_rejections)
            .unwrap_or(0)
    }

    /// Hands a fenced command to the lossy channel. The command
    /// travels controller site → target site over the simulated WAN:
    /// it may be dropped outright (telemetry records the cause), and
    /// otherwise arrives after the control-channel delay, where the
    /// next [`Engine::step`] delivers it through the epoch fence. A
    /// dropped command is not an error: the controller learns of it
    /// only through the missing ack, as over a real network.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ControlPlaneDisabled`] (and drops the
    /// command) unless [`Engine::enable_lossy_control`] was called —
    /// oracle-mode controllers use [`Engine::apply`] directly.
    pub fn submit(&mut self, env: CommandEnvelope<Command>) -> Result<(), EngineError> {
        let Some(mut cp) = self.control.take() else {
            return Err(EngineError::ControlPlaneDisabled);
        };
        let target = self.command_target_site(&cp, &env.payload);
        let verdict = cp.transport.route(
            &self.net,
            &self.script,
            cp.controller_site,
            target,
            self.now,
        );
        match verdict {
            ControlVerdict::Deliver { arrive_s } => {
                let seq = cp.next_seq;
                cp.next_seq += 1;
                cp.inbox.push(InFlightCommand {
                    seq,
                    arrive_s,
                    target,
                    env,
                });
            }
            ControlVerdict::Drop(cause) => {
                if let Some(cm) = &cp.cm {
                    cm.commands_dropped.inc();
                }
                self.tel.emit(self.now, || TelEvent::ControlCommandDropped {
                    id: env.id,
                    label: env.label.clone(),
                    stage: "command".into(),
                    cause: cause.describe().into(),
                });
            }
        }
        self.control = Some(cp);
        Ok(())
    }

    /// Heartbeats and acks that reached the controller site by `now`.
    /// Returns each at most once; the controller calls this every
    /// monitor round.
    pub fn drain_control(&mut self) -> (Vec<HeartbeatArrival>, Vec<CommandAck>) {
        match self.control.as_mut() {
            Some(cp) => cp.take_arrived(self.now),
            None => (Vec::new(), Vec::new()),
        }
    }

    /// The site a command is addressed to: the farthest (highest
    /// control-channel latency) site it touches, so delivery delay is
    /// conservative. Drop-SLO toggles are controller-local.
    fn command_target_site(&self, cp: &ControlPlaneState, cmd: &Command) -> SiteId {
        let farthest = |sites: Vec<SiteId>| -> SiteId {
            sites
                .into_iter()
                .max_by(|&a, &b| {
                    let la = self.net.latency(cp.controller_site, a).secs();
                    let lb = self.net.latency(cp.controller_site, b).secs();
                    la.partial_cmp(&lb)
                        .expect("finite latencies")
                        .then(a.cmp(&b))
                })
                .unwrap_or(cp.controller_site)
        };
        match cmd {
            Command::Redeploy { placement, .. } => farthest(placement.sites()),
            Command::SwitchPlan(sw) => {
                let mut sites = Vec::new();
                for op in sw.plan.op_ids() {
                    sites.extend(sw.physical.placement(op).sites());
                }
                farthest(sites)
            }
            Command::SetDropSlo(_) => cp.controller_site,
        }
    }

    /// One control-plane tick: emit due heartbeats, then deliver due
    /// commands through the epoch fence and send acks back. A no-op in
    /// oracle mode, keeping those runs byte-identical to the
    /// pre-control-plane engine.
    fn control_step(&mut self, t0: f64) {
        if self.control.is_none() {
            return;
        }
        let mut cp = self.control.take().expect("checked above");

        // Heartbeats: every live site fires towards the controller on
        // the shared period grid. Failed sites stay silent — that
        // silence *is* the failure signal.
        let sites: Vec<SiteId> = self.net.topology().site_ids().collect();
        while cp.next_hb_s <= t0 {
            let hb_t = cp.next_hb_s;
            for &site in &sites {
                if self.site_failed(site, hb_t) {
                    continue;
                }
                if let Some(cm) = &cp.cm {
                    cm.heartbeats_sent.inc();
                }
                match cp
                    .transport
                    .route(&self.net, &self.script, site, cp.controller_site, hb_t)
                {
                    ControlVerdict::Deliver { arrive_s } => {
                        cp.heartbeats.push((
                            arrive_s,
                            HeartbeatArrival {
                                site,
                                sent_s: hb_t,
                                arrived_s: arrive_s,
                            },
                        ));
                    }
                    ControlVerdict::Drop(_) => {
                        if let Some(cm) = &cp.cm {
                            cm.heartbeats_dropped.inc();
                        }
                    }
                }
            }
            cp.next_hb_s += cp.cfg.heartbeat_period_s.max(self.cfg.dt);
        }

        // Commands: deliver in wire order (arrival time, then
        // submission order) through the epoch fence.
        for cmd in cp.take_due_commands(t0) {
            let engine_epoch = cp.epoch;
            let outcome = self.deliver_envelope(&mut cp, &cmd);
            if let Some(cm) = &cp.cm {
                cm.commands_delivered.inc();
            }
            let applied = outcome.applied();
            let detail = match &outcome {
                AckOutcome::Applied => String::new(),
                AckOutcome::Duplicate => "duplicate delivery".into(),
                AckOutcome::Stale { engine_epoch, .. } => {
                    format!("stale epoch (engine at {engine_epoch})")
                }
                AckOutcome::Rejected { error } => error.clone(),
            };
            self.tel.emit(t0, || TelEvent::ControlCommandDelivered {
                id: cmd.env.id,
                label: cmd.env.label.clone(),
                epoch: cmd.env.epoch,
                engine_epoch,
                applied,
                detail: detail.clone(),
            });
            // The ack travels target → controller over the same lossy
            // channel.
            let ack = CommandAck {
                id: cmd.env.id,
                label: cmd.env.label.clone(),
                submitted_s: cmd.env.sent_s,
                delivered_s: t0,
                outcome,
            };
            match cp
                .transport
                .route(&self.net, &self.script, cmd.target, cp.controller_site, t0)
            {
                ControlVerdict::Deliver { arrive_s } => cp.acks.push((arrive_s, ack)),
                ControlVerdict::Drop(cause) => {
                    if let Some(cm) = &cp.cm {
                        cm.commands_dropped.inc();
                    }
                    self.tel.emit(t0, || TelEvent::ControlCommandDropped {
                        id: cmd.env.id,
                        label: cmd.env.label.clone(),
                        stage: "ack".into(),
                        cause: cause.describe().into(),
                    });
                }
            }
        }

        self.control = Some(cp);
    }

    /// Judge one delivered envelope: fence stale epochs, swallow
    /// duplicate deliveries, otherwise advance the fencing epoch and
    /// apply the command.
    fn deliver_envelope(
        &mut self,
        cp: &mut ControlPlaneState,
        cmd: &InFlightCommand,
    ) -> AckOutcome {
        if cp.applied_ids.contains(&cmd.env.id) {
            return AckOutcome::Duplicate;
        }
        match self.apply_fenced(cp, cmd.env.epoch, &cmd.env.payload) {
            Ok(()) => {
                cp.applied_ids.insert(cmd.env.id);
                // Mirror the oracle path, where the controller
                // annotates the run at apply time: here the apply
                // happens at delivery, so the engine does it.
                self.metrics
                    .annotate(SimTime(self.now), cmd.env.label.clone());
                AckOutcome::Applied
            }
            Err(EngineError::StaleEpoch { .. }) => {
                cp.stale_rejections += 1;
                if let Some(cm) = &cp.cm {
                    cm.stale_rejections.inc();
                }
                self.tel.emit(self.now, || TelEvent::StaleEpochRejected {
                    id: cmd.env.id,
                    label: cmd.env.label.clone(),
                    cmd_epoch: cmd.env.epoch,
                    engine_epoch: cp.epoch,
                });
                AckOutcome::Stale {
                    engine_epoch: cp.epoch,
                    engine_plan_version: self.plan_version,
                }
            }
            Err(e) => AckOutcome::Rejected {
                error: e.to_string(),
            },
        }
    }

    /// The epoch fence: rejects commands whose epoch predates the
    /// newest the engine has seen, and otherwise advances the fencing
    /// epoch *before* applying — accepting a newer epoch fences out
    /// every older in-flight command even if this particular apply is
    /// then refused for a domain reason (the controller that issued it
    /// is the authority now).
    fn apply_fenced(
        &mut self,
        cp: &mut ControlPlaneState,
        cmd_epoch: u64,
        payload: &Command,
    ) -> Result<(), EngineError> {
        if cmd_epoch < cp.epoch {
            return Err(EngineError::StaleEpoch {
                cmd_epoch,
                engine_epoch: cp.epoch,
            });
        }
        cp.epoch = cp.epoch.max(cmd_epoch);
        self.apply(payload.clone())
    }

    /// Applies an adaptation command.
    ///
    /// # Errors
    ///
    /// See [`EngineError`]; the engine is unchanged on error.
    pub fn apply(&mut self, cmd: Command) -> Result<(), EngineError> {
        match cmd {
            Command::Redeploy {
                op,
                placement,
                transfers,
                skip_state,
            } => self.redeploy(op, placement, transfers, skip_state),
            Command::SwitchPlan(sw) => self.switch_plan(*sw),
            Command::SetDropSlo(slo) => {
                self.drop_slo = slo;
                Ok(())
            }
        }
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        let t0 = self.now;
        // Tick-derived, not accumulated: bit-identical to `t0 + dt`
        // for the dyadic tick sizes in use, and drift-free for every
        // other dt.
        let t1 = (self.tick + 1) as f64 * dt;

        self.control_step(t0);
        self.detect_failure_edges(t0);
        self.detect_dynamics_transitions(t0);
        self.apply_failure_transitions(t0);
        self.maybe_checkpoint(t0);
        self.complete_migrations(t0);
        let generated = self.generate_sources(t0, dt);
        self.transfer_step(t0, dt);
        let (delivered, delay_sum) = self.process_step(t0, dt);
        let dropped = self.enforce_drop_slo(t1);

        self.metrics.record_tick(TickRow {
            t: t1,
            generated,
            delivered,
            dropped,
            mean_delay: if delivered > 0.0 {
                Some(delay_sum / delivered)
            } else {
                None
            },
            total_tasks: self.physical.total_tasks(),
            lost_state_mb: self.lost_state_mb,
        });
        self.observe_tick_metrics(generated, delivered, dropped);
        self.emit_xray_windows(t1);
        self.hub.maybe_scrape(t1);
        self.tick += 1;
        self.now = t1;
    }

    /// Emits a telemetry breakdown event per sink for every xray
    /// reporting window that closed before `t1`. A single branch when
    /// xray or telemetry is off.
    fn emit_xray_windows(&mut self, t1: f64) {
        if !self.tel.is_enabled() {
            return;
        }
        let Some(xs) = self.xray.as_mut() else { return };
        let current = (t1 / xs.window_s).floor() as i64;
        while xs.emitted_up_to < current {
            let w = xs.emitted_up_to;
            let start_s = w as f64 * xs.window_s;
            for (sink, count, comps) in xs.rec.sink_breakdown(w) {
                self.tel.emit(t1, || TelEvent::XrayWindowBreakdown {
                    sink,
                    window_start_s: start_s,
                    events: count,
                    queue_s: comps[0],
                    service_s: comps[1],
                    transit_s: comps[2],
                    backpressure_s: comps[3],
                    migration_s: comps[4],
                    control_s: comps[5],
                });
            }
            xs.emitted_up_to += 1;
        }
    }

    /// Once-per-tick instrument updates that need a whole-engine view
    /// (query totals, per-op queue depths, transitions in flight).
    /// A single branch when the hub is disabled.
    fn observe_tick_metrics(&mut self, generated: f64, delivered: f64, dropped: f64) {
        let Some(em) = &self.em else { return };
        em.generated.add(generated);
        em.delivered.add(delivered);
        em.dropped.add(dropped);
        em.migrations_in_flight.set(self.migrations.len() as f64);
        let queues = &mut self.queue_scratch;
        queues.clear();
        queues.resize(em.queue.len(), 0.0);
        for (&(op, _site), g) in &self.groups {
            if let Some(q) = queues.get_mut(op.index()) {
                *q += g.input.len_events() + g.redo.len_events();
            }
        }
        for (gauge, &q) in em.queue.iter().zip(queues.iter()) {
            gauge.set(q);
        }
    }

    /// Runs for `duration_s` simulated seconds.
    ///
    /// The step count is computed once as an integer
    /// (`round-to-nearest(duration/dt)`, halves rounding down to match
    /// the historical loop), so repeated or split calls can never
    /// drift against one long run: `run(a); run(b)` takes exactly as
    /// many ticks as `run(a + b)` whenever `a` and `b` are whole
    /// multiples of `dt`.
    pub fn run(&mut self, duration_s: f64) {
        let steps = ((duration_s / self.cfg.dt) - 0.5).ceil().max(0.0) as u64;
        for _ in 0..steps {
            self.step();
        }
    }

    /// Produces the Global Metric Monitor's view since the last
    /// snapshot and resets the interval counters.
    pub fn snapshot(&mut self) -> QuerySnapshot {
        let elapsed = (self.now - self.last_snapshot).max(self.cfg.dt);
        let mut stages = Vec::with_capacity(self.plan.len());
        let mut source_rates = Vec::new();
        for op in self.plan.op_ids() {
            let spec = self.plan.op(op);
            let mut lambda_i = 0.0;
            let mut lambda_p = 0.0;
            let mut lambda_o = 0.0;
            let mut generated = 0.0;
            let mut queue = 0.0;
            let mut backpressure = false;
            let mut out_blocked = false;
            let mut state_mb = BTreeMap::new();
            for (&(gop, site), g) in &self.groups {
                if gop != op {
                    continue;
                }
                lambda_i += g.arrived / elapsed;
                lambda_p += g.processed / elapsed;
                lambda_o += g.emitted / elapsed;
                generated += g.generated / elapsed;
                queue += g.input.len_events();
                backpressure |= g.backpressured;
                out_blocked |= g.out_blocked;
                if g.state_mb > 0.0 {
                    state_mb.insert(site, g.state_mb);
                }
            }
            if spec.kind().is_source() {
                lambda_o = generated;
                lambda_p = generated;
                lambda_i = generated;
                source_rates.push((op, generated));
                // A source's "queue" is its unsent backlog: events
                // generated but still waiting in its output buffers
                // (what a Kafka-style source exposes as consumer lag).
                queue = self
                    .edges
                    .iter()
                    .filter(|(k, _)| k.from_op == op)
                    .map(|(_, q)| q.len_events())
                    .sum();
                for (&(gop, _), g) in &self.groups {
                    if gop == op {
                        queue += g.pending_out.len_events();
                    }
                }
            }
            let sigma = if lambda_p > 1e-9 {
                lambda_o / lambda_p
            } else {
                spec.selectivity()
            };
            stages.push(StageObs {
                op,
                name: spec.name().to_string(),
                stateful: spec.is_stateful(),
                parallelizable: spec.is_parallelizable(),
                placement: self.physical.placement(op).clone(),
                lambda_i,
                lambda_p,
                lambda_o,
                sigma,
                queue_events: queue,
                backpressure,
                out_blocked,
                state_mb,
                suspended: self.is_suspended(op),
            });
        }
        // Reset interval counters.
        for g in self.groups.values_mut() {
            g.arrived = 0.0;
            g.processed = 0.0;
            g.emitted = 0.0;
            g.generated = 0.0;
            g.backpressured = false;
            g.out_blocked = false;
        }
        let mut free_slots = BTreeMap::new();
        for site in self.net.topology().site_ids() {
            let free = if self.site_failed(site, self.now) {
                0
            } else {
                self.physical.free_slots(self.net.topology(), site)
            };
            free_slots.insert(site, free);
        }
        let failed_sites = self
            .net
            .topology()
            .site_ids()
            .filter(|&s| self.site_failed(s, self.now))
            .collect();
        self.last_snapshot = self.now;
        QuerySnapshot {
            at: SimTime(self.now),
            interval_s: elapsed,
            stages,
            source_rates,
            free_slots,
            failed_sites,
            events: std::mem::take(&mut self.pending_events),
        }
    }

    // ----- deployment management -------------------------------------

    fn build_groups(&mut self) {
        self.groups.clear();
        self.edges.clear();
        for op in self.plan.op_ids() {
            for (site, tasks) in self.physical.placement(op).iter() {
                let mut g = Group::fresh(tasks);
                self.init_state(op, &mut g);
                self.groups.insert((op, site), g);
            }
        }
        // Partitioned state: one store per stateful op, its stream id
        // derived from the op id so each stage shuffles its hot
        // partition independently.
        self.stores.clear();
        // Stores (and their delta chains) are rebuilt from scratch, so
        // in-flight compaction uploads and replay stalls from the old
        // deployment no longer describe anything real.
        self.compaction_uploads.clear();
        self.recovery_replays.clear();
        if let Some(pc) = self.cfg.state_model.partition_config() {
            let pc = *pc;
            for op in self.plan.op_ids() {
                if !self.plan.op(op).is_stateful() {
                    continue;
                }
                let mut store = wasp_state::StateStore::new(&pc, op.0 as u64);
                let total: f64 = self
                    .groups
                    .iter()
                    .filter(|((o, _), _)| *o == op)
                    .map(|(_, g)| g.state_mb)
                    .sum();
                store.set_total_mb(total);
                self.stores.insert(op, store);
            }
        }
    }

    fn init_state(&self, op: OpId, g: &mut Group) {
        let p = self.physical.parallelism(op).max(1);
        g.state_mb = match self.plan.op(op).state() {
            StateModel::Stateless => 0.0,
            StateModel::Fixed(total) => total.0 * g.tasks as f64 / p as f64,
            StateModel::Window { bytes_per_event } => g.window_events() * bytes_per_event / 1e6,
        };
    }

    fn redeploy(
        &mut self,
        op: OpId,
        placement: Placement,
        transfers: Vec<Transfer>,
        skip_state: bool,
    ) -> Result<(), EngineError> {
        if op.index() >= self.plan.len() {
            return Err(EngineError::UnknownOp(op));
        }
        if self.plan.op(op).kind().is_source() {
            return Err(EngineError::SourceImmovable(op));
        }
        if self.op_in_transition(op) {
            return Err(EngineError::Busy(op));
        }
        if let Some(site) = placement
            .sites()
            .into_iter()
            .find(|&s| self.site_failed(s, self.now))
        {
            return Err(EngineError::SiteFailed(site));
        }
        let mut candidate = self.physical.clone();
        candidate.set_placement(op, placement.clone());
        candidate.validate(&self.plan, self.net.topology())?;

        // Capture old groups' data.
        let xray_on = self.xray.is_some();
        let now = self.now;
        let mut xray_acc = [0.0; 6];
        let old_sites: Vec<SiteId> = self.physical.placement(op).sites();
        let mut carried_input = CohortQueue::new();
        let mut carried_window = CohortQueue::new();
        let mut old_state_total = 0.0;
        for site in old_sites {
            if let Some(mut g) = self.groups.remove(&(op, site)) {
                let (mc, fc) = (g.pause_mig_cum, g.pause_fail_cum);
                let mut inputs = g.input.drain();
                inputs.extend(g.redo.drain());
                let mut windows = g.drain_windows(xray_on, now);
                let mut pend = g.pending_out.drain();
                if xray_on {
                    // Close every carried ledger out at `now` against
                    // the *old* group's pause counters, then zero the
                    // marks: the fresh groups restart their counters.
                    for c in inputs.iter_mut() {
                        let comps = close_queue_interval(c, mc, fc, now, 0.0);
                        for (a, v) in xray_acc.iter_mut().zip(comps) {
                            *a += v * c.count;
                        }
                        c.xray.mark_pause = 0.0;
                        c.xray.mark_fail = 0.0;
                    }
                    for c in windows.iter_mut() {
                        // `drain_windows` already closed these at `now`.
                        c.xray.mark_pause = 0.0;
                        c.xray.mark_fail = 0.0;
                    }
                    for c in pend.iter_mut() {
                        let comps = close_pending_interval(c, now, 0.0);
                        for (a, v) in xray_acc.iter_mut().zip(comps) {
                            *a += v * c.count;
                        }
                        c.xray.mark_pause = 0.0;
                        c.xray.mark_fail = 0.0;
                    }
                }
                carried_input.push_all(inputs);
                carried_window.push_all(windows);
                old_state_total += g.state_mb;
                // Pending output stays at the site as an orphan edge
                // buffer source; move it into the outgoing edges now.
                self.spill_pending(op, site, pend);
            }
        }
        if let Some(xs) = self.xray.as_mut() {
            xs.rec.charge_node(now, op.0, xray_acc);
        }
        if skip_state {
            self.lost_state_mb += old_state_total;
            // Abandoning state also abandons buffered window contents.
            carried_window = CohortQueue::new();
        }

        self.physical = candidate;

        // Create the new groups and share out carried data.
        let p = placement.parallelism().max(1);
        let input_cohorts = carried_input.drain();
        let window_cohorts = carried_window.drain();
        for (site, tasks) in placement.iter() {
            let share = tasks as f64 / p as f64;
            let mut g = Group::fresh(tasks);
            g.input.push_scaled(&input_cohorts, share);
            // Buffered open-window contents are *state*: restore them
            // directly into the window accumulator (re-processing them
            // as input would double-charge the CPU).
            if let Some(w) = self.plan.op(op).kind().window_s() {
                let sigma = self.plan.op(op).selectivity();
                for c in CohortQueue::scaled(&window_cohorts, share) {
                    g.absorb_into_window(c, w, sigma, xray_on, now);
                }
            } else {
                g.input.push_scaled(&window_cohorts, share);
            }
            self.init_state(op, &mut g);
            self.groups.insert((op, site), g);
        }

        // Re-key inbound edge buffers to the new destination sites,
        // and drop the buffers that hold nothing: those fed from the
        // stage's vacated sites would otherwise linger forever.
        self.rekey_in_edges(op);
        self.edges.retain(|_, q| q.len_cohorts() > 0);

        let effective_transfers = if skip_state { Vec::new() } else { transfers };
        self.metrics.annotate(SimTime(self.now), "transition-start");
        let mut progress: Vec<TransferProgress> = effective_transfers
            .into_iter()
            .filter(|t| t.from != t.to && t.mb.0 > 0.0)
            .map(|t| TransferProgress {
                from: t.from,
                to: t.to,
                remaining_mb: t.mb.0,
            })
            .collect();
        // Partitioned state: expand each site-level blob into
        // per-partition slices, pipelined per link. The coarse path
        // (no store for this op) keeps `progress` untouched.
        let split_threshold = self
            .cfg
            .state_model
            .partition_config()
            .and_then(|pc| pc.split_threshold);
        let mut slices: Vec<SliceFlight> = Vec::new();
        let mut split_events: Vec<(wasp_state::SplitEvent, f64)> = Vec::new();
        let partitioned = match self.stores.get_mut(&op) {
            Some(store) => {
                // Hot-partition detector: bisect any partition whose
                // key-weight share exceeds the threshold *before*
                // expanding slices, so the worst slice this migration
                // ships — and the pause it inflicts — is bounded by
                // the threshold instead of the hottest hash bucket.
                if let Some(th) = split_threshold {
                    let total = store.total_mb();
                    for ev in store.split_hot(th) {
                        split_events.push((ev, total));
                    }
                }
                let origins: Vec<u32> = (0..store.partitions() as u32)
                    .map(|i| store.origin_of(i))
                    .collect();
                for tp in progress.drain(..) {
                    for (i, &w) in store.weights().iter().enumerate() {
                        let mb = w * tp.remaining_mb;
                        if mb > 1e-9 {
                            slices.push(SliceFlight {
                                partition: i as u32,
                                origin: origins[i],
                                from: tp.from,
                                to: tp.to,
                                weight: w,
                                mb,
                                remaining_mb: mb,
                                started_at: None,
                                record: None,
                            });
                        }
                    }
                }
                slices.sort_by_key(|a| (a.from, a.to, a.partition));
                true
            }
            None => false,
        };
        for &(ev, total) in &split_events {
            let (parent_mb, left_mb, right_mb) = (
                ev.parent_weight * total,
                ev.left_weight * total,
                ev.right_weight * total,
            );
            self.state_timeline
                .splits
                .push(wasp_state::timeline::PartitionSplitRecord {
                    t_s: self.now,
                    op: Some(op.0),
                    parent: ev.parent,
                    child: ev.child,
                    parent_mb,
                    left_mb,
                    right_mb,
                });
            self.tel.emit(self.now, || TelEvent::PartitionSplit {
                op: Some(op.0),
                parent: ev.parent,
                child: ev.child,
                parent_mb,
                left_mb,
                right_mb,
            });
            if let Some(em) = &self.em {
                if let Some(c) = &em.partition_splits {
                    c.inc();
                }
            }
        }
        let (n_transfers, total_mb) = if partitioned {
            (
                slices.len() as u32,
                slices.iter().map(|s| s.remaining_mb).sum::<f64>() + 0.0,
            )
        } else {
            (
                progress.len() as u32,
                progress.iter().map(|t| t.remaining_mb).sum::<f64>() + 0.0, // + 0.0: an empty sum is -0.0
            )
        };
        self.tel.emit(self.now, || TelEvent::MigrationStarted {
            op: Some(op.0),
            transfers: n_transfers,
            total_mb,
        });
        let span = if self.tel.is_enabled() {
            let name = format!("transition:{}", self.plan.op(op).name());
            self.tel.span_begin(self.now, &name)
        } else {
            None
        };
        self.migrations.push(Migration {
            op: Some(op),
            transfers: progress,
            slices,
            partitioned,
            resume_no_earlier: self.now + self.cfg.restart_penalty_s,
            started_at: self.now,
            span,
        });
        if let Some(em) = &self.em {
            em.migrations_started.inc();
        }
        self.plan_version += 1;
        Ok(())
    }

    /// Moves a departed group's pending output into its outgoing edge
    /// buffers so remaining/new tasks relay it.
    fn spill_pending(&mut self, op: OpId, site: SiteId, pending: Vec<Cohort>) {
        if pending.is_empty() {
            return;
        }
        let downstream: Vec<OpId> = self.plan.downstream(op).to_vec();
        for d in downstream {
            let placement = self.physical.placement(d).clone();
            for (sd, _) in placement.iter() {
                let share = placement.share(sd);
                let key = EdgeKey {
                    from_op: op,
                    from_site: site,
                    to_op: d,
                    to_site: sd,
                };
                self.edges
                    .entry(key)
                    .or_default()
                    .push_scaled(&pending, share);
            }
        }
    }

    /// After a destination stage's placement changed, redistribute its
    /// inbound edge buffers across the new destination sites. Buffers
    /// holding nothing are dropped rather than re-keyed.
    fn rekey_in_edges(&mut self, op: OpId) {
        let placement = self.physical.placement(op).clone();
        let keys: Vec<EdgeKey> = self
            .edges
            .keys()
            .filter(|k| k.to_op == op)
            .copied()
            .collect();
        // Gather contents per (from_op, from_site).
        let mut gathered: BTreeMap<(OpId, SiteId), CohortQueue> = BTreeMap::new();
        for key in keys {
            let mut q = self.edges.remove(&key).expect("key just listed");
            if q.len_cohorts() == 0 {
                continue;
            }
            gathered
                .entry((key.from_op, key.from_site))
                .or_default()
                .push_all(q.drain());
        }
        for ((from_op, from_site), mut q) in gathered {
            let cohorts = q.drain();
            for (sd, _) in placement.iter() {
                let share = placement.share(sd);
                let key = EdgeKey {
                    from_op,
                    from_site,
                    to_op: op,
                    to_site: sd,
                };
                self.edges
                    .entry(key)
                    .or_default()
                    .push_scaled(&cohorts, share);
            }
        }
    }

    fn switch_plan(&mut self, sw: PlanSwitch) -> Result<(), EngineError> {
        if self.in_transition() {
            return Err(EngineError::Busy(OpId(0)));
        }
        for op in sw.plan.op_ids() {
            if let Some(site) = sw
                .physical
                .placement(op)
                .sites()
                .into_iter()
                .find(|&s| self.site_failed(s, self.now))
            {
                return Err(EngineError::SiteFailed(site));
            }
        }
        sw.physical.validate(&sw.plan, self.net.topology())?;

        // Classify old in-flight data: carried ops keep it; the rest is
        // converted to equivalent source events and replayed.
        let old_rates = self.plan.expected_rates(&[]);
        let total_src: f64 = self
            .plan
            .sources()
            .iter()
            .map(|s| old_rates[s.index()].1)
            .sum();
        let carry_map: BTreeMap<OpId, OpId> = sw.carry.iter().copied().collect();

        // (new op, cohorts) input/window/pending data to install.
        let mut carried_inputs: BTreeMap<OpId, Vec<Cohort>> = BTreeMap::new();
        let mut carried_windows: BTreeMap<OpId, Vec<Cohort>> = BTreeMap::new();
        let mut carried_pendings: BTreeMap<OpId, Vec<Cohort>> = BTreeMap::new();
        let mut replay: Vec<Cohort> = Vec::new();
        let xray_on = self.xray.is_some();
        let now = self.now;
        let mut add_replay = |cohorts: Vec<Cohort>, factor: f64| {
            if factor > 1e-12 {
                for mut c in cohorts {
                    c.count /= factor;
                    c.net_latency = 0.0;
                    if xray_on {
                        // The event's whole history is thrown away and
                        // re-done because of the plan switch: rebase
                        // the ledger and book the lost age as
                        // migration cost.
                        c.xray = DelayLedger::new(c.birth.secs());
                        c.xray.advance(Component::Migration, now);
                    }
                    replay.push(c);
                }
            }
        };

        let mut xray_node_acc: BTreeMap<u32, [f64; 6]> = BTreeMap::new();
        let group_keys: Vec<(OpId, SiteId)> = self.groups.keys().copied().collect();
        for (op, site) in group_keys {
            let mut g = self.groups.remove(&(op, site)).expect("key just listed");
            let in_factor = if total_src > 0.0 {
                old_rates[op.index()].0 / total_src
            } else {
                0.0
            };
            let out_factor = if total_src > 0.0 {
                old_rates[op.index()].1 / total_src
            } else {
                0.0
            };
            let mut input = g.input.drain();
            input.extend(g.redo.drain());
            let mut window = g.drain_windows(xray_on, now);
            let mut pending = g.pending_out.drain();
            if xray_on {
                // Close every ledger out at `now` against the old
                // group's pause counters; the rebuilt groups restart
                // their counters from zero.
                let (mc, fc) = (g.pause_mig_cum, g.pause_fail_cum);
                let acc = xray_node_acc.entry(op.0).or_insert([0.0; 6]);
                for c in input.iter_mut() {
                    let comps = close_queue_interval(c, mc, fc, now, 0.0);
                    for (a, v) in acc.iter_mut().zip(comps) {
                        *a += v * c.count;
                    }
                    c.xray.mark_pause = 0.0;
                    c.xray.mark_fail = 0.0;
                }
                for c in window.iter_mut() {
                    c.xray.mark_pause = 0.0;
                    c.xray.mark_fail = 0.0;
                }
                for c in pending.iter_mut() {
                    let comps = close_pending_interval(c, now, 0.0);
                    for (a, v) in acc.iter_mut().zip(comps) {
                        *a += v * c.count;
                    }
                    c.xray.mark_pause = 0.0;
                    c.xray.mark_fail = 0.0;
                }
            }
            if let Some(&new_op) = carry_map.get(&op) {
                carried_inputs.entry(new_op).or_default().extend(input);
                carried_windows.entry(new_op).or_default().extend(window);
                // Pending output is post-σ and semantically identical
                // under the carried operator: keep it as its output.
                carried_pendings.entry(new_op).or_default().extend(pending);
            } else {
                if self.plan.op(op).is_stateful() {
                    self.lost_state_mb += g.state_mb;
                }
                add_replay(input, in_factor);
                add_replay(window, out_factor.max(in_factor));
                add_replay(pending, out_factor);
            }
        }
        // Edge buffers hold post-σ output of from_op: carried
        // producers keep it as pending output, the rest replays.
        let edge_keys: Vec<EdgeKey> = self.edges.keys().copied().collect();
        for key in edge_keys {
            let mut q = self.edges.remove(&key).expect("key just listed");
            if let Some(&new_op) = carry_map.get(&key.from_op) {
                let mut cohorts = q.drain();
                if xray_on {
                    // In-flight edge waits close as transit against
                    // the old producer.
                    let acc = xray_node_acc.entry(key.from_op.0).or_insert([0.0; 6]);
                    for c in cohorts.iter_mut() {
                        let waited = (now - c.xray.attributed_until).max(0.0);
                        c.xray.advance(Component::Transit, now);
                        acc[Component::Transit as usize] += waited * c.count;
                        c.xray.mark_pause = 0.0;
                        c.xray.mark_fail = 0.0;
                    }
                }
                carried_pendings.entry(new_op).or_default().extend(cohorts);
                continue;
            }
            let out_factor = if total_src > 0.0 {
                old_rates[key.from_op.index()].1 / total_src
            } else {
                0.0
            };
            add_replay(q.drain(), out_factor);
        }
        if let Some(xs) = self.xray.as_mut() {
            for (op, acc) in xray_node_acc {
                xs.rec.charge_node(now, op, acc);
            }
        }

        self.plan = sw.plan;
        self.physical = sw.physical;
        self.build_groups();
        // The new plan's sources are compared at the next tick.
        self.dyn_watch.next_check = f64::NEG_INFINITY;
        if let Some(xs) = self.xray.as_mut() {
            // New plan, possibly new operator ids/names: refresh the
            // recorder's name table (old ids stay for old windows).
            xs.rec.set_ops(
                self.plan
                    .op_ids()
                    .map(|op| (op.0, self.plan.op(op).name().to_string())),
            );
        }

        // Install carried data into the new groups, split by share.
        for (new_op, cohorts) in carried_inputs {
            let placement = self.physical.placement(new_op).clone();
            for (site, _) in placement.iter() {
                let share = placement.share(site);
                if let Some(g) = self.groups.get_mut(&(new_op, site)) {
                    g.input.push_scaled(&cohorts, share);
                }
            }
        }
        for (new_op, cohorts) in carried_windows {
            let placement = self.physical.placement(new_op).clone();
            let (window_s, sigma) = match self.plan.op(new_op).kind().window_s() {
                Some(w) => (Some(w), self.plan.op(new_op).selectivity()),
                None => (None, 1.0),
            };
            for (site, _) in placement.iter() {
                let share = placement.share(site);
                if let Some(g) = self.groups.get_mut(&(new_op, site)) {
                    match window_s {
                        // Window contents are state: restore them into
                        // the accumulator without re-processing.
                        Some(w) => {
                            for c in CohortQueue::scaled(&cohorts, share) {
                                g.absorb_into_window(c, w, sigma, xray_on, now);
                            }
                        }
                        None => g.input.push_scaled(&cohorts, share),
                    }
                }
            }
        }
        for (new_op, cohorts) in carried_pendings {
            let placement = self.physical.placement(new_op).clone();
            for (site, _) in placement.iter() {
                let share = placement.share(site);
                if let Some(g) = self.groups.get_mut(&(new_op, site)) {
                    g.pending_out.push_scaled(&cohorts, share);
                }
            }
        }
        // Replayed events re-enter at the sources, proportionally to
        // their base rates.
        let new_rates = self.plan.expected_rates(&[]);
        let new_sources = self.plan.sources();
        let new_total: f64 = new_sources.iter().map(|s| new_rates[s.index()].1).sum();
        if new_total > 0.0 {
            for &src in &new_sources {
                let share = new_rates[src.index()].1 / new_total;
                let placement = self.physical.placement(src).clone();
                for (site, _) in placement.iter() {
                    if let Some(g) = self.groups.get_mut(&(src, site)) {
                        g.pending_out.push_scaled(&replay, share);
                    }
                }
            }
        }

        self.metrics.annotate(SimTime(self.now), "transition-start");
        let progress: Vec<TransferProgress> = sw
            .transfers
            .into_iter()
            .filter(|t| t.from != t.to && t.mb.0 > 0.0)
            .map(|t| TransferProgress {
                from: t.from,
                to: t.to,
                remaining_mb: t.mb.0,
            })
            .collect();
        self.tel.emit(self.now, || TelEvent::MigrationStarted {
            op: None,
            transfers: progress.len() as u32,
            total_mb: progress.iter().map(|t| t.remaining_mb).sum::<f64>() + 0.0, // + 0.0: an empty sum is -0.0
        });
        let span = self.tel.span_begin(self.now, "transition:plan-switch");
        // Plan switches rebuild the whole query; they stay coarse even
        // under `StateModel::Partitioned` (the partitioned machinery
        // covers per-op re-deployments, the common adaptation).
        self.migrations.push(Migration {
            op: None,
            transfers: progress,
            slices: Vec::new(),
            partitioned: false,
            resume_no_earlier: self.now + self.cfg.restart_penalty_s,
            started_at: self.now,
            span,
        });
        if let Some(em) = &self.em {
            em.migrations_started.inc();
        }
        // The plan changed shape: re-resolve the per-op handles (new
        // operators get fresh series; unchanged names re-attach).
        if self.hub.is_enabled() {
            self.em = Some(EngineMetrics::build(
                &self.hub,
                &self.plan,
                &self.cfg.state_model,
                self.xray.is_some(),
            ));
        }
        self.plan_version += 1;
        Ok(())
    }

    // ----- per-tick phases -------------------------------------------

    fn site_failed(&self, site: SiteId, t: f64) -> bool {
        self.script.site_failed(site, SimTime(t))
    }

    /// Compares the current failed-site set against the previous
    /// tick's and queues [`FailureEvent::SiteDown`] /
    /// [`FailureEvent::SiteRestored`] for every transition, so the
    /// controller sees outages *and* recoveries even when both fall
    /// inside one monitoring interval (flapping).
    fn detect_failure_edges(&mut self, t0: f64) {
        let failed: Vec<SiteId> = self
            .net
            .topology()
            .site_ids()
            .filter(|&s| self.site_failed(s, t0))
            .collect();
        for &site in &failed {
            if !self.prev_failed.contains(&site) {
                self.pending_events.push(FailureEvent::SiteDown {
                    site,
                    at: SimTime(t0),
                });
                self.tel.emit(t0, || TelEvent::SiteDown {
                    site: site.0 as u32,
                    name: self.net.topology().site(site).name().to_string(),
                });
            }
        }
        for &site in &self.prev_failed {
            if !failed.contains(&site) {
                self.pending_events.push(FailureEvent::SiteRestored {
                    site,
                    at: SimTime(t0),
                });
                self.tel.emit(t0, || TelEvent::SiteRestored {
                    site: site.0 as u32,
                    name: self.net.topology().site(site).name().to_string(),
                });
            }
        }
        self.prev_failed = failed;
    }

    /// Emits a [`TelEvent::DynamicsTransition`] whenever a scripted
    /// factor (global bandwidth, per-source workload, per-site
    /// compute) moves by more than 1% between ticks. Only runs while
    /// telemetry is enabled, and only re-reads the factors on ticks
    /// the script's breakpoint schedule says one may have changed, so
    /// every other tick costs one compare.
    fn detect_dynamics_transitions(&mut self, t0: f64) {
        if !self.tel.is_enabled() || t0 < self.dyn_watch.next_check {
            return;
        }
        let t = SimTime(t0);
        self.dyn_watch.next_check = self.script.next_factor_change_after(t);
        let (tel, watch, topo) = (&self.tel, &mut self.dyn_watch, self.net.topology());
        if let Some(series) = self.script.bandwidth_series() {
            let factor = series.factor_at(t);
            watch.observe(tel, t0, DynamicsWatch::BANDWIDTH, factor, || {
                "bandwidth".to_string()
            });
        }
        for op in self.plan.sources() {
            if let OperatorKind::Source { site, .. } = self.plan.op(op).kind() {
                let factor = self.script.workload_factor(*site, t);
                watch.observe(tel, t0, DynamicsWatch::workload(*site), factor, || {
                    format!("workload@{}", topo.site(*site).name())
                });
            }
        }
        for site in topo.site_ids() {
            let factor = self.script.compute_factor(site, t);
            if factor != 1.0 || watch.compute_seen[site.index()] {
                watch.compute_seen[site.index()] = true;
                let slot = watch.compute(site);
                watch.observe(tel, t0, slot, factor, || format!("compute@{site}"));
            }
        }
    }

    fn apply_failure_transitions(&mut self, t0: f64) {
        for i in 0..self.script.failures().len() {
            let f = self.script.failures()[i];
            if !self.failure_applied[i] && f.is_active(SimTime(t0)) {
                self.failure_applied[i] = true;
                self.metrics.annotate(SimTime(t0), "failure");
                // Redo work lost since the last checkpoint. Under
                // partitioned state only the dirty partitions need
                // replay — clean ones are already durable from the
                // last incremental round — so the redo volume scales
                // by the dirty key-weight fraction.
                let mut hit: Vec<(OpId, SiteId)> = Vec::new();
                for (&(op, site), g) in self.groups.iter_mut() {
                    if f.affects(site, SimTime(t0)) {
                        let lost = g.since_ckpt.drain();
                        match self.stores.get(&op) {
                            Some(store) => {
                                let frac = store.dirty_weight_fraction();
                                g.redo.push_scaled(&lost, frac);
                                if store.compaction().is_enabled()
                                    && !hit.iter().any(|&(o, _)| o == op)
                                {
                                    hit.push((op, site));
                                }
                            }
                            None => g.redo.push_all(lost),
                        }
                    }
                }
                // Chain replay instead of a flat restore: recovery
                // reads the base snapshot plus every delta round back
                // at the replay bandwidth, so chain length directly
                // lengthens the stall.
                for (op, site) in hit {
                    self.start_recovery_replay(op, site, t0);
                }
            }
        }
    }

    /// Starts the modeled chain replay for `op` after a failure at
    /// `site`: processing for the op stalls until the chain (base
    /// snapshot + deltas) has been read back at the configured replay
    /// bandwidth. Overlapping replays keep the later deadline. Not a
    /// migration, so emergency re-deployments proceed during the
    /// stall — downtime is `max(reassign time, replay time)`.
    fn start_recovery_replay(&mut self, op: OpId, site: SiteId, t0: f64) {
        let store = &self.stores[&op];
        let Some(cfg) = store.compaction().config() else {
            return;
        };
        let chain = store.chain();
        let base_mb = chain.base_mb;
        let delta_mb = chain.delta_mb();
        let rounds = chain.len() as u32;
        let replay_s = chain.replay_seconds(cfg.replay_mb_per_s);
        let ready = t0 + replay_s;
        let e = self.recovery_replays.entry(op).or_insert(ready);
        if *e < ready {
            *e = ready;
        }
        self.state_timeline
            .replays
            .push(wasp_state::timeline::RecoveryReplayRecord {
                t_s: t0,
                op: op.0,
                site,
                base_mb,
                delta_mb,
                rounds,
                replay_s,
            });
        self.tel.emit(t0, || TelEvent::RecoveryReplay {
            op: op.0,
            site: site.0 as u32,
            replay_mb: base_mb + delta_mb,
            rounds,
            replay_s,
        });
        self.metrics.annotate(SimTime(t0), "recovery-replay");
        if let Some(em) = &self.em {
            if let Some(h) = &em.replay_seconds {
                h.observe(replay_s, 1.0);
            }
        }
    }

    fn maybe_checkpoint(&mut self, t0: f64) {
        if t0 - self.last_ckpt + 1e-9 < self.cfg.checkpoint_interval_s {
            return;
        }
        self.last_ckpt = t0;
        if let CheckpointTarget::Remote(target) = self.cfg.checkpoint_target {
            self.ckpt_rounds += 1;
            // Rendezvous target down: nothing durable can be written
            // this round. Keep every group's since-checkpoint work (it
            // must still be redone on failure) and leave in-flight
            // uploads stalled rather than pretending they landed.
            if self.site_failed(target, t0) {
                self.ckpt_incomplete += 1;
                self.pending_events.push(FailureEvent::CheckpointStalled {
                    target,
                    at: SimTime(t0),
                });
                self.metrics.annotate(SimTime(t0), "checkpoint-stalled");
                self.tel.emit(t0, || TelEvent::CheckpointStalled {
                    target: self.net.topology().site(target).name().to_string(),
                });
                return;
            }
            if !self.checkpoint_uploads.is_empty() {
                self.ckpt_incomplete += 1;
            }
            // A new round supersedes any unfinished uploads (the stale
            // snapshot is abandoned).
            self.checkpoint_uploads.clear();
            let deltas = self.take_checkpoint_deltas(t0);
            for (&(op, site), g) in self.groups.iter_mut() {
                // A failed site can neither snapshot its state nor
                // upload it — its since-checkpoint window stays open.
                if self.script.site_failed(site, SimTime(t0)) {
                    continue;
                }
                let upload_mb = if self.stores.contains_key(&op) {
                    match deltas.get(&op) {
                        // Incremental checkpoint: the round uploads
                        // this site's share of the delta, not the full
                        // blob.
                        Some(d) => {
                            g.since_ckpt.drain();
                            if d.full_mb > 1e-12 {
                                d.delta_mb * g.state_mb / d.full_mb
                            } else {
                                0.0
                            }
                        }
                        // The op skipped this round (a placement site
                        // is down); keep its redo window open.
                        None => continue,
                    }
                } else {
                    g.since_ckpt.drain();
                    g.state_mb
                };
                if site != target && upload_mb > 0.0 {
                    self.checkpoint_uploads.push(TransferProgress {
                        from: site,
                        to: target,
                        remaining_mb: upload_mb,
                    });
                }
            }
            self.tel.emit(t0, || TelEvent::CheckpointRound {
                kind: "remote".to_string(),
                uploaded_mb: self.checkpoint_uploads.iter().map(|t| t.remaining_mb).sum(),
            });
        } else {
            // Localized checkpointing: every healthy site snapshots in
            // place; failed sites keep their redo window open.
            let deltas = self.take_checkpoint_deltas(t0);
            for (&(op, site), g) in self.groups.iter_mut() {
                if self.script.site_failed(site, SimTime(t0)) {
                    continue;
                }
                // Partitioned ops that skipped the round (a placement
                // site is down) keep their redo window open too.
                if self.stores.contains_key(&op) && !deltas.contains_key(&op) {
                    continue;
                }
                g.since_ckpt.drain();
            }
            self.tel.emit(t0, || TelEvent::CheckpointRound {
                kind: "local".to_string(),
                uploaded_mb: 0.0,
            });
        }
    }

    /// Takes the per-op incremental checkpoints (partitioned state
    /// only): drains each store's dirty set, records the delta in the
    /// state timeline, and emits telemetry/metrics. Ops with a failed
    /// placement site skip the round — their snapshot cannot complete,
    /// so their dirty set (and redo window) stays open. A no-op with
    /// an empty result under `StateModel::Coarse`.
    fn take_checkpoint_deltas(&mut self, t0: f64) -> BTreeMap<OpId, wasp_state::CheckpointDelta> {
        let mut out = BTreeMap::new();
        if self.stores.is_empty() {
            return out;
        }
        let ops: Vec<OpId> = self.stores.keys().copied().collect();
        for op in ops {
            let any_failed = self
                .physical
                .placement(op)
                .sites()
                .into_iter()
                .any(|s| self.site_failed(s, t0));
            if any_failed {
                continue;
            }
            let store = self.stores.get_mut(&op).expect("key just listed");
            let delta = store.take_checkpoint();
            if let Some(em) = &self.em {
                if let Some(h) = &em.checkpoint_delta {
                    h.observe(delta.delta_mb, 1.0);
                }
                if let Some(h) = &em.partition_bytes {
                    let store = &self.stores[&op];
                    for i in 0..store.partitions() {
                        h.observe(store.partition_mb(i) * 1e6, 1.0);
                    }
                }
            }
            self.state_timeline
                .checkpoints
                .push(wasp_state::timeline::CheckpointRecord {
                    t_s: t0,
                    op: op.0,
                    delta_mb: delta.delta_mb,
                    full_mb: delta.full_mb,
                    dirty_partitions: delta.dirty_partitions,
                });
            self.tel.emit(t0, || TelEvent::CheckpointDelta {
                op: op.0,
                delta_mb: delta.delta_mb,
                full_mb: delta.full_mb,
                dirty_partitions: delta.dirty_partitions,
            });
            // Delta-chain bookkeeping: observe the chain length each
            // round and fold the chain into a full snapshot when a
            // compaction trigger fires.
            let store = &self.stores[&op];
            if store.compaction().is_enabled() {
                if let Some(em) = &self.em {
                    if let Some(h) = &em.chain_len {
                        h.observe(store.chain().len() as f64, 1.0);
                    }
                }
                if let Some(trigger) = store.should_compact() {
                    self.compact_op(op, trigger, t0);
                }
            }
            out.insert(op, delta);
        }
        out
    }

    /// Folds `op`'s delta chain into a full snapshot and schedules
    /// the snapshot upload. Under remote checkpointing each stage-site
    /// group ships its live state share to the rendezvous target as a
    /// real flight (the burst contends with stream traffic in
    /// `transfer_step`); under localized checkpointing the snapshot is
    /// written in place at zero WAN cost. Either way the chain resets,
    /// so the next recovery replays from the fresh base.
    fn compact_op(&mut self, op: OpId, trigger: &'static str, t0: f64) {
        let store = self.stores.get_mut(&op).expect("compacting a known store");
        let chain_rounds = store.chain().len() as u32;
        let upload_mb = store.compact();
        // A newer snapshot supersedes any unfinished flights of an
        // earlier compaction of this op (the stale one is abandoned).
        self.compaction_uploads.retain(|f| f.op != op);
        let record = self.state_timeline.compactions.len();
        let mut flights: Vec<CompactionFlight> = Vec::new();
        if let CheckpointTarget::Remote(target) = self.cfg.checkpoint_target {
            for (&(gop, site), g) in self.groups.iter() {
                if gop != op || site == target || g.state_mb <= 0.0 {
                    continue;
                }
                if self.script.site_failed(site, SimTime(t0)) {
                    continue;
                }
                flights.push(CompactionFlight {
                    op,
                    from: site,
                    to: target,
                    remaining_mb: g.state_mb,
                    record,
                });
            }
        }
        let local = flights.is_empty();
        self.compaction_uploads.extend(flights);
        self.state_timeline
            .compactions
            .push(wasp_state::timeline::CompactionRecord {
                t_s: t0,
                op: op.0,
                upload_mb,
                chain_rounds,
                trigger: trigger.to_string(),
                end_s: local.then_some(t0),
            });
        self.tel.emit(t0, || TelEvent::CheckpointCompaction {
            op: op.0,
            upload_mb,
            chain_rounds,
            trigger: trigger.to_string(),
        });
        self.metrics.annotate(SimTime(t0), "compaction");
        if let Some(em) = &self.em {
            if let Some(h) = &em.compaction_mb {
                h.observe(upload_mb, 1.0);
            }
        }
    }

    /// Megabytes of checkpoint uploads still in flight (remote
    /// checkpointing only).
    pub fn pending_checkpoint_upload_mb(&self) -> f64 {
        self.checkpoint_uploads.iter().map(|t| t.remaining_mb).sum()
    }

    /// Megabytes of compaction full-snapshot uploads still in flight
    /// (delta-chain modeling with remote checkpointing only).
    pub fn pending_compaction_upload_mb(&self) -> f64 {
        self.compaction_uploads.iter().map(|f| f.remaining_mb).sum()
    }

    /// Modeled chain-replay time a failure hitting `op` would cost
    /// right now: base snapshot + accumulated deltas at the replay
    /// bandwidth. `None` when the op has no partitioned store or
    /// delta-chain modeling is off. Controllers read this on the
    /// emergency path to see the recovery cost the current chain
    /// implies.
    pub fn recovery_replay_estimate(&self, op: OpId) -> Option<f64> {
        self.stores.get(&op)?.replay_seconds()
    }

    /// Simulated time until which `op`'s processing is stalled by an
    /// in-progress chain replay, if one is running.
    pub fn recovery_replay_until(&self, op: OpId) -> Option<f64> {
        self.recovery_replays.get(&op).copied()
    }

    /// `(rounds, superseded)`: how many remote checkpoint rounds were
    /// started, and how many were superseded before their uploads
    /// finished — the §5 cost of rendezvous-storage checkpointing.
    pub fn checkpoint_stats(&self) -> (u32, u32) {
        (self.ckpt_rounds, self.ckpt_incomplete)
    }

    /// Completes finished migrations — and *aborts* any migration
    /// whose transfer endpoints or destination sites failed mid-flight.
    ///
    /// Without the abort check, an empty-transfer migration would
    /// complete by wall-clock even when its destination died during
    /// the restart penalty, and a migration with in-flight transfers
    /// would stall forever (its transfers never drain past a dead
    /// endpoint), freezing the controller behind `in_transition()`.
    /// Aborting models the real recovery: the move is cancelled, the
    /// operator falls back to its last checkpoint, and the
    /// since-checkpoint window is replayed (redo, §5).
    fn complete_migrations(&mut self, t0: f64) {
        let mut finished: Vec<usize> = Vec::new();
        let mut aborted: Vec<(usize, Option<OpId>, SiteId)> = Vec::new();
        for (i, m) in self.migrations.iter().enumerate() {
            let dead_endpoint = m
                .transfers
                .iter()
                .filter(|t| t.remaining_mb > 1e-9)
                .flat_map(|t| [t.from, t.to])
                .chain(
                    m.slices
                        .iter()
                        .filter(|s| s.remaining_mb > 1e-9)
                        .flat_map(|s| [s.from, s.to]),
                )
                .find(|&s| self.site_failed(s, t0));
            let dead_destination = m.op.and_then(|op| {
                self.physical
                    .placement(op)
                    .iter()
                    .map(|(s, _)| s)
                    .find(|&s| self.site_failed(s, t0))
            });
            if let Some(site) = dead_endpoint.or(dead_destination) {
                aborted.push((i, m.op, site));
            } else if m.done(t0) {
                finished.push(i);
            }
        }
        // Capture spans/ops/starts by pre-removal index before the
        // sweep shifts everything.
        let spans: Vec<Option<SpanId>> = self.migrations.iter().map(|m| m.span).collect();
        let ops: Vec<Option<OpId>> = self.migrations.iter().map(|m| m.op).collect();
        let starts: Vec<f64> = self.migrations.iter().map(|m| m.started_at).collect();
        // Remove in one descending index sweep so earlier removals
        // don't shift later indices.
        let mut removals: Vec<usize> = finished.clone();
        removals.extend(aborted.iter().map(|&(i, _, _)| i));
        removals.sort_unstable();
        for &i in removals.iter().rev() {
            self.migrations.remove(i);
        }
        for &(i, op, site) in &aborted {
            self.tel.emit(t0, || TelEvent::MigrationAborted {
                op: op.map(|o| o.0),
                site: site.0 as u32,
            });
            self.tel.span_end(t0, spans[i]);
        }
        for &(_, op, site) in &aborted {
            self.metrics.annotate(SimTime(t0), "transition-abort");
            if let Some(op) = op {
                // Redo replay: the moved state is only durable up to
                // the last checkpoint, so everything processed since
                // re-enters the input. With partitioned state only the
                // dirty partitions need replay.
                let frac = self.stores.get(&op).map(|s| s.dirty_weight_fraction());
                for (&(gop, _), g) in self.groups.iter_mut() {
                    if gop == op {
                        let lost = g.since_ckpt.drain();
                        match frac {
                            Some(f) => g.redo.push_scaled(&lost, f),
                            None => g.redo.push_all(lost),
                        }
                    }
                }
                self.pending_events.push(FailureEvent::MigrationAborted {
                    op: Some(op),
                    site,
                    at: SimTime(t0),
                });
            } else {
                // Whole-query transition: every stage redoes its
                // since-checkpoint window.
                for g in self.groups.values_mut() {
                    let lost = g.since_ckpt.drain();
                    g.redo.push_all(lost);
                }
                self.pending_events.push(FailureEvent::MigrationAborted {
                    op: None,
                    site,
                    at: SimTime(t0),
                });
            }
        }
        for &i in &finished {
            self.metrics.annotate(SimTime(t0), "transition-end");
            self.tel.emit(t0, || TelEvent::MigrationCompleted {
                op: ops[i].map(|o| o.0),
            });
            self.tel.span_end(t0, spans[i]);
        }
        if let Some(em) = &self.em {
            for &i in &finished {
                em.migration_downtime
                    .observe((t0 - starts[i]).max(0.0), 1.0);
            }
            em.migrations_aborted.add(aborted.len() as f64);
        }
    }

    fn generate_sources(&mut self, t0: f64, dt: f64) -> f64 {
        let mut total = 0.0;
        for op in self.plan.op_ids() {
            let (site, base_rate) = match self.plan.op(op).kind() {
                OperatorKind::Source {
                    site, base_rate, ..
                } => (*site, *base_rate),
                _ => continue,
            };
            let factor = self.script.workload_factor(site, SimTime(t0));
            let count = base_rate * factor * dt;
            total += count;
            if let Some(g) = self.groups.get_mut(&(op, site)) {
                g.pending_out.push(Cohort::new(SimTime(t0), count));
                g.generated += count;
                g.processed += count;
                g.arrived += count;
            }
        }
        total
    }

    /// Input-queue capacity of one group: `queue_capacity_s` seconds
    /// of work at the operator's processing capacity (unbounded for
    /// zero-cost operators).
    fn queue_capacity(&self, op: OpId, tasks: u32) -> f64 {
        let per_task = self.plan.op(op).capacity_per_task();
        if per_task.is_finite() {
            self.cfg.queue_capacity_s * per_task * tasks as f64
        } else {
            f64::INFINITY
        }
    }

    fn transfer_step(&mut self, t0: f64, dt: f64) {
        let mut scratch = std::mem::take(&mut self.transfer_scratch);
        self.transfer_with(&mut scratch, t0, dt);
        self.transfer_scratch = scratch;
    }

    /// The WAN transfer phase: admits edge-buffer backlog into the
    /// destination queues, allocates the WAN max-min fairly among data
    /// flows, checkpoint uploads, compaction bursts and state
    /// migrations, and moves what each flow's rate allows.
    fn transfer_with(&mut self, sc: &mut TransferScratch, t0: f64, dt: f64) {
        // Candidate edge buffers with data to move this tick.
        sc.candidates.clear();
        for (key, queue) in &self.edges {
            let queue_len = queue.len_events();
            if queue_len <= 0.0 {
                continue;
            }
            if self.site_failed(key.from_site, t0)
                || self.site_failed(key.to_site, t0)
                || self.is_suspended(key.to_op)
                || !self.groups.contains_key(&(key.to_op, key.to_site))
            {
                continue;
            }
            sc.candidates.push((*key, queue_len));
        }
        // Queue admission per destination, split max-min fairly across
        // the senders (first-come order would let a backlogged sender
        // starve the others indefinitely). Destinations are
        // independent, so one sort groups them and orders each group
        // for the water-fill: smallest demand first, ties in candidate
        // order.
        let candidates = &sc.candidates;
        let dest = |i: u32| {
            let key = candidates[i as usize].0;
            (key.to_op, key.to_site)
        };
        sc.order.clear();
        sc.order.extend(0..candidates.len() as u32);
        sc.order.sort_unstable_by(|&a, &b| {
            dest(a)
                .cmp(&dest(b))
                .then_with(|| {
                    candidates[a as usize]
                        .1
                        .partial_cmp(&candidates[b as usize].1)
                        .expect("queue lengths are finite")
                })
                .then(a.cmp(&b))
        });
        sc.grants.clear();
        sc.grants.resize(candidates.len(), 0.0);
        for members in sc.order.chunk_by(|&a, &b| dest(a) == dest(b)) {
            let (to_op, to_site) = dest(members[0]);
            let group = &self.groups[&(to_op, to_site)];
            let cap = self.queue_capacity(to_op, group.tasks);
            let mut admission = (cap - group.input.len_events()).max(0.0);
            // Water-fill: satisfy the smallest demands first.
            let mut left = members.len();
            for &idx in members {
                let idx = idx as usize;
                let fair = admission / left as f64;
                let take = candidates[idx].1.min(fair);
                sc.grants[idx] = take;
                admission -= take;
                left -= 1;
            }
        }
        // Build the network flows from the granted amounts.
        sc.flows.clear();
        sc.flow_edges.clear();
        sc.admissions.clear();
        for ((key, _), &granted) in candidates.iter().zip(&sc.grants) {
            if granted <= 0.0 {
                continue;
            }
            let bytes = self.plan.out_bytes(key.from_op);
            let mbps = granted * bytes * 8.0 / 1e6 / dt;
            sc.flows
                .push(FlowDemand::new(key.from_site, key.to_site, Mbps(mbps)));
            sc.flow_edges.push(Some(*key));
            sc.admissions.push(granted);
        }
        // Checkpoint uploads to remote storage compete for the links
        // too (the §5 argument for localized checkpointing).
        sc.ckpt_flows.clear();
        for (ci, up) in self.checkpoint_uploads.iter().enumerate() {
            if up.remaining_mb <= 1e-9
                || self.site_failed(up.from, t0)
                || self.site_failed(up.to, t0)
            {
                continue;
            }
            let mbps = up.remaining_mb * 8.0 / dt;
            sc.ckpt_flows.push((ci, sc.flows.len()));
            sc.flows.push(FlowDemand::new(up.from, up.to, Mbps(mbps)));
            sc.flow_edges.push(None);
            sc.admissions.push(0.0);
        }
        // Compaction full-snapshot bursts contend for the links too
        // (empty unless delta-chain modeling is on with remote
        // checkpointing).
        sc.comp_flows.clear();
        for (ci, up) in self.compaction_uploads.iter().enumerate() {
            if up.remaining_mb <= 1e-9
                || self.site_failed(up.from, t0)
                || self.site_failed(up.to, t0)
            {
                continue;
            }
            let mbps = up.remaining_mb * 8.0 / dt;
            sc.comp_flows.push((ci, sc.flows.len()));
            sc.flows.push(FlowDemand::new(up.from, up.to, Mbps(mbps)));
            sc.flow_edges.push(None);
            sc.admissions.push(0.0);
        }
        // Migration transfers compete for the same links.
        sc.mig_flows.clear();
        for (mi, m) in self.migrations.iter().enumerate() {
            for (ti, tr) in m.transfers.iter().enumerate() {
                if tr.remaining_mb <= 1e-9
                    || self.site_failed(tr.from, t0)
                    || self.site_failed(tr.to, t0)
                {
                    continue;
                }
                let mbps = tr.remaining_mb * 8.0 / dt;
                sc.mig_flows.push((mi, ti, sc.flows.len()));
                sc.flows.push(FlowDemand::new(tr.from, tr.to, Mbps(mbps)));
                sc.flow_edges.push(None);
                sc.admissions.push(0.0);
            }
        }
        // Partition slice flights (partitioned migrations): pipelined
        // per (from, to) link — only the head slice of each link's
        // queue is in flight (and paused) at a time.
        sc.slice_flows.clear();
        for (mi, m) in self.migrations.iter_mut().enumerate() {
            if m.slices.is_empty() {
                continue;
            }
            let mop = m.op.map(|o| o.0);
            sc.slice_links.clear();
            for (si, s) in m.slices.iter_mut().enumerate() {
                if s.remaining_mb <= 1e-9
                    || self.script.site_failed(s.from, SimTime(t0))
                    || self.script.site_failed(s.to, SimTime(t0))
                {
                    continue;
                }
                // Head-of-line only: later slices of the same link
                // wait their turn.
                if sc.slice_links.contains(&(s.from, s.to)) {
                    continue;
                }
                sc.slice_links.push((s.from, s.to));
                if s.started_at.is_none() {
                    s.started_at = Some(t0);
                    s.record = Some(self.state_timeline.transfers.len());
                    self.state_timeline.transfers.push(
                        wasp_state::timeline::PartitionTransferRecord {
                            op: mop,
                            partition: s.partition,
                            origin: s.origin,
                            from: s.from,
                            to: s.to,
                            mb: s.mb,
                            start_s: t0,
                            end_s: None,
                        },
                    );
                    let (partition, from, to, mb) =
                        (s.partition, s.from.0 as u32, s.to.0 as u32, s.mb);
                    self.tel.emit(t0, || TelEvent::PartitionTransferStarted {
                        op: mop,
                        partition,
                        from,
                        to,
                        mb,
                    });
                }
                let mbps = s.remaining_mb * 8.0 / dt;
                sc.slice_flows.push((mi, si, sc.flows.len()));
                sc.flows.push(FlowDemand::new(s.from, s.to, Mbps(mbps)));
                sc.flow_edges.push(None);
                sc.admissions.push(0.0);
            }
        }
        self.last_link_usage.clear();
        if sc.flows.is_empty() {
            return;
        }
        self.net
            .allocate_into(&sc.flows, SimTime(t0), &mut sc.rates);
        let rates = &sc.rates;
        for (f, r) in sc.flows.iter().zip(rates) {
            if f.from != f.to && r.0 > 0.0 {
                *self.last_link_usage.entry((f.from, f.to)).or_insert(0.0) += r.0;
            }
        }
        // Move events along data flows.
        for (i, maybe_key) in sc.flow_edges.iter().enumerate() {
            let Some(key) = maybe_key else { continue };
            let bytes = self.plan.out_bytes(key.from_op);
            let mut events = if bytes > 0.0 {
                rates[i].0 * 1e6 / 8.0 * dt / bytes
            } else {
                sc.admissions[i]
            };
            if key.from_site == key.to_site {
                events = sc.admissions[i]; // local hand-off is free
            }
            events = events.min(sc.admissions[i]);
            if events <= 0.0 {
                continue;
            }
            let latency = self.net.latency(key.from_site, key.to_site).secs();
            self.edges
                .get_mut(key)
                .expect("edge existed when flows were built")
                .take_into(events, &mut sc.moved);
            if let Some(dest) = self.groups.get_mut(&(key.to_op, key.to_site)) {
                let (mig_cum, fail_cum) = (dest.pause_mig_cum, dest.pause_fail_cum);
                // The flow's x-ray slots, resolved once: the DAG edge
                // registers when a cohort moves, the WAN link only
                // when an event does (as `TransitLedger::record`).
                let mut slots = self.xray.as_mut().filter(|_| !sc.moved.is_empty()).map(
                    |XrayState { rec, links, .. }| {
                        let edge = rec.edge_acc(t0, key.from_op.0, key.to_op.0);
                        let link = sc
                            .moved
                            .iter()
                            .any(|c| c.count > 0.0)
                            .then(|| links.acc(key.from_site, key.to_site));
                        (edge, link)
                    },
                );
                for mut c in sc.moved.drain(..) {
                    if let Some((edge, link)) = slots.as_mut() {
                        // Edge-buffer wait since emission plus the
                        // link's propagation delay are both transit.
                        let waited = (t0 - c.xray.attributed_until).max(0.0);
                        c.xray.advance(Component::Transit, t0);
                        c.xray.charge(Component::Transit, latency);
                        c.xray.mark_pause = mig_cum;
                        c.xray.mark_fail = fail_cum;
                        let secs = (waited + latency) * c.count;
                        **edge += secs;
                        if c.count > 0.0 {
                            if let Some(link) = link {
                                link.seconds += secs;
                                link.events += c.count;
                            }
                        }
                    }
                    c.net_latency += latency;
                    dest.arrived += c.count;
                    dest.input.push(c);
                }
            }
            sc.moved.clear();
        }
        // Progress migration transfers.
        for &(mi, ti, fi) in &sc.mig_flows {
            let moved_mb = rates[fi].0 / 8.0 * dt;
            let tr = &mut self.migrations[mi].transfers[ti];
            tr.remaining_mb = (tr.remaining_mb - moved_mb).max(0.0);
        }
        // Progress partition slice flights; a finished head slice
        // frees its link for the next slice at the next tick.
        for &(mi, si, fi) in &sc.slice_flows {
            let moved_mb = rates[fi].0 / 8.0 * dt;
            let mop = self.migrations[mi].op.map(|o| o.0);
            let s = &mut self.migrations[mi].slices[si];
            s.remaining_mb = (s.remaining_mb - moved_mb).max(0.0);
            if s.remaining_mb <= 1e-9 {
                s.remaining_mb = 0.0;
                let end = t0 + dt;
                let downtime = (end - s.started_at.unwrap_or(t0)).max(0.0);
                let partition = s.partition;
                let record = s.record;
                if let Some(ri) = record {
                    if let Some(r) = self.state_timeline.transfers.get_mut(ri) {
                        r.end_s = Some(end);
                    }
                }
                self.tel.emit(t0, || TelEvent::PartitionTransferCompleted {
                    op: mop,
                    partition,
                    downtime_s: downtime,
                });
                if let Some(em) = &self.em {
                    if let Some(h) = &em.partition_downtime {
                        h.observe(downtime, 1.0);
                    }
                }
            }
        }
        for &(ci, fi) in &sc.ckpt_flows {
            // (Link usage was already recorded with the other flows.)
            let moved_mb = rates[fi].0 / 8.0 * dt;
            let up = &mut self.checkpoint_uploads[ci];
            up.remaining_mb = (up.remaining_mb - moved_mb).max(0.0);
        }
        self.checkpoint_uploads.retain(|t| t.remaining_mb > 1e-9);
        // Progress compaction bursts; a record closes when the last
        // flight of its burst lands.
        if !sc.comp_flows.is_empty() {
            for &(ci, fi) in &sc.comp_flows {
                let moved_mb = rates[fi].0 / 8.0 * dt;
                let up = &mut self.compaction_uploads[ci];
                up.remaining_mb = (up.remaining_mb - moved_mb).max(0.0);
            }
            let finished: std::collections::BTreeSet<usize> = self
                .compaction_uploads
                .iter()
                .filter(|f| f.remaining_mb <= 1e-9)
                .map(|f| f.record)
                .collect();
            let still: std::collections::BTreeSet<usize> = self
                .compaction_uploads
                .iter()
                .filter(|f| f.remaining_mb > 1e-9)
                .map(|f| f.record)
                .collect();
            for ri in finished.difference(&still) {
                if let Some(r) = self.state_timeline.compactions.get_mut(*ri) {
                    if r.end_s.is_none() {
                        r.end_s = Some(t0 + dt);
                    }
                }
            }
            self.compaction_uploads.retain(|f| f.remaining_mb > 1e-9);
        }
        // Drained edge buffers stay in the map with their capacity, so
        // the next reduce refills them without allocating; float dust
        // (≤ 1e-12 events) is dropped as before. Buffers that no
        // placement feeds any more are pruned where placements change
        // (`redeploy`, `rekey_in_edges`, `switch_plan`).
        for q in self.edges.values_mut() {
            if q.is_empty() {
                q.clear();
            }
        }
    }

    /// Per-tick processing + emission over every (stage, site) group.
    ///
    /// # Determinism
    ///
    /// The tick is executed as *shard → compute → ordered reduce*, on
    /// the caller's thread:
    ///
    /// 1. **Shard**: one task per deployed (op, site) group, in the
    ///    stable order — topological operator order, then the
    ///    placement's site order. Each task takes its `Group` out of
    ///    the map in place (`mem::take`, leaving an empty placeholder),
    ///    a snapshot of the per-site inputs it needs (failure/suspension
    ///    status, compute factor) and a set of empty output buffers
    ///    from the engine's pool.
    /// 2. **Compute**: [`run_proc_task`] is a pure function of the task
    ///    plus the *pre-tick* immutable view (`plan`, `physical`,
    ///    `cfg`, edge buffers). A group is private to its task, and an
    ///    edge buffer keyed `(from_op, from_site, …)` is only ever read
    ///    or written by the task that owns `(from_op, from_site)`.
    /// 3. **Reduce** (in task order): groups are written back into
    ///    their map slots, sink deliveries are folded into the run
    ///    metrics and histograms, and each emission — the emitted
    ///    cohorts once plus `(edge, share)` pairs — is pushed into the
    ///    edge buffers scaled by its share.
    ///
    /// The split fixes the order of every floating-point sum the
    /// recorded outputs depend on. Task and outcome vectors are
    /// engine-owned and drained in task order, so a warmed-up tick
    /// allocates neither.
    fn process_step(&mut self, t0: f64, dt: f64) -> (f64, f64) {
        let t1 = t0 + dt;
        // Expired chain-replay stalls release their ops (empty unless
        // compaction modeling is on).
        if !self.recovery_replays.is_empty() {
            self.recovery_replays.retain(|_, ready| t0 < *ready);
        }
        // --- shard: one task per (op, site), in task order ---
        // Partitioned migrations pause only the partitions in flight:
        // the op keeps processing, at capacity scaled down by the
        // key-weight share currently moving (all zero under `Coarse`).
        // A slice's weight counts once per link: the first slice with
        // data left on a (from, to) link carries it.
        let inflight = &mut self.inflight_scratch;
        inflight.clear();
        inflight.resize(self.plan.len(), 0.0);
        for m in &self.migrations {
            let Some(op) = m.op else { continue };
            if m.slices.is_empty() {
                continue;
            }
            let links = &mut self.inflight_links;
            links.clear();
            let mut w = 0.0;
            for s in &m.slices {
                if s.remaining_mb > 1e-9 && !links.contains(&(s.from, s.to)) {
                    links.push((s.from, s.to));
                    w += s.weight;
                }
            }
            if let Some(slot) = inflight.get_mut(op.index()) {
                *slot += w;
            }
        }
        let mut tasks = std::mem::take(&mut self.proc_tasks);
        for &op in self.plan.topo_order() {
            let suspended = self.is_suspended(op);
            // Chain replay stalls the whole op (its state is not yet
            // reconstructed anywhere) — attributed as failure pause.
            let replaying = self.recovery_replays.contains_key(&op);
            let paused = self.inflight_scratch[op.index()];
            for (site, _) in self.physical.placement(op).iter() {
                let compute_factor = if paused > 0.0 {
                    self.script.compute_factor(site, SimTime(t0)) * (1.0 - paused.min(1.0))
                } else {
                    self.script.compute_factor(site, SimTime(t0))
                };
                let failed = self.site_failed(site, t0);
                tasks.push(ProcTask {
                    op,
                    site,
                    blocked: failed || suspended || replaying,
                    blocked_by_failure: failed || replaying,
                    paused_frac: paused,
                    compute_factor,
                    group: self.groups.get_mut(&(op, site)).map(std::mem::take),
                    bufs: self.emit_pool.pop().unwrap_or_default(),
                });
            }
        }
        // --- compute: pure per-task work, in task order ---
        let ctx = ProcCtx {
            plan: &self.plan,
            physical: &self.physical,
            cfg: &self.cfg,
            edges: &self.edges,
            dt,
            t1,
            xray: self.xray.is_some(),
        };
        let mut outcomes = std::mem::take(&mut self.proc_outcomes);
        outcomes.extend(tasks.drain(..).map(|t| run_proc_task(&ctx, t)));
        self.proc_tasks = tasks;
        // --- ordered reduce: apply outcomes in task order ---
        let mut delivered_total = 0.0;
        let mut delay_sum = 0.0;
        let mut per_op_processed = std::mem::take(&mut self.per_op_processed);
        per_op_processed.clear();
        per_op_processed.resize(self.plan.len(), 0.0);
        for mut o in outcomes.drain(..) {
            if let Some(g) = o.group {
                *self
                    .groups
                    .get_mut(&(o.op, o.site))
                    .expect("the group was taken from this slot") = g;
            }
            if let Some(p) = per_op_processed.get_mut(o.op.index()) {
                *p += o.processed;
            }
            if let Some(em) = &self.em {
                if o.backpressure {
                    em.backpressure[o.op.index()].inc();
                }
                if o.processed > 0.0 {
                    em.processed[o.op.index()].add(o.processed);
                }
                if o.emitted > 0.0 {
                    em.emitted[o.op.index()].add(o.emitted);
                }
            }
            let mut node_comps = o.xray_nodes;
            if o.sink && !o.bufs.cohorts.is_empty() {
                let sink_hist = self
                    .em
                    .as_ref()
                    .and_then(|em| em.delivery[o.op.index()].as_ref());
                for c in &o.bufs.cohorts {
                    let d = c.delay_at(SimTime(t1));
                    delivered_total += c.count;
                    delay_sum += d * c.count;
                    self.metrics.record_delivery(d, c.count);
                    if let Some(h) = sink_hist {
                        h.observe(d, c.count);
                    }
                    if self.xray.is_some() {
                        // Close any still-unattributed residual (e.g.
                        // sink-side buffering) so components sum to the
                        // exact recorded delay.
                        let residual = (t1 - c.xray.attributed_until).max(0.0);
                        let mut comps = c.xray.components();
                        comps[Component::Backpressure as usize] += residual;
                        node_comps[Component::Backpressure as usize] += residual * c.count;
                        if let Some(xs) = self.xray.as_mut() {
                            xs.rec.observe_delivery(t1, o.op.0, d, comps, c.count);
                        }
                        if let Some(em) = &self.em {
                            if let Some(hists) = &em.xray_comps[o.op.index()] {
                                for (h, v) in hists.iter().zip(comps) {
                                    h.observe(v.max(0.0), c.count);
                                }
                            }
                        }
                    }
                }
            }
            if let Some(xs) = self.xray.as_mut() {
                xs.rec.charge_node(t1, o.op.0, node_comps);
            }
            for &(key, share) in &o.bufs.edges {
                self.edges
                    .entry(key)
                    .or_default()
                    .push_scaled(&o.bufs.cohorts, share);
            }
            o.bufs.cohorts.clear();
            o.bufs.edges.clear();
            self.emit_pool.push(o.bufs);
        }
        self.proc_outcomes = outcomes;
        self.state_step(&per_op_processed);
        self.per_op_processed = per_op_processed;
        (delivered_total, delay_sum)
    }

    /// Post-tick partitioned-state accounting: re-syncs each store's
    /// total with the engine's per-site state sizes and records the
    /// tick's writes against a weight-sampled partition. A single
    /// branch under `StateModel::Coarse`.
    fn state_step(&mut self, per_op_processed: &[f64]) {
        if self.stores.is_empty() {
            return;
        }
        for (&op, store) in self.stores.iter_mut() {
            let total: f64 = self
                .groups
                .iter()
                .filter(|((o, _), _)| *o == op)
                .map(|(_, g)| g.state_mb)
                .sum();
            let write_bytes = match self.plan.op(op).state() {
                StateModel::Stateless => 0.0,
                // Fixed-size state still takes writes (updates in
                // place); model them at a nominal record size.
                StateModel::Fixed(_) => 64.0,
                StateModel::Window { bytes_per_event } => bytes_per_event,
            };
            let mb = per_op_processed.get(op.index()).copied().unwrap_or(0.0) * write_bytes / 1e6;
            store.set_total_mb(total);
            store.record_writes_sampled(mb);
        }
    }

    fn enforce_drop_slo(&mut self, t1: f64) -> f64 {
        let Some(slo) = self.drop_slo else {
            return 0.0;
        };
        let mut dropped = 0.0;
        for g in self.groups.values_mut() {
            dropped += g.input.drop_late(SimTime(t1), slo);
            dropped += g.pending_out.drop_late(SimTime(t1), slo);
        }
        for q in self.edges.values_mut() {
            dropped += q.drop_late(SimTime(t1), slo);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::OperatorSpec;
    use crate::plan::LogicalPlanBuilder;
    use wasp_netsim::dynamics::Failure;
    use wasp_netsim::site::SiteKind;
    use wasp_netsim::topology::TopologyBuilder;
    use wasp_netsim::trace::FactorSeries;
    use wasp_netsim::units::Millis;

    /// Two-site world: an edge (source) and a DC (compute + sink),
    /// 10 Mbps link, 20 ms latency.
    fn world(link_mbps: f64) -> (Network, SiteId, SiteId) {
        let mut b = TopologyBuilder::new();
        let edge = b.add_site("edge", SiteKind::Edge, 4);
        let dc = b.add_site("dc", SiteKind::DataCenter, 8);
        b.set_symmetric_link(edge, dc, Mbps(link_mbps), Millis(20.0));
        (Network::new(b.build().unwrap()), edge, dc)
    }

    /// src(edge) → filter → sink(dc). 100-byte events.
    fn linear_plan(edge: SiteId, rate: f64, filter_cost_us: f64) -> LogicalPlan {
        let mut p = LogicalPlanBuilder::new("linear");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: rate,
                event_bytes: 100.0,
            },
        ));
        let f = p.add(
            OperatorSpec::new("filter", OperatorKind::Filter)
                .with_selectivity(0.5)
                .with_cost_us(filter_cost_us),
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, f);
        p.connect(f, k);
        p.build().unwrap()
    }

    fn engine_for(net: Network, script: DynamicsScript, plan: LogicalPlan, dc: SiteId) -> Engine {
        let physical = PhysicalPlan::initial(&plan, dc);
        Engine::new(net, script, plan, physical, EngineConfig::default()).unwrap()
    }

    #[test]
    fn unconstrained_pipeline_is_healthy() {
        // 1000 ev/s × 100 B = 0.8 Mbps over a 10 Mbps link: healthy.
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let e2e = plan.end_to_end_selectivity();
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(120.0);
        let m = eng.metrics();
        // Conservation: delivered ≈ generated × e2e selectivity
        // (modulo the pipeline fill).
        let expected = m.total_generated() * e2e;
        assert!(
            (m.total_delivered() - expected).abs() / expected < 0.05,
            "delivered {} vs expected {}",
            m.total_delivered(),
            expected
        );
        // Steady-state delay stays low (a few ticks + latency).
        let p95 = m.delay_quantile_between(60.0, 120.0, 0.95).unwrap();
        assert!(p95 < 6.0, "p95 {p95}");
    }

    #[test]
    fn network_bottleneck_grows_backlog() {
        // 10 000 ev/s × 100 B = 8 Mbps demand over a 4 Mbps link.
        let (net, edge, dc) = world(4.0);
        let plan = linear_plan(edge, 10_000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(300.0);
        let m = eng.metrics();
        // Only about half the events can cross.
        let ratio = m.total_delivered() / (m.total_generated() * 0.5);
        assert!(ratio < 0.6, "ratio {ratio}");
        // Delay climbs continuously (events queue at the source).
        let d_late = m.delay_quantile_between(250.0, 300.0, 0.5).unwrap();
        let d_early = m.delay_quantile_between(20.0, 60.0, 0.5).unwrap();
        assert!(
            d_late > 4.0 * d_early && d_late > 100.0,
            "late {d_late} early {d_early}"
        );
    }

    #[test]
    fn compute_bottleneck_limits_processing_rate() {
        // Filter costs 2000 µs/event → 500 ev/s per task < 1000 ev/s.
        let (net, edge, dc) = world(100.0);
        let plan = linear_plan(edge, 1000.0, 2000.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(100.0);
        let snap = eng.snapshot();
        let filter = snap.stage(OpId(1));
        assert!(
            filter.lambda_p < 600.0,
            "λP {} should cap near 500",
            filter.lambda_p
        );
        assert!(filter.backpressure, "compute-bound stage backpressures");
    }

    #[test]
    fn backpressure_hides_actual_workload() {
        // Bound at the filter: observed λI at the filter is below the
        // source's true rate — §3.3's motivation.
        let (net, edge, dc) = world(100.0);
        let plan = linear_plan(edge, 1000.0, 2000.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(200.0);
        let snap = eng.snapshot();
        let true_rate = snap.total_source_rate();
        let observed = snap.stage(OpId(1)).lambda_i;
        assert!((true_rate - 1000.0).abs() < 50.0, "true {true_rate}");
        assert!(
            observed < 0.8 * true_rate,
            "observed {observed} should lag true {true_rate}"
        );
    }

    #[test]
    fn snapshot_measures_selectivity() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(60.0);
        let snap = eng.snapshot();
        let filter = snap.stage(OpId(1));
        assert!(
            (filter.sigma - 0.5).abs() < 0.05,
            "measured σ {}",
            filter.sigma
        );
        assert!(snap.free_slots[&dc] >= 6);
    }

    #[test]
    fn workload_factor_scales_generation() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let script =
            DynamicsScript::none().with_global_workload(FactorSeries::steps(1.0, &[(50.0, 2.0)]));
        let mut eng = engine_for(net, script, plan, dc);
        eng.run(49.0);
        let g1 = eng.metrics().total_generated();
        eng.run(51.0);
        let g2 = eng.metrics().total_generated() - g1;
        assert!((g1 - 49_000.0).abs() < 1500.0, "g1 {g1}");
        assert!(g2 > 95_000.0, "g2 {g2}");
    }

    #[test]
    fn window_operator_emits_at_boundaries() {
        let (net, edge, dc) = world(10.0);
        let mut p = LogicalPlanBuilder::new("win");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 1000.0,
                event_bytes: 100.0,
            },
        ));
        let w = p.add(
            OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 10.0 })
                .with_selectivity(0.01)
                .with_cost_us(10.0),
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, w);
        p.connect(w, k);
        let plan = p.build().unwrap();
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(65.0);
        let m = eng.metrics();
        // ~6 windows × 1000 ev/s × 10 s × 0.01 = ~600 delivered.
        assert!(
            m.total_delivered() > 350.0 && m.total_delivered() < 700.0,
            "delivered {}",
            m.total_delivered()
        );
        // Deliveries are bursty: most ticks deliver nothing.
        let delivering = m.ticks().iter().filter(|r| r.delivered > 0.0).count();
        assert!(delivering < 40, "delivering ticks {delivering}");
        // Delay measured from the *latest* event of each window stays
        // small even though the window is 10 s long.
        let p50 = m.delay_quantile(0.5).unwrap();
        assert!(p50 < 6.0, "p50 {p50}");
    }

    #[test]
    fn redeploy_suspends_then_resumes() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(30.0);
        // Move the filter from dc to edge with a 5 MB state transfer
        // over 10 Mbps → 4 s transition.
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(edge, 1),
            transfers: vec![Transfer::new(dc, edge, MegaBytes(5.0))],
            skip_state: false,
        })
        .unwrap();
        assert!(eng.is_suspended(OpId(1)));
        eng.run(15.0);
        assert!(!eng.is_suspended(OpId(1)));
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![edge]);
        // Pipeline still works after the move.
        let before = eng.metrics().total_delivered();
        eng.run(30.0);
        assert!(eng.metrics().total_delivered() > before + 10_000.0);
    }

    #[test]
    fn drained_edge_buffers_persist_until_a_redeploy_prunes_them() {
        let mut b = TopologyBuilder::new();
        let edge = b.add_site("edge", SiteKind::Edge, 4);
        let dc = b.add_site("dc", SiteKind::DataCenter, 8);
        let dc2 = b.add_site("dc2", SiteKind::DataCenter, 8);
        b.set_all_links(Mbps(50.0), Millis(20.0));
        let net = Network::new(b.build().unwrap());
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(20.0);
        let filter = OpId(1);
        let vacated = EdgeKey {
            from_op: filter,
            from_site: dc,
            to_op: OpId(2),
            to_site: dc,
        };
        assert!(eng.edges.contains_key(&vacated));
        let move_filter = |eng: &mut Engine, site: SiteId| {
            eng.apply(Command::Redeploy {
                op: filter,
                placement: Placement::single(site, 1),
                transfers: vec![],
                skip_state: false,
            })
            .unwrap();
            eng.run(20.0);
            assert!(!eng.is_suspended(filter));
        };
        // Nothing feeds the vacated site's output buffer any more: it
        // drains and stays in the map, empty.
        move_filter(&mut eng, dc2);
        let left = eng.edges.get(&vacated).expect("drained buffers persist");
        assert_eq!(left.len_cohorts(), 0);
        assert_eq!(left.len_events(), 0.0);
        // The next placement change prunes it; live buffers stay.
        move_filter(&mut eng, edge);
        assert!(!eng.edges.contains_key(&vacated));
        assert!(eng.edges.values().any(|q| q.len_cohorts() > 0));
        assert!(eng.metrics().total_delivered() > 0.0);
    }

    #[test]
    fn redeploy_of_source_is_rejected() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        let err = eng
            .apply(Command::Redeploy {
                op: OpId(0),
                placement: Placement::single(dc, 1),
                transfers: vec![],
                skip_state: false,
            })
            .unwrap_err();
        assert_eq!(err, EngineError::SourceImmovable(OpId(0)));
    }

    #[test]
    fn double_redeploy_is_busy() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(edge, 1),
            transfers: vec![Transfer::new(dc, edge, MegaBytes(50.0))],
            skip_state: false,
        })
        .unwrap();
        let err = eng
            .apply(Command::Redeploy {
                op: OpId(1),
                placement: Placement::single(dc, 1),
                transfers: vec![],
                skip_state: false,
            })
            .unwrap_err();
        assert_eq!(err, EngineError::Busy(OpId(1)));
    }

    #[test]
    fn migration_time_tracks_bandwidth() {
        // 10 MB over 8 Mbps → 10 s; with restart penalty 2 s the stage
        // resumes after ~10 s, not before 9.
        let (net, edge, dc) = world(8.0);
        let plan = linear_plan(edge, 100.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(edge, 1),
            transfers: vec![Transfer::new(dc, edge, MegaBytes(10.0))],
            skip_state: false,
        })
        .unwrap();
        let mut resumed_at = None;
        for _ in 0..200 {
            eng.step();
            if !eng.is_suspended(OpId(1)) {
                resumed_at = Some(eng.now().secs());
                break;
            }
        }
        let resumed = resumed_at.expect("migration should finish");
        // Data flows share the link, so it can be a bit over 10 s.
        assert!((9.0..=30.0).contains(&resumed), "resumed at {resumed}");
    }

    #[test]
    fn skip_state_counts_loss_and_resumes_fast() {
        let (net, edge, dc) = world(8.0);
        let mut p = LogicalPlanBuilder::new("st");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 100.0,
                event_bytes: 100.0,
            },
        ));
        let w = p.add(
            OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 30.0 })
                .with_selectivity(0.1)
                .with_state(StateModel::Fixed(MegaBytes(60.0))),
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, w);
        p.connect(w, k);
        let plan = p.build().unwrap();
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(10.0);
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(edge, 1),
            transfers: vec![Transfer::new(dc, edge, MegaBytes(60.0))],
            skip_state: true,
        })
        .unwrap();
        // skip_state drops the transfers → resume after the restart
        // penalty only.
        eng.run(4.0);
        assert!(!eng.is_suspended(OpId(1)));
        let lost = eng.metrics().ticks().last().unwrap().lost_state_mb;
        assert!((lost - 60.0).abs() < 1.0, "lost {lost}");
    }

    #[test]
    fn scale_out_relieves_network_bottleneck() {
        // Demand 8 Mbps, link edge→dc is 4 Mbps, but a second DC also
        // has a 4 Mbps link: scaling out across both sites doubles the
        // usable bandwidth.
        let mut b = TopologyBuilder::new();
        let edge = b.add_site("edge", SiteKind::Edge, 4);
        let dc1 = b.add_site("dc1", SiteKind::DataCenter, 8);
        let dc2 = b.add_site("dc2", SiteKind::DataCenter, 8);
        b.set_all_links(Mbps(4.0), Millis(20.0));
        b.set_symmetric_link(dc1, dc2, Mbps(100.0), Millis(5.0));
        let net = Network::new(b.build().unwrap());
        let plan = linear_plan(edge, 10_000.0, 5.0);
        let physical = PhysicalPlan::initial(&plan, dc1);
        let mut eng = Engine::new(
            net,
            DynamicsScript::none(),
            plan,
            physical,
            EngineConfig::default(),
        )
        .unwrap();
        eng.run(60.0);
        // Constrained: ratio < 0.6.
        let delivered_before = eng.metrics().total_delivered();
        let generated_before = eng.metrics().total_generated();
        assert!(delivered_before / (generated_before * 0.5) < 0.65);
        // Scale out the filter to dc1 + dc2.
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::from_pairs([(dc1, 1), (dc2, 1)]),
            transfers: vec![],
            skip_state: false,
        })
        .unwrap();
        eng.run(240.0);
        // In the last stretch the query keeps up (it also drains
        // backlog, so ratio can exceed 1).
        let m = eng.metrics();
        let gen_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 200.0)
            .map(|r| r.generated)
            .sum();
        let del_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 200.0)
            .map(|r| r.delivered)
            .sum();
        assert!(
            del_late / (gen_late * 0.5) > 0.9,
            "late ratio {}",
            del_late / (gen_late * 0.5)
        );
    }

    #[test]
    fn failure_halts_and_recovery_catches_up() {
        let (net, edge, dc) = world(20.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let script = DynamicsScript::none().with_failure(wasp_netsim::dynamics::Failure {
            at: SimTime(60.0),
            restore_after: 30.0,
            site: None,
        });
        let mut eng = engine_for(net, script, plan, dc);
        eng.run(200.0);
        let m = eng.metrics();
        // Nothing delivered during the failure window.
        let del_during: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 62.0 && r.t < 90.0)
            .map(|r| r.delivered)
            .sum();
        assert!(del_during < 1.0, "delivered during failure {del_during}");
        // Catch-up afterwards: overall conservation still holds.
        let expected = m.total_generated() * 0.5;
        assert!(
            m.total_delivered() / expected > 0.9,
            "ratio {}",
            m.total_delivered() / expected
        );
        // There is a catch-up burst: some tick after restore delivers
        // more than the steady per-tick amount.
        let max_after: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 90.0)
            .map(|r| r.delivered)
            .fold(0.0, f64::max);
        assert!(max_after > 700.0, "max burst {max_after}");
    }

    #[test]
    fn drop_slo_bounds_delay_at_cost_of_events() {
        // Network bottleneck + 10 s SLO: delay stays bounded, events
        // get dropped (the Degrade baseline).
        let (net, edge, dc) = world(4.0);
        let plan = linear_plan(edge, 10_000.0, 5.0);
        let physical = PhysicalPlan::initial(&plan, dc);
        let cfg = EngineConfig {
            drop_slo: Some(10.0),
            ..EngineConfig::default()
        };
        let mut eng = Engine::new(net, DynamicsScript::none(), plan, physical, cfg).unwrap();
        eng.run(300.0);
        let m = eng.metrics();
        assert!(m.total_dropped() > 0.0);
        let p99 = m.delay_quantile(0.99).unwrap();
        assert!(p99 <= 12.0, "p99 {p99}");
    }

    #[test]
    fn switch_plan_replaces_pipeline() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(30.0);
        // New plan: same shape but σ=0.25 filter, placed at the edge.
        let mut p = LogicalPlanBuilder::new("v2");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 1000.0,
                event_bytes: 100.0,
            },
        ));
        let f = p.add(
            OperatorSpec::new("filter2", OperatorKind::Filter)
                .with_selectivity(0.25)
                .with_cost_us(5.0),
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, f);
        p.connect(f, k);
        let new_plan = p.build().unwrap();
        let mut physical = PhysicalPlan::initial(&new_plan, dc);
        physical.set_placement(f, Placement::single(edge, 1));
        eng.apply(Command::SwitchPlan(Box::new(PlanSwitch {
            plan: new_plan,
            physical,
            carry: vec![(OpId(0), s)],
            transfers: vec![],
        })))
        .unwrap();
        eng.run(60.0);
        assert_eq!(eng.plan().name(), "v2");
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![edge]);
        // Deliveries continue under the new plan.
        let late: f64 = eng
            .metrics()
            .ticks()
            .iter()
            .filter(|r| r.t > 60.0)
            .map(|r| r.delivered)
            .sum();
        assert!(late > 4000.0, "late deliveries {late}");
    }

    #[test]
    fn transition_annotations_bracket_each_adaptation() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(edge, 1),
            transfers: vec![Transfer::new(dc, edge, MegaBytes(2.0))],
            skip_state: false,
        })
        .unwrap();
        eng.run(20.0);
        let actions = eng.metrics().actions();
        let starts = actions
            .iter()
            .filter(|(_, a)| a == "transition-start")
            .count();
        let ends = actions
            .iter()
            .filter(|(_, a)| a == "transition-end")
            .count();
        assert_eq!(starts, 1);
        assert_eq!(ends, 1);
        let t_start = actions
            .iter()
            .find(|(_, a)| a == "transition-start")
            .unwrap()
            .0;
        let t_end = actions
            .iter()
            .find(|(_, a)| a == "transition-end")
            .unwrap()
            .0;
        assert!(t_end > t_start);
    }

    #[test]
    fn link_usage_telemetry_reflects_the_stream() {
        let (net, edge, dc) = world(10.0);
        // 1000 ev/s × 100 B × 8 = 0.8 Mbps on edge→dc.
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(30.0);
        let usage = eng.last_link_usage();
        let on_link = usage.get(&(edge, dc)).copied().unwrap_or(0.0);
        assert!(
            (on_link - 0.8).abs() < 0.15,
            "expected ≈0.8 Mbps on edge→dc, got {on_link} ({usage:?})"
        );
        // No phantom reverse traffic.
        assert!(usage.get(&(dc, edge)).copied().unwrap_or(0.0) < 0.2);
    }

    #[test]
    fn drop_slo_can_be_toggled_at_runtime() {
        let (net, edge, dc) = world(4.0); // constrained link
        let plan = linear_plan(edge, 10_000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.run(60.0);
        assert_eq!(eng.metrics().total_dropped(), 0.0);
        eng.apply(Command::SetDropSlo(Some(5.0))).unwrap();
        eng.run(60.0);
        let after_enable = eng.metrics().total_dropped();
        assert!(after_enable > 0.0, "SLO should start dropping");
        eng.apply(Command::SetDropSlo(None)).unwrap();
        eng.run(30.0);
        let after_disable = eng.metrics().total_dropped();
        eng.run(60.0);
        assert_eq!(
            eng.metrics().total_dropped(),
            after_disable,
            "no drops once the SLO is off"
        );
    }

    #[test]
    fn late_events_fire_already_emitted_windows_again() {
        // A window fires from fresh-path events; a straggler cohort for
        // that window then arrives and must be emitted immediately as a
        // late update with its own (large) delay — not silently merged
        // or dropped.
        let (net, edge, dc) = world(10.0);
        let mut p = LogicalPlanBuilder::new("late");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 100.0,
                event_bytes: 100.0,
            },
        ));
        let w = p.add(
            OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 10.0 })
                .with_selectivity(1.0), // pass-through counting
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, w);
        p.connect(w, k);
        let plan = p.build().unwrap();
        let script = DynamicsScript::none();
        let physical = PhysicalPlan::initial(&plan, dc);
        let mut eng = Engine::new(net, script, plan, physical, EngineConfig::default()).unwrap();
        eng.run(120.0);
        let m = eng.metrics();
        // With σ=1 everything is delivered; conservation holds even
        // though windows fire incrementally.
        let ratio = m.total_delivered() / m.total_generated();
        assert!(ratio > 0.85, "ratio {ratio}");
    }

    #[test]
    fn switch_plan_rejected_mid_transition() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan.clone(), dc);
        eng.apply(Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(edge, 1),
            transfers: vec![Transfer::new(dc, edge, MegaBytes(50.0))],
            skip_state: false,
        })
        .unwrap();
        let physical = PhysicalPlan::initial(&plan, dc);
        let err = eng
            .apply(Command::SwitchPlan(Box::new(PlanSwitch {
                plan,
                physical,
                carry: vec![],
                transfers: vec![],
            })))
            .unwrap_err();
        assert!(matches!(err, EngineError::Busy(_)));
    }

    #[test]
    fn failed_site_reports_zero_free_slots() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let script = DynamicsScript::none().with_failure(wasp_netsim::dynamics::Failure {
            at: SimTime(10.0),
            restore_after: 50.0,
            site: Some(dc),
        });
        let mut eng = engine_for(net, script, plan, dc);
        eng.run(20.0);
        let snap = eng.snapshot();
        assert_eq!(snap.free_slots[&dc], 0);
        assert_eq!(snap.failed_sites, vec![dc]);
        assert!(snap.free_slots[&edge] > 0);
        eng.run(60.0);
        let snap = eng.snapshot();
        assert!(snap.failed_sites.is_empty());
        assert!(snap.free_slots[&dc] > 0);
    }

    #[test]
    fn fan_out_duplicates_to_every_downstream_branch() {
        // src → filter → {sink_a, sink_b}: both sinks receive the full
        // filtered stream (fan-out duplicates, not splits).
        let (net, edge, dc) = world(50.0);
        let mut p = LogicalPlanBuilder::new("fanout");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 1000.0,
                event_bytes: 50.0,
            },
        ));
        let f = p.add(OperatorSpec::new("f", OperatorKind::Filter).with_selectivity(0.5));
        let k1 = p.add(OperatorSpec::new(
            "sink-a",
            OperatorKind::Sink { site: None },
        ));
        let k2 = p.add(OperatorSpec::new(
            "sink-b",
            OperatorKind::Sink { site: None },
        ));
        p.connect(s, f);
        p.connect(f, k1);
        p.connect(f, k2);
        let plan = p.build().unwrap();
        let physical = PhysicalPlan::initial(&plan, dc);
        let mut eng = Engine::new(
            net,
            DynamicsScript::none(),
            plan,
            physical,
            EngineConfig::default(),
        )
        .unwrap();
        eng.run(100.0);
        let m = eng.metrics();
        // Each sink gets 0.5× of the stream → total delivered ≈ 1.0×.
        let ratio = m.total_delivered() / m.total_generated();
        assert!((ratio - 1.0).abs() < 0.1, "fan-out ratio {ratio}");
    }

    #[test]
    fn remote_checkpoint_uploads_progress_and_complete() {
        use crate::engine::CheckpointTarget;
        let (net, edge, dc) = world(50.0);
        let mut p = LogicalPlanBuilder::new("ck");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 100.0,
                event_bytes: 50.0,
            },
        ));
        let w = p.add(
            OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 10.0 })
                .with_selectivity(0.1)
                .with_state(StateModel::Fixed(MegaBytes(30.0))),
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, w);
        p.connect(w, k);
        let plan = p.build().unwrap();
        let physical = PhysicalPlan::initial(&plan, dc);
        let cfg = EngineConfig {
            checkpoint_target: CheckpointTarget::Remote(edge),
            ..EngineConfig::default()
        };
        let mut eng = Engine::new(net, DynamicsScript::none(), plan, physical, cfg).unwrap();
        // After the first checkpoint (t=30) an upload starts…
        eng.run(31.0);
        assert!(eng.pending_checkpoint_upload_mb() > 0.0);
        // …and 30 MB over 50 Mbps completes in ~5 s, before the next
        // round.
        eng.run(15.0);
        assert_eq!(eng.pending_checkpoint_upload_mb(), 0.0);
        eng.run(120.0);
        let (rounds, superseded) = eng.checkpoint_stats();
        assert!(rounds >= 4);
        assert_eq!(superseded, 0, "uploads should keep up on a fast link");
    }

    #[test]
    fn engine_is_deterministic() {
        let run = || {
            let (net, edge, dc) = world(6.0);
            let plan = linear_plan(edge, 5000.0, 5.0);
            let mut eng = engine_for(net, DynamicsScript::section_8_4(), plan, dc);
            eng.run(400.0);
            (
                eng.metrics().total_delivered(),
                eng.metrics().delay_quantile(0.9),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_uses_integer_tick_counts() {
        // dt = 0.1 is not exactly representable in binary; the old
        // `while now + dt/2 < end` loop accumulated `now` and drifted
        // on long or split runs. The step count is now an integer and
        // `now` is tick-derived, so 1000 runs of 0.1 s land exactly
        // where one run of 100 s does.
        let mk = || {
            let (net, edge, dc) = world(10.0);
            let plan = linear_plan(edge, 100.0, 5.0);
            let physical = PhysicalPlan::initial(&plan, dc);
            let cfg = EngineConfig {
                dt: 0.1,
                ..EngineConfig::default()
            };
            Engine::new(net, DynamicsScript::none(), plan, physical, cfg).unwrap()
        };
        let mut single = mk();
        single.run(100.0);
        let mut split = mk();
        for _ in 0..1000 {
            split.run(0.1);
        }
        assert_eq!(single.tick(), 1000);
        assert_eq!(split.tick(), single.tick());
        assert_eq!(
            split.metrics().ticks().len(),
            single.metrics().ticks().len()
        );
        // `now` is exactly tick × dt on both paths — no float drift.
        assert_eq!(single.now().secs().to_bits(), (1000.0 * 0.1f64).to_bits());
        assert_eq!(split.now().secs().to_bits(), single.now().secs().to_bits());
        // Half-tick durations keep the historical round-down: a 0.05 s
        // request at dt = 0.1 performs no step.
        let mut half = mk();
        half.run(0.05);
        assert_eq!(half.tick(), 0);
    }

    /// Three-site world for failure tests: edge (source) plus two DCs.
    /// The dc1↔dc2 link is slow (10 Mbps) so state migrations take
    /// long enough for a failure to strike mid-transfer.
    fn failure_world() -> (Network, SiteId, SiteId, SiteId) {
        let mut b = TopologyBuilder::new();
        let edge = b.add_site("edge", SiteKind::Edge, 4);
        let dc1 = b.add_site("dc1", SiteKind::DataCenter, 8);
        let dc2 = b.add_site("dc2", SiteKind::DataCenter, 8);
        b.set_symmetric_link(edge, dc1, Mbps(50.0), Millis(20.0));
        b.set_symmetric_link(edge, dc2, Mbps(50.0), Millis(20.0));
        b.set_symmetric_link(dc1, dc2, Mbps(10.0), Millis(30.0));
        (Network::new(b.build().unwrap()), edge, dc1, dc2)
    }

    /// src(edge) → agg(60 MB state) → sink, agg and sink at dc1.
    fn stateful_failure_setup(
        script: DynamicsScript,
        cfg: EngineConfig,
    ) -> (Engine, SiteId, SiteId, OpId) {
        let (net, edge, dc1, dc2) = failure_world();
        let mut p = LogicalPlanBuilder::new("fail");
        let s = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 500.0,
                event_bytes: 100.0,
            },
        ));
        let w = p.add(
            OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 10.0 })
                .with_selectivity(0.1)
                .with_state(StateModel::Fixed(MegaBytes(60.0))),
        );
        let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(s, w);
        p.connect(w, k);
        let plan = p.build().unwrap();
        let physical = PhysicalPlan::initial(&plan, dc1);
        let eng = Engine::new(net, script, plan, physical, cfg).unwrap();
        (eng, dc1, dc2, w)
    }

    #[test]
    fn migration_aborts_when_destination_fails_mid_transfer() {
        // 60 MB over the 10 Mbps dc1→dc2 link needs ~48 s; dc2 dies
        // 2 s into the transfer. Without the abort the transfer would
        // stall forever behind the dead endpoint, pinning the engine
        // in `in_transition()`.
        let script = DynamicsScript::none().with_failure(Failure {
            at: SimTime(52.0),
            restore_after: 30.0,
            site: Some(SiteId(2)),
        });
        let (mut eng, dc1, dc2, w) = stateful_failure_setup(script, EngineConfig::default());
        eng.run(50.0);
        eng.apply(Command::Redeploy {
            op: w,
            placement: Placement::single(dc2, 1),
            transfers: vec![Transfer::new(dc1, dc2, MegaBytes(60.0))],
            skip_state: false,
        })
        .unwrap();
        assert!(eng.in_transition());
        eng.run(5.0);
        assert!(!eng.in_transition(), "must abort, not stall");
        let actions = eng.metrics().actions().to_vec();
        assert!(
            actions.iter().any(|(_, l)| l == "transition-abort"),
            "actions: {actions:?}"
        );
        assert!(
            !actions.iter().any(|(_, l)| l == "transition-end"),
            "the aborted migration must not also complete: {actions:?}"
        );
        let snap = eng.snapshot();
        assert!(
            snap.events.iter().any(|e| matches!(
                e,
                FailureEvent::MigrationAborted { op: Some(op), site, .. }
                    if *op == w && *site == dc2
            )),
            "events: {:?}",
            snap.events
        );
    }

    #[test]
    fn empty_transfer_migration_does_not_complete_onto_dead_site() {
        // A migration with no transfers completes by wall clock alone
        // (the restart penalty). If the destination dies inside that
        // window, completing would deploy tasks onto a dead site.
        let script = DynamicsScript::none().with_failure(Failure {
            at: SimTime(51.0),
            restore_after: 30.0,
            site: Some(SiteId(2)),
        });
        let (mut eng, _dc1, dc2, w) = stateful_failure_setup(script, EngineConfig::default());
        eng.run(50.0);
        eng.apply(Command::Redeploy {
            op: w,
            placement: Placement::single(dc2, 1),
            transfers: Vec::new(),
            skip_state: true,
        })
        .unwrap();
        eng.run(5.0); // restart penalty ends at t=52, dc2 dead from t=51
        assert!(!eng.in_transition());
        let actions = eng.metrics().actions().to_vec();
        assert!(
            actions.iter().any(|(_, l)| l == "transition-abort"),
            "actions: {actions:?}"
        );
        assert!(!actions.iter().any(|(_, l)| l == "transition-end"));
    }

    #[test]
    fn redeploy_onto_failed_site_is_rejected() {
        let script = DynamicsScript::none().with_failure(Failure {
            at: SimTime(40.0),
            restore_after: 30.0,
            site: Some(SiteId(2)),
        });
        let (mut eng, dc1, dc2, w) = stateful_failure_setup(script, EngineConfig::default());
        eng.run(50.0);
        let err = eng
            .apply(Command::Redeploy {
                op: w,
                placement: Placement::single(dc2, 1),
                transfers: vec![Transfer::new(dc1, dc2, MegaBytes(60.0))],
                skip_state: false,
            })
            .unwrap_err();
        assert_eq!(err, EngineError::SiteFailed(dc2));
        // After the site restores the same command is accepted.
        eng.run(25.0);
        eng.apply(Command::Redeploy {
            op: w,
            placement: Placement::single(dc2, 1),
            transfers: vec![Transfer::new(dc1, dc2, MegaBytes(60.0))],
            skip_state: false,
        })
        .unwrap();
    }

    #[test]
    fn remote_checkpoint_stalls_while_target_down() {
        // Rendezvous target dc2 is down across the t=60 and t=90
        // checkpoint rounds: both rounds must count as incomplete and
        // no uploads may be created toward the dead site.
        let script = DynamicsScript::none().with_failure(Failure {
            at: SimTime(55.0),
            restore_after: 40.0,
            site: Some(SiteId(2)),
        });
        let cfg = EngineConfig {
            checkpoint_target: CheckpointTarget::Remote(SiteId(2)),
            ..EngineConfig::default()
        };
        let (mut eng, _dc1, dc2, _w) = stateful_failure_setup(script, cfg);
        eng.run(130.0);
        let (rounds, incomplete) = eng.checkpoint_stats();
        assert!(rounds >= 4, "rounds {rounds}");
        assert!(incomplete >= 2, "stalled rounds must count: {incomplete}");
        let snap = eng.snapshot();
        let stalled: Vec<_> = snap
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FailureEvent::CheckpointStalled { target, .. } if *target == dc2
                )
            })
            .collect();
        assert_eq!(stalled.len(), 2, "events: {:?}", snap.events);
    }

    #[test]
    fn snapshot_surfaces_site_down_and_restore_events() {
        let script = DynamicsScript::none().with_failure(Failure {
            at: SimTime(40.0),
            restore_after: 20.0,
            site: Some(SiteId(1)),
        });
        let (mut eng, dc1, _dc2, _w) = stateful_failure_setup(script, EngineConfig::default());
        eng.run(100.0);
        let snap = eng.snapshot();
        assert!(snap.events.iter().any(|e| matches!(
            e,
            FailureEvent::SiteDown { site, .. } if *site == dc1
        )));
        assert!(snap.events.iter().any(|e| matches!(
            e,
            FailureEvent::SiteRestored { site, .. } if *site == dc1
        )));
        // Events are drained: a second snapshot starts clean.
        let snap2 = eng.snapshot();
        assert!(snap2.events.is_empty());
    }

    #[test]
    fn link_blackout_from_script_throttles_the_stream() {
        // Blacking out edge→dc for 100 s must cut delivery during the
        // blackout and let it recover afterwards.
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let script = DynamicsScript::none().with_link_bandwidth(
            edge,
            dc,
            FactorSeries::steps(1.0, &[(100.0, 0.0), (200.0, 1.0)]),
        );
        let mut eng = engine_for(net, script, plan, dc);
        eng.run(300.0);
        let m = eng.metrics();
        let during: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 110.0 && r.t <= 190.0)
            .map(|r| r.delivered)
            .sum();
        let after: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 210.0 && r.t <= 290.0)
            .map(|r| r.delivered)
            .sum();
        assert!(during < 1.0, "no delivery through a black link: {during}");
        assert!(after > 1000.0, "delivery must resume: {after}");
    }

    // ----- lossy control plane ---------------------------------------

    fn lossy_engine(loss: f64) -> (Engine, SiteId, SiteId) {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        eng.enable_lossy_control(LossyControlConfig {
            loss,
            ..LossyControlConfig::default()
        });
        (eng, edge, dc)
    }

    fn envelope(id: u64, epoch: u64, cmd: Command) -> CommandEnvelope<Command> {
        CommandEnvelope {
            id,
            epoch,
            plan_version: 0,
            label: format!("cmd-{id}"),
            sent_s: 0.0,
            payload: cmd,
        }
    }

    fn reassign_to(site: SiteId) -> Command {
        Command::Redeploy {
            op: OpId(1),
            placement: Placement::single(site, 1),
            transfers: vec![],
            skip_state: false,
        }
    }

    #[test]
    fn oracle_mode_has_no_control_plane() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        assert!(!eng.control_enabled());
        assert_eq!(eng.control_epoch(), 0);
        assert_eq!(eng.controller_site(), None);
        assert_eq!(eng.plan_version(), 0);
        eng.apply(reassign_to(edge)).unwrap();
        assert_eq!(eng.plan_version(), 1, "accepted redeploy bumps version");
        let (hbs, acks) = eng.drain_control();
        assert!(hbs.is_empty() && acks.is_empty());
    }

    #[test]
    fn oracle_mode_submit_returns_an_error() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let mut eng = engine_for(net, DynamicsScript::none(), plan, dc);
        assert_eq!(
            eng.submit(envelope(1, 1, reassign_to(edge))),
            Err(EngineError::ControlPlaneDisabled)
        );
        // Nothing was queued or applied.
        eng.run(2.0);
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![dc]);
        assert_eq!(eng.plan_version(), 0);
        assert_eq!(eng.control_epoch(), 0);
    }

    #[test]
    fn lossless_submit_applies_after_delivery_delay() {
        let (mut eng, edge, dc) = lossy_engine(0.0);
        assert_eq!(eng.controller_site(), Some(dc), "sink host is controller");
        eng.submit(envelope(1, 1, reassign_to(edge))).unwrap();
        // Not applied synchronously: the command is on the wire.
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![dc]);
        eng.run(2.0);
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![edge]);
        assert_eq!(eng.control_epoch(), 1);
        assert_eq!(eng.plan_version(), 1);
        // The ack (and heartbeats) make it back to the controller.
        let (hbs, acks) = eng.drain_control();
        assert!(!hbs.is_empty(), "heartbeats flow in lossless mode");
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].id, 1);
        assert_eq!(acks[0].outcome, AckOutcome::Applied);
    }

    #[test]
    fn full_loss_never_delivers_commands() {
        let (mut eng, edge, dc) = lossy_engine(1.0);
        eng.submit(envelope(1, 1, reassign_to(edge))).unwrap();
        eng.run(60.0);
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![dc]);
        assert_eq!(eng.control_epoch(), 0);
        let (hbs, acks) = eng.drain_control();
        // Only the controller's own (local, loss-exempt) heartbeats
        // survive total loss.
        assert!(
            hbs.iter().all(|h| h.site == dc),
            "remote heartbeats dropped at loss=1: {hbs:?}"
        );
        assert!(acks.is_empty(), "no deliveries, no acks");
    }

    #[test]
    fn stale_epoch_command_is_fenced_not_applied() {
        let (mut eng, edge, dc) = lossy_engine(0.0);
        eng.submit(envelope(2, 3, reassign_to(edge))).unwrap();
        eng.run(2.0);
        assert_eq!(eng.control_epoch(), 3);
        eng.run(15.0); // let the transition finish
                       // A delayed pre-failure command from epoch 1 arrives late: it
                       // must not clobber the epoch-3 placement.
        eng.submit(envelope(3, 1, reassign_to(dc))).unwrap();
        eng.run(2.0);
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![edge]);
        assert_eq!(eng.stale_rejections(), 1);
        let (_, acks) = eng.drain_control();
        let stale = acks.iter().find(|a| a.id == 3).expect("stale ack");
        assert!(matches!(
            stale.outcome,
            AckOutcome::Stale {
                engine_epoch: 3,
                ..
            }
        ));
        // The fencing rejection surfaces as EngineError::StaleEpoch in
        // the rendered detail.
        assert!(EngineError::StaleEpoch {
            cmd_epoch: 1,
            engine_epoch: 3
        }
        .to_string()
        .contains("stale controller epoch"));
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let (mut eng, edge, _dc) = lossy_engine(0.0);
        eng.submit(envelope(7, 1, reassign_to(edge))).unwrap();
        eng.run(2.0);
        assert_eq!(eng.physical().placement(OpId(1)).sites(), vec![edge]);
        eng.run(15.0);
        // The controller re-sends the same command id (an ack-timeout
        // retry whose original did land). It must not re-apply.
        eng.submit(envelope(7, 1, reassign_to(edge))).unwrap();
        eng.run(2.0);
        let (_, acks) = eng.drain_control();
        let dup = acks.iter().find(|a| a.outcome == AckOutcome::Duplicate);
        assert!(dup.is_some(), "redelivery acked as duplicate: {acks:?}");
        assert_eq!(eng.plan_version(), 1, "applied exactly once");
    }

    #[test]
    fn rejected_command_does_not_advance_plan_version() {
        let (mut eng, edge, _dc) = lossy_engine(0.0);
        // Sources are immovable: the engine refuses the command but
        // the delivery still acks with the domain error.
        eng.submit(envelope(
            9,
            1,
            Command::Redeploy {
                op: OpId(0),
                placement: Placement::single(edge, 1),
                transfers: vec![],
                skip_state: false,
            },
        ))
        .unwrap();
        eng.run(2.0);
        assert_eq!(eng.plan_version(), 0);
        assert_eq!(eng.control_epoch(), 1, "epoch advances on acceptance");
        let (_, acks) = eng.drain_control();
        assert!(
            matches!(&acks[0].outcome, AckOutcome::Rejected { error } if error.contains("cannot move"))
        );
    }

    #[test]
    fn heartbeats_stop_while_a_site_is_failed() {
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let script = DynamicsScript::none().with_failure(Failure {
            at: SimTime(30.0),
            restore_after: 40.0,
            site: Some(edge),
        });
        let mut eng = engine_for(net, script, plan, dc);
        eng.enable_lossy_control(LossyControlConfig::default());
        eng.run(60.0);
        let (hbs, _) = eng.drain_control();
        let edge_hbs: Vec<f64> = hbs
            .iter()
            .filter(|h| h.site == edge)
            .map(|h| h.sent_s)
            .collect();
        assert!(
            edge_hbs.iter().all(|&t| !(30.0..70.0).contains(&t)),
            "failed site must be silent: {edge_hbs:?}"
        );
        assert!(!edge_hbs.is_empty(), "heartbeats before the failure");
        // The controller-site heartbeat stream continues throughout.
        assert!(hbs.iter().filter(|h| h.site == dc).count() >= 10);
    }

    #[test]
    fn dynamics_transitions_are_emitted_at_their_ticks() {
        // A straggler compute series on the DC, a global-workload step
        // and a bandwidth step, with telemetry attached only at tick
        // 37 (t = 9.25): the first observed tick compares against the
        // 1.0 defaults, sub-1 % moves are absorbed, and a later move
        // is measured against the absorbed value.
        let (net, edge, dc) = world(10.0);
        let plan = linear_plan(edge, 1000.0, 5.0);
        let script = DynamicsScript::none()
            .with_straggler(
                dc,
                FactorSeries::from_samples(4.0, vec![1.0, 0.5, 0.5, 0.25, 1.0, 1.0]),
            )
            .with_global_workload(FactorSeries::steps(1.0, &[(5.0, 2.0), (25.0, 1.0)]))
            .with_bandwidth(FactorSeries::steps(
                0.5,
                &[(14.0, 0.3), (20.0, 0.302), (22.0, 0.31)],
            ));
        let physical = PhysicalPlan::initial(&plan, dc);
        let cfg = EngineConfig {
            dt: 0.25,
            ..EngineConfig::default()
        };
        let mut eng = Engine::new(net, script, plan, physical, cfg).unwrap();
        for _ in 0..37 {
            eng.step();
        }
        let (tel, handle) = Telemetry::recording();
        eng.set_telemetry(tel);
        eng.run(40.0);
        let got: Vec<(f64, String, f64)> = handle
            .recording()
            .events()
            .filter_map(|(t, _, e)| match e {
                TelEvent::DynamicsTransition { what, factor } => Some((t, what.clone(), *factor)),
                _ => None,
            })
            .collect();
        let want = [
            (9.25, "workload@edge", 2.0),
            (9.25, "compute@site-1", 0.5),
            (12.0, "compute@site-1", 0.25),
            (14.0, "bandwidth", 0.3),
            (16.0, "compute@site-1", 1.0),
            (22.0, "bandwidth", 0.31),
            (25.0, "workload@edge", 1.0),
        ]
        .map(|(t, what, f)| (t, what.to_string(), f));
        assert_eq!(got, want);
    }
}
