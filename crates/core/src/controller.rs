//! Adaptation controllers: WASP and the paper's baselines.
//!
//! A [`Controller`] is invoked once per monitoring interval (the paper
//! used 40 s, §8.2) with mutable access to the engine — the role of
//! the Reconfiguration Manager in Fig. 3. Shipping controllers:
//!
//! * [`WaspController`] — the full §6 policy (and, via
//!   [`PolicyConfig`] flags, the `Re-assign` / `Scale` / `Re-plan`
//!   single-technique variants of §8.5);
//! * [`NoAdaptController`] — never adapts;
//! * [`DegradeController`] — drops late events against an SLO instead
//!   of adapting (the degradation baseline).

use crate::controlplane::{ControlPlaneMetrics, ControlPlaneStats, LossyControl, TruthOutage};
use crate::diagnose::{diagnose_with_history, DiagnosisConfig, Health};
use crate::estimator::WorkloadEstimate;
use crate::policy::{Action, Policy, PolicyConfig};
use crate::replanner::{GenericReplanner, QueryReplanner};
use wasp_controlplane::channel::{AckOutcome, CommandEnvelope};
use wasp_controlplane::config::ControlPlaneConfig;
use wasp_controlplane::detector::DetectorEvent;
use wasp_metrics::{Counter, Gauge, Histogram, MetricsHub};
use wasp_streamsim::engine::{Command, Engine};
use wasp_streamsim::metrics::{FailureEvent, QuerySnapshot};
use wasp_telemetry::{Event as TelEvent, RejectReason, Telemetry};

/// A reconfiguration manager driven by monitoring rounds.
pub trait Controller {
    /// Display name (used in experiment reports).
    fn name(&self) -> &str;

    /// Called once per monitoring interval.
    fn on_monitor(&mut self, engine: &mut Engine);

    /// The bandwidth headroom α in force, for controllers that have
    /// one (tuned or fixed); `None` for the static baselines.
    fn alpha(&self) -> Option<f64> {
        None
    }
}

/// Runs an engine under a controller for `duration_s`, invoking the
/// controller every `interval_s` of simulated time.
pub fn run_controlled(
    engine: &mut Engine,
    controller: &mut dyn Controller,
    duration_s: f64,
    interval_s: f64,
) {
    let end = engine.now().secs() + duration_s;
    while engine.now().secs() < end - 1e-9 {
        let chunk = interval_s.min(end - engine.now().secs());
        engine.run(chunk);
        if engine.now().secs() < end - 1e-9 {
            controller.on_monitor(engine);
        }
    }
}

/// The static baseline: never adapts (the paper's `No Adapt`).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoAdaptController;

impl Controller for NoAdaptController {
    fn name(&self) -> &str {
        "No Adapt"
    }

    fn on_monitor(&mut self, _engine: &mut Engine) {}
}

/// The degradation baseline: drop events that would miss the SLO
/// (§8.4 used a 10 s SLO). Never re-optimizes.
#[derive(Debug, Clone, Copy)]
pub struct DegradeController {
    slo_s: f64,
    armed: bool,
}

impl DegradeController {
    /// Creates the baseline with the given SLO in seconds.
    pub fn new(slo_s: f64) -> DegradeController {
        DegradeController {
            slo_s,
            armed: false,
        }
    }
}

impl Controller for DegradeController {
    fn name(&self) -> &str {
        "Degrade"
    }

    fn on_monitor(&mut self, engine: &mut Engine) {
        if !self.armed {
            engine
                .apply(Command::SetDropSlo(Some(self.slo_s)))
                .expect("setting the drop SLO cannot fail");
            self.armed = true;
        }
    }
}

/// Pre-registered derived-SLO instruments for the controller.
///
/// All handles are resolved once in [`WaspController::with_metrics`]
/// so the per-round cost is a handful of `Cell` stores; when the hub
/// is disabled the handles are no-ops and nothing is registered.
#[derive(Debug)]
struct ControllerMetrics {
    /// Monitoring rounds executed (including emergency rounds).
    rounds: Counter,
    /// Successfully applied normal-path adaptation commands.
    actions: Counter,
    /// Successfully applied emergency re-assignments.
    emergency_actions: Counter,
    /// End-to-end delivery delay quantiles over the whole run so far,
    /// refreshed every round from the engine's streaming histogram.
    delay_p50: Gauge,
    delay_p95: Gauge,
    delay_p99: Gauge,
    /// Adaptation lag: seconds from an observed site failure to the
    /// first successful emergency re-assignment (or to the site's
    /// restoration, when the failure healed on its own first).
    adaptation_lag: Histogram,
}

impl ControllerMetrics {
    fn build(hub: &MetricsHub) -> ControllerMetrics {
        const SLO_HELP: &str = "End-to-end delivery delay quantile over the run so far";
        ControllerMetrics {
            rounds: hub.counter(
                "wasp_controller_rounds_total",
                "Monitoring rounds executed by the controller",
                &[],
            ),
            actions: hub.counter(
                "wasp_controller_actions_total",
                "Adaptation commands successfully applied on the normal path",
                &[],
            ),
            emergency_actions: hub.counter(
                "wasp_controller_emergency_actions_total",
                "Emergency re-assignments successfully applied after site failures",
                &[],
            ),
            delay_p50: hub.gauge("wasp_slo_delay_seconds", SLO_HELP, &[("quantile", "0.50")]),
            delay_p95: hub.gauge("wasp_slo_delay_seconds", SLO_HELP, &[("quantile", "0.95")]),
            delay_p99: hub.gauge("wasp_slo_delay_seconds", SLO_HELP, &[("quantile", "0.99")]),
            adaptation_lag: hub.histogram(
                "wasp_adaptation_lag_seconds",
                "Seconds from an observed site failure to the first successful \
                 emergency re-assignment (or restoration) resolving it",
                &[],
            ),
        }
    }
}

/// The WASP adaptation controller (§6): monitors, estimates the actual
/// workload, diagnoses, and applies the policy's decision.
pub struct WaspController {
    policy: Policy,
    diagnosis_cfg: DiagnosisConfig,
    replanner: Box<dyn QueryReplanner>,
    label: String,
    /// Per-source unsent backlog at the previous round (for the
    /// growth-gated lag check).
    source_backlogs: std::collections::BTreeMap<wasp_streamsim::ids::OpId, f64>,
    /// Background re-planning period for long-term dynamics (§6.2),
    /// if enabled.
    periodic_replan_s: Option<f64>,
    last_periodic_replan_s: f64,
    /// Automatic α tuning (the paper's stated future work), if
    /// enabled.
    alpha_tuner: Option<crate::tuning::AlphaTuner>,
    /// Per-operator cooldown expiry (sim seconds): no further
    /// emergency re-assignment of that operator before this time, so
    /// a flapping site cannot bounce an operator back and forth.
    emergency_cooldowns: std::collections::BTreeMap<wasp_streamsim::ids::OpId, f64>,
    /// Earliest sim time of the next emergency attempt after a failed
    /// `engine.apply` (exponential backoff).
    emergency_next_attempt_s: f64,
    /// Current backoff delay, doubled on every failed attempt.
    emergency_backoff_s: f64,
    /// Telemetry handle; shared with the policy so controller spans
    /// and policy audit events interleave in one log.
    tel: Telemetry,
    /// Derived SLO/adaptation instruments (`None` when no recording
    /// hub was attached).
    cm: Option<ControllerMetrics>,
    /// Site failures observed but not yet resolved by a successful
    /// emergency action or a restoration: `(site, observed_at_s)`.
    pending_failures: Vec<(wasp_netsim::site::SiteId, f64)>,
    /// Adaptation-lag samples not yet handed to the engine's xray
    /// recorder (accumulated where no `&mut Engine` is in scope).
    xray_lags: Vec<f64>,
    /// Lossy-control-plane state (`None` in oracle mode, the default).
    lossy: Option<LossyControl>,
    /// Hub retained so the control-plane instruments can be resolved
    /// lazily on the first lossy round, whatever the builder order.
    hub: MetricsHub,
}

/// Initial emergency-retry backoff; shorter than a monitoring
/// interval, so the first retry happens on the very next round.
const EMERGENCY_BACKOFF_INITIAL_S: f64 = 5.0;
/// Backoff ceiling (≈ 8 monitoring rounds at the paper's 40 s).
const EMERGENCY_BACKOFF_MAX_S: f64 = 320.0;

impl std::fmt::Debug for WaspController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaspController")
            .field("label", &self.label)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl WaspController {
    /// Full WASP with the paper's defaults and the generic physical
    /// replanner.
    pub fn new(cfg: PolicyConfig) -> WaspController {
        WaspController::with_replanner(cfg, Box::new(GenericReplanner::new()))
    }

    /// Full WASP with a custom replanner (e.g. the join-order
    /// replanner for join queries).
    pub fn with_replanner(cfg: PolicyConfig, replanner: Box<dyn QueryReplanner>) -> WaspController {
        let label = match (cfg.allow_reassign, cfg.allow_scale, cfg.allow_replan) {
            (true, true, true) => "WASP",
            (true, false, false) => "Re-assign",
            (true, true, false) => "Scale",
            (false, false, true) => "Re-plan",
            _ => "WASP (custom)",
        }
        .to_string();
        WaspController {
            policy: Policy::new(cfg),
            diagnosis_cfg: DiagnosisConfig::default(),
            replanner,
            label,
            source_backlogs: std::collections::BTreeMap::new(),
            periodic_replan_s: None,
            last_periodic_replan_s: 0.0,
            alpha_tuner: None,
            emergency_cooldowns: std::collections::BTreeMap::new(),
            emergency_next_attempt_s: 0.0,
            emergency_backoff_s: EMERGENCY_BACKOFF_INITIAL_S,
            tel: Telemetry::disabled(),
            cm: None,
            pending_failures: Vec::new(),
            xray_lags: Vec::new(),
            lossy: None,
            hub: MetricsHub::disabled(),
        }
    }

    /// Attaches a telemetry sink to the controller *and* its policy:
    /// monitor-round spans, per-stage diagnoses, the decision audit
    /// trail, and command outcomes are all emitted into it.
    pub fn with_telemetry(mut self, tel: Telemetry) -> WaspController {
        self.policy.set_telemetry(tel.clone());
        self.tel = tel;
        self
    }

    /// Attaches a metrics hub: every round the controller refreshes
    /// the derived SLO gauges (p50/p95/p99 delivery delay) and counts
    /// rounds/actions; site failures feed the adaptation-lag
    /// histogram. A disabled hub registers nothing and costs nothing.
    pub fn with_metrics(mut self, hub: MetricsHub) -> WaspController {
        self.cm = hub.is_enabled().then(|| ControllerMetrics::build(&hub));
        self.hub = hub;
        self
    }

    /// Selects the control-plane mode. [`ControlPlaneConfig::Oracle`]
    /// (the default) leaves the controller reading truth failure state
    /// from snapshots and applying commands synchronously — the exact
    /// pre-control-plane behaviour. [`ControlPlaneConfig::Lossy`]
    /// switches the controller to heartbeat-based failure detection
    /// and fenced, retried command submission; the paired engine must
    /// have [`Engine::enable_lossy_control`] called with the same
    /// config.
    pub fn with_control_plane(mut self, cfg: ControlPlaneConfig) -> WaspController {
        self.lossy = match cfg {
            ControlPlaneConfig::Oracle => None,
            ControlPlaneConfig::Lossy(lossy_cfg) => Some(LossyControl::new(lossy_cfg)),
        };
        self
    }

    /// Detector-accuracy and command-channel counters for the lossy
    /// control plane (`None` in oracle mode).
    pub fn control_stats(&self) -> Option<&ControlPlaneStats> {
        self.lossy.as_ref().map(|l| &l.stats)
    }

    /// The controller's current fencing epoch (`None` in oracle mode).
    pub fn control_epoch(&self) -> Option<u64> {
        self.lossy.as_ref().map(|l| l.epoch)
    }

    /// The lossy-control-plane knobs in force (`None` in oracle mode).
    pub fn control_config(&self) -> Option<&wasp_controlplane::config::LossyControlConfig> {
        self.lossy.as_ref().map(|l| &l.cfg)
    }

    /// Enables automatic α tuning: quick re-adaptations lower α (more
    /// headroom), long stable streaks raise it (better utilization).
    pub fn with_adaptive_alpha(mut self) -> WaspController {
        self.alpha_tuner = Some(crate::tuning::AlphaTuner::starting_at(
            self.policy.config().alpha,
        ));
        self
    }

    /// The α currently in force (tuned or fixed).
    pub fn current_alpha(&self) -> f64 {
        self.policy.config().alpha
    }

    /// Enables periodic *background* re-planning every `period_s`
    /// seconds of simulated time — the paper's answer to long-term,
    /// predictable dynamics such as daily workload shifts (§6.2):
    /// even a healthy query is periodically re-evaluated against the
    /// current environment.
    pub fn with_periodic_replan(mut self, period_s: f64) -> WaspController {
        self.periodic_replan_s = Some(period_s);
        self
    }

    /// The §8.5 `Re-assign` variant of `base`: only task
    /// re-assignment.
    pub fn reassign_only(base: PolicyConfig) -> WaspController {
        WaspController::new(PolicyConfig {
            allow_scale: false,
            allow_replan: false,
            scale_down: false,
            ..base
        })
    }

    /// The §8.5 `Scale` variant of `base`: re-assignment first,
    /// scaling when no placement exists (and gradual scale-down).
    pub fn scale_only(base: PolicyConfig) -> WaspController {
        WaspController::new(PolicyConfig {
            allow_replan: false,
            ..base
        })
    }

    /// The §8.5 `Re-plan` variant of `base`: whole-pipeline
    /// re-planning only, never changing parallelism.
    pub fn replan_only(base: PolicyConfig) -> WaspController {
        WaspController::new(PolicyConfig {
            allow_reassign: false,
            allow_scale: false,
            scale_down: false,
            ..base
        })
    }

    /// Access to the policy (e.g. capacity estimates) for inspection.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Per-round metric refresh: the rounds counter, the derived SLO
    /// delay gauges, and the pending-failure ledger that feeds the
    /// adaptation-lag histogram. A no-op without an attached hub.
    fn observe_round_metrics(
        &mut self,
        engine: &Engine,
        snap: &wasp_streamsim::metrics::QuerySnapshot,
    ) {
        if let Some(cm) = &self.cm {
            cm.rounds.inc();
            let m = engine.metrics();
            if let Some(p50) = m.delay_quantile(0.5) {
                cm.delay_p50.set(p50);
            }
            if let Some(p95) = m.delay_quantile(0.95) {
                cm.delay_p95.set(p95);
            }
            if let Some(p99) = m.delay_quantile(0.99) {
                cm.delay_p99.set(p99);
            }
        }
        // The failure ledger feeds both the adaptation-lag histogram
        // and (when attribution is on) the xray adaptation record.
        if self.cm.is_none() && !engine.xray_enabled() {
            return;
        }
        for ev in &snap.events {
            match ev {
                FailureEvent::SiteDown { site, at }
                    if !self.pending_failures.iter().any(|(s, _)| s == site) =>
                {
                    self.pending_failures.push((*site, at.secs()));
                }
                FailureEvent::SiteRestored { site, at } => {
                    // The failure healed before (or without) an
                    // emergency action: the lag is down→restored.
                    if let Some(pos) = self.pending_failures.iter().position(|(s, _)| s == site) {
                        let (_, down_at) = self.pending_failures.remove(pos);
                        let lag = (at.secs() - down_at).max(0.0);
                        if let Some(cm) = &self.cm {
                            cm.adaptation_lag.observe(lag, 1.0);
                        }
                        if engine.xray_enabled() {
                            self.xray_lags.push(lag);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The emergency re-assignment path (§8.6's failure reaction):
    /// re-solves placement over surviving slots for every operator
    /// with tasks on a failed site and applies the moves, with
    /// exponential backoff after failed applies and a per-operator
    /// cooldown so flapping sites cannot cause oscillation.
    fn handle_failures(
        &mut self,
        engine: &mut Engine,
        snap: &wasp_streamsim::metrics::QuerySnapshot,
    ) {
        let now = engine.now().secs();
        if now < self.emergency_next_attempt_s {
            // Backing off after failed recovery attempts.
            let until_s = self.emergency_next_attempt_s;
            self.tel.emit(now, || TelEvent::CandidateRejected {
                action: "emergency re-assign".into(),
                op: None,
                reason: RejectReason::BackoffActive { until_s },
            });
            return;
        }
        let plan = engine.plan().clone();
        self.policy.observe(&plan, snap);
        let est = WorkloadEstimate::from_snapshot(&plan, snap);
        let replay = Self::replay_estimates(engine, &plan);
        let actions = self.policy.emergency_actions_with_replay(
            &plan,
            snap,
            &est,
            engine.network(),
            engine.now(),
            &replay,
        );
        let mut any_failed = false;
        let mut any_applied = false;
        for (op, action) in actions {
            // Cooldown: an operator just moved off a flapping site
            // stays put until the cooldown expires, even if the site
            // fails again in the meantime.
            let cooled_until = self.emergency_cooldowns.get(&op).copied().unwrap_or(0.0);
            if now < cooled_until {
                self.tel.emit(now, || TelEvent::CandidateRejected {
                    action: "emergency re-assign".into(),
                    op: Some(op.0),
                    reason: RejectReason::CooldownActive {
                        until_s: cooled_until,
                    },
                });
                continue;
            }
            match engine.apply(action.command) {
                Ok(()) => {
                    any_applied = true;
                    self.tel.emit(now, || TelEvent::CommandApplied {
                        label: action.label.clone(),
                    });
                    engine.annotate(action.label);
                    self.emergency_cooldowns
                        .insert(op, now + self.policy.config().emergency_cooldown_s);
                }
                Err(err) => {
                    self.tel.emit(now, || TelEvent::CommandFailed {
                        label: action.label.clone(),
                        error: err.to_string(),
                    });
                    engine.annotate(format!("{} failed: {err}", action.label));
                    any_failed = true;
                }
            }
        }
        if any_applied {
            if let Some(cm) = &self.cm {
                cm.emergency_actions.inc();
            }
            // The query is re-routed around every failed site at
            // once, so one successful emergency round resolves
            // all pending failures.
            for (_, down_at) in self.pending_failures.drain(..) {
                let lag = (now - down_at).max(0.0);
                if let Some(cm) = &self.cm {
                    cm.adaptation_lag.observe(lag, 1.0);
                }
                engine.xray_note_adaptation_lag(lag);
            }
        }
        if any_failed {
            self.emergency_next_attempt_s = now + self.emergency_backoff_s;
            self.emergency_backoff_s =
                (self.emergency_backoff_s * 2.0).min(EMERGENCY_BACKOFF_MAX_S);
        } else {
            self.emergency_backoff_s = EMERGENCY_BACKOFF_INITIAL_S;
        }
    }

    /// Drops cooldown entries that expired or whose operator is no
    /// longer in the active plan (a plan switch renumbers operators),
    /// so the map cannot grow without bound across re-plans and a
    /// stale entry cannot block an unrelated operator of the new plan.
    fn prune_emergency_cooldowns(&mut self, now: f64, plan_len: usize) {
        self.emergency_cooldowns
            .retain(|op, until| *until > now && op.index() < plan_len);
    }

    /// First-round setup of the lossy control plane: registers every
    /// site at the detector (heartbeats have been flowing since t=0)
    /// and resolves metric instruments if a hub is attached.
    fn ensure_lossy_init(&mut self, engine: &Engine) {
        let lossy = self.lossy.as_mut().expect("lossy mode");
        if lossy.initialized {
            return;
        }
        lossy.initialized = true;
        for site in engine.network().topology().site_ids() {
            lossy.detector.register(site, 0.0);
        }
        if self.hub.is_enabled() && lossy.cpm.is_none() {
            lossy.cpm = Some(ControlPlaneMetrics::build(&self.hub));
        }
    }

    /// Wraps an action into a fenced envelope, hands it to the lossy
    /// channel, and starts tracking it for ack-timeout retries.
    fn dispatch_lossy(&mut self, engine: &mut Engine, action: Action, now: f64) {
        let plan_version = engine.plan_version();
        let lossy = self.lossy.as_mut().expect("lossy mode");
        let env = CommandEnvelope {
            id: lossy.next_id,
            epoch: lossy.epoch,
            plan_version,
            label: action.label,
            sent_s: now,
            payload: action.command,
        };
        lossy.next_id += 1;
        lossy.stats.enqueued += 1;
        self.tel.emit(now, || TelEvent::ControlCommandEnqueued {
            id: env.id,
            label: env.label.clone(),
            epoch: env.epoch,
            plan_version: env.plan_version,
        });
        lossy.retry.track(env.clone(), now);
        Self::submit_or_note(&self.tel, engine, env, now);
    }

    /// Hands `env` to the engine's lossy channel. An engine without one
    /// (oracle mode) cannot carry it: the drop is recorded like a
    /// network loss, and the retry track abandons the command once its
    /// attempts run out.
    fn submit_or_note(
        tel: &Telemetry,
        engine: &mut Engine,
        env: CommandEnvelope<Command>,
        now: f64,
    ) {
        let (id, label) = (env.id, env.label.clone());
        if let Err(e) = engine.submit(env) {
            tel.emit(now, || TelEvent::ControlCommandDropped {
                id,
                label,
                stage: "command".into(),
                cause: e.to_string(),
            });
        }
    }

    /// Processes the acks that survived the trip back: resolves or
    /// re-arms retry tracks and attributes applied commands to the
    /// emergency/normal action counters.
    fn process_acks(&mut self, acks: Vec<wasp_controlplane::channel::CommandAck>, now: f64) {
        for ack in acks {
            let rtt = (now - ack.submitted_s).max(0.0);
            self.tel.emit(now, || TelEvent::ControlAckReceived {
                id: ack.id,
                label: ack.label.clone(),
                applied: ack.outcome.applied(),
                rtt_s: rtt,
            });
            let lossy = self.lossy.as_mut().expect("lossy mode");
            if let Some(cpm) = &lossy.cpm {
                cpm.command_rtt.observe(rtt, 1.0);
            }
            match &ack.outcome {
                AckOutcome::Applied => {
                    lossy.stats.acked_applied += 1;
                    lossy.retry.resolve(ack.id);
                    if ack.label.starts_with("emergency") {
                        if let Some(cm) = &self.cm {
                            cm.emergency_actions.inc();
                        }
                        // One applied emergency command re-routes
                        // around every confirmed site at once. No
                        // engine in scope here: xray lags are flushed
                        // on the next monitor round.
                        for (_, down_at) in self.pending_failures.drain(..) {
                            let lag = (now - down_at).max(0.0);
                            if let Some(cm) = &self.cm {
                                cm.adaptation_lag.observe(lag, 1.0);
                            }
                            self.xray_lags.push(lag);
                        }
                    } else if let Some(cm) = &self.cm {
                        cm.actions.inc();
                    }
                }
                // Stale and duplicate outcomes are final: the plan the
                // command belonged to has been superseded, or the
                // command already took effect on an earlier delivery.
                AckOutcome::Duplicate | AckOutcome::Stale { .. } => {
                    lossy.retry.resolve(ack.id);
                }
                // A domain rejection (site gone, mid-transition, …) is
                // retried with backoff: the condition may clear.
                AckOutcome::Rejected { .. } => {
                    lossy.retry.nack(ack.id, now);
                }
            }
        }
    }

    /// Re-sends commands whose ack timed out; abandons commands whose
    /// retry budget ran out or whose plan has been superseded.
    fn poll_retries(&mut self, engine: &mut Engine, now: f64) {
        let plan_version = engine.plan_version();
        let lossy = self.lossy.as_mut().expect("lossy mode");
        let decision = lossy.retry.poll(now);
        for (env, attempts) in decision.expired {
            lossy.stats.gave_up += 1;
            if let Some(cpm) = &lossy.cpm {
                cpm.gave_up.inc();
            }
            self.tel.emit(now, || TelEvent::ControlGaveUp {
                id: env.id,
                label: env.label.clone(),
                attempts,
                reason: "retry budget exhausted".into(),
            });
        }
        for (env, attempt) in decision.retry {
            if env.plan_version != plan_version {
                // The plan moved on since this command was decided;
                // re-sending it would only be fenced or mis-applied.
                lossy.retry.abandon(env.id);
                lossy.stats.gave_up += 1;
                if let Some(cpm) = &lossy.cpm {
                    cpm.gave_up.inc();
                }
                self.tel.emit(now, || TelEvent::ControlGaveUp {
                    id: env.id,
                    label: env.label.clone(),
                    attempts: attempt,
                    reason: "plan changed since submission".into(),
                });
                continue;
            }
            lossy.stats.retries += 1;
            if let Some(cpm) = &lossy.cpm {
                cpm.retries.inc();
            }
            self.tel.emit(now, || TelEvent::ControlRetry {
                id: env.id,
                label: env.label.clone(),
                attempt,
            });
            Self::submit_or_note(&self.tel, engine, env, now);
        }
    }

    /// The engine's modeled recovery-replay estimates (`op → seconds`,
    /// base snapshot plus delta chain at the replay bandwidth) for the
    /// emergency audit trail. Empty unless delta-chain compaction
    /// modeling is on, so the audit output is unchanged otherwise.
    fn replay_estimates(
        engine: &Engine,
        plan: &wasp_streamsim::plan::LogicalPlan,
    ) -> std::collections::BTreeMap<wasp_streamsim::ids::OpId, f64> {
        plan.op_ids()
            .filter_map(|op| engine.recovery_replay_estimate(op).map(|s| (op, s)))
            .collect()
    }

    /// The emergency path driven by *detector* verdicts instead of
    /// truth state. No global backoff gate: the per-command retry
    /// machinery owns re-sends, and the per-operator cooldown (started
    /// at enqueue time) stops new decisions from bouncing an operator
    /// while its first command is still in flight.
    fn handle_failures_lossy(&mut self, engine: &mut Engine, view: &QuerySnapshot) {
        let now = engine.now().secs();
        let plan = engine.plan().clone();
        self.policy.observe(&plan, view);
        let est = WorkloadEstimate::from_snapshot(&plan, view);
        let replay = Self::replay_estimates(engine, &plan);
        let actions = self.policy.emergency_actions_with_replay(
            &plan,
            view,
            &est,
            engine.network(),
            engine.now(),
            &replay,
        );
        for (op, action) in actions {
            let cooled_until = self.emergency_cooldowns.get(&op).copied().unwrap_or(0.0);
            if now < cooled_until {
                self.tel.emit(now, || TelEvent::CandidateRejected {
                    action: "emergency re-assign".into(),
                    op: Some(op.0),
                    reason: RejectReason::CooldownActive {
                        until_s: cooled_until,
                    },
                });
                continue;
            }
            self.emergency_cooldowns
                .insert(op, now + self.policy.config().emergency_cooldown_s);
            self.dispatch_lossy(engine, action, now);
        }
    }

    /// One lossy monitoring round: drain the control channel, feed the
    /// detector, score it against truth (measurement only), settle
    /// acks and retries, then decide on the *detector's* view of the
    /// world — `snap.failed_sites` and the oracle failure events are
    /// never consulted for decisions.
    fn on_monitor_lossy(&mut self, engine: &mut Engine) {
        let tel = self.tel.clone();
        let now = engine.now().secs();
        let round = tel.span_begin(now, "monitor-round");
        self.prune_emergency_cooldowns(now, engine.plan().len());
        self.ensure_lossy_init(engine);
        // A fresh epoch per round: anything still in flight from an
        // earlier round is stale the moment this round decides.
        self.lossy.as_mut().expect("lossy mode").epoch += 1;
        let (heartbeats, acks) = engine.drain_control();
        for hb in heartbeats {
            let cleared = self
                .lossy
                .as_mut()
                .expect("lossy mode")
                .detector
                .observe(hb.site, hb.arrived_s);
            if let Some(DetectorEvent::Cleared { site, .. }) = cleared {
                let name = engine.network().topology().site(site).name().to_string();
                tel.emit(now, || TelEvent::SiteCleared {
                    site: site.0 as u32,
                    name,
                });
            }
        }
        let snap = engine.snapshot();
        self.observe_round_metrics(engine, &snap);
        {
            let lossy = self.lossy.as_mut().expect("lossy mode");
            // Truth ledger first, so a failure confirmed in the same
            // round it happened is scored as a true confirmation.
            for ev in &snap.events {
                match ev {
                    FailureEvent::SiteDown { site, at } => {
                        lossy.truth_down.entry(*site).or_insert(TruthOutage {
                            down_at: at.secs(),
                            confirmed: false,
                        });
                    }
                    FailureEvent::SiteRestored { site, .. } => {
                        if let Some(outage) = lossy.truth_down.remove(site) {
                            if !outage.confirmed {
                                lossy.stats.false_negatives += 1;
                                if let Some(cpm) = &lossy.cpm {
                                    cpm.false_negatives.inc();
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            for dev in lossy.detector.evaluate(now) {
                match dev {
                    DetectorEvent::Suspected { site, phi, .. } => {
                        let name = engine.network().topology().site(site).name().to_string();
                        tel.emit(now, || TelEvent::SiteSuspected {
                            site: site.0 as u32,
                            name,
                            phi,
                        });
                    }
                    DetectorEvent::Confirmed { site, silent_s, .. } => {
                        let name = engine.network().topology().site(site).name().to_string();
                        tel.emit(now, || TelEvent::SiteConfirmedDown {
                            site: site.0 as u32,
                            name,
                            silent_s,
                        });
                        match lossy.truth_down.get_mut(&site) {
                            Some(outage) if !outage.confirmed => {
                                outage.confirmed = true;
                                let lag = (now - outage.down_at).max(0.0);
                                lossy.stats.true_confirmations += 1;
                                lossy.stats.detection_lags_s.push(lag);
                                if let Some(cpm) = &lossy.cpm {
                                    cpm.detector_lag.observe(lag, 1.0);
                                }
                            }
                            Some(_) => {}
                            None => {
                                lossy.stats.false_positives += 1;
                                if let Some(cpm) = &lossy.cpm {
                                    cpm.false_positives.inc();
                                }
                            }
                        }
                    }
                    DetectorEvent::Cleared { .. } => {}
                }
            }
        }
        self.process_acks(acks, now);
        self.poll_retries(engine, now);
        let confirmed = self
            .lossy
            .as_ref()
            .expect("lossy mode")
            .detector
            .confirmed();
        if !confirmed.is_empty() {
            let emergency = tel.span_begin(now, "emergency-round");
            let view = lossy_view(&snap, &confirmed);
            self.handle_failures_lossy(engine, &view);
            tel.span_end(now, emergency);
            tel.span_end(now, round);
            return;
        }
        if engine.in_transition() {
            tel.emit(now, || TelEvent::NoActionTaken {
                reason: "mid-transition: rates and slots not stable".into(),
            });
            tel.span_end(now, round);
            return;
        }
        let view = lossy_view(&snap, &confirmed);
        self.normal_round(engine, &view, &tel, now);
        tel.span_end(now, round);
    }
}

/// The snapshot as the lossy controller is allowed to see it: failure
/// state comes from the detector, failed sites offer no slots, and the
/// oracle failure events are stripped (they remain visible to the
/// *measurement* ledgers, which read the original snapshot).
fn lossy_view(snap: &QuerySnapshot, confirmed: &[wasp_netsim::site::SiteId]) -> QuerySnapshot {
    let mut view = snap.clone();
    view.failed_sites = confirmed.to_vec();
    for site in confirmed {
        view.free_slots.insert(*site, 0);
    }
    view.events.retain(|ev| {
        !matches!(
            ev,
            FailureEvent::SiteDown { .. } | FailureEvent::SiteRestored { .. }
        )
    });
    view
}

impl Controller for WaspController {
    fn name(&self) -> &str {
        &self.label
    }

    fn alpha(&self) -> Option<f64> {
        Some(self.current_alpha())
    }

    fn on_monitor(&mut self, engine: &mut Engine) {
        // Hand any adaptation-lag samples recorded without an engine
        // in scope to the xray recorder (no-op when xray is off).
        for lag in self.xray_lags.drain(..) {
            engine.xray_note_adaptation_lag(lag);
        }
        // Lossy control plane: failure knowledge comes from heartbeat
        // silence and commands go over the fenced, retried channel.
        if self.lossy.is_some() {
            self.on_monitor_lossy(engine);
            return;
        }
        let tel = self.tel.clone();
        let now = engine.now().secs();
        let round = tel.span_begin(now, "monitor-round");
        self.prune_emergency_cooldowns(now, engine.plan().len());
        let snap = engine.snapshot();
        self.observe_round_metrics(engine, &snap);
        // Failure-reactive path: tasks on a dead site process nothing,
        // so every round spent waiting for the site to come back adds
        // directly to recovery time. Move affected operators off the
        // dead sites now instead of skipping the round.
        if !snap.failed_sites.is_empty() {
            let emergency = tel.span_begin(now, "emergency-round");
            self.handle_failures(engine, &snap);
            tel.span_end(now, emergency);
            tel.span_end(now, round);
            return;
        }
        // Mid-transition rounds are skipped: rates are not meaningful
        // and slots are not stable.
        if engine.in_transition() {
            tel.emit(now, || TelEvent::NoActionTaken {
                reason: "mid-transition: rates and slots not stable".into(),
            });
            tel.span_end(now, round);
            return;
        }
        self.normal_round(engine, &snap, &tel, now);
        tel.span_end(now, round);
    }
}

impl WaspController {
    /// The bottleneck-driven decision round shared by both control
    /// planes (diagnosis → decision → apply/dispatch → α tuning →
    /// periodic re-plan). Only the command path differs: oracle mode
    /// applies synchronously, lossy mode enqueues a fenced envelope.
    fn normal_round(
        &mut self,
        engine: &mut Engine,
        snap: &QuerySnapshot,
        tel: &Telemetry,
        now: f64,
    ) {
        let snap = snap.clone();
        let plan = engine.plan().clone();
        self.policy.observe(&plan, &snap);
        let est = WorkloadEstimate::from_snapshot(&plan, &snap);
        let diagnosis_span = tel.span_begin(now, "diagnosis");
        let diag = diagnose_with_history(
            &plan,
            &snap,
            &est,
            self.policy.capacity_estimates(),
            &self.diagnosis_cfg,
            Some(&self.source_backlogs),
        );
        if tel.is_enabled() {
            for op in plan.op_ids() {
                let stage = snap.stage(op);
                let (health, severity) = match diag.per_op[op.index()] {
                    Health::Healthy => ("healthy", 0.0),
                    Health::ComputeConstrained { severity } => ("compute", severity),
                    Health::NetworkConstrained { severity } => ("network", severity),
                    Health::Overprovisioned { utilization } => ("overprovisioned", utilization),
                };
                tel.emit(now, || TelEvent::Diagnosis {
                    op: op.0,
                    name: stage.name.clone(),
                    health: health.to_string(),
                    severity,
                    lambda_i: stage.lambda_i,
                    lambda_p: stage.lambda_p,
                    lambda_o: stage.lambda_o,
                    sigma: stage.sigma,
                    queue_events: stage.queue_events,
                    backpressure: stage.backpressure,
                });
            }
            if let Some((op, health)) = diag.bottleneck {
                let label = match health {
                    Health::ComputeConstrained { .. } => "compute",
                    Health::NetworkConstrained { .. } => "network",
                    _ => "other",
                };
                tel.emit(now, || TelEvent::BottleneckPicked {
                    op: op.0,
                    name: snap.stage(op).name.clone(),
                    health: label.to_string(),
                });
            }
        }
        tel.span_end(now, diagnosis_span);
        for src in plan.sources() {
            self.source_backlogs
                .insert(src, snap.stage(src).queue_events);
        }
        let physical = engine.physical().clone();
        let decide_span = tel.span_begin(now, "decide");
        let action = self.policy.decide(
            &plan,
            &physical,
            &snap,
            &est,
            &diag,
            engine.network(),
            engine.now(),
            self.replanner.as_ref(),
        );
        match &action {
            Some(a) => tel.emit(now, || TelEvent::DecisionTaken {
                action: a.label.clone(),
                op: None,
            }),
            None => tel.emit(now, || TelEvent::NoActionTaken {
                reason: if diag.bottleneck.is_none() {
                    "no bottleneck diagnosed".into()
                } else {
                    "bottleneck diagnosed but every candidate was rejected".into()
                },
            }),
        }
        tel.span_end(now, decide_span);
        let acted = action.is_some();
        if let Some(action) = action {
            let apply_span = tel.span_begin(now, "apply");
            if self.lossy.is_some() {
                self.dispatch_lossy(engine, action, now);
            } else {
                match engine.apply(action.command) {
                    Ok(()) => {
                        if let Some(cm) = &self.cm {
                            cm.actions.inc();
                        }
                        tel.emit(now, || TelEvent::CommandApplied {
                            label: action.label.clone(),
                        });
                        engine.annotate(action.label);
                    }
                    Err(err) => {
                        tel.emit(now, || TelEvent::CommandFailed {
                            label: action.label.clone(),
                            error: err.to_string(),
                        });
                        engine.annotate(format!("{} failed: {err}", action.label));
                    }
                }
            }
            tel.span_end(now, apply_span);
        }
        if let Some(tuner) = &mut self.alpha_tuner {
            let alpha = tuner.on_round(acted);
            self.policy.set_alpha(alpha);
        }
        if acted {
            return;
        }
        // Long-term dynamics: periodically re-evaluate the plan in the
        // background even when no bottleneck is present (§6.2).
        if let Some(period) = self.periodic_replan_s {
            let now = engine.now().secs();
            if now - self.last_periodic_replan_s >= period {
                self.last_periodic_replan_s = now;
                if let Some(switch) = self.replanner.replan(
                    &plan,
                    engine.physical(),
                    &snap,
                    &est,
                    engine.network(),
                    engine.now(),
                    self.policy.config(),
                ) {
                    if self.lossy.is_some() {
                        let action = Action {
                            label: "periodic re-plan".into(),
                            command: Command::SwitchPlan(Box::new(switch)),
                        };
                        self.dispatch_lossy(engine, action, now);
                    } else {
                        match engine.apply(Command::SwitchPlan(Box::new(switch))) {
                            Ok(()) => {
                                if let Some(cm) = &self.cm {
                                    cm.actions.inc();
                                }
                                tel.emit(now, || TelEvent::CommandApplied {
                                    label: "periodic re-plan".into(),
                                });
                                engine.annotate("periodic re-plan");
                            }
                            Err(err) => {
                                tel.emit(now, || TelEvent::CommandFailed {
                                    label: "periodic re-plan".into(),
                                    error: err.to_string(),
                                });
                                engine.annotate(format!("periodic re-plan failed: {err}"));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;
    use wasp_netsim::dynamics::DynamicsScript;
    use wasp_netsim::trace::FactorSeries;
    use wasp_streamsim::prelude::*;

    /// Workload doubles at t=120: No-Adapt degrades, WASP recovers.
    fn doubled_workload_world() -> (DynamicsScript, f64) {
        (
            DynamicsScript::none().with_global_workload(FactorSeries::steps(1.0, &[(120.0, 2.0)])),
            600.0,
        )
    }

    #[test]
    fn wasp_resolves_compute_bottleneck_by_scaling_up() {
        // Filter capacity 1250 ev/s per task; workload 1000→2000 ev/s.
        let (script, dur) = doubled_workload_world();
        let (net, edge, dc) = two_site_world(100.0);
        let plan = linear_plan(edge, 1000.0, 800.0, 0.5);
        let mut eng = engine_with_script(net, plan, dc, script);
        let mut wasp = WaspController::new(PolicyConfig::default());
        run_controlled(&mut eng, &mut wasp, dur, 40.0);
        // Parallelism grew.
        assert!(
            eng.physical().parallelism(OpId(1)) >= 2,
            "filter parallelism {}",
            eng.physical().parallelism(OpId(1))
        );
        // And the query keeps up at the end (ratio ≈ 1 over the last
        // 100 s).
        let m = eng.metrics();
        let gen_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 500.0)
            .map(|r| r.generated)
            .sum();
        let del_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 500.0)
            .map(|r| r.delivered)
            .sum();
        assert!(
            del_late / (gen_late * 0.5) > 0.85,
            "late ratio {}",
            del_late / (gen_late * 0.5)
        );
        // The action was annotated.
        assert!(m.actions().iter().any(|(_, l)| l.contains("scale")));
    }

    #[test]
    fn wasp_resolves_network_bottleneck() {
        // 5000 ev/s × 100 B = 4 Mbps; edge→dc1 drops to 2 Mbps at
        // t=120 while edge→dc2 stays at 10 Mbps: WASP must move or
        // scale the filter away from the dead path.
        let (mut net, edge, dc1, dc2) = three_site_world(10.0);
        net.set_pair_factor(edge, dc1, FactorSeries::steps(1.0, &[(120.0, 0.2)]));
        let plan = linear_plan(edge, 5000.0, 5.0, 0.5);
        let mut eng = engine(net, plan, dc1);
        let mut wasp = WaspController::new(PolicyConfig::default());
        run_controlled(&mut eng, &mut wasp, 600.0, 40.0);
        let m = eng.metrics();
        // Some adaptation happened…
        assert!(
            m.actions().iter().any(|(_, l)| l.contains("re-assign")
                || l.contains("scale")
                || l.contains("re-plan")),
            "actions: {:?}",
            m.actions()
        );
        // …and the filter no longer sits (only) behind the degraded
        // link.
        let sites = eng.physical().placement(OpId(1)).sites();
        assert!(sites != vec![dc1], "filter still only at the degraded site");
        let _ = dc2;
        // Delivery keeps up late in the run.
        let gen_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 500.0)
            .map(|r| r.generated)
            .sum();
        let del_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 500.0)
            .map(|r| r.delivered)
            .sum();
        assert!(
            del_late / (gen_late * 0.5) > 0.8,
            "late ratio {}",
            del_late / (gen_late * 0.5)
        );
    }

    #[test]
    fn wasp_scales_down_after_load_drops() {
        // Workload spikes ×4 between t=120 and t=400, then returns to
        // baseline: WASP should scale up then reclaim tasks.
        let script = DynamicsScript::none()
            .with_global_workload(FactorSeries::steps(1.0, &[(120.0, 4.0), (400.0, 1.0)]));
        let (net, edge, dc) = two_site_world(100.0);
        let plan = linear_plan(edge, 1000.0, 800.0, 0.5);
        let mut eng = engine_with_script(net, plan, dc, script);
        let mut wasp = WaspController::new(PolicyConfig::default());
        run_controlled(&mut eng, &mut wasp, 1000.0, 40.0);
        let m = eng.metrics();
        let peak = m.ticks().iter().map(|r| r.total_tasks).max().unwrap();
        let final_tasks = m.ticks().last().unwrap().total_tasks;
        assert!(peak >= 4, "peak tasks {peak}"); // 3 base + scale-up
        assert!(
            final_tasks < peak,
            "should scale down: final {final_tasks} peak {peak}"
        );
        assert!(m.actions().iter().any(|(_, l)| l == "scale down"));
    }

    #[test]
    fn no_adapt_suffers_degrade_drops_wasp_keeps_all() {
        // The §8.4 contrast in miniature: double workload over a
        // saturating link.
        let run = |mk: &mut dyn Controller, slo: Option<f64>| {
            let (net, edge, dc) = two_site_world(6.0);
            let plan = linear_plan(edge, 5000.0, 5.0, 0.5);
            let physical = PhysicalPlan::initial(&plan, dc);
            let cfg = EngineConfig {
                drop_slo: slo,
                ..EngineConfig::default()
            };
            let script = DynamicsScript::none()
                .with_global_workload(FactorSeries::steps(1.0, &[(120.0, 2.0)]));
            let mut eng = Engine::new(net, script, plan, physical, cfg).unwrap();
            run_controlled(&mut eng, mk, 600.0, 40.0);
            let m = eng.metrics();
            (
                m.delay_quantile_between(500.0, 600.0, 0.5).unwrap_or(0.0),
                m.dropped_fraction(),
                m.total_delivered() / (m.total_generated() * 0.5),
            )
        };
        let (na_delay, na_drop, _na_ratio) = run(&mut NoAdaptController, None);
        let (dg_delay, dg_drop, dg_ratio) = run(&mut DegradeController::new(10.0), None);
        let (w_delay, w_drop, w_ratio) =
            run(&mut WaspController::new(PolicyConfig::default()), None);
        // No Adapt: no drops but huge delay.
        assert!(na_drop == 0.0 && na_delay > 50.0, "na {na_delay} {na_drop}");
        // Degrade: bounded delay but loses events.
        assert!(dg_delay < 15.0, "degrade delay {dg_delay}");
        assert!(dg_drop > 0.05 && dg_ratio < 0.98, "degrade drop {dg_drop}");
        // WASP: low delay AND no loss.
        assert!(w_delay < 15.0, "wasp delay {w_delay}");
        assert!(w_drop == 0.0, "wasp dropped {w_drop}");
        assert!(w_ratio > 0.9, "wasp ratio {w_ratio}");
    }

    #[test]
    fn controller_records_slo_and_action_metrics() {
        // Same world as the scale-up test, but with a recording hub
        // attached to both the engine and the controller: the derived
        // SLO gauges and action counters must be populated.
        let (script, dur) = doubled_workload_world();
        let (net, edge, dc) = two_site_world(100.0);
        let plan = linear_plan(edge, 1000.0, 800.0, 0.5);
        let mut eng = engine_with_script(net, plan, dc, script);
        let hub = MetricsHub::recording(40.0);
        eng.set_metrics(hub.clone());
        let mut wasp = WaspController::new(PolicyConfig::default()).with_metrics(hub.clone());
        run_controlled(&mut eng, &mut wasp, dur, 40.0);
        let snaps = hub.snapshots();
        let value = |family: &str, label: Option<(&str, &str)>| {
            snaps
                .iter()
                .find(|s| {
                    s.family == family
                        && label
                            .is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .map(|s| s.value)
        };
        let rounds = value("wasp_controller_rounds_total", None).unwrap();
        assert!(rounds >= 10.0, "rounds {rounds}");
        let actions = value("wasp_controller_actions_total", None).unwrap();
        assert!(actions >= 1.0, "actions {actions}");
        let p95 = value("wasp_slo_delay_seconds", Some(("quantile", "0.95"))).unwrap();
        assert!(p95 > 0.0, "p95 {p95}");
        // Gauges refresh over scrape rows too.
        assert!(hub.scrape_count() > 0);
    }

    #[test]
    fn controller_names() {
        assert_eq!(NoAdaptController.name(), "No Adapt");
        assert_eq!(DegradeController::new(10.0).name(), "Degrade");
        assert_eq!(WaspController::new(PolicyConfig::default()).name(), "WASP");
        let base = PolicyConfig::default;
        assert_eq!(WaspController::reassign_only(base()).name(), "Re-assign");
        assert_eq!(WaspController::scale_only(base()).name(), "Scale");
        assert_eq!(WaspController::replan_only(base()).name(), "Re-plan");
    }

    #[test]
    fn cooldowns_for_operators_outside_the_plan_are_pruned() {
        // After a plan switch the operator space is renumbered: any
        // cooldown for an op index beyond the new plan must go, as
        // must entries that simply expired.
        let mut wasp = WaspController::new(PolicyConfig::default());
        wasp.emergency_cooldowns.insert(OpId(1), 500.0); // live, in plan
        wasp.emergency_cooldowns.insert(OpId(2), 100.0); // expired
        wasp.emergency_cooldowns.insert(OpId(7), 1e9); // dropped by re-plan
        wasp.prune_emergency_cooldowns(200.0, 3);
        assert_eq!(
            wasp.emergency_cooldowns.keys().copied().collect::<Vec<_>>(),
            vec![OpId(1)]
        );
    }

    #[test]
    fn emergency_backoff_resets_after_successful_emergency_apply() {
        // dc1 hosts the whole pipeline and dies at t=100; the
        // controller enters the round with an inflated backoff (as if
        // earlier recovery attempts had failed) that has already
        // elapsed, so the round both attempts and succeeds — and the
        // success must reset the backoff to its initial value.
        let (net, edge, dc1, dc2) = three_site_world(50.0);
        let script = DynamicsScript::none().with_failure(wasp_netsim::dynamics::Failure {
            at: wasp_netsim::units::SimTime(100.0),
            restore_after: 500.0,
            site: Some(dc1),
        });
        let plan = linear_plan(edge, 1000.0, 5.0, 0.5);
        let mut eng = engine_with_script(net, plan, dc1, script);
        let mut wasp = WaspController::new(PolicyConfig::default());
        wasp.emergency_backoff_s = 160.0;
        wasp.emergency_next_attempt_s = 60.0; // already elapsed at t=120
        run_controlled(&mut eng, &mut wasp, 200.0, 40.0);
        assert!(
            eng.metrics()
                .actions()
                .iter()
                .any(|(_, l)| l.starts_with("emergency")),
            "no emergency action applied: {:?}",
            eng.metrics().actions()
        );
        assert_eq!(wasp.emergency_backoff_s, EMERGENCY_BACKOFF_INITIAL_S);
        let _ = dc2;
    }

    #[test]
    fn lossy_controller_detects_failure_via_heartbeats_and_recovers() {
        use wasp_controlplane::config::LossyControlConfig;
        // dc1 hosts the pipeline and dies at t=41 for 300 s. No
        // oracle events reach the controller: it must notice the
        // heartbeat silence, confirm the outage, and re-assign over
        // the fenced command channel (lossless here; loss rates are
        // exercised by the integration campaigns). By the t=80 round
        // — the first to see the outage at all — the silence is 39 s,
        // past the 2φ confirmation bar, so the emergency path fires
        // before the normal path can re-plan around the dead site on
        // rate evidence alone.
        let (net, edge, dc1, dc2) = three_site_world(50.0);
        let script = DynamicsScript::none().with_failure(wasp_netsim::dynamics::Failure {
            at: wasp_netsim::units::SimTime(41.0),
            restore_after: 300.0,
            site: Some(dc1),
        });
        let plan = linear_plan(edge, 1000.0, 5.0, 0.5);
        let mut eng = engine_with_script(net, plan, dc1, script);
        let cfg = LossyControlConfig {
            controller_site: Some(dc2),
            ..LossyControlConfig::default()
        };
        eng.enable_lossy_control(cfg.clone());
        let mut wasp = WaspController::new(PolicyConfig::default())
            .with_control_plane(ControlPlaneConfig::Lossy(cfg));
        run_controlled(&mut eng, &mut wasp, 600.0, 40.0);
        let stats = wasp.control_stats().unwrap().clone();
        assert!(stats.true_confirmations >= 1, "stats {stats:?}");
        assert_eq!(stats.false_positives, 0, "stats {stats:?}");
        assert!(stats.acked_applied >= 1, "stats {stats:?}");
        assert!(
            stats.detection_lag_quantile(1.0).unwrap() <= 90.0,
            "lags {:?}",
            stats.detection_lags_s
        );
        // The emergency re-assignment really reached the engine…
        assert!(
            eng.metrics()
                .actions()
                .iter()
                .any(|(_, l)| l.starts_with("emergency")),
            "actions {:?}",
            eng.metrics().actions()
        );
        // Delivery resumed after recovery.
        let m = eng.metrics();
        let del_late: f64 = m
            .ticks()
            .iter()
            .filter(|r| r.t > 500.0)
            .map(|r| r.delivered)
            .sum();
        assert!(del_late > 0.0, "no delivery after recovery");
    }
}
