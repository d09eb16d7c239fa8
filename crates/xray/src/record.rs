//! Aggregation of per-cohort ledgers into per-sink per-window
//! breakdowns, flow-time node/edge accumulators, critical paths, and
//! folded-stack export.
//!
//! Two attribution views coexist and are intentionally different:
//!
//! * **Delivery view** ([`XraySink`]): at every sink delivery the
//!   cohort's closed ledger is folded into one `LogHistogram` per
//!   component, weighted by event count. This view is
//!   delay-metric-exact — component sums reproduce the end-to-end
//!   delay histogram's `sum()` within 1e-6 relative error (the
//!   conservation invariant, see [`XrayRun::conservation_error`]).
//! * **Flow view** ([`XrayNode`]/[`XrayEdge`]): seconds·events charged
//!   at the (op, site) where the time was *spent*, regardless of
//!   whether the carrying cohort ever reaches a sink. This is the view
//!   critical paths and folded stacks are built from, because "where
//!   is time accumulating" is a per-operator question.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use wasp_metrics::LogHistogram;

use crate::Component;

/// Accumulates attribution observations during a run and snapshots
/// them into an [`XrayRun`].
///
/// All entry points take the current sim time and bucket into
/// reporting windows of `window_s`. Within a window, sinks and nodes
/// are dense by operator id and edges dense by (from, to) operator id,
/// and the most recently touched window is cached, so an observation
/// costs index arithmetic rather than map lookups. The snapshot walks
/// windows by index, operators by id and edges in row-major order, so
/// it is deterministic regardless of observation interleaving — the
/// engine additionally guarantees observations arrive in its
/// sequential reduce order, making the snapshot byte-identical at any
/// `--jobs`.
///
/// Operator ids index the dense tables, so they must be small dense
/// ids (a plan's `OpId`s are).
#[derive(Debug, Clone)]
pub struct XrayRecorder {
    window_s: f64,
    ops: BTreeMap<u32, String>,
    sites: BTreeMap<u32, String>,
    /// Windows that saw an observation, ascending by window index.
    windows: Vec<(i64, WindowAcc)>,
    /// Position in `windows` of the most recently touched window.
    current: usize,
    links: BTreeMap<(u32, u32), LinkAcc>,
    adaptation: Vec<(f64, f64)>,
}

#[derive(Debug, Clone, Default)]
struct WindowAcc {
    /// Delivery view per sink operator id.
    sinks: Vec<Option<SinkAcc>>,
    /// Flow view per operator id.
    nodes: Vec<Option<[f64; 6]>>,
    /// Flow-view transit per (from, to) operator id, row-major over a
    /// square of side `edge_side`.
    edges: Vec<Option<f64>>,
    edge_side: usize,
}

impl WindowAcc {
    /// The `(from, to)` edge slot, growing the square when an id lies
    /// outside it.
    fn edge(&mut self, from: usize, to: usize) -> &mut Option<f64> {
        let need = from.max(to) + 1;
        if need > self.edge_side {
            let old = std::mem::take(&mut self.edges);
            self.edges = vec![None; need * need];
            for (k, v) in old.into_iter().enumerate() {
                self.edges[(k / self.edge_side) * need + k % self.edge_side] = v;
            }
            self.edge_side = need;
        }
        &mut self.edges[from * self.edge_side + to]
    }
}

/// The slot for `id` in a dense per-operator table, growing it as
/// needed.
fn op_slot<T>(table: &mut Vec<Option<T>>, id: u32) -> &mut Option<T> {
    let i = id as usize;
    if i >= table.len() {
        table.resize_with(i + 1, || None);
    }
    &mut table[i]
}

#[derive(Debug, Clone)]
struct SinkAcc {
    count: f64,
    total: LogHistogram,
    comps: Vec<LogHistogram>,
}

impl SinkAcc {
    fn new() -> SinkAcc {
        SinkAcc {
            count: 0.0,
            total: LogHistogram::new(LogHistogram::DEFAULT_ALPHA),
            comps: (0..6)
                .map(|_| LogHistogram::new(LogHistogram::DEFAULT_ALPHA))
                .collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LinkAcc {
    seconds: f64,
    events: f64,
}

impl XrayRecorder {
    /// Creates a recorder with the given reporting-window length
    /// (seconds, must be positive).
    pub fn new(window_s: f64) -> XrayRecorder {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "xray window must be positive"
        );
        XrayRecorder {
            window_s,
            ops: BTreeMap::new(),
            sites: BTreeMap::new(),
            windows: Vec::new(),
            current: 0,
            links: BTreeMap::new(),
            adaptation: Vec::new(),
        }
    }

    /// Registers operator display names (for folded stacks/reports).
    pub fn set_ops(&mut self, ops: impl IntoIterator<Item = (u32, String)>) {
        self.ops.extend(ops);
    }

    /// Registers site display names (for the link table).
    pub fn set_sites(&mut self, sites: impl IntoIterator<Item = (u32, String)>) {
        self.sites.extend(sites);
    }

    fn window_of(&self, now_s: f64) -> i64 {
        (now_s / self.window_s).floor() as i64
    }

    /// The accumulator of the window holding `now_s`, created on first
    /// use. Consecutive observations in one window cost one compare.
    fn window(&mut self, now_s: f64) -> &mut WindowAcc {
        let w = self.window_of(now_s);
        if self.windows.get(self.current).map(|(i, _)| *i) != Some(w) {
            self.current = match self.windows.binary_search_by_key(&w, |(i, _)| *i) {
                Ok(pos) => pos,
                Err(pos) => {
                    self.windows.insert(pos, (w, WindowAcc::default()));
                    pos
                }
            };
        }
        &mut self.windows[self.current].1
    }

    /// Folds a delivered cohort's closed ledger into the sink's
    /// per-window breakdown. `total` is the exact delay the engine
    /// reports to the end-to-end histogram; `comps` the six closed
    /// components; `weight` the event count.
    pub fn observe_delivery(
        &mut self,
        now_s: f64,
        sink: u32,
        total: f64,
        comps: [f64; 6],
        weight: f64,
    ) {
        if weight <= 0.0 {
            return;
        }
        let acc = op_slot(&mut self.window(now_s).sinks, sink).get_or_insert_with(SinkAcc::new);
        acc.count += weight;
        acc.total.observe(total.max(0.0), weight);
        for (i, c) in comps.iter().enumerate() {
            acc.comps[i].observe(c.max(0.0), weight);
        }
    }

    /// Charges flow time (seconds·events per component) to the
    /// operator where it was spent.
    pub fn charge_node(&mut self, now_s: f64, op: u32, comps: [f64; 6]) {
        if comps.iter().all(|c| *c == 0.0) {
            return;
        }
        let node = op_slot(&mut self.window(now_s).nodes, op).get_or_insert([0.0; 6]);
        for (acc, c) in node.iter_mut().zip(comps.iter()) {
            *acc += c;
        }
    }

    /// Charges transit flow time (seconds·events) to a logical DAG
    /// edge. Zero charges still register the edge so critical-path
    /// extraction sees the full adjacency.
    pub fn charge_edge(&mut self, now_s: f64, from_op: u32, to_op: u32, seconds: f64) {
        *self.edge_acc(now_s, from_op, to_op) += seconds;
    }

    /// The transit accumulator of the `from_op → to_op` edge in the
    /// window holding `now_s`, registering the edge (at zero) if it is
    /// new. Lets a caller resolve the slot once and add many charges
    /// into it: `*slot += s` is exactly [`XrayRecorder::charge_edge`].
    pub fn edge_acc(&mut self, now_s: f64, from_op: u32, to_op: u32) -> &mut f64 {
        self.window(now_s)
            .edge(from_op as usize, to_op as usize)
            .get_or_insert(0.0)
    }

    /// Charges transit flow time to a physical WAN link (whole-run,
    /// not windowed).
    pub fn charge_link(&mut self, from_site: u32, to_site: u32, seconds: f64, events: f64) {
        let acc = self.links.entry((from_site, to_site)).or_default();
        acc.seconds += seconds;
        acc.events += events;
    }

    /// Records one control-plane adaptation-lag measurement (seconds
    /// from a failure's onset to the reconfiguration taking effect).
    pub fn note_adaptation(&mut self, now_s: f64, lag_s: f64) {
        self.adaptation.push((now_s, lag_s));
    }

    /// Per-sink `(op, count, component sums)` rows for one window
    /// index (empty when the window saw no deliveries). Used by the
    /// engine to emit breakdown telemetry at window rollover.
    pub fn sink_breakdown(&self, window_idx: i64) -> Vec<(u32, f64, [f64; 6])> {
        let Ok(pos) = self.windows.binary_search_by_key(&window_idx, |(i, _)| *i) else {
            return Vec::new();
        };
        sinks_of(&self.windows[pos].1)
            .map(|(op, s)| {
                let mut comps = [0.0; 6];
                for (i, h) in s.comps.iter().enumerate() {
                    comps[i] = h.sum();
                }
                (op, s.count, comps)
            })
            .collect()
    }

    /// Snapshots the accumulated state into a serializable run record.
    pub fn finalize(&self) -> XrayRun {
        XrayRun {
            window_s: self.window_s,
            ops: self.ops.iter().map(|(k, v)| (*k, v.clone())).collect(),
            sites: self.sites.iter().map(|(k, v)| (*k, v.clone())).collect(),
            windows: self
                .windows
                .iter()
                .map(|(w, acc)| XrayWindow {
                    start_s: *w as f64 * self.window_s,
                    sinks: sinks_of(acc)
                        .map(|(op, s)| XraySink {
                            op,
                            count: s.count,
                            total: s.total.clone(),
                            comps: s.comps.clone(),
                        })
                        .collect(),
                    nodes: present(&acc.nodes)
                        .map(|(op, comps)| XrayNode {
                            op: op as u32,
                            comps: comps.to_vec(),
                        })
                        .collect(),
                    edges: present(&acc.edges)
                        .map(|(k, s)| XrayEdge {
                            from: (k / acc.edge_side) as u32,
                            to: (k % acc.edge_side) as u32,
                            seconds: *s,
                        })
                        .collect(),
                })
                .collect(),
            links: self
                .links
                .iter()
                .map(|((f, t), acc)| XrayLink {
                    from_site: *f,
                    to_site: *t,
                    seconds: acc.seconds,
                    events: acc.events,
                })
                .collect(),
            adaptation: self.adaptation.clone(),
        }
    }
}

/// The occupied slots of a dense table with their indices, ascending.
fn present<T>(table: &[Option<T>]) -> impl Iterator<Item = (usize, &T)> {
    table
        .iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().map(|v| (i, v)))
}

/// A window's sinks, ascending by operator id.
fn sinks_of(acc: &WindowAcc) -> impl Iterator<Item = (u32, &SinkAcc)> {
    present(&acc.sinks).map(|(op, s)| (op as u32, s))
}

/// Serializable attribution snapshot for one engine run (or a merge of
/// shard runs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XrayRun {
    /// Reporting-window length in seconds.
    pub window_s: f64,
    /// Operator id → display name.
    pub ops: Vec<(u32, String)>,
    /// Site id → display name.
    pub sites: Vec<(u32, String)>,
    /// Per-window breakdowns, ascending by start time.
    pub windows: Vec<XrayWindow>,
    /// Whole-run per-WAN-link transit accounting.
    pub links: Vec<XrayLink>,
    /// Control-plane adaptation-lag measurements as `(at_s, lag_s)`
    /// pairs, in observation order.
    pub adaptation: Vec<(f64, f64)>,
}

/// One reporting window's attribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XrayWindow {
    /// Window start (sim seconds).
    pub start_s: f64,
    /// Delivery-view breakdown per sink.
    pub sinks: Vec<XraySink>,
    /// Flow-view seconds·events per operator.
    pub nodes: Vec<XrayNode>,
    /// Flow-view transit seconds·events per DAG edge.
    pub edges: Vec<XrayEdge>,
}

/// Per-sink component breakdown histograms for one window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XraySink {
    /// Sink operator id.
    pub op: u32,
    /// Delivered event count.
    pub count: f64,
    /// End-to-end delay histogram (delay-metric-exact).
    pub total: LogHistogram,
    /// One histogram per component, indexed by [`Component::ALL`].
    pub comps: Vec<LogHistogram>,
}

/// Flow-time charge at one operator for one window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XrayNode {
    /// Operator id.
    pub op: u32,
    /// Seconds·events per component, indexed by [`Component::ALL`].
    pub comps: Vec<f64>,
}

/// Flow-time transit charge on one DAG edge for one window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XrayEdge {
    /// Upstream operator id.
    pub from: u32,
    /// Downstream operator id.
    pub to: u32,
    /// Transit seconds·events carried over this edge.
    pub seconds: f64,
}

impl XrayWindow {
    /// Merges another window's aggregates into this one (same start).
    fn merge(&mut self, other: &XrayWindow) {
        for os in &other.sinks {
            match self.sinks.iter_mut().find(|s| s.op == os.op) {
                Some(s) => {
                    s.count += os.count;
                    s.total.merge(&os.total);
                    for (h, oh) in s.comps.iter_mut().zip(os.comps.iter()) {
                        h.merge(oh);
                    }
                }
                None => self.sinks.push(os.clone()),
            }
        }
        self.sinks.sort_by_key(|s| s.op);
        for on in &other.nodes {
            match self.nodes.iter_mut().find(|n| n.op == on.op) {
                Some(n) => {
                    for (c, oc) in n.comps.iter_mut().zip(on.comps.iter()) {
                        *c += oc;
                    }
                }
                None => self.nodes.push(on.clone()),
            }
        }
        self.nodes.sort_by_key(|n| n.op);
        for oe in &other.edges {
            match self
                .edges
                .iter_mut()
                .find(|e| e.from == oe.from && e.to == oe.to)
            {
                Some(e) => e.seconds += oe.seconds,
                None => self.edges.push(oe.clone()),
            }
        }
        self.edges.sort_by_key(|e| (e.from, e.to));
    }
}

/// Whole-run transit accounting for one directed WAN link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XrayLink {
    /// Source site id.
    pub from_site: u32,
    /// Destination site id.
    pub to_site: u32,
    /// Transit seconds·events carried over this link.
    pub seconds: f64,
    /// Event count carried over this link.
    pub events: f64,
}

/// One extracted critical path through the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Operator chain, upstream first.
    pub ops: Vec<u32>,
    /// Total flow seconds·events along the chain.
    pub total: f64,
    /// Component split of `total`, indexed by [`Component::ALL`]
    /// (edge transit folds into the transit component).
    pub comps: [f64; 6],
}

impl XrayRun {
    /// Merges another run's aggregates into this one (histogram merge
    /// per sink, sums elsewhere), aligning windows by start time.
    /// Merge is exact: shard-wise recording plus merge equals
    /// single-stream recording, like the delay histogram.
    pub fn merge(&mut self, other: &XrayRun) {
        for (id, name) in &other.ops {
            if !self.ops.iter().any(|(i, _)| i == id) {
                self.ops.push((*id, name.clone()));
            }
        }
        self.ops.sort_by_key(|o| o.0);
        for (id, name) in &other.sites {
            if !self.sites.iter().any(|(i, _)| i == id) {
                self.sites.push((*id, name.clone()));
            }
        }
        self.sites.sort_by_key(|s| s.0);

        for ow in &other.windows {
            match self.windows.iter_mut().find(|w| w.start_s == ow.start_s) {
                Some(w) => w.merge(ow),
                None => self.windows.push(ow.clone()),
            }
        }
        self.windows.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));

        for ol in &other.links {
            match self
                .links
                .iter_mut()
                .find(|l| l.from_site == ol.from_site && l.to_site == ol.to_site)
            {
                Some(l) => {
                    l.seconds += ol.seconds;
                    l.events += ol.events;
                }
                None => self.links.push(ol.clone()),
            }
        }
        self.links.sort_by_key(|l| (l.from_site, l.to_site));

        self.adaptation.extend(other.adaptation.iter().copied());
        self.adaptation
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    }

    /// Display name for an operator.
    pub fn op_name(&self, op: u32) -> String {
        self.ops
            .iter()
            .find(|(id, _)| *id == op)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("op{op}"))
    }

    /// Display name for a site.
    pub fn site_name(&self, site: u32) -> String {
        self.sites
            .iter()
            .find(|(id, _)| *id == site)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("site{site}"))
    }

    /// Whole-run component shares across all sinks/windows
    /// (delivery view), normalized to sum to 1; all-zero when no
    /// deliveries were observed.
    pub fn shares(&self) -> [f64; 6] {
        let mut sums = [0.0; 6];
        for w in &self.windows {
            for s in &w.sinks {
                for (i, h) in s.comps.iter().enumerate() {
                    sums[i] += h.sum();
                }
            }
        }
        let total: f64 = sums.iter().sum();
        if total > 0.0 {
            for v in &mut sums {
                *v /= total;
            }
        }
        sums
    }

    /// Maximum relative conservation error across all (window, sink)
    /// cells: |Σ component sums − delay sum| / delay sum. The
    /// acceptance bound is 1e-6.
    pub fn conservation_error(&self) -> f64 {
        let mut worst = 0.0f64;
        for w in &self.windows {
            for s in &w.sinks {
                let total = s.total.sum();
                let parts: f64 = s.comps.iter().map(|h| h.sum()).sum();
                let err = if total.abs() > 1e-9 {
                    (parts - total).abs() / total.abs()
                } else {
                    (parts - total).abs()
                };
                worst = worst.max(err);
            }
        }
        worst
    }

    /// Extracts the top-`k` critical paths through the DAG for one
    /// window: for each terminal operator, the op→op chain maximizing
    /// the summed flow time (node components + edge transit), ranked
    /// by that sum. Deterministic: ties break toward the smaller
    /// operator id.
    pub fn critical_paths(&self, window: &XrayWindow, k: usize) -> Vec<CriticalPath> {
        let node_w: BTreeMap<u32, &Vec<f64>> =
            window.nodes.iter().map(|n| (n.op, &n.comps)).collect();
        let mut incoming: BTreeMap<u32, Vec<(u32, f64)>> = BTreeMap::new();
        let mut has_out: BTreeMap<u32, bool> = BTreeMap::new();
        for n in node_w.keys() {
            has_out.entry(*n).or_insert(false);
        }
        for e in &window.edges {
            incoming.entry(e.to).or_default().push((e.from, e.seconds));
            has_out.insert(e.from, true);
            has_out.entry(e.to).or_insert(false);
        }

        // best[n] = max flow time of any chain ending at n; iterate to
        // fixpoint over ascending op ids (DAG edges go low→high in our
        // plans, but the loop converges for any acyclic orientation).
        let mut best: BTreeMap<u32, (f64, Option<u32>)> = BTreeMap::new();
        let ids: Vec<u32> = has_out.keys().copied().collect();
        for _ in 0..ids.len().max(1) {
            let mut changed = false;
            for n in &ids {
                let own: f64 = node_w.get(n).map(|c| c.iter().sum()).unwrap_or(0.0);
                let mut cand = (own, None);
                if let Some(ins) = incoming.get(n) {
                    for (from, esecs) in ins {
                        if *from == *n {
                            continue;
                        }
                        let up = best.get(from).map(|(b, _)| *b).unwrap_or(0.0);
                        let total = own + esecs + up;
                        if total > cand.0 + 1e-12
                            || (total > cand.0 - 1e-12
                                && cand.1.map(|p| *from < p).unwrap_or(false))
                        {
                            cand = (total, Some(*from));
                        }
                    }
                }
                let prev = best.get(n).copied();
                if prev != Some(cand) {
                    best.insert(*n, cand);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut terminals: Vec<u32> = has_out
            .iter()
            .filter(|(_, out)| !**out)
            .map(|(n, _)| *n)
            .collect();
        terminals.sort_by(|a, b| {
            let ba = best.get(a).map(|(v, _)| *v).unwrap_or(0.0);
            let bb = best.get(b).map(|(v, _)| *v).unwrap_or(0.0);
            bb.total_cmp(&ba).then(a.cmp(b))
        });

        terminals
            .into_iter()
            .take(k)
            .map(|t| {
                let mut ops = vec![t];
                let mut cur = t;
                while let Some((_, Some(prev))) = best.get(&cur) {
                    if ops.contains(prev) {
                        break;
                    }
                    ops.push(*prev);
                    cur = *prev;
                }
                ops.reverse();
                let mut comps = [0.0; 6];
                for (i, pair) in ops.iter().enumerate() {
                    if let Some(c) = node_w.get(pair) {
                        for (j, v) in c.iter().enumerate() {
                            comps[j] += v;
                        }
                    }
                    if i + 1 < ops.len() {
                        let (f, t2) = (ops[i], ops[i + 1]);
                        if let Some(e) = window.edges.iter().find(|e| e.from == f && e.to == t2) {
                            comps[Component::Transit as usize] += e.seconds;
                        }
                    }
                }
                CriticalPath {
                    ops,
                    total: comps.iter().sum(),
                    comps,
                }
            })
            .collect()
    }

    /// Renders the flow view as folded stacks consumable by
    /// inferno/flamegraph: one line per
    /// `window;op-chain…;component value`, where the chain is the
    /// best-predecessor chain from the critical-path DP, the leaf is
    /// the component label, and the value is integer milliseconds ·
    /// events. Incoming-edge transit folds into the downstream
    /// operator's transit leaf, so every charge appears exactly once.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            // Reuse the DP to get a deterministic chain to each node.
            let paths = self.critical_paths(w, usize::MAX);
            let mut chain_to: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for p in &paths {
                for (i, op) in p.ops.iter().enumerate() {
                    chain_to.entry(*op).or_insert_with(|| p.ops[..=i].to_vec());
                }
            }
            let mut incoming_transit: BTreeMap<u32, f64> = BTreeMap::new();
            for e in &w.edges {
                *incoming_transit.entry(e.to).or_insert(0.0) += e.seconds;
            }
            for n in &w.nodes {
                let chain = chain_to.get(&n.op).cloned().unwrap_or_else(|| vec![n.op]);
                let prefix: Vec<String> = std::iter::once(format!("w{:07}", w.start_s as i64))
                    .chain(chain.iter().map(|op| self.op_name(*op)))
                    .collect();
                let mut comps = [0.0; 6];
                comps.copy_from_slice(&n.comps[..6]);
                comps[Component::Transit as usize] +=
                    incoming_transit.get(&n.op).copied().unwrap_or(0.0);
                for (i, c) in Component::ALL.iter().enumerate() {
                    let value = (comps[i] * 1000.0).round() as i64;
                    if value > 0 {
                        out.push_str(&prefix.join(";"));
                        out.push(';');
                        out.push_str(c.label());
                        out.push(' ');
                        out.push_str(&value.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> XrayRun {
        let mut rec = XrayRecorder::new(100.0);
        rec.set_ops(vec![
            (0, "source".into()),
            (1, "filter".into()),
            (2, "sink".into()),
        ]);
        rec.set_sites(vec![(0, "edge-0".into()), (1, "center".into())]);
        rec.charge_node(10.0, 0, [0.0, 5.0, 0.0, 1.0, 0.0, 0.0]);
        rec.charge_node(20.0, 1, [3.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        rec.charge_node(30.0, 2, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        rec.charge_edge(15.0, 0, 1, 4.0);
        rec.charge_edge(25.0, 1, 2, 6.0);
        rec.charge_link(0, 1, 10.0, 100.0);
        rec.observe_delivery(30.0, 2, 10.0, [4.0, 3.0, 2.0, 1.0, 0.0, 0.0], 50.0);
        rec.finalize()
    }

    #[test]
    fn critical_path_walks_the_chain() {
        let run = sample_run();
        let paths = run.critical_paths(&run.windows[0], 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].ops, vec![0, 1, 2]);
        // 6 (source) + 4 (edge) + 5 (filter) + 6 (edge) + 2 (sink)
        assert!((paths[0].total - 23.0).abs() < 1e-9);
        assert!((paths[0].comps[Component::Transit as usize] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn folded_stacks_nest_and_conserve() {
        let run = sample_run();
        let folded = run.folded_stacks();
        assert!(folded.contains("w0000000;source;service 5000\n"));
        assert!(folded.contains("w0000000;source;filter;sink;queue 1000\n"));
        // Edge transit lands on the downstream frame.
        assert!(folded.contains("w0000000;source;filter;transit 4000\n"));
        let total: i64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<i64>().unwrap())
            .sum();
        // 13 node-seconds + 10 edge-seconds, in ms.
        assert_eq!(total, 23_000);
    }

    #[test]
    fn delivery_view_is_conserved_and_merges_exactly() {
        let run = sample_run();
        assert!(
            run.conservation_error() < 1e-9,
            "{}",
            run.conservation_error()
        );

        let mut merged = sample_run();
        merged.merge(&run);
        assert!(merged.conservation_error() < 1e-9);
        let s = merged.windows[0].sinks.iter().find(|s| s.op == 2).unwrap();
        assert_eq!(s.count, 100.0);
        assert!((s.total.sum() - 1000.0).abs() < 1e-9);

        let shares = merged.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn merge_aligns_disjoint_windows_and_links() {
        let mut a = sample_run();
        let mut rec = XrayRecorder::new(100.0);
        rec.charge_node(150.0, 1, [1.0; 6]);
        rec.charge_link(1, 0, 2.0, 5.0);
        let b = rec.finalize();
        a.merge(&b);
        assert_eq!(a.windows.len(), 2);
        assert_eq!(a.windows[1].start_s, 100.0);
        assert_eq!(a.links.len(), 2);
    }
}
