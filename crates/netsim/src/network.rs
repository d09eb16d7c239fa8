//! Dynamic network state and max-min fair bandwidth allocation.
//!
//! [`Network`] layers time-varying availability (factor traces) on top
//! of a static [`Topology`] and answers two questions for the
//! simulator and the adaptation controller:
//!
//! 1. *What is the available bandwidth from s1 to s2 right now?*
//!    (`B_{s2,s1}` in the paper's Table 1 — what the WAN Monitor
//!    would report.)
//! 2. *Given a set of concurrent flows with demands, what rate does
//!    each flow actually get?* Flows sharing a congested directed pair
//!    (and, optionally, a site's egress/ingress uplink) split it
//!    max-min fairly, the standard fluid model for TCP-like sharing.

use crate::site::SiteId;
use crate::topology::Topology;
use crate::trace::FactorSeries;
use crate::units::{Mbps, Millis, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use wasp_metrics::{Gauge, MetricsHub};

/// A flow's bandwidth demand between two sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// Source site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Offered load.
    pub demand: Mbps,
}

impl FlowDemand {
    /// Convenience constructor.
    pub fn new(from: SiteId, to: SiteId, demand: Mbps) -> FlowDemand {
        FlowDemand { from, to, demand }
    }
}

/// Time-varying wide-area network: a topology plus per-link
/// multiplicative factor traces and optional per-site uplink caps.
///
/// # Examples
///
/// ```
/// use wasp_netsim::network::{FlowDemand, Network};
/// use wasp_netsim::site::SiteKind;
/// use wasp_netsim::topology::TopologyBuilder;
/// use wasp_netsim::trace::FactorSeries;
/// use wasp_netsim::units::{Mbps, Millis, SimTime};
///
/// let mut b = TopologyBuilder::new();
/// let a = b.add_site("a", SiteKind::DataCenter, 8);
/// let c = b.add_site("c", SiteKind::DataCenter, 8);
/// b.set_symmetric_link(a, c, Mbps(100.0), Millis(30.0));
/// let mut net = Network::new(b.build()?);
/// net.set_pair_factor(a, c, FactorSeries::steps(1.0, &[(900.0, 0.5)]));
///
/// assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(100.0));
/// assert_eq!(net.available(a, c, SimTime(900.0)), Mbps(50.0));
///
/// // Two flows share the halved link max-min fairly.
/// let flows = [FlowDemand::new(a, c, Mbps(40.0)), FlowDemand::new(a, c, Mbps(40.0))];
/// let rates = net.allocate(&flows, SimTime(900.0));
/// assert_eq!(rates, vec![Mbps(25.0), Mbps(25.0)]);
/// # Ok::<(), wasp_netsim::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    /// Per-directed-pair factor traces, dense by `from · m + to`.
    pair_factors: Vec<Option<FactorSeries>>,
    global_factor: FactorSeries,
    egress_cap: Vec<Option<Mbps>>,
    ingress_cap: Vec<Option<Mbps>>,
    /// Cross traffic from *other* executions sharing the WAN (§3.2
    /// lists bandwidth contention with other executions as a source of
    /// dynamics): Mbps consumed on a directed pair over time.
    cross_traffic: Vec<(SiteId, SiteId, FactorSeries)>,
    /// Instantaneous cross traffic replaced wholesale each tick — how
    /// a co-scheduler couples several executions over one WAN. Dense
    /// by `from · m + to`; pairs without usage hold 0.
    transient_cross: Vec<f64>,
    /// Metrics hub for per-link utilization recording (disabled by
    /// default; [`Network::allocate`] takes `&self`, hence the
    /// interior-mutable gauge cache).
    hub: MetricsHub,
    /// Lazily created per-directed-pair (allocated Mbps, utilization
    /// ratio) gauges, dense by `from · m + to` (empty while no hub is
    /// attached).
    link_gauges: RefCell<Vec<Option<(Gauge, Gauge)>>>,
    /// Working memory of [`Network::allocate_into`], reused across
    /// calls so a steady-state allocation touches no heap.
    scratch: RefCell<AllocScratch>,
}

/// Marks an empty slot in [`AllocScratch`]'s index tables.
const NO_SLOT: u32 = u32::MAX;

/// Reusable tables of the progressive-filling allocator: a dense
/// resource table (one slot per pair link, egress cap or ingress cap
/// that some flow uses) with its member flows stored in CSR form.
#[derive(Debug, Clone, Default)]
struct AllocScratch {
    /// Slot of each possible resource, [`NO_SLOT`] when unused by the
    /// current call. Indexed by resource key: pair `from · m + to`,
    /// egress `m² + site`, ingress `m² + m + site`.
    slot_of: Vec<u32>,
    /// Resource key of each slot, in discovery order (resets
    /// `slot_of` after the call).
    keys: Vec<u32>,
    /// Capacity of each slot, Mbps.
    capacity: Vec<f64>,
    /// The (up to three) slots each flow draws on; [`NO_SLOT`] pads.
    flow_res: Vec<[u32; 3]>,
    /// CSR offsets: slot `r`'s members are
    /// `members[start[r]..start[r + 1]]`, in flow-index order.
    start: Vec<u32>,
    members: Vec<u32>,
    /// Fill cursor per slot while building `members`.
    cursor: Vec<u32>,
    frozen: Vec<bool>,
    active: Vec<u32>,
    /// Granted Mbps per directed pair `from · m + to` (metrics only;
    /// zero outside a call).
    pair_mbps: Vec<f64>,
    /// Pairs with a nonzero entry in `pair_mbps`.
    touched: Vec<u32>,
}

impl Network {
    /// Wraps a static topology with unit (no-variation) dynamics.
    pub fn new(topology: Topology) -> Network {
        let m = topology.num_sites();
        Network {
            topology,
            pair_factors: vec![None; m * m],
            global_factor: FactorSeries::unit(),
            egress_cap: vec![None; m],
            ingress_cap: vec![None; m],
            cross_traffic: Vec::new(),
            transient_cross: vec![0.0; m * m],
            hub: MetricsHub::disabled(),
            link_gauges: RefCell::new(Vec::new()),
            scratch: RefCell::new(AllocScratch::default()),
        }
    }

    /// Attaches a metrics hub; every subsequent [`Network::allocate`]
    /// records per-directed-link allocated Mbps and utilization ratio
    /// gauges into it. Costs one branch per allocation when disabled.
    pub fn set_metrics(&mut self, hub: MetricsHub) {
        let m = self.topology.num_sites();
        let gauges = self.link_gauges.get_mut();
        gauges.clear();
        if hub.is_enabled() {
            gauges.resize(m * m, None);
        }
        self.hub = hub;
    }

    /// Replaces the *transient* cross traffic (Mbps per directed
    /// pair) — typically another engine's link usage from the previous
    /// tick, installed by a multi-query co-scheduler. Unlike
    /// [`Network::add_cross_traffic`], calling this again replaces the
    /// previous map.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a site outside the topology.
    pub fn set_transient_cross_traffic(&mut self, usage: BTreeMap<(SiteId, SiteId), f64>) {
        self.transient_cross.fill(0.0);
        for ((from, to), mbps) in usage {
            let i = self.pair_index(from, to);
            self.transient_cross[i] = mbps;
        }
    }

    /// Dense index of a directed pair.
    fn pair_index(&self, from: SiteId, to: SiteId) -> usize {
        let m = self.topology.num_sites();
        assert!(
            from.index() < m && to.index() < m,
            "pair {from}->{to} is outside the {m}-site topology"
        );
        from.index() * m + to.index()
    }

    /// Adds cross traffic on a directed pair: `mbps_series` gives the
    /// Mbps consumed by *other* executions over time. Cross traffic
    /// takes its share first; [`Network::available`] and
    /// [`Network::allocate`] both see only the remainder — which is
    /// what an iperf-style WAN Monitor would measure.
    pub fn add_cross_traffic(&mut self, from: SiteId, to: SiteId, mbps_series: FactorSeries) {
        self.cross_traffic.push((from, to, mbps_series));
    }

    /// Total cross traffic on a pair at time `t` (Mbps), scripted plus
    /// transient.
    pub fn cross_traffic_at(&self, from: SiteId, to: SiteId, t: SimTime) -> Mbps {
        let scripted: f64 = self
            .cross_traffic
            .iter()
            .filter(|(f, d, _)| *f == from && *d == to)
            .map(|(_, _, s)| s.factor_at(t))
            .sum();
        let transient = self.transient_cross[self.pair_index(from, to)];
        Mbps(scripted + transient)
    }

    /// The underlying static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Sets the factor trace of one directed pair.
    ///
    /// # Panics
    ///
    /// Panics if a site is outside the topology.
    pub fn set_pair_factor(&mut self, from: SiteId, to: SiteId, series: FactorSeries) {
        let i = self.pair_index(from, to);
        self.pair_factors[i] = Some(series);
    }

    /// Multiplies `series` into the factor trace of one directed pair,
    /// preserving any factor already installed (used when a dynamics
    /// script layers link blackouts over existing per-link dynamics).
    ///
    /// # Panics
    ///
    /// Panics if a site is outside the topology.
    pub fn combine_pair_factor(&mut self, from: SiteId, to: SiteId, series: &FactorSeries) {
        let i = self.pair_index(from, to);
        let combined = match &self.pair_factors[i] {
            Some(existing) => existing.combine(series),
            None => series.clone(),
        };
        self.pair_factors[i] = Some(combined);
    }

    /// Sets a factor trace applied to *every* link (used by the §8.4
    /// "halve the bandwidth of every link" script).
    pub fn set_global_factor(&mut self, series: FactorSeries) {
        self.global_factor = series;
    }

    /// Returns the factor trace applied to every link.
    pub fn global_factor(&self) -> &FactorSeries {
        &self.global_factor
    }

    /// Caps the total egress bandwidth of a site (models an edge
    /// cluster's access uplink).
    pub fn set_egress_cap(&mut self, site: SiteId, cap: Mbps) {
        self.egress_cap[site.index()] = Some(cap);
    }

    /// Caps the total ingress bandwidth of a site.
    pub fn set_ingress_cap(&mut self, site: SiteId, cap: Mbps) {
        self.ingress_cap[site.index()] = Some(cap);
    }

    /// One-way latency (static; the paper varies bandwidth, not
    /// latency).
    pub fn latency(&self, from: SiteId, to: SiteId) -> Millis {
        self.topology.latency(from, to)
    }

    /// Available bandwidth of the directed pair at time `t` — base
    /// capacity times the pair factor times the global factor.
    ///
    /// This is what the paper's WAN Monitor reports to the Job Manager.
    pub fn available(&self, from: SiteId, to: SiteId, t: SimTime) -> Mbps {
        let base = self.topology.capacity(from, to);
        if base.0.is_infinite() {
            return base;
        }
        let pair = self.pair_factors[self.pair_index(from, to)]
            .as_ref()
            .map(|s| s.factor_at(t))
            .unwrap_or(1.0);
        let capacity = base * (pair * self.global_factor.factor_at(t));
        (capacity - self.cross_traffic_at(from, to, t)).max(Mbps::ZERO)
    }

    /// Max-min fair allocation of `flows` at time `t`.
    ///
    /// Each flow is constrained by its own demand, its directed pair's
    /// available bandwidth, and (when set) the egress cap of its source
    /// site and the ingress cap of its destination site. The returned
    /// vector is parallel to `flows`.
    ///
    /// Intra-site flows (`from == to`) are unconstrained by the network
    /// and always receive their full demand.
    ///
    /// The rates, the cost per call and the bit-identity contract are
    /// those of [`Network::allocate_into`]; this wrapper only adds the
    /// returned vector's allocation, which hot loops avoid by calling
    /// `allocate_into` with a reused buffer.
    pub fn allocate(&self, flows: &[FlowDemand], t: SimTime) -> Vec<Mbps> {
        let mut rates = Vec::with_capacity(flows.len());
        self.allocate_into(flows, t, &mut rates);
        rates
    }

    /// [`Network::allocate`] writing the rates into `rates` (cleared
    /// first, then parallel to `flows`).
    ///
    /// # Cost
    ///
    /// Progressive filling: each round raises every unfrozen flow by
    /// the largest uniform increment any resource (pair link, egress
    /// cap, ingress cap) or demand allows, then freezes the flows that
    /// hit a demand or a saturated resource. A call with `n` flows on
    /// `r` resources runs at most `n` rounds of `O(n + r)` work, since
    /// every flow belongs to at most three resources; the engine's
    /// calls average ~14 flows, ~12 resources and ~10 rounds. Resources
    /// live in a dense table indexed by site ids with their member
    /// flows in CSR form, and all working memory (including `rates`,
    /// when the caller reuses it) persists across calls: no hashing
    /// and no heap allocation once the tables have grown.
    ///
    /// # Bit-identity
    ///
    /// The rates are bit-identical to the historical hash-map
    /// implementation (kept as a reference in this module's tests).
    /// Every round recomputes a resource's usage as the sum of its
    /// members' rates in flow-index order, takes the increment as a
    /// minimum, and applies the same freeze tests and epsilons. Usage
    /// sums are deliberately *not* maintained incrementally: a running
    /// sum rounds differently and drifts by ulps, which would move
    /// every simulated number downstream.
    pub fn allocate_into(&self, flows: &[FlowDemand], t: SimTime, rates: &mut Vec<Mbps>) {
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        let m = self.topology.num_sites();
        let table = m * m + 2 * m;
        if s.slot_of.len() != table {
            s.slot_of.clear();
            s.slot_of.resize(table, NO_SLOT);
        }
        s.keys.clear();
        s.capacity.clear();
        s.flow_res.clear();
        // Registers resource `key` (first use fixes its capacity) and
        // returns its slot.
        fn slot(s: &mut AllocScratch, key: usize, capacity: impl FnOnce() -> f64) -> u32 {
            if s.slot_of[key] == NO_SLOT {
                s.slot_of[key] = s.keys.len() as u32;
                s.keys.push(key as u32);
                s.capacity.push(capacity());
            }
            s.slot_of[key]
        }
        for f in flows {
            let mut res = [NO_SLOT; 3];
            if f.from != f.to {
                let (from, to) = (f.from.index(), f.to.index());
                res[0] = slot(s, from * m + to, || self.available(f.from, f.to, t).0);
                if let Some(cap) = self.egress_cap[from] {
                    res[1] = slot(s, m * m + from, || cap.0);
                }
                if let Some(cap) = self.ingress_cap[to] {
                    res[2] = slot(s, m * m + m + to, || cap.0);
                }
            }
            s.flow_res.push(res);
        }
        for &key in &s.keys {
            s.slot_of[key as usize] = NO_SLOT;
        }
        // CSR member lists: count, prefix-sum, fill in flow order.
        let nres = s.keys.len();
        s.start.clear();
        s.start.resize(nres + 1, 0);
        for res in &s.flow_res {
            for &r in res.iter().filter(|&&r| r != NO_SLOT) {
                s.start[r as usize + 1] += 1;
            }
        }
        for r in 0..nres {
            s.start[r + 1] += s.start[r];
        }
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.start[..nres]);
        s.members.clear();
        s.members.resize(s.start[nres] as usize, 0);
        for (i, res) in s.flow_res.iter().enumerate() {
            for &r in res.iter().filter(|&&r| r != NO_SLOT) {
                let c = &mut s.cursor[r as usize];
                s.members[*c as usize] = i as u32;
                *c += 1;
            }
        }

        let n = flows.len();
        let demand = |i: usize| flows[i].demand.0.max(0.0);
        rates.clear();
        rates.resize(n, Mbps(0.0));
        let rate = rates.as_mut_slice();
        s.frozen.clear();
        s.frozen.resize(n, false);
        let AllocScratch {
            capacity,
            start,
            members,
            frozen,
            active,
            ..
        } = s;
        let members_of = |r: usize| &members[start[r] as usize..start[r + 1] as usize];
        // Intra-site flows are satisfied immediately.
        for (i, f) in flows.iter().enumerate() {
            if f.from == f.to {
                rate[i] = Mbps(demand(i));
                frozen[i] = true;
            }
        }

        // Progressive filling: raise all unfrozen flows' rates in
        // lock-step until a flow hits its demand or a resource
        // saturates; freeze and repeat.
        loop {
            active.clear();
            active.extend((0..n as u32).filter(|&i| !frozen[i as usize]));
            if active.is_empty() {
                break;
            }
            // Max uniform increment allowed by each resource.
            let mut inc = f64::INFINITY;
            for (r, cap) in capacity.iter().enumerate() {
                let mem = members_of(r);
                let k = mem.iter().filter(|&&i| !frozen[i as usize]).count();
                if k > 0 {
                    let used: f64 = mem.iter().map(|&i| rate[i as usize].0).sum();
                    let headroom = (cap - used).max(0.0);
                    inc = inc.min(headroom / k as f64);
                }
            }
            // Max increment before some active flow reaches its demand.
            for &i in active.iter() {
                let i = i as usize;
                inc = inc.min((demand(i) - rate[i].0).max(0.0));
            }
            if !inc.is_finite() {
                // No binding resource: all active flows get their
                // demand.
                for &i in active.iter() {
                    let i = i as usize;
                    rate[i] = Mbps(demand(i));
                    frozen[i] = true;
                }
                break;
            }
            for &i in active.iter() {
                rate[i as usize].0 += inc;
            }
            // Freeze demand-satisfied flows.
            let mut any_frozen = false;
            for &i in active.iter() {
                let i = i as usize;
                if rate[i].0 + 1e-12 >= demand(i) {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            // Freeze flows on saturated resources (a resource whose
            // members are all frozen already has nothing to freeze).
            for (r, cap) in capacity.iter().enumerate() {
                let mem = members_of(r);
                if mem.iter().all(|&i| frozen[i as usize]) {
                    continue;
                }
                let used: f64 = mem.iter().map(|&i| rate[i as usize].0).sum();
                if used + 1e-9 >= *cap {
                    for &i in mem {
                        frozen[i as usize] = true;
                    }
                    any_frozen = true;
                }
            }
            if !any_frozen {
                // Numerical safety: freeze everything to guarantee
                // termination (should not normally trigger).
                for &i in active.iter() {
                    frozen[i as usize] = true;
                }
            }
        }
        drop(guard);
        if self.hub.is_enabled() {
            self.record_allocation(flows, rates, t);
        }
    }
    /// Records the just-computed allocation into per-directed-link
    /// gauges: total Mbps granted on the pair and the fraction of the
    /// pair's currently available bandwidth it consumes. Kept out of
    /// line: with no hub attached it never runs, and inlined it would
    /// bloat the allocator's hot loop.
    #[inline(never)]
    fn record_allocation(&self, flows: &[FlowDemand], rates: &[Mbps], t: SimTime) {
        let m = self.topology.num_sites();
        let mut guard = self.scratch.borrow_mut();
        let s = &mut *guard;
        s.pair_mbps.resize(m * m, 0.0);
        for (f, &Mbps(r)) in flows.iter().zip(rates) {
            if f.from != f.to && r > 0.0 {
                let key = f.from.index() * m + f.to.index();
                if s.pair_mbps[key] == 0.0 {
                    s.touched.push(key as u32);
                }
                s.pair_mbps[key] += r;
            }
        }
        // Pair order, so first-seen gauges register as they always
        // have: ascending (from, to).
        s.touched.sort_unstable();
        let mut gauges = self.link_gauges.borrow_mut();
        for &key in &s.touched {
            let key = key as usize;
            let mbps = std::mem::take(&mut s.pair_mbps[key]);
            let (from, to) = (SiteId((key / m) as u16), SiteId((key % m) as u16));
            let (alloc, util) = gauges[key].get_or_insert_with(|| {
                let from_name = self.topology.site(from).name().to_string();
                let to_name = self.topology.site(to).name().to_string();
                let labels = [("from", from_name.as_str()), ("to", to_name.as_str())];
                (
                    self.hub.gauge(
                        "wasp_link_allocated_mbps",
                        "Mbps granted on the directed link at the last allocation",
                        &labels,
                    ),
                    self.hub.gauge(
                        "wasp_link_utilization_ratio",
                        "Granted Mbps over currently available Mbps on the directed link",
                        &labels,
                    ),
                )
            });
            alloc.set(mbps);
            let avail = self.available(from, to, t).0;
            util.set(if avail.is_finite() && avail > 0.0 {
                mbps / avail
            } else {
                0.0
            });
        }
        s.touched.clear();
    }
}

/// The allocator as it stood before the dense-table rewrite, kept
/// verbatim (minus the metrics hook) as the bit-identity reference for
/// [`Network::allocate_into`].
#[cfg(test)]
impl Network {
    /// Hash-map progressive filling, one fresh `active` vector per
    /// round.
    fn allocate_reference(&self, flows: &[FlowDemand], t: SimTime) -> Vec<Mbps> {
        use std::collections::HashMap;
        // Resource kinds: pair links, egress caps, ingress caps.
        #[derive(Hash, PartialEq, Eq, Clone, Copy)]
        enum Res {
            Pair(SiteId, SiteId),
            Egress(SiteId),
            Ingress(SiteId),
        }

        let mut capacity: HashMap<Res, f64> = HashMap::new();
        let mut members: HashMap<Res, Vec<usize>> = HashMap::new();
        for (i, f) in flows.iter().enumerate() {
            if f.from == f.to {
                continue;
            }
            let pair = Res::Pair(f.from, f.to);
            capacity
                .entry(pair)
                .or_insert_with(|| self.available(f.from, f.to, t).0);
            members.entry(pair).or_default().push(i);
            if let Some(cap) = self.egress_cap[f.from.index()] {
                let r = Res::Egress(f.from);
                capacity.entry(r).or_insert(cap.0);
                members.entry(r).or_default().push(i);
            }
            if let Some(cap) = self.ingress_cap[f.to.index()] {
                let r = Res::Ingress(f.to);
                capacity.entry(r).or_insert(cap.0);
                members.entry(r).or_default().push(i);
            }
        }

        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        // Intra-site flows are satisfied immediately.
        for (i, f) in flows.iter().enumerate() {
            if f.from == f.to {
                rate[i] = f.demand.0.max(0.0);
                frozen[i] = true;
            }
        }

        // Progressive filling: raise all unfrozen flows' rates in
        // lock-step until a flow hits its demand or a resource
        // saturates; freeze and repeat.
        loop {
            let active: Vec<usize> = (0..n).filter(|&i| !frozen[i]).collect();
            if active.is_empty() {
                break;
            }
            // Max uniform increment allowed by each resource.
            let mut inc = f64::INFINITY;
            for (res, cap) in &capacity {
                let mem = &members[res];
                let used: f64 = mem.iter().map(|&i| rate[i]).sum();
                let k = mem.iter().filter(|&&i| !frozen[i]).count();
                if k > 0 {
                    let headroom = (cap - used).max(0.0);
                    inc = inc.min(headroom / k as f64);
                }
            }
            // Max increment before some active flow reaches its demand.
            for &i in &active {
                inc = inc.min((flows[i].demand.0.max(0.0) - rate[i]).max(0.0));
            }
            if !inc.is_finite() {
                // No binding resource: all active flows get their
                // demand.
                for &i in &active {
                    rate[i] = flows[i].demand.0.max(0.0);
                    frozen[i] = true;
                }
                break;
            }
            for &i in &active {
                rate[i] += inc;
            }
            // Freeze demand-satisfied flows.
            let mut any_frozen = false;
            for &i in &active {
                if rate[i] + 1e-12 >= flows[i].demand.0.max(0.0) {
                    frozen[i] = true;
                    any_frozen = true;
                }
            }
            // Freeze flows on saturated resources.
            for (res, cap) in &capacity {
                let mem = &members[res];
                let used: f64 = mem.iter().map(|&i| rate[i]).sum();
                if used + 1e-9 >= *cap {
                    for &i in mem {
                        if !frozen[i] {
                            frozen[i] = true;
                            any_frozen = true;
                        }
                    }
                }
            }
            if !any_frozen {
                // Numerical safety: freeze everything to guarantee
                // termination (should not normally trigger).
                for &i in &active {
                    frozen[i] = true;
                }
            }
        }
        rate.into_iter().map(Mbps).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteKind;
    use crate::topology::TopologyBuilder;

    fn triangle() -> (Network, SiteId, SiteId, SiteId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SiteKind::DataCenter, 8);
        let c = b.add_site("c", SiteKind::DataCenter, 8);
        let d = b.add_site("d", SiteKind::DataCenter, 8);
        b.set_all_links(Mbps(100.0), Millis(20.0));
        (Network::new(b.build().unwrap()), a, c, d)
    }

    #[test]
    fn available_applies_factors() {
        let (mut net, a, c, _) = triangle();
        net.set_pair_factor(a, c, FactorSeries::constant(0.4));
        net.set_global_factor(FactorSeries::steps(1.0, &[(10.0, 0.5)]));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(40.0));
        assert_eq!(net.available(a, c, SimTime(10.0)), Mbps(20.0));
        // Unaffected pair only sees the global factor.
        assert_eq!(net.available(c, a, SimTime(10.0)), Mbps(50.0));
    }

    #[test]
    fn undemanding_flows_get_their_demand() {
        let (net, a, c, d) = triangle();
        let flows = [
            FlowDemand::new(a, c, Mbps(10.0)),
            FlowDemand::new(a, d, Mbps(20.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert_eq!(rates, vec![Mbps(10.0), Mbps(20.0)]);
    }

    #[test]
    fn congested_link_splits_fairly() {
        let (net, a, c, _) = triangle();
        let flows = [
            FlowDemand::new(a, c, Mbps(90.0)),
            FlowDemand::new(a, c, Mbps(90.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 50.0).abs() < 1e-6);
        assert!((rates[1].0 - 50.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_gives_leftover_to_big_flow() {
        let (net, a, c, _) = triangle();
        // Small flow wants 10, big flow wants 200 on a 100 Mbps link:
        // small gets 10, big gets 90.
        let flows = [
            FlowDemand::new(a, c, Mbps(10.0)),
            FlowDemand::new(a, c, Mbps(200.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 10.0).abs() < 1e-6);
        assert!((rates[1].0 - 90.0).abs() < 1e-6);
    }

    #[test]
    fn egress_cap_constrains_across_pairs() {
        let (mut net, a, c, d) = triangle();
        net.set_egress_cap(a, Mbps(60.0));
        let flows = [
            FlowDemand::new(a, c, Mbps(100.0)),
            FlowDemand::new(a, d, Mbps(100.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 30.0).abs() < 1e-6);
        assert!((rates[1].0 - 30.0).abs() < 1e-6);
    }

    #[test]
    fn ingress_cap_constrains_fan_in() {
        let (mut net, a, c, d) = triangle();
        net.set_ingress_cap(d, Mbps(40.0));
        let flows = [
            FlowDemand::new(a, d, Mbps(100.0)),
            FlowDemand::new(c, d, Mbps(100.0)),
        ];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 20.0).abs() < 1e-6);
        assert!((rates[1].0 - 20.0).abs() < 1e-6);
    }

    #[test]
    fn intra_site_flows_are_unconstrained() {
        let (net, a, _, _) = triangle();
        let flows = [FlowDemand::new(a, a, Mbps(1e6))];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert_eq!(rates[0], Mbps(1e6));
    }

    #[test]
    fn zero_capacity_pair_gets_zero() {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SiteKind::Edge, 1);
        let c = b.add_site("c", SiteKind::Edge, 1);
        // No link set: capacity 0.
        let net = Network::new(b.build().unwrap());
        let rates = net.allocate(&[FlowDemand::new(a, c, Mbps(5.0))], SimTime::ZERO);
        assert_eq!(rates[0], Mbps::ZERO);
    }

    #[test]
    fn allocation_never_exceeds_capacity_or_demand() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (net, a, c, d) = triangle();
        let sites = [a, c, d];
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let flows: Vec<FlowDemand> = (0..rng.gen_range(1..10))
                .map(|_| {
                    FlowDemand::new(
                        sites[rng.gen_range(0..3)],
                        sites[rng.gen_range(0..3)],
                        Mbps(rng.gen_range(0.0..200.0)),
                    )
                })
                .collect();
            let rates = net.allocate(&flows, SimTime::ZERO);
            // Per-flow: rate <= demand.
            for (f, r) in flows.iter().zip(&rates) {
                assert!(r.0 <= f.demand.0 + 1e-6);
                assert!(r.0 >= -1e-9);
            }
            // Per-pair: sum of rates <= capacity.
            for &from in &sites {
                for &to in &sites {
                    if from == to {
                        continue;
                    }
                    let used: f64 = flows
                        .iter()
                        .zip(&rates)
                        .filter(|(f, _)| f.from == from && f.to == to)
                        .map(|(_, r)| r.0)
                        .sum();
                    assert!(used <= 100.0 + 1e-6, "pair {from}->{to} used {used}");
                }
            }
        }
    }
}

#[cfg(test)]
mod cross_traffic_tests {
    use super::*;
    use crate::site::SiteKind;
    use crate::topology::TopologyBuilder;

    fn pair_net() -> (Network, SiteId, SiteId) {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SiteKind::DataCenter, 4);
        let c = b.add_site("c", SiteKind::DataCenter, 4);
        b.set_symmetric_link(a, c, Mbps(100.0), Millis(10.0));
        (Network::new(b.build().unwrap()), a, c)
    }

    #[test]
    fn cross_traffic_reduces_availability() {
        let (mut net, a, c) = pair_net();
        // 0 Mbps of cross traffic before t = 50, then 60 Mbps.
        net.add_cross_traffic(a, c, FactorSeries::from_samples(50.0, vec![0.0, 60.0]));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(100.0));
        assert_eq!(net.available(a, c, SimTime(50.0)), Mbps(40.0));
        // The reverse direction is untouched.
        assert_eq!(net.available(c, a, SimTime(50.0)), Mbps(100.0));
    }

    #[test]
    fn cross_traffic_never_drives_availability_negative() {
        let (mut net, a, c) = pair_net();
        net.add_cross_traffic(a, c, FactorSeries::constant(500.0));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps::ZERO);
    }

    #[test]
    fn cross_traffic_accumulates() {
        let (mut net, a, c) = pair_net();
        net.add_cross_traffic(a, c, FactorSeries::constant(30.0));
        net.add_cross_traffic(a, c, FactorSeries::constant(20.0));
        assert_eq!(net.cross_traffic_at(a, c, SimTime(0.0)), Mbps(50.0));
        assert_eq!(net.available(a, c, SimTime(0.0)), Mbps(50.0));
    }

    #[test]
    fn allocation_respects_cross_traffic() {
        let (mut net, a, c) = pair_net();
        net.add_cross_traffic(a, c, FactorSeries::constant(80.0));
        let flows = [FlowDemand::new(a, c, Mbps(50.0))];
        let rates = net.allocate(&flows, SimTime::ZERO);
        assert!((rates[0].0 - 20.0).abs() < 1e-9, "got {}", rates[0].0);
    }
}

/// Bit-identity of [`Network::allocate_into`] against the hash-map
/// reference over random networks and flow sets.
///
/// Case count: 128 by default; `PROPTEST_CASES` overrides it (the
/// vendored proptest only honours the in-config count, so the env var
/// is resolved here).
#[cfg(test)]
mod reference_tests {
    use super::*;
    use crate::site::SiteKind;
    use crate::topology::TopologyBuilder;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(128)
    }

    /// A random factor series: constant, stepped, or sampled.
    fn series(rng: &mut StdRng, lo: f64, hi: f64) -> FactorSeries {
        match rng.gen_range(0..3u32) {
            0 => FactorSeries::constant(rng.gen_range(lo..hi)),
            1 => FactorSeries::steps(5.0, &[(rng.gen_range(0.0..40.0), rng.gen_range(lo..hi))]),
            _ => FactorSeries::from_samples(
                rng.gen_range(1.0..20.0),
                (0..rng.gen_range(1..12usize))
                    .map(|_| rng.gen_range(lo..hi))
                    .collect(),
            ),
        }
    }

    /// A random network on `m` sites: unset (zero-capacity) pairs,
    /// egress and ingress caps, scripted and transient cross traffic,
    /// pair factors and a global factor.
    fn random_network(rng: &mut StdRng, m: u16) -> Network {
        let mut b = TopologyBuilder::new();
        for i in 0..m {
            b.add_site(format!("s{i}"), SiteKind::DataCenter, 4);
        }
        for a in 0..m {
            for c in 0..m {
                if a != c && rng.gen_bool(0.85) {
                    let cap = if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        rng.gen_range(1.0..200.0)
                    };
                    b.set_link(SiteId(a), SiteId(c), Mbps(cap), Millis(10.0));
                }
            }
        }
        let mut net = Network::new(b.build().expect("valid topology"));
        let site = |rng: &mut StdRng| SiteId(rng.gen_range(0..m));
        for s in 0..m {
            if rng.gen_bool(0.3) {
                net.set_egress_cap(SiteId(s), Mbps(rng.gen_range(0.0..150.0)));
            }
            if rng.gen_bool(0.3) {
                net.set_ingress_cap(SiteId(s), Mbps(rng.gen_range(0.0..150.0)));
            }
        }
        for _ in 0..rng.gen_range(0..4u32) {
            let (a, c) = (site(rng), site(rng));
            let s = series(rng, 0.0, 80.0);
            net.add_cross_traffic(a, c, s);
        }
        let mut transient = BTreeMap::new();
        for _ in 0..rng.gen_range(0..5u32) {
            transient.insert((site(rng), site(rng)), rng.gen_range(0.0..60.0));
        }
        net.set_transient_cross_traffic(transient);
        for _ in 0..rng.gen_range(0..5u32) {
            let (a, c) = (site(rng), site(rng));
            let s = series(rng, 0.0, 1.5);
            net.set_pair_factor(a, c, s);
        }
        if rng.gen_bool(0.5) {
            net.set_global_factor(series(rng, 0.2, 1.2));
        }
        net
    }

    /// Up to 40 flows, intra-site ones included; demands are drawn
    /// from a small set of values half the time so ties (equal fair
    /// shares, demands equal to a share) are common.
    fn random_flows(rng: &mut StdRng, m: u16) -> Vec<FlowDemand> {
        const TIES: [f64; 5] = [0.0, 10.0, 25.0, 50.0, 100.0];
        (0..rng.gen_range(0..=40usize))
            .map(|_| {
                let demand = if rng.gen_bool(0.5) {
                    TIES[rng.gen_range(0..TIES.len())]
                } else {
                    rng.gen_range(-5.0..120.0)
                };
                FlowDemand::new(
                    SiteId(rng.gen_range(0..m)),
                    SiteId(rng.gen_range(0..m)),
                    Mbps(demand),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Every rate equals the reference's to the bit, also when one
        /// network serves many calls (stale scratch must not leak).
        #[test]
        fn dense_allocator_matches_reference_bitwise(
            seed in 0u64..u64::MAX,
            m in 2u16..9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_network(&mut rng, m);
            let mut rates = Vec::new();
            for _ in 0..4 {
                let flows = random_flows(&mut rng, m);
                let t = SimTime(rng.gen_range(0.0..60.0));
                let expected = net.allocate_reference(&flows, t);
                net.allocate_into(&flows, t, &mut rates);
                prop_assert_eq!(rates.len(), flows.len());
                for (i, (got, want)) in rates.iter().zip(&expected).enumerate() {
                    prop_assert!(
                        got.0.to_bits() == want.0.to_bits(),
                        "flow {i} of {}: {} vs reference {}", flows.len(), got.0, want.0
                    );
                }
            }
        }
    }
}
