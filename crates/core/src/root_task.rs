//! The task subgraph `t.g` of one root vertex (Algorithms 6–7), assembled
//! round by round from pulled adjacency lists: the one assembly both miners
//! run.
//!
//! The paper mines each root `v` not on the whole graph but on `t.g`, the
//! k-core (`k = ⌈γ·(τ_size − 1)⌉`, P2) of `v` and larger-id vertices around
//! it; a quasi-clique whose smallest member is `v` lies inside it.
//! [`TaskAssembly`] builds it over global ids: [`TaskAssembly::resume`] of
//! a fresh task takes `v`'s larger neighbours as the first arrivals, and
//! each [`TaskAssembly::feed`] of their lists adds those vertices, peels the
//! task with every larger neighbour not pulled yet counted as a neighbour
//! (Algorithm 6, line 10: such a vertex may still join), and then either
//! names the survivors' larger neighbours it has not pulled yet
//! ([`Step::Need`]) or ends with the task ([`Step::Done`]):
//! its k-core with `v` at local 0, or `None` when `v` falls. A task of fewer
//! than τ_size vertices holds no result; the serial miner skips it, and an
//! engine task mines it as Algorithms 6–8 do.
//!
//! How far the rounds reach is decided by γ alone. With γ ≥ ½ any two
//! members of a quasi-clique are within two hops inside it (P1), so the
//! second round ends the task and its peel is exact (Algorithm 7). Below ½
//! the rounds go on until one adds nothing. That is exact as well, because a
//! quasi-clique is connected (Definition 1): no round peels a member, whose
//! neighbours in the quasi-clique are in the task or not pulled yet, so every
//! member is reached through members. Either way a second hop goes only
//! through a vertex that survived the peel before it, as in Algorithms 6–7.
//!
//! The state lives in dense buffers a worker reuses from task to task, over
//! the run's [`CoreNumbering`] — the ids a task can hold, numbered in id
//! order once per run: `at` maps a core index to its *slot* in the current
//! task, slots being the task's vertices in pull order. A slot's list holds
//! the core indices of its neighbours from the root on, for the current task
//! only. The counts, the peel and the written task read the lists with one
//! probe of `at` per entry. [`TaskAssembly::build`] is the synchronous
//! driver: it feeds the lists of the core itself, indexed by the numbering
//! and copied once per run, so they need no translating. An engine task
//! feeds pulled lists of global ids, which [`TaskAssembly::feed`] translates
//! (a listed vertex outside the numbering is not a vertex of the mined graph
//! and is passed over); it parks between rounds in the form
//! [`TaskAssembly::suspend`] leaves and picks up with
//! [`TaskAssembly::resume`], its earlier vertices reading their edges from
//! the parked graph. The peel of every round is the one k-core cascade of the
//! workspace, [`Peel`].

use crate::config::PruneConfig;
use crate::params::MiningParams;
use qcm_graph::{IdRanks, LocalGraph, Peel, VertexId};
use qcm_sync::Arc;

/// No core index, or no local index.
const UNSEEN: u32 = u32::MAX;
/// The entry of `at` for an unpulled vertex the current round already named.
const NAMED: u32 = u32::MAX;

/// What a round of [`TaskAssembly`] asks of its driver.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// Feed the adjacency lists of these vertices next, sorted by id; the
    /// list may be empty, and the feed that answers it ends the task.
    Need(Vec<VertexId>),
    /// The task is built: its subgraph, or `None` when the root fell.
    Done(Option<LocalGraph>),
}

/// The vertices a run's tasks can hold, numbered in id order: made once per
/// run and shared by its assemblies.
#[derive(Debug)]
pub struct CoreNumbering {
    ids: Vec<VertexId>,
    ranks: IdRanks,
}

impl CoreNumbering {
    /// Numbers `ids`, which must be strictly increasing.
    pub fn new(ids: Vec<VertexId>) -> Self {
        let ranks = IdRanks::over(&ids);
        CoreNumbering { ids, ranks }
    }
}

/// Builds root task subgraphs, one at a time, in buffers kept from task to
/// task: a task costs `O(its pulled lists)`, never `O(|V|)`.
#[derive(Debug)]
pub struct TaskAssembly {
    /// γ ≥ ½: the second round is the last.
    two_hops: bool,
    core: Arc<CoreNumbering>,
    root: VertexId,
    /// The rounds fed so far.
    hops: u32,
    /// Per slot, its core index; [`UNSEEN`] for a root outside the numbering.
    slots: Vec<u32>,
    /// Per slot, out once peeled; an entry counts neighbours during a round.
    peel: Peel,
    adj: Adjacency,
    /// Slot → local index of the subgraph being written.
    rank: Vec<u32>,
    /// During a round, indexed like the entries of `at`: 1 at one more than
    /// each slot in before the round's peel, 0 elsewhere.
    live: Vec<u8>,
    /// During a round, whether a slot still in has no list of its own.
    hand: bool,
}

/// The task's edges while it is built. A slot the task was fed the list of
/// reads its neighbours off that list; any other slot — the root of an
/// engine task, or a vertex of an earlier round carried over a park — keeps
/// them in `near`.
#[derive(Debug)]
struct Adjacency {
    /// Per core index, one more than the slot of that vertex in the current
    /// task, or 0.
    at: Vec<u32>,
    /// The slots from here on were named by the last [`Step::Need`]: during a
    /// round, its arrivals.
    first: usize,
    /// The lists the current task was fed, translated: per slot, its span of
    /// `pool` — the numbered neighbours from the root on, sorted — and empty
    /// without a list.
    pool: Vec<u32>,
    span: Vec<(u32, u32)>,
    /// Per slot without a list, its neighbours in the task as slots; the
    /// buffers outlive the task for the next one.
    near: Vec<Vec<u32>>,
}

impl Adjacency {
    /// The neighbours of slot `x` in the task, as slots, peeled ones
    /// included.
    fn of(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        let listed = self.listed(x).iter();
        let listed = listed.filter_map(|&c| self.at[c as usize].checked_sub(1));
        listed.chain(self.near[x as usize].iter().copied())
    }

    /// The translated list of slot `x`, empty without one.
    fn listed(&self, x: u32) -> &[u32] {
        let (from, to) = self.span[x as usize];
        &self.pool[from as usize..to as usize]
    }

    /// Gives slot `s` its list: the core indices of its neighbours from the
    /// root on, sorted.
    fn list(&mut self, s: u32, listed: impl IntoIterator<Item = u32>) {
        let from = self.pool.len() as u32;
        self.pool.extend(listed);
        self.span[s as usize] = (from, self.pool.len() as u32);
    }
}

impl TaskAssembly {
    /// An assembly of the tasks of `params` under `config`'s peel threshold,
    /// over the run's numbering `core`. Only γ and the threshold decide what a
    /// task holds.
    pub fn new(params: MiningParams, config: &PruneConfig, core: Arc<CoreNumbering>) -> Self {
        TaskAssembly {
            two_hops: params.gamma.diameter_two_applies(),
            adj: Adjacency {
                at: vec![0; core.ids.len()],
                first: 0,
                pool: Vec::new(),
                span: Vec::new(),
                near: Vec::new(),
            },
            core,
            root: VertexId::new(0),
            hops: 0,
            slots: Vec::new(),
            peel: Peel::new(Vec::new(), config.peel_threshold(&params)),
            rank: Vec::new(),
            live: Vec::new(),
            hand: false,
        }
    }

    /// The task of `root`, a vertex of the numbering, fed round after round
    /// from `core`: the mined graph with the numbering as its local index
    /// ([`LocalGraph::from_induced`] over the numbered ids), so its lists
    /// need no translating.
    pub fn build(&mut self, core: &LocalGraph, root: VertexId) -> Option<LocalGraph> {
        debug_assert!(core.global_ids() == self.core.ids, "not the numbered graph");
        self.reset(root, 0);
        let c = self.slots[0];
        assert!(c != UNSEEN, "{root} is not numbered");
        let larger = |x: u32| {
            let listed = core.neighbors(x);
            &listed[listed.partition_point(|&y| y < c)..]
        };
        self.adj.list(0, larger(c).iter().copied());
        larger(c).iter().for_each(|&u| self.push_slot(u));
        loop {
            let (first, n) = (self.adj.first as u32, self.slots.len() as u32);
            let last = self.begin_round();
            for s in first..n {
                self.adj
                    .list(s, larger(self.slots[s as usize]).iter().copied());
                self.count(s, last);
            }
            if let Step::Done(task) = self.end_round(last) {
                return task;
            }
        }
    }

    /// Picks up the task of `root` after `hops` rounds, from `carried`, the
    /// graph [`TaskAssembly::suspend`] left (empty before the first round),
    /// and `need`, the vertices the last round named. The carried vertices
    /// have no list: their edges are the carried graph's.
    pub fn resume(&mut self, root: VertexId, hops: u32, carried: &LocalGraph, need: &[VertexId]) {
        self.reset(root, hops);
        for i in 0..carried.capacity() as u32 {
            if i > 0 {
                self.add_slot(carried.global_id(i));
            }
            self.adj.near[i as usize].extend_from_slice(carried.neighbors(i));
        }
        self.adj.first = self.slots.len();
        need.iter().for_each(|&u| self.add_slot(u));
    }

    /// One round: `lists` are the adjacency lists of every vertex the last
    /// [`Step::Need`] named, in id order. Each is translated into core
    /// indices from the root on, a listed vertex outside the numbering
    /// passed over.
    pub fn feed<'a>(
        &mut self,
        lists: impl IntoIterator<Item = (VertexId, &'a [VertexId])>,
    ) -> Step {
        let last = self.begin_round();
        for (u, adj) in lists {
            let ranks = &self.core.ranks;
            let c = ranks.rank(u).expect("a pulled vertex is numbered");
            debug_assert!(
                self.adj.at[c] as usize > self.adj.first,
                "{u} was not asked for"
            );
            let s = self.adj.at[c] - 1;
            let larger = &adj[adj.partition_point(|&w| w < self.root)..];
            let numbered = larger.iter().filter_map(|&w| ranks.rank(w));
            self.adj.list(s, numbered.map(|c| c as u32));
            self.count(s, last);
        }
        self.end_round(last)
    }

    /// Opens a round: marks the slots in before it, and whether one of them
    /// has no list. True when the round is the last.
    fn begin_round(&mut self) -> bool {
        self.hops += 1;
        let n = self.slots.len();
        let (peel, a) = (&self.peel, &self.adj);
        self.live.clear();
        self.live.push(0);
        self.live
            .extend((0..n as u32).map(|s| u8::from(peel.contains(s))));
        let listless = |q: usize| a.span[q].0 == a.span[q].1;
        self.hand = (0..a.first).any(|q| self.live[q + 1] != 0 && listless(q));
        a.first == n || (self.two_hops && self.hops >= 2)
    }

    /// Closes a round whose arrivals all have their lists and counts: peels,
    /// then ends the task or names the next arrivals.
    fn end_round(&mut self, last: bool) -> Step {
        let n = self.slots.len();
        if !self.peel_round() {
            self.reset(self.root, 0);
            return Step::Done(None);
        }
        if last {
            let task = self.write(n, false);
            self.reset(self.root, 0);
            return Step::Done(Some(task));
        }
        Step::Need(self.settle())
    }

    /// Parks the task after a [`Step::Need`]: the subgraph of its vertices so
    /// far, in id order, for [`TaskAssembly::resume`]. Below γ = ½ it also
    /// holds the vertices peeled so far, without edges, so that no later
    /// round pulls them again. The next peel removes them at once: such a
    /// vertex fell while it counted every later arrival adjacent to it as an
    /// unpulled neighbour (or had none left, once it had survived a round),
    /// so those arrivals alone cannot hold it, and each of them is handed
    /// the edge it loses when the vertex falls.
    pub fn suspend(&mut self) -> LocalGraph {
        let carried = self.write(self.adj.first, !self.two_hops);
        self.reset(self.root, 0);
        carried
    }

    /// Forgets the current task and begins the one of `root` after `hops`
    /// rounds, holding the root alone.
    fn reset(&mut self, root: VertexId, hops: u32) {
        for &c in &self.slots {
            if c != UNSEEN {
                self.adj.at[c as usize] = 0;
            }
        }
        self.slots.clear();
        self.peel.clear();
        self.adj.pool.clear();
        self.adj.span.clear();
        (self.root, self.hops) = (root, hops);
        let c = self.core.ranks.rank(root).map_or(UNSEEN, |c| c as u32);
        self.push_slot(c);
        self.adj.first = 1;
    }

    /// Gives `u`, a vertex of the numbering, the next slot.
    fn add_slot(&mut self, u: VertexId) {
        let c = self.core.ranks.rank(u);
        self.push_slot(c.expect("a task only pulls vertices of the core numbering") as u32);
    }

    fn push_slot(&mut self, c: u32) {
        let (s, a) = (self.slots.len(), &mut self.adj);
        self.slots.push(c);
        self.peel.push(0);
        a.span.push((0, 0));
        if s == a.near.len() {
            a.near.push(Vec::new());
        }
        a.near[s].clear();
        if c != UNSEEN {
            a.at[c as usize] = s as u32 + 1;
        }
    }

    /// Lines 5–9 of Algorithm 6, lines 3–8 of Algorithm 7: arrival `s` joins
    /// with its list and counts the neighbours in the task. A vertex of an
    /// earlier round without a list of its own is handed the edge. Outside
    /// the `last` round a larger neighbour not pulled yet counts too: it may
    /// still join, and is pulled next if `s` survives.
    fn count(&mut self, s: u32, last: bool) {
        let (a, live) = (&mut self.adj, &self.live);
        let (from, to) = a.span[s as usize];
        let listed = &a.pool[from as usize..to as usize];
        let (mut inside, mut unpulled) = (0, 0);
        for &c in listed {
            let q = a.at[c as usize] as usize;
            inside += u32::from(live[q]);
            unpulled += u32::from(q == 0);
        }
        self.peel.set(s, inside + if last { 0 } else { unpulled });
        if self.hand {
            for &c in listed {
                let q = a.at[c as usize] as usize;
                if (1..=a.first).contains(&q) && live[q] != 0 && a.span[q - 1].0 == a.span[q - 1].1
                {
                    a.near[q - 1].push(s);
                }
            }
        }
    }

    /// Counts the earlier rounds' vertices, then peels the task to its
    /// k-core. False — at once — when the root falls.
    fn peel_round(&mut self) -> bool {
        let (peel, adj, live) = (&mut self.peel, &self.adj, &self.live);
        for s in (0..adj.first as u32).filter(|&s| live[s as usize + 1] != 0) {
            let listed = adj
                .listed(s)
                .iter()
                .map(|&c| live[adj.at[c as usize] as usize]);
            let near = adj.near[s as usize].iter().map(|&q| live[q as usize + 1]);
            peel.set(s, listed.chain(near).map(u32::from).sum());
        }
        peel.seed(0..self.slots.len() as u32);
        while let Some(x) = peel.pop(|x| adj.of(x)) {
            if x == 0 {
                return false;
            }
        }
        true
    }

    /// Lines 12–15 of Algorithm 6, after a round that is not the last: the
    /// larger neighbours the surviving arrivals name that are not pulled yet
    /// become the next round's arrivals, returned sorted.
    fn settle(&mut self) -> Vec<VertexId> {
        let (peel, a) = (&self.peel, &mut self.adj);
        let mut named: Vec<u32> = Vec::new();
        for s in (a.first as u32..self.slots.len() as u32).filter(|&s| peel.contains(s)) {
            let (from, to) = a.span[s as usize];
            for &c in &a.pool[from as usize..to as usize] {
                if a.at[c as usize] == 0 {
                    a.at[c as usize] = NAMED;
                    named.push(c);
                }
            }
        }
        // Core indices are in id order.
        named.sort_unstable();
        a.first = self.slots.len();
        named.iter().for_each(|&c| self.push_slot(c));
        named.iter().map(|&c| self.core.ids[c as usize]).collect()
    }

    /// The subgraph of the slots before `upto` still in — and, with
    /// `dropped`, those peeled, without edges — renumbered by id. The root
    /// has the smallest id, so it is local 0. It leaves `at` mapping a core
    /// index to a local index, for [`TaskAssembly::reset`] to clear.
    fn write(&mut self, upto: usize, dropped: bool) -> LocalGraph {
        let (peel, slots, a) = (&self.peel, &self.slots, &mut self.adj);
        let mut order: Vec<u32> = (0..upto as u32)
            .filter(|&s| dropped || peel.contains(s))
            .collect();
        // Core indices are in id order, and so is every round's run of slots
        // (a merge of sorted runs); the root is slot 0.
        order[1..].sort_by_key(|&s| slots[s as usize]);
        let rank = &mut self.rank;
        rank.clear();
        rank.resize(slots.len(), UNSEEN);
        for (i, &s) in order.iter().enumerate() {
            if peel.contains(s) {
                rank[s as usize] = i as u32;
            }
        }
        for (&c, &r) in slots.iter().zip(rank.iter()) {
            if c != UNSEEN {
                a.at[c as usize] = if r == UNSEEN { 0 } else { r + 1 };
            }
        }
        let (mut offsets, mut targets) = (Vec::with_capacity(order.len() + 1), Vec::new());
        offsets.push(0);
        for &s in order.iter() {
            if peel.contains(s) {
                // A list is in core order, so its local indices are sorted.
                let listed = a.listed(s).iter();
                targets.extend(listed.filter_map(|&c| a.at[c as usize].checked_sub(1)));
                let near = &a.near[s as usize];
                if !near.is_empty() {
                    let start = targets.len();
                    let near = near.iter().map(|&q| rank[q as usize]);
                    targets.extend(near.filter(|&r| r != UNSEEN));
                    targets[start..].sort_unstable();
                }
            }
            offsets.push(targets.len());
        }
        let (root, ids) = (self.root, &self.core.ids);
        let ids = order
            .iter()
            .map(|&s| match s {
                0 => root,
                _ => ids[slots[s as usize] as usize],
            })
            .collect();
        // Refused only if a pulled list names a neighbour whose own list does
        // not name it back.
        LocalGraph::from_sorted_lists(ids, offsets, targets)
            .expect("the assembly is fed the lists of an undirected graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcm_gen::datasets::figure4;
    use qcm_graph::kcore::k_core_with_roots;
    use qcm_graph::Graph;

    /// Every root `SerialMiner` visits, with what the assembly built for it.
    fn root_tasks(
        g: &Graph,
        params: MiningParams,
        config: PruneConfig,
    ) -> Vec<(u32, Option<Vec<u32>>)> {
        let k = config.peel_threshold(&params);
        let (core, roots) = k_core_with_roots(g, k.max(1));
        let lists = LocalGraph::from_induced(g, &core);
        let mut assembly = TaskAssembly::new(params, &config, Arc::new(CoreNumbering::new(core)));
        let mut tasks = Vec::new();
        for v in roots {
            let task = assembly.build(&lists, v);
            // Only the root's own mark outlives its task.
            let marked = assembly.adj.at.iter().filter(|&&s| s != 0);
            assert!(marked.eq([&1]), "marks left behind by root {v}");
            let globals = task.map(|t| t.global_ids().iter().map(|u| u.raw()).collect());
            tasks.push((v.raw(), globals));
        }
        tasks
    }

    #[test]
    fn root_a_gets_the_dense_region_with_the_root_first() {
        // γ = 0.6, τ_size = 5 → k = 3: the 3-core of a's larger two-hop
        // neighborhood is {a, b, c, d, e}, and a is the only root whose
        // suffix core is not empty.
        let g = figure4();
        let params = MiningParams::new(0.6, 5);
        let config = PruneConfig::all_enabled();
        assert_eq!(
            root_tasks(&g, params, config),
            vec![(0, Some(vec![0, 1, 2, 3, 4]))]
        );
        let all: Vec<VertexId> = g.vertices().collect();
        let lists = LocalGraph::from_induced(&g, &all);
        let task = TaskAssembly::new(params, &config, Arc::new(CoreNumbering::new(all)))
            .build(&lists, VertexId::new(0))
            .unwrap();
        assert_eq!(task.num_edges(), 9);
        assert_eq!(task.hub_count(), 0, "the driver builds the rows");
    }

    #[test]
    fn only_larger_ids_reached_through_larger_ids_are_kept() {
        // k = 1 peels nothing here. d (3) reaches e directly and h, i through
        // each other; a, c are smaller, and nothing else is within two hops
        // through larger ids. f (5) reaches g (6) only; c is smaller. e, g
        // and i have no larger neighbour, so their suffix cores lost them.
        let g = figure4();
        let tasks = root_tasks(&g, MiningParams::new(0.5, 2), PruneConfig::all_enabled());
        let roots: Vec<u32> = tasks.iter().map(|(v, _)| *v).collect();
        assert_eq!(roots, [0, 1, 2, 3, 5, 7]);
        assert_eq!(tasks[3].1, Some(vec![3, 4, 7, 8]));
        assert_eq!(tasks[4].1, Some(vec![5, 6]));
    }

    #[test]
    fn below_one_half_the_rounds_go_on_until_one_adds_nothing() {
        // A path 0–1–2–3–4–5 with a chord 3–5: with k = 1 nothing peels, and
        // root 0 reaches all of it, one hop per round, where two hops stop
        // at 2. The diameter rule has no say in how far a task reaches.
        let path = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)]).unwrap();
        let none = PruneConfig::all_enabled().without("diameter");
        let task_of_0 = |gamma: f64, config: PruneConfig| {
            root_tasks(&path, MiningParams::new(gamma, 2), config)[0].clone()
        };
        for config in [PruneConfig::all_enabled(), none] {
            assert_eq!(task_of_0(0.4, config), (0, Some(vec![0, 1, 2, 3, 4, 5])));
            assert_eq!(task_of_0(0.5, config), (0, Some(vec![0, 1, 2])));
        }
    }

    #[test]
    fn a_parked_task_never_pulls_a_vertex_twice() {
        // γ = 0.4, τ_size = 7 → k = 3. The first round peels b (1), which has
        // the root and d (3) only; the second pulls d, whose list names b
        // again. Parked between rounds, the task still knows b was pulled.
        let mut edges = vec![(0, 1), (0, 2), (0, 6), (0, 7), (1, 3)];
        edges.extend([(2, 6), (2, 7), (6, 7), (3, 4), (3, 5), (4, 5)]);
        edges.extend([2, 6, 7].into_iter().flat_map(|u| [(u, 3), (u, 4), (u, 5)]));
        let g = Graph::from_edges(8, edges).unwrap();
        let (params, config) = (MiningParams::new(0.4, 7), PruneConfig::all_enabled());
        let all: Vec<VertexId> = g.vertices().collect();
        let lists = LocalGraph::from_induced(&g, &all);
        let core = Arc::new(CoreNumbering::new(all));
        let mut parked = TaskAssembly::new(params, &config, core.clone());
        let root = VertexId::new(0);
        let mut need = g.neighbors(root).to_vec();
        parked.resume(root, 0, &LocalGraph::new(Vec::new()), &need);
        let (mut pulled, mut hops) = (need.clone(), 0);
        let task = loop {
            match parked.feed(need.iter().map(|&u| (u, g.neighbors(u)))) {
                Step::Need(next) => {
                    let carried = parked.suspend();
                    hops += 1;
                    parked.resume(root, hops, &carried, &next);
                    assert!(next.iter().all(|u| !pulled.contains(u)), "{next:?} again");
                    pulled.extend(&next);
                    need = next;
                }
                Step::Done(task) => break task,
            }
        };
        let built = TaskAssembly::new(params, &config, core).build(&lists, root);
        assert_eq!(task, built);
        let ids = task.expect("the root survives").global_ids().to_vec();
        assert_eq!(ids, [0, 2, 3, 4, 5, 6, 7].map(VertexId::new));
    }

    #[test]
    fn size_threshold_off_keeps_the_unpeeled_neighborhood() {
        // γ = 0.9, τ_size = 4 → k = 3 would peel f and g away from b's task;
        // without the rule they stay.
        let g = figure4();
        let params = MiningParams::new(0.9, 4);
        let config = PruneConfig::all_enabled().without("size_threshold");
        let tasks = root_tasks(&g, params, config);
        assert_eq!(tasks[1], (1, Some(vec![1, 2, 3, 4, 5, 6])));
    }
}
