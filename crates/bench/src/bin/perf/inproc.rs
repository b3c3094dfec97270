//! The three in-process workloads (`astral_topk`, `pin_align`,
//! `kegg_mutate_mix`): one [`tale::TaleDatabase`], one closed-loop caller,
//! a fixed operation list replayed pass after pass.

use crate::layers::{self, Layers};
use crate::run::{beat, hash_matches, Fnv, Instance, Pass, Sizes, Workload};
use crate::stats::ratio;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tale::{QueryMatch, QueryOptions, QueryStats, TaleDatabase, TaleParams};
use tale_graph::{Graph, GraphDb, GraphId, NodeId};
use tale_nhindex::{GenerationalNhIndex, IndexReader};

pub const PAGE_BYTES: u64 = tale_storage::PAGE_SIZE as u64;

/// One query of the fixed list, with what is needed to check its answer.
pub struct QuerySpec {
    pub graph: Graph,
    /// The database graph the query was drawn from.
    pub source: GraphId,
    /// For sub-network queries: the node of `source` each query node came
    /// from. Empty for whole-graph (self) queries.
    pub origin: Vec<NodeId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    /// First submission of query `i` in this pass.
    Query(usize),
    /// Resubmission of query `i` (result-cache traffic).
    Repeat(usize),
    Insert(usize),
    /// Removes the graph `Insert(i)` added in this pass.
    Remove(usize),
    Fold,
}

/// How `match_quality` is computed from a first-time query's results.
pub enum Quality {
    /// Mean precision@10 of the source graph's family, the self match
    /// excluded. `families[g]` for database graphs, `insert_families[i]`
    /// for graphs added by `Insert(i)`.
    Family {
        families: Vec<u32>,
        insert_families: Vec<u32>,
    },
    /// Share of query nodes the top result maps to their true origin.
    Alignment,
}

pub struct InProc {
    pub db: GraphDb,
    pub params: TaleParams,
    pub opts: QueryOptions,
    pub queries: Vec<QuerySpec>,
    /// Graphs added by `Insert(i)`, named `ins<i>`.
    pub inserts: Vec<Graph>,
    pub ops: Vec<Op>,
    pub quality: Quality,
    /// A whole-graph query must rank its own graph first.
    pub self_first: bool,
    /// Reopen after the build with a buffer pool of this share of the
    /// index's pages (`None` keeps the pool the build used).
    pub pool_share: Option<f64>,
    /// Ops run once during set-up so lazy work is paid there. They leave
    /// the database in the state a pass starts from.
    pub warm: Vec<Op>,
}

pub fn hash_graph(h: &mut Fnv, g: &Graph) {
    h.u64(g.node_count() as u64);
    for n in g.nodes() {
        h.u64(u64::from(g.label(n).0));
    }
    for (u, v, l) in g.edges() {
        h.u64(u64::from(u.0));
        h.u64(u64::from(v.0));
        h.u64(l.map_or(u64::MAX, |l| u64::from(l.0)));
    }
}

impl Workload for InProc {
    fn input_checksum(&self) -> u64 {
        let mut h = Fnv::new();
        for (_, name, g) in self.db.iter() {
            h.bytes(name.as_bytes());
            hash_graph(&mut h, g);
        }
        for q in &self.queries {
            h.u64(u64::from(q.source.0));
            hash_graph(&mut h, &q.graph);
        }
        for g in &self.inserts {
            hash_graph(&mut h, g);
        }
        for op in &self.ops {
            let (tag, i) = match *op {
                Op::Query(i) => (0, i),
                Op::Repeat(i) => (1, i),
                Op::Insert(i) => (2, i),
                Op::Remove(i) => (3, i),
                Op::Fold => (4, 0),
            };
            h.u64(tag);
            h.u64(i as u64);
        }
        h.finish()
    }

    fn setup(&self, dir: &Path) -> Result<(Box<dyn Instance + '_>, f64), String> {
        let graphs = self.db.clone(); // input copy, not timed
        let t = Instant::now();
        let mut db = TaleDatabase::build(graphs, dir, &self.params).map_err(|e| e.to_string())?;
        let mut frames = self.params.buffer_frames;
        if let Some(share) = self.pool_share {
            let pages = db.index_size_bytes() / PAGE_BYTES;
            frames = ((pages as f64 * share) as usize).max(8);
            drop(db);
            db = TaleDatabase::open(dir, frames).map_err(|e| e.to_string())?;
        }
        let mut inst = InProcInstance {
            spec: self,
            start_nodes: db.index().node_count(),
            db,
            dir: dir.to_owned(),
            frames,
        };
        let warm = inst.run_ops(&self.warm, None, &self.opts, None);
        let secs = t.elapsed().as_secs_f64();
        if warm.failed > 0 {
            return Err(format!("{} warm-up operations failed", warm.failed));
        }
        Ok((Box::new(inst), secs))
    }
}

pub struct InProcInstance<'a> {
    spec: &'a InProc,
    db: TaleDatabase,
    dir: PathBuf,
    frames: usize,
    start_nodes: u64,
}

/// What the traced pass collects besides spans.
#[derive(Default)]
struct Traced {
    stats: Vec<QueryStats>,
    /// Graphs in the delta overlay, summed over the traced queries.
    delta_graphs: u64,
    /// Matches returned to first-time queries.
    results: u64,
}

struct OpsOut {
    /// Latency of each op, aligned with the op list prefix that ran.
    op_ms: Vec<f64>,
    failed: usize,
    checksum: u64,
    /// `match_quality` of each first-time query that ran, by query index
    /// (summed in that order, so the mean does not depend on the op order).
    quality: Vec<Option<f64>>,
}

impl InProcInstance<'_> {
    fn quality_of(&self, q: &QuerySpec, res: &[QueryMatch]) -> f64 {
        match &self.spec.quality {
            Quality::Family {
                families,
                insert_families,
            } => {
                let family = |m: &QueryMatch| -> Option<u32> {
                    families.get(m.graph.idx()).copied().or_else(|| {
                        let i: usize = m.graph_name.strip_prefix("ins")?.parse().ok()?;
                        insert_families.get(i).copied()
                    })
                };
                let want = families[q.source.idx()];
                let hits = res
                    .iter()
                    .filter(|m| m.graph != q.source)
                    .take(10)
                    .filter(|m| family(m) == Some(want))
                    .count();
                hits as f64 / 10.0
            }
            Quality::Alignment => match res.first() {
                Some(top) if top.graph == q.source && !q.origin.is_empty() => {
                    let right = top
                        .m
                        .pairs
                        .iter()
                        .filter(|p| q.origin[p.query.idx()] == p.target)
                        .count();
                    right as f64 / q.origin.len() as f64
                }
                _ => 0.0,
            },
        }
    }

    /// Runs `ops` one after the other — not all of them when `budget_s`
    /// runs out first (never fewer than three). With a tracer each op runs
    /// inside a span of its own.
    fn run_ops(
        &mut self,
        ops: &[Op],
        budget_s: Option<f64>,
        opts: &QueryOptions,
        mut traced: Option<(&mut Tracer, &mut Traced)>,
    ) -> OpsOut {
        let spec = self.spec;
        let mut out = OpsOut {
            op_ms: Vec::with_capacity(ops.len()),
            failed: 0,
            checksum: 0,
            quality: vec![None; spec.queries.len()],
        };
        let mut sum = Fnv::new();
        let mut inserted: Vec<Option<GraphId>> = vec![None; spec.inserts.len()];
        let started = Instant::now();
        for &op in ops {
            if out.op_ms.len() >= 3 && budget_s.is_some_and(|b| started.elapsed().as_secs_f64() > b)
            {
                break;
            }
            beat();
            let tr = traced.as_mut().map(|(tr, _)| &mut **tr);
            let ok = match op {
                Op::Query(i) | Op::Repeat(i) => {
                    let q = &spec.queries[i];
                    let delta_graphs = self.db.index().snapshot().delta_graphs();
                    // `query` is `query_with_stats` minus the statistics
                    let (res, ms) = timed(tr, "tale.query", || {
                        self.db.query_with_stats(&q.graph, opts)
                    });
                    out.op_ms.push(ms);
                    res.is_ok_and(|(res, stats)| {
                        if let Some((_, acc)) = traced.as_mut() {
                            acc.stats.push(stats);
                            acc.delta_graphs += u64::from(delta_graphs);
                            if op == Op::Query(i) {
                                acc.results += res.len() as u64;
                            }
                        }
                        if op == Op::Query(i) {
                            out.quality[i] = Some(self.quality_of(q, &res));
                        }
                        hash_matches(&mut sum, &res);
                        !spec.self_first || res.first().map(|m| m.graph) == Some(q.source)
                    })
                }
                Op::Insert(i) => {
                    let (name, g) = (format!("ins{i}"), spec.inserts[i].clone());
                    let (gid, ms) = timed(tr, "tale.insert", || self.db.insert_graph(name, g));
                    out.op_ms.push(ms);
                    inserted[i] = gid.ok();
                    inserted[i].is_some()
                }
                Op::Remove(i) => {
                    let (ok, ms) = timed(tr, "tale.remove", || {
                        inserted[i].is_some_and(|gid| self.db.remove_graph(gid).is_ok())
                    });
                    out.op_ms.push(ms);
                    ok
                }
                Op::Fold => {
                    let (ok, ms) = timed(tr, "nhindex.fold", || self.db.fold().is_ok());
                    out.op_ms.push(ms);
                    ok
                }
            };
            out.failed += usize::from(!ok);
        }
        // A list with mutations must end where it started.
        if out.op_ms.len() == ops.len() && !spec.inserts.is_empty() {
            let snap = self.db.index().snapshot();
            if snap.node_count() != self.start_nodes || snap.delta_graphs() != 0 {
                out.failed += 1;
            }
        }
        out.checksum = sum.finish();
        out
    }
}

/// Runs `f` and returns its result with the milliseconds it took; with a
/// tracer, as the next operation, inside a span named `span`.
fn timed<R>(tr: Option<&mut Tracer>, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = match tr {
        None => f(),
        Some(tr) => {
            tr.next_op();
            tr.span(span, |_| f())
        }
    };
    (r, t.elapsed().as_secs_f64() * 1e3)
}

impl Instance for InProcInstance<'_> {
    fn pass(&mut self) -> Pass {
        let out = self.run_ops(&self.spec.ops, None, &self.spec.opts, None);
        Pass {
            query_ms: (self.spec.ops.iter().zip(&out.op_ms))
                .filter(|(op, _)| matches!(op, Op::Query(_) | Op::Repeat(_)))
                .map(|(_, &ms)| ms)
                .collect(),
            ops: out.op_ms.len(),
            failed: out.failed,
            busy_s: out.op_ms.iter().sum::<f64>() / 1e3,
            checksum: out.checksum,
            quality: out.quality.iter().flatten().sum::<f64>()
                / out.quality.iter().flatten().count().max(1) as f64,
        }
    }

    fn sizes(&self) -> Sizes {
        Sizes {
            graphs: self.spec.db.len(),
            nodes: self.start_nodes,
            index_bytes: self.db.index_size_bytes(),
            pool_frames: self.frames,
            ops_per_pass: self.spec.ops.len(),
        }
    }

    fn trace(&mut self, seconds: f64, tr: &mut Tracer) -> Result<Layers, String> {
        let spec = self.spec;
        let mut out = Layers::new();
        let has_mutations = !spec.inserts.is_empty();

        // 1. Untraced reference pass at the workload's own options. A list
        //    with mutations always runs whole (it must end where it began);
        //    a query-only list is cut to what fits a fifth of the budget.
        let budget = (!has_mutations).then_some(seconds / 5.0);
        let base = self.run_ops(&spec.ops, budget, &spec.opts, None);
        let ops = &spec.ops[..base.op_ms.len()];
        let base_wall: f64 = base.op_ms.iter().sum();

        // 2. The same ops on one thread: the serial reference the replayed
        //    layers are held against, and the base of `par.speedup_nproc`.
        let serial_opts = spec.opts.clone().with_threads(1);
        let serial = if spec.opts.threads == 1 {
            None
        } else {
            Some(self.run_ops(ops, None, &serial_opts, None))
        };
        let serial_ms = serial.as_ref().map_or(&base.op_ms, |s| &s.op_ms);
        out.insert(
            "par.speedup_nproc",
            serial_ms.iter().sum::<f64>() / base_wall.max(f64::MIN_POSITIVE),
        );

        // 3. Traced pass: every op in a span, queries through
        //    `query_with_stats`.
        let cache_before = self.db.result_cache_stats();
        let prefetch_before = self.db.index().prefetch_stats();
        let mut acc = Traced::default();
        let traced = self.run_ops(ops, None, &spec.opts, Some((tr, &mut acc)));
        let traced_wall: f64 = traced.op_ms.iter().sum();
        out.insert(
            "trace.overhead_frac",
            traced_wall / base_wall.max(f64::MIN_POSITIVE) - 1.0,
        );
        if traced.failed + base.failed > 0 {
            return Err(format!(
                "{} traced operations failed",
                traced.failed + base.failed
            ));
        }
        let cache = self.db.result_cache_stats();
        let prefetch = self.db.index().prefetch_stats();
        let lookups = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);
        out.insert(
            "tale.cache_hit_rate",
            ratio((cache.hits - cache_before.hits) as f64, lookups as f64),
        );
        out.insert(
            "storage.prefetch_used_frac",
            ratio(
                (prefetch.used - prefetch_before.used) as f64,
                (prefetch.issued - prefetch_before.issued) as f64,
            ),
        );
        let nq = acc.stats.len().max(1) as f64;
        out.insert(
            "nhindex.delta_graphs_at_query",
            acc.delta_graphs as f64 / nq,
        );
        layers::query_stats_metrics(&mut out, &acc.stats);
        out.insert(
            "storage.pool_frames_over_index_pages",
            self.frames as f64 / (self.db.index_size_bytes() / PAGE_BYTES).max(1) as f64,
        );

        // 4. Replay of the layers from outside, on the first-time queries
        //    of the same prefix, against the snapshot current now (for a
        //    list with mutations: the folded starting state).
        let db = self.db.db();
        let snap = self.db.index().snapshot();
        let (base_reader, delta_reader) = (snap.base_reader(), snap.delta_reader());
        let readers: [&dyn IndexReader; 2] = [&base_reader, &delta_reader];
        let mut replay = layers::ReplayCounts::default();
        let mut serial_query_ms = 0.0;
        let mut first_time = 0usize;
        let mut plan_est_rows = 0u64;
        for (op, &ms) in ops.iter().zip(serial_ms) {
            if let Op::Query(i) = *op {
                let q = &spec.queries[i].graph;
                beat();
                tr.next_op();
                tr.span("tale.explain", |_| {
                    plan_est_rows += self
                        .db
                        .explain(q, &spec.opts)
                        .probes
                        .iter()
                        .filter_map(|p| p.est_rows)
                        .sum::<u64>();
                });
                layers::replay_query(tr, &db, &readers, q, &serial_opts, &mut replay);
                serial_query_ms += ms;
                first_time += 1;
            }
        }
        layers::replay_metrics(
            &mut out,
            tr,
            &replay,
            first_time,
            serial_query_ms,
            acc.results,
        );
        let rows: u64 = acc.stats.iter().map(|s| s.rows_examined).sum();
        out.insert(
            "tale.plan_est_rows_ratio",
            ratio(plan_est_rows as f64, rows as f64),
        );

        // 5. Mutation layers, from the traced pass's spans.
        let total = tr.total_ms_by_name();
        let count = |kind: fn(&Op) -> bool| ops.iter().filter(|o| kind(o)).count();
        let per = |name: &str, k: usize| ratio(total.get(name).copied().unwrap_or(0.0), k as f64);
        out.insert(
            "tale.insert_ms",
            per("tale.insert", count(|o| matches!(o, Op::Insert(_)))),
        );
        out.insert(
            "tale.remove_ms",
            per("tale.remove", count(|o| matches!(o, Op::Remove(_)))),
        );
        out.insert(
            "nhindex.fold_ms",
            per("nhindex.fold", count(|o| matches!(o, Op::Fold))),
        );

        // 6. Index build and open.
        let cfg = layers::index_config(&spec.params);
        layers::build_open_metrics(
            &mut out,
            tr,
            &self.dir,
            |dir| GenerationalNhIndex::build(dir, &spec.db, &cfg).map(drop),
            |dir| GenerationalNhIndex::open(dir, &spec.db, self.frames).map(drop),
        )?;
        out.insert(
            "nhindex.bitprobe_ns_per_row",
            layers::bitprobe_ns_per_row(spec.params.sbit, seconds),
        );
        Ok(out)
    }
}
