//! `serve_query` and `serve_churn`: a real `ltgs serve` child, one TCP
//! connection, closed loop, a fixed number of whole blocks split over
//! three boots. The two differ in world, script and in which verb they
//! call their own. (The open-loop pass B is driven from `traced.rs`.)

use super::script::{ChurnScript, Edb, Op, QueryScript, Script, Verb, BLOCK};
use super::worlds::{dag_world, lubm_world, World, CHURN_LAYERS};
use super::{fnv1a, Ctx, Outcome, FNV_OFFSET, R_CHURN, R_QUERY};
use crate::serve::{Client, Reply, Sample, ServeChild};
use crate::stats::{median_f64, Samples};
use crate::verify::{
    bounds_contain, parse_answers, parse_bounds, same_answers, Answers, Oracle, Tally,
    WIRE_TOLERANCE,
};
use std::time::{Duration, Instant};

pub struct Spec {
    pub name: &'static str,
    pub world: fn(u64) -> World,
    pub script: fn(u64, &World) -> Box<dyn Script>,
    /// Open-loop rate of pass B, ops/s.
    pub rate: f64,
    /// Closed-loop throughput of the seed commit, ops/s: sizes pass A so
    /// that it runs its share of `--seconds` there. A constant, so that
    /// a seed always gives the same ops.
    pub nominal_rate: f64,
    /// The ops whose p50 is `latency_mid_us` and whose p99 is
    /// `latency_tail_us`. Each is one mode of the mix (rule 3 of the
    /// README): on `serve_churn` the p50 of INSERT+DELETE would sit
    /// between the local inserts (44 us) and the local deletes (106 us).
    pub mid: fn(&Op) -> bool,
    pub mid_name: &'static str,
    pub tail: fn(&Op) -> bool,
    pub tail_name: &'static str,
    /// Blocks sent before either pass starts timing: the first ops
    /// after a boot run several times slower than the steady state.
    pub warmup_blocks: usize,
    /// Pool ranks queried once before the warm-up blocks, so that a
    /// pass starts with its hot set cached and not with a backlog of
    /// first-touch misses.
    pub warm_ranks: usize,
    /// Every `n`-th query reply is checked against the oracle (all of
    /// them would double the run's length on `serve_query`).
    pub check_every: usize,
}

pub const SERVE_QUERY: Spec = Spec {
    name: "serve_query",
    world: lubm_world,
    // UPDATE targets are `publicationAuthor` facts: one predicate a
    // ninth of the pool reads, which is what keeps the hit ratio inside
    // [0.80, 0.95] while every tenth op is an UPDATE.
    script: |seed, w| Box::new(QueryScript::new(seed, &w.pool, &w.edb, "narrow")),
    rate: R_QUERY,
    nominal_rate: 16_000.0,
    mid: |op| op.verb == Verb::Query,
    mid_name: "exact QUERY",
    tail: |op| op.verb == Verb::Query,
    tail_name: "exact QUERY",
    warmup_blocks: 20,
    warm_ranks: 1024,
    check_every: 25,
};

pub const SERVE_CHURN: Spec = Spec {
    name: "serve_churn",
    world: |seed| dag_world(seed, CHURN_LAYERS),
    // 2 of a block's 40 pairs are deep: 5 %.
    script: |seed, w| Box::new(ChurnScript::new(seed, &w.pool, &w.edb, 2)),
    rate: R_CHURN,
    nominal_rate: 3_000.0,
    mid: |op| op.verb == Verb::Delete,
    mid_name: "DELETE",
    tail: |op| op.verb.reasons(),
    tail_name: "INSERT+DELETE",
    warmup_blocks: 5,
    warm_ranks: 0,
    check_every: 1,
};

/// Pool ranks whose initial-state answers are blessed per pinned seed.
const BLESSED_RANKS: usize = 256;

/// The oracle's answers to the head of the pool on the initial world.
pub fn reference_answers(world: &World, oracle: &Oracle) -> Result<Vec<(String, Answers)>, String> {
    world
        .pool
        .iter()
        .take(BLESSED_RANKS)
        .map(|q| Ok((q.text.clone(), oracle.answers(&q.text)?)))
        .collect()
}

/// Digest and reference answers of a served world and its script.
pub fn reference(
    world: &World,
    script: &mut dyn Script,
) -> Result<(u64, Vec<(String, Answers)>), String> {
    let oracle = Oracle::new(&world.render())?;
    Ok((
        input_digest(world, script),
        reference_answers(world, &oracle)?,
    ))
}

/// A booted server with its client connection.
pub struct Booted {
    pub world: World,
    pub child: ServeChild,
    pub client: Client,
    /// World generation → first reply.
    pub setup_s: f64,
}

/// One set-up: generate and render the world, write it, spawn the
/// server, wait for readiness, connect, first round trip.
pub fn boot(
    ctx: &Ctx,
    world: impl Fn(u64) -> World,
    serve_args: &[&str],
    from: Instant,
) -> Result<Booted, String> {
    let world = world(ctx.seed);
    let program = ctx.dir.join("world.pl");
    std::fs::write(&program, world.render()).map_err(|e| format!("write world: {e}"))?;
    let child = ServeChild::spawn(
        &ctx.ltgs_bin,
        &program,
        serve_args,
        &ctx.dir.join("serve.log"),
    )?;
    let mut client = Client::connect(&child.addr)?;
    let pong = client.request("PING")?;
    if pong.head != "OK pong" {
        return Err(format!("PING answered {:?}", pong.head));
    }
    Ok(Booted {
        world,
        child,
        client,
        setup_s: from.elapsed().as_secs_f64(),
    })
}

/// The untimed start of a pass, as ops for whoever drives it (a TCP
/// client, a `Session`, the shard router): the pool's first ranks once
/// each, then the script's first blocks.
pub fn warm_up(world: &World, spec: &Spec, script: &mut dyn Script) -> Vec<Op> {
    let mut ops: Vec<Op> = world
        .pool
        .iter()
        .take(spec.warm_ranks)
        .enumerate()
        .map(|(rank, query)| Op {
            verb: Verb::Query,
            line: format!("QUERY {}.", query.text),
            target: rank,
            prob: 0.0,
            deep: false,
        })
        .collect();
    ops.extend(script.blocks(spec.warmup_blocks));
    ops
}

/// Digest of what the program is given: the rendered world and the
/// first blocks of the script.
pub fn input_digest(world: &World, script: &mut dyn Script) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, world.render().as_bytes());
    for op in script.blocks(10) {
        h = fnv1a(h, op.line.as_bytes());
        h = fnv1a(h, b"\n");
    }
    h
}

/// Follows one pass: keeps the bench's own EDB in step with the
/// acknowledged mutations, checks every reply it can predict on the
/// spot, and keeps a sample of query replies for the oracle.
pub struct Recorder {
    pub edb: Edb,
    ops_seen: usize,
    /// `(op number, fact, new weight)` of the acknowledged `UPDATE`s.
    updates: Vec<(usize, usize, f64)>,
    /// `(op number, pool index, approximate, reply)`.
    sampled: Vec<(usize, usize, bool, Reply)>,
    queries_seen: usize,
    check_every: usize,
}

impl Recorder {
    pub fn new(world: &World, check_every: usize) -> Recorder {
        Recorder {
            edb: world.edb.clone(),
            ops_seen: 0,
            updates: Vec::new(),
            sampled: Vec::new(),
            queries_seen: 0,
            check_every,
        }
    }

    pub fn observe(&mut self, ops: &[Op], samples: Vec<Sample>, tally: &mut Tally) {
        for (op, sample) in ops.iter().zip(samples) {
            let reply = sample.reply;
            // For a mutation `target` is the fact it touches.
            let old = |edb: &Edb| edb.facts[op.target].prob;
            let expected_head = match op.verb {
                Verb::Insert => Some("OK inserted epoch=".to_string()),
                Verb::Delete => Some(format!("OK deleted p={:.6} epoch=", old(&self.edb))),
                Verb::Update => Some(format!(
                    "OK updated p={:.6} -> {:.6} epoch=",
                    old(&self.edb),
                    op.prob
                )),
                Verb::Query | Verb::Approx => None,
            };
            match expected_head {
                Some(head) => {
                    if reply.head.starts_with(&head) {
                        tally.ok();
                        self.edb.apply(op);
                        if op.verb == Verb::Update {
                            self.updates.push((self.ops_seen, op.target, op.prob));
                        }
                    } else {
                        tally.fail(format!(
                            "{}: got {:?}, expected {head}…",
                            op.line, reply.head
                        ));
                    }
                }
                None => {
                    let well_formed = if op.verb == Verb::Approx {
                        parse_bounds(&reply).is_some()
                    } else {
                        parse_answers(&reply).is_some()
                    };
                    if well_formed {
                        tally.ok();
                        if self.queries_seen % self.check_every == 0 {
                            self.sampled.push((
                                self.ops_seen,
                                op.target,
                                op.verb == Verb::Approx,
                                reply,
                            ));
                        }
                        self.queries_seen += 1;
                    } else {
                        tally.fail(format!("{}: got {:?}", op.line, reply.head));
                    }
                }
            }
            self.ops_seen += 1;
        }
    }

    /// Checks the sampled query replies against the oracle, moving the
    /// oracle's weights along the pass's `UPDATE`s. Pool classes whose
    /// answers depend on which scripted edges are in at the moment
    /// (`open`) are left to the final-state check.
    pub fn check_sampled(
        &self,
        world: &World,
        oracle: &mut Oracle,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut next_update = 0;
        for (at, target, approx, reply) in &self.sampled {
            while next_update < self.updates.len() && self.updates[next_update].0 < *at {
                let (_, fact, prob) = self.updates[next_update];
                oracle.set_weight(&self.edb.facts[fact].atom, prob)?;
                next_update += 1;
            }
            let query = &world.pool[*target];
            if query.class == "open" {
                continue;
            }
            let expected = oracle.answers(&query.text)?;
            let verdict = if *approx {
                bounds_contain(
                    &expected,
                    &parse_bounds(reply).expect("kept because it parsed"),
                    WIRE_TOLERANCE,
                )
            } else {
                same_answers(
                    &expected,
                    &parse_answers(reply).expect("kept because it parsed"),
                    WIRE_TOLERANCE,
                )
            };
            tally.check(verdict, || format!("op {at} QUERY {}", query.text));
        }
        Ok(())
    }
}

/// Asks the server every pool query and compares with the oracle.
pub fn check_pool(
    world: &World,
    oracle: &Oracle,
    client: &mut Client,
    when: &str,
    tally: &mut Tally,
) -> Result<(), String> {
    for query in &world.pool {
        let reply = client.request(&format!("QUERY {}.", query.text))?;
        let verdict = match parse_answers(&reply) {
            Some(got) => same_answers(&oracle.answers(&query.text)?, &got, WIRE_TOLERANCE),
            None => Err(format!("got {:?}", reply.head)),
        };
        tally.check(verdict, || format!("{when}, QUERY {}", query.text));
    }
    Ok(())
}

/// [`check_pool`] against `ΔTcP` reasoning from scratch over the
/// bench's copy of the final EDB.
pub fn check_final_state(
    world: &World,
    edb: &Edb,
    client: &mut Client,
    tally: &mut Tally,
) -> Result<(), String> {
    let oracle = Oracle::new(&format!("{}{}", world.rules, edb.render()))?;
    check_pool(world, &oracle, client, "final state", tally)
}

/// The bypass assertions both served workloads share, from `STATS`:
/// nothing durable may be on.
pub fn require_no_persistence(stats: &Reply, tally: &mut Tally) {
    for key in ["durable", "snapshots", "wal_records"] {
        tally.require(stats.stat(key) == Some(0), || {
            format!("persistence is on outside durable_restart: {key} != 0")
        });
    }
}

/// Share of exact-query lookups between two `STATS` replies that hit.
pub fn hit_ratio_between(before: &Reply, after: &Reply) -> f64 {
    let delta = |key: &str| {
        after
            .stat(key)
            .unwrap_or(0)
            .saturating_sub(before.stat(key).unwrap_or(0)) as f64
    };
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

pub struct PassB {
    pub ops: Vec<Op>,
    /// Per op, from its due time to its last response byte.
    pub latency_ns: Vec<u64>,
    pub late: Samples,
    pub achieved_over_offered: f64,
    pub hit_ratio: f64,
}

/// Pass B on a fresh server: the warm-up, then `blocks` blocks
/// open-loop at the spec's rate; the generator spins the last `spin` up
/// to each due time.
pub fn pass_b(
    booted: &mut Booted,
    spec: &Spec,
    script: &mut dyn Script,
    blocks: usize,
    spin: Duration,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<PassB, String> {
    let warm = warm_up(&booted.world, spec, script);
    let samples = booted.client.closed_loop(&warm)?;
    rec.observe(&warm, samples, tally);
    let before = booted.client.request("STATS")?;
    let ops = script.blocks(blocks);
    let t0 = Instant::now();
    let (samples, late) = booted.client.open_loop(&ops, spec.rate, spin)?;
    let wall = t0.elapsed().as_secs_f64();
    let after = booted.client.request("STATS")?;
    let latency_ns = samples.iter().map(|s| s.latency_ns).collect();
    rec.observe(&ops, samples, tally);
    Ok(PassB {
        achieved_over_offered: ops.len() as f64 / wall / spec.rate,
        hit_ratio: hit_ratio_between(&before, &after),
        ops,
        latency_ns,
        late,
    })
}

/// The timed blocks of a whole run, pooled over its server processes.
/// Every block holds the same mix, so the median block is the typical
/// one; the latencies of a class of ops are ranked over the whole run.
/// Medians and pooled percentiles, not the best stretch: a regression
/// that hits one server process of five, or only the slower half of
/// the blocks, must move the number.
pub struct Timed {
    mid: fn(&Op) -> bool,
    tail: fn(&Op) -> bool,
    pub block_ns: Samples,
    pub mid_ns: Samples,
    pub tail_ns: Samples,
    pub by_verb: Vec<Samples>,
    /// The same three of the server process now serving, and what
    /// each process so far measured on its own: `[median block, p50 of
    /// mid, p99 of tail]`.
    stretch: [Samples; 3],
    stretches: Vec<[u64; 3]>,
}

impl Timed {
    pub fn new(mid: fn(&Op) -> bool, tail: fn(&Op) -> bool) -> Timed {
        Timed {
            mid,
            tail,
            block_ns: Samples::new(),
            mid_ns: Samples::new(),
            tail_ns: Samples::new(),
            by_verb: Verb::ALL.iter().map(|_| Samples::new()).collect(),
            stretch: Default::default(),
            stretches: Vec::new(),
        }
    }

    /// One timed block and what its ops took.
    pub fn block(&mut self, ops: &[Op], samples: &[Sample], wall_ns: u64) {
        self.block_ns.push(wall_ns);
        self.stretch[0].push(wall_ns);
        for (op, sample) in ops.iter().zip(samples) {
            let ns = sample.latency_ns;
            if (self.mid)(op) {
                self.mid_ns.push(ns);
                self.stretch[1].push(ns);
            }
            if (self.tail)(op) {
                self.tail_ns.push(ns);
                self.stretch[2].push(ns);
            }
            let verb = Verb::ALL
                .iter()
                .position(|v| *v == op.verb)
                .expect("listed");
            self.by_verb[verb].push(ns);
        }
    }

    /// Closes the stretch one server process served.
    pub fn end_stretch(&mut self) {
        let [block, mid, tail] = &mut self.stretch;
        self.stretches
            .push([block.median(), mid.median(), tail.quantile(0.99)]);
        self.stretch = Default::default();
    }

    /// Sets `ops_per_s`, `latency_mid_us` and `latency_tail_us`.
    pub fn set(&mut self, v: &mut crate::metrics::Values) {
        v.set(
            "ops_per_s",
            BLOCK as f64 / (self.block_ns.median() as f64 / 1e9),
        );
        v.set("latency_mid_us", self.mid_ns.median() as f64 / 1e3);
        v.set("latency_tail_us", self.tail_ns.quantile(0.99) as f64 / 1e3);
    }

    /// What each stretch measured on its own, and each verb over the run.
    pub fn notes(&mut self, what: &str, notes: &mut Vec<String>) {
        for (i, [block, mid, tail]) in self.stretches.iter().enumerate() {
            notes.push(format!(
                "  {what} {}: median block {:.2} ms, mid p50 {:.1} us, tail p99 {:.1} us",
                i + 1,
                *block as f64 / 1e6,
                *mid as f64 / 1e3,
                *tail as f64 / 1e3,
            ));
        }
        let q = |s: &mut Samples, q: f64| s.quantile(q) as f64 / 1e3;
        let t = &mut self.tail_ns;
        notes.push(format!(
            "  tail class: p50 {:.1}, p75 {:.1}, p90 {:.1}, p95 {:.1}, p97 {:.1}, p99 {:.1}, p99.9 {:.1} us (n={})",
            q(t, 0.5),
            q(t, 0.75),
            q(t, 0.9),
            q(t, 0.95),
            q(t, 0.97),
            q(t, 0.99),
            q(t, 0.999),
            t.len()
        ));
        for (verb, s) in Verb::ALL.iter().zip(&mut self.by_verb) {
            if !s.is_empty() {
                let (p, tail) = s.tail();
                notes.push(format!(
                    "  {verb:?}: p50 {:.1} us, p{p} {:.1} us (n={})",
                    s.median() as f64 / 1e3,
                    tail as f64 / 1e3,
                    s.len()
                ));
            }
        }
    }
}

/// Server boots per run. The timed ops are split evenly over them:
/// every boot is one more sample of set-up and boot time, and one more
/// server process, whose memory layout moves a miss by several percent.
/// (A smoke run makes do with two.)
pub const BOOTS: usize = 5;

pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    let (mut setups, mut boots) = (Vec::new(), Vec::new());
    let mut rss: f64 = 0.0;
    let mut timed = Timed::new(spec.mid, spec.tail);
    let mut hit_ratio = 0.0;

    // Closed loop, a fixed number of whole blocks. Only the time inside
    // the blocks counts: between blocks the client checks replies and
    // the server idles.
    let boots_n = if ctx.smoke { 2 } else { BOOTS };
    let blocks = ((ctx.seconds * spec.nominal_rate) as usize / BLOCK / boots_n).max(1);
    let mut oracle: Option<(Oracle, Vec<f64>)> = None;
    let mut script: Option<Box<dyn Script>> = None;
    for boot_no in 0..boots_n {
        let from = if boot_no == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        let mut booted = boot(ctx, spec.world, &[], from)?;
        setups.push(booted.setup_s);
        boots.push(booted.child.boot.as_secs_f64());
        if boot_no == 0 {
            out.digest = input_digest(
                &booted.world,
                (spec.script)(ctx.seed, &booted.world).as_mut(),
            );
            let o = Oracle::new(&booted.world.render())?;
            crate::pinned::check_expected(
                spec.name,
                ctx.seed,
                &reference_answers(&booted.world, &o)?,
                tally,
            );
            let initial = o.weights.clone();
            oracle = Some((o, initial));
        }
        // One script runs on through the boots; each boot starts from
        // the initial world again, and so do the bench's copy of the
        // EDB and the oracle's weights.
        let script = script.get_or_insert_with(|| (spec.script)(ctx.seed, &booted.world));
        let mut rec = Recorder::new(&booted.world, spec.check_every);
        let warm = warm_up(&booted.world, spec, script.as_mut());
        let samples = booted.client.closed_loop(&warm)?;
        rec.observe(&warm, samples, tally);
        let before = booted.client.request("STATS")?;
        for _ in 0..blocks {
            let block = script.block();
            let t = Instant::now();
            let samples = booted.client.closed_loop(&block)?;
            timed.block(&block, &samples, t.elapsed().as_nanos() as u64);
            rec.observe(&block, samples, tally);
        }
        timed.end_stretch();
        let stats = booted.client.request("STATS")?;
        rss = rss.max(booted.child.peak_rss_mb());
        require_no_persistence(&stats, tally);
        if spec.name == "serve_query" {
            tally.require(
                stats.stat("delta_passes") == Some(0) && stats.stat("retract_passes") == Some(0),
                || "serve_query ran an engine pass: core.delta_passes != 0".to_string(),
            );
            hit_ratio = hit_ratio_between(&before, &stats);
            if !ctx.smoke {
                tally.require((0.80..=0.95).contains(&hit_ratio), || {
                    format!(
                        "cache hit ratio {hit_ratio:.3} left [0.80, 0.95]: \
                         p50 may not be a hit, p99 not a miss"
                    )
                });
            }
        }
        let (oracle, initial) = oracle.as_mut().expect("built on the first boot");
        oracle.weights.clone_from(initial);
        rec.check_sampled(&booted.world, oracle, tally)?;
        if boot_no + 1 == boots_n {
            check_final_state(&booted.world, &rec.edb, &mut booted.client, tally)?;
        }
        booted.child.kill();
    }
    if !ctx.smoke {
        tally.require(timed.tail_ns.len() >= 1000, || {
            format!("only {} samples back the tail", timed.tail_ns.len())
        });
    }

    let v = &mut out.values;
    v.set("setup_s", median_f64(&setups));
    timed.set(v);
    v.set("boot_s", median_f64(&boots));
    v.set("peak_rss_mb", rss);

    let ops = timed.block_ns.len() * BLOCK;
    let busy = timed.block_ns.sum() as f64 / 1e9;
    out.notes.push(format!(
        "closed loop, 1 connection, {boots_n} boots x {blocks} blocks of {BLOCK}: {ops} ops in {busy:.2} s busy \
         ({:.0} ops/s overall); mid = {}, tail = {}",
        ops as f64 / busy,
        spec.mid_name,
        spec.tail_name,
    ));
    timed.notes("boot", &mut out.notes);
    if spec.name == "serve_query" {
        out.notes
            .push(format!("cache hit ratio of the last boot {hit_ratio:.3}"));
    }
    out.notes.push(format!(
        "set-ups {setups:.3?} s, boots {boots:.3?} s (spawn to readiness line)"
    ));

    // The issue's names for what this workload measures (closed loop).
    let n = &mut out.named;
    let us = |s: &mut Samples, q: f64| s.quantile(q) as f64 / 1e3;
    n.push((
        "ops_per_s",
        v.get("ops_per_s").unwrap_or(0.0),
        "1/s",
        timed.block_ns.len(),
    ));
    let [query, _, insert, delete, _] = &mut timed.by_verb[..] else {
        unreachable!("five verbs")
    };
    n.push(("query_p50_us", us(query, 0.5), "us", query.len()));
    n.push(("query_p99_us", us(query, 0.99), "us", query.len()));
    if spec.name == "serve_churn" {
        let mut mutation = insert.clone();
        mutation.extend(delete);
        n.push((
            "mutation_p50_us",
            us(&mut mutation, 0.5),
            "us",
            mutation.len(),
        ));
        n.push((
            "mutation_p99_us",
            us(&mut mutation, 0.99),
            "us",
            mutation.len(),
        ));
    }
    n.push(("peak_rss_mb", rss, "MB", boots_n));
    n.push(("setup_s", median_f64(&setups), "s", boots_n));
    Ok(out)
}
