//! The metric tables: every name the benchmark prints, with its unit,
//! and for the end-to-end ones the direction and the bound by which a
//! later change may worsen it. `BENCHMARK.json` is generated from these
//! tables (`ltgs-perfbench emit-benchmark-json`) and a test keeps the
//! committed file equal to them.

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// How long one run measures, seconds. With set-up and verification a
/// run takes 18–32 s; the driver's 92 runs and two builds must fit in
/// 3 420 s on a box that at times runs 1.8x slower.
pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch_qa",
        "paper QA cells in-process (LUBM, VQAR, Claros): the only workload where batch reason dominates",
    ),
    (
        "serve_query",
        "ltgs serve under Zipf reads with weight churn: cache hits vs lineage+WMC misses; no engine pass runs",
    ),
    (
        "serve_churn",
        "ltgs serve under insert/delete pairs, 5% deep: incremental core and cache invalidation; WMC nearly idle",
    ),
    (
        "durable_restart",
        "ltgs serve --data-dir with kill -9 and warm boots: the only workload with WAL, snapshot and recovery on",
    ),
];

/// Every workload reports every one of these; what each means on each
/// workload is in `bench/README.md`. The timing bounds are the
/// contract's ceiling because that is what the box this was sized on
/// can resolve: over ten seeds of the seed commit the timings spread
/// (IQR over median) by 2–8 % in a steady stretch and by 5–18 % in an
/// unsteady one, and the medians of two sets of ten drift apart by
/// 6–18 % — its speed wanders for a quarter of an hour at a time,
/// whatever estimator is used (README.md, "Spread").
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_mid_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "boot_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// Per-layer metrics `(name, unit)`, taken in the traced run. Units
/// `count` and `B` mark exact counts that must repeat bit-for-bit on
/// the same seed; `compare` diffs those exactly (that is the 2 % gate
/// the issue gives `disk_bytes_per_mutation`, and a tighter one).
pub const PER_LAYER: [(&str, &str); 89] = [
    // datalog
    ("datalog.parse_us", "us"),
    ("datalog.magic_us", "us"),
    ("datalog.magic_rules", "count"),
    ("datalog.default_magic_short_cells", "count"),
    // storage
    ("storage.load_us", "us"),
    ("storage.edb_facts", "count"),
    ("storage.meter_peak_mb", "MB"),
    // core, batch
    ("core.reason_us", "us"),
    ("core.derivations", "count"),
    ("core.rounds", "count"),
    ("core.collapse_us", "us"),
    ("core.collapse_ops", "count"),
    ("core.deduped", "count"),
    ("core.nodes_alive", "count"),
    // core, incremental
    ("core.apply_us", "us"),
    ("core.delta_join_us", "us"),
    ("core.tree_build_us", "us"),
    ("core.compact_us", "us"),
    ("core.delta_join_probes_per_mutation", "count"),
    ("core.delta_waves", "count"),
    ("core.delta_new_trees", "count"),
    ("core.retracted_trees", "count"),
    ("core.bundle_rebuilds", "count"),
    ("core.nodes_compacted", "count"),
    ("core.graph_nodes_hiwater", "count"),
    ("core.delta_passes", "count"),
    // lineage
    ("lineage.extract_us", "us"),
    ("lineage.answers_per_query", "count"),
    ("lineage.conjuncts_p50", "count"),
    ("lineage.conjuncts_p99", "count"),
    ("lineage.literals_p99", "count"),
    ("lineage.forest_trees", "count"),
    // wmc
    ("wmc.solve_us", "us"),
    ("wmc.solves", "count"),
    ("wmc.vars_p99", "count"),
    // approx
    ("approx.query_p50_us", "us"),
    ("approx.query_p99_us", "us"),
    ("approx.gap_mean", "ratio"),
    ("approx.point_share", "ratio"),
    ("approx.intervals", "count"),
    // server
    ("server.parse_us", "us"),
    ("server.execute_us", "us"),
    ("server.render_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.cache_invalidations", "count"),
    ("server.cache_evictions", "count"),
    ("server.hit_p50_us", "us"),
    ("server.miss_p50_us", "us"),
    ("server.update_p50_us", "us"),
    ("server.tcp_overhead_us", "us"),
    // shard
    ("shard.plan_us", "us"),
    ("shard.route_us", "us"),
    ("shard.components", "count"),
    // persist
    ("persist.wal_append_us", "us"),
    ("persist.fsyncs", "count"),
    ("persist.wal_bytes_per_mutation", "B"),
    ("persist.disk_bytes_per_mutation", "B"),
    ("persist.checkpoint_us", "us"),
    ("persist.snapshot_encode_us", "us"),
    ("persist.snapshot_write_us", "us"),
    ("persist.snapshot_bytes", "count"),
    ("persist.snapshot_decode_us", "us"),
    ("persist.restore_us", "us"),
    ("persist.replay_us_per_record", "us"),
    ("persist.replayed_records", "count"),
    ("persist.cold_boot_us", "us"),
    ("persist.warm_boot_us", "us"),
    // obs
    ("obs.metrics_render_us", "us"),
    ("obs.metrics_lines", "lines"),
    // what the client saw, by verb (TCP, closed loop)
    ("client.query_p50_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.approx_p50_us", "us"),
    ("client.mutation_p50_us", "us"),
    ("client.mutation_p99_us", "us"),
    ("client.deep_mutation_p50_us", "us"),
    ("client.update_p50_us", "us"),
    // batch_qa cells kept out of the timed list because they fail
    ("qa.watch_failing_cells", "cells"),
    ("qa.watch_ms", "ms"),
    // driver: is the run itself valid
    ("driver.ops_traced", "count"),
    ("driver.ops_failed", "count"),
    ("driver.gen_late_p99_us", "us"),
    ("driver.achieved_over_offered", "ratio"),
    ("driver.pass_b_ops", "count"),
    ("driver.pass_b_retries", "retries"),
    ("trace.spans", "count"),
    ("trace.coverage_pct", "pct"),
    ("trace.overhead_pct", "pct"),
];

/// The metric values one run produced, by name.
#[derive(Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"bench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        // Counts have no direction of their own; busy times, waits and
        // sizes are better lower, ratios of useful work better higher.
        let better = match *name {
            "server.cache_hit_ratio"
            | "server.cache_hits"
            | "approx.point_share"
            | "driver.achieved_over_offered"
            | "trace.coverage_pct" => "higher",
            _ => "lower",
        };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench/run.sh emit-benchmark-json > BENCHMARK.json`"
        );
    }
}
