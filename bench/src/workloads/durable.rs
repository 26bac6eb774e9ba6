//! `durable_restart`: `ltgs serve --data-dir D --fsync-every 32
//! --snapshot-every 0` on the 8-layer DAG. A timed cold boot, then
//! eight cycles of: a closed-loop burst of local mutations → `SNAPSHOT`
//! on even cycles → `kill -9` → timed warm boot → re-query the pool and
//! compare with what was acknowledged. Even cycles restart from a
//! snapshot alone; odd cycles leave their whole burst in the WAL, so
//! the restart replays it. The flush policy is part of the workload:
//! one `fsync` per 32 WAL records, no automatic checkpoints.
//!
//! Process-crash model only: `kill -9` leaves the operating system's
//! cache intact, so every acknowledged (written) record must survive.
//! Power-loss truncation stays with `ltg-testkit::recovery`.

use super::script::{ChurnScript, Script, Verb, BLOCK};
use super::served::{
    boot, check_final_state, check_pool, input_digest, reference_answers, Recorder, Timed,
};
use super::traced::{replay, replay_untraced, session_options};
use super::worlds::{dag_world, World, DURABLE_LAYERS};
use super::{Ctx, Outcome};
use crate::metrics::Values;
use crate::serve::{Client, ServeChild};
use crate::stats::median_f64;
use crate::verify::{Answers, Oracle, Tally};
use ltg_core::LtgEngine;
use ltg_server::{
    execute, BootMode, DurabilityOptions, Request, Response, Session, SessionOptions,
};
use std::path::Path;
use std::time::Instant;

pub const CYCLES: usize = 8;
const COLD_SETUPS: usize = 5;
/// Closed-loop throughput of the seed commit on this script, ops/s.
const NOMINAL_RATE: f64 = 6000.0;
/// An odd cycle's burst is replayed record by record at the next boot,
/// which costs as much again: it gets a seventh of the ops of an even
/// one.
const ODD_SHARE: f64 = 1.0 / 7.0;

fn world(seed: u64) -> World {
    dag_world(seed, DURABLE_LAYERS)
}

fn script(seed: u64, w: &World) -> ChurnScript {
    // No deep pairs: the bursts are the local-mutation script.
    ChurnScript::new(seed, &w.pool, &w.edb, 0)
}

/// Digest and reference answers of the workload's inputs.
pub fn reference(seed: u64) -> Result<(u64, Vec<(String, Answers)>), String> {
    let w = world(seed);
    super::served::reference(&w, &mut script(seed, &w))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Re-queries the pool on a recovered server and compares with the
/// oracle moved to the acknowledged weights; also checks that the
/// recovered epoch is the last acknowledged one.
fn check_recovered(
    w: &World,
    rec: &Recorder,
    oracle: &mut Oracle,
    epoch: u64,
    client: &mut Client,
    tally: &mut Tally,
) -> Result<(), String> {
    let stats = client.request("STATS")?;
    tally.require(stats.stat("epoch") == Some(epoch), || {
        format!(
            "recovered epoch {:?}, acknowledged {epoch}",
            stats.stat("epoch")
        )
    });
    tally.require(stats.payload.iter().any(|l| l == "boot warm"), || {
        "the restart did not boot warm".to_string()
    });
    for f in rec.edb.facts.iter().filter(|f| f.class == "world") {
        oracle.set_weight(&f.atom, f.prob)?;
    }
    check_pool(w, oracle, client, "after restart", tally)
}

/// The epoch a mutation reply acknowledges (`… epoch=<n>`).
fn acked_epoch(head: &str) -> Option<u64> {
    head.rsplit_once("epoch=")?.1.trim().parse().ok()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    let data = ctx.dir.join("data");
    let data_arg = data.to_string_lossy().into_owned();
    let args = [
        "--data-dir",
        data_arg.as_str(),
        "--fsync-every",
        "32",
        "--snapshot-every",
        "0",
    ];

    // Cold set-ups on an empty data directory: all but the last are
    // only timed, the last goes on to serve.
    let (mut setups, mut cold_boots) = (Vec::new(), Vec::new());
    let mut serving = None;
    for i in 0..if ctx.smoke { 2 } else { COLD_SETUPS } {
        if let Some((child, _)) = serving.take() {
            ServeChild::kill(child);
        }
        let from = if i == 0 { ctx.started } else { Instant::now() };
        let _ = std::fs::remove_dir_all(&data);
        let b = boot(ctx, world, &args, from)?;
        setups.push(b.setup_s);
        cold_boots.push(b.child.boot.as_secs_f64());
        serving = Some((b.child, b.client));
    }
    let (mut child, mut client) = serving.expect("the set-ups ran");
    let w = world(ctx.seed);
    out.digest = input_digest(&w, &mut script(ctx.seed, &w));
    let mut oracle = Oracle::new(&w.render())?;
    crate::pinned::check_expected(
        "durable_restart",
        ctx.seed,
        &reference_answers(&w, &oracle)?,
        tally,
    );

    let even_blocks =
        ((ctx.seconds * 0.6 * NOMINAL_RATE / (CYCLES as f64 / 2.0) / (1.0 + ODD_SHARE)) as usize
            / BLOCK)
            .max(1);
    let odd_blocks = ((even_blocks as f64 * ODD_SHARE) as usize).max(1);
    let mut script = script(ctx.seed, &w);
    let mut rec = Recorder::new(&w, 1);
    // The p50 is a DELETE (INSERT+DELETE together would put it between
    // the two verbs' modes), the p99 an op that carried an fsync.
    let mut timed = Timed::new(|op| op.verb == Verb::Delete, |op| op.verb.reasons());
    let (mut warm_snapshot, mut warm_replay) = (Vec::new(), Vec::new());
    let (mut epoch, mut mutations, mut disk_bytes) = (0u64, 0u64, 0u64);
    let (mut rss, mut sent_ops): (f64, usize) = (0.0, 0);
    let mut replay_us_per_record = Vec::new();
    // A cold boot on an empty directory writes its first snapshot.
    disk_bytes += file_len(&ltg_persist::snapshot_path(&data));

    for cycle in 0..CYCLES {
        let blocks = if cycle % 2 == 0 {
            even_blocks
        } else {
            odd_blocks
        };
        let mut burst_records = 0u64;
        for _ in 0..blocks {
            let block = script.block();
            let t = Instant::now();
            let samples = client.closed_loop(&block)?;
            // The long bursts are timed; the short odd ones exist for
            // the replay they leave behind.
            if cycle % 2 == 0 {
                timed.block(&block, &samples, t.elapsed().as_nanos() as u64);
            }
            sent_ops += BLOCK;
            for (op, s) in block.iter().zip(&samples) {
                if op.verb != Verb::Query {
                    if let Some(e) = acked_epoch(&s.reply.head) {
                        epoch = e;
                        burst_records += 1;
                    }
                }
            }
            rec.observe(&block, samples, tally);
        }
        mutations += burst_records;
        if cycle % 2 == 0 {
            timed.end_stretch();
        }
        // What the burst wrote: its WAL records, and on even cycles the
        // snapshot that then empties the WAL.
        disk_bytes += file_len(&ltg_persist::wal_path(&data)).saturating_sub(WAL_HEADER);
        if cycle % 2 == 0 {
            let reply = client.request("SNAPSHOT")?;
            let bytes = reply
                .head
                .strip_prefix("OK snapshot ")
                .and_then(|r| r.rsplit_once("bytes=")?.1.parse::<u64>().ok());
            tally.require(bytes.is_some(), || {
                format!("SNAPSHOT answered {:?}", reply.head)
            });
            disk_bytes += bytes.unwrap_or(0);
        }
        let stats = client.request("STATS")?;
        tally.require(stats.stat("durable") == Some(1), || {
            "durable_restart is not durable".to_string()
        });
        rss = rss.max(child.peak_rss_mb());
        child.kill();

        // Warm boot on the data directory the crash left behind.
        child = ServeChild::spawn(
            &ctx.ltgs_bin,
            &ctx.dir.join("world.pl"),
            &args,
            &ctx.dir.join("serve.log"),
        )?;
        let boot_s = child.boot.as_secs_f64();
        if cycle % 2 == 0 {
            warm_snapshot.push(boot_s);
        } else {
            warm_replay.push(boot_s);
            // A boot that replayed records folds them into a snapshot.
            disk_bytes += file_len(&ltg_persist::snapshot_path(&data));
            replay_us_per_record.push((boot_s, burst_records));
        }
        client = Client::connect(&child.addr)?;
        check_recovered(&w, &rec, &mut oracle, epoch, &mut client, tally)?;
    }
    // Once more against reasoning from scratch over the bench's copy of
    // the final EDB.
    check_final_state(&w, &rec.edb, &mut client, tally)?;
    child.kill();

    if !ctx.smoke {
        tally.require(timed.tail_ns.len() >= 1000, || {
            format!("only {} samples back the tail", timed.tail_ns.len())
        });
    }
    let warm = median_f64(&warm_snapshot);
    let v = &mut out.values;
    v.set("setup_s", median_f64(&setups));
    timed.set(v);
    v.set("boot_s", warm);
    v.set("peak_rss_mb", rss);

    let replay: Vec<f64> = replay_us_per_record
        .iter()
        .map(|(boot_s, n)| (boot_s - warm) * 1e6 / *n as f64)
        .collect();
    out.notes.push(format!(
        "flush policy: fsync every 32 WAL records, no automatic checkpoints; {CYCLES} cycles, \
         {even_blocks} blocks per even burst (then SNAPSHOT), {odd_blocks} per odd burst (WAL replay)"
    ));
    out.notes.push(format!(
        "closed loop, 1 connection: {sent_ops} ops, {} of them timed; mid = DELETE, tail = INSERT+DELETE",
        timed.block_ns.len() * BLOCK
    ));
    timed.notes("even burst", &mut out.notes);
    out.notes.push(format!(
        "cold boots {cold_boots:.3?} s (median {:.4}); warm boots after SNAPSHOT {warm_snapshot:.3?} s \
         (median {warm:.4}); warm boots with WAL replay {warm_replay:.3?} s, {:.1} us per replayed record",
        median_f64(&cold_boots),
        median_f64(&replay)
    ));
    out.notes.push(format!(
        "{disk_bytes} B of WAL and snapshots over {mutations} acknowledged mutations"
    ));

    // The issue's names for what this workload measures.
    let [_, _, insert, delete, _] = &mut timed.by_verb[..] else {
        unreachable!("five verbs")
    };
    let mut mutation = insert.clone();
    mutation.extend(delete);
    out.named = vec![
        (
            "ops_per_s",
            v.get("ops_per_s").unwrap_or(0.0),
            "1/s",
            timed.block_ns.len(),
        ),
        (
            "mutation_p50_us",
            mutation.median() as f64 / 1e3,
            "us",
            mutation.len(),
        ),
        (
            "cold_boot_s",
            median_f64(&cold_boots),
            "s",
            cold_boots.len(),
        ),
        ("warm_boot_s", warm, "s", warm_snapshot.len()),
        (
            "disk_bytes_per_mutation",
            disk_bytes as f64 / mutations as f64,
            "B",
            mutations as usize,
        ),
        ("peak_rss_mb", rss, "MB", CYCLES + 1),
        ("setup_s", median_f64(&setups), "s", setups.len()),
    ];
    Ok(out)
}

/// Bytes of a WAL file that are header, not records (magic, version,
/// fingerprint, base epoch).
const WAL_HEADER: u64 = 8 + 4 + 8 + 8;

/// The traced run: the same local-mutation script against an
/// in-process `Session` with the same durability options, spans as in
/// [`super::traced`], and the persistence layer's own public functions
/// timed one by one. A crash is `mem::forget`: the session's WAL
/// writes are already in the file, nothing runs on the way out.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let w = world(ctx.seed);
    out.digest = input_digest(&w, &mut script(ctx.seed, &w));
    let program = ltg_datalog::parse_program(&w.render()).map_err(|e| format!("world: {e}"))?;
    let data = ctx.dir.join("data-traced");
    let _ = std::fs::remove_dir_all(&data);
    let durable = || SessionOptions {
        durability: Some(DurabilityOptions {
            dir: data.clone(),
            fsync_every: 32,
            fsync_after_ms: None,
            snapshot_every: 0,
        }),
        ..session_options()
    };
    let blocks = ((ctx.seconds * NOMINAL_RATE / 4.0) as usize / BLOCK).max(1);
    let tally = &mut out.tally;

    // The same ops on a session that is not durable: what the WAL adds
    // to a mutation is the difference.
    let mut plain = Session::new(&program, session_options()).map_err(|e| e.to_string())?;
    let ops = script(ctx.seed, &w).blocks(blocks);
    let untraced = replay_untraced(&mut plain, &ops, tally);
    drop(plain);
    let mut plain = Session::new(&program, session_options()).map_err(|e| e.to_string())?;
    let mut plain_replay = replay(&mut plain, &w, &ops, tally)?;
    // Tracing overhead is read where both sides run the same code: on
    // the two plain sessions.
    let mut plain_values = Values::default();
    plain_replay.values(&plain, Default::default(), untraced, &mut plain_values);
    drop(plain);

    // Cold boot on an empty directory (reasons, then writes the first
    // snapshot), then the traced replay with the WAL on.
    let t = Instant::now();
    let (mut session, report) = Session::boot(&program, durable()).map_err(|e| e.to_string())?;
    let cold_boot = t.elapsed();
    tally.require(report.mode == BootMode::Cold, || {
        "an empty data directory booted warm".to_string()
    });
    let mut disk_bytes = file_len(&ltg_persist::snapshot_path(&data));
    let cache0 = session.cache_stats();
    let mut traced = replay(&mut session, &w, &ops, tally)?;
    traced.values(&session, cache0, untraced, &mut out.values);
    let records = ops.iter().filter(|op| op.verb != Verb::Query).count() as u64;
    let wal_bytes = file_len(&ltg_persist::wal_path(&data)).saturating_sub(WAL_HEADER);
    disk_bytes += wal_bytes;
    let fsyncs = session
        .metrics_lines(0)
        .iter()
        .find_map(|l| {
            l.strip_prefix("ltg_wal_us_count{")
                .filter(|r| r.contains("op=\"fsync\""))
                .and_then(|r| r.rsplit_once(' ')?.1.parse::<u64>().ok())
        })
        .unwrap_or(0);

    // Checkpoint through the verb, then its parts through ltg-persist.
    let tracer = &mut traced.tracer;
    let s = tracer.enter("persist.checkpoint");
    let response = execute(&mut session, Request::Snapshot { info: false });
    let checkpoint_ns = tracer.exit(s);
    let snapshot_bytes = match response {
        Response::SnapshotWritten { bytes, .. } => bytes,
        other => {
            tally.fail(format!("SNAPSHOT answered {}", other.render().trim_end()));
            0
        }
    };
    disk_bytes += snapshot_bytes;
    let state = session.engine().export_state().map_err(|e| e.to_string())?;
    let s = tracer.enter("persist.snapshot_encode");
    let encoded = ltg_persist::snapshot::encode(&state);
    let encode_ns = tracer.exit(s);
    std::hint::black_box(&encoded);
    let scratch = data.join("scratch.ltgsnap");
    let s = tracer.enter("persist.snapshot_write");
    ltg_persist::snapshot::write_atomic(&scratch, &state).map_err(|e| e.to_string())?;
    let write_ns = tracer.exit(s);
    let s = tracer.enter("persist.snapshot_decode");
    let decoded = ltg_persist::snapshot::load(&scratch).map_err(|e| e.to_string())?;
    let decode_ns = tracer.exit(s);
    let s = tracer.enter("persist.restore");
    let restored = LtgEngine::restore(
        &program,
        session_options().config,
        decoded.ok_or("the scratch snapshot vanished")?,
    )
    .map_err(|e| e.to_string())?;
    let restore_ns = tracer.exit(s);
    drop(restored);
    let _ = std::fs::remove_file(&scratch);

    // Crash right after the checkpoint: the warm boot loads a snapshot.
    std::mem::forget(session);
    let t = Instant::now();
    let (mut session, report) = Session::boot(&program, durable()).map_err(|e| e.to_string())?;
    let warm_boot = t.elapsed();
    tally.require(
        report.mode == BootMode::Warm && report.replayed == 0,
        || {
            format!(
                "restart after SNAPSHOT: {:?}, {} replayed",
                report.mode, report.replayed
            )
        },
    );

    // A short burst that stays in the WAL, a crash, and the boot that
    // replays it.
    let tail = script(ctx.seed ^ 1, &w).blocks((blocks / 7).max(1));
    replay_untraced(&mut session, &tail, tally);
    let tail_records = tail.iter().filter(|op| op.verb != Verb::Query).count() as u64;
    disk_bytes += file_len(&ltg_persist::wal_path(&data)).saturating_sub(WAL_HEADER);
    std::mem::forget(session);
    let t = Instant::now();
    let (session, report) = Session::boot(&program, durable()).map_err(|e| e.to_string())?;
    let replay_boot = t.elapsed();
    tally.require(report.replayed == tail_records, || {
        format!(
            "{} records replayed, {tail_records} acknowledged",
            report.replayed
        )
    });
    disk_bytes += file_len(&ltg_persist::snapshot_path(&data));
    drop(session);

    let us = |ns: u64| ns as f64 / 1e3;
    let v = &mut out.values;
    v.set(
        "persist.wal_append_us",
        (traced.mutation_ns.median() as f64 - plain_replay.mutation_ns.median() as f64) / 1e3,
    );
    v.set("persist.fsyncs", fsyncs as f64);
    v.set(
        "persist.wal_bytes_per_mutation",
        wal_bytes as f64 / records as f64,
    );
    v.set(
        "persist.disk_bytes_per_mutation",
        disk_bytes as f64 / (records + tail_records) as f64,
    );
    v.set("persist.checkpoint_us", us(checkpoint_ns));
    v.set("persist.snapshot_encode_us", us(encode_ns));
    // `write_atomic` encodes again before it writes.
    v.set(
        "persist.snapshot_write_us",
        us(write_ns.saturating_sub(encode_ns)),
    );
    v.set("persist.snapshot_bytes", snapshot_bytes as f64);
    v.set("persist.snapshot_decode_us", us(decode_ns));
    v.set("persist.restore_us", us(restore_ns));
    v.set(
        "persist.replay_us_per_record",
        (replay_boot.as_secs_f64() - warm_boot.as_secs_f64()) * 1e6 / tail_records as f64,
    );
    v.set("persist.replayed_records", report.replayed as f64);
    v.set("persist.cold_boot_us", cold_boot.as_secs_f64() * 1e6);
    v.set("persist.warm_boot_us", warm_boot.as_secs_f64() * 1e6);
    v.set("trace.spans", traced.tracer.spans.len() as f64);
    v.set(
        "trace.overhead_pct",
        plain_values.get("trace.overhead_pct").unwrap_or(0.0),
    );
    v.set("driver.ops_failed", out.tally.failed as f64);

    let path = ctx.dir.with_file_name("trace-durable_restart.jsonl");
    traced
        .tracer
        .flush(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} ops in-process with the WAL on (fsync every 32): untraced-and-plain {:.2} s, traced {:.2} s; \
         {} spans -> {}",
        ops.len(),
        untraced.as_secs_f64(),
        traced.wall.as_secs_f64(),
        traced.tracer.spans.len(),
        path.display()
    ));
    Ok(out)
}
