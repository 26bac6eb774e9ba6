//! What is pinned: the seeds, the digests of the inputs they generate,
//! and the reference answers blessed for them.
//!
//! A digest covers the rendered program(s) and the head of the script;
//! a run on a pinned seed whose digest differs fails with `inputs
//! changed` — a silent drift of `ltg-benchdata` would otherwise move
//! every number while looking like a performance change. The blessed
//! answers (`bench/expected/<workload>.<seed>.tsv`) are the *oracle's*
//! answers on the initial state; on a pinned seed the oracle must still
//! give them, so a change that bends the reference and the engine the
//! same way is caught too. Other seeds (the acceptance driver draws its
//! own) are checked against the oracle alone.

use crate::verify::{Answers, Tally};
use crate::workloads::{batch_qa, durable, served};
use crate::Args;
use std::path::PathBuf;

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A second pinned seed, to be left alone while a change is written and
/// run once it is done: a gain must hold on it too.
pub const HELD_OUT_SEED: u64 = 7;

/// `(workload, seed, digest)`; regenerate with `bench/run.sh --bless`,
/// which prints the lines to paste here.
const DIGESTS: [(&str, u64, u64); 8] = [
    ("batch_qa", 1, 0xe755c4fa629d99c8),
    ("serve_query", 1, 0x05859743705fefc8),
    ("serve_churn", 1, 0x260954f62c8eab3e),
    ("durable_restart", 1, 0x86983fea2af423bb),
    ("batch_qa", 7, 0x2dce48b018170759),
    ("serve_query", 7, 0xf97c95cd1b01368e),
    ("serve_churn", 7, 0xbbb64974cb96b205),
    ("durable_restart", 7, 0xf867ece3b7e3744b),
];

pub fn check_digest(workload: &str, seed: u64, digest: u64, tally: &mut Tally) {
    if let Some((_, _, pinned)) = DIGESTS
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
    {
        tally.require(*pinned == digest, || {
            format!(
                "inputs changed: {workload} seed {seed} digests to {digest:016x}, pinned {pinned:016x}"
            )
        });
    }
}

fn expected_path(workload: &str, seed: u64) -> PathBuf {
    crate::bench_dir()
        .join("expected")
        .join(format!("{workload}.{seed}.tsv"))
}

/// One line per answer: `<query>\t<answer>\t<probability to 1e-6>`; a
/// query without answers gets one line with an empty answer.
pub fn expected_lines(answers: &[(String, Answers)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (query, answers) in answers {
        if answers.is_empty() {
            lines.push(format!("{query}\t\t"));
        }
        for (atom, p) in answers {
            lines.push(format!("{query}\t{atom}\t{p:.6}"));
        }
    }
    lines
}

/// On a seed with a blessed file, the oracle's answers must equal it.
pub fn check_expected(workload: &str, seed: u64, answers: &[(String, Answers)], tally: &mut Tally) {
    let path = expected_path(workload, seed);
    let Ok(blessed) = std::fs::read_to_string(&path) else {
        return;
    };
    let now = expected_lines(answers);
    let same = blessed.lines().eq(now.iter().map(String::as_str));
    tally.require(same, || {
        let at = blessed
            .lines()
            .zip(&now)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        format!(
            "reference answers changed: {} line {} (re-bless only if the world was meant to change)",
            path.display(),
            at + 1
        )
    });
}

/// `--bless`: writes the oracle's answers for both pinned seeds (and
/// for `--seed`, if it names another) and prints the digest lines.
pub fn bless(args: &Args) -> Result<bool, String> {
    let dir = crate::bench_dir().join("expected");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut seeds = vec![DEFAULT_SEED, HELD_OUT_SEED];
    if !seeds.contains(&args.seed) {
        seeds.push(args.seed);
    }
    for seed in seeds {
        bless_seed(seed)?;
    }
    Ok(true)
}

fn served_reference(
    spec: &served::Spec,
    seed: u64,
) -> Result<(u64, Vec<(String, Answers)>), String> {
    let world = (spec.world)(seed);
    served::reference(&world, (spec.script)(seed, &world).as_mut())
}

fn bless_seed(seed: u64) -> Result<(), String> {
    for (workload, _) in crate::metrics::WORKLOADS {
        let (digest, answers) = match workload {
            "batch_qa" => batch_qa::reference(seed)?,
            "serve_query" => served_reference(&served::SERVE_QUERY, seed)?,
            "serve_churn" => served_reference(&served::SERVE_CHURN, seed)?,
            _ => durable::reference(seed)?,
        };
        let path = expected_path(workload, seed);
        let mut text = expected_lines(&answers).join("\n");
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "    (\"{workload}\", {seed}, 0x{digest:016x}),   // {} answers -> {}",
            answers.iter().map(|(_, a)| a.len()).sum::<usize>(),
            path.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_seeds_are_pinned_for_every_workload() {
        for (workload, _) in crate::metrics::WORKLOADS {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    DIGESTS
                        .iter()
                        .any(|(w, s, d)| *w == workload && *s == seed && *d != 0),
                    "{workload} seed {seed}"
                );
                assert!(expected_path(workload, seed).file_name().is_some());
            }
        }
    }

    #[test]
    fn a_changed_input_fails_the_run() {
        let mut tally = Tally::default();
        check_digest("batch_qa", DEFAULT_SEED, 1, &mut tally);
        assert_eq!(tally.failed, 1);
        assert!(tally.reasons[0].starts_with("inputs changed"));
        // Seeds that are not pinned are not checked.
        check_digest("batch_qa", 12345, 1, &mut tally);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn expected_lines_cover_empty_answers() {
        let lines = expected_lines(&[
            ("q(a)".into(), vec![("q(a)".into(), 0.25)]),
            ("q(b)".into(), vec![]),
        ]);
        assert_eq!(lines, ["q(a)\tq(a)\t0.250000", "q(b)\t\t"]);
    }
}
