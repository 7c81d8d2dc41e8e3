//! The paper-reproduction pin: every `repro` experiment of `all` and
//! `ablations` at seed 2014 with two runs per fault, rendered exactly as
//! `repro` prints it, must match the committed golden byte for byte.
//!
//! `table1` is left out: it reports wall-clock overheads, the only lines
//! that differ between two runs of one build.
//!
//! Regenerate the golden after an intentional change to an experiment
//! with `IX_REPRO_BLESS=1 cargo test -p ix-bench --release --test repro_golden`.

use std::path::PathBuf;

use ix_bench::experiments;

const SEED: u64 = 2014;
const RUNS: usize = 2;

#[test]
fn repro_seed_2014_matches_golden() {
    let mut actual = String::new();
    for &id in experiments::ALL.iter().chain(experiments::ABLATIONS) {
        if id == "table1" {
            continue;
        }
        let report = experiments::render(id, SEED, RUNS).expect("known experiment");
        actual.push_str(&format!(
            "=== {id} (seed {SEED}, runs {RUNS}) ===\n{report}\n"
        ));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/repro_seed2014.golden");
    if std::env::var_os("IX_REPRO_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing repro golden: {e} (bless with IX_REPRO_BLESS=1)"));
    if actual != expected {
        let (line, (got, want)) = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
            .unwrap_or((0, ("(length differs)", "")));
        panic!(
            "repro output drifted from the seed-2014 golden at line {}:\n  got:  {got}\n  want: {want}\n\
             bless with IX_REPRO_BLESS=1 if intentional",
            line + 1
        );
    }
}
