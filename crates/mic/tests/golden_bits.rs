//! Golden MIC bits: the exact `f64` bits of `mic_with_profiles_scratch` for
//! a fixed set of seeded pairs, pinned in `tests/data/mic_bits.golden`.
//!
//! `profile_equivalence.rs` compares entry points that share one kernel, so
//! a change to the column-cost arithmetic or the DP's summation order moves
//! both sides together and passes there. This file pins the kernel's output
//! itself. Window lengths 45 and 60 bracket the engine's default window;
//! 300 makes the full-set column (and many DP columns) wider than the
//! column-cost table, so both cost paths are covered.
//!
//! Regenerate only for an intended change of MIC values with
//! `IX_MIC_BLESS=1 cargo test -p ix-mic --test golden_bits`.

use std::fmt::Write as _;
use std::path::PathBuf;

use ix_mic::{mic_with_profiles_scratch, MicParams, MineScratch, SeriesProfile};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const LENGTHS: [usize; 3] = [45, 60, 300];
const SEEDS: u64 = 4;
const SHAPES: [&str; 4] = ["linear", "sine", "counter", "noise"];

/// One seeded pair of the given shape: `x` is a noisy ramp, `y` depends on
/// it (or not, for `noise`). `counter` rounds both to integers so ties and
/// same-x runs exercise the clump merge paths.
fn pair(shape: &str, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..n)
        .map(|i| i as f64 / n as f64 + rng.gen_range(-0.05..0.05))
        .collect();
    let ys = xs
        .iter()
        .map(|&x| {
            let e = rng.gen_range(-1.0..1.0);
            match shape {
                "linear" => 3.0 * x + 1.5 * e,
                "sine" => (6.0 * x).sin() + 0.8 * e,
                "counter" => (8.0 * x + 2.0 * e).round(),
                _ => e,
            }
        })
        .collect();
    let xs = if shape == "counter" {
        xs.iter().map(|x| (x * 12.0).round()).collect()
    } else {
        xs
    };
    (xs, ys)
}

fn render() -> String {
    let mut out = String::new();
    let mut scratch = MineScratch::new();
    for (label, params) in [
        ("fast", MicParams::fast()),
        ("default", MicParams::default()),
    ] {
        for n in LENGTHS {
            for shape in SHAPES {
                for seed in 0..SEEDS {
                    let (xs, ys) = pair(shape, n, seed);
                    let xp = SeriesProfile::build(&xs, &params).unwrap();
                    let yp = SeriesProfile::build(&ys, &params).unwrap();
                    let mic = mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).unwrap();
                    writeln!(
                        out,
                        "{label} n={n} {shape} seed={seed} mic={:016x}",
                        mic.to_bits()
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn mic_bits_match_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/mic_bits.golden");
    let actual = render();
    if std::env::var_os("IX_MIC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("data dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing MIC golden: {e} (bless with IX_MIC_BLESS=1)"));
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "MIC bits drifted from golden");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden pair count changed"
    );
}
