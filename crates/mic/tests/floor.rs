//! Property tests for the floor-aware kernel, `mic_floor_scratch`.
//!
//! The diagnosis path asks one question of an invariant pair with
//! reference `I` and threshold `ε` (where `1 − I < ε`): does the window's
//! MIC grade to zero deviation, `|I − mic| < ε`? The kernel answers from
//! the first characteristic entry that does. These properties pin what
//! that answer may and may not be, on unrelated series and on
//! affine-linked ones (which clear early):
//!
//! - the full kernel's MIC is the characteristic matrix's largest entry,
//!   bit for bit;
//! - `Exact` carries the full kernel's bits, and the exact MIC then does
//!   not clear;
//! - `Cleared(v)` means `v` clears, the exact MIC clears, and `v <= mic`;
//! - a predicate that never clears always gives `Exact`;
//! - whenever the characteristic matrix's `(2, 2)` entry clears, the floor
//!   kernel clears.

use proptest::prelude::*;

use ix_mic::{
    characteristic_matrix, mic_floor_scratch, mic_with_profiles_scratch, Floored, MicParams,
    MineScratch, SeriesProfile,
};

fn check(xs: &[f64], ys: &[f64], reference: f64, epsilon: f64) {
    let params = MicParams::fast();
    let xp = SeriesProfile::build(xs, &params).expect("profile");
    let yp = SeriesProfile::build(ys, &params).expect("profile");
    let mut scratch = MineScratch::new();
    let clears = |v: f64| (reference - v).abs() < epsilon;
    let mic = mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).expect("mic");
    let matrix = characteristic_matrix(xs, ys, &params).expect("matrix");
    prop_assert_eq!(mic.to_bits(), matrix.mic().to_bits());
    match mic_floor_scratch(&xp, &yp, &params, clears, &mut scratch).expect("floor") {
        Floored::Exact(m) => {
            prop_assert_eq!(m.to_bits(), mic.to_bits());
            prop_assert!(!clears(mic), "mic {} clears but no entry did", mic);
        }
        Floored::Cleared(v) => {
            prop_assert!(clears(v), "cleared entry {} does not clear", v);
            prop_assert!(
                clears(mic),
                "mic {} does not clear but entry {} did",
                mic,
                v
            );
            prop_assert!(v <= mic, "cleared entry {} exceeds mic {}", v, mic);
        }
    }
    let never = mic_floor_scratch(&xp, &yp, &params, |_| false, &mut scratch).expect("floor");
    prop_assert_eq!(never, Floored::Exact(mic));
    let corner = matrix
        .entries()
        .iter()
        .find(|&&(cols, rows, _)| (cols, rows) == (2, 2))
        .map_or(0.0, |&(_, _, v)| v);
    if clears(corner) {
        let floored = mic_floor_scratch(&xp, &yp, &params, clears, &mut scratch).expect("floor");
        prop_assert!(
            matches!(floored, Floored::Cleared(_)),
            "the (2, 2) entry {} clears but the floor kernel gave {:?}",
            corner,
            floored
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn floor_kernel_clears_exactly_when_mic_would(
        xs in prop::collection::vec(-100.0f64..100.0, 8..64),
        ys in prop::collection::vec(-100.0f64..100.0, 8..64),
        scale in 0.1f64..5.0,
        shift in -20.0f64..20.0,
        noise in 0.0f64..30.0,
        epsilon in 0.01f64..0.5,
        reach in 0.0f64..1.0,
    ) {
        // A reference a lower bound can prove held: 1 − I < ε.
        let reference = 1.0 - epsilon * reach;
        if 1.0 - reference >= epsilon {
            continue;
        }
        let n = xs.len().min(ys.len());
        let linked: Vec<f64> = xs[..n]
            .iter()
            .zip(&ys[..n])
            .map(|(x, y)| scale * x + shift + noise * y / 100.0)
            .collect();
        check(&xs[..n], &ys[..n], reference, epsilon);
        check(&xs[..n], &linked, reference, epsilon);
    }
}
