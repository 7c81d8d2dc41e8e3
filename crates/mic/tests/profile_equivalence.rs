//! Property tests pinning the profiled kernel to the characteristic matrix
//! **bit-for-bit**: `mic_with_profiles` must equal
//! `characteristic_matrix(..).mic()` on any input, tie-heavy series
//! included. Both build the same profiles and run the same per-unit
//! dynamic program; they reach the max by different routes. The kernel
//! interleaves the two orientations per row count and folds every entry
//! into one running max, stopping at the first row count the budget
//! leaves no columns for; the matrix runs each orientation on its own,
//! pairs every shape with its transpose and takes the max of the pairs.
//! Equality checks that no entry is lost on either route.

use proptest::prelude::*;

use ix_mic::{
    characteristic_matrix, mic_with_params, mic_with_profiles, mic_with_profiles_scratch,
    MicParams, MineScratch, SeriesProfile,
};

fn series(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e3f64..1.0e3, len)
}

/// Quantizes to eighths: dense ties, the hard case for sort and
/// equipartition equivalence.
fn quantize(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x / 125.0 * 8.0).round() / 8.0).collect()
}

fn assert_bit_identical(xs: &[f64], ys: &[f64], params: &MicParams) {
    let matrix = characteristic_matrix(xs, ys, params).unwrap().mic();
    let xp = SeriesProfile::build(xs, params).unwrap();
    let yp = SeriesProfile::build(ys, params).unwrap();
    let profiled = mic_with_profiles(&xp, &yp, params).unwrap();
    assert_eq!(
        matrix.to_bits(),
        profiled.to_bits(),
        "matrix {matrix} != profiled {profiled} under {params:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn profiled_mic_bit_identical_to_classic(
        xs in series(4..80),
        ys in series(4..80),
        alpha in 0.3f64..1.0,
        c in 1.0f64..16.0,
    ) {
        let params = MicParams { alpha, c };
        let n = xs.len().min(ys.len());
        assert_bit_identical(&xs[..n], &ys[..n], &params);
    }

    #[test]
    fn profiled_mic_bit_identical_under_heavy_ties(
        xs in series(4..80),
        ys in series(4..80),
        alpha in 0.3f64..1.0,
        c in 1.0f64..16.0,
    ) {
        let params = MicParams { alpha, c };
        let n = xs.len().min(ys.len());
        assert_bit_identical(&quantize(&xs[..n]), &quantize(&ys[..n]), &params);
    }

    #[test]
    fn scratch_reuse_across_pairs_is_bit_exact(
        a in series(12..40),
        b in series(12..40),
        c in series(12..40),
    ) {
        // Three series trimmed to one length, scored pairwise with ONE
        // scratch — exactly the sweep's access pattern. Every score must
        // match a fresh allocating run.
        let params = MicParams::fast();
        let n = a.len().min(b.len()).min(c.len());
        let tied = quantize(&a[..n]);
        let series = [tied.as_slice(), &b[..n], &c[..n]];
        let profiles: Vec<SeriesProfile> = series
            .iter()
            .map(|s| SeriesProfile::build(s, &params).unwrap())
            .collect();
        let mut scratch = MineScratch::new();
        for i in 0..3 {
            for j in i + 1..3 {
                let shared =
                    mic_with_profiles_scratch(&profiles[i], &profiles[j], &params, &mut scratch)
                        .unwrap();
                let fresh = mic_with_params(series[i], series[j], &params).unwrap();
                prop_assert_eq!(shared.to_bits(), fresh.to_bits(), "pair ({}, {})", i, j);
            }
        }
    }
}
