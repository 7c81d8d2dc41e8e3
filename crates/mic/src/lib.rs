//! Maximal Information Coefficient (MIC), implemented from scratch after
//! Reshef et al., *Detecting Novel Associations in Large Data Sets*,
//! Science 334 (2011) and its Supporting Online Material.
//!
//! InvarNet-X uses MIC as its association measure between performance
//! metrics: "for each metric pair X, Y their association coefficient is
//! represented by the MIC(X,Y) score which falls in the region `[0, 1]`".
//!
//! # Algorithm sketch
//!
//! For `n` points and a grid-size budget `B(n) = n^alpha`, MINE examines all
//! grid shapes `x * y <= B` (with `x, y >= 2`). For each shape it fixes an
//! equipartition of one axis into `y` rows and uses dynamic programming
//! (the `OptimizeXAxis` dynamic program) to choose the `x` column boundaries that maximize
//! mutual information. The characteristic matrix entry is that maximal
//! mutual information normalized by `log2(min(x, y))`; MIC is the largest
//! entry over both axis orientations.
//!
//! # Example
//!
//! ```
//! use ix_mic::mic;
//!
//! let xs: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (x - 0.5).powi(2)).collect();
//! // A noiseless functional relationship scores near 1 even though the
//! // Pearson correlation of a symmetric parabola is near 0.
//! assert!(mic(&xs, &ys).unwrap() > 0.9);
//! ```

mod entropy;
mod grid;
mod mine;
mod optimize;
mod profile;

pub use entropy::{entropy_from_counts, joint_entropy_from_counts, mutual_information};
pub use grid::{equipartition, Clumps};
pub use mine::{
    characteristic_matrix, mic, mic_floor_scratch, mic_with_params, mic_with_profiles,
    mic_with_profiles_scratch, CharacteristicMatrix, Floored, MicError, MicParams,
};
pub use optimize::optimize_axis;
pub use profile::{MineScratch, SeriesProfile};
