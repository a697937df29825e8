//! `loansim` — a synthetic auto-loan data platform.
//!
//! The LightMIRM paper evaluates on proprietary transaction data from the
//! Chery FS auto-loan platform (1.4 M records × 210 features, 2016–2020,
//! provinces as environments). That data is unavailable, so this crate
//! implements the closest synthetic equivalent: a seeded causal generative
//! model whose mechanisms reproduce every property the paper's evaluation
//! relies on:
//!
//! - **environments** — 28 provinces with heterogeneous sizes, default
//!   rates, and feature distributions ([`provinces`]);
//! - **an invariant predictor exists** — latent creditworthiness drives
//!   defaults through stable coefficients everywhere ([`mod@generate`]);
//! - **spurious shortcuts** — an anti-causal channel block whose coupling
//!   varies across provinces and collapses in 2020;
//! - **covariate shift** — Guangdong's transaction share halves in 2020
//!   (paper Fig. 10), Xinjiang is tiny and shifted (Fig. 1);
//! - **concept shift** — a COVID shock hits Hubei in 2020-H1 and recovers
//!   in H2 (Fig. 11); vehicle mixes drift year over year (Fig. 4).
//!
//! # Quick start
//!
//! ```
//! use loansim::{generate, GeneratorConfig, temporal_split};
//!
//! let frame = generate(&GeneratorConfig::small(1000, 42));
//! let split = temporal_split(&frame, 2020);
//! assert!(split.train.len() + split.test.len() == 1000);
//! ```

#![forbid(unsafe_code)]

pub mod frame;
pub mod generate;
pub mod io;
pub mod provinces;
pub mod rng;
pub mod schema;
pub mod split;
pub mod stats;

pub use frame::{FrameError, LoanFrame};
pub use generate::{generate, generate_with_schema, GeneratorConfig, RecordStream};
pub use io::{from_csv, to_csv};
pub use provinces::{Province, ProvinceCatalog, ProvinceId};
pub use schema::{FeatureDef, FeatureGroup, Schema, VehicleType, NUM_FEATURES};
pub use split::{
    half_year_rows, province_rows, random_split, rows_by_province, temporal_split, Split,
};
pub use stats::{
    default_rate_by_province, format_vehicle_mix, province_share_by_year, vehicle_mix_by_year,
};
