//! Shared harness for the per-table/per-figure experiment binaries.
//!
//! Every binary builds the same world — a seeded synthetic Chery-FS-like
//! dataset, temporally split 2016–19 / 2020, pushed through the ERM-trained
//! GBDT feature extractor — then trains whichever methods its
//! table/figure compares and prints both the paper's reference numbers and
//! the measured ones. Flags: `--rows N --seed N --seeds K --epochs N
//! --trees N --min-eval-rows N --out DIR` (see [`ExpConfig::from_args`]).

#![forbid(unsafe_code)]

use std::time::Instant;

use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

pub mod golden;
pub mod reference;
pub mod runs;
pub mod stresslab;

/// Experiment-wide configuration, parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Total generated rows (split ~4:1 into train/test by year).
    pub rows: usize,
    /// World seed.
    pub seed: u64,
    /// Training epochs for the IRM-family trainers.
    pub epochs: usize,
    /// Training epochs for the single-level baselines (they take cheaper
    /// steps, so they get proportionally more).
    pub baseline_epochs: usize,
    /// Number of GBDT trees in the feature extractor.
    pub trees: usize,
    /// Minimum test rows for a province to enter mKS/wKS summaries.
    pub min_eval_rows: usize,
    /// Number of seeds to average over in the ablation/sampling binaries
    /// (world seeds `seed, seed+1, …`).
    pub n_seeds: usize,
    /// Output directory for JSON result rows.
    pub out_dir: std::path::PathBuf,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            rows: 100_000,
            seed: 7,
            epochs: 60,
            baseline_epochs: 150,
            trees: 64,
            min_eval_rows: 80,
            n_seeds: 3,
            out_dir: std::path::PathBuf::from("results"),
        }
    }
}

impl ExpConfig {
    /// Parse `--rows/--seed/--epochs/--baseline-epochs/--trees/--out`
    /// from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        let mut cfg = ExpConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |j: usize| -> &str {
                args.get(j + 1)
                    .unwrap_or_else(|| panic!("flag {} needs a value", args[j]))
            };
            match args[i].as_str() {
                "--rows" => cfg.rows = value(i).parse().expect("--rows N"),
                "--seed" => cfg.seed = value(i).parse().expect("--seed N"),
                "--epochs" => cfg.epochs = value(i).parse().expect("--epochs N"),
                "--baseline-epochs" => {
                    cfg.baseline_epochs = value(i).parse().expect("--baseline-epochs N")
                }
                "--trees" => cfg.trees = value(i).parse().expect("--trees N"),
                "--min-eval-rows" => {
                    cfg.min_eval_rows = value(i).parse().expect("--min-eval-rows N")
                }
                "--seeds" => cfg.n_seeds = value(i).parse().expect("--seeds N"),
                "--out" => cfg.out_dir = value(i).into(),
                other => panic!("unknown flag {other}"),
            }
            i += 2;
        }
        cfg
    }

    /// The trainer config shared by the meta/IRM-family methods. No
    /// momentum: Algorithm 1/2 use plain SGD steps, and the sampling-noise
    /// sensitivity that motivates the MRQ (paper Table II / Fig. 6) only
    /// shows under plain SGD — momentum would smooth the sampled variants'
    /// noise and hide exactly the effect the paper measures.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            inner_lr: 0.1,
            outer_lr: 0.3,
            lambda: 0.5,
            reg: 1e-4,
            momentum: 0.0,
            seed: self.seed,
        }
    }

    /// The baseline trainer config: heavier-ball momentum and more epochs
    /// (single-level objectives tolerate it and converge faster).
    pub fn baseline_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.baseline_epochs,
            outer_lr: 0.05,
            momentum: 0.9,
            ..self.train_config()
        }
    }
}

/// The fully prepared experimental world.
pub struct World {
    pub catalog: ProvinceCatalog,
    pub names: Vec<String>,
    pub frame_train: LoanFrame,
    pub frame_test: LoanFrame,
    pub extractor: FeatureExtractor,
    pub train: EnvDataset,
    pub test: EnvDataset,
}

/// Generate, split temporally at 2020, fit the GBDT extractor on train,
/// and transform both splits.
///
/// # Panics
///
/// Panics on generation/training failures — these are deterministic
/// configuration errors, not runtime conditions.
pub fn build_world(cfg: &ExpConfig) -> World {
    let frame = generate(&GeneratorConfig {
        rows: cfg.rows,
        seed: cfg.seed,
        ..Default::default()
    });
    let split = temporal_split(&frame, 2020);
    build_world_from_frames(cfg, split.train, split.test)
}

/// Build a world from pre-split frames (used by the i.i.d. setting of
/// Table VI).
pub fn build_world_from_frames(
    cfg: &ExpConfig,
    frame_train: LoanFrame,
    frame_test: LoanFrame,
) -> World {
    let catalog = ProvinceCatalog::standard();
    let names = catalog.names();
    let mut fe_cfg = FeatureExtractorConfig::default();
    fe_cfg.gbdt.n_trees = cfg.trees;
    let extractor =
        FeatureExtractor::fit(&frame_train, &fe_cfg).expect("GBDT fits the training frame");
    let train = extractor
        .to_env_dataset(&frame_train, names.clone(), None)
        .expect("train transform");
    let test = extractor
        .to_env_dataset(&frame_test, names.clone(), None)
        .expect("test transform");
    World {
        catalog,
        names,
        frame_train,
        frame_test,
        extractor,
        train,
        test,
    }
}

/// The methods of the paper's main comparison (Table I order), plus the
/// meta-IRM sampling variants of Table II and the IRMv1 extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Erm,
    ErmFineTune,
    UpSampling,
    GroupDro,
    VRex,
    Irmv1,
    /// `None` = complete; `Some(s)` = meta-IRM(s).
    MetaIrm(Option<usize>),
    /// `(mrq_len, gamma_x100)` — γ passed as integer hundredths so the
    /// enum stays `Eq`/`Copy` for registry use.
    LightMirm(usize, u32),
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(self) -> String {
        match self {
            Method::Erm => "ERM".into(),
            Method::ErmFineTune => "ERM + fine-tuning".into(),
            Method::UpSampling => "Up Sampling".into(),
            Method::GroupDro => "Group DRO".into(),
            Method::VRex => "V-REx".into(),
            Method::Irmv1 => "IRMv1".into(),
            Method::MetaIrm(None) => "meta-IRM".into(),
            Method::MetaIrm(Some(s)) => format!("meta-IRM({s})"),
            Method::LightMirm(5, 90) => "LightMIRM(our)".into(),
            Method::LightMirm(l, g) => format!("LightMIRM(L={l},g={:.2})", g as f64 / 100.0),
        }
    }

    /// The default LightMIRM configuration (L = 5, γ = 0.9).
    pub fn light_mirm_default() -> Method {
        Method::LightMirm(5, 90)
    }
}

/// A trained method with bookkeeping.
pub struct MethodRun {
    pub method: Method,
    pub output: TrainOutput,
    pub wall_seconds: f64,
}

/// Train one method on the world with the config's hyper-parameters.
/// `observer` is invoked per epoch for curve recording.
pub fn run_method(
    cfg: &ExpConfig,
    world: &World,
    method: Method,
    observer: Option<lightmirm_core::trainers::EpochObserver<'_>>,
) -> MethodRun {
    let start = Instant::now();
    let tc = cfg.train_config();
    let bc = cfg.baseline_config();
    let output = match method {
        Method::Erm => ErmTrainer::new(bc).fit(&world.train, observer),
        Method::ErmFineTune => FineTuneTrainer::new(bc, 80, 0.05).fit(&world.train, observer),
        Method::UpSampling => UpSamplingTrainer::new(bc).fit(&world.train, observer),
        Method::GroupDro => GroupDroTrainer::new(bc, 1.0).fit(&world.train, observer),
        Method::VRex => VRexTrainer::new(bc, 2.0).fit(&world.train, observer),
        Method::Irmv1 => Irmv1Trainer::new(bc, 1.0).fit(&world.train, observer),
        Method::MetaIrm(None) => MetaIrmTrainer::new(tc).fit(&world.train, observer),
        Method::MetaIrm(Some(s)) => {
            MetaIrmTrainer::with_sample_size(tc, s).fit(&world.train, observer)
        }
        Method::LightMirm(l, g) => {
            LightMirmTrainer::with_mrq(tc, l, g as f64 / 100.0).fit(&world.train, observer)
        }
    };
    MethodRun {
        method,
        output,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Evaluate a run on the test environments with the configured row floor.
pub fn summarize(
    cfg: &ExpConfig,
    world: &World,
    run: &MethodRun,
) -> lightmirm_metrics::FairnessSummary {
    evaluate_filtered(&run.output.model, &world.test, cfg.min_eval_rows)
        .expect("test split has scorable provinces")
}

/// Render a metrics table row.
pub fn fmt_row(name: &str, s: &lightmirm_metrics::FairnessSummary) -> String {
    format!(
        "{name:<22} {:>7.4} {:>7.4} {:>7.4} {:>7.4}",
        s.m_ks, s.w_ks, s.m_auc, s.w_auc
    )
}

/// Print the standard table header.
pub fn print_header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7}",
        "method", "mKS", "wKS", "mAUC", "wAUC"
    );
}

/// Build one world per seed (`cfg.seed, cfg.seed+1, …`), for seed-averaged
/// comparisons. Each world regenerates data and refits the extractor, so
/// binaries should build the set once and reuse it across methods.
pub fn build_seed_worlds(cfg: &ExpConfig) -> Vec<(ExpConfig, World)> {
    (0..cfg.n_seeds)
        .map(|k| {
            let mut c = cfg.clone();
            c.seed = cfg.seed + k as u64;
            let world = build_world(&c);
            (c, world)
        })
        .collect()
}

/// Train `method` on every seed world and return the seed-averaged
/// `(mKS, wKS, mAUC, wAUC, mean wall seconds)`. Used by the ablation and
/// sampling-comparison binaries, where single-seed worst-province numbers
/// are dominated by which provinces a pool or queue happens to favour.
pub fn run_method_avg(worlds: &[(ExpConfig, World)], method: Method) -> (f64, f64, f64, f64, f64) {
    let mut acc = [0.0f64; 4];
    let mut wall = 0.0;
    for (c, world) in worlds {
        let run = run_method(c, world, method, None);
        let s = summarize(c, world, &run);
        acc[0] += s.m_ks;
        acc[1] += s.w_ks;
        acc[2] += s.m_auc;
        acc[3] += s.w_auc;
        wall += run.wall_seconds;
    }
    let n = worlds.len() as f64;
    (acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n, wall / n)
}

/// Load a previously written JSON artifact, if present.
pub fn load_json(cfg: &ExpConfig, name: &str) -> Option<serde_json::Value> {
    let path = cfg.out_dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// Load `name`.json if it already exists (so figure binaries can reuse the
/// table runs that produced their data), otherwise compute and write it.
pub fn load_or_compute(
    cfg: &ExpConfig,
    name: &str,
    compute: impl FnOnce() -> serde_json::Value,
) -> serde_json::Value {
    if let Some(v) = load_json(cfg, name) {
        println!(
            "[reusing] {}/{name}.json (delete it to recompute)",
            cfg.out_dir.display()
        );
        return v;
    }
    let v = compute();
    write_json(cfg, name, &v);
    v
}

/// Write a JSON result artifact under the configured output directory.
pub fn write_json(cfg: &ExpConfig, name: &str, value: &serde_json::Value) {
    std::fs::create_dir_all(&cfg.out_dir).expect("create results dir");
    let path = cfg.out_dir.join(format!("{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write results");
    println!("[written] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            rows: 4000,
            seed: 3,
            epochs: 3,
            baseline_epochs: 5,
            trees: 6,
            min_eval_rows: 10,
            n_seeds: 1,
            out_dir: std::env::temp_dir().join("lightmirm-exp-tests"),
        }
    }

    #[test]
    fn world_builds_and_splits() {
        let cfg = tiny_cfg();
        let world = build_world(&cfg);
        assert!(world.train.n_rows() > world.test.n_rows());
        assert_eq!(world.train.n_cols(), world.test.n_cols());
        assert!(world.train.active_envs().len() > 3);
    }

    #[test]
    fn every_method_runs_and_evaluates() {
        let cfg = tiny_cfg();
        let world = build_world(&cfg);
        for method in [
            Method::Erm,
            Method::ErmFineTune,
            Method::UpSampling,
            Method::GroupDro,
            Method::VRex,
            Method::Irmv1,
            Method::MetaIrm(Some(2)),
            Method::light_mirm_default(),
        ] {
            let run = run_method(&cfg, &world, method, None);
            let s = summarize(&cfg, &world, &run);
            assert!(s.m_auc.is_finite(), "{:?}", method);
        }
    }

    #[test]
    fn method_names_match_paper_tables() {
        assert_eq!(Method::Erm.name(), "ERM");
        assert_eq!(Method::MetaIrm(None).name(), "meta-IRM");
        assert_eq!(Method::MetaIrm(Some(5)).name(), "meta-IRM(5)");
        assert_eq!(Method::light_mirm_default().name(), "LightMIRM(our)");
        assert_eq!(Method::LightMirm(7, 50).name(), "LightMIRM(L=7,g=0.50)");
    }

    #[test]
    fn json_artifacts_round_trip() {
        let cfg = tiny_cfg();
        write_json(&cfg, "selftest", &serde_json::json!({"x": 1}));
        let read = std::fs::read_to_string(cfg.out_dir.join("selftest.json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&read).unwrap();
        assert_eq!(v["x"], 1);
    }
}
