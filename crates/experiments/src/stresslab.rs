//! The IRM stress-lab: parameterized SEM scenario batteries with
//! regression-gated trainer scorecards.
//!
//! The invariance battery in `crates/core/tests/irm_unit.rs` pins one
//! SEM instance. *What Is Missing in IRM Training and Evaluation?*
//! (Zhang et al.) shows IRM verdicts flip with batch size and
//! environment regime, and *Empirical or Invariant Risk Minimization?*
//! (Ahuja et al.) predicts an ERM-vs-IRM crossover in sample size — so
//! one instance is not evidence. This module runs **every trainer**
//! across a grid of [`lightmirm_core::sem`] scenario families:
//!
//! - **spurious_sweep** — strength/sign sweeps of the flipping spurious
//!   correlation (the canonical IRM temptation at several intensities);
//! - **label_shift** — the class prior moves across environments while
//!   the feature mechanism stays fixed;
//! - **long_tail** — six environments with heavily skewed sizes where
//!   the big head agrees on the spurious sign and the small tail
//!   disagrees;
//! - **batch_regime** — the canonical SEM with ERM forced through
//!   mini-batch SGD (the invariance verdict must not hinge on the
//!   full-batch reference);
//! - **crossover** — OOD log-loss per trainer over a sweep of
//!   per-environment sample sizes, reporting the smallest size at which
//!   each trainer beats ERM out-of-distribution.
//!
//! The output is a machine-readable per-trainer scorecard pinned at
//! `results/stresslab/scorecard.json` and regression-gated by the
//! tier-1 test `tests/stresslab_gate.rs`, exactly like the golden
//! Table I/II snapshot: every number is deterministic (hash-driven SEM,
//! ordered chunked reductions), so the comparison runs at the golden
//! [`TOLERANCE`] and any verdict flip is a hard failure. The scorecard
//! deliberately contains **no timestamps or wall-clock fields** — it
//! must be byte-identical across `RAYON_NUM_THREADS` settings.
//!
//! Regenerate after an *intentional* change with
//! `cargo run --release -p lightmirm-experiments --bin stresslab -- --quick`
//! and say why in the commit message (policy in EXPERIMENTS.md).

use lightmirm_core::prelude::*;
use lightmirm_core::sem::{self, log_loss, spurious_ratio, SemSpec};
use lightmirm_core::trainers::TrainConfig;
use serde_json::Value;

pub use crate::golden::TOLERANCE;

/// Scorecard schema version; bump on structural change.
pub const SCORECARD_VERSION: u64 = 1;

/// A cell passes when the trainer keeps the spurious-to-invariant
/// weight ratio under this line. Sits between the battery's invariant
/// bound (0.15) and its ERM latch bound (0.25).
pub const PASS_SPURIOUS_RATIO: f64 = 0.20;

/// A cell additionally requires OOD log-loss at or under this line. Two
/// jobs: a degenerate all-zero model has a perfect spurious ratio but
/// sits at ln 2 ≈ 0.693, and must not count as invariant; and an
/// invariant learner should land near the invariant-only optimum
/// (Bernoulli(0.75) entropy ≈ 0.562 nats at ρ_inv = 0.5). The verdict
/// deliberately uses log-loss, not AUC: with four discrete score
/// levels, OOD AUC is dominated by how ties break on the *sign* of a
/// near-zero spurious weight, so it swings wildly between equally
/// invariant models. AUC is still recorded per cell as a pinned
/// diagnostic.
pub const PASS_MAX_OOD_LOG_LOSS: f64 = 0.68;

/// Scenario-grid size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// Tier-1 / CI grid: seconds.
    Quick,
    /// Extended sweep for offline investigation.
    Full,
}

impl Grid {
    pub fn name(self) -> &'static str {
        match self {
            Grid::Quick => "quick",
            Grid::Full => "full",
        }
    }
}

/// One stress scenario: a training SEM, a held-out environment whose
/// spurious correlation reverses the pooled training sign, and an
/// optional mini-batch override for the ERM reference.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub id: &'static str,
    pub family: &'static str,
    pub train: SemSpec,
    pub ood: SemSpec,
    /// `Some(b)` forces the ERM trainer through mini-batch SGD.
    pub erm_batch: Option<usize>,
}

fn scenario(
    id: &'static str,
    family: &'static str,
    train: SemSpec,
    ood_rho: f64,
    erm_batch: Option<usize>,
) -> Scenario {
    // The OOD stream is seeded away from every training stream so a
    // scenario never evaluates on its own draws.
    let ood_seed = 1000 + train.seed;
    let ood = SemSpec::flip(&[600], 0.5, &[ood_rho]).with_seed(ood_seed);
    Scenario {
        id,
        family,
        train,
        ood,
        erm_batch,
    }
}

/// The scenario battery for a grid. Quick keeps tier-1 in seconds;
/// full widens every family. Both cover ≥ 4 families.
pub fn scenarios(grid: Grid) -> Vec<Scenario> {
    let flip =
        |sizes: &[usize], rhos: &[f64], seed: u64| SemSpec::flip(sizes, 0.5, rhos).with_seed(seed);
    let mut v = vec![
        scenario(
            "spur_strong",
            "spurious_sweep",
            flip(&[300, 300], &[0.9, -0.2], 11),
            -0.9,
            None,
        ),
        scenario(
            "spur_moderate",
            "spurious_sweep",
            flip(&[300, 300], &[0.7, -0.3], 12),
            -0.9,
            None,
        ),
        scenario(
            "spur_reversed",
            "spurious_sweep",
            flip(&[300, 300], &[-0.9, 0.2], 13),
            0.9,
            None,
        ),
        scenario(
            "label_shift_35_65",
            "label_shift",
            SemSpec::new(vec![300, 300], 0.5, vec![0.9, -0.2], vec![0.35, 0.65], 14),
            -0.9,
            None,
        ),
        scenario(
            "long_tail_head_heavy",
            "long_tail",
            sem::long_tail(15),
            -0.9,
            None,
        ),
        scenario(
            "batch_b032",
            "batch_regime",
            flip(&[300, 300], &[0.9, -0.2], 16),
            -0.9,
            Some(32),
        ),
    ];
    if grid == Grid::Full {
        v.extend([
            scenario(
                "spur_asym",
                "spurious_sweep",
                flip(&[300, 300], &[0.8, -0.1], 21),
                -0.9,
                None,
            ),
            scenario(
                "spur_faint",
                "spurious_sweep",
                flip(&[300, 300], &[0.4, -0.15], 22),
                -0.9,
                None,
            ),
            scenario(
                "label_shift_20_80",
                "label_shift",
                SemSpec::new(vec![300, 300], 0.5, vec![0.9, -0.2], vec![0.2, 0.8], 24),
                -0.9,
                None,
            ),
            scenario(
                "long_tail_reseeded",
                "long_tail",
                sem::long_tail(25),
                -0.9,
                None,
            ),
            scenario(
                "batch_b008",
                "batch_regime",
                flip(&[300, 300], &[0.9, -0.2], 26),
                -0.9,
                Some(8),
            ),
            scenario(
                "batch_b128",
                "batch_regime",
                flip(&[300, 300], &[0.9, -0.2], 27),
                -0.9,
                Some(128),
            ),
        ]);
    }
    v
}

/// Per-environment sample sizes for the Ahuja-style crossover sweep.
pub fn crossover_sizes(grid: Grid) -> Vec<usize> {
    match grid {
        Grid::Quick => vec![60, 150, 400],
        Grid::Full => vec![30, 60, 150, 400, 800],
    }
}

/// The trainer families under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainerKind {
    Erm,
    UpSampling,
    FineTune,
    GroupDro,
    VRex,
    Irmv1,
    MetaIrm,
    LightMirm,
}

/// A named trainer configuration. `lambda` is the invariance-penalty
/// weight fed to `TrainConfig` (only the meta trainers read it); the
/// gate test weakens it to prove verdict flips are caught.
#[derive(Debug, Clone)]
pub struct TrainerSpec {
    pub name: &'static str,
    pub kind: TrainerKind,
    pub lambda: f64,
}

/// Every trainer of the paper's evaluation, at the battery's standard
/// penalty weight.
pub fn default_trainers() -> Vec<TrainerSpec> {
    use TrainerKind::*;
    [
        ("ERM", Erm),
        ("UpSampling", UpSampling),
        ("ERM+FineTune", FineTune),
        ("GroupDRO", GroupDro),
        ("V-REx", VRex),
        ("IRMv1", Irmv1),
        ("meta-IRM", MetaIrm),
        ("LightMIRM", LightMirm),
    ]
    .into_iter()
    .map(|(name, kind)| TrainerSpec {
        name,
        kind,
        lambda: 0.5,
    })
    .collect()
}

/// The battery's training configuration (same as `irm_unit.rs`).
fn base_cfg(lambda: f64) -> TrainConfig {
    TrainConfig {
        epochs: 60,
        inner_lr: 0.3,
        outer_lr: 1.0,
        lambda,
        reg: 1e-4,
        momentum: 0.0,
        seed: 5,
    }
}

/// Train one spec on one dataset. `erm_batch` only affects the ERM
/// reference (the other trainers are full-batch per-environment by
/// construction).
pub fn fit(spec: &TrainerSpec, data: &EnvDataset, erm_batch: Option<usize>) -> TrainOutput {
    let cfg = base_cfg(spec.lambda);
    match spec.kind {
        TrainerKind::Erm => match erm_batch {
            Some(b) => ErmTrainer::with_batch_size(cfg, b).fit(data, None),
            None => ErmTrainer::new(cfg).fit(data, None),
        },
        TrainerKind::UpSampling => UpSamplingTrainer::new(cfg).fit(data, None),
        TrainerKind::FineTune => FineTuneTrainer::new(cfg, 20, 0.05).fit(data, None),
        TrainerKind::GroupDro => GroupDroTrainer::new(cfg, 1.0).fit(data, None),
        TrainerKind::VRex => VRexTrainer::new(cfg, 2.0).fit(data, None),
        TrainerKind::Irmv1 => Irmv1Trainer::new(cfg, 1.0).fit(data, None),
        TrainerKind::MetaIrm => MetaIrmTrainer::new(cfg).fit(data, None),
        TrainerKind::LightMirm => LightMirmTrainer::new(cfg).fit(data, None),
    }
}

fn auc_on(model: &TrainedModel, data: &EnvDataset) -> f64 {
    let rows = data.all_rows();
    let scores = model.predict_rows(&data.x, &rows, &data.env_ids);
    lightmirm_metrics::auc(&scores, &data.labels).expect("SEM data has both classes")
}

/// Compute the full scorecard for a grid with the default trainers.
pub fn compute_scorecard(grid: Grid) -> Value {
    compute_scorecard_with(grid, &default_trainers())
}

/// Compute the scorecard for an explicit trainer list (the gate test
/// injects a deliberately weakened LightMIRM through this hook).
pub fn compute_scorecard_with(grid: Grid, trainers: &[TrainerSpec]) -> Value {
    let scenarios = scenarios(grid);
    let scenario_docs: Vec<Value> = scenarios
        .iter()
        .map(|s| {
            serde_json::json!({
                "id": s.id,
                "family": s.family,
                "n_envs": s.train.rows_per_env.len() as u64,
                "n_rows": s.train.n_rows() as u64,
                "pooled_rho_spur": s.train.pooled_rho_spur(),
                "erm_batch": s.erm_batch.map(|b| b as u64),
            })
        })
        .collect();

    // Cache the sampled datasets: every trainer sees identical bytes.
    let sampled: Vec<(EnvDataset, EnvDataset)> = scenarios
        .iter()
        .map(|s| (s.train.sample(), s.ood.sample()))
        .collect();

    // The crossover sweep shares one OOD set across sizes so curves
    // are comparable.
    let sizes = crossover_sizes(grid);
    let cross_train: Vec<EnvDataset> = sizes
        .iter()
        .map(|&n| {
            SemSpec::flip(&[n, n], 0.5, &[0.9, -0.2])
                .with_seed(31)
                .sample()
        })
        .collect();
    let cross_ood = SemSpec::flip(&[800], 0.5, &[-0.9]).with_seed(1031).sample();
    let erm_spec = TrainerSpec {
        name: "ERM",
        kind: TrainerKind::Erm,
        lambda: 0.5,
    };
    let erm_curve: Vec<f64> = cross_train
        .iter()
        .map(|d| log_loss(&fit(&erm_spec, d, None).model, &cross_ood))
        .collect();

    let trainer_docs: Vec<Value> = trainers
        .iter()
        .map(|t| {
            let cells: Vec<Value> = scenarios
                .iter()
                .zip(&sampled)
                .map(|(s, (train, ood))| {
                    let out = fit(t, train, s.erm_batch);
                    let ratio = spurious_ratio(out.model.global());
                    let auc_id = auc_on(&out.model, train);
                    let auc_ood = auc_on(&out.model, ood);
                    let ll_ood = log_loss(&out.model, ood);
                    let pass = ratio <= PASS_SPURIOUS_RATIO && ll_ood <= PASS_MAX_OOD_LOG_LOSS;
                    serde_json::json!({
                        "scenario": s.id,
                        "spurious_ratio": ratio,
                        "auc_id": auc_id,
                        "auc_ood": auc_ood,
                        "ood_auc_gap": auc_id - auc_ood,
                        "ood_log_loss": ll_ood,
                        "pass": pass,
                    })
                })
                .collect();
            let n_pass = cells.iter().filter(|c| c["pass"] == true).count() as u64;
            let curve: Vec<f64> = cross_train
                .iter()
                .map(|d| log_loss(&fit(t, d, None).model, &cross_ood))
                .collect();
            // Smallest per-env size where this trainer beats the ERM
            // reference out of distribution (Ahuja et al. predict ERM
            // wins below the crossover, IRM above).
            let crossover_n = sizes
                .iter()
                .zip(&curve)
                .zip(&erm_curve)
                .find(|((_, t_ll), erm_ll)| t_ll < erm_ll)
                .map(|((n, _), _)| *n as u64);
            serde_json::json!({
                "name": t.name,
                "lambda": t.lambda,
                "n_pass": n_pass,
                "cells": cells,
                "crossover": serde_json::json!({
                    "sizes": sizes.iter().map(|&n| n as u64).collect::<Vec<_>>(),
                    "ood_log_loss": curve,
                    "crossover_n": crossover_n,
                }),
            })
        })
        .collect();

    serde_json::json!({
        "snapshot": "stresslab_scorecard",
        "version": SCORECARD_VERSION,
        "grid": grid.name(),
        "tolerance": TOLERANCE,
        "pass_spurious_ratio": PASS_SPURIOUS_RATIO,
        "pass_max_ood_log_loss": PASS_MAX_OOD_LOG_LOSS,
        "scenarios": scenario_docs,
        "trainers": trainer_docs,
    })
}

const CELL_METRICS: [&str; 5] = [
    "spurious_ratio",
    "auc_id",
    "auc_ood",
    "ood_auc_gap",
    "ood_log_loss",
];

fn cmp_f64(drift: &mut Vec<String>, label: &str, want: Option<f64>, got: Option<f64>, tol: f64) {
    match (want, got) {
        (Some(w), Some(g)) if (w - g).abs() <= tol => {}
        (Some(w), Some(g)) => drift.push(format!(
            "{label}: pinned {w:.12} vs fresh {g:.12} (|Δ| {:.3e} > {tol:.0e})",
            (w - g).abs()
        )),
        _ => drift.push(format!("{label}: not a number in one scorecard")),
    }
}

/// Compare a freshly computed scorecard against the pinned one. Returns
/// a human-readable drift report, empty when conformant. Two classes of
/// finding:
///
/// - `REGRESSION` — a previously-passing (trainer, scenario) cell now
///   fails, or a crossover point moved. This is the gate the issue's
///   invariance claims ride on.
/// - numeric drift beyond the golden tolerance — any metric moved; an
///   intentional change must re-bless the snapshot.
pub fn compare_scorecard(pinned: &Value, fresh: &Value) -> Vec<String> {
    let mut drift = Vec::new();
    let tol = pinned["tolerance"].as_f64().unwrap_or(TOLERANCE);
    if pinned["version"] != fresh["version"] {
        drift.push("scorecard version mismatch".into());
    }
    if pinned["grid"] != fresh["grid"] {
        drift.push(format!(
            "grid mismatch: pinned {:?} vs fresh {:?}",
            pinned["grid"].as_str(),
            fresh["grid"].as_str()
        ));
    }
    let empty = Vec::new();
    let pinned_trainers = pinned["trainers"].as_array().unwrap_or(&empty);
    let fresh_trainers = fresh["trainers"].as_array().unwrap_or(&empty);
    if pinned_trainers.is_empty() {
        drift.push("pinned scorecard has no trainers".into());
    }
    for p in pinned_trainers {
        let name = p["name"].as_str().unwrap_or("?");
        let Some(f) = fresh_trainers.iter().find(|f| f["name"] == p["name"]) else {
            drift.push(format!("{name}: missing from fresh scorecard"));
            continue;
        };
        let pcells = p["cells"].as_array().unwrap_or(&empty);
        let fcells = f["cells"].as_array().unwrap_or(&empty);
        for pc in pcells {
            let sid = pc["scenario"].as_str().unwrap_or("?");
            let Some(fc) = fcells.iter().find(|c| c["scenario"] == pc["scenario"]) else {
                drift.push(format!("{name} × {sid}: missing from fresh scorecard"));
                continue;
            };
            match (pc["pass"].as_bool(), fc["pass"].as_bool()) {
                (Some(true), Some(false)) => drift.push(format!(
                    "REGRESSION {name} × {sid}: previously-passing scenario now fails \
                     (spurious_ratio {:.4} → {:.4})",
                    pc["spurious_ratio"].as_f64().unwrap_or(f64::NAN),
                    fc["spurious_ratio"].as_f64().unwrap_or(f64::NAN),
                )),
                (Some(false), Some(true)) => drift.push(format!(
                    "{name} × {sid}: verdict improved fail → pass; re-bless the scorecard"
                )),
                (Some(_), Some(_)) => {}
                _ => drift.push(format!("{name} × {sid}: pass flag missing")),
            }
            for metric in CELL_METRICS {
                cmp_f64(
                    &mut drift,
                    &format!("{name} × {sid}.{metric}"),
                    pc[metric].as_f64(),
                    fc[metric].as_f64(),
                    tol,
                );
            }
        }
        // Crossover curve: sizes must agree exactly, losses within
        // tolerance, and the crossover point must not move.
        let (px, fx) = (&p["crossover"], &f["crossover"]);
        if px["sizes"] != fx["sizes"] {
            drift.push(format!("{name}: crossover size grid changed"));
        } else {
            let pll = px["ood_log_loss"].as_array().unwrap_or(&empty);
            let fll = fx["ood_log_loss"].as_array().unwrap_or(&empty);
            let psizes = px["sizes"].as_array().unwrap_or(&empty);
            for (i, s) in psizes.iter().enumerate() {
                cmp_f64(
                    &mut drift,
                    &format!("{name}.crossover[n={}]", s.as_u64().unwrap_or(0)),
                    pll.get(i).and_then(Value::as_f64),
                    fll.get(i).and_then(Value::as_f64),
                    tol,
                );
            }
        }
        if px["crossover_n"] != fx["crossover_n"] {
            drift.push(format!(
                "REGRESSION {name}: crossover point moved ({:?} → {:?})",
                px["crossover_n"].as_u64(),
                fx["crossover_n"].as_u64(),
            ));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-trainer scorecard for comparator unit tests —
    /// no training involved.
    fn fake_scorecard() -> Value {
        let cell = |scenario: &str, ratio: f64, pass: bool| {
            serde_json::json!({
                "scenario": scenario,
                "spurious_ratio": ratio,
                "auc_id": 0.8,
                "auc_ood": 0.7,
                "ood_auc_gap": 0.1,
                "ood_log_loss": 0.6,
                "pass": pass,
            })
        };
        let trainer = |name: &str, ratio: f64, pass: bool, cn: Option<u64>| {
            serde_json::json!({
                "name": name,
                "lambda": 0.5,
                "n_pass": u64::from(pass),
                "cells": vec![cell("spur_strong", ratio, pass)],
                "crossover": serde_json::json!({
                    "sizes": vec![60u64, 150],
                    "ood_log_loss": vec![0.7, 0.65],
                    "crossover_n": cn,
                }),
            })
        };
        serde_json::json!({
            "snapshot": "stresslab_scorecard",
            "version": SCORECARD_VERSION,
            "grid": "quick",
            "tolerance": 1e-9,
            "trainers": vec![
                trainer("LightMIRM", 0.05, true, Some(150)),
                trainer("ERM", 0.9, false, None),
            ],
        })
    }

    fn with_lightmirm_cell(card: &Value, ratio: f64, pass: bool) -> Value {
        // Functional rebuild: the vendored Value has no mutable indexing.
        let mut trainers = card["trainers"].as_array().unwrap().clone();
        let mut t0 = trainers[0].as_object().unwrap().clone();
        let mut c0 = t0.get("cells").unwrap().as_array().unwrap()[0]
            .as_object()
            .unwrap()
            .clone();
        c0.insert("spurious_ratio".into(), Value::Float(ratio));
        c0.insert("pass".into(), Value::Bool(pass));
        t0.insert("cells".into(), Value::Array(vec![Value::Object(c0)]));
        trainers[0] = Value::Object(t0);
        let mut root = card.as_object().unwrap().clone();
        root.insert("trainers".into(), Value::Array(trainers));
        Value::Object(root)
    }

    #[test]
    fn identical_scorecards_conform() {
        let s = fake_scorecard();
        assert!(compare_scorecard(&s, &s).is_empty());
    }

    #[test]
    fn a_verdict_flip_is_a_hard_regression() {
        let pinned = fake_scorecard();
        let fresh = with_lightmirm_cell(&pinned, 0.6, false);
        let drift = compare_scorecard(&pinned, &fresh);
        assert!(
            drift
                .iter()
                .any(|d| d.starts_with("REGRESSION LightMIRM × spur_strong")),
            "{drift:?}"
        );
    }

    #[test]
    fn metric_drift_beyond_tolerance_is_reported() {
        let pinned = fake_scorecard();
        let fresh = with_lightmirm_cell(&pinned, 0.05 + 1e-6, true);
        let drift = compare_scorecard(&pinned, &fresh);
        assert!(
            drift
                .iter()
                .any(|d| d.contains("LightMIRM × spur_strong.spurious_ratio")),
            "{drift:?}"
        );
    }

    #[test]
    fn drift_within_tolerance_is_forgiven() {
        let pinned = fake_scorecard();
        let fresh = with_lightmirm_cell(&pinned, 0.05 + 1e-13, true);
        assert!(compare_scorecard(&pinned, &fresh).is_empty());
    }

    #[test]
    fn a_moved_crossover_point_is_a_regression() {
        let pinned = fake_scorecard();
        let mut trainers = pinned["trainers"].as_array().unwrap().clone();
        let mut t0 = trainers[0].as_object().unwrap().clone();
        let mut x = t0.get("crossover").unwrap().as_object().unwrap().clone();
        x.insert("crossover_n".into(), Value::Null);
        t0.insert("crossover".into(), Value::Object(x));
        trainers[0] = Value::Object(t0);
        let mut root = pinned.as_object().unwrap().clone();
        root.insert("trainers".into(), Value::Array(trainers));
        let fresh = Value::Object(root);
        let drift = compare_scorecard(&pinned, &fresh);
        assert!(
            drift.iter().any(|d| d.contains("crossover point moved")),
            "{drift:?}"
        );
    }

    #[test]
    fn missing_trainers_are_reported() {
        let pinned = fake_scorecard();
        let fresh = serde_json::json!({
            "version": SCORECARD_VERSION,
            "grid": "quick",
            "trainers": Vec::<Value>::new(),
        });
        let drift = compare_scorecard(&pinned, &fresh);
        assert!(drift.iter().any(|d| d.contains("missing")), "{drift:?}");
    }

    #[test]
    fn fake_scorecard_roundtrips_through_json() {
        let card = fake_scorecard();
        let text = serde_json::to_string_pretty(&card).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back, card);
        assert!(compare_scorecard(&card, &back).is_empty());
    }
}
