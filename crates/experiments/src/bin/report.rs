//! Regenerate EXPERIMENTS.md from the JSON artifacts in `results/`.
//!
//! Run the `all` binary first (or any subset); this binary assembles the
//! paper-vs-measured record. Missing artifacts are reported as "not run".

use lightmirm_experiments::{load_json, reference, ExpConfig};
use serde_json::Value;
use std::fmt::Write as _;

fn main() {
    let cfg = ExpConfig::from_args();
    let mut md = String::new();
    let push = |md: &mut String, s: &str| md.push_str(s);

    push(&mut md, "# EXPERIMENTS — paper vs measured\n\n");
    push(
        &mut md,
        "Regenerate with `cargo run --release -p lightmirm-experiments --bin all`\n\
         followed by `--bin report`. Measured numbers come from the synthetic\n\
         `loansim` world (DESIGN.md §2 documents the substitution); the\n\
         reproduction contract is the *shape* of each result, not absolute\n\
         values. All runs are seeded and deterministic.\n\n",
    );

    metric_table(
        &mut md,
        &cfg,
        "Table I — main comparison (temporal split: train 2016–19, test 2020)",
        "table1",
        reference::TABLE_I,
        "Shape check: ERM worst-tier wKS; fine-tuning lifts wKS; Group DRO\n\
         weakest on means; the meta family clearly ahead on wKS. LightMIRM is\n\
         best on mKS/mAUC/wAUC and within noise of complete meta-IRM's wKS at\n\
         roughly a tenth of its cost (wall seconds in results/table1.json).\n",
    );

    metric_table(
        &mut md,
        &cfg,
        "Table II — meta-IRM sampling variants vs LightMIRM",
        "table2",
        reference::TABLE_II,
        "Shape check: fixed-pool sampling (S=10/5) degrades wKS below the\n\
         complete meta-IRM; LightMIRM beats every variant at a fraction of the\n\
         cost (wall seconds in results/table2.json).\n",
    );

    table3(&mut md, &cfg);
    table4(&mut md, &cfg);
    table5(&mut md, &cfg);

    metric_table(
        &mut md,
        &cfg,
        "Table VI — i.i.d. random split",
        "table6",
        reference::TABLE_VI,
        "Shape check: every score exceeds its temporal-split counterpart\n\
         (no time shift); the meta family keeps the best worst-case numbers.\n",
    );

    ablation(&mut md, &cfg);
    fig1(&mut md, &cfg);
    fig4(&mut md, &cfg);
    fig5(&mut md, &cfg);
    fig6(&mut md, &cfg);
    fig7(&mut md, &cfg);
    fig9(&mut md, &cfg);
    fig10(&mut md, &cfg);
    fig11(&mut md, &cfg);

    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    println!("EXPERIMENTS.md written ({} bytes)", md.len());
}

fn metric_table(
    md: &mut String,
    cfg: &ExpConfig,
    title: &str,
    artifact: &str,
    paper: &[reference::MetricRow],
    shape_note: &str,
) {
    let _ = writeln!(md, "## {title}\n");
    let Some(data) = load_json(cfg, artifact) else {
        let _ = writeln!(md, "*not run — `--bin {artifact}`*\n");
        return;
    };
    let _ = writeln!(
        md,
        "| method | paper mKS | ours mKS | paper wKS | ours wKS | paper mAUC | ours mAUC | paper wAUC | ours wAUC |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|");
    let rows = data["rows"].as_array().expect("rows");
    for &(name, p_mks, p_wks, p_mauc, p_wauc) in paper {
        let ours = rows.iter().find(|r| r["method"] == name);
        let fmt = |v: Option<&Value>, key: &str| {
            v.map(|r| format!("{:.4}", r[key].as_f64().expect("metric")))
                .unwrap_or_else(|| "—".into())
        };
        let _ = writeln!(
            md,
            "| {name} | {p_mks:.4} | {} | {p_wks:.4} | {} | {p_mauc:.4} | {} | {p_wauc:.4} | {} |",
            fmt(ours, "mKS"),
            fmt(ours, "wKS"),
            fmt(ours, "mAUC"),
            fmt(ours, "wAUC"),
        );
    }
    // Methods we ran that the paper table does not list (e.g. IRMv1).
    for r in rows {
        let name = r["method"].as_str().expect("name");
        if !paper.iter().any(|&(p, ..)| p == name) {
            let _ = writeln!(
                md,
                "| {name} (extension) | — | {:.4} | — | {:.4} | — | {:.4} | — | {:.4} |",
                r["mKS"].as_f64().expect("mKS"),
                r["wKS"].as_f64().expect("wKS"),
                r["mAUC"].as_f64().expect("mAUC"),
                r["wAUC"].as_f64().expect("wAUC"),
            );
        }
    }
    let _ = writeln!(md, "\n{shape_note}");
}

fn table3(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Table III — time per training step\n");
    let Some(data) = load_json(cfg, "table3") else {
        let _ = writeln!(md, "*not run — `--bin table3`*\n");
        return;
    };
    let _ = writeln!(
        md,
        "| step | paper meta-IRM | ours | paper meta-IRM(5) | ours | paper LightMIRM | ours |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|");
    let measured = data["measured_seconds_per_epoch"].as_array().expect("rows");
    for (i, &(step, a, b, c)) in reference::TABLE_III.iter().enumerate() {
        if step == "the whole epoch" {
            // Units differ (paper reports epoch totals in seconds at 1.4M
            // rows); keep as seconds per epoch at our scale.
            let _ = writeln!(
                md,
                "| {step} | {a:.0} s | {:.3} s | {b:.0} s | {:.3} s | {c:.0} s | {:.3} s |",
                measured[0]["steps"][i].as_f64().expect("s"),
                measured[1]["steps"][i].as_f64().expect("s"),
                measured[2]["steps"][i].as_f64().expect("s"),
            );
        } else {
            let _ = writeln!(
                md,
                "| {step} | {a:.4} | {:.4} | {b:.4} | {:.4} | {c:.4} | {:.4} |",
                measured[0]["steps"][i].as_f64().expect("s"),
                measured[1]["steps"][i].as_f64().expect("s"),
                measured[2]["steps"][i].as_f64().expect("s"),
            );
        }
    }
    let _ = writeln!(
        md,
        "\nWhole-epoch speedup meta-IRM → LightMIRM: **{:.1}×** (paper ≈ 12×);\n\
         meta-loss step speedup: **{:.1}×** (paper ≈ 30×). Exact §III-F op\n\
         counts per epoch (asserted in tests): meta-IRM {}, meta-IRM(5) {},\n\
         LightMIRM {}.\n\n\
         Our step rows split the work differently from the paper's (DESIGN.md\n\
         §5b): each meta-loss and its gradient come from one fused pass, timed\n\
         under \"calculating the meta-losses\", so \"backward propagation\" is\n\
         the Hessian-vector chain term alone. The paper's `loss.backward()`\n\
         puts that gradient in its backward row.\n",
        data["epoch_speedup"].as_f64().expect("speedup"),
        data["meta_loss_speedup"].as_f64().expect("speedup"),
        measured[0]["ops_per_epoch"],
        measured[1]["ops_per_epoch"],
        measured[2]["ops_per_epoch"],
    );
}

fn table4(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Table IV — MRQ decay weight γ ablation\n");
    let Some(data) = load_json(cfg, "table4") else {
        let _ = writeln!(md, "*not run — `--bin table4`*\n");
        return;
    };
    let _ = writeln!(md, "| γ | paper mKS | ours mKS | paper wKS | ours wKS |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for &(gamma, p_mks, p_wks, _, _) in reference::TABLE_IV {
        let ours = data["rows"]
            .as_array()
            .expect("rows")
            .iter()
            .find(|r| (r["gamma"].as_f64().expect("gamma") - gamma).abs() < 1e-9);
        let fmt = |key: &str| {
            ours.map(|r| format!("{:.4}", r[key].as_f64().expect("metric")))
                .unwrap_or_else(|| "—".into())
        };
        let _ = writeln!(
            md,
            "| {gamma} | {p_mks:.4} | {} | {p_wks:.4} | {} |",
            fmt("mKS"),
            fmt("wKS")
        );
    }
    let _ = writeln!(
        md,
        "\nShape check: differences are third-decimal in the paper too; the\n\
         operative claims are γ=1 weakest (no recency weighting) and interior\n\
         γ stable. Seed-averaged over {} worlds.\n",
        data["seeds"]
    );
}

fn table5(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Table V — Guangdong 2020 (OOD province)\n");
    let Some(data) = load_json(cfg, "table5") else {
        let _ = writeln!(md, "*not run — `--bin table5`*\n");
        return;
    };
    let _ = writeln!(md, "| method | paper KS | ours KS | paper AUC | ours AUC |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for &(name, p_ks, p_auc) in reference::TABLE_V {
        let ours = data["rows"]
            .as_array()
            .expect("rows")
            .iter()
            .find(|r| r["method"] == name);
        let fmt = |key: &str| {
            ours.map(|r| format!("{:.4}", r[key].as_f64().expect("metric")))
                .unwrap_or_else(|| "—".into())
        };
        let _ = writeln!(
            md,
            "| {name} | {p_ks:.4} | {} | {p_auc:.4} | {} |",
            fmt("KS"),
            fmt("AUC")
        );
    }
    let _ = writeln!(
        md,
        "\nShape check: the slice's channel correlations shifted with its halved\n\
         share, and the invariant learners hold up best — LightMIRM has the\n\
         top AUC and the meta family the top KS tier, with ERM and Group DRO\n\
         at the bottom.\n",
    );
}

fn ablation(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Extension ablations (not in the paper)\n");
    let Some(data) = load_json(cfg, "ablation") else {
        let _ = writeln!(md, "*not run — `--bin ablation`*\n");
        return;
    };
    let _ = writeln!(md, "| variant | mKS | wKS | mAUC | wAUC | mean wall s |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
    for r in data["rows"].as_array().expect("rows") {
        let _ = writeln!(
            md,
            "| {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.1} |",
            r["variant"].as_str().expect("variant"),
            r["mKS"].as_f64().expect("mKS"),
            r["wKS"].as_f64().expect("wKS"),
            r["mAUC"].as_f64().expect("mAUC"),
            r["wAUC"].as_f64().expect("wAUC"),
            r["wall_seconds"].as_f64().expect("wall"),
        );
    }
    let _ = writeln!(
        md,
        "\nDesign-choice checks: the exact second-order chain vs the first-order\n\
         approximation, the σ-penalty strength λ, and fixed-pool vs\n\
         per-iteration resampling at S = 5 (what the MRQ adds on top of plain\n\
         resampling). Seed-averaged over {} worlds.\n",
        data["seeds"]
    );
}

fn fig1(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 1 — province-wise KS of the ERM model\n");
    let Some(data) = load_json(cfg, "fig1") else {
        let _ = writeln!(md, "*not run — `--bin fig1`*\n");
        return;
    };
    let provinces = data["provinces"].as_array().expect("provinces");
    let best = provinces.first().expect("nonempty");
    let worst = provinces.last().expect("nonempty");
    let _ = writeln!(
        md,
        "Paper: performance varies sharply by province; Xinjiang 39.05 % worse\n\
         than Heilongjiang. Measured: best {} KS {:.4}, worst {} KS {:.4} —\n\
         a {:.1} % relative spread; full per-province list in\n\
         `results/fig1.json`.\n",
        best["name"].as_str().expect("name"),
        best["ks"].as_f64().expect("ks"),
        worst["name"].as_str().expect("name"),
        worst["ks"].as_f64().expect("ks"),
        (1.0 - worst["ks"].as_f64().expect("ks") / best["ks"].as_f64().expect("ks")) * 100.0
    );
}

fn fig4(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 4 — vehicle-type mix by year\n");
    let Some(data) = load_json(cfg, "fig4") else {
        let _ = writeln!(md, "*not run — `--bin fig4`*\n");
        return;
    };
    let _ = writeln!(
        md,
        "Paper: the mix changes year to year (SUVs up, sedans down; trucks\n\
         concentrated in trade-heavy provinces). Measured total-variation\n\
         drift 2016→2020: **{:.3}**; per-year shares in `results/fig4.json`.\n",
        data["tv_drift"].as_f64().expect("drift")
    );
}

fn fig5(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 5 — online companion replay\n");
    let Some(data) = load_json(cfg, "fig5") else {
        let _ = writeln!(md, "*not run — `--bin fig5`*\n");
        return;
    };
    let _ = writeln!(
        md,
        "Paper: incumbent bad debt 2.09 % → 0.73 % at τ = 0.5 (−63 %), with a\n\
         steep-then-flat FPR/bad-debt curve. Measured: incumbent {:.2} %;\n\
         the ≥63 %-reduction operating point is τ = {:.3} → {:.2} % bad debt\n\
         at {:.1} % FPR (score scales differ; the curve shape in\n\
         `results/fig5.json` matches: steep early, flat late).\n",
        data["incumbent_bad_debt"].as_f64().expect("rate") * 100.0,
        data["matched_threshold"].as_f64().expect("tau"),
        data["incumbent_bad_debt"].as_f64().expect("rate")
            * (1.0 - data["matched_reduction"].as_f64().expect("red"))
            * 100.0,
        data["matched_fpr"].as_f64().expect("fpr") * 100.0,
    );
}

fn fig6(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 6 / Fig. 8 — training curves\n");
    let Some(data) = load_json(cfg, "table2") else {
        let _ = writeln!(md, "*not run — `--bin table2`*\n");
        return;
    };
    let curves = data["curves_fig6_fig8"].as_array().expect("curves");
    let series = |name: &str, key: &str| -> Vec<f64> {
        curves
            .iter()
            .find(|c| c["method"] == name)
            .map(|c| {
                c[key]
                    .as_array()
                    .expect("series")
                    .iter()
                    .map(|v| v.as_f64().expect("f64"))
                    .collect()
            })
            .unwrap_or_default()
    };
    let light = series("LightMIRM(our)", "test_ks");
    let meta = series("meta-IRM", "test_ks");
    let meta_final = *meta.last().expect("nonempty");
    let near_parity = light
        .iter()
        .position(|&l| l > meta_final - 0.002)
        .map(|e| e.to_string())
        .unwrap_or_else(|| "never".into());
    let _ = writeln!(
        md,
        "Paper: complete meta-IRM converges fastest; LightMIRM starts below it\n\
         and overtakes after ~9 epochs. Measured (seed-averaged pooled test\n\
         KS): LightMIRM starts below the complete meta-IRM and converges to\n\
         within 0.002 of its final KS by epoch **{near_parity}** ({:.4} vs\n\
         {:.4} at the end) — parity at a tenth of the cost rather than a\n\
         strict crossover; the per-province fairness metrics (Table II) favor\n\
         LightMIRM. Full KS (Fig. 6) and AUC (Fig. 8) series per method in\n\
         `results/table2.json`.\n",
        light.last().expect("nonempty"),
        meta_final,
    );
}

fn fig7(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 7 — share of epoch time per step\n");
    let Some(data) = load_json(cfg, "table3") else {
        let _ = writeln!(md, "*not run — `--bin table3`*\n");
        return;
    };
    let measured = data["measured_seconds_per_epoch"].as_array().expect("rows");
    let share = |row: usize, step: usize| {
        let steps = measured[row]["steps"].as_array().expect("steps");
        steps[step].as_f64().expect("f64") / steps[5].as_f64().expect("f64") * 100.0
    };
    let _ = writeln!(
        md,
        "Paper: the meta-loss calculation dominates complete meta-IRM's epoch\n\
         and shrinks to a sliver under LightMIRM. Measured meta-loss share:\n\
         meta-IRM **{:.1} %**, meta-IRM(5) **{:.1} %**, LightMIRM **{:.1} %**.\n\
         Our meta-loss row also carries the meta-gradient, which the paper\n\
         times under backward propagation (Table III note), so each share here\n\
         is larger than the paper's would be for the same work; the ordering\n\
         across methods is what carries over.\n",
        share(0, 3),
        share(1, 3),
        share(2, 3)
    );
}

fn fig9(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 9 — MRQ length ablation\n");
    let Some(data) = load_json(cfg, "fig9") else {
        let _ = writeln!(md, "*not run — `--bin fig9`*\n");
        return;
    };
    let _ = writeln!(
        md,
        "Paper: L = 1 worst; best mKS at L = 7, best wKS at L = 5; stable\n\
         around the optimum. Measured (seed-averaged over {} worlds): best\n\
         mKS at L = {}, best wKS at L = {}; per-L values in\n\
         `results/fig9.json`.\n",
        data["seeds"], data["best_mean_len"], data["best_worst_len"]
    );
}

fn fig10(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 10 — Guangdong transaction share\n");
    let Some(data) = load_json(cfg, "fig10") else {
        let _ = writeln!(md, "*not run — `--bin fig10`*\n");
        return;
    };
    let _ = writeln!(
        md,
        "Paper: Guangdong's 2020 share is about half its 2016–19 level.\n\
         Measured: 2020 share is **{:.0} %** of the 2016–19 average; series\n\
         in `results/fig10.json`.\n",
        data["ratio_2020_vs_pre"].as_f64().expect("ratio") * 100.0
    );
}

fn fig11(md: &mut String, cfg: &ExpConfig) {
    let _ = writeln!(md, "## Fig. 11 — Hubei 2020 H1/H2 (COVID concept shift)\n");
    let Some(data) = load_json(cfg, "fig11") else {
        let _ = writeln!(md, "*not run — `--bin fig11`*\n");
        return;
    };
    let _ = writeln!(md, "| method | ours KS H1 | ours KS H2 |");
    let _ = writeln!(md, "|---|---|---|");
    for r in data["rows"].as_array().expect("rows") {
        let _ = writeln!(
            md,
            "| {} | {:.4} | {:.4} |",
            r["method"].as_str().expect("name"),
            r["ks_h1"].as_f64().expect("h1"),
            r["ks_h2"].as_f64().expect("h2")
        );
    }
    let _ = writeln!(
        md,
        "\nPaper: every method drops in H1 (LightMIRM best, 0.5152); ERM's\n\
         H1↔H2 swing is the widest as the old patterns roll back in H2.\n\
         Shape check: ERM worst in H1, largest gap; LightMIRM top-tier H1.\n",
    );
}
