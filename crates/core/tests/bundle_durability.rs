//! Bundle durability: the corruption matrix. Every way an on-disk
//! bundle can rot — truncation, bit flips, version skew, a crash
//! mid-write — must map to the *right* [`BundleError`] variant, and the
//! incumbent file must survive any failed save untouched.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_gbdt::Node;
use loansim::{generate, temporal_split, GeneratorConfig, ProvinceCatalog};

/// A scratch file path that cleans itself up.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "lightmirm-durability-{}-{tag}-{seq}.bundle",
            std::process::id()
        ));
        Scratch(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut tmp = self.0.as_os_str().to_owned();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(PathBuf::from(tmp));
    }
}

fn demo_bundle() -> (ModelBundle, Vec<f32>, Vec<u16>) {
    let frame = generate(&GeneratorConfig::small(4_000, 97));
    let split = temporal_split(&frame, 2020);
    let mut fe = FeatureExtractorConfig::default();
    fe.gbdt.n_trees = 4;
    let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
    let train = extractor
        .to_env_dataset(&split.train, ProvinceCatalog::standard().names(), None)
        .expect("train transform");
    let out = ErmTrainer::new(TrainConfig {
        epochs: 3,
        ..Default::default()
    })
    .fit(&train, None);
    let bundle = ModelBundle::new(
        extractor.gbdt().clone(),
        &out.model,
        BundleMetadata::default(),
    )
    .expect("dimensions match");
    let mut features = Vec::new();
    let mut env_ids = Vec::new();
    for k in 0..16 {
        features.extend_from_slice(split.test.row(k));
        env_ids.push(split.test.province[k]);
    }
    (bundle, features, env_ids)
}

#[test]
fn save_load_round_trip_is_bit_identical() {
    let (bundle, features, env_ids) = demo_bundle();
    let path = Scratch::new("roundtrip");
    bundle.save_to_path(&path.0).expect("save");
    let reloaded = ModelBundle::load_from_path(&path.0).expect("load");
    let a = bundle.score_batch(&features, &env_ids);
    let b = reloaded.score_batch(&features, &env_ids);
    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b), "reload must not perturb a single bit");
    // The atomic write leaves no tmp droppings behind.
    let mut tmp = path.0.as_os_str().to_owned();
    tmp.push(".tmp");
    assert!(!PathBuf::from(tmp).exists(), "tmp file leaked after rename");
}

#[test]
fn truncated_files_are_corrupt_not_misparsed() {
    let (bundle, _, _) = demo_bundle();
    let path = Scratch::new("truncate");
    bundle.save_to_path(&path.0).expect("save");
    let full = std::fs::read(&path.0).expect("read back");
    // Cut at several depths: mid-header (past the magic, so the file
    // is unambiguously an envelope), just after it, and partway through
    // the JSON payload.
    for cut in [14, 64, full.len() / 2, full.len() - 1] {
        std::fs::write(&path.0, &full[..cut]).expect("write truncated");
        let err = ModelBundle::load_from_path(&path.0).expect_err("truncation must not load");
        assert!(
            matches!(err, BundleError::Corrupt(_)),
            "cut at {cut} bytes gave {err}, expected Corrupt"
        );
    }
}

#[test]
fn bit_flips_anywhere_in_the_payload_are_corrupt() {
    let (bundle, _, _) = demo_bundle();
    let path = Scratch::new("bitflip");
    bundle.save_to_path(&path.0).expect("save");
    let full = std::fs::read(&path.0).expect("read back");
    let header_end = full.iter().position(|&b| b == b'\n').expect("header line");
    // Flip a low bit at several payload offsets (keeps the file UTF-8).
    for frac in [0, 1, 2, 3] {
        let payload_len = full.len() - header_end - 1;
        let at = header_end + 1 + frac * payload_len / 4;
        let mut bytes = full.clone();
        bytes[at] ^= 0x01;
        std::fs::write(&path.0, &bytes).expect("write tampered");
        let err = ModelBundle::load_from_path(&path.0).expect_err("bit rot must not load");
        assert!(
            matches!(err, BundleError::Corrupt(_)),
            "flip at byte {at} gave {err}, expected Corrupt"
        );
    }
}

#[test]
fn version_skew_is_reported_as_version_mismatch() {
    let (bundle, _, _) = demo_bundle();
    let path = Scratch::new("skew");
    // Future envelope version: the header is checked before the payload.
    let env = bundle.to_envelope().replacen(" v1 ", " v9 ", 1);
    std::fs::write(&path.0, env).expect("write skewed");
    assert!(matches!(
        ModelBundle::load_from_path(&path.0),
        Err(BundleError::VersionMismatch {
            found: 9,
            supported: 1
        })
    ));
    // Future payload version inside a valid envelope (re-enveloped so
    // the checksum passes and the JSON-level check does the rejecting).
    let skewed_json = bundle.to_json().replace("\"version\":1", "\"version\":7");
    std::fs::write(&path.0, &skewed_json).expect("write legacy-style skew");
    assert!(matches!(
        ModelBundle::load_from_path(&path.0),
        Err(BundleError::VersionMismatch { found: 7, .. })
    ));
}

#[test]
fn legacy_bare_json_bundles_still_load() {
    let (bundle, features, env_ids) = demo_bundle();
    let path = Scratch::new("legacy");
    std::fs::write(&path.0, bundle.to_json()).expect("write legacy");
    let loaded = ModelBundle::load_from_path(&path.0).expect("legacy load");
    assert_eq!(
        loaded.score_batch(&features, &env_ids),
        bundle.score_batch(&features, &env_ids)
    );
}

#[test]
fn a_bare_json_bundle_nested_past_the_parser_limit_is_malformed_not_a_stack_overflow() {
    // A file without the envelope magic goes straight to the JSON parser;
    // 100,000 nested arrays used to overflow its stack and abort.
    let path = Scratch::new("deep");
    let hostile = format!("{{\"version\":{}", "[".repeat(100_000));
    std::fs::write(&path.0, hostile).expect("write hostile");
    match ModelBundle::load_from_path(&path.0) {
        Err(BundleError::Malformed(e)) => {
            assert!(e.message().contains("nesting deeper than"), "{e}");
            assert!(e.message().contains("at byte"), "{e}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn missing_files_surface_io_errors() {
    let path = Scratch::new("missing");
    assert!(matches!(
        ModelBundle::load_from_path(&path.0),
        Err(BundleError::Io(_))
    ));
}

/// CRC-32 (IEEE, reflected), bit by bit: the envelope's checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xedb8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `json` in an envelope whose length and checksum are right, so only
/// the payload's content can reject it.
fn envelope(json: &str) -> String {
    format!(
        "LMIRM-BUNDLE v1 crc32={:08x} len={}\n{json}",
        crc32(json.as_bytes()),
        json.len()
    )
}

/// `json` with the number after its first `"key":` replaced by `value`.
fn set_first(json: &str, key: &str, value: &str) -> String {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat).expect("key present") + pat.len();
    let end = start
        + json[start..]
            .find([',', '}'])
            .expect("number is followed by a delimiter");
    format!("{}{value}{}", &json[..start], &json[end..])
}

/// Load a hostile `json` both enveloped and bare: each must be
/// `Malformed`, with a message naming the offending tree and node.
fn assert_hostile_rejected(bundle: &ModelBundle, json: &str, names: &str) {
    assert_eq!(envelope(&bundle.to_json()), bundle.to_envelope());
    let path = Scratch::new("hostile");
    for text in [envelope(json), json.to_string()] {
        std::fs::write(&path.0, text).expect("write hostile");
        let err = ModelBundle::load_from_path(&path.0).expect_err("hostile tree must not load");
        assert!(
            matches!(err, BundleError::Malformed(_)),
            "{err}, expected Malformed"
        );
        assert!(
            err.to_string().contains(names),
            "{err} does not name {names}"
        );
    }
}

#[test]
fn a_split_pointing_at_itself_is_malformed_not_an_endless_walk() {
    let (bundle, _, _) = demo_bundle();
    assert!(matches!(
        bundle.extractor.tree(0).nodes()[0],
        Node::Split { left: 1, .. }
    ));
    // Tree 0's root is the payload's first split.
    let json = set_first(&bundle.to_json(), "left", "0");
    assert_hostile_rejected(&bundle, &json, "tree 0, node 0: child 0");
}

#[test]
fn a_split_on_a_feature_past_the_row_is_malformed_not_a_scoring_panic() {
    let (bundle, _, _) = demo_bundle();
    let json = set_first(&bundle.to_json(), "feature", "4600000");
    let names = format!(
        "tree 0, node 0: splits on feature 4600000 of {}",
        bundle.n_features()
    );
    assert_hostile_rejected(&bundle, &json, &names);
}

#[test]
fn a_leaf_index_past_its_tree_is_malformed_not_a_silent_misroute() {
    let (bundle, _, _) = demo_bundle();
    let tree = bundle.extractor.tree(0);
    let node = tree
        .nodes()
        .iter()
        .position(|n| matches!(n, Node::Leaf { .. }))
        .expect("a tree has a leaf");
    // Leaf `n_leaves` of tree 0 would be leaf 0 of tree 1.
    let n_leaves = tree.n_leaves().to_string();
    let json = set_first(&bundle.to_json(), "index", &n_leaves);
    assert_hostile_rejected(
        &bundle,
        &json,
        &format!("tree 0, node {node}: leaf index {n_leaves}"),
    );
}

#[test]
fn a_per_env_head_of_the_wrong_width_is_a_dimension_mismatch() {
    let (bundle, features, env_ids) = demo_bundle();
    let leaves = bundle.extractor.total_leaves();
    let base = bundle.model.global().clone();
    let narrow = TrainedModel::PerEnv {
        base: base.clone(),
        per_env: vec![None, Some(LrModel { weights: vec![0.5] })],
    };
    // Assembling such a bundle is refused…
    assert!(matches!(
        ModelBundle::new(bundle.extractor.clone(), &narrow, BundleMetadata::default()),
        Err(BundleError::DimensionMismatch { leaves: l, weights: 1 }) if l == leaves
    ));
    // …and so is loading one, enveloped or bare.
    let mut hostile = bundle.clone();
    hostile.model = narrow;
    let path = Scratch::new("narrow-head");
    for text in [hostile.to_envelope(), hostile.to_json()] {
        std::fs::write(&path.0, text).expect("write hostile");
        let err = ModelBundle::load_from_path(&path.0).expect_err("a narrow head must not load");
        assert!(
            matches!(err, BundleError::DimensionMismatch { weights: 1, .. }),
            "{err}, expected DimensionMismatch"
        );
    }
    // Full-width per-env heads still assemble, and score every province.
    let wide = TrainedModel::PerEnv {
        per_env: vec![None, Some(base.clone())],
        base,
    };
    let ok = ModelBundle::new(bundle.extractor.clone(), &wide, BundleMetadata::default())
        .expect("full-width heads");
    assert_eq!(
        ok.score_batch(&features, &env_ids),
        bundle.score_batch(&features, &env_ids)
    );
}

/// The failpoint registry is process-global; serialize the tests that
/// program it so parallel test threads cannot cross their schedules.
#[cfg(feature = "failpoints")]
static FAILPOINT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The crash-mid-write story, driven by failpoints: a save that dies
/// partway (at the write, the data fsync, or the rename) must leave the
/// incumbent bundle intact and loadable — atomicity is the whole point
/// of tmp + fsync + rename.
#[cfg(feature = "failpoints")]
#[test]
fn interrupted_saves_never_clobber_the_incumbent() {
    use lightmirm_core::failpoint::{self, FailMode, Fault};

    let _serial = FAILPOINT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (bundle, features, env_ids) = demo_bundle();
    let incumbent_scores = bundle.score_batch(&features, &env_ids);
    let path = Scratch::new("crash");
    bundle.save_to_path(&path.0).expect("incumbent saved");

    for site in ["bundle::partial_write", "bundle::fsync", "bundle::rename"] {
        failpoint::configure(11);
        failpoint::set(site, FailMode::Always(Fault::IoError));
        let err = bundle
            .save_to_path(&path.0)
            .expect_err("injected crash must surface");
        assert!(matches!(err, BundleError::Io(_)), "{site} gave {err}");
        failpoint::clear();

        let survivor = ModelBundle::load_from_path(&path.0)
            .unwrap_or_else(|e| panic!("incumbent lost after {site}: {e}"));
        assert_eq!(
            survivor.score_batch(&features, &env_ids),
            incumbent_scores,
            "incumbent perturbed after {site}"
        );
    }

    // Injected read failures surface as Io, not Corrupt.
    failpoint::configure(12);
    failpoint::set("bundle::read", FailMode::Always(Fault::IoError));
    assert!(matches!(
        ModelBundle::load_from_path(&path.0),
        Err(BundleError::Io(_))
    ));
    failpoint::clear();
}

/// The directory fsync runs *after* the rename: when it fails, the new
/// bytes are already in place (and loadable), but the caller must still
/// see the error — the rename's own durability is not yet guaranteed,
/// and a promotion gated on `save_to_path` must not commit.
#[cfg(feature = "failpoints")]
#[test]
fn dir_sync_failure_surfaces_even_though_the_rename_landed() {
    use lightmirm_core::failpoint::{self, FailMode, Fault};

    let _serial = FAILPOINT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let (bundle, features, env_ids) = demo_bundle();
    let path = Scratch::new("dirsync");

    failpoint::configure(13);
    failpoint::set("bundle::dir_sync", FailMode::Always(Fault::IoError));
    let err = bundle
        .save_to_path(&path.0)
        .expect_err("dir-sync failure must surface");
    assert!(matches!(err, BundleError::Io(_)), "{err}");
    failpoint::clear();

    let landed = ModelBundle::load_from_path(&path.0).expect("renamed bytes are readable");
    assert_eq!(
        landed.score_batch(&features, &env_ids),
        bundle.score_batch(&features, &env_ids)
    );
}
