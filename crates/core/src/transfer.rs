//! Cross-architecture transfer-matrix evaluation (the paper's headline
//! architecture-level claim, measured instead of assumed).
//!
//! A finished campaign produces one champion mask per (group, model seed,
//! image) cell, each optimized against exactly the detector it attacked.
//! This module re-evaluates those champions against *other* targets — the
//! sibling seeds of the same family, the other architecture family, the
//! 16-model ensemble and the two-stage decode path — and reports, per
//! source → target pair:
//!
//! * the transferred fitness (`obj_degrad` of the champion on the target)
//!   and its delta against the source fitness,
//! * the error-transition counts ([`crate::errors::TransitionReport`]
//!   with the clean target prediction as ground truth: vanished objects,
//!   appeared ghosts, deformed boxes), and
//! * distortion-aware normalization: degradation per unit L1 / L2 / area
//!   budget, so champions of different sizes and intensities compare on
//!   one axis.
//!
//! The matrix runs as a grid in the [`crate::campaign`] mold: cells are
//! enumerated in spec order, sharded across `--jobs` workers through
//! [`crate::grid::run_sharded`], committed into spec-order slots, and
//! persisted in a resumable per-cell store — so byte-identical output at
//! any `--jobs` is inherited rather than re-proven. Three
//! invariants are test-enforced:
//!
//! 1. **Identity diagonal.** A champion evaluated against its own source
//!    cell reproduces the recorded champion fitness bit-for-bit (the
//!    evaluation pipeline is the same pure function the GA scored with).
//! 2. **Quantized determinism.** Every stored float is quantized through
//!    [`round6`] at construction, so compute → CSV → reload → CSV is
//!    byte-stable and resumed artifacts equal fresh ones.
//! 3. **Source binding.** The transfer fingerprint folds in the source
//!    campaign's manifest fingerprint, so resuming a transfer store
//!    against a different (or mutated) source campaign refuses loudly.

use crate::attack::ButterflyAttack;
use crate::campaign::{
    derive_cell_seed, manifest_fingerprint_at, sanitize_label, CampaignConfig, CampaignResult,
    CampaignStore, CellSpec,
};
use crate::errors::TransitionReport;
use crate::grid::{fnv1a, resolve_jobs, run_sharded};
use crate::objectives::degradation::obj_degrad;
use crate::objectives::intensity::obj_intensity_normalized;
use crate::report::{csv_field, parse_csv};
use crate::telemetry::{self, JsonObject};
use bea_detect::{Detector, Prediction};
use bea_image::{FilterMask, Image};
use bea_scene::{BBox, ObjectClass};
use bea_tensor::norm::NormKind;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// How a target detector is assembled for one matrix column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TargetPath {
    /// The single seeded model, exactly as the source campaign built it.
    Plain,
    /// The paper's Table-I ensemble around the target seed.
    Ensemble,
    /// The two-stage region-proposal decode path (the zoo's R-CNN
    /// extension).
    TwoStage,
}

impl TargetPath {
    /// Every path, in column order.
    pub const ALL: [TargetPath; 3] =
        [TargetPath::Plain, TargetPath::Ensemble, TargetPath::TwoStage];

    /// The stable token used in CSVs, file names and fingerprints.
    pub fn token(self) -> &'static str {
        match self {
            TargetPath::Plain => "plain",
            TargetPath::Ensemble => "ensemble",
            TargetPath::TwoStage => "two-stage",
        }
    }
}

impl std::fmt::Display for TargetPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for TargetPath {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TargetPath::ALL
            .into_iter()
            .find(|p| p.token() == s)
            .ok_or_else(|| format!("unknown target path {s:?} (plain|ensemble|two-stage)"))
    }
}

/// One matrix column: which detector family, seed and assembly path the
/// champions are re-evaluated against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TargetSpec {
    /// Target group label (the architecture name).
    pub group: String,
    /// Target model seed.
    pub seed: u64,
    /// How the target detector is assembled.
    pub path: TargetPath,
}

impl TargetSpec {
    /// Builds one target spec.
    pub fn new(group: impl Into<String>, seed: u64, path: TargetPath) -> Self {
        Self { group: group.into(), seed, path }
    }

    /// The paper-style target grid over a seed set: plain and ensemble
    /// columns for both compared families, plus one two-stage decode
    /// column per seed (the extension family has no source campaigns, so
    /// it appears once — not once per source architecture).
    pub fn paper_grid(seeds: &[u64]) -> Vec<Self> {
        let mut targets = Vec::new();
        for group in ["YOLO", "DETR"] {
            for &seed in seeds {
                for path in [TargetPath::Plain, TargetPath::Ensemble] {
                    targets.push(Self::new(group, seed, path));
                }
            }
        }
        for &seed in seeds {
            targets.push(Self::new("R-CNN", seed, TargetPath::TwoStage));
        }
        targets
    }
}

/// One transfer-matrix cell: a source campaign cell's champion evaluated
/// against one target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransferCellSpec {
    /// The source campaign cell whose champion mask is evaluated.
    pub source: CellSpec,
    /// Target group label.
    pub target_group: String,
    /// Target model seed.
    pub target_seed: u64,
    /// Target assembly path.
    pub path: TargetPath,
}

impl TransferCellSpec {
    /// Builds one transfer cell.
    pub fn new(source: CellSpec, target: &TargetSpec) -> Self {
        Self {
            source,
            target_group: target.group.clone(),
            target_seed: target.seed,
            path: target.path,
        }
    }

    /// The full source × target grid, source-major (every target of the
    /// first source, then every target of the second, …).
    pub fn grid(sources: &[CellSpec], targets: &[TargetSpec]) -> Vec<Self> {
        sources.iter().flat_map(|s| targets.iter().map(|t| Self::new(s.clone(), t))).collect()
    }

    /// The target column as a [`TargetSpec`].
    pub fn target(&self) -> TargetSpec {
        TargetSpec::new(self.target_group.clone(), self.target_seed, self.path)
    }

    /// `true` for a self-transfer: the champion evaluated against exactly
    /// the detector it was optimized on. Diagonal cells must reproduce
    /// the source fitness bit-for-bit.
    pub fn is_diagonal(&self) -> bool {
        self.path == TargetPath::Plain
            && self.source.group == self.target_group
            && self.source.model_seed == self.target_seed
    }
}

/// Quantizes a float to the CSV precision (six decimals) by formatting
/// and re-parsing. Every float stored in a [`TransferMetrics`] goes
/// through this at construction, which is what makes compute → persist →
/// reload → persist byte-stable (and resumed artifacts identical to
/// fresh ones).
pub fn round6(value: f64) -> f64 {
    format!("{value:.6}").parse().expect("fixed-precision floats reparse")
}

/// The distortion budget a mask spends, as fractions of the maximal
/// mask: L1 / L2 norms over the largest possible norm, and the perturbed
/// pixel fraction. All three are in `[0, 1]` and quantized via
/// [`round6`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistortionBudget {
    /// `‖δ‖₁ / (genes · 255)`.
    pub l1: f64,
    /// `‖δ‖₂ / (√genes · 255)` — the same scaling as
    /// [`obj_intensity_normalized`].
    pub l2: f64,
    /// Fraction of pixels perturbed on any channel.
    pub area: f64,
}

impl DistortionBudget {
    /// Measures a mask's budget.
    pub fn of(mask: &FilterMask) -> Self {
        let genes = mask.gene_count() as f64;
        let pixels = mask.pixel_count() as f64;
        let l1 = if genes > 0.0 { mask.norm(NormKind::L1) / (255.0 * genes) } else { 0.0 };
        let area = if pixels > 0.0 { mask.perturbed_pixel_count() as f64 / pixels } else { 0.0 };
        Self { l1: round6(l1), l2: round6(obj_intensity_normalized(mask)), area: round6(area) }
    }
}

/// Degradation per unit of spent budget — the distortion-aware scores
/// that make differently-sized masks comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalizedDegradation {
    /// Degradation per unit L1 budget.
    pub per_l1: f64,
    /// Degradation per unit L2 budget.
    pub per_l2: f64,
    /// Degradation per unit area budget.
    pub per_area: f64,
}

/// Normalizes a raw degradation by a budget. A zero budget component
/// yields `0.0` for its score (a zero mask spends nothing and degrades
/// nothing), so the scores are finite for the degenerate zero-area and
/// full-frame masks. The scores are a pure function of
/// `(degradation, budget)` — independent of which seed or architecture
/// produced them — and monotone in `degradation` at fixed budget.
pub fn normalize_degradation(degradation: f64, budget: &DistortionBudget) -> NormalizedDegradation {
    let per = |b: f64| if b > 0.0 { round6(degradation / b) } else { 0.0 };
    NormalizedDegradation {
        per_l1: per(budget.l1),
        per_l2: per(budget.l2),
        per_area: per(budget.area),
    }
}

/// Everything measured for one transfer cell. All floats are quantized
/// via [`round6`] at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferMetrics {
    /// The source campaign's champion fitness (`obj_degrad` on the source
    /// detector; lower = stronger attack).
    pub source_fitness: f64,
    /// The champion's fitness re-evaluated on the target.
    pub target_fitness: f64,
    /// `target_fitness - source_fitness` (0 on the diagonal; positive
    /// when the attack weakens in transfer).
    pub delta: f64,
    /// Transferred degradation `1 - target_fitness` (higher = the mask
    /// degrades the target more).
    pub degradation: f64,
    /// TP→FN count: objects of the clean target prediction that vanished.
    pub vanished: usize,
    /// TN→FP count: ghost objects that appeared.
    pub appeared: usize,
    /// Box-deformation count.
    pub deformed: usize,
    /// The mask's distortion budget.
    pub budget: DistortionBudget,
    /// Degradation per unit budget.
    pub normalized: NormalizedDegradation,
}

/// Evaluates one champion mask against one target detector's clean and
/// perturbed predictions. The clean target prediction doubles as ground
/// truth for the transition taxonomy, so "vanished" and "appeared" are
/// measured relative to what the target saw before the mask — making the
/// report self-contained (no dataset labels needed).
pub fn transfer_metrics(
    source_fitness: f64,
    mask: &FilterMask,
    clean: &Prediction,
    perturbed: &Prediction,
) -> TransferMetrics {
    let source_fitness = round6(source_fitness);
    let target_fitness = round6(obj_degrad(clean, perturbed));
    let gt: Vec<(ObjectClass, BBox)> = clean.as_slice().iter().map(|d| (d.class, d.bbox)).collect();
    let report = TransitionReport::analyze(&gt, clean, perturbed);
    let degradation = round6(1.0 - target_fitness);
    let budget = DistortionBudget::of(mask);
    TransferMetrics {
        source_fitness,
        target_fitness,
        delta: round6(target_fitness - source_fitness),
        degradation,
        vanished: report.tp_to_fn,
        appeared: report.tn_to_fp,
        deformed: report.box_deformed,
        budget,
        normalized: normalize_degradation(degradation, &budget),
    }
}

/// One row of the transfer matrix: a cell spec plus its metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRow {
    /// The cell's coordinates.
    pub spec: TransferCellSpec,
    /// The measured metrics.
    pub metrics: TransferMetrics,
}

/// The column header emitted and expected by [`write_matrix_csv`] /
/// [`read_matrix_csv`].
pub const TRANSFER_CSV_HEADER: &str = "source_group,source_seed,source_image,target_group,\
     target_seed,target_path,source_fitness,target_fitness,delta,degradation,vanished,\
     appeared,deformed,budget_l1,budget_l2,budget_area,per_l1,per_l2,per_area";

/// Writes transfer rows as CSV (with header), string fields quoted per
/// RFC 4180. Because every float was quantized at construction, writing
/// the rows read back by [`read_matrix_csv`] reproduces the bytes.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_matrix_csv<W: io::Write>(rows: &[TransferRow], mut writer: W) -> io::Result<()> {
    writeln!(writer, "{TRANSFER_CSV_HEADER}")?;
    for row in rows {
        let m = &row.metrics;
        writeln!(
            writer,
            "{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
            csv_field(&row.spec.source.group),
            row.spec.source.model_seed,
            row.spec.source.image_index,
            csv_field(&row.spec.target_group),
            row.spec.target_seed,
            row.spec.path.token(),
            m.source_fitness,
            m.target_fitness,
            m.delta,
            m.degradation,
            m.vanished,
            m.appeared,
            m.deformed,
            m.budget.l1,
            m.budget.l2,
            m.budget.area,
            m.normalized.per_l1,
            m.normalized.per_l2,
            m.normalized.per_area,
        )?;
    }
    Ok(())
}

/// Reads rows back from CSV produced by [`write_matrix_csv`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] when the header or any record
/// does not match the schema, and propagates I/O failures.
pub fn read_matrix_csv<R: io::Read>(mut reader: R) -> io::Result<Vec<TransferRow>> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut records = parse_csv(&text).map_err(invalid)?.into_iter();
    match records.next() {
        Some(header) if header.join(",") == TRANSFER_CSV_HEADER => {}
        other => return Err(invalid(format!("bad transfer CSV header: {other:?}"))),
    }
    let mut rows = Vec::new();
    for (line, record) in records.enumerate() {
        if record.len() != 19 {
            return Err(invalid(format!(
                "record {line}: expected 19 fields, got {}",
                record.len()
            )));
        }
        let num = |i: usize| -> io::Result<f64> {
            record[i].parse().map_err(|e| invalid(format!("record {line} field {i}: {e}")))
        };
        let count = |i: usize| -> io::Result<usize> {
            record[i].parse().map_err(|e| invalid(format!("record {line} field {i}: {e}")))
        };
        rows.push(TransferRow {
            spec: TransferCellSpec {
                source: CellSpec::new(record[0].clone(), count(1)? as u64, count(2)?),
                target_group: record[3].clone(),
                target_seed: record[4]
                    .parse()
                    .map_err(|e| invalid(format!("record {line} target_seed: {e}")))?,
                path: record[5]
                    .parse()
                    .map_err(|e: String| invalid(format!("record {line}: {e}")))?,
            },
            metrics: TransferMetrics {
                source_fitness: num(6)?,
                target_fitness: num(7)?,
                delta: num(8)?,
                degradation: num(9)?,
                vanished: count(10)?,
                appeared: count(11)?,
                deformed: count(12)?,
                budget: DistortionBudget { l1: num(13)?, l2: num(14)?, area: num(15)? },
                normalized: NormalizedDegradation {
                    per_l1: num(16)?,
                    per_l2: num(17)?,
                    per_area: num(18)?,
                },
            },
        });
    }
    Ok(rows)
}

/// A stable fingerprint of a transfer run's identity: the source
/// campaign's manifest fingerprint (so a transfer store is bound to the
/// exact campaign it evaluates — a mutated or swapped source refuses to
/// resume) plus the exact cell grid, order-sensitive.
pub fn transfer_fingerprint(source_fingerprint: Option<u64>, specs: &[TransferCellSpec]) -> u64 {
    let mut canonical = format!(
        "transfer-v1\x1f{}",
        match source_fingerprint {
            Some(f) => format!("{f:016x}"),
            None => "legacy".to_string(),
        }
    );
    for spec in specs {
        canonical.push('\x1e');
        canonical.push_str(&spec.source.group);
        canonical.push('\x1f');
        canonical.push_str(&spec.source.model_seed.to_string());
        canonical.push('\x1f');
        canonical.push_str(&spec.source.image_index.to_string());
        canonical.push('\x1f');
        canonical.push_str(&spec.target_group);
        canonical.push('\x1f');
        canonical.push_str(&spec.target_seed.to_string());
        canonical.push('\x1f');
        canonical.push_str(spec.path.token());
    }
    fnv1a(canonical.as_bytes())
}

/// File stem of one transfer cell: sanitised source and target labels
/// plus an FNV-1a hash of the exact cell identity, collision-free for
/// hostile labels (see [`crate::campaign::CampaignStore::cell_path`]).
fn transfer_slug(spec: &TransferCellSpec) -> String {
    let canonical = format!(
        "{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}",
        spec.source.group,
        spec.source.model_seed,
        spec.source.image_index,
        spec.target_group,
        spec.target_seed,
        spec.path.token()
    );
    let hash = fnv1a(canonical.as_bytes()) as u32;
    format!(
        "{}-s{}-i{}--{}-s{}-{}-{hash:08x}",
        sanitize_label(&spec.source.group),
        spec.source.model_seed,
        spec.source.image_index,
        sanitize_label(&spec.target_group),
        spec.target_seed,
        spec.path.token()
    )
}

/// One source champion: the best-degradation mask of a finished campaign
/// cell, with the fitness it recorded.
#[derive(Debug, Clone)]
pub struct SourceChampion {
    /// The campaign cell the champion came from.
    pub spec: CellSpec,
    /// The NSGA-II seed the source cell ran under.
    pub seed: u64,
    /// The champion's recorded `obj_degrad` fitness.
    pub fitness: f64,
    /// The champion mask.
    pub mask: FilterMask,
}

/// Extracts the champions of an in-memory campaign run (cells whose
/// attack produced a best-degradation individual; resumed cells carry no
/// genome and are skipped — use [`load_champions`] for stores).
pub fn champions_from_result(result: &CampaignResult) -> Vec<SourceChampion> {
    result
        .cells
        .iter()
        .filter_map(|cell| {
            let best = cell.outcome.as_ref()?.best_degradation()?;
            Some(SourceChampion {
                spec: cell.spec.clone(),
                seed: cell.seed,
                fitness: best.objectives()[1],
                mask: best.genome().clone(),
            })
        })
        .collect()
}

/// Loads the champions of a persisted campaign, one per source spec.
///
/// The fitness comes from the cell CSV's `best-degrad` row. The mask
/// comes from the store's `masks/` directory when present; for stores
/// written before mask persistence the cell's attack is re-run inline
/// with its derived seed — determinism makes the recomputed champion
/// identical to the original, and the recomputed fitness is checked
/// against the stored row so a mismatched attack configuration fails
/// loudly instead of silently evaluating the wrong mask.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when a cell has no CSV,
/// [`io::ErrorKind::InvalidData`] when a cell has no `best-degrad` row
/// or an inline re-attack does not reproduce the stored fitness;
/// store I/O failures propagate.
pub fn load_champions<D, I>(
    store: &CampaignStore,
    config: &CampaignConfig,
    specs: &[CellSpec],
    detector_for: D,
    image_for: I,
) -> io::Result<Vec<SourceChampion>>
where
    D: Fn(&CellSpec) -> Box<dyn Detector>,
    I: Fn(&CellSpec) -> Image,
{
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut champions = Vec::with_capacity(specs.len());
    for spec in specs {
        let rows = store.load_cell(spec)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "source campaign cell {}/s{}/i{} has no CSV in {} — run the campaign first",
                    spec.group,
                    spec.model_seed,
                    spec.image_index,
                    store.root().display()
                ),
            )
        })?;
        let fitness =
            rows.iter().find(|r| r.role == "best-degrad").map(|r| r.point.degrad).ok_or_else(
                || {
                    invalid(format!(
                        "source cell {}/s{}/i{} has no best-degrad row",
                        spec.group, spec.model_seed, spec.image_index
                    ))
                },
            )?;
        let seed = derive_cell_seed(config.base_seed, spec.model_seed, spec.image_index);
        let mask = match store.load_mask(spec)? {
            Some(mask) => mask,
            None => {
                // Legacy store: re-run the source attack under its derived
                // seed. Bit-identical by the campaign determinism contract.
                let mut attack_config = config.attack.clone();
                attack_config.nsga2.seed = seed;
                let detector = detector_for(spec);
                let image = image_for(spec);
                let outcome = ButterflyAttack::new(attack_config).attack(detector.as_ref(), &image);
                let best = outcome.best_degradation().ok_or_else(|| {
                    invalid(format!(
                        "re-running source cell {}/s{}/i{} produced no champion",
                        spec.group, spec.model_seed, spec.image_index
                    ))
                })?;
                if round6(best.objectives()[1]) != round6(fitness) {
                    return Err(invalid(format!(
                        "re-running source cell {}/s{}/i{} reproduced fitness {:.6}, but the \
                         store recorded {:.6} — the attack configuration does not match the \
                         source campaign",
                        spec.group,
                        spec.model_seed,
                        spec.image_index,
                        best.objectives()[1],
                        fitness
                    )));
                }
                best.genome().clone()
            }
        };
        champions.push(SourceChampion { spec: spec.clone(), seed, fitness, mask });
    }
    Ok(champions)
}

/// The parsed identity of a source campaign's manifest — what
/// `transfer_cli` needs to rebuild the source grid and champion set from
/// a `campaign_cli` output directory.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceManifest {
    /// The campaign's base seed.
    pub base_seed: u64,
    /// NSGA-II population size.
    pub population: usize,
    /// NSGA-II generation count.
    pub generations: usize,
    /// The cell grid, in spec order.
    pub specs: Vec<CellSpec>,
    /// The campaign's grid fingerprint (`None` for legacy manifests).
    pub fingerprint: Option<u64>,
}

/// Reads and parses a campaign store's manifest.
///
/// # Errors
///
/// [`io::ErrorKind::NotFound`] when the store has no manifest,
/// [`io::ErrorKind::InvalidData`] when it does not parse as a campaign
/// manifest.
pub fn read_source_manifest(store: &CampaignStore) -> io::Result<SourceManifest> {
    let text = std::fs::read_to_string(store.manifest_path()).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{} has no manifest.json — not a finished campaign directory",
                    store.root().display()
                ),
            )
        } else {
            e
        }
    })?;
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let manifest = telemetry::parse_json(text.trim()).map_err(|e| {
        invalid(format!("corrupt manifest {}: {e}", store.manifest_path().display()))
    })?;
    let integer = |key: &str| {
        manifest
            .get(key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| invalid(format!("manifest missing integer field {key:?}")))
    };
    let cells = match manifest.get("cells") {
        Some(telemetry::JsonValue::Array(items)) => items,
        _ => return Err(invalid("manifest missing cells array".to_string())),
    };
    let mut specs = Vec::with_capacity(cells.len());
    for cell in cells {
        let group = cell
            .get("group")
            .and_then(|v| v.as_str())
            .ok_or_else(|| invalid("manifest cell missing group".to_string()))?;
        let model_seed = cell
            .get("model_seed")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| invalid("manifest cell missing model_seed".to_string()))?;
        let image_index = cell
            .get("image_index")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| invalid("manifest cell missing image_index".to_string()))?;
        specs.push(CellSpec::new(group, model_seed, image_index as usize));
    }
    Ok(SourceManifest {
        base_seed: integer("base_seed")?,
        population: integer("population")? as usize,
        generations: integer("generations")? as usize,
        specs,
        fingerprint: store.manifest_fingerprint()?,
    })
}

/// The member seeds of the ensemble column around a target seed:
/// `members` consecutive seeds starting at `seed`, wrapping inside
/// `[1, max_seed]` — so every target seed gets a distinct but
/// deterministic ensemble.
pub fn ensemble_member_seeds(seed: u64, members: usize, max_seed: u64) -> Vec<u64> {
    if max_seed == 0 {
        return Vec::new();
    }
    (0..members as u64).map(|k| (seed - 1 + k) % max_seed + 1).collect()
}

/// Transfer-grid configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferConfig {
    /// Worker threads sharding the matrix cells; `0` uses every core.
    pub jobs: usize,
    /// Emit the JSONL telemetry stream when a store is attached.
    pub telemetry: bool,
    /// The source campaign's manifest fingerprint, folded into the
    /// transfer fingerprint so a store refuses to resume against a
    /// different source campaign. `None` for in-memory or legacy sources.
    pub source_fingerprint: Option<u64>,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self { jobs: 0, telemetry: true, source_fingerprint: None }
    }
}

/// One finished matrix cell.
#[derive(Debug, Clone)]
pub struct TransferCellResult {
    /// The row (spec + metrics).
    pub row: TransferRow,
    /// `true` when reloaded from a store instead of computed.
    pub resumed: bool,
}

/// The finished transfer matrix, cells in spec order.
#[derive(Debug, Clone)]
pub struct TransferMatrix {
    /// Per-cell results in spec order.
    pub cells: Vec<TransferCellResult>,
    /// The resolved worker count the run used.
    pub jobs: usize,
    fingerprint: u64,
    source_fingerprint: Option<u64>,
}

impl TransferMatrix {
    /// The matrix rows in spec order.
    pub fn rows(&self) -> Vec<TransferRow> {
        self.cells.iter().map(|c| c.row.clone()).collect()
    }

    /// Number of cells computed by this run (the rest were resumed).
    pub fn computed_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.resumed).count()
    }

    /// The run's transfer fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The manifest as a single JSON line.
    pub fn manifest_line(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                JsonObject::new()
                    .string("source_group", &c.row.spec.source.group)
                    .integer("source_seed", c.row.spec.source.model_seed)
                    .integer("source_image", c.row.spec.source.image_index as u64)
                    .string("target_group", &c.row.spec.target_group)
                    .integer("target_seed", c.row.spec.target_seed)
                    .string("target_path", c.row.spec.path.token())
                    .boolean("resumed", c.resumed)
                    .finish()
            })
            .collect();
        JsonObject::new()
            .string("type", "transfer-manifest")
            .integer("version", 1)
            .string("fingerprint", &format!("{:016x}", self.fingerprint))
            .string(
                "source_fingerprint",
                &match self.source_fingerprint {
                    Some(f) => format!("{f:016x}"),
                    None => "legacy".to_string(),
                },
            )
            .integer("jobs", self.jobs as u64)
            .raw("cells", &format!("[{}]", cells.join(",")))
            .finish()
    }

    /// The telemetry stream: one `transfer-cell` record per cell, in spec
    /// order. Records are a pure function of the rows (no wall times, no
    /// resumed flags — those live in the manifest), so fresh and resumed
    /// runs emit byte-identical streams.
    pub fn telemetry_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let s = &cell.row.spec;
            let m = &cell.row.metrics;
            lines.push(
                JsonObject::new()
                    .string("type", "transfer-cell")
                    .string("source_group", &s.source.group)
                    .integer("source_seed", s.source.model_seed)
                    .integer("source_image", s.source.image_index as u64)
                    .string("target_group", &s.target_group)
                    .integer("target_seed", s.target_seed)
                    .string("target_path", s.path.token())
                    .boolean("diagonal", s.is_diagonal())
                    .float("source_fitness", m.source_fitness)
                    .float("target_fitness", m.target_fitness)
                    .float("delta", m.delta)
                    .float("degradation", m.degradation)
                    .integer("vanished", m.vanished as u64)
                    .integer("appeared", m.appeared as u64)
                    .integer("deformed", m.deformed as u64)
                    .float("budget_l1", m.budget.l1)
                    .float("budget_l2", m.budget.l2)
                    .float("budget_area", m.budget.area)
                    .float("per_l1", m.normalized.per_l1)
                    .float("per_l2", m.normalized.per_l2)
                    .float("per_area", m.normalized.per_area)
                    .finish(),
            );
        }
        lines
    }

    /// Mean transferred degradation per target group, sorted by group
    /// name. With `exclude_diagonal`, self-transfers are left out — the
    /// paper's cross-seed asymmetry claim compares exactly these means
    /// (DETR targets above YOLO targets).
    pub fn mean_degradation_by_target(&self, exclude_diagonal: bool) -> Vec<(String, f64)> {
        let mut sums: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for cell in &self.cells {
            if exclude_diagonal && cell.row.spec.is_diagonal() {
                continue;
            }
            let entry = sums.entry(&cell.row.spec.target_group).or_insert((0.0, 0));
            entry.0 += cell.row.metrics.degradation;
            entry.1 += 1;
        }
        sums.into_iter().map(|(g, (sum, n))| (g.to_string(), sum / n as f64)).collect()
    }
}

/// On-disk layout of a resumable transfer run: `cells/<slug>.csv` per
/// finished cell, plus `matrix.csv`, `manifest.json` and
/// `telemetry.jsonl` written after every run.
#[derive(Debug, Clone)]
pub struct TransferStore {
    root: PathBuf,
}

impl TransferStore {
    /// Opens (creating if needed) a transfer directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("cells"))?;
        Ok(Self { root })
    }

    /// The transfer directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one cell's CSV.
    pub fn cell_path(&self, spec: &TransferCellSpec) -> PathBuf {
        self.root.join("cells").join(format!("{}.csv", transfer_slug(spec)))
    }

    /// Path of the combined matrix CSV.
    pub fn matrix_path(&self) -> PathBuf {
        self.root.join("matrix.csv")
    }

    /// Path of the JSONL telemetry stream.
    pub fn telemetry_path(&self) -> PathBuf {
        self.root.join("telemetry.jsonl")
    }

    /// Path of the transfer manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// The fingerprint recorded in the store's manifest, or `None` for a
    /// fresh store.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a manifest that exists but is not valid
    /// JSON is [`io::ErrorKind::InvalidData`].
    pub fn manifest_fingerprint(&self) -> io::Result<Option<u64>> {
        manifest_fingerprint_at(&self.manifest_path())
    }

    /// Loads a previously persisted cell, or `None` when the cell has not
    /// finished before.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a cell file whose row does not match the
    /// requested spec is [`io::ErrorKind::InvalidData`].
    pub fn load_cell(&self, spec: &TransferCellSpec) -> io::Result<Option<TransferRow>> {
        let rows = match std::fs::read(self.cell_path(spec)) {
            Ok(bytes) => read_matrix_csv(&bytes[..])?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        match rows.into_iter().next() {
            Some(row) if row.spec == *spec => Ok(Some(row)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "cell file {} does not hold the requested cell (found {:?})",
                    self.cell_path(spec).display(),
                    other.map(|r| r.spec)
                ),
            )),
        }
    }

    /// Persists one cell's row (tmp file + rename, so interruptions never
    /// leave a truncated cell to be "resumed").
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_cell(&self, row: &TransferRow) -> io::Result<()> {
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.cell_path(&row.spec);
        let tmp = path.with_extension(format!("csv.tmp.{}.{seq}", std::process::id()));
        let mut buf = Vec::new();
        write_matrix_csv(std::slice::from_ref(row), &mut buf)?;
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, &path)
    }

    fn write_outputs(&self, matrix: &TransferMatrix, telemetry: bool) -> io::Result<()> {
        for cell in &matrix.cells {
            if !cell.resumed {
                self.save_cell(&cell.row)?;
            }
        }
        let mut buf = Vec::new();
        write_matrix_csv(&matrix.rows(), &mut buf)?;
        std::fs::write(self.matrix_path(), &buf)?;
        std::fs::write(self.manifest_path(), format!("{}\n", matrix.manifest_line()))?;
        if telemetry {
            let mut text = String::new();
            for line in matrix.telemetry_lines() {
                text.push_str(&line);
                text.push('\n');
            }
            std::fs::write(self.telemetry_path(), text)?;
        }
        Ok(())
    }
}

/// The transfer-matrix runner — the campaign grid discipline applied to
/// champion re-evaluation. See the [module docs](self).
///
/// Cells are grouped by (target, source group, source image) before
/// sharding, so every group runs one clean forward pass and one
/// [`Detector::detect_masked_batch`] over all of its champions — the
/// cross-seed evaluations of one target share the clean pass instead of
/// repeating it per source seed. Batching is bit-transparent by the
/// `Detector` contract, so the grouping cannot influence any output.
#[derive(Debug, Clone)]
pub struct TransferGrid {
    config: TransferConfig,
}

impl TransferGrid {
    /// Wraps a transfer configuration.
    pub fn new(config: TransferConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &TransferConfig {
        &self.config
    }

    /// Runs every cell in memory (no persistence, no resume).
    ///
    /// `detector_for` materialises one target column's detector;
    /// `image_for` must be a pure function of the source cell's group and
    /// image index (model seeds of one group share images), which is what
    /// lets cross-seed cells share one clean forward pass.
    ///
    /// # Panics
    ///
    /// Panics when a cell references a source spec absent from
    /// `champions`.
    pub fn run<D, I>(
        &self,
        specs: &[TransferCellSpec],
        champions: &[SourceChampion],
        detector_for: D,
        image_for: I,
    ) -> TransferMatrix
    where
        D: Fn(&TargetSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        self.run_impl(specs, champions, &detector_for, &image_for, None)
            .expect("in-memory transfer runs perform no I/O")
    }

    /// Runs the matrix against a store: cells already persisted are
    /// reloaded instead of recomputed, newly computed cells are saved,
    /// and the combined matrix CSV, manifest and telemetry stream are
    /// (re)written.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures, schema violations in persisted
    /// cells, and the fingerprint refusal for mismatched stores.
    pub fn run_with_store<D, I>(
        &self,
        specs: &[TransferCellSpec],
        champions: &[SourceChampion],
        detector_for: D,
        image_for: I,
        store: &TransferStore,
    ) -> io::Result<TransferMatrix>
    where
        D: Fn(&TargetSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        self.run_impl(specs, champions, &detector_for, &image_for, Some(store))
    }

    fn run_impl<D, I>(
        &self,
        specs: &[TransferCellSpec],
        champions: &[SourceChampion],
        detector_for: &D,
        image_for: &I,
        store: Option<&TransferStore>,
    ) -> io::Result<TransferMatrix>
    where
        D: Fn(&TargetSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        let fingerprint = transfer_fingerprint(self.config.source_fingerprint, specs);
        if let Some(store) = store {
            if let Some(persisted) = store.manifest_fingerprint()? {
                if persisted != fingerprint {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "refusing to resume into {}: its manifest fingerprint \
                             {persisted:016x} does not match the requested transfer grid's \
                             {fingerprint:016x} (same source campaign and cell grid \
                             required); use a fresh out directory",
                            store.root().display()
                        ),
                    ));
                }
            }
        }

        let by_spec: HashMap<&CellSpec, &SourceChampion> =
            champions.iter().map(|c| (&c.spec, c)).collect();
        let champion_for: Vec<&SourceChampion> = specs
            .iter()
            .map(|spec| {
                by_spec.get(&spec.source).copied().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "no champion for source cell {}/s{}/i{}",
                            spec.source.group, spec.source.model_seed, spec.source.image_index
                        ),
                    )
                })
            })
            .collect::<io::Result<_>>()?;

        let jobs = resolve_jobs(self.config.jobs);
        let mut slots: Vec<Option<TransferCellResult>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        // Pending cells grouped by (target, source group, source image):
        // each group shares one clean pass + one masked batch. BTreeMap
        // keys give a deterministic group order; slot-order commits make
        // the order irrelevant to the output anyway.
        type GroupKey = (String, u64, TargetPath, String, usize);
        let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
        for (idx, spec) in specs.iter().enumerate() {
            let reloaded = match store {
                Some(store) => store.load_cell(spec)?,
                None => None,
            };
            match reloaded {
                Some(row) => slots[idx] = Some(TransferCellResult { row, resumed: true }),
                None => {
                    let key = (
                        spec.target_group.clone(),
                        spec.target_seed,
                        spec.path,
                        spec.source.group.clone(),
                        spec.source.image_index,
                    );
                    groups.entry(key).or_default().push(idx);
                }
            }
        }
        let groups: Vec<Vec<usize>> = groups.into_values().collect();

        let computed: Vec<Vec<TransferRow>> = run_sharded(jobs, groups.len(), |g| {
            let members = &groups[g];
            let first = &specs[members[0]];
            let detector = detector_for(&first.target());
            let image = image_for(&first.source);
            let clean = detector.detect(&image);
            let masks: Vec<&FilterMask> =
                members.iter().map(|&idx| &champion_for[idx].mask).collect();
            let perturbed = detector.detect_masked_batch(&image, &masks);
            members
                .iter()
                .zip(&perturbed)
                .map(|(&idx, pred)| TransferRow {
                    spec: specs[idx].clone(),
                    metrics: transfer_metrics(
                        champion_for[idx].fitness,
                        &champion_for[idx].mask,
                        &clean,
                        pred,
                    ),
                })
                .collect()
        });
        for (g, rows) in computed.into_iter().enumerate() {
            for (k, row) in rows.into_iter().enumerate() {
                slots[groups[g][k]] = Some(TransferCellResult { row, resumed: false });
            }
        }

        let matrix = TransferMatrix {
            cells: slots.into_iter().map(|s| s.expect("every cell filled")).collect(),
            jobs,
            fingerprint,
            source_fingerprint: self.config.source_fingerprint,
        };
        if let Some(store) = store {
            store.write_outputs(&matrix, self.config.telemetry)?;
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackConfig;
    use crate::campaign::{Campaign, CampaignStore};
    use crate::test_fixtures::Toy;

    fn tiny_campaign_config() -> CampaignConfig {
        CampaignConfig {
            attack: AttackConfig::scaled(10, 4),
            base_seed: 7,
            jobs: 1,
            telemetry: false,
        }
    }

    fn source_specs() -> Vec<CellSpec> {
        let mut specs = CellSpec::grid("YOLO", &[1, 2], &[0]);
        specs.extend(CellSpec::grid("DETR", &[1], &[0]));
        specs
    }

    fn toy_detector(_: &TargetSpec) -> Box<dyn Detector> {
        Box::new(Toy)
    }

    fn toy_image(_: &CellSpec) -> Image {
        Image::black(24, 12)
    }

    fn toy_champions() -> Vec<SourceChampion> {
        let result = Campaign::new(tiny_campaign_config()).run(
            &source_specs(),
            |_| Box::new(Toy) as Box<dyn Detector>,
            |_| Image::black(24, 12),
        );
        champions_from_result(&result)
    }

    fn toy_targets() -> Vec<TargetSpec> {
        vec![
            TargetSpec::new("YOLO", 1, TargetPath::Plain),
            TargetSpec::new("YOLO", 2, TargetPath::Plain),
            TargetSpec::new("DETR", 1, TargetPath::Plain),
            TargetSpec::new("DETR", 1, TargetPath::Ensemble),
        ]
    }

    #[test]
    fn target_path_tokens_round_trip() {
        for path in TargetPath::ALL {
            assert_eq!(path.token().parse::<TargetPath>().unwrap(), path);
            assert_eq!(path.to_string(), path.token());
        }
        assert!("rcnn".parse::<TargetPath>().is_err());
    }

    #[test]
    fn paper_grid_shape() {
        let targets = TargetSpec::paper_grid(&[1, 2]);
        // 2 groups × 2 seeds × 2 paths + 2 two-stage columns.
        assert_eq!(targets.len(), 10);
        assert_eq!(targets.iter().filter(|t| t.path == TargetPath::TwoStage).count(), 2);
        assert!(targets.iter().all(|t| (t.group == "R-CNN") == (t.path == TargetPath::TwoStage)));
    }

    #[test]
    fn diagonal_detection() {
        let spec = TransferCellSpec::new(
            CellSpec::new("YOLO", 3, 1),
            &TargetSpec::new("YOLO", 3, TargetPath::Plain),
        );
        assert!(spec.is_diagonal());
        for other in [
            TargetSpec::new("YOLO", 4, TargetPath::Plain),
            TargetSpec::new("DETR", 3, TargetPath::Plain),
            TargetSpec::new("YOLO", 3, TargetPath::Ensemble),
        ] {
            assert!(!TransferCellSpec::new(CellSpec::new("YOLO", 3, 1), &other).is_diagonal());
        }
    }

    #[test]
    fn round6_quantizes_to_csv_precision() {
        assert_eq!(round6(0.123456789), 0.123457);
        assert_eq!(round6(round6(0.3) - round6(0.1)), round6(0.2));
        assert_eq!(round6(0.0), 0.0);
    }

    #[test]
    fn zero_and_full_masks_have_finite_scores() {
        let zero = FilterMask::zeros(8, 4);
        let b = DistortionBudget::of(&zero);
        assert_eq!((b.l1, b.l2, b.area), (0.0, 0.0, 0.0));
        let n = normalize_degradation(0.5, &b);
        assert_eq!((n.per_l1, n.per_l2, n.per_area), (0.0, 0.0, 0.0));

        let full = FilterMask::from_values(8, 4, vec![255; 3 * 8 * 4]).unwrap();
        let b = DistortionBudget::of(&full);
        assert_eq!((b.l1, b.l2, b.area), (1.0, 1.0, 1.0));
        let n = normalize_degradation(0.5, &b);
        for v in [n.per_l1, n.per_l2, n.per_area] {
            assert!(v.is_finite());
            assert_eq!(v, 0.5);
        }
    }

    #[test]
    fn matrix_csv_round_trips_byte_stable() {
        let champions = toy_champions();
        let specs = TransferCellSpec::grid(&source_specs(), &toy_targets());
        let matrix = TransferGrid::new(TransferConfig { jobs: 1, ..TransferConfig::default() })
            .run(&specs, &champions, toy_detector, toy_image);
        let mut first = Vec::new();
        write_matrix_csv(&matrix.rows(), &mut first).unwrap();
        let reloaded = read_matrix_csv(&first[..]).unwrap();
        assert_eq!(reloaded, matrix.rows());
        let mut second = Vec::new();
        write_matrix_csv(&reloaded, &mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn read_matrix_csv_rejects_malformed_input() {
        assert!(read_matrix_csv(&b"not,a,header\n"[..]).is_err());
        let mut short = format!("{TRANSFER_CSV_HEADER}\n").into_bytes();
        short.extend_from_slice(b"YOLO,1,0,DETR,2\n");
        assert!(read_matrix_csv(&short[..]).is_err());
        let mut bad_path = format!("{TRANSFER_CSV_HEADER}\n").into_bytes();
        bad_path
            .extend_from_slice(b"YOLO,1,0,DETR,2,teleport,0.5,0.5,0,0.5,0,0,0,0.1,0.1,0.1,5,5,5\n");
        assert!(read_matrix_csv(&bad_path[..]).is_err());
    }

    #[test]
    fn diagonal_reproduces_source_fitness_and_jobs_match() {
        let champions = toy_champions();
        let specs = TransferCellSpec::grid(&source_specs(), &toy_targets());
        let sequential = TransferGrid::new(TransferConfig { jobs: 1, ..Default::default() }).run(
            &specs,
            &champions,
            toy_detector,
            toy_image,
        );
        let parallel = TransferGrid::new(TransferConfig { jobs: 4, ..Default::default() }).run(
            &specs,
            &champions,
            toy_detector,
            toy_image,
        );
        assert_eq!(sequential.rows(), parallel.rows());
        let by_spec: HashMap<&CellSpec, &SourceChampion> =
            champions.iter().map(|c| (&c.spec, c)).collect();
        let mut diagonals = 0;
        for row in sequential.rows() {
            if row.spec.is_diagonal() {
                diagonals += 1;
                let champion = by_spec[&row.spec.source];
                assert_eq!(row.metrics.target_fitness, round6(champion.fitness));
                assert_eq!(row.metrics.delta, 0.0);
            }
        }
        assert_eq!(diagonals, 3, "every toy source has its plain self-target");
        for line in sequential.telemetry_lines() {
            telemetry::validate_json(&line).expect("telemetry must be valid JSON");
        }
        assert_eq!(sequential.telemetry_lines(), parallel.telemetry_lines());
    }

    #[test]
    fn store_resumes_to_identical_artifacts() {
        let root = std::env::temp_dir().join(format!(
            "bea_transfer_resume_{}_{:x}",
            std::process::id(),
            fnv1a(b"transfer-resume")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = TransferStore::open(&root).unwrap();
        let champions = toy_champions();
        let specs = TransferCellSpec::grid(&source_specs(), &toy_targets());
        let grid = TransferGrid::new(TransferConfig {
            jobs: 2,
            source_fingerprint: Some(0x1234),
            ..Default::default()
        });

        let first =
            grid.run_with_store(&specs, &champions, toy_detector, toy_image, &store).unwrap();
        assert_eq!(first.computed_cells(), specs.len());
        let matrix_bytes = std::fs::read(store.matrix_path()).unwrap();
        let telemetry_bytes = std::fs::read(store.telemetry_path()).unwrap();
        let manifest = std::fs::read_to_string(store.manifest_path()).unwrap();
        telemetry::validate_json(manifest.trim()).unwrap();
        assert!(manifest.contains("transfer-manifest"));

        let second =
            grid.run_with_store(&specs, &champions, toy_detector, toy_image, &store).unwrap();
        assert_eq!(second.computed_cells(), 0, "every cell resumes");
        assert_eq!(std::fs::read(store.matrix_path()).unwrap(), matrix_bytes);
        assert_eq!(std::fs::read(store.telemetry_path()).unwrap(), telemetry_bytes);

        // Dropping one cell file recomputes exactly that cell.
        std::fs::remove_file(store.cell_path(&specs[3])).unwrap();
        let third =
            grid.run_with_store(&specs, &champions, toy_detector, toy_image, &store).unwrap();
        assert_eq!(third.computed_cells(), 1);
        assert_eq!(std::fs::read(store.matrix_path()).unwrap(), matrix_bytes);

        // A different source fingerprint is a different transfer run —
        // the mismatched-source refusal the resume gap fix demands.
        let mismatched = TransferGrid::new(TransferConfig {
            jobs: 1,
            source_fingerprint: Some(0x9999),
            ..Default::default()
        });
        let err = mismatched
            .run_with_store(&specs, &champions, toy_detector, toy_image, &store)
            .expect_err("mismatched source campaign must not resume");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn champions_load_from_store_with_and_without_masks() {
        let root = std::env::temp_dir().join(format!(
            "bea_transfer_champions_{}_{:x}",
            std::process::id(),
            fnv1a(b"transfer-champions")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = CampaignStore::open(&root).unwrap();
        let config = tiny_campaign_config();
        let specs = source_specs();
        let detector = |_: &CellSpec| Box::new(Toy) as Box<dyn Detector>;
        let image = |_: &CellSpec| Image::black(24, 12);
        let result =
            Campaign::new(config.clone()).run_with_store(&specs, detector, image, &store).unwrap();
        let live = champions_from_result(&result);

        let loaded = load_champions(&store, &config, &specs, detector, image).unwrap();
        assert_eq!(loaded.len(), live.len());
        for (a, b) in live.iter().zip(&loaded) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.seed, b.seed);
            assert_eq!(round6(a.fitness), round6(b.fitness));
            assert_eq!(a.mask, b.mask, "persisted masks must match the live champions");
        }

        // A legacy store (no masks) falls back to the inline re-attack
        // and reproduces the identical champions.
        for spec in &specs {
            std::fs::remove_file(store.mask_path(spec)).unwrap();
        }
        let recomputed = load_champions(&store, &config, &specs, detector, image).unwrap();
        for (a, b) in live.iter().zip(&recomputed) {
            assert_eq!(a.mask, b.mask, "re-attack must reproduce the champion mask");
        }

        // A mismatched attack configuration fails loudly.
        let mut wrong = config.clone();
        wrong.attack = AttackConfig::scaled(10, 2);
        let err = load_champions(&store, &wrong, &specs, detector, image)
            .expect_err("wrong config must not silently produce different masks");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn source_manifest_round_trips() {
        let root = std::env::temp_dir().join(format!(
            "bea_transfer_manifest_{}_{:x}",
            std::process::id(),
            fnv1a(b"transfer-manifest-rt")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = CampaignStore::open(&root).unwrap();
        let config = tiny_campaign_config();
        let specs = source_specs();
        Campaign::new(config.clone())
            .run_with_store(
                &specs,
                |_| Box::new(Toy) as Box<dyn Detector>,
                |_| Image::black(24, 12),
                &store,
            )
            .unwrap();
        let manifest = read_source_manifest(&store).unwrap();
        assert_eq!(manifest.base_seed, config.base_seed);
        assert_eq!(manifest.population, 10);
        assert_eq!(manifest.generations, 4);
        assert_eq!(manifest.specs, specs);
        assert_eq!(manifest.fingerprint, store.manifest_fingerprint().unwrap());
        assert!(manifest.fingerprint.is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ensemble_seeds_wrap_deterministically() {
        assert_eq!(ensemble_member_seeds(1, 3, 25), vec![1, 2, 3]);
        assert_eq!(ensemble_member_seeds(24, 3, 25), vec![24, 25, 1]);
        assert_eq!(ensemble_member_seeds(5, 2, 25), ensemble_member_seeds(5, 2, 25));
        assert!(ensemble_member_seeds(1, 4, 0).is_empty());
    }

    #[test]
    fn hostile_labels_get_distinct_cell_files() {
        let root = std::env::temp_dir().join(format!(
            "bea_transfer_slug_{}_{:x}",
            std::process::id(),
            fnv1a(b"transfer-slug")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = TransferStore::open(&root).unwrap();
        let target = TargetSpec::new("DETR, \"v2\"\n../escape", 1, TargetPath::Plain);
        let a = TransferCellSpec::new(CellSpec::new("YOLO/../x", 1, 0), &target);
        let b = TransferCellSpec::new(CellSpec::new("YOLO/../y", 1, 0), &target);
        let pa = store.cell_path(&a);
        let pb = store.cell_path(&b);
        assert_ne!(pa, pb);
        for p in [&pa, &pb] {
            assert!(p.parent().unwrap().ends_with("cells"), "separators must sanitise: {p:?}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn transfer_fingerprint_is_order_and_source_sensitive() {
        let specs = TransferCellSpec::grid(&source_specs(), &toy_targets());
        let base = transfer_fingerprint(Some(1), &specs);
        assert_eq!(base, transfer_fingerprint(Some(1), &specs));
        assert_ne!(base, transfer_fingerprint(Some(2), &specs));
        assert_ne!(base, transfer_fingerprint(None, &specs));
        let mut reversed = specs.clone();
        reversed.reverse();
        assert_ne!(base, transfer_fingerprint(Some(1), &reversed));
    }
}
