//! Parallel attack campaigns: the paper's (architecture × model seed ×
//! image) grid sharded across worker threads, with per-generation
//! telemetry and resumable on-disk state.
//!
//! A **campaign** is the batch form of [`crate::sweep::AttackSweep`]: the
//! caller enumerates grid cells as [`CellSpec`]s and provides closures
//! that materialise each cell's detector and image; [`Campaign::run`]
//! executes the cells across `jobs` workers. Three properties are load
//! bearing:
//!
//! 1. **Determinism.** Every cell's NSGA-II seed is derived from
//!    `(base_seed, model_seed, image_index)` via [`derive_cell_seed`] —
//!    never from scheduling order — and results are committed into
//!    spec-order slots, so `--jobs 1` and `--jobs N` produce identical
//!    champion rows and identical telemetry (modulo wall-times).
//! 2. **Observability.** Each computed cell buffers one JSONL record per
//!    generation ([`crate::telemetry::generation_record`]); a campaign
//!    with a [`CampaignStore`] writes them, a manifest, per-cell CSVs and
//!    the combined champion CSV after the workers join.
//! 3. **Resumability.** Cells whose CSV already exists in the store are
//!    reloaded instead of recomputed, so an interrupted campaign restarts
//!    where it stopped.

use crate::attack::{AttackConfig, AttackOutcome, ButterflyAttack};
use crate::grid::{fnv1a, resolve_jobs, run_sharded};
use crate::report::{champion_rows, front_rows, read_csv, write_csv, AttackRow};
use crate::telemetry::{self, JsonObject};
use bea_detect::Detector;
use bea_image::{FilterMask, Image};
use std::io;
use std::path::{Path, PathBuf};

/// One grid cell: which group (architecture), model seed and image to
/// attack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// Group label the cell belongs to (e.g. the architecture name).
    pub group: String,
    /// Seed of the model under attack.
    pub model_seed: u64,
    /// Index of the image under attack.
    pub image_index: usize,
}

impl CellSpec {
    /// Builds one cell spec.
    pub fn new(group: impl Into<String>, model_seed: u64, image_index: usize) -> Self {
        Self { group: group.into(), model_seed, image_index }
    }

    /// The full model × image grid of one group, in row-major
    /// (model-major) order — the paper's per-architecture evaluation
    /// block.
    pub fn grid(group: &str, model_seeds: &[u64], image_indices: &[usize]) -> Vec<Self> {
        model_seeds
            .iter()
            .flat_map(|&seed| image_indices.iter().map(move |&img| Self::new(group, seed, img)))
            .collect()
    }
}

/// SplitMix64 finalizer: the standard 64-bit avalanche mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a cell's NSGA-II seed from the campaign base seed and the
/// cell coordinates by chaining SplitMix64 mixes. The derivation depends
/// only on the cell's identity — never on worker scheduling — which is
/// what makes parallel and sequential campaigns bit-identical.
pub fn derive_cell_seed(base_seed: u64, model_seed: u64, image_index: usize) -> u64 {
    let a = splitmix(base_seed);
    let b = splitmix(a ^ model_seed);
    splitmix(b ^ image_index as u64)
}

/// A stable fingerprint of a campaign's identity: the base seed, the GA
/// budget and the exact cell grid (order-sensitive). Two campaigns with
/// the same fingerprint produce the same cells; resuming into a store
/// whose manifest carries a different fingerprint would silently mix
/// incompatible cells, so [`Campaign::run_with_store`] refuses it.
pub fn grid_fingerprint(
    base_seed: u64,
    population: usize,
    generations: usize,
    specs: &[CellSpec],
) -> u64 {
    let mut canonical = format!("v1\x1f{base_seed}\x1f{population}\x1f{generations}");
    for spec in specs {
        canonical.push('\x1e');
        canonical.push_str(&spec.group);
        canonical.push('\x1f');
        canonical.push_str(&spec.model_seed.to_string());
        canonical.push('\x1f');
        canonical.push_str(&spec.image_index.to_string());
    }
    fnv1a(canonical.as_bytes())
}

/// Campaign-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// The per-cell attack configuration. The NSGA-II seed inside it is
    /// ignored — each cell derives its own via [`derive_cell_seed`].
    pub attack: AttackConfig,
    /// Base seed every cell seed is derived from.
    pub base_seed: u64,
    /// Worker threads sharding the cells: `0` uses every available core,
    /// `1` runs sequentially. With more than one worker, each cell
    /// evaluates its masks on its own worker (`attack.threads` is pinned
    /// to 1), so the host is never oversubscribed.
    pub jobs: usize,
    /// Buffer per-generation telemetry records (and write them when a
    /// store is attached).
    pub telemetry: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self { attack: AttackConfig::default(), base_seed: 1, jobs: 0, telemetry: true }
    }
}

/// One finished campaign cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's coordinates.
    pub spec: CellSpec,
    /// The NSGA-II seed the cell ran (or originally ran) under.
    pub seed: u64,
    /// `true` when the cell was reloaded from a store instead of
    /// computed.
    pub resumed: bool,
    /// Champion rows followed by `"front"` rows — exactly what the store
    /// persists per cell.
    pub rows: Vec<AttackRow>,
    /// One JSONL record per generation (empty for resumed cells and when
    /// telemetry is disabled).
    pub telemetry: Vec<String>,
    /// The live outcome; `None` for resumed cells, which only have rows.
    pub outcome: Option<AttackOutcome>,
}

impl CellResult {
    /// The cell's champion rows (everything but the `"front"` rows).
    pub fn champion_rows(&self) -> Vec<AttackRow> {
        self.rows.iter().filter(|r| r.role != "front").cloned().collect()
    }
}

/// The outcome of a whole campaign, cells in spec order.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-cell results, in the order the specs were given.
    pub cells: Vec<CellResult>,
    /// The resolved worker count the campaign ran with.
    pub jobs: usize,
    base_seed: u64,
    population: usize,
    generations: usize,
    fingerprint: u64,
}

impl CampaignResult {
    /// All champion rows in spec order — the campaign's combined CSV.
    pub fn champion_rows(&self) -> Vec<AttackRow> {
        self.cells.iter().flat_map(|c| c.champion_rows()).collect()
    }

    /// Number of cells computed by this run (the rest were resumed).
    pub fn computed_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.resumed).count()
    }

    /// The campaign manifest as a single JSON line: run parameters plus
    /// one entry per cell (coordinates, derived seed, resumed flag).
    pub fn manifest_line(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                JsonObject::new()
                    .string("group", &c.spec.group)
                    .integer("model_seed", c.spec.model_seed)
                    .integer("image_index", c.spec.image_index as u64)
                    .integer("seed", c.seed)
                    .boolean("resumed", c.resumed)
                    .finish()
            })
            .collect();
        JsonObject::new()
            .string("type", "manifest")
            .integer("version", 1)
            .string("fingerprint", &format!("{:016x}", self.fingerprint))
            .integer("base_seed", self.base_seed)
            .integer("jobs", self.jobs as u64)
            .integer("population", self.population as u64)
            .integer("generations", self.generations as u64)
            .raw("cells", &format!("[{}]", cells.join(",")))
            .finish()
    }

    /// The full telemetry stream: the manifest line followed by every
    /// computed cell's generation records, in spec order.
    pub fn telemetry_lines(&self) -> Vec<String> {
        let mut lines = vec![self.manifest_line()];
        for cell in &self.cells {
            lines.extend(cell.telemetry.iter().cloned());
        }
        lines
    }
}

/// On-disk layout of a resumable campaign:
/// `cells/<slug>.csv` per finished cell, plus `champions.csv`,
/// `manifest.json` and `telemetry.jsonl` written after every run.
#[derive(Debug, Clone)]
pub struct CampaignStore {
    root: PathBuf,
}

impl CampaignStore {
    /// Opens (creating if needed) a campaign directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("cells"))?;
        std::fs::create_dir_all(root.join("masks"))?;
        Ok(Self { root })
    }

    /// The campaign directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one cell's CSV. The file name sanitises the group label
    /// and appends an FNV-1a hash of the raw label, so hostile labels
    /// (separators, quotes, path characters) stay collision-free; the
    /// label itself round-trips through the CSV content, not the name.
    pub fn cell_path(&self, spec: &CellSpec) -> PathBuf {
        self.root.join("cells").join(format!("{}.csv", cell_slug(spec)))
    }

    /// Path of one cell's persisted champion mask (the `best-degrad`
    /// genome), written alongside the cell CSV so derived evaluations —
    /// the transfer matrix — can re-apply the exact champion without
    /// re-running the attack.
    pub fn mask_path(&self, spec: &CellSpec) -> PathBuf {
        self.root.join("masks").join(format!("{}.mask", cell_slug(spec)))
    }

    /// Persists one cell's champion mask (tmp-file + rename, like
    /// [`CampaignStore::save_cell`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_mask(&self, spec: &CellSpec, mask: &FilterMask) -> io::Result<()> {
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.mask_path(spec);
        let tmp = path.with_extension(format!("mask.tmp.{}.{seq}", std::process::id()));
        std::fs::write(&tmp, encode_mask(mask))?;
        std::fs::rename(&tmp, &path)
    }

    /// Loads a previously persisted champion mask, or `None` when the
    /// cell has no stored mask (a store written before mask persistence,
    /// or a cell whose attack produced no champion).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a mask file that exists but does not
    /// parse is [`io::ErrorKind::InvalidData`].
    pub fn load_mask(&self, spec: &CellSpec) -> io::Result<Option<FilterMask>> {
        match std::fs::read_to_string(self.mask_path(spec)) {
            Ok(text) => decode_mask(&text)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Path of the combined champion CSV.
    pub fn champions_path(&self) -> PathBuf {
        self.root.join("champions.csv")
    }

    /// Path of the JSONL telemetry stream.
    pub fn telemetry_path(&self) -> PathBuf {
        self.root.join("telemetry.jsonl")
    }

    /// Path of the campaign manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// The fingerprint recorded in the store's manifest, or `None` when
    /// no manifest exists yet (a fresh store) or the manifest predates
    /// fingerprinting (a legacy store, which resumes without the check).
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
    /// Propagates I/O failures and [`read_csv`] schema violations.
    pub fn load_cell(&self, spec: &CellSpec) -> io::Result<Option<Vec<AttackRow>>> {
        match std::fs::read(self.cell_path(spec)) {
            Ok(bytes) => read_csv(&bytes[..]).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Persists one cell's rows. The write goes through a temporary file
    /// and a rename, so an interrupted campaign never leaves a truncated
    /// cell behind to be "resumed".
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_cell(&self, spec: &CellSpec, rows: &[AttackRow]) -> io::Result<()> {
        // The tmp name must be unique per save, not per cell: the serving
        // layer can run two jobs targeting the same cell concurrently
        // (identical submissions from different tenants), and a shared
        // tmp path lets one save rename the other's file away mid-write.
        // Determinism makes the collision harmless once the names are
        // distinct — both writers produce identical bytes.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = self.cell_path(spec);
        let tmp = path.with_extension(format!("csv.tmp.{}.{seq}", std::process::id()));
        let mut buf = Vec::new();
        write_csv(rows, &mut buf)?;
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, &path)
    }

    fn write_outputs(&self, result: &CampaignResult, telemetry: bool) -> io::Result<()> {
        for cell in &result.cells {
            if !cell.resumed {
                self.save_cell(&cell.spec, &cell.rows)?;
                if let Some(best) = cell.outcome.as_ref().and_then(|o| o.best_degradation()) {
                    self.save_mask(&cell.spec, best.genome())?;
                }
            }
        }
        let mut buf = Vec::new();
        write_csv(&result.champion_rows(), &mut buf)?;
        std::fs::write(self.champions_path(), &buf)?;
        std::fs::write(self.manifest_path(), format!("{}\n", result.manifest_line()))?;
        if telemetry {
            let mut text = String::new();
            for line in result.telemetry_lines() {
                text.push_str(&line);
                text.push('\n');
            }
            std::fs::write(self.telemetry_path(), text)?;
        }
        Ok(())
    }
}

/// Reads the `"fingerprint"` hex field out of a store manifest: `None`
/// when the file does not exist (a fresh store) or predates
/// fingerprinting (a legacy store, which resumes without the check).
/// Shared by campaign and transfer stores.
///
/// # Errors
///
/// Propagates I/O failures; a manifest that exists but is not valid JSON
/// (or carries a malformed fingerprint) is [`io::ErrorKind::InvalidData`].
pub(crate) fn manifest_fingerprint_at(path: &Path) -> io::Result<Option<u64>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let manifest = telemetry::parse_json(text.trim())
        .map_err(|e| invalid(format!("corrupt manifest {}: {e}", path.display())))?;
    match manifest.get("fingerprint") {
        None => Ok(None),
        Some(field) => {
            let hex = field
                .as_str()
                .ok_or_else(|| invalid("manifest fingerprint must be a hex string".to_string()))?;
            u64::from_str_radix(hex, 16)
                .map(Some)
                .map_err(|e| invalid(format!("manifest fingerprint {hex:?}: {e}")))
        }
    }
}

/// A filesystem-safe, collision-free file stem for one cell: the group
/// label sanitised plus an FNV-1a hash of the raw label, so hostile
/// labels (separators, quotes, path characters) stay distinct; the label
/// itself round-trips through the persisted content, not the name.
pub(crate) fn cell_slug(spec: &CellSpec) -> String {
    let hash = fnv1a(spec.group.as_bytes()) as u32;
    format!("{}-s{}-i{}-{hash:08x}", sanitize_label(&spec.group), spec.model_seed, spec.image_index)
}

/// Keeps only `[A-Za-z0-9._-]` (others become `-`), truncated to 40
/// characters, never empty.
pub(crate) fn sanitize_label(label: &str) -> String {
    let mut safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') { c } else { '-' })
        .collect();
    safe.truncate(40);
    if safe.is_empty() {
        safe.push('x');
    }
    safe
}

/// Serialises a mask as one header line (`bea-mask v1 <width> <height>`)
/// plus one line of space-separated channel-major gene values. Text, so
/// stored champions stay inspectable and diffable.
fn encode_mask(mask: &FilterMask) -> String {
    let mut text = format!("bea-mask v1 {} {}\n", mask.width(), mask.height());
    for (i, v) in mask.as_slice().iter().enumerate() {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(&v.to_string());
    }
    text.push('\n');
    text
}

/// Inverse of [`encode_mask`].
fn decode_mask(text: &str) -> Result<FilterMask, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty mask file")?;
    let mut parts = header.split(' ');
    if (parts.next(), parts.next()) != (Some("bea-mask"), Some("v1")) {
        return Err(format!("bad mask header {header:?}"));
    }
    let dim = |what: &str, field: Option<&str>| -> Result<usize, String> {
        field
            .ok_or(format!("mask header missing {what}"))?
            .parse()
            .map_err(|e| format!("mask {what}: {e}"))
    };
    let width = dim("width", parts.next())?;
    let height = dim("height", parts.next())?;
    let values: Vec<i16> = lines
        .next()
        .unwrap_or("")
        .split_whitespace()
        .map(|v| v.parse().map_err(|e| format!("mask gene {v:?}: {e}")))
        .collect::<Result<_, _>>()?;
    FilterMask::from_values(width, height, values).map_err(|e| e.to_string())
}

/// The parallel campaign runner. See the [module docs](self) for the
/// guarantees.
///
/// # Examples
///
/// ```no_run
/// use bea_core::attack::AttackConfig;
/// use bea_core::campaign::{Campaign, CampaignConfig, CellSpec};
/// use bea_detect::{Architecture, ModelZoo};
/// use bea_scene::SyntheticKitti;
///
/// let zoo = ModelZoo::with_defaults();
/// let data = SyntheticKitti::evaluation_set();
/// let specs = CellSpec::grid("DETR", &[1, 2], &[0, 1]);
/// let campaign = Campaign::new(CampaignConfig {
///     attack: AttackConfig::scaled(24, 20),
///     jobs: 4,
///     ..CampaignConfig::default()
/// });
/// let result = campaign.run(
///     &specs,
///     |spec| zoo.model(Architecture::Detr, spec.model_seed),
///     |spec| data.image(spec.image_index),
/// );
/// println!("{} champion rows", result.champion_rows().len());
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

/// A live per-generation telemetry hook: called with the cell and its
/// rendered generation record the moment each generation completes. See
/// [`Campaign::run_observed`].
pub type GenerationObserver<'a> = &'a (dyn Fn(&CellSpec, &str) + Sync);

impl Campaign {
    /// Wraps a campaign configuration.
    pub fn new(config: CampaignConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Runs every cell in memory (no persistence, no resume).
    pub fn run<D, I>(&self, specs: &[CellSpec], detector_for: D, image_for: I) -> CampaignResult
    where
        D: Fn(&CellSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        self.run_impl(specs, &detector_for, &image_for, None, None)
            .expect("in-memory campaigns perform no I/O")
    }

    /// [`Campaign::run`] with a live per-generation observer: `observe`
    /// receives every generation's telemetry line (the same record
    /// [`crate::telemetry::generation_record`] persists) the moment the
    /// generation completes, regardless of whether telemetry buffering
    /// is enabled. The serving layer feeds progress streams from this
    /// hook; results are identical to [`Campaign::run`] — observation
    /// never touches the GA state.
    pub fn run_observed<D, I>(
        &self,
        specs: &[CellSpec],
        detector_for: D,
        image_for: I,
        observe: GenerationObserver<'_>,
    ) -> CampaignResult
    where
        D: Fn(&CellSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        self.run_impl(specs, &detector_for, &image_for, None, Some(observe))
            .expect("in-memory campaigns perform no I/O")
    }

    /// Runs the campaign against a store: cells already persisted are
    /// reloaded instead of recomputed, newly computed cells are saved,
    /// and the combined champion CSV, manifest and telemetry stream are
    /// (re)written.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures and schema violations in persisted
    /// cells.
    pub fn run_with_store<D, I>(
        &self,
        specs: &[CellSpec],
        detector_for: D,
        image_for: I,
        store: &CampaignStore,
    ) -> io::Result<CampaignResult>
    where
        D: Fn(&CellSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        self.run_impl(specs, &detector_for, &image_for, Some(store), None)
    }

    fn run_impl<D, I>(
        &self,
        specs: &[CellSpec],
        detector_for: &D,
        image_for: &I,
        store: Option<&CampaignStore>,
        observe: Option<GenerationObserver<'_>>,
    ) -> io::Result<CampaignResult>
    where
        D: Fn(&CellSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        let fingerprint = grid_fingerprint(
            self.config.base_seed,
            self.config.attack.nsga2.population_size,
            self.config.attack.nsga2.generations,
            specs,
        );
        // Refuse to resume into a store built for a different grid: the
        // reloaded cells would silently mix two incompatible campaigns.
        if let Some(store) = store {
            if let Some(persisted) = store.manifest_fingerprint()? {
                if persisted != fingerprint {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "refusing to resume into {}: its manifest fingerprint \
                             {persisted:016x} does not match the requested grid's \
                             {fingerprint:016x} (same cells, seed, population and \
                             generations required); use a fresh out directory",
                            store.root().display()
                        ),
                    ));
                }
            }
        }

        let jobs = resolve_jobs(self.config.jobs);
        // One level of parallelism per attack: with cells sharded across
        // workers, each cell evaluates its masks on its own worker;
        // sequential campaigns keep the configured mask fan-out. Neither
        // choice affects results.
        let mut attack_config = self.config.attack.clone();
        if jobs > 1 {
            attack_config.threads = 1;
        }

        let mut slots: Vec<Option<CellResult>> = Vec::new();
        slots.resize_with(specs.len(), || None);
        let mut pending: Vec<usize> = Vec::new();
        for (idx, spec) in specs.iter().enumerate() {
            let reloaded = match store {
                Some(store) => store.load_cell(spec)?,
                None => None,
            };
            match reloaded {
                Some(rows) => {
                    slots[idx] = Some(CellResult {
                        spec: spec.clone(),
                        seed: derive_cell_seed(
                            self.config.base_seed,
                            spec.model_seed,
                            spec.image_index,
                        ),
                        resumed: true,
                        rows,
                        telemetry: Vec::new(),
                        outcome: None,
                    });
                }
                None => pending.push(idx),
            }
        }

        let computed = run_sharded(jobs, pending.len(), |k| {
            self.run_cell(&specs[pending[k]], &attack_config, detector_for, image_for, observe)
        });
        for (k, cell) in computed.into_iter().enumerate() {
            slots[pending[k]] = Some(cell);
        }

        let result = CampaignResult {
            cells: slots.into_iter().map(|s| s.expect("every cell filled")).collect(),
            jobs,
            base_seed: self.config.base_seed,
            population: self.config.attack.nsga2.population_size,
            generations: self.config.attack.nsga2.generations,
            fingerprint,
        };
        if let Some(store) = store {
            store.write_outputs(&result, self.config.telemetry)?;
        }
        Ok(result)
    }

    fn run_cell<D, I>(
        &self,
        spec: &CellSpec,
        attack_config: &AttackConfig,
        detector_for: &D,
        image_for: &I,
        observe: Option<GenerationObserver<'_>>,
    ) -> CellResult
    where
        D: Fn(&CellSpec) -> Box<dyn Detector> + Sync,
        I: Fn(&CellSpec) -> Image + Sync,
    {
        let seed = derive_cell_seed(self.config.base_seed, spec.model_seed, spec.image_index);
        let mut config = attack_config.clone();
        config.nsga2.seed = seed;
        let attack = ButterflyAttack::new(config);
        let detector = detector_for(spec);
        let image = image_for(spec);
        let before = detector.cache_stats();
        let mut lines = Vec::new();
        let with_telemetry = self.config.telemetry;
        let outcome = attack.attack_with_observer(detector.as_ref(), &image, |stats| {
            if with_telemetry || observe.is_some() {
                let cache = detector.cache_stats().map(|now| match &before {
                    Some(b) => now.since(b),
                    None => now,
                });
                let line = telemetry::generation_record(
                    &spec.group,
                    spec.model_seed,
                    spec.image_index,
                    seed,
                    stats,
                    cache.as_ref(),
                );
                if let Some(observe) = observe {
                    observe(spec, &line);
                }
                if with_telemetry {
                    lines.push(line);
                }
            }
        });
        let mut rows = champion_rows(&outcome, &spec.group, spec.model_seed, spec.image_index);
        rows.extend(front_rows(&outcome, &spec.group, spec.model_seed, spec.image_index));
        CellResult {
            spec: spec.clone(),
            seed,
            resumed: false,
            rows,
            telemetry: lines,
            outcome: Some(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::Toy;

    fn tiny_campaign(jobs: usize) -> Campaign {
        Campaign::new(CampaignConfig {
            attack: AttackConfig::scaled(10, 4),
            base_seed: 7,
            jobs,
            telemetry: true,
        })
    }

    fn tiny_specs() -> Vec<CellSpec> {
        let mut specs = CellSpec::grid("YOLO", &[1, 2], &[0, 1]);
        specs.extend(CellSpec::grid("DETR", &[1], &[0, 1]));
        specs
    }

    fn run(jobs: usize) -> CampaignResult {
        tiny_campaign(jobs).run(
            &tiny_specs(),
            |_spec| Box::new(Toy) as Box<dyn Detector>,
            |_spec| Image::black(24, 12),
        )
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let grid = CellSpec::grid("A", &[1, 2, 3], &[0, 1, 2, 3]);
        let seeds: Vec<u64> =
            grid.iter().map(|s| derive_cell_seed(42, s.model_seed, s.image_index)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "cell seeds must not collide: {seeds:?}");
        assert_eq!(
            seeds,
            grid.iter()
                .map(|s| derive_cell_seed(42, s.model_seed, s.image_index))
                .collect::<Vec<_>>()
        );
        assert_ne!(
            derive_cell_seed(1, 2, 3),
            derive_cell_seed(2, 2, 3),
            "the base seed must matter"
        );
    }

    #[test]
    fn parallel_and_sequential_campaigns_match() {
        let sequential = run(1);
        let parallel = run(3);
        assert_eq!(sequential.jobs, 1);
        assert_eq!(parallel.jobs, 3);
        assert_eq!(sequential.champion_rows(), parallel.champion_rows());
        let a = sequential.telemetry_lines();
        let b = parallel.telemetry_lines();
        assert_eq!(a.len(), b.len());
        // The manifest records the actual worker count — the only field
        // allowed to differ between the two runs.
        assert_eq!(
            a[0].replace("\"jobs\":1", "\"jobs\":N"),
            b[0].replace("\"jobs\":3", "\"jobs\":N"),
        );
        for line in a.iter().chain(&b) {
            telemetry::validate_json(line).expect("telemetry must be valid JSON");
        }
        for (x, y) in a.iter().zip(&b).skip(1) {
            assert_eq!(
                telemetry::deterministic_prefix(x),
                telemetry::deterministic_prefix(y),
                "telemetry must match modulo wall-times"
            );
        }
    }

    #[test]
    fn telemetry_has_dense_generations_per_cell() {
        let result = run(2);
        let generations = tiny_campaign(2).config().attack.nsga2.generations;
        for cell in &result.cells {
            assert_eq!(cell.telemetry.len(), generations + 1);
            for (expect, line) in cell.telemetry.iter().enumerate() {
                assert!(
                    line.contains(&format!("\"generation\":{expect},")),
                    "generation indices must be dense: {line}"
                );
            }
        }
        // Champions (3 per cell) come before front rows in each cell.
        for cell in &result.cells {
            assert_eq!(cell.champion_rows().len(), 3);
            assert!(cell.rows.len() > 3, "front rows ride along");
        }
    }

    #[test]
    fn campaigns_resume_from_persisted_cells() {
        let root = std::env::temp_dir().join(format!(
            "bea_campaign_resume_{}_{:x}",
            std::process::id(),
            fnv1a(b"resume")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = CampaignStore::open(&root).unwrap();
        let specs = tiny_specs();
        let detector = |_: &CellSpec| Box::new(Toy) as Box<dyn Detector>;
        let image = |_: &CellSpec| Image::black(24, 12);

        let first = tiny_campaign(2).run_with_store(&specs, detector, image, &store).unwrap();
        assert_eq!(first.computed_cells(), specs.len());
        assert!(store.champions_path().exists());
        assert!(store.telemetry_path().exists());
        assert!(store.manifest_path().exists());

        // Resumed rows reload at CSV precision, so equality is defined on
        // the serialized bytes (which the byte-stability of write_csv ∘
        // read_csv makes exact), not on the in-memory floats.
        let csv_bytes = |result: &CampaignResult| {
            let mut buf = Vec::new();
            write_csv(&result.champion_rows(), &mut buf).unwrap();
            buf
        };
        let second = tiny_campaign(2).run_with_store(&specs, detector, image, &store).unwrap();
        assert_eq!(second.computed_cells(), 0, "every cell resumes");
        assert!(second.cells.iter().all(|c| c.resumed));
        assert_eq!(csv_bytes(&first), csv_bytes(&second));
        let manifest = std::fs::read_to_string(store.manifest_path()).unwrap();
        telemetry::validate_json(manifest.trim()).expect("manifest must be valid JSON");
        assert!(manifest.contains("\"resumed\":true"));

        // Dropping one cell file recomputes exactly that cell.
        std::fs::remove_file(store.cell_path(&specs[2])).unwrap();
        let third = tiny_campaign(1).run_with_store(&specs, detector, image, &store).unwrap();
        assert_eq!(third.computed_cells(), 1);
        assert_eq!(csv_bytes(&first), csv_bytes(&third));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mismatched_resume_is_refused() {
        let root = std::env::temp_dir().join(format!(
            "bea_campaign_fingerprint_{}_{:x}",
            std::process::id(),
            fnv1a(b"fingerprint")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = CampaignStore::open(&root).unwrap();
        let specs = tiny_specs();
        let detector = |_: &CellSpec| Box::new(Toy) as Box<dyn Detector>;
        let image = |_: &CellSpec| Image::black(24, 12);
        tiny_campaign(1).run_with_store(&specs, detector, image, &store).unwrap();
        let persisted = store.manifest_fingerprint().unwrap().expect("manifest records it");
        let expected = grid_fingerprint(7, 10, 4, &specs);
        assert_eq!(persisted, expected);

        // A different grid into the same store must refuse, naming both
        // fingerprints — before touching any cell.
        let other_specs = CellSpec::grid("YOLO", &[1], &[0]);
        let err = tiny_campaign(1)
            .run_with_store(&other_specs, detector, image, &store)
            .expect_err("mismatched grid must not resume");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "unhelpful error: {err}");

        // A different GA budget is also a different campaign.
        let bigger = Campaign::new(CampaignConfig {
            attack: AttackConfig::scaled(10, 5),
            base_seed: 7,
            jobs: 1,
            telemetry: true,
        });
        assert!(bigger.run_with_store(&specs, detector, image, &store).is_err());

        // The matching grid still resumes every cell.
        let again = tiny_campaign(2).run_with_store(&specs, detector, image, &store).unwrap();
        assert_eq!(again.computed_cells(), 0);

        // Legacy stores (manifest without a fingerprint) resume without
        // the check rather than stranding old campaigns.
        let manifest = std::fs::read_to_string(store.manifest_path()).unwrap();
        let legacy = manifest.replacen(&format!("\"fingerprint\":\"{expected:016x}\","), "", 1);
        assert_ne!(legacy, manifest, "test must actually strip the field");
        std::fs::write(store.manifest_path(), legacy).unwrap();
        assert_eq!(store.manifest_fingerprint().unwrap(), None);
        let legacy_run = tiny_campaign(1).run_with_store(&specs, detector, image, &store).unwrap();
        assert_eq!(legacy_run.computed_cells(), 0);

        // A corrupt manifest is an error, not a silent fresh start.
        std::fs::write(store.manifest_path(), "not json").unwrap();
        assert!(store.manifest_fingerprint().is_err());
        assert!(tiny_campaign(1).run_with_store(&specs, detector, image, &store).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hostile_group_labels_get_distinct_cell_files() {
        let root = std::env::temp_dir().join(format!(
            "bea_campaign_slug_{}_{:x}",
            std::process::id(),
            fnv1a(b"slug")
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = CampaignStore::open(&root).unwrap();
        let a = CellSpec::new("YOLO, \"v2\"\n../escape", 1, 0);
        let b = CellSpec::new("YOLO, \"v3\"\n../escape", 1, 0);
        let pa = store.cell_path(&a);
        let pb = store.cell_path(&b);
        assert_ne!(pa, pb, "sanitised names must stay collision-free");
        for p in [&pa, &pb] {
            assert!(
                p.parent().unwrap().ends_with("cells"),
                "path separators must be sanitised out: {p:?}"
            );
        }
        // The hostile label round-trips through the cell CSV itself.
        let rows = vec![AttackRow {
            architecture: a.group.clone(),
            model_seed: 1,
            image_index: 0,
            role: "best-degrad".into(),
            point: crate::report::ParetoPoint {
                intensity: 1.0,
                intensity_normalized: 0.5,
                degrad: 0.25,
                dist: 0.75,
            },
        }];
        store.save_cell(&a, &rows).unwrap();
        let back = store.load_cell(&a).unwrap().expect("cell persisted");
        assert_eq!(back, rows);
        assert!(store.load_cell(&b).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Both mask loaders — the campaign store's `bea-mask v1` text and
    /// the `BEAMASK1` binary format — on one header and gene tail.
    fn load_both(header: &str, genes: &[i16]) -> [Option<FilterMask>; 2] {
        let text: Vec<String> = genes.iter().map(i16::to_string).collect();
        let text = format!("bea-mask v1 {header}\n{}\n", text.join(" "));
        let mut binary = format!("BEAMASK1\n{header}\n").into_bytes();
        binary.extend(genes.iter().flat_map(|g| g.to_le_bytes()));
        [decode_mask(&text).ok(), bea_image::io::read_mask(&binary[..]).ok()]
    }

    fn assert_whole(mask: &FilterMask) {
        let genes = mask.width().checked_mul(mask.height()).and_then(|p| p.checked_mul(3));
        assert_eq!(Some(mask.as_slice().len()), genes, "{}x{}", mask.width(), mask.height());
    }

    #[test]
    fn mask_headers_whose_size_overflows_are_refused() {
        // 3 · 6148914691236517206 wraps to 2 in release builds, so two
        // genes used to load as a mask whose width disagrees with them;
        // 100000 × 100000 used to allocate 60 GB before reading a gene.
        for header in ["6148914691236517206 1", "100000 100000", "18446744073709551615 2"] {
            assert!(load_both(header, &[1, 2]).iter().all(Option::is_none), "{header}");
        }
        let [text, binary] = load_both("1 1", &[4, -5, 6]);
        assert_eq!(text.as_ref().map(FilterMask::as_slice), Some(&[4, -5, 6][..]));
        assert_eq!(text, binary);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and well-formed headers over arbitrary gene
        /// tails with small, huge or overflowing dimensions: neither loader
        /// panics, and every mask either accepts holds exactly 3·w·h genes.
        #[test]
        fn mask_loaders_never_panic_and_accept_only_whole_masks(
            (shape, small, big, bytes) in (
                0usize..4,
                (0usize..4, 0usize..4),
                0usize..=usize::MAX,
                proptest::collection::vec(0u8..=255, 0..80),
            )
        ) {
            let genes: Vec<i16> = bytes.iter().map(|&b| i16::from(b) * 3 - 300).collect();
            let (w, h) = small;
            let loaded = match shape {
                0 => load_both(&format!("{w} {h}"), &genes[..genes.len().min(3 * w * h)]),
                1 => load_both(&format!("{big} {h}"), &genes),
                2 => load_both(&format!("{big} {big}"), &genes),
                _ => [
                    decode_mask(&String::from_utf8_lossy(&bytes)).ok(),
                    bea_image::io::read_mask(&bytes[..]).ok(),
                ],
            };
            for mask in loaded.iter().flatten() {
                assert_whole(mask);
            }
        }
    }
}
