//! Attack jobs: the JSON request/response unit of the serving layer.
//!
//! An [`AttackJob`] is one campaign cell phrased as a service request —
//! which architecture and model seed to attack, on which image, with what
//! GA budget. The wire format is hand-rolled JSON over
//! [`crate::telemetry`]'s writer and hardened parser; the struct and its
//! codecs live in `bea-core` (not `bea-serve`) so batch tools and the
//! server share one definition of "a unit of attack work" and its
//! deterministic seed contract: a job's NSGA-II seed is derived from
//! `(base_seed, model_seed, image_index)` exactly as
//! [`crate::campaign::derive_cell_seed`] does for campaign cells, so a
//! served job and a direct campaign run of the same cell are
//! byte-identical.

use crate::attack::AttackConfig;
use crate::campaign::CellSpec;
use crate::grid::fnv1a;
use crate::telemetry::{parse_json_with_limits, JsonLimits, JsonObject, JsonValue};
use bea_detect::{Architecture, KernelPolicy};
use bea_image::Image;
use bea_nsga2::Nsga2Config;

/// Which image a job attacks.
#[derive(Debug, Clone, PartialEq)]
pub enum ImageSpec {
    /// An index into the server's evaluation dataset.
    Dataset {
        /// The dataset index.
        index: usize,
    },
    /// An inline constant-colour image (the minimal "bring your own
    /// image" escape hatch — useful for smoke tests and load generation
    /// without shipping pixel payloads).
    Filled {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// The RGB fill value (0–255 per channel).
        rgb: [f32; 3],
    },
}

impl ImageSpec {
    /// The image index used for seed derivation and cell naming. Inline
    /// images all map to index 0 — their identity lives in the pixels,
    /// not the dataset.
    pub fn index(&self) -> usize {
        match self {
            ImageSpec::Dataset { index } => *index,
            ImageSpec::Filled { .. } => 0,
        }
    }
}

/// One unit of attack work, as submitted to `POST /v1/attacks`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackJob {
    /// Architecture under attack.
    pub arch: Architecture,
    /// Model seed in the zoo.
    pub model_seed: u64,
    /// The image to attack.
    pub image: ImageSpec,
    /// NSGA-II population size.
    pub population: usize,
    /// NSGA-II generation count.
    pub generations: usize,
    /// Base seed the per-job NSGA-II seed is derived from (the campaign
    /// contract).
    pub base_seed: u64,
    /// Evaluate through the dirty-region inference cache.
    pub use_cache: bool,
    /// Kernel dispatch policy the job's detectors are built with
    /// (`"kernels"` on the wire; predictions are `==`-identical across
    /// policies, so this only changes evaluation speed).
    pub kernel_policy: KernelPolicy,
    /// The submitting tenant (`"tenant"` on the wire, default
    /// [`DEFAULT_TENANT`]). Tenancy governs admission — rate limits,
    /// quotas and queue fairness — and **never** the computation: the
    /// cell identity, seed derivation and persisted CSV are
    /// tenant-blind, so two tenants submitting the same cell get
    /// byte-identical results.
    pub tenant: String,
}

impl Default for AttackJob {
    fn default() -> Self {
        Self {
            arch: Architecture::Yolo,
            model_seed: 1,
            image: ImageSpec::Dataset { index: 0 },
            population: 24,
            generations: 20,
            base_seed: 1,
            use_cache: false,
            kernel_policy: KernelPolicy::default(),
            tenant: DEFAULT_TENANT.to_string(),
        }
    }
}

/// Maximum accepted request-body size; larger submissions are rejected
/// before parsing.
pub const MAX_JOB_BODY_BYTES: usize = 64 * 1024;

/// The tenant submissions without a `"tenant"` field belong to.
pub const DEFAULT_TENANT: &str = "anon";

/// Maximum length of a tenant name.
pub const MAX_TENANT_LEN: usize = 32;

/// Validates a tenant name: 1 to [`MAX_TENANT_LEN`] characters from
/// `[a-z0-9_-]`. The charset keeps tenant names safe to embed in log
/// lines, metrics labels and file names without escaping.
///
/// # Errors
///
/// Returns a human-readable message naming the violation.
pub fn validate_tenant(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_TENANT_LEN {
        return Err(format!("tenant must be 1..={MAX_TENANT_LEN} characters"));
    }
    if !name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
    {
        return Err("tenant may only contain [a-z0-9_-]".to_string());
    }
    Ok(())
}

fn field_u64(value: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => {
            v.as_u64().map(Some).ok_or_else(|| format!("{key} must be a non-negative integer"))
        }
    }
}

fn field_bool(value: &JsonValue, key: &str) -> Result<Option<bool>, String> {
    match value.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or_else(|| format!("{key} must be a boolean")),
    }
}

impl AttackJob {
    /// Parses a job from an untrusted JSON request body. Unknown fields
    /// are rejected (a typo like `"poplation"` should fail loudly, not
    /// silently run the default budget).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let limits = JsonLimits { max_bytes: MAX_JOB_BODY_BYTES, ..JsonLimits::default() };
        let value = parse_json_with_limits(body, limits)?;
        let JsonValue::Object(fields) = &value else {
            return Err("request body must be a JSON object".to_string());
        };
        const KNOWN: [&str; 10] = [
            "arch",
            "model_seed",
            "image_index",
            "image",
            "pop",
            "gens",
            "seed",
            "cache",
            "kernels",
            "tenant",
        ];
        for (key, _) in fields {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown field {key:?}"));
            }
        }

        let mut job = AttackJob::default();
        match value.get("arch") {
            None => return Err("missing required field \"arch\"".to_string()),
            Some(v) => {
                job.arch = match v.as_str() {
                    Some("yolo" | "YOLO") => Architecture::Yolo,
                    Some("detr" | "DETR") => Architecture::Detr,
                    Some(other) => return Err(format!("unknown architecture {other:?}")),
                    None => return Err("arch must be a string".to_string()),
                };
            }
        }
        if let Some(seed) = field_u64(&value, "model_seed")? {
            job.model_seed = seed;
        }
        match (value.get("image"), field_u64(&value, "image_index")?) {
            (Some(_), Some(_)) => {
                return Err("image and image_index are mutually exclusive".to_string())
            }
            (None, Some(index)) => job.image = ImageSpec::Dataset { index: index as usize },
            (Some(spec), None) => job.image = parse_image_spec(spec)?,
            (None, None) => {}
        }
        if let Some(pop) = field_u64(&value, "pop")? {
            job.population = pop as usize;
        }
        if let Some(gens) = field_u64(&value, "gens")? {
            job.generations = gens as usize;
        }
        if let Some(seed) = field_u64(&value, "seed")? {
            job.base_seed = seed;
        }
        if let Some(cache) = field_bool(&value, "cache")? {
            job.use_cache = cache;
        }
        match value.get("kernels") {
            None | Some(JsonValue::Null) => {}
            Some(v) => {
                let text = v.as_str().ok_or("kernels must be a string")?;
                job.kernel_policy = text.parse::<KernelPolicy>()?;
            }
        }
        match value.get("tenant") {
            None | Some(JsonValue::Null) => {}
            Some(v) => {
                let text = v.as_str().ok_or("tenant must be a string")?;
                validate_tenant(text)?;
                job.tenant = text.to_string();
            }
        }
        if job.population < 2 {
            return Err("pop must be at least 2".to_string());
        }
        if job.generations == 0 {
            return Err("gens must be at least 1".to_string());
        }
        Ok(job)
    }

    /// Renders the job back to its canonical JSON line (the format
    /// [`AttackJob::from_json`] accepts and the server persists to its
    /// job log).
    pub fn to_json(&self) -> String {
        self.result_fields().string("tenant", &self.tenant).finish()
    }

    /// The key a served result persists under: FNV-1a of the job's
    /// canonical JSON without `tenant`. That JSON holds everything that
    /// determines the result (cell, image, GA budget, base seed, cache
    /// and kernel settings) and tenancy never does, so exact repeats
    /// share a key and jobs that differ in any field do not.
    pub fn result_key(&self) -> u64 {
        fnv1a(self.result_fields().finish().as_bytes())
    }

    /// Every canonical JSON field except `tenant`, in wire order.
    fn result_fields(&self) -> JsonObject {
        let mut object = JsonObject::new().string("arch", self.arch.name());
        object = object.integer("model_seed", self.model_seed);
        object = match &self.image {
            ImageSpec::Dataset { index } => object.integer("image_index", *index as u64),
            ImageSpec::Filled { width, height, rgb } => object.raw(
                "image",
                &JsonObject::new()
                    .integer("width", *width as u64)
                    .integer("height", *height as u64)
                    .raw(
                        "fill",
                        &crate::telemetry::array(&[
                            f64::from(rgb[0]),
                            f64::from(rgb[1]),
                            f64::from(rgb[2]),
                        ]),
                    )
                    .finish(),
            ),
        };
        object
            .integer("pop", self.population as u64)
            .integer("gens", self.generations as u64)
            .integer("seed", self.base_seed)
            .boolean("cache", self.use_cache)
            .string("kernels", self.kernel_policy.name())
    }

    /// The campaign cell this job corresponds to — the identity under
    /// which its seed derives and its results persist.
    pub fn cell_spec(&self) -> CellSpec {
        CellSpec::new(self.arch.name(), self.model_seed, self.image.index())
    }

    /// The attack configuration this job runs (seed derivation is the
    /// campaign driver's responsibility, not the config's).
    pub fn attack_config(&self) -> AttackConfig {
        AttackConfig {
            nsga2: Nsga2Config {
                population_size: self.population,
                generations: self.generations,
                ..Nsga2Config::default()
            },
            use_cache: self.use_cache,
            kernel_policy: self.kernel_policy,
            ..AttackConfig::default()
        }
    }

    /// Materialises the job's image against the server's dataset.
    ///
    /// # Errors
    ///
    /// Reports a dataset index past `dataset_len`.
    pub fn materialize_image(&self, dataset: &bea_scene::SyntheticKitti) -> Result<Image, String> {
        match &self.image {
            ImageSpec::Dataset { index } => {
                if *index >= dataset.len() {
                    return Err(format!(
                        "image_index {index} out of range (dataset has {} images)",
                        dataset.len()
                    ));
                }
                Ok(dataset.image(*index))
            }
            ImageSpec::Filled { width, height, rgb } => {
                if *width == 0 || *height == 0 {
                    return Err("inline image must have positive dimensions".to_string());
                }
                Ok(Image::filled(*width, *height, *rgb))
            }
        }
    }
}

fn parse_image_spec(spec: &JsonValue) -> Result<ImageSpec, String> {
    let width = field_u64(spec, "width")?.ok_or("image.width is required")? as usize;
    let height = field_u64(spec, "height")?.ok_or("image.height is required")? as usize;
    if width == 0 || height == 0 || width > 4096 || height > 4096 {
        return Err("image dimensions must be in 1..=4096".to_string());
    }
    let rgb = match spec.get("fill") {
        None => [0.0; 3],
        Some(JsonValue::Array(items)) if items.len() == 3 => {
            let mut rgb = [0.0f32; 3];
            for (slot, item) in rgb.iter_mut().zip(items) {
                let v = item.as_f64().ok_or("image.fill entries must be numbers")?;
                if !(0.0..=255.0).contains(&v) {
                    return Err("image.fill entries must be in 0..=255".to_string());
                }
                *slot = v as f32;
            }
            rgb
        }
        Some(_) => return Err("image.fill must be a [r,g,b] array".to_string()),
    };
    Ok(ImageSpec::Filled { width, height, rgb })
}

/// Lifecycle states of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted and waiting in the queue.
    Queued,
    /// Claimed by a worker and running.
    Running,
    /// Finished; results are persisted.
    Done,
    /// The attack panicked or its inputs failed to materialise.
    Failed(String),
}

impl JobStatus {
    /// The wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::derive_cell_seed;

    #[test]
    fn jobs_round_trip_through_json() {
        let jobs = [
            AttackJob::default(),
            AttackJob {
                arch: Architecture::Detr,
                model_seed: 7,
                image: ImageSpec::Dataset { index: 3 },
                population: 8,
                generations: 2,
                base_seed: 42,
                use_cache: true,
                kernel_policy: KernelPolicy::Reference,
                tenant: DEFAULT_TENANT.to_string(),
            },
            AttackJob {
                image: ImageSpec::Filled { width: 24, height: 12, rgb: [10.0, 0.0, 255.0] },
                ..AttackJob::default()
            },
            AttackJob { tenant: "team-red_7".to_string(), ..AttackJob::default() },
        ];
        for job in jobs {
            let line = job.to_json();
            crate::telemetry::validate_json(&line).expect("canonical job JSON is valid");
            assert_eq!(AttackJob::from_json(&line).expect("round trip"), job);
        }
    }

    #[test]
    fn parsing_applies_defaults_and_names_bad_fields() {
        let job = AttackJob::from_json("{\"arch\":\"yolo\"}").expect("defaults fill in");
        assert_eq!(job, AttackJob::default());

        for (body, needle) in [
            ("", "unexpected end of input"),
            ("[]", "must be a JSON object"),
            ("{}", "missing required field \"arch\""),
            ("{\"arch\":\"vgg\"}", "unknown architecture"),
            ("{\"arch\":1}", "arch must be a string"),
            ("{\"arch\":\"yolo\",\"pop\":-1}", "pop must be a non-negative integer"),
            ("{\"arch\":\"yolo\",\"pop\":1}", "pop must be at least 2"),
            ("{\"arch\":\"yolo\",\"gens\":0}", "gens must be at least 1"),
            ("{\"arch\":\"yolo\",\"poplation\":4}", "unknown field \"poplation\""),
            ("{\"arch\":\"yolo\",\"cache\":\"yes\"}", "cache must be a boolean"),
            ("{\"arch\":\"yolo\",\"kernels\":1}", "kernels must be a string"),
            ("{\"arch\":\"yolo\",\"kernels\":\"fast\"}", "unknown kernel policy"),
            ("{\"arch\":\"yolo\",\"tenant\":7}", "tenant must be a string"),
            ("{\"arch\":\"yolo\",\"tenant\":\"\"}", "1..=32 characters"),
            ("{\"arch\":\"yolo\",\"tenant\":\"Team A\"}", "[a-z0-9_-]"),
            (
                "{\"arch\":\"yolo\",\"image_index\":0,\"image\":{\"width\":2,\"height\":2}}",
                "mutually exclusive",
            ),
            ("{\"arch\":\"yolo\",\"image\":{\"width\":0,\"height\":2}}", "1..=4096"),
            ("{\"arch\":\"yolo\",\"image\":{\"width\":2,\"height\":2,\"fill\":[1,2]}}", "[r,g,b]"),
            (
                "{\"arch\":\"yolo\",\"image\":{\"width\":2,\"height\":2,\"fill\":[1,2,999]}}",
                "0..=255",
            ),
        ] {
            let err = AttackJob::from_json(body).expect_err(body);
            assert!(err.contains(needle), "{body}: expected {needle:?} in {err:?}");
        }
    }

    #[test]
    fn oversized_bodies_are_rejected_before_parsing() {
        let body = format!("{{\"arch\":\"yolo\",\"pad\":\"{}\"}}", "x".repeat(MAX_JOB_BODY_BYTES));
        let err = AttackJob::from_json(&body).expect_err("body over the cap");
        assert!(err.contains("byte cap"), "unexpected error: {err}");
    }

    #[test]
    fn jobs_map_onto_campaign_cells() {
        let job = AttackJob {
            arch: Architecture::Detr,
            model_seed: 5,
            image: ImageSpec::Dataset { index: 2 },
            base_seed: 9,
            ..AttackJob::default()
        };
        let spec = job.cell_spec();
        assert_eq!(spec, CellSpec::new("DETR", 5, 2));
        // The served seed is exactly the campaign cell seed.
        assert_eq!(
            derive_cell_seed(job.base_seed, spec.model_seed, spec.image_index),
            derive_cell_seed(9, 5, 2)
        );
        let config = job.attack_config();
        assert_eq!(config.nsga2.population_size, job.population);
        assert_eq!(config.nsga2.generations, job.generations);
        assert!(!config.use_cache);
        assert_eq!(config.kernel_policy, KernelPolicy::Blocked);
        // Tenancy never reaches the cell identity (and therefore never
        // the derived seed): results are tenant-blind.
        let tenanted = AttackJob { tenant: "other".to_string(), ..job.clone() };
        assert_eq!(tenanted.cell_spec(), spec);
        let reference = AttackJob { kernel_policy: KernelPolicy::Reference, ..job };
        assert_eq!(reference.attack_config().kernel_policy, KernelPolicy::Reference);
    }

    #[test]
    fn result_keys_split_configs_and_ignore_tenancy() {
        let job = AttackJob::default();
        let key = job.result_key();
        assert_eq!(AttackJob { tenant: "other".to_string(), ..job.clone() }.result_key(), key);
        assert_eq!(AttackJob::from_json(&job.to_json()).unwrap().result_key(), key);
        // Same cell, different result: every field but the tenant
        // splits the key.
        let variants = [
            AttackJob { base_seed: 6, ..job.clone() },
            AttackJob { population: 8, ..job.clone() },
            AttackJob { generations: 2, ..job.clone() },
            AttackJob { use_cache: true, ..job.clone() },
            AttackJob { kernel_policy: KernelPolicy::Reference, ..job.clone() },
            AttackJob {
                image: ImageSpec::Filled { width: 8, height: 4, rgb: [1.0, 2.0, 3.0] },
                ..job.clone()
            },
            AttackJob {
                image: ImageSpec::Filled { width: 8, height: 4, rgb: [1.0, 2.0, 4.0] },
                ..job.clone()
            },
        ];
        let mut keys: Vec<u64> = variants.iter().map(AttackJob::result_key).collect();
        keys.push(key);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "every variant has its own key");
        // The two inline images share a cell (index 0) but not a key.
        assert_eq!(variants[5].cell_spec(), variants[6].cell_spec());
    }

    #[test]
    fn images_materialize_or_fail_cleanly() {
        let dataset = bea_scene::SyntheticKitti::smoke_set();
        let job = AttackJob::default();
        let img = job.materialize_image(&dataset).expect("index 0 exists");
        assert!(img.width() > 0);
        let oob = AttackJob {
            image: ImageSpec::Dataset { index: dataset.len() },
            ..AttackJob::default()
        };
        assert!(oob.materialize_image(&dataset).unwrap_err().contains("out of range"));
        let inline = AttackJob {
            image: ImageSpec::Filled { width: 8, height: 4, rgb: [3.0, 2.0, 1.0] },
            ..AttackJob::default()
        };
        let img = inline.materialize_image(&dataset).expect("inline builds");
        assert_eq!((img.width(), img.height()), (8, 4));
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(JobStatus::Queued.name(), "queued");
        assert_eq!(JobStatus::Running.name(), "running");
        assert_eq!(JobStatus::Done.name(), "done");
        assert_eq!(JobStatus::Failed("boom".into()).name(), "failed");
    }
}
