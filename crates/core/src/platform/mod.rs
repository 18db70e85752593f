//! The platform backend layer: machines other than the GH200.
//!
//! Experiment layers (apps, bench, replay, the CLI) must not name
//! concrete cost-model types — they ask a [`Platform`] for a
//! [`Machine`](crate::Machine) and read the platform's capabilities from
//! [`PlatformCaps`] to decide which experiments are meaningful. The
//! gh-audit rule `no-platform-leak` enforces the seam.
//!
//! Two backends ship today:
//!
//! * [`gh200`] — the paper's NVIDIA GH200 (Schieffer et al., ICPP 2024):
//!   two physical tiers, NVLink-C2C, fault- and counter-driven migration;
//! * [`mi300a`] — the AMD MI300A APU (Wahlgren et al.): one physical
//!   HBM3 pool shared by CPU and GPU, Infinity-Fabric coherence, **no**
//!   page migration and no oversubscription balloon.
//!
//! See `docs/platforms.md` for the trait contract and how to add a
//! backend.

mod gh200;
mod mi300a;

pub use gh200::Gh200Platform;
pub use mi300a::Mi300aPlatform;

use gh_cuda::RuntimeOptions;
use gh_mem::params::{CostParams, ParamError};

use crate::machine::Machine;

/// Static description of what a backend's hardware can do. Experiment
/// layers branch on these instead of hard-coding GH200 behaviour, so a
/// platform without a capability degrades to "not applicable" rather
/// than to a silent zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformCaps {
    /// Registry name (`--platform <name>` on the CLI).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Pages can migrate between memories after placement (UVM fault
    /// migration, access-counter migration).
    pub migration: bool,
    /// A `cudaMalloc` balloon can shrink usable GPU memory, so simulated
    /// oversubscription experiments are meaningful.
    pub oversubscription: bool,
    /// First touch chooses a physical tier (NUMA placement matters).
    pub first_touch_tiering: bool,
    /// CPU and GPU share one physical pool (capacity is joint).
    pub unified_pool: bool,
    /// System page sizes the platform supports, in the order experiment
    /// sweeps should try them.
    pub page_sizes: &'static [u64],
    /// Page size used when a [`MachineConfig`] does not pick one.
    pub default_page_size: u64,
}

/// Portable per-run knobs a caller may set without naming backend types.
/// Everything defaults to the platform's calibrated behaviour.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// System page size; `None` picks the platform default. Must be one
    /// of the platform's `page_sizes`.
    pub page_size: Option<u64>,
    /// Enable automatic page migration (ignored on platforms whose caps
    /// say migration is impossible).
    pub auto_migration: bool,
    /// Enable speculative managed-memory prefetch (likewise capped).
    pub uvm_prefetch: bool,
    /// Memory-profiler sampling period in virtual ns; `None` keeps the
    /// backend default.
    pub profiler_period: Option<u64>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            page_size: None,
            auto_migration: true,
            uvm_prefetch: true,
            profiler_period: None,
        }
    }
}

impl MachineConfig {
    /// Config with an explicit system page size.
    pub fn with_page_size(page: u64) -> Self {
        Self {
            page_size: Some(page),
            ..Self::default()
        }
    }

    /// Config with automatic migration off.
    pub fn without_migration() -> Self {
        Self {
            auto_migration: false,
            ..Self::default()
        }
    }
}

/// Errors from the platform registry and machine builders.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// `by_name` was asked for a platform that is not registered.
    UnknownPlatform(String),
    /// The requested page size is not in the platform's supported set.
    UnsupportedPageSize {
        /// The page size that was asked for.
        page: u64,
        /// The sizes the platform supports.
        supported: &'static [u64],
    },
    /// A tweaked parameter set failed consistency validation.
    InvalidParams(ParamError),
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::UnknownPlatform(name) => {
                write!(f, "unknown platform '{name}' (available: ")?;
                for (i, n) in names().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, ")")
            }
            PlatformError::UnsupportedPageSize { page, supported } => {
                write!(f, "unsupported page size {page} (supported: ")?;
                for (i, p) in supported.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            PlatformError::InvalidParams(e) => write!(f, "invalid cost parameters: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlatformError::InvalidParams(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for PlatformError {
    fn from(e: ParamError) -> Self {
        PlatformError::InvalidParams(e)
    }
}

/// The cost-model half of a backend: how to build the parameter set and
/// runtime options for a given [`MachineConfig`]. Split from [`Platform`]
/// so the experiment-facing trait stays small.
pub trait MemoryBackend: std::fmt::Debug + Sync {
    /// Calibrated cost parameters for this configuration.
    fn cost_params(&self, cfg: &MachineConfig) -> Result<CostParams, PlatformError>;

    /// Runtime options for this configuration (a backend may clamp
    /// options its hardware cannot honour).
    fn runtime_options(&self, cfg: &MachineConfig) -> RuntimeOptions;
}

/// A simulated machine family. Everything outside the backend layer
/// reaches hardware through this trait: look one up with [`by_name`] (or
/// [`gh200`]/[`mi300a`] directly) and build machines from it.
pub trait Platform: MemoryBackend {
    /// What this platform's hardware can do.
    fn caps(&self) -> PlatformCaps;

    /// A machine with the platform's calibrated defaults.
    fn machine(&self) -> Machine {
        #[expect(
            clippy::expect_used,
            reason = "backends are tested to accept their own defaults"
        )]
        self.machine_cfg(&MachineConfig::default())
            .expect("platform default configuration is always valid")
    }

    /// A machine for an explicit configuration.
    fn machine_cfg(&self, cfg: &MachineConfig) -> Result<Machine, PlatformError> {
        let params = self.cost_params(cfg)?;
        Ok(Machine::with_caps(
            params,
            self.runtime_options(cfg),
            self.caps(),
        ))
    }

    /// A machine for an explicit configuration under an explicit
    /// session spec (tracing, profiling, sanitizing, reference walk).
    /// Boundaries — the CLI, benches, gh-jobs workers — funnel through
    /// this so observability is per-run, never ambient: two machines
    /// with different session options coexist in one process.
    fn machine_session(
        &self,
        cfg: &MachineConfig,
        so: &gh_cuda::SessionOptions,
    ) -> Result<Machine, PlatformError> {
        let params = self.cost_params(cfg)?;
        let session = gh_cuda::SessionCtx::with_options(self.runtime_options(cfg), so);
        Ok(Machine::with_session(params, session, self.caps()))
    }

    /// A machine with individual cost parameters overridden (ablation
    /// studies). The tweak runs on the platform's calibrated set and the
    /// result is re-validated.
    fn machine_tweaked(
        &self,
        cfg: &MachineConfig,
        tweak: &dyn Fn(&mut CostParams),
    ) -> Result<Machine, PlatformError> {
        let mut params = self.cost_params(cfg)?;
        tweak(&mut params);
        params.validate()?;
        Ok(Machine::with_caps(
            params,
            self.runtime_options(cfg),
            self.caps(),
        ))
    }

    /// GPU memory permanently held by the driver (the `nvidia-smi`
    /// baseline), so harnesses can size working sets without naming the
    /// parameter type.
    fn gpu_driver_baseline(&self) -> u64 {
        self.cost_params(&MachineConfig::default())
            .map(|p| p.gpu_driver_baseline)
            .unwrap_or(0)
    }
}

static GH200: Gh200Platform = Gh200Platform;
static MI300A: Mi300aPlatform = Mi300aPlatform;

/// The NVIDIA GH200 backend (the paper's machine).
pub fn gh200() -> &'static dyn Platform {
    &GH200
}

/// The AMD MI300A unified-physical-memory backend.
pub fn mi300a() -> &'static dyn Platform {
    &MI300A
}

/// Every registered platform, in registry order.
pub fn all() -> [&'static dyn Platform; 2] {
    [&GH200, &MI300A]
}

/// Registry names, in registry order (what `--platform` accepts).
pub fn names() -> &'static [&'static str] {
    &["gh200", "mi300a"]
}

/// Looks a platform up by registry name.
pub fn by_name(name: &str) -> Result<&'static dyn Platform, PlatformError> {
    match name {
        "gh200" => Ok(&GH200),
        "mi300a" => Ok(&MI300A),
        other => Err(PlatformError::UnknownPlatform(other.to_string())),
    }
}

/// Time to move `bytes` at `bw` bytes/ns — re-exported here so harness
/// crates can compute analytic bounds without naming cost-model types.
pub fn transfer_ns(bytes: u64, bw: f64) -> u64 {
    CostParams::transfer_ns(gh_units::Bytes::new(bytes), bw)
}

/// Applies a [`MachineConfig`] page-size request to a parameter set,
/// enforcing the platform's supported set. Shared by backends.
pub(crate) fn apply_page_size(
    params: &mut CostParams,
    cfg: &MachineConfig,
    caps: &PlatformCaps,
) -> Result<(), PlatformError> {
    let page = cfg.page_size.unwrap_or(caps.default_page_size);
    if !caps.page_sizes.contains(&page) {
        return Err(PlatformError::UnsupportedPageSize {
            page,
            supported: caps.page_sizes,
        });
    }
    params.system_page_size = page;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_mem::params::{KIB, MIB};

    #[test]
    fn registry_finds_both_platforms() {
        assert_eq!(by_name("gh200").unwrap().caps().name, "gh200");
        assert_eq!(by_name("mi300a").unwrap().caps().name, "mi300a");
        assert_eq!(names(), ["gh200", "mi300a"]);
        assert_eq!(all().len(), names().len());
    }

    #[test]
    fn unknown_platform_is_a_typed_error() {
        let err = by_name("gh300").unwrap_err();
        assert_eq!(err, PlatformError::UnknownPlatform("gh300".into()));
        let msg = err.to_string();
        assert!(msg.contains("gh300") && msg.contains("gh200") && msg.contains("mi300a"));
    }

    #[test]
    fn default_machines_boot_on_every_platform() {
        for p in all() {
            let m = p.machine();
            assert_eq!(m.caps().name, p.caps().name);
            assert!(m.rt.gpu_free() > 0);
        }
    }

    #[test]
    fn default_page_size_is_supported() {
        for p in all() {
            let caps = p.caps();
            assert!(caps.page_sizes.contains(&caps.default_page_size));
            for &ps in caps.page_sizes {
                p.machine_cfg(&MachineConfig::with_page_size(ps)).unwrap();
            }
        }
    }

    #[test]
    fn unsupported_page_size_is_rejected() {
        let err = gh200()
            .machine_cfg(&MachineConfig::with_page_size(KIB))
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::UnsupportedPageSize { page, .. } if page == KIB
        ));
    }

    #[test]
    fn tweaks_are_revalidated() {
        let err = gh200()
            .machine_tweaked(&MachineConfig::default(), &|p| p.hbm_bw = -1.0)
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidParams(_)));
        // A sane tweak goes through.
        gh200()
            .machine_tweaked(&MachineConfig::default(), &|p| p.gpu_mem_bytes = 128 * MIB)
            .unwrap();
    }

    #[test]
    fn caps_contrast_matches_the_architectures() {
        let gh = gh200().caps();
        let mi = mi300a().caps();
        assert!(gh.migration && gh.oversubscription && gh.first_touch_tiering);
        assert!(!gh.unified_pool);
        assert!(!mi.migration && !mi.oversubscription && !mi.first_touch_tiering);
        assert!(mi.unified_pool);
    }

    #[test]
    fn migration_config_is_clamped_on_mi300a() {
        let cfg = MachineConfig::default(); // asks for migration
        let m = mi300a().machine_cfg(&cfg).unwrap();
        assert!(!m.rt.options().auto_migration);
        assert!(!m.rt.options().uvm_prefetch);
    }

    #[test]
    fn driver_baseline_is_exposed_without_naming_params() {
        assert!(gh200().gpu_driver_baseline() > 0);
        assert!(mi300a().gpu_driver_baseline() > 0);
    }
}
