//! The multi-tenant collector registry: tenant id → its own
//! [`IngestService`].
//!
//! One network frontend (or any other host) serves many independent
//! device populations by giving each *tenant* a fully isolated ingest
//! service — its own worker pool sizing, its own privacy-budget
//! bookkeeping, and (durably) its own WAL directory. Nothing is shared
//! between tenants except the process: a slow or crashing tenant cannot
//! corrupt another's durability files, and estimates stay bit-identical
//! to running each tenant's traffic through a dedicated service.
//!
//! Tenant ids are restricted to a printable wire-safe alphabet
//! (`[A-Za-z0-9._-]`, 1..=64 bytes) so they can travel in frames and
//! double as directory names without escaping.

use crate::batch::ServiceConfig;
use crate::obs::ServiceMetrics;
use crate::session::IngestService;
use ldp_ids::CoreError;
use ldp_obs::{MetricsRegistry, Scope};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

/// Longest accepted tenant id, in bytes.
pub const MAX_TENANT_ID: usize = 64;

/// Validate a tenant id against the wire-safe alphabet.
pub fn validate_tenant_id(id: &str) -> Result<(), CoreError> {
    let invalid = |detail: &str| CoreError::InvalidTenant {
        tenant: id.chars().take(80).collect(),
        detail: detail.into(),
    };
    if id.is_empty() {
        return Err(invalid("empty id"));
    }
    if id.len() > MAX_TENANT_ID {
        return Err(invalid("id longer than 64 bytes"));
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(invalid("id must match [A-Za-z0-9._-]+"));
    }
    Ok(())
}

/// A token-bucket rate limit on submitted reports.
///
/// The bucket holds up to `burst` tokens and refills at
/// `reports_per_sec`; admitting a batch of *n* reports spends *n*
/// tokens. A batch larger than `burst` can never be admitted, so
/// operators must size `burst` at or above the largest delta their
/// clients send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained admission rate, in reports per second. A rate of zero
    /// admits only the initial `burst` and nothing after.
    pub reports_per_sec: f64,
    /// Bucket capacity: the largest report count admitted at once.
    pub burst: u64,
}

/// Per-tenant admission limits, enforced at the network frontend.
///
/// The default is fully open (no auth, no rate limit, no in-flight
/// quota) — the behaviour tenants had before limits existed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantLimits {
    /// Shared secret every `Hello` binding this tenant must present.
    /// `None` accepts any client (the token, if sent, is ignored).
    pub auth_token: Option<String>,
    /// Token-bucket limit on submitted reports; `None` is unlimited.
    pub rate: Option<RateLimit>,
    /// Maximum `SubmitBatch` frames executing at once across the
    /// tenant's connections; `None` is unlimited.
    pub max_inflight: Option<usize>,
}

impl TenantLimits {
    /// Fully open limits (no auth, no quotas).
    pub fn open() -> Self {
        TenantLimits::default()
    }
}

/// Everything needed to stand up one tenant's service.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant's wire id (see [`validate_tenant_id`]).
    pub id: String,
    /// Pool sizing, batching, sync discipline for this tenant.
    pub config: ServiceConfig,
    /// Durability directory; `None` runs the tenant in-memory.
    pub dir: Option<PathBuf>,
    /// Admission limits the network frontend enforces for this tenant.
    pub limits: TenantLimits,
}

impl TenantSpec {
    /// An in-memory tenant with the given id and config.
    pub fn in_memory(id: impl Into<String>, config: ServiceConfig) -> Self {
        TenantSpec {
            id: id.into(),
            config,
            dir: None,
            limits: TenantLimits::default(),
        }
    }

    /// A durable tenant journaling to `dir`.
    pub fn durable(id: impl Into<String>, config: ServiceConfig, dir: impl Into<PathBuf>) -> Self {
        TenantSpec {
            id: id.into(),
            config,
            dir: Some(dir.into()),
            limits: TenantLimits::default(),
        }
    }

    /// Attach admission limits to the spec.
    pub fn with_limits(mut self, limits: TenantLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// The registry mapping tenant id → its [`IngestService`].
///
/// Internally synchronized; share it behind an `Arc`. Lookups take a
/// read lock only, so concurrent connections resolve tenants without
/// contending with each other.
///
/// Every registry owns one shared [`MetricsRegistry`]; each tenant's
/// service records under a `tenant="<id>"` label in it, so one scrape
/// (or one [`metrics`](TenantRegistry::metrics) call) covers the whole
/// host.
#[derive(Debug)]
pub struct TenantRegistry {
    tenants: RwLock<HashMap<String, TenantEntry>>,
    metrics: Arc<MetricsRegistry>,
}

impl Default for TenantRegistry {
    fn default() -> Self {
        TenantRegistry {
            tenants: RwLock::new(HashMap::new()),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }
}

#[derive(Debug)]
struct TenantEntry {
    service: Arc<IngestService>,
    limits: TenantLimits,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TenantRegistry::default()
    }

    /// Create and register `spec`'s service, returning the new handle.
    ///
    /// Duplicate ids are a typed [`CoreError::TenantExists`] — re-homing
    /// a live tenant would silently fork its budget accounting.
    pub fn register(&self, spec: TenantSpec) -> Result<Arc<IngestService>, CoreError> {
        validate_tenant_id(&spec.id)?;
        // Build the service outside the write lock (durable opens do
        // recovery I/O), but re-check for a racing duplicate under it.
        let metrics = ServiceMetrics::in_scope(&self.tenant_scope(&spec.id));
        let service = Arc::new(match &spec.dir {
            Some(dir) => IngestService::open_observed(spec.config, dir, metrics)?,
            None => IngestService::new_observed(spec.config, metrics),
        });
        let mut tenants = self.tenants.write().unwrap();
        if tenants.contains_key(&spec.id) {
            return Err(CoreError::TenantExists { tenant: spec.id });
        }
        tenants.insert(
            spec.id,
            TenantEntry {
                service: Arc::clone(&service),
                limits: spec.limits,
            },
        );
        Ok(service)
    }

    /// The service hosting `tenant`, or a typed
    /// [`CoreError::UnknownTenant`].
    pub fn lookup(&self, tenant: &str) -> Result<Arc<IngestService>, CoreError> {
        self.tenants
            .read()
            .unwrap()
            .get(tenant)
            .map(|entry| Arc::clone(&entry.service))
            .ok_or_else(|| CoreError::UnknownTenant {
                tenant: tenant.into(),
            })
    }

    /// The admission limits configured for `tenant`, or a typed
    /// [`CoreError::UnknownTenant`].
    pub fn limits(&self, tenant: &str) -> Result<TenantLimits, CoreError> {
        self.tenants
            .read()
            .unwrap()
            .get(tenant)
            .map(|entry| entry.limits.clone())
            .ok_or_else(|| CoreError::UnknownTenant {
                tenant: tenant.into(),
            })
    }

    /// The shared metrics registry all tenant services (and the network
    /// frontend) record into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A metrics scope labelled `tenant="<id>"` over the shared
    /// registry.
    pub fn tenant_scope(&self, tenant: &str) -> Scope {
        Scope::new(Arc::clone(&self.metrics), &[("tenant", tenant)])
    }

    /// Registered tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.tenants.read().unwrap().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::FoKind;

    #[test]
    fn register_lookup_and_isolation() {
        let registry = TenantRegistry::new();
        let a = registry
            .register(TenantSpec::in_memory(
                "acme",
                ServiceConfig::with_threads(1),
            ))
            .unwrap();
        let b = registry
            .register(TenantSpec::in_memory(
                "globex",
                ServiceConfig::with_threads(1),
            ))
            .unwrap();
        assert_eq!(registry.tenant_ids(), vec!["acme", "globex"]);
        assert_eq!(registry.len(), 2);

        // Session ids are per-tenant: both start at 0, fully isolated.
        let sa = a.create_session().unwrap();
        let sb = b.create_session().unwrap();
        assert_eq!(sa.raw(), 0);
        assert_eq!(sb.raw(), 0);
        a.open_round(sa, 0, FoKind::Grr, 1.0, 2).unwrap();
        // acme's open round is invisible to globex.
        assert!(Arc::ptr_eq(&registry.lookup("acme").unwrap(), &a));
        assert_eq!(b.status(sb).unwrap().open_round, None);
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_typed_errors() {
        let registry = TenantRegistry::new();
        registry
            .register(TenantSpec::in_memory(
                "acme",
                ServiceConfig::with_threads(1),
            ))
            .unwrap();
        assert_eq!(
            registry
                .register(TenantSpec::in_memory(
                    "acme",
                    ServiceConfig::with_threads(1)
                ))
                .unwrap_err(),
            CoreError::TenantExists {
                tenant: "acme".into()
            }
        );
        assert_eq!(
            registry.lookup("ghost").unwrap_err(),
            CoreError::UnknownTenant {
                tenant: "ghost".into()
            }
        );
    }

    #[test]
    fn limits_are_stored_and_default_open() {
        let registry = TenantRegistry::new();
        registry
            .register(TenantSpec::in_memory(
                "open",
                ServiceConfig::with_threads(1),
            ))
            .unwrap();
        registry
            .register(
                TenantSpec::in_memory("locked", ServiceConfig::with_threads(1)).with_limits(
                    TenantLimits {
                        auth_token: Some("sekrit".into()),
                        rate: Some(RateLimit {
                            reports_per_sec: 1000.0,
                            burst: 50,
                        }),
                        max_inflight: Some(4),
                    },
                ),
            )
            .unwrap();
        assert_eq!(registry.limits("open").unwrap(), TenantLimits::open());
        let locked = registry.limits("locked").unwrap();
        assert_eq!(locked.auth_token.as_deref(), Some("sekrit"));
        assert_eq!(locked.rate.unwrap().burst, 50);
        assert_eq!(locked.max_inflight, Some(4));
        assert!(matches!(
            registry.limits("ghost"),
            Err(CoreError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn tenant_ids_are_validated() {
        assert!(validate_tenant_id("acme-prod_7.stream").is_ok());
        for bad in ["", "has space", "sl/ash", "ünïcode", &"x".repeat(65)] {
            assert!(
                matches!(
                    validate_tenant_id(bad),
                    Err(CoreError::InvalidTenant { .. })
                ),
                "{bad:?} should be invalid"
            );
        }
    }
}
