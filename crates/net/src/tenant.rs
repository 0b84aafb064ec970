//! The hosted tenants: an immutable map from tenant id to its service,
//! admission state and latency histograms.
//!
//! The map is built once at [`NetServer::start`](crate::NetServer) and
//! shared by every connection thread, which runs each request against
//! its tenant's [`IngestService`] inline — the service is already
//! thread-safe, so there is no per-tenant thread or queue in between.

use crate::admission::{Admission, AdmissionSnapshot};
use crate::frame::{AckBody, Frame, WireError, FRAME_KIND_NAMES};
use ldp_obs::Histogram;
use ldp_service::registry::TenantRegistry;
use ldp_service::{IngestService, SessionId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One hosted tenant, as a connection sees it after `Hello`.
pub(crate) struct Tenant {
    service: Arc<IngestService>,
    /// The tenant's admission control (auth, rate, in-flight quota).
    pub(crate) admission: Arc<Admission>,
    /// `ldp_net_rpc_ns{op}`, one histogram per request kind, resolved
    /// once so a request records without touching the registry.
    rpc_ns: [Arc<Histogram>; FRAME_KIND_NAMES.len()],
}

impl Tenant {
    /// Run `frame` against the tenant's service, timing it, and return
    /// its `Ack`/`Err` reply.
    pub(crate) fn serve(&self, frame: Frame) -> Frame {
        let op = frame.kind_index();
        let start = Instant::now();
        let reply = dispatch(&self.service, frame);
        self.rpc_ns[op].record_duration(start.elapsed());
        reply
    }
}

/// Every tenant the server hosts, by id.
pub struct Tenants {
    by_id: HashMap<String, Tenant>,
}

impl Tenants {
    /// Snapshot every tenant currently in `registry`.
    ///
    /// Tenants registered after the server starts are not served
    /// (restart the server to pick them up).
    pub fn new(registry: &TenantRegistry) -> Tenants {
        let mut by_id = HashMap::new();
        for id in registry.tenant_ids() {
            let service = registry.lookup(&id).expect("snapshotted id resolves");
            let limits = registry.limits(&id).expect("snapshotted id resolves");
            let scope = registry.tenant_scope(&id);
            let admission = Arc::new(Admission::with_obs(limits, &scope));
            let rpc_ns = FRAME_KIND_NAMES.map(|op| {
                scope.with(&[("op", op)]).histogram(
                    "ldp_net_rpc_ns",
                    "Server-side service time per request, in nanoseconds.",
                )
            });
            let tenant = Tenant {
                service,
                admission,
                rpc_ns,
            };
            by_id.insert(id, tenant);
        }
        Tenants { by_id }
    }

    /// The tenant `id`, if hosted.
    pub(crate) fn get(&self, id: &str) -> Option<&Tenant> {
        self.by_id.get(id)
    }

    /// The admission counters of `tenant`, if hosted.
    pub fn admission_snapshot(&self, tenant: &str) -> Option<AdmissionSnapshot> {
        self.by_id.get(tenant).map(|t| t.admission.snapshot())
    }

    /// Hosted tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.by_id.keys().cloned().collect();
        ids.sort();
        ids
    }
}

/// Execute one request against a tenant's service, producing its
/// `Ack`/`Err` reply frame.
pub fn dispatch(service: &Arc<IngestService>, frame: Frame) -> Frame {
    let corr = frame.corr();
    match execute(service, frame) {
        Ok(body) => Frame::Ack { corr, body },
        Err(error) => Frame::Err { corr, error },
    }
}

fn execute(service: &Arc<IngestService>, frame: Frame) -> Result<AckBody, WireError> {
    match frame {
        Frame::Hello { resume, .. } => {
            let session = match resume {
                Some(raw) => SessionId::from_raw(raw),
                None => service.create_session().map_err(|e| WireError::from(&e))?,
            };
            let status = service.status(session).map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Session {
                session: session.raw(),
                next_round: status.next_round,
                next_seq: status.next_seq,
                open_round: status.open_round,
            })
        }
        Frame::OpenRound {
            session, request, ..
        } => {
            let session = SessionId::from_raw(session);
            let request = service
                .open_round_at(
                    session,
                    request.round,
                    request.t,
                    request.fo,
                    request.epsilon,
                    request.domain_size,
                )
                .map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Opened { request })
        }
        Frame::SubmitBatch {
            session,
            seq,
            responses,
            ..
        } => {
            let session = SessionId::from_raw(session);
            service
                .submit_batch_at(session, seq, responses)
                .map_err(|e| WireError::from(&e))?;
            let next_seq = service.next_seq(session).map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Submitted { next_seq })
        }
        Frame::CloseRound { session, round, .. } => {
            let session = SessionId::from_raw(session);
            let estimate = service
                .close_round_at(session, round)
                .map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Closed { estimate })
        }
        // Stats requests are answered by the connection (they need the
        // whole-registry view, not one tenant's service).
        Frame::StatsRequest { .. } => Err(WireError::Protocol {
            detail: "stats requests are served at the connection layer".into(),
        }),
        Frame::Ack { .. } | Frame::Err { .. } => Err(WireError::Protocol {
            detail: "server-only frame sent to server".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_fo::FoKind;
    use ldp_ids::protocol::ReportRequest;
    use ldp_service::{ServiceConfig, TenantSpec};

    fn registry() -> TenantRegistry {
        let registry = TenantRegistry::new();
        registry
            .register(TenantSpec::in_memory(
                "acme",
                ServiceConfig::with_threads(1),
            ))
            .unwrap();
        registry
    }

    #[test]
    fn dispatch_runs_a_full_round() {
        let registry = registry();
        let service = registry.lookup("acme").unwrap();
        let hello = dispatch(
            &service,
            Frame::Hello {
                corr: 1,
                tenant: "acme".into(),
                resume: None,
                token: None,
            },
        );
        let Frame::Ack {
            corr: 1,
            body: AckBody::Session { session, .. },
        } = hello
        else {
            panic!("unexpected hello reply: {hello:?}");
        };
        let open = dispatch(
            &service,
            Frame::OpenRound {
                corr: 2,
                session,
                request: ReportRequest {
                    round: 0,
                    t: 0,
                    fo: FoKind::Grr,
                    epsilon: 8.0,
                    domain_size: 2,
                },
            },
        );
        assert!(
            matches!(
                open,
                Frame::Ack {
                    corr: 2,
                    body: AckBody::Opened { .. }
                }
            ),
            "{open:?}"
        );
        let close = dispatch(
            &service,
            Frame::CloseRound {
                corr: 3,
                session,
                round: 0,
            },
        );
        assert!(
            matches!(
                close,
                Frame::Ack {
                    corr: 3,
                    body: AckBody::Closed { .. }
                }
            ),
            "{close:?}"
        );
    }

    #[test]
    fn service_errors_become_typed_wire_errors() {
        let registry = registry();
        let service = registry.lookup("acme").unwrap();
        let reply = dispatch(
            &service,
            Frame::CloseRound {
                corr: 9,
                session: 404,
                round: 0,
            },
        );
        assert_eq!(
            reply,
            Frame::Err {
                corr: 9,
                error: WireError::UnknownSession { session: 404 }
            }
        );
    }

    #[test]
    fn tenants_snapshot_serves_registered_ids_only() {
        let registry = registry();
        let tenants = Tenants::new(&registry);
        assert!(tenants.get("acme").is_some());
        assert!(tenants.get("ghost").is_none());
        assert_eq!(tenants.tenant_ids(), vec!["acme"]);
        assert_eq!(tenants.admission_snapshot("acme"), Some(Default::default()));
    }
}
