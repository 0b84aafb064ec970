//! One accepted connection, served by one thread.
//!
//! The thread drains the socket into a [`FrameBuffer`], resolves the
//! connection's tenant at `Hello` (checking the tenant's shared secret
//! in constant time), runs every decoded request against the tenant's
//! service inline, and writes its reply before taking the next request.
//! Replies are therefore FIFO per connection, and a busy connection
//! stops reading, so TCP flow control pushes back on its client. A
//! client that stops reading stalls only its own thread: every
//! connection calls the thread-safe service directly.
//!
//! **Graceful degradation ordering.** `SubmitBatch` — the bulk of the
//! traffic and the only frame a flood is made of — passes the tenant's
//! [`Admission`](crate::admission::Admission) gate first, and a refusal
//! sheds the frame with a typed [`WireError::Overloaded`]. Control
//! frames (`Hello`/`OpenRound`/`CloseRound`) are never shed, so even a
//! tenant under sustained overload can always bind, resume, and close
//! its open round.
//!
//! Reads poll with a short timeout instead of blocking indefinitely:
//! each wakeup checks the server's stop flag (graceful shutdown) and an
//! idle deadline (dead peers are reaped after
//! [`ServerConfig::read_timeout`](crate::server::ServerConfig)). Writes
//! time out after the same `read_timeout`, so a peer that accepts no
//! bytes is reaped like an idle one and shutdown always returns.

use crate::codec::{encode_frame, FrameBuffer};
use crate::error::FrameError;
use crate::frame::{AckBody, Frame, WireError, STATS_VERSION, WIRE_VERSION};
use crate::metrics::ServerMetrics;
use crate::server::ServerConfig;
use crate::tenant::{Tenant, Tenants};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Serve one accepted connection until EOF, error, idle or write
/// timeout, or server shutdown.
pub(crate) fn serve(
    stream: TcpStream,
    tenants: &Tenants,
    config: ServerConfig,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) {
    if stream.set_read_timeout(Some(config.poll_interval)).is_err()
        || stream.set_write_timeout(Some(config.read_timeout)).is_err()
    {
        return;
    }
    metrics.connections().inc();
    serve_loop(stream, tenants, &config, stop, metrics);
    metrics.connections().dec();
}

fn serve_loop(
    mut stream: TcpStream,
    tenants: &Tenants,
    config: &ServerConfig,
    stop: &AtomicBool,
    metrics: &ServerMetrics,
) {
    let mut fb = FrameBuffer::new();
    let mut tenant: Option<&Tenant> = None;
    let mut buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    let send = |stream: &mut TcpStream, reply: Frame| {
        metrics.record_out(&reply);
        stream.write_all(&encode_frame(&reply)).is_ok()
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // clean EOF
            Ok(n) => {
                last_activity = Instant::now();
                fb.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= config.read_timeout {
                    return; // idle peer
                }
                continue;
            }
            Err(_) => return,
        }
        loop {
            let frame = match fb.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    // The stream is unsynchronized after a framing
                    // defect: report it, then drop the connection.
                    send(&mut stream, framing_reply(e));
                    return;
                }
            };
            metrics.record_in(&frame);
            let reply = respond(frame, tenants, &mut tenant, metrics);
            if !send(&mut stream, reply) {
                return;
            }
        }
    }
}

/// Answer one request: stats from the shared registry, everything else
/// from the connection's tenant.
fn respond<'t>(
    frame: Frame,
    tenants: &'t Tenants,
    tenant: &mut Option<&'t Tenant>,
    metrics: &ServerMetrics,
) -> Frame {
    let corr = frame.corr();
    let reject = |error: WireError| Frame::Err { corr, error };
    // Stats requests are answered from the shared registry right here —
    // before the Hello check, so operators scrape without binding (or
    // even having) a tenant.
    if let Frame::StatsRequest { scope, .. } = &frame {
        let mut samples = metrics.registry().snapshot();
        if let Some(scope) = scope {
            samples.retain(|s| s.label("tenant") == Some(scope));
        }
        return Frame::Ack {
            corr,
            body: AckBody::Stats {
                version: STATS_VERSION,
                samples,
            },
        };
    }
    // Hello (re)binds the connection's tenant; everything else requires
    // a prior Hello.
    if let Frame::Hello {
        tenant: id, token, ..
    } = &frame
    {
        let Some(found) = tenants.get(id) else {
            return reject(WireError::UnknownTenant { tenant: id.clone() });
        };
        if !found.admission.check_auth(token.as_deref()) {
            return reject(WireError::AuthFailed { tenant: id.clone() });
        }
        *tenant = Some(found);
    }
    let Some(tenant) = *tenant else {
        return reject(WireError::Protocol {
            detail: "Hello must precede other frames".into(),
        });
    };
    // The shedding path, for submits only. A refusal never reached the
    // service, so it is safe to retry; an admitted submit holds its
    // in-flight slot until the service call returns.
    let _inflight = match &frame {
        Frame::SubmitBatch { responses, .. } => match tenant.admission.admit(responses.len()) {
            Ok(guard) => Some(guard),
            Err((_reason, wait)) => {
                return reject(WireError::Overloaded {
                    retry_after_ms: wait.as_millis() as u64,
                });
            }
        },
        _ => None,
    };
    tenant.serve(frame)
}

/// The reply sent for an undecodable stream (no request to attribute it
/// to, so `corr` 0).
///
/// Stream-level defects are typed [`WireError::BadFrame`] — retryable,
/// because a reconnect resynchronizes the stream and the idempotent
/// replay recovers whatever was in flight. An unsupported version stays
/// the non-retryable [`WireError::Version`].
fn framing_reply(e: FrameError) -> Frame {
    let error = match e {
        FrameError::Version { got } => WireError::Version {
            min: WIRE_VERSION,
            max: WIRE_VERSION,
            got,
        },
        other => WireError::BadFrame {
            detail: other.to_string(),
        },
    };
    Frame::Err { corr: 0, error }
}
