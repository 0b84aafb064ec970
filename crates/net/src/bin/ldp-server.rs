//! `ldp-server` — stand-alone network frontend for the LDP ingestion
//! service.
//!
//! ```text
//! ldp-server [--addr HOST:PORT] [--metrics-addr HOST:PORT]
//!            [--tenant NAME[:THREADS][=DIR]]...
//!            [--token NAME:TOKEN]... [--rate NAME:REPORTS_PER_SEC:BURST]...
//!            [--max-inflight NAME:N]...
//! ```
//!
//! Each `--tenant` registers one isolated collector; `THREADS` sizes its
//! worker pool (default 1) and `=DIR` makes it durable (WAL + snapshots
//! under `DIR`). With no `--tenant` a single in-memory tenant named
//! `default` is hosted.
//!
//! Per-tenant overload protection: `--token` requires clients to present
//! a shared secret at `Hello`; `--rate` bounds the sustained report rate
//! with a token bucket (submits past it are shed with typed `Overloaded`
//! frames carrying a `retry_after_ms` hint); `--max-inflight` caps
//! concurrently executing submit frames. Tenants without flags are open.
//!
//! `--metrics-addr` additionally binds a plaintext TCP endpoint serving
//! the whole registry (every tenant's service metrics plus the wire
//! layer) in Prometheus text exposition — `curl` it, point a scraper at
//! it, or just `nc` it (non-HTTP connections get the bare body).
//!
//! The process serves until killed; the first stdout line is
//! `listening on ADDR`, so scripts can wait for readiness.

use ldp_net::{NetServer, ServerConfig};
use ldp_obs::MetricsExporter;
use ldp_service::{RateLimit, ServiceConfig, TenantLimits, TenantRegistry, TenantSpec};
use std::collections::HashMap;
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: ldp-server [--addr HOST:PORT] [--metrics-addr HOST:PORT] \
         [--tenant NAME[:THREADS][=DIR]]... \
         [--token NAME:TOKEN]... [--rate NAME:RPS:BURST]... [--max-inflight NAME:N]..."
    );
    std::process::exit(2);
}

/// Parse `NAME[:THREADS][=DIR]` into a tenant spec.
fn parse_tenant(arg: &str) -> Result<TenantSpec, String> {
    let (head, dir) = match arg.split_once('=') {
        Some((head, dir)) if !dir.is_empty() => (head, Some(dir)),
        Some(_) => return Err(format!("empty durability dir in `{arg}`")),
        None => (arg, None),
    };
    let (name, threads) = match head.split_once(':') {
        Some((name, threads)) => {
            let threads: usize = threads
                .parse()
                .map_err(|_| format!("bad thread count in `{arg}`"))?;
            (name, threads.max(1))
        }
        None => (head, 1),
    };
    let config = ServiceConfig::with_threads(threads);
    Ok(match dir {
        Some(dir) => TenantSpec::durable(name, config, dir),
        None => TenantSpec::in_memory(name, config),
    })
}

/// Split `NAME:REST` on the first colon.
fn split_tenant_arg<'a>(arg: &'a str, flag: &str) -> Result<(&'a str, &'a str), String> {
    arg.split_once(':')
        .filter(|(name, rest)| !name.is_empty() && !rest.is_empty())
        .ok_or_else(|| format!("{flag} wants NAME:VALUE, got `{arg}`"))
}

fn main() {
    let mut addr = String::from("127.0.0.1:7878");
    let mut metrics_addr: Option<String> = None;
    let mut specs: Vec<TenantSpec> = Vec::new();
    let mut limits: HashMap<String, TenantLimits> = HashMap::new();

    let fail = |e: String| -> ! {
        eprintln!("ldp-server: {e}");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--metrics-addr" => metrics_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--tenant" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match parse_tenant(&spec) {
                    Ok(spec) => specs.push(spec),
                    Err(e) => fail(e),
                }
            }
            "--token" => {
                let raw = args.next().unwrap_or_else(|| usage());
                let (name, token) = split_tenant_arg(&raw, "--token").unwrap_or_else(|e| fail(e));
                limits.entry(name.into()).or_default().auth_token = Some(token.into());
            }
            "--rate" => {
                let raw = args.next().unwrap_or_else(|| usage());
                let (name, rest) = split_tenant_arg(&raw, "--rate").unwrap_or_else(|e| fail(e));
                let Some((rps, burst)) = rest.split_once(':') else {
                    fail(format!(
                        "--rate wants NAME:REPORTS_PER_SEC:BURST, got `{raw}`"
                    ));
                };
                let rate = match (rps.parse::<f64>(), burst.parse::<u64>()) {
                    (Ok(rps), Ok(burst)) if rps > 0.0 && burst > 0 => RateLimit {
                        reports_per_sec: rps,
                        burst,
                    },
                    _ => fail(format!("bad rate limit `{raw}`")),
                };
                limits.entry(name.into()).or_default().rate = Some(rate);
            }
            "--max-inflight" => {
                let raw = args.next().unwrap_or_else(|| usage());
                let (name, n) =
                    split_tenant_arg(&raw, "--max-inflight").unwrap_or_else(|e| fail(e));
                let n = match n.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => fail(format!("bad in-flight cap `{raw}`")),
                };
                limits.entry(name.into()).or_default().max_inflight = Some(n);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("ldp-server: unknown argument `{other}`");
                usage();
            }
        }
    }
    if specs.is_empty() {
        specs.push(TenantSpec::in_memory(
            "default",
            ServiceConfig::with_threads(1),
        ));
    }

    let registry = TenantRegistry::new();
    for mut spec in specs {
        if let Some(limits) = limits.remove(&spec.id) {
            spec = spec.with_limits(limits);
        }
        let id = spec.id.clone();
        if let Err(e) = registry.register(spec) {
            eprintln!("ldp-server: tenant `{id}`: {e}");
            std::process::exit(1);
        }
    }
    if let Some(orphan) = limits.keys().next() {
        eprintln!("ldp-server: --token/--rate/--max-inflight for unregistered tenant `{orphan}`");
        std::process::exit(2);
    }

    let server = match NetServer::start(&addr, &registry, ServerConfig::default()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("ldp-server: bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // Keep the exporter alive for the life of the process.
    let _exporter = metrics_addr.map(|metrics_addr| {
        match MetricsExporter::start(&metrics_addr, registry.metrics()) {
            Ok(exporter) => {
                println!("metrics on {}", exporter.addr());
                exporter
            }
            Err(e) => {
                eprintln!("ldp-server: bind metrics {metrics_addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    println!("listening on {}", server.addr());
    println!("tenants: {}", registry.tenant_ids().join(", "));
    let _ = std::io::stdout().flush();

    // Serve until killed.
    loop {
        std::thread::park();
    }
}
