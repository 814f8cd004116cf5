//! `gridrm-serve`: the gateway wire protocol on a real TCP socket.
//!
//! ```text
//! gridrm-serve serve [--port 7227] [--admin-port 7228] [--hosts 8] [--duration-ms N]
//! gridrm-serve bench [--clients 1,2,4,8,16] [--duration-ms 2000] [--hosts 8] [--out BENCH_serve.json]
//! ```
//!
//! `serve` runs a simulated site behind real sockets (wire port +
//! admin port), pumping virtual time forward so subscriptions fire.
//! `bench` produces the throughput/latency curves committed as
//! `BENCH_serve.json`. The end-to-end checks of the serving path live
//! in `tests/loopback.rs`.

use gridrm_serve::bench;
use gridrm_serve::scheduler::SchedulerConfig;
use gridrm_serve::server::{AdminServer, TcpServer};
use gridrm_serve::world::ServeWorld;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => {
            eprintln!("usage: gridrm-serve <serve|bench> [options]");
            eprintln!("  serve  --port 7227 --admin-port 7228 --hosts 8 [--duration-ms N]");
            eprintln!(
                "  bench  --clients 1,2,4,8,16 --duration-ms 2000 --hosts 8 --out BENCH_serve.json"
            );
            ExitCode::FAILURE
        }
    }
}

/// `--key value` lookup over the raw argument list.
fn opt<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn opt_u64(args: &[String], key: &str, default: u64) -> u64 {
    opt(args, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let port = opt_u64(args, "--port", 7227);
    let admin_port = opt_u64(args, "--admin-port", 7228);
    let hosts = opt_u64(args, "--hosts", 8) as usize;
    let duration_ms = opt_u64(args, "--duration-ms", 0);
    let world = ServeWorld::build(hosts);
    let server = match TcpServer::start(
        &format!("127.0.0.1:{port}"),
        world.service(),
        SchedulerConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gridrm-serve: cannot bind wire port {port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let admin = match AdminServer::start(
        &format!("127.0.0.1:{admin_port}"),
        world.gateway.admin().clone(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gridrm-serve: cannot bind admin port {admin_port}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gridrm-serve: wire on {} admin on {} ({hosts} hosts, site 'serve')",
        server.local_addr(),
        admin.local_addr()
    );
    // Pump virtual time forward so standing subscriptions fire; each
    // wall-clock tick advances the world by the same amount.
    let tick = Duration::from_millis(100);
    let mut elapsed_ms = 0u64;
    loop {
        std::thread::sleep(tick);
        world.pump_once(tick.as_millis() as u64);
        elapsed_ms += tick.as_millis() as u64;
        if duration_ms > 0 && elapsed_ms >= duration_ms {
            break;
        }
    }
    let (accepted, shed, executed, closed) = server.stats().snapshot();
    server.stop();
    admin.stop();
    println!(
        "gridrm-serve: clean shutdown (accepted={accepted} shed={shed} executed={executed} closed_sources={closed})"
    );
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    let clients: Vec<usize> = opt(args, "--clients")
        .unwrap_or("1,2,4,8,16")
        .split(',')
        .filter_map(|c| c.trim().parse().ok())
        .collect();
    let duration_ms = opt_u64(args, "--duration-ms", 2_000);
    let hosts = opt_u64(args, "--hosts", 8) as usize;
    let out = opt(args, "--out").unwrap_or("BENCH_serve.json");
    if clients.len() < 3 {
        eprintln!("gridrm-serve bench: need at least 3 client counts, got {clients:?}");
        return ExitCode::FAILURE;
    }
    println!("gridrm-serve bench: {clients:?} clients x {duration_ms}ms, {hosts} hosts");
    let report = bench::run(&clients, duration_ms, hosts);
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("gridrm-serve bench: cannot serialise report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(out, format!("{json}\n")) {
        eprintln!("gridrm-serve bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("  wrote {out}");
    if report.result == "PASS" {
        println!("RESULT: PASS");
        ExitCode::SUCCESS
    } else {
        println!("RESULT: FAIL");
        ExitCode::FAILURE
    }
}
