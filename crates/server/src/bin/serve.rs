//! `cbic-serve`: the compression service daemon.
//!
//! ```text
//! cbic-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!            [--max-frame BYTES] [--timeout-ms MS] [--summary-secs S]
//! ```
//!
//! Binds the address (default `127.0.0.1:9123`), prints the bound
//! address to stderr (`listening on ...`), and serves until `SIGTERM` /
//! `SIGINT`, then drains in-flight requests and exits 0.

use std::process::ExitCode;
use std::time::Duration;

use cbic_server::server::{Server, ServerConfig};
use cbic_server::signal;

fn parse_args() -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:9123".to_string();
    let mut config = ServerConfig {
        summary_interval: Some(Duration::from_secs(10)),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?;
            }
            "--max-frame" => {
                config.max_frame_bytes = value("--max-frame")?
                    .parse()
                    .map_err(|e| format!("--max-frame: {e}"))?;
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
                config.read_timeout = Duration::from_millis(ms);
                config.write_timeout = Duration::from_millis(ms);
            }
            "--summary-secs" => {
                let secs: u64 = value("--summary-secs")?
                    .parse()
                    .map_err(|e| format!("--summary-secs: {e}"))?;
                config.summary_interval = (secs > 0).then(|| Duration::from_secs(secs));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((addr, config))
}

fn main() -> ExitCode {
    let (addr, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("cbic-serve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cbic-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => eprintln!("cbic-serve: listening on {bound}"),
        Err(e) => {
            eprintln!("cbic-serve: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Mirror SIGTERM/SIGINT into the server's shutdown handle, which also
    // wakes the blocked accept. A signal handler can only store to an
    // atomic, so this thread polls it; it ends once shutdown has begun,
    // also when the server began it after a fatal accept error.
    signal::install_shutdown_handler();
    let shutdown = server.shutdown_handle();
    let mirror = std::thread::spawn(move || {
        while !shutdown.is_requested() {
            if signal::shutdown_requested() {
                shutdown.shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let result = server.run();
    mirror.join().expect("the signal mirror does not panic");
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cbic-serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
