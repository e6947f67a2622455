//! The `whynot-server` binary: the [`whynot_server::ServerCore`] wire
//! loop over stdin/stdout (default) or a TCP listener (`--listen`).
//!
//! ```sh
//! whynot-server                         # stdin/stdout session
//! whynot-server --listen 127.0.0.1:7464 # serve TCP clients in turn
//! ```
//!
//! Configuration comes from the `WHYNOT_SERVER_*` environment knobs
//! (see the README's environment table), each overridable by a flag:
//! `--threads N`, `--queue-depth N`, `--cache-budget N`,
//! `--snapshot-dir DIR`, `--max-tenants N`.
//!
//! TCP clients are served sequentially by one accept loop — the
//! workspace confines `std::thread` to `crates/parallel`, and the
//! parallelism that matters (lub-driven question batches) already fans out
//! through the executor inside the core. One client at a time also
//! keeps tenant state single-writer by construction.

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use whynot_server::{ServerConfig, ServerCore};

const USAGE: &str = "usage: whynot-server [--listen ADDR] [--threads N] [--queue-depth N] \
[--cache-budget N] [--snapshot-dir DIR] [--max-tenants N]";

struct Args {
    listen: Option<String>,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig::from_env();
    let mut listen = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match arg.as_str() {
            "--listen" => listen = Some(value("--listen")?),
            "--threads" => {
                config.threads = Some(parse_num(&value("--threads")?, "--threads")?.max(1))
            }
            "--queue-depth" => {
                config.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?.max(1)
            }
            "--cache-budget" => {
                config.cache_budget = parse_num(&value("--cache-budget")?, "--cache-budget")?
            }
            "--snapshot-dir" => config.snapshot_dir = Some(value("--snapshot-dir")?),
            "--max-tenants" => {
                config.max_tenants = parse_num(&value("--max-tenants")?, "--max-tenants")?.max(1)
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args { listen, config })
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {text:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut server = ServerCore::new(args.config);
    let result = match &args.listen {
        Some(addr) => serve_tcp(&mut server, addr),
        None => serve_stream(
            &mut server,
            std::io::stdin().lock(),
            &mut std::io::stdout().lock(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the wire loop over one line-buffered reader/writer pair until
/// EOF or `shutdown`.
fn serve_stream<R: BufRead, W: Write>(
    server: &mut ServerCore,
    reader: R,
    writer: &mut W,
) -> Result<(), String> {
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        for response in server.handle_line(&line) {
            writeln!(writer, "{response}").map_err(|e| format!("write: {e}"))?;
        }
        writer.flush().map_err(|e| format!("flush: {e}"))?;
        if server.is_shutdown() {
            break;
        }
    }
    Ok(())
}

/// Accepts TCP clients one at a time, sharing the tenant table across
/// connections; `shutdown` ends the whole server.
fn serve_tcp(server: &mut ServerCore, addr: &str) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("whynot-server listening on {addr}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut writer = stream;
        // A client dropping mid-session only ends that session.
        if let Err(msg) = serve_stream(server, reader, &mut writer) {
            eprintln!("client session ended: {msg}");
        }
        if server.is_shutdown() {
            break;
        }
    }
    Ok(())
}
