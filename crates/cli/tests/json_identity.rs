//! `hms <cmd> --json` must print *exactly* the bytes the HTTP server
//! would send for the equivalent request — the acceptance criterion for
//! sharing one body builder between the two transports. Also checks the
//! CLI's failure discipline: usage errors exit 2, and nothing panics.

use std::process::Command;

use hms_core::Predictor;
use hms_faults::Client;
use hms_serve::{preset, Advisor, ConfigRegistry, ServerConfig};
use hms_types::GpuConfig;

fn hms(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hms"))
        .args(args)
        .output()
        .expect("runs hms")
}

fn advisor(cfg: GpuConfig) -> Advisor {
    Advisor::new(cfg.clone(), Predictor::new(cfg))
}

/// One POST against an in-process server; returns (status, body bytes).
fn server_post(path: &str, body: &str) -> (u16, Vec<u8>) {
    // The CLI builds its default advisor over tesla_k80; match it
    // exactly, and expose the same `--config` presets as named tenants.
    let registry = ConfigRegistry::new("default", advisor(GpuConfig::tesla_k80()))
        .with("c2050", advisor(preset("c2050").expect("c2050 preset")));
    let handle = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(1)
        .spawn(registry)
        .expect("binds");
    let (status, body) = Client::connect(handle.addr())
        .and_then(|mut c| c.request("POST", path, body))
        .expect("server response");
    handle.shutdown();
    (status, body.into_bytes())
}

#[test]
fn predict_json_is_byte_identical_to_server() {
    let out = hms(&[
        "predict", "vecadd", "--scale", "test", "--json", "--move", "a=T", "--move", "b=C",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (status, server_bytes) = server_post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","moves":[{"array":"a","space":"T"},{"array":"b","space":"C"}]}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(
        out.stdout,
        server_bytes,
        "cli --json and server body diverged:\ncli:    {}\nserver: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&server_bytes)
    );
}

#[test]
fn predict_with_config_is_byte_identical_to_server() {
    // `--config c2050` on the CLI must equal a server request whose
    // body names the same tenant — and the response must not echo the
    // tenant, so the wire format is unchanged by multi-tenancy.
    let out = hms(&[
        "predict", "vecadd", "--scale", "test", "--json", "--move", "a=T", "--config", "c2050",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (status, server_bytes) = server_post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","config":"c2050","moves":[{"array":"a","space":"T"}]}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(
        out.stdout,
        server_bytes,
        "cli --json and server body diverged:\ncli:    {}\nserver: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&server_bytes)
    );
    let text = String::from_utf8_lossy(&server_bytes).into_owned();
    assert!(!text.contains("config"), "tenant leaked into body: {text}");

    // The `config` member is optional: omitting it selects the default
    // tenant, keeping pre-multi-tenant requests byte-compatible.
    let (status, default_bytes) = server_post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","moves":[{"array":"a","space":"T"}]}"#,
    );
    assert_eq!(status, 200);
    let (status, named_bytes) = server_post(
        "/v1/predict",
        r#"{"kernel":"vecadd","scale":"test","config":"default","moves":[{"array":"a","space":"T"}]}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(
        default_bytes, named_bytes,
        "naming the default tenant changed the bytes"
    );
}

#[test]
fn advise_json_is_byte_identical_to_server() {
    let out = hms(&[
        "advise", "vecadd", "--scale", "test", "--top", "3", "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (status, server_bytes) = server_post(
        "/v1/advise",
        r#"{"kernel":"vecadd","scale":"test","top":3}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(out.stdout, server_bytes);
}

#[test]
fn search_json_is_byte_identical_to_server() {
    let out = hms(&[
        "search", "vecadd", "--scale", "test", "--top", "2", "--prune", "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (status, server_bytes) = server_post(
        "/v1/search",
        r#"{"kernel":"vecadd","scale":"test","top":2,"prune":true}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(out.stdout, server_bytes);
}

#[test]
fn strategy_search_json_is_byte_identical_to_server() {
    let out = hms(&[
        "search",
        "wide6",
        "--scale",
        "test",
        "--top",
        "2",
        "--strategy",
        "beam",
        "--beam",
        "4",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (status, server_bytes) = server_post(
        "/v1/search",
        r#"{"kernel":"wide6","scale":"test","top":2,"strategy":"beam","beam":4}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(out.stdout, server_bytes);
    let text = String::from_utf8_lossy(&server_bytes).into_owned();
    assert!(text.contains("\"strategy\": \"beam\""));
    assert!(text.contains("\"gap_upper_bound\""));
}

#[test]
fn usage_errors_exit_2_with_one_line_diagnostic() {
    for args in [
        &["predict", "ghost", "--move", "a=T"][..], // unknown kernel
        &["predict", "vecadd"],                     // no moves
        &["predict", "vecadd", "--move", "ghost=T"], // unknown array
        &["predict", "vecadd", "--scale", "test", "--move", "v=C"], // illegal placement
        &["frobnicate"],                            // unknown command
        &["search", "vecadd", "--prune", "--strategy", "beam"], // conflicting strategies
        &["search", "vecadd", "--beam", "4"],       // knob without its strategy
        &["search", "vecadd", "--strategy", "local", "--beam", "4"], // wrong knob
        &["search", "vecadd", "--strategy", "warp_drive"], // unknown strategy
    ] {
        let out = hms(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error:"),
            "args {args:?} stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "args {args:?} panicked: {stderr}"
        );
    }
}
