//! End-to-end test of the `wiclean` CLI binary.

use std::process::Command;

fn wiclean() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wiclean"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
fn generate_stats_mine_detect_round_trip() {
    let dir = std::env::temp_dir().join("wiclean_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let report = dir.join("report.json");

    // generate
    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "software",
            "--seeds",
            "150",
            "--rng",
            "7",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(corpus.exists());

    // stats
    let out = wiclean()
        .args(["stats", "--corpus", corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SoftwareProject"), "{stdout}");
    assert!(stdout.contains("revisions"), "{stdout}");

    // mine → JSON report
    let out = wiclean()
        .args([
            "mine",
            "--corpus",
            corpus.to_str().unwrap(),
            "--threads",
            "2",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["seed_type"], "SoftwareProject");
    assert!(
        !parsed["patterns"].as_array().unwrap().is_empty(),
        "patterns discovered"
    );

    // detect
    let out = wiclean()
        .args([
            "detect",
            "--corpus",
            corpus.to_str().unwrap(),
            "--threads",
            "2",
            "--top",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pattern (freq"), "{stdout}");

    // ingest → detect over the sharded store prints the same patterns and
    // flagged errors as the in-memory corpus.
    let store = dir.join("store");
    std::fs::remove_dir_all(&store).ok();
    let out = wiclean()
        .args([
            "ingest",
            "--corpus",
            corpus.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--shards",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out_disk = wiclean()
        .args([
            "detect",
            "--backend",
            "disk",
            "--store",
            store.to_str().unwrap(),
            "--threads",
            "2",
            "--top",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out_disk.status.success(),
        "{}",
        String::from_utf8_lossy(&out_disk.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out_disk.stdout),
        stdout,
        "detect output differs between backends"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
fn serve_and_suggest_round_trip() {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join("wiclean_cli_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "soccer",
            "--seeds",
            "40",
            "--rng",
            "11",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One-shot mode: an arbitrary entity answers cleanly (suggestions or
    // the explicit "no suggestions" line — never an error).
    let out = wiclean()
        .args([
            "suggest",
            "--corpus",
            corpus.to_str().unwrap(),
            "--entity",
            "No Such Page",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("no suggestions"));

    // Server mode: bind an OS-picked port, speak the wire protocol, hot
    // reload, shut down over the wire, and exit cleanly.
    let mut child = wiclean()
        .args([
            "serve",
            "--corpus",
            corpus.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut send = |req: &str| -> serde_json::Value {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        serde_json::from_str(&resp).unwrap()
    };

    let v = send(r#"{"op":"ping"}"#);
    assert_eq!(v.get("ack").and_then(|a| a.as_str()), Some("pong"));
    let v = send(r#"{"op":"suggest","entity":"No Such Page"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    let v = send(r#"{"op":"reload"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true), "{v:?}");
    assert_eq!(v.get("epoch").and_then(|e| e.as_u64()), Some(2));
    let v = send(r#"{"op":"stats"}"#);
    assert_eq!(
        v.get("serve")
            .and_then(|s| s.get("swaps"))
            .and_then(|s| s.as_u64()),
        Some(1)
    );
    let v = send(r#"{"op":"shutdown"}"#);
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));

    let status = child.wait().unwrap();
    assert!(status.success(), "server exits cleanly after wire shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
fn planner_flags_round_trip() {
    let dir = std::env::temp_dir().join("wiclean_cli_planner_test");
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus.json");
    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "soccer",
            "--seeds",
            "40",
            "--rng",
            "13",
            "--out",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // mine with the planner on (explicitly, plus a custom re-plan factor)
    // and off: the mined sections must be byte-identical — the planner
    // only changes how fast the pair stage runs — while the planner
    // counters separate the two runs.
    let mine = |planner: &str, factor: Option<&str>, report: &std::path::Path| {
        let mut args = vec![
            "mine".to_string(),
            "--corpus".to_string(),
            corpus.to_str().unwrap().to_string(),
            "--threads".to_string(),
            "2".to_string(),
            "--planner".to_string(),
            planner.to_string(),
            "--out".to_string(),
            report.to_str().unwrap().to_string(),
        ];
        if let Some(f) = factor {
            args.push("--replan-factor".to_string());
            args.push(f.to_string());
        }
        let out = wiclean().args(&args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        serde_json::from_str::<serde_json::Value>(&std::fs::read_to_string(report).unwrap())
            .unwrap()
    };
    let on = mine("on", Some("2.5"), &dir.join("on.json"));
    let off = mine("off", None, &dir.join("off.json"));
    assert_eq!(
        on["patterns"], off["patterns"],
        "plan choice changed output"
    );
    assert_eq!(on["iterations"], off["iterations"]);
    let picks = |r: &serde_json::Value| {
        ["hash", "sort_merge", "nested", "partitioned"]
            .iter()
            .map(|s| {
                r["stats"][format!("plan_picks_{s}").as_str()]
                    .as_u64()
                    .unwrap()
            })
            .sum::<u64>()
    };
    assert!(picks(&on) > 0, "planner-on run must record plan picks");
    assert_eq!(picks(&off), 0, "planner-off run must not plan");

    // The same flags round-trip through `stream`.
    let stream = |planner: &str, report: &std::path::Path| {
        let out = wiclean()
            .args([
                "stream",
                "--corpus",
                corpus.to_str().unwrap(),
                "--threads",
                "2",
                "--planner",
                planner,
                "--replan-factor",
                "3.5",
                "--out",
                report.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        serde_json::from_str::<serde_json::Value>(&std::fs::read_to_string(report).unwrap())
            .unwrap()
    };
    let s_on = stream("on", &dir.join("stream_on.json"));
    let s_off = stream("off", &dir.join("stream_off.json"));
    assert_eq!(
        s_on["patterns"], s_off["patterns"],
        "plan choice changed streamed output"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full pipeline — run with --release")]
fn stream_tau_flag_finds_expert_patterns() {
    // At the default threshold (0.8) a 1000-seed soccer stream seals only
    // empty windows; at `--tau 0.4` its windows hold the expert patterns.
    let dir = std::env::temp_dir().join("wiclean_cli_stream_tau");
    std::fs::create_dir_all(&dir).unwrap();
    let (corpus, report) = (dir.join("corpus.json"), dir.join("stream.json"));
    let run = |args: &[&str]| {
        let out = wiclean().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (c, r) = (corpus.to_str().unwrap(), report.to_str().unwrap());
    run(&[
        "generate", "--domain", "soccer", "--seeds", "1000", "--out", c,
    ]);
    run(&["stream", "--corpus", c, "--tau", "0.4", "--out", r]);
    let corpus = wiclean::synth::Corpus::load(&corpus).unwrap();
    let expert: std::collections::BTreeSet<String> = corpus
        .domain
        .as_ref()
        .unwrap()
        .expert_list(&corpus.universe)
        .into_iter()
        .map(|(_, p, _)| p.display(&corpus.universe))
        .collect();
    let streamed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let found = streamed["patterns"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|p| expert.contains(p["display"].as_str().unwrap()))
        .count();
    assert!(found >= 4, "{found} expert patterns streamed at tau 0.4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = wiclean().output().unwrap();
    assert!(!out.status.success(), "no command must fail");

    let out = wiclean().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success(), "unknown command must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = wiclean()
        .args([
            "generate",
            "--domain",
            "underwater-basket-weaving",
            "--out",
            "/tmp/x",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown domain must fail");

    let out = wiclean()
        .args(["mine", "--corpus", "/nonexistent/corpus.json"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "missing corpus must fail");

    let out = wiclean()
        .args(["mine", "--corpus", "/tmp/x.json", "--planner", "sideways"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "bad --planner value must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--planner"));

    let out = wiclean()
        .args(["mine", "--corpus", "/tmp/x.json", "--replan-factor", "1.0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--replan-factor <= 1.0 must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("replan"));

    // Every command takes only its own flags: an unknown one is a usage
    // error (exit 2), never silently ignored — a retired `--durability`
    // must not quietly mine the JSON corpus instead of the store. A flag
    // the selected backend would ignore is refused too (exit 1).
    for (line, code) in [
        ("mine --corpus /tmp/x.json --durability /tmp/store", 2),
        ("detect --corpus /tmp/x.json --durability /tmp/store", 2),
        (
            "ingest --corpus /tmp/x.json --store /tmp/s --checkpoint-every 8",
            2,
        ),
        ("ingest --corpus /tmp/x.json --backend disk", 2),
        ("mine --corpus /tmp/x.json --fault-rat 0.1", 2),
        ("stats --corpus /tmp/x.json --top 3", 2),
        ("mine --corpus /tmp/x.json --store /tmp/s", 1),
        ("stream --corpus /tmp/x.json --tau 1.5", 1),
        ("stream --corpus /tmp/x.json --tau 0", 1),
        ("stream --corpus /tmp/x.json --tau NaN", 1),
        ("mine --corpus /tmp/x.json --tau 0.4", 2),
        ("detect --backend disk --store /tmp/s --retries 0", 1),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let out = wiclean().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(code), "`{line}`");
        let flag = args[args.len() - 2];
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "`{line}`: the error must name {flag}"
        );
    }

    let out = wiclean().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
