//! Regression tests for journal durability when a run dies early.
//!
//! The journal buffers lines in a `BufWriter`, so an abort used to lose
//! the buffered tail. Two abort shapes are covered:
//!
//! * **Destructors skipped** (`std::process::exit`, the moral
//!   equivalent of a `SIGKILL` between poll cycles): everything up to
//!   the last explicit [`Journal::flush`] must be on disk, with the
//!   final line intact — never torn mid-JSON. This is the daemon's
//!   shutdown contract. Exercised by re-executing the test binary so
//!   the exit cannot take the harness down with it.
//! * **Unwind** (a panic inside a journaled run): the `Drop` impl's
//!   best-effort flush runs during unwinding, so *every* written line
//!   must survive even though `finish()` was never called.

use ices_obs::Journal;
use std::path::PathBuf;
use std::process::Command;

/// Env var carrying the journal path into the re-executed child.
const CHILD_PATH_VAR: &str = "ICES_JOURNAL_ABORT_PATH";

fn scratch_path(stem: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ices_{stem}_{}.jsonl", std::process::id()));
    p
}

fn assert_lines_are_whole_json(contents: &str) {
    assert!(
        contents.ends_with('\n'),
        "journal must end with a complete line, got {contents:?}"
    );
    for line in contents.lines() {
        let parsed: Result<serde::Value, _> = serde_json::from_str(line);
        assert!(parsed.is_ok(), "torn or invalid journal line: {line:?}");
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}

/// Child half of the destructor-skipping test. Inert unless the parent
/// test re-executes this binary with [`CHILD_PATH_VAR`] set: then it
/// journals a short run, flushes, writes one more (buffered, doomed)
/// tick and exits without running any destructor.
#[test]
fn journal_abort_child() {
    let Ok(path) = std::env::var(CHILD_PATH_VAR) else {
        return;
    };
    let mut j = Journal::to_file(&path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    j.meta(0, "abort-child", 4, 61);
    for t in 1..=5 {
        j.tick(t, &[("probe.ok", t)], &[("embed.mean_local_error", 0.5)]);
    }
    j.flush();
    // This line stays in the BufWriter and is lost — the contract is
    // that losing it must not tear the flushed prefix.
    j.tick(6, &[("probe.ok", 6)], &[]);
    std::process::exit(0);
}

#[test]
fn killed_run_keeps_flushed_prefix_intact() {
    let path = scratch_path("journal_abort");
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().unwrap_or_else(|e| panic!("current_exe: {e}"));
    let status = Command::new(exe)
        .args(["journal_abort_child", "--exact", "--nocapture"])
        .env(CHILD_PATH_VAR, &path)
        .status()
        .unwrap_or_else(|e| panic!("re-exec: {e}"));
    assert!(status.success(), "child aborted abnormally: {status}");

    let contents = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let _ = std::fs::remove_file(&path);
    assert_lines_are_whole_json(&contents);
    let lines: Vec<&str> = contents.lines().collect();
    // meta + the five flushed ticks survive; the post-flush tick was
    // only ever buffered, so it is allowed (expected) to be gone.
    assert_eq!(lines.len(), 6, "flushed prefix incomplete: {lines:#?}");
    assert!(lines[0].contains("\"ev\":\"meta\""));
    assert!(
        lines[5].contains("\"t\":5") && lines[5].ends_with('}'),
        "last flushed tick line torn: {:?}",
        lines[5]
    );
    assert!(
        !contents.contains("\"t\":6"),
        "post-flush tick unexpectedly on disk; the test no longer exercises the buffer"
    );
}

#[test]
fn panicking_run_flushes_on_drop() {
    let path = scratch_path("journal_unwind");
    let _ = std::fs::remove_file(&path);
    let result = std::panic::catch_unwind(|| {
        let mut j = Journal::to_file(&path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
        j.meta(0, "unwind", 4, 61);
        for t in 1..=3 {
            j.tick(t, &[("probe.ok", t)], &[]);
        }
        // The run dies here; `j` is dropped during unwinding and its
        // Drop impl must flush the buffered lines.
        panic!("simulated mid-run failure");
    });
    assert!(result.is_err(), "the journaled run was supposed to panic");

    let contents = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let _ = std::fs::remove_file(&path);
    assert_lines_are_whole_json(&contents);
    let lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 4, "drop-flush lost lines: {lines:#?}");
    assert!(lines[3].contains("\"t\":3"));
}

#[test]
fn explicit_flush_is_idempotent_and_keeps_journal_usable() {
    let path = scratch_path("journal_flush");
    let _ = std::fs::remove_file(&path);
    let mut j = Journal::to_file(&path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    j.meta(0, "flush", 1, 61);
    j.flush();
    j.flush();
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    assert_eq!(
        on_disk.lines().count(),
        1,
        "flush did not push the meta line"
    );
    j.tick(1, &[], &[]);
    j.flush();
    assert!(!j.errored(), "flushing flipped the error flag");
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        on_disk.lines().count(),
        2,
        "post-flush writes must still land"
    );
    assert_lines_are_whole_json(&on_disk);
}
