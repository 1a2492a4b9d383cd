//! `spsim` piped into a reader that has already gone (`spsim … | head`)
//! ends quietly: exit 0 and nothing on stderr, not a panic and a
//! backtrace.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_spsim"))
        .arg("wafer")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spsim runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
