//! End-to-end checks of `gm-run store`, driven as a subprocess so the
//! exit status and the stderr report are tested exactly as scripts see
//! them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A unique scratch directory under the system temp dir, removed on
/// drop (the offline environment has no `tempfile` crate).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("gm-store-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn gm_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gm-run"))
        .args(args)
        .output()
        .expect("gm-run runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Quarantine sidecars whose store file is gone — `remote.quarantine`
/// left by older binaries, or the sidecar of an experiment whose store
/// file `--gc` deleted — must still be listed and purgeable.
#[test]
fn orphan_quarantine_sidecars_are_listed_and_purged() {
    let scratch = Scratch::new("orphans");
    let dir = scratch.0.to_str().unwrap();
    let remote_q = scratch.0.join("remote.quarantine");
    let fig6_q = scratch.0.join("fig6.quarantine");
    let remote_text = "{\"garbled\":1}\n{\"garbled\":2}\n";
    let fig6_text = "{\"torn\n";
    std::fs::write(&remote_q, remote_text).unwrap();
    std::fs::write(&fig6_q, fig6_text).unwrap();
    let bytes = remote_text.len() + fig6_text.len();
    let path = |p: &Path| p.display().to_string();

    let list = gm_run(&["store", dir]);
    let err = stderr(&list);
    assert!(list.status.success(), "{err}");
    for (p, lines, len) in [
        (&remote_q, 2, remote_text.len()),
        (&fig6_q, 1, fig6_text.len()),
    ] {
        let want = format!(
            "{}: {lines} quarantined line(s), {len} byte(s) (no matching store file)",
            path(p)
        );
        assert!(err.contains(&want), "missing {want:?} in:\n{err}");
    }
    assert!(
        err.contains(&format!("3 quarantined line(s) in {bytes} byte(s)")),
        "{err}"
    );
    assert!(
        remote_q.exists() && fig6_q.exists(),
        "listing must not delete"
    );

    let purge = gm_run(&["store", dir, "--purge-quarantine"]);
    let err = stderr(&purge);
    assert!(purge.status.success(), "{err}");
    for p in [&remote_q, &fig6_q] {
        assert!(err.contains(&format!("purged {}", path(p))), "{err}");
        assert!(!p.exists(), "{} survived the purge", path(p));
    }
    assert!(
        err.contains(&format!(
            "purge-quarantine reclaimed 3 line(s), {bytes} byte(s) across 2 sidecar(s)"
        )),
        "{err}"
    );
}
