//! Output checks: every outcome's shape and reports, a digest of what a
//! session produced, and the stamps a result carries.

use crate::inputs::SessionInput;
use sap_core::session::SapOutcome;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds a whole word into the hash in one step (FNV-1a over
    /// 64-bit symbols: eight times fewer rounds than byte-wise).
    pub fn word(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a session outcome: the unified records (labels and value
/// bits, in order) plus every provider report.
pub fn outcome_digest(outcome: &SapOutcome) -> u64 {
    let mut h = Fnv::default();
    let unified = &outcome.unified;
    h.word(unified.len() as u64);
    h.word(unified.dim() as u64);
    for (record, label) in unified.iter() {
        h.word(label as u64);
        for v in record {
            h.word(v.to_bits());
        }
    }
    for r in &outcome.reports {
        h.word(r.provider.0);
        h.word(r.rho_local.to_bits());
        h.word(r.rho_unified.to_bits());
        h.word(r.satisfaction.to_bits());
    }
    h.finish()
}

/// Checks one outcome against its inputs: the unified record count and
/// dimension equal the inputs', and every report is finite. Returns the
/// violation, if any.
pub fn check_outcome(input: &SessionInput, outcome: &SapOutcome) -> Result<(), String> {
    if outcome.unified.len() != input.rows || outcome.unified.dim() != input.dim {
        return Err(format!(
            "{} session unified {}x{} records, inputs were {}x{}",
            input.shape.name(),
            outcome.unified.len(),
            outcome.unified.dim(),
            input.rows,
            input.dim
        ));
    }
    if outcome.reports.len() != input.shape.providers() {
        return Err(format!(
            "{} session returned {} reports for {} providers",
            input.shape.name(),
            outcome.reports.len(),
            input.shape.providers()
        ));
    }
    for r in &outcome.reports {
        if !(r.rho_local.is_finite() && r.rho_unified.is_finite() && r.satisfaction.is_finite()) {
            return Err(format!(
                "{} session: provider {} report is not finite",
                input.shape.name(),
                r.provider
            ));
        }
    }
    Ok(())
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git commit of the checkout, when it is a repository.
pub fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let commit = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !commit.is_empty()).then_some(commit)
}

/// Digest of every `.rs` and `Cargo.toml` file under `crates/`,
/// `vendor/` and `perfbench/src/`, in path order.
pub fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// The digest committed for `key` in `table` (`perfbench/digests.txt`):
/// lines of whitespace-separated fields, the last a hex digest and the
/// others its key; `#` starts a comment.
pub fn committed_digest(table: &str, key: &[&str]) -> Option<u64> {
    table.lines().find_map(|line| {
        let fields: Vec<&str> = line.split('#').next()?.split_whitespace().collect();
        let (digest, head) = fields.split_last()?;
        if head == key {
            u64::from_str_radix(digest, 16).ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn committed_digests_match_their_whole_key() {
        let table =
            "# comment\ncanary qos_mix 00ff\nrun qos_mix 1 30 abc # note\n\nrun qos_mix 10 30 1\n";
        assert_eq!(committed_digest(table, &["canary", "qos_mix"]), Some(0xff));
        assert_eq!(
            committed_digest(table, &["run", "qos_mix", "1", "30"]),
            Some(0xabc)
        );
        assert_eq!(
            committed_digest(table, &["run", "qos_mix", "10", "30"]),
            Some(1)
        );
        assert_eq!(
            committed_digest(table, &["run", "qos_mix", "1", "20"]),
            None
        );
        assert_eq!(committed_digest(table, &["run", "qos_mix", "1"]), None);
        assert_eq!(committed_digest(table, &["canary", "bulk_tcp"]), None);
    }
}
