//! The host and provenance record printed with every result.

use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lines of one source file before its `#[cfg(test)]` module; unit
/// tests sit at the end of each file in this repository.
fn non_test_lines(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    text.lines()
        .take_while(|l| l.trim_start() != "#[cfg(test)]")
        .count()
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Non-test line count of each crate under `<repo>/crates/*/src`.
fn lines_per_crate(repo: &Path) -> Vec<(String, usize)> {
    let mut crates: Vec<(String, usize)> = Vec::new();
    let Ok(entries) = std::fs::read_dir(repo.join("crates")) else {
        return crates;
    };
    for entry in entries.flatten() {
        let mut files = Vec::new();
        rust_files(&entry.path().join("src"), &mut files);
        let lines = files.iter().map(|f| non_test_lines(f)).sum();
        crates.push((entry.file_name().to_string_lossy().into_owned(), lines));
    }
    crates.sort();
    crates
}

/// `nproc`, `rustc -V`, the git revision of `repo` (when it is a git
/// checkout) and the non-test line count per crate, as a JSON object.
pub fn record(repo: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let git_dir = repo.join(".git");
    let git_rev = command_line(
        "git",
        &["--git-dir", &git_dir.to_string_lossy(), "rev-parse", "HEAD"],
    );
    let crates = lines_per_crate(repo);
    let total: usize = crates.iter().map(|(_, n)| n).sum();
    let per_crate: Vec<String> = crates
        .iter()
        .map(|(name, n)| format!("{}:{n}", json_str(name)))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"git_rev\":{},\"non_test_lines\":{total},\
         \"non_test_lines_per_crate\":{{{}}}}}",
        json_str(&command_line("rustc", &["-V"])),
        json_str(&git_rev),
        per_crate.join(",")
    )
}

/// Cumulative hypervisor steal over all CPUs so far, in seconds, from
/// `/proc/stat` (0 where it is unavailable). The provenance record
/// reports the steal accrued during the timed loop, so that a run slowed
/// by the host can be told from a slower program; no time is corrected
/// with it.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
