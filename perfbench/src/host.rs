//! What the process can learn about its host and itself: the host
//! fingerprint every result is stamped with, peak resident memory and
//! CPU time.

use std::fs;
use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (the kernel's
/// `USER_HZ`, fixed at 100 in the proc ABI).
const USER_HZ: f64 = 100.0;

/// The host fingerprint as a JSON object: `nproc`, the CPU model from
/// `/proc/cpuinfo`, the commit from `.git` when the working directory
/// is a checkout with history, and an FNV-1a fingerprint of the source
/// tree, which names the code even where there is no history.
pub fn fingerprint(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = git_head(&root.join(".git")).unwrap_or_else(|| "none".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"commit\": \"{}\", \"tree_fnv\": \"{:016x}\"}}",
        occache_serve::json::escape(&cpu),
        occache_serve::json::escape(&commit),
        tree_fingerprint(root)
    )
}

/// The commit `HEAD` names, read from the files of a `.git` directory
/// (no `git` process, so nothing outside the checkout is consulted).
fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the paths and bytes of every manifest and Rust source
/// under `crates/`, `vendor/` and `perfbench/`, in sorted order.
fn tree_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for path in files {
        bytes.extend_from_slice(path.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&fs::read(&path).unwrap_or_default());
    }
    occache_experiments::checkpoint::fnv1a(&bytes)
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != "results" {
                collect_sources(&path, out);
            }
        } else if path
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used, over all its
/// threads.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable_and_grow() {
        let before = cpu_seconds().expect("cpu time");
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 150 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds().expect("cpu time") > before);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
    }

    #[test]
    fn git_head_follows_refs_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        fs::create_dir_all(git.join("refs/heads")).unwrap();
        fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_head(&git).as_deref(), Some("abc123"));
        fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_head(&git).as_deref(), Some("def456"));
        assert!(git_head(&dir.join("absent")).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
