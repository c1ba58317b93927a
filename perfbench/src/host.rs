//! Host fingerprint and process memory. Results from hosts with different
//! fingerprints are not comparable.

use mpmd_fabric::LocalConfig;

/// Peak resident set size (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// nproc, CPU model, the wait policy LocalFabric resolves to here, and the
/// kernel, as one JSON object.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let wait = LocalConfig::default().wait;
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"wait_policy\": \"{}\", \"kernel\": \"{}\"}}",
        esc(&cpu),
        esc(&format!("{wait:?}")),
        esc(&kernel)
    )
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
