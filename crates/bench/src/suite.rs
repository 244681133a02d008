//! Process-level probes shared with the benchmark of record (`benchmark/`).

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 when the platform does not expose it.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_probe_does_not_fail() {
        // 0 is allowed (non-Linux), anything else must be a sane byte count.
        let rss = peak_rss_bytes();
        assert!(rss == 0 || rss > 1024);
    }
}
