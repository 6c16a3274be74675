//! Process resource readings from `/proc` (Linux).

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds the whole process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line, so indices 11 and 12 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online CPUs as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn readings_are_positive() {
        // Busy for 50 ms: several of the 10 ms CPU-time ticks.
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::black_box(start.elapsed());
        }
        assert!(super::cpu_seconds() > 0.0);
        assert!(super::peak_rss_mb() > 0.0);
        assert!(super::nproc() >= 1);
    }
}
