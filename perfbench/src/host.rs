//! Process-level readings from `/proc`: CPU time and peak memory.

/// CPU time (user + system) of the calling thread in seconds.
///
/// Read from `/proc/thread-self/stat` in clock ticks of 1/100 s, the
/// tick rate of every mainstream Linux build; 0 when `/proc` is
/// unavailable.
pub fn current_thread_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/thread-self/stat").map_or(0.0, |stat| stat_cpu_seconds(&stat))
}

/// Peak resident set size (`VmHWM`) in MiB; 0 when unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The compiler that built this benchmark (`rustc -V`, captured at build
/// time).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// CPU time (user + system) in seconds of this process's threads whose
/// name starts with `prefix` — the live runtime names its node threads
/// `agentrack-node<i>`. Summed over `/proc/self/task/*/stat` in 1/100 s
/// ticks; 0 when `/proc` is unavailable.
pub fn thread_cpu_seconds(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|comm| comm.starts_with(prefix))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("stat")).ok())
        .map(|stat| stat_cpu_seconds(&stat))
        .sum()
}

fn stat_cpu_seconds(stat: &str) -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}
