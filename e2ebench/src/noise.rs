//! Host-noise diagnostics: the share of CPU time the hypervisor stole
//! while a run measured, read from `/proc/stat`.

/// Aggregate CPU jiffies: (steal, total).
#[derive(Clone, Copy, Debug)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// `None` where `/proc/stat` is missing (not Linux) or unreadable.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so the first eight sum to
    // the total.
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| CpuTimes {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// Stolen share of all CPU time between two readings (0 without data).
pub fn steal_frac(before: Option<CpuTimes>, after: Option<CpuTimes>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) if b.total > a.total => {
            b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}
