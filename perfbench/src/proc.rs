//! Peak resident memory of the processes a workload drives, read from
//! Linux `/proc` (`VmHWM`, the resident high-water mark).

/// `VmHWM` of process `pid` in MiB, or `None` when it cannot be read.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pids of this process's children whose command name is `name`.
pub fn children_named(name: &str) -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            // `pid (comm) state ppid …`; comm may itself hold spaces.
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                return false;
            };
            let ppid = stat[close + 1..].split_whitespace().nth(1);
            &stat[open + 1..close] == name && ppid == Some(me.to_string().as_str())
        })
        .collect()
}
