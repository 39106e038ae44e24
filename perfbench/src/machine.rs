//! The machine a result was measured on, and the host-drift probe.

use std::path::Path;
use std::time::Instant;

/// What the run's numbers depend on besides the code.
#[derive(Debug)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The ISA the kernels dispatch to.
    pub isa: &'static str,
    /// Width of the rayon pool the sweeps run on.
    pub rayon_threads: usize,
    /// `TGI_NUM_THREADS` / `TGI_PIN_THREADS` as set (empty when unset).
    pub num_threads_env: String,
    pub pin_threads_env: String,
    /// File-system type under the data directories (e.g. `tmpfs`, `ext4`).
    pub data_fs: String,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
}

impl Machine {
    /// Describes this host, with `data_dir` the directory the stores live in.
    pub fn probe(data_dir: &Path) -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: hpc_kernels::simd::active().name(),
            rayon_threads: rayon::current_num_threads(),
            num_threads_env: std::env::var("TGI_NUM_THREADS").unwrap_or_default(),
            pin_threads_env: std::env::var("TGI_PIN_THREADS").unwrap_or_default(),
            data_fs: fs_type(data_dir).unwrap_or_else(|| "unknown".to_string()),
            commit: commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object with every field.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"isa\":\"{}\",\"rayon_threads\":{},\"TGI_NUM_THREADS\":\"{}\",\
             \"TGI_PIN_THREADS\":\"{}\",\"data_fs\":\"{}\",\"commit\":\"{}\",\"arch\":\"{}\"}}",
            self.nproc,
            self.isa,
            self.rayon_threads,
            escape(&self.num_threads_env),
            escape(&self.pin_threads_env),
            escape(&self.data_fs),
            escape(&self.commit),
            std::env::consts::ARCH,
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "'")
}

/// File-system type of the longest mount point containing `dir`, from
/// `/proc/self/mountinfo` (Linux; `None` elsewhere).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = fields.get(4)?.replace("\\040", " ");
            let dash = fields.iter().position(|f| *f == "-")?;
            let fs = fields.get(dash + 1)?;
            dir.starts_with(&mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The checked-out commit, read from `.git` in the working directory.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .filter(|id| !id.is_empty())
}

/// Resident set size of this process in MiB (`VmRSS`), Linux only.
pub fn rss_mb() -> Option<f64> {
    status_mib("VmRSS:")
}

/// Peak resident set size of this process in MiB (`VmHWM`), Linux only.
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM:")
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Steps of each half of the calibration loop.
const CALIB_STEPS: usize = 10_000;
/// Slots in the calibration pointer chase: 8 MiB of `usize`.
const CHASE_SLOTS: usize = 1 << 20;

/// One random cycle through [`CHASE_SLOTS`] slots (Sattolo's algorithm
/// over a fixed LCG), built once per process.
fn chase() -> &'static [usize] {
    static CHASE: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CHASE.get_or_init(|| {
        let mut next: Vec<usize> = (0..CHASE_SLOTS).collect();
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        for i in (1..CHASE_SLOTS).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next.swap(i, (state >> 33) as usize % i);
        }
        next
    })
}

/// Times one pass of a fixed loop that lives in this file, so its cost
/// never changes with the program under test: a dependent multiply-xor
/// chain (core speed) and a dependent pointer chase through 8 MiB (cache
/// and memory latency, which other tenants of the host share). Between
/// runs, a change in this number is the host changing speed, not the code.
pub fn calibrate_us() -> f64 {
    let chase = chase();
    let start = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for i in 0..CALIB_STEPS as u64 {
        x = (x.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (x >> 29)).wrapping_add(i);
    }
    let mut slot = x as usize % CHASE_SLOTS;
    for _ in 0..CALIB_STEPS {
        slot = chase[slot];
    }
    std::hint::black_box(slot);
    start.elapsed().as_secs_f64() * 1e6
}
