//! The result record the binary hands to `run.py`, and the phase
//! markers the script times.

use std::io::{BufRead, Write};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload invocation measured in-process.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted and failed: discoveries plus expected
    /// deliveries.
    pub attempted: u64,
    pub failed: u64,
    /// Inputs to the wall-clock arithmetic `run.py` does (CPU ns totals).
    pub raw: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    esc(&m.name),
                    num(m.value),
                    esc(m.unit)
                )
            })
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    esc(&c.name),
                    c.ok,
                    esc(&c.detail)
                )
            })
            .collect();
        let raw: Vec<String> = self
            .raw
            .iter()
            .map(|(k, v)| format!("{}: {}", esc(k), num(*v)))
            .collect();
        format!(
            "{{\"workload\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"checks\": [{}], \"raw\": {{{}}}}}",
            esc(&self.workload),
            self.attempted,
            self.failed,
            metrics.join(", "),
            checks.join(", "),
            raw.join(", ")
        )
    }

    /// Human-readable table of every metric and check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("  {:<36} {:>18.6} {}\n", m.name, m.value, m.unit));
        }
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                if c.ok { "ok" } else { "FAIL" },
                c.name,
                c.detail
            ));
        }
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Phase markers. With `sync` each marker is printed and the binary
/// waits for `run.py` to acknowledge it on stdin, so the script's wall
/// clock reads land exactly on the phase boundaries. Without `sync`
/// (library use, tests) markers are silent.
#[derive(Debug, Default)]
pub struct Marks {
    sync: bool,
}

impl Marks {
    pub fn new(sync: bool) -> Marks {
        Marks { sync }
    }

    pub fn begin(&mut self, label: &str) {
        self.emit(&format!("@begin {label}"));
    }

    /// Ends `label`, reporting the engine events it processed.
    pub fn end(&mut self, label: &str, events: u64) {
        self.emit(&format!("@end {label} {events}"));
    }

    fn emit(&mut self, line: &str) {
        if !self.sync {
            return;
        }
        let mut out = std::io::stdout().lock();
        writeln!(out, "{line}").expect("stdout closed");
        out.flush().expect("stdout closed");
        let mut ack = String::new();
        std::io::stdin()
            .lock()
            .read_line(&mut ack)
            .expect("marker acknowledgement");
    }
}

/// Nearest-rank percentile (`num/den`) of an ascending slice.
pub fn percentile(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * num) / den]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// FNV-1a step, for folding outcomes into a digest.
pub fn mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of each discovery phase, in paper order: the `phase.*`
/// metrics (the Fig 2/9/11 breakdown at any population).
pub fn phase_p50s(phases: &[nb_discovery::PhaseTimes]) -> Vec<Metric> {
    let names = ["issue", "collect", "select", "ping", "connect"];
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut v: Vec<u64> = phases
                .iter()
                .map(|p| [p.issue, p.collect, p.select, p.ping, p.connect][i].as_nanos() as u64)
                .collect();
            v.sort_unstable();
            Metric {
                name: format!("phase.{name}_p50_ms"),
                value: percentile(&v, 50, 100) as f64 / 1e6,
                unit: "ms",
            }
        })
        .collect()
}
