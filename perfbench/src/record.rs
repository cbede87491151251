//! The result line, the printed details and the run record.

use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::{Checks, Config, Outcome, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The metrics this run reports: the end-to-end set untraced, the
/// per-layer set traced, as (name, unit, value).
pub fn metrics(
    cfg: &Config,
    o: &Outcome,
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    if cfg.traced {
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, o.layers.get(name).copied().unwrap_or(0.0)))
            .collect();
    }
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => stats::median(&o.setup_s),
                "throughput_per_s" => o.throughput_per_s,
                "op_ms" => o.op_ms,
                "peak_rss_mb" => peak_rss_mb,
                other => unreachable!("unknown end-to-end metric {other}"),
            };
            (name, unit, value)
        })
        .collect()
}

/// Print the workload-specific values with their sample counts.
pub fn print_details(o: &Outcome) {
    println!(
        "  repetitions: {}  set-ups: {}",
        o.repetitions,
        o.setup_s.len()
    );
    for d in &o.details {
        println!("  {} = {} {} (n={})", d.name, d.value, d.unit, d.samples);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and every metric with its unit. A value that is not finite makes
/// the run incorrect rather than printing invalid JSON.
pub fn result_line(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.correct() && finite,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

fn summary_json(s: Option<Summary>) -> String {
    match s {
        None => "null".to_owned(),
        Some(s) => format!(
            "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
            s.n,
            json_num(s.min),
            json_num(s.q1),
            json_num(s.median),
            json_num(s.q3),
            json_num(s.max)
        ),
    }
}

/// The CPU model, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The filesystem type holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes it.
fn filesystem_of(dir: &std::path::Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_owned();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// Write the run record (and, traced, the spans) under
/// `<work-dir>/records/`. Returns the record's path.
pub fn write_run_record(
    cfg: &Config,
    commit: &str,
    o: &Outcome,
    metrics: &[(&str, &str, f64)],
    tracer: Option<&Tracer>,
) -> std::io::Result<PathBuf> {
    let dir = cfg.work_dir.join("records");
    std::fs::create_dir_all(&dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let base = format!(
        "{}-seed{}-{}-{stamp}",
        cfg.workload,
        cfg.seed,
        if cfg.traced { "traced" } else { "untraced" }
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": {},", json_str(&cfg.workload));
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"seconds\": {},", json_num(cfg.seconds));
    let _ = writeln!(out, "  \"traced\": {},", cfg.traced);
    let _ = writeln!(out, "  \"commit\": {},", json_str(commit));
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"cpu_model\": {},", json_str(&cpu_model()));
    let _ = writeln!(
        out,
        "  \"journal_filesystem\": {},",
        json_str(&filesystem_of(&cfg.work_dir))
    );
    let _ = writeln!(out, "  \"repetitions\": {},", o.repetitions);
    let _ = writeln!(
        out,
        "  \"attempted\": {}, \"failed\": {}, \"invariants_broken\": {},",
        o.checks.attempted, o.checks.failed, o.checks.broken
    );
    out.push_str("  \"reasons\": [");
    for (i, r) in o.checks.reasons.iter().enumerate() {
        let _ = write!(out, "{}{}", if i == 0 { "" } else { ", " }, json_str(r));
    }
    out.push_str("],\n  \"metrics\": {");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    out.push_str("\n  },\n  \"details\": {");
    for (i, d) in o.details.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(&d.name),
            json_num(d.value),
            json_str(d.unit),
            d.samples
        );
    }
    out.push_str("\n  },\n  \"series\": {");
    let mut series: Vec<(&str, &[f64])> = vec![("setup_s", &o.setup_s)];
    series.extend(o.series.iter().map(|(n, v)| (n.as_str(), v.as_slice())));
    for (i, (name, values)) in series.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: {}",
            if i == 0 { "" } else { "," },
            json_str(name),
            summary_json(stats::summary(values))
        );
    }
    out.push_str("\n  },\n  \"per_repetition\": {");
    for (i, (name, reps)) in o.per_rep.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: [",
            if i == 0 { "" } else { "," },
            json_str(name)
        );
        for (r, rep) in reps.iter().enumerate() {
            let values: Vec<String> = rep.iter().map(|v| format!("{v:.4}")).collect();
            let _ = write!(
                out,
                "{}[{}]",
                if r == 0 { "" } else { ", " },
                values.join(", ")
            );
        }
        out.push(']');
    }
    out.push_str("\n  }\n}\n");
    let path = dir.join(format!("{base}.json"));
    std::fs::write(&path, out)?;
    if let Some(t) = tracer {
        std::fs::write(dir.join(format!("{base}.trace.json")), t.to_json())?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut checks = Checks::default();
        checks.op(true, String::new);
        let line = result_line(&checks, &[("setup_s", "s", 0.5), ("op_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"op_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_failed_operation_or_a_non_finite_value_is_incorrect() {
        let mut checks = Checks::default();
        checks.op(false, || "answered Failed".into());
        assert!(result_line(&checks, &[])
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        let mut ok = Checks::default();
        ok.op(true, String::new);
        assert!(result_line(&ok, &[("x", "s", f64::NAN)]).starts_with("{\"correct\": false"));
    }
}
