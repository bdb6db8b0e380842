//! Per-app and per-document layer probes of the traced run: source
//! parse, symbolic extraction and JSON parse, each timed on its own from
//! the benchmark through the crate's public entry point.

use crate::util::{median, Sheet};
use hg_rules::json::Json;
use hg_symexec::{extract, ExtractorConfig};
use std::time::Instant;

/// Median time of `reps` calls of `f`, in µs.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `lang.parse_us` and `symexec.extract_us`: mean over the distinct apps
/// of the per-app median.
pub fn parse_and_extract(apps: &[(&str, &str)], sheet: &mut Sheet) {
    let config = ExtractorConfig::extended();
    let (mut parse, mut extracted) = (0.0, 0.0);
    for (name, source) in apps {
        parse += time_us(20, || {
            std::hint::black_box(hg_lang::parser::parse(std::hint::black_box(source)).ok());
        });
        extracted += time_us(20, || {
            std::hint::black_box(extract(std::hint::black_box(source), name, &config).ok());
        });
    }
    let n = apps.len().max(1) as f64;
    sheet.put("lang.parse_us", parse / n, "us");
    sheet.put("symexec.extract_us", extracted / n, "us");
    sheet.put("lang.distinct_apps", apps.len() as f64, "count");
}

/// `rules.json_parse_us_per_kb` on two snapshot documents, a small fleet's
/// and a fleet ten times larger, and the ratio of the two per-KB costs:
/// about 1 when parsing is linear.
pub fn json_parse(small: &str, large: &str, sheet: &mut Sheet) -> Result<(), String> {
    let per_kb = |text: &str, reps: usize| -> Result<f64, String> {
        let mut parsed = true;
        let micros = time_us(reps, || {
            parsed &= std::hint::black_box(Json::parse(std::hint::black_box(text))).is_ok();
        });
        if !parsed {
            return Err("a fleet snapshot does not parse".to_string());
        }
        Ok(micros / (text.len() as f64 / 1024.0))
    };
    let small_cost = per_kb(small, 5)?;
    let large_cost = per_kb(large, 1)?;
    sheet.put("rules.json_parse_us_per_kb_small", small_cost, "us/KB");
    sheet.put("rules.json_parse_us_per_kb_large", large_cost, "us/KB");
    sheet.put("rules.json_parse_scaling", large_cost / small_cost, "ratio");
    sheet.put("rules.json_small_kb", small.len() as f64 / 1024.0, "KB");
    sheet.put("rules.json_large_kb", large.len() as f64 / 1024.0, "KB");
    Ok(())
}
