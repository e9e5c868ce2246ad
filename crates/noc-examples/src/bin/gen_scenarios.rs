//! Regenerates the `tests/scenarios/` corpus from the builders in
//! [`noc_examples::scenarios`]. The checked-in files are exact emitter output, so
//! `emit(parse(file)) == file` — asserted by `tests/scenario_text.rs`,
//! which makes the corpus double as grammar-stability fixtures. Also
//! runs every file on every backend and writes the numbers to
//! `GOLDEN.txt` beside them ([`noc_examples::golden`]), and rewrites the
//! grammar block of the README (between its two marker comments) with
//! [`noc_scenario::grammar_reference`]. Run this after changing a
//! builder, the text format or anything a simulation's timing depends
//! on, then commit the diff — a golden diff is a behaviour change.

use noc_examples::golden;
use noc_examples::scenarios::{
    bursty_storm_spec, clocked_mixed_spec, deep_pipeline_spec, exclusive_sweep, layering_sweep,
    ordering_sweep, qos_sweep, ring_mixed_spec, scale_sweep, serve_sweep, services_spec,
    sparse_mesh_32_spec, sparse_mesh_spec, trace_replay_spec, trace_replay_trace,
    zipf_hotspot_mesh16_spec, zipf_hotspot_spec,
};
use noc_workloads::{SetTop, SetTopConfig};
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/scenarios");
    std::fs::create_dir_all(&dir)?;
    let files: Vec<(&str, String)> = vec![
        (
            "set_top.scn",
            SetTop::new(SetTopConfig::new(32, 2005)).scenario_text(),
        ),
        ("layering_settop.scn", layering_sweep().to_text()),
        ("qos_classes.scn", qos_sweep().to_text()),
        ("ordering_sweep.scn", ordering_sweep().to_text()),
        ("scale_mesh.scn", scale_sweep(&[2, 3, 4, 6], 24).to_text()),
        ("clocked_mixed.scn", clocked_mixed_spec().to_text()),
        ("ring_mixed.scn", ring_mixed_spec().to_text()),
        ("deep_pipeline.scn", deep_pipeline_spec().to_text()),
        ("services.scn", services_spec().to_text()),
        ("exclusive_locks.scn", exclusive_sweep().to_text()),
        ("serve_sweep.scn", serve_sweep(3, 6).to_text()),
        ("mesh_8x8_sparse.scn", sparse_mesh_spec(8).to_text()),
        ("mesh_16x16_sparse.scn", sparse_mesh_spec(16).to_text()),
        ("mesh_32x32_sparse.scn", sparse_mesh_32_spec().to_text()),
        ("bursty_storm.scn", bursty_storm_spec().to_text()),
        ("zipf_hotspot.scn", zipf_hotspot_spec().to_text()),
        (
            "zipf_hotspot_mesh16.scn",
            zipf_hotspot_mesh16_spec().to_text(),
        ),
        // Companion data, not a scenario: the trace the replay file
        // loads, so written before it. Written here so the
        // git-porcelain CI check pins it to the generator too.
        ("trace_replay.trace", trace_replay_trace()),
        ("trace_replay.scn", trace_replay_spec().to_text()),
    ];
    let mut docs = Vec::new();
    for (name, text) in &files {
        let path = dir.join(name);
        std::fs::write(&path, text)?;
        println!("wrote {} ({} lines)", path.display(), text.lines().count());
        if name.ends_with(".scn") {
            let mut doc = noc_scenario::parse_document(text)?;
            doc.resolve_trace_paths(&dir);
            docs.push((name.to_string(), doc));
        }
    }
    docs.sort_by(|(a, _), (b, _)| a.cmp(b));
    let rows = golden::render(&docs, |_, _, spec, backend| {
        golden::run(
            spec,
            backend,
            noc_scenario::StepMode::Horizon,
            golden::MAX_CYCLES,
        )
    });
    let path = dir.join(golden::FILE_NAME);
    std::fs::write(&path, &rows)?;
    println!("wrote {} ({} lines)", path.display(), rows.lines().count());
    let readme = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let text = std::fs::read_to_string(&readme)?;
    let (begin, end) = ("<!-- grammar:begin", "<!-- grammar:end -->");
    let (Some(from), Some(to)) = (text.find(begin), text.find(end)) else {
        return Err("README.md has lost its grammar markers".into());
    };
    let body = from + text[from..].find('\n').ok_or("unterminated marker")? + 1;
    let grammar = noc_scenario::grammar_reference();
    let text = format!("{}```toml\n{grammar}```\n{}", &text[..body], &text[to..]);
    std::fs::write(&readme, text)?;
    println!("wrote {} (grammar block)", readme.display());
    Ok(())
}
