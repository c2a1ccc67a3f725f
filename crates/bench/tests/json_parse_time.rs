//! Regression gate: `Json::parse` runs in time linear in the bytes of its string values.
//!
//! The parser once re-validated the whole remaining input as UTF-8 for every unescaped
//! character, so a 2.4 MB Perfetto trace took 38 s to read back. The check is timed, so it
//! lives in the bench crate, the one place host wall-clock reads are allowed.

use std::time::{Duration, Instant};

use tis_sim::json::Json;

/// Over 100× a linear parse of the document below, about 50 ms in a debug build on a 2-vCPU
/// x86-64 container; the quadratic parser needed minutes.
const BOUND: Duration = Duration::from_secs(5);

#[test]
fn parsing_a_string_heavy_document_is_linear() {
    // 4,096 strings of about 1.1 KB: multi-byte text with an escape in the middle.
    let text = "task body é → 😀 ".repeat(32);
    let item = Json::Str(format!("{text}\"quoted\\path\"{text}"));
    let doc = Json::Arr(vec![item; 4_096]).render();
    assert!(doc.len() >= 4 << 20, "document is {} bytes", doc.len());
    let start = Instant::now();
    let parsed = Json::parse(&doc).expect("the writer's output parses");
    let elapsed = start.elapsed();
    println!("parsed {} bytes in {elapsed:?}", doc.len());
    assert!(
        elapsed < BOUND,
        "parsing {} bytes took {elapsed:?}",
        doc.len()
    );
    assert_eq!(parsed.render(), doc);
}
