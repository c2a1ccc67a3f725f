//! A hand-rolled source lint for the repo's determinism rules.
//!
//! Everything in this workspace must be a pure function of configuration and
//! seed — that is what makes replay bit-exact, the parallel sweep runner
//! byte-identical at any worker count, and result caching sound. The rules:
//!
//! - **wall-clock**: no host-time reads (`std::time` instant or system
//!   clock) outside the host-side benchmark harness (`crates/bench`) and the
//!   criterion shim. Simulated time comes from the engine, never the host.
//! - **std-hash-hot-path**: no `std::collections` hash containers in the
//!   hot-path crates (`sim`, `picos`, `core`, `nanos`, `mem`, `machine`), the
//!   streamed task source (`analyze::windowed`, `exp::stream`,
//!   `taskmodel::{source, tenant}`) or the per-task graph walks of preflight,
//!   validation and the tenant export (`analyze::graph`, `taskmodel::graph`)
//!   outside test modules — their iteration order is randomised per process
//!   and SipHash is slow; hot paths use the deterministic `FxHash` containers
//!   from `tis-sim`.
//! - **thread-spawn**: no thread creation outside the sweep runner, the one
//!   place that proved byte-identical results at any worker count.
//! - **ambient-rng**: no `rand` crate usage anywhere; all randomness derives
//!   from `SimRng` streams.
//! - **observer-chokepoint**: `tis_obs::Observer` methods are invoked only
//!   from the obs crate itself and the engine's two emission sites
//!   (`crates/machine/src/context.rs`, `crates/machine/src/engine.rs`).
//!   Every other layer buffers plain data behind an `observing` flag and is
//!   drained *by* the engine — that is what keeps the obs-off path provably
//!   free and the event streams totally ordered. Integration tests may drive
//!   observers directly.
//!
//! The scan is plain substring matching over source lines (comments count:
//! a commented-out wall-clock read is one `git revert` away from running).
//! Needles are assembled from parts at runtime so this file never matches
//! its own rule definitions. Lines may carry an explicit
//! `tis-lint: allow(<rule>)` waiver; none exist in the workspace today, but
//! the escape hatch keeps the lint honest rather than bypassed.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One determinism rule: substring needles plus path scoping.
#[derive(Debug, Clone)]
pub struct LintRule {
    /// Stable rule name, used in findings and waiver comments.
    pub name: &'static str,
    /// Substrings whose presence on a line is a violation.
    needles: Vec<String>,
    /// Path prefixes (relative to the workspace root, `/`-separated) where
    /// the rule does not apply.
    allowed_prefixes: Vec<&'static str>,
    /// If set, the rule applies only under these prefixes.
    only_prefixes: Option<Vec<&'static str>>,
    /// Ignore matches after the first `#[cfg(test)]` at the start of a line
    /// (test modules sit at the bottom of every file in this workspace). An
    /// indented one gates a single field, statement or method inside
    /// production code and exempts nothing.
    exempt_test_code: bool,
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Name of the violated rule.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.excerpt)
    }
}

/// The workspace's determinism rules.
pub fn default_rules() -> Vec<LintRule> {
    vec![
        LintRule {
            name: "wall-clock",
            needles: vec![
                format!("{}::now", "Instant"),
                format!("{}Time", "System"),
            ],
            // Bench harnesses measure host throughput by design; the host-time
            // figures stay on stdout and never enter a JSON artifact.
            allowed_prefixes: vec!["crates/bench/", "crates/exp/benches/", "shims/criterion/"],
            only_prefixes: None,
            exempt_test_code: false,
        },
        LintRule {
            name: "std-hash-hot-path",
            needles: vec![
                format!("std::{}::HashMap", "collections"),
                format!("std::{}::HashSet", "collections"),
            ],
            allowed_prefixes: vec![],
            only_prefixes: Some(vec![
                "crates/sim/",
                "crates/picos/",
                "crates/core/",
                "crates/nanos/",
                "crates/mem/",
                "crates/machine/",
                // The streamed task source runs once per spawned task.
                "crates/analyze/src/windowed.rs",
                "crates/exp/src/stream.rs",
                "crates/taskmodel/src/source.rs",
                "crates/taskmodel/src/tenant.rs",
                // Preflight, validation and the tenant export walk every task once per cell.
                "crates/analyze/src/graph.rs",
                "crates/taskmodel/src/graph.rs",
            ]),
            exempt_test_code: true,
        },
        LintRule {
            name: "thread-spawn",
            needles: vec![
                format!("{}::spawn", "thread"),
                format!("{}::scope", "thread"),
            ],
            allowed_prefixes: vec!["crates/exp/src/runner.rs"],
            only_prefixes: None,
            exempt_test_code: false,
        },
        LintRule {
            name: "ambient-rng",
            needles: vec![
                format!("{}::thread_rng", "rand"),
                format!("{}::random", "rand"),
                format!("{}::rngs", "rand"),
            ],
            allowed_prefixes: vec![],
            only_prefixes: None,
            exempt_test_code: false,
        },
        LintRule {
            name: "observer-chokepoint",
            needles: vec![
                format!(".{}(", "on_task"),
                format!(".{}(", "on_task_repeated"),
                format!(".{}(", "on_mem"),
                format!(".{}(", "on_sample"),
            ],
            allowed_prefixes: vec![
                "crates/obs/",
                "crates/machine/src/context.rs",
                "crates/machine/src/engine.rs",
                "tests/",
            ],
            only_prefixes: None,
            exempt_test_code: true,
        },
    ]
}

fn waiver_for(line: &str, rule: &str) -> bool {
    // `tis-lint: allow(rule)` anywhere on the line waives that rule there.
    line.contains(&format!("tis-lint: allow({rule})"))
}

/// Lints one file's contents against `rules`. `rel_path` is the
/// workspace-relative path with `/` separators; it drives the path scoping.
pub fn lint_source(rules: &[LintRule], rel_path: &str, contents: &str) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let cfg_test_marker = format!("#[cfg({})]", "test");
    let mut in_test_code = false;
    for (i, line) in contents.lines().enumerate() {
        if line.starts_with(&cfg_test_marker) {
            in_test_code = true;
        }
        for rule in rules {
            if let Some(only) = &rule.only_prefixes {
                if !only.iter().any(|p| rel_path.starts_with(p)) {
                    continue;
                }
            }
            if rule.allowed_prefixes.iter().any(|p| rel_path.starts_with(p)) {
                continue;
            }
            if rule.exempt_test_code && in_test_code {
                continue;
            }
            if rule.needles.iter().any(|n| line.contains(n.as_str()))
                && !waiver_for(line, rule.name)
            {
                findings.push(LintFinding {
                    rule: rule.name,
                    path: rel_path.to_string(),
                    line: i + 1,
                    excerpt: line.trim().to_string(),
                });
            }
        }
    }
    findings
}

/// Recursively collects the workspace's `.rs` files (sorted, so findings are
/// deterministic), skipping build output and VCS internals.
fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `root` against `rules`.
pub fn lint_workspace(root: &Path, rules: &[LintRule]) -> io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let contents = fs::read_to_string(&path)?;
        findings.extend(lint_source(rules, &rel, &contents));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(path: &str, contents: &str) -> Vec<LintFinding> {
        lint_source(&default_rules(), path, contents)
    }

    #[test]
    fn wall_clock_read_is_flagged_outside_bench() {
        let src = format!("fn f() {{ let t = {}::now(); }}\n", "Instant");
        let hits = findings_for("crates/machine/src/engine.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "wall-clock");
        assert_eq!(hits[0].line, 1);
        // The same line inside the bench harness is the measurement loop.
        assert!(findings_for("crates/bench/benches/micro.rs", &src).is_empty());
        assert!(findings_for("shims/criterion/src/lib.rs", &src).is_empty());
    }

    #[test]
    fn system_time_is_flagged() {
        let src = format!("use std::time::{}Time;\n", "System");
        assert_eq!(findings_for("crates/sim/src/rng.rs", &src).len(), 1);
    }

    #[test]
    fn std_hash_map_is_flagged_only_in_hot_path_crates() {
        let src = format!("use std::{}::HashMap;\n", "collections");
        let hits = findings_for("crates/picos/src/tracker.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "std-hash-hot-path");
        assert_eq!(findings_for("crates/mem/src/system.rs", &src).len(), 1);
        assert_eq!(findings_for("crates/machine/src/engine.rs", &src).len(), 1);
        // The streamed source path is hot too, file by file.
        assert_eq!(findings_for("crates/analyze/src/windowed.rs", &src).len(), 1);
        assert_eq!(findings_for("crates/exp/src/stream.rs", &src).len(), 1);
        assert_eq!(findings_for("crates/taskmodel/src/source.rs", &src).len(), 1);
        assert_eq!(findings_for("crates/taskmodel/src/tenant.rs", &src).len(), 1);
        // So are the per-task graph walks of preflight, validation and the tenant export.
        assert_eq!(findings_for("crates/analyze/src/graph.rs", &src).len(), 1);
        assert_eq!(findings_for("crates/taskmodel/src/graph.rs", &src).len(), 1);
        // Cold-path files may use std maps (e.g. the report writers, the protocol checker).
        assert!(findings_for("crates/exp/src/report.rs", &src).is_empty());
        assert!(findings_for("crates/analyze/src/protocol.rs", &src).is_empty());
    }

    #[test]
    fn std_hash_in_a_test_module_is_exempt() {
        let src = format!(
            "pub fn real() {{}}\n#[cfg({})]\nmod tests {{\n    use std::{}::HashSet;\n}}\n",
            "test", "collections"
        );
        assert!(findings_for("crates/core/src/rocc.rs", &src).is_empty());
        // But before the test marker it still counts.
        let src = format!(
            "use std::{}::HashSet;\n#[cfg({})]\nmod tests {{}}\n",
            "collections", "test"
        );
        assert_eq!(findings_for("crates/core/src/rocc.rs", &src).len(), 1);
    }

    #[test]
    fn an_indented_test_gate_does_not_exempt_the_code_after_it() {
        // A test-only field or statement inside production code gates that one item; the
        // methods after it are still production code.
        let src = format!(
            "pub struct S {{\n    #[cfg({test})]\n    probe: bool,\n}}\n\
             impl S {{\n    fn f(&self) {{\n        #[cfg({test})]\n        if self.probe {{}}\n\
             let m = std::{c}::HashMap::<u8, u8>::new();\n        o.{obs}(&e);\n    }}\n}}\n\
             #[cfg({test})]\nmod tests {{\n    use std::{c}::HashSet;\n}}\n",
            test = "test",
            c = "collections",
            obs = "on_task",
        );
        let hits = findings_for("crates/mem/src/system.rs", &src);
        let rules: Vec<_> = hits.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(rules, [("std-hash-hot-path", 9), ("observer-chokepoint", 10)]);
    }

    #[test]
    fn thread_spawn_is_flagged_outside_the_sweep_runner() {
        let src = format!("std::{}::spawn(|| {{}});\n", "thread");
        let hits = findings_for("crates/nanos/src/runtime.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "thread-spawn");
        assert!(findings_for("crates/exp/src/runner.rs", &src).is_empty());
        let scoped = format!("std::{}::scope(|s| {{}});\n", "thread");
        assert_eq!(findings_for("crates/bench/src/lib.rs", &scoped).len(), 1);
    }

    #[test]
    fn ambient_rng_is_flagged_everywhere() {
        let src = format!("let x: u64 = {}::random();\n", "rand");
        for path in ["crates/sim/src/rng.rs", "crates/exp/src/synth.rs", "src/lib.rs"] {
            let hits = findings_for(path, &src);
            assert_eq!(hits.len(), 1, "{path}");
            assert_eq!(hits[0].rule, "ambient-rng");
        }
    }

    #[test]
    fn observer_calls_are_flagged_outside_the_chokepoint() {
        let src = format!("obs.{}(&event);\n", "on_task");
        let hits = findings_for("crates/mem/src/system.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "observer-chokepoint");
        // The engine's two emission sites, the obs crate, and integration tests may call
        // observer methods directly.
        assert!(findings_for("crates/machine/src/context.rs", &src).is_empty());
        assert!(findings_for("crates/machine/src/engine.rs", &src).is_empty());
        assert!(findings_for("crates/obs/src/recorder.rs", &src).is_empty());
        assert!(findings_for("tests/observability.rs", &src).is_empty());
        // The other two streams are fenced the same way.
        let mem = format!("o.{}(&leg);\n", "on_mem");
        assert_eq!(findings_for("crates/picos/src/device.rs", &mem).len(), 1);
        let sample = format!("o.{}(&snapshot);\n", "on_sample");
        assert_eq!(findings_for("crates/core/src/fabric.rs", &sample).len(), 1);
        // So is the batched form of the task stream.
        let repeated = format!("o.{}(&e, 40, 3);\n", "on_task_repeated");
        let hits = findings_for("crates/core/src/phentos.rs", &repeated);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "observer-chokepoint");
        assert!(findings_for("crates/machine/src/engine.rs", &repeated).is_empty());
        assert!(findings_for("crates/machine/src/context.rs", &repeated).is_empty());
        // Unit-test modules (after the cfg marker) are exempt.
        let in_test = format!("#[cfg({})]\nmod tests {{\n    o.{}(&e);\n}}\n", "test", "on_task");
        assert!(findings_for("crates/nanos/src/runtime.rs", &in_test).is_empty());
    }

    #[test]
    fn waiver_comment_suppresses_a_single_rule() {
        let src = format!(
            "let t = {}::now(); // tis-lint: allow(wall-clock)\n",
            "Instant"
        );
        assert!(findings_for("crates/machine/src/engine.rs", &src).is_empty());
        // A waiver for a different rule does not help.
        let src = format!(
            "let t = {}::now(); // tis-lint: allow(ambient-rng)\n",
            "Instant"
        );
        assert_eq!(findings_for("crates/machine/src/engine.rs", &src).len(), 1);
    }

    #[test]
    fn lint_workspace_walks_files_and_reports_relative_paths() {
        let dir = std::env::temp_dir().join(format!("tis-lint-walk-{}", std::process::id()));
        let src_dir = dir.join("crates/machine/src");
        fs::create_dir_all(&src_dir).unwrap();
        // A decoy build-output directory that must be skipped.
        let target_dir = dir.join("target/debug");
        fs::create_dir_all(&target_dir).unwrap();
        let bad = format!("fn f() {{ let t = {}::now(); }}\n", "Instant");
        fs::write(src_dir.join("engine.rs"), &bad).unwrap();
        fs::write(target_dir.join("generated.rs"), &bad).unwrap();
        fs::write(src_dir.join("clean.rs"), "fn g() {}\n").unwrap();

        let findings = lint_workspace(&dir, &default_rules()).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "crates/machine/src/engine.rs");
        assert_eq!(findings[0].rule, "wall-clock");
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // CARGO_MANIFEST_DIR = crates/analyze; the workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_workspace(&root, &default_rules()).unwrap();
        assert!(
            findings.is_empty(),
            "determinism lint violations:\n{}",
            findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
        );
    }
}
