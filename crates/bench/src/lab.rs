//! The bench lab: an append-only run store plus the analysis views and
//! regression gate over it.
//!
//! Every `bench-json-*` invocation of the `experiments` binary appends
//! one [`RunRecord`] — git revision, timestamp, config, the
//! machine-charge scenario rows, and the wall-clock metrics — to
//! `lab/runs.jsonl` (see [`runs_path`]), while still writing the
//! compatible `BENCH_*.json` snapshot. The store is JSONL under the
//! write-ahead journal's durability discipline
//! ([`spatial_trees::store::append_line`]): appends are fsynced, a
//! crash leaves at most one torn tail line, and readers keep the
//! intact prefix. Each line additionally carries a CRC-32 over its own
//! bytes, so a damaged line (and everything after it, per the
//! journal's prefix rule) is dropped rather than trusted.
//!
//! Three views answer the questions one-shot `BENCH_*.json` snapshots
//! cannot (`experiments -- lab-regress | lab-sweep | lab-ab`), and
//! [`regression_report`] backs the noise-aware CI gate
//! (`experiments -- lab-gate`): deterministic machine-charge rows are
//! compared **exactly** against the prior revision (zero noise
//! budget), wall-clock ratios under a tolerance derived from the
//! stored runs' own dispersion — `max(rel_eps · prior_median,
//! mad_k · MAD)`. The noise model is documented in
//! `crates/bench/DESIGN.md`.
//!
//! The numeric acceptance bars (a speedup a kernel must keep, a
//! checkpoint size it must stay under) are declared once, in [`BARS`]:
//! the writers check a fresh run against them before writing its
//! snapshot, and the gate checks each bench's latest stored run.

use crate::{median, Speedup};
use spatial_trees::model::CostReport;
use spatial_trees::store;
use std::collections::BTreeMap;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Minimal JSON (the offline workspace has no serde): a parser for the
// subset the lab emits — objects, arrays, strings, finite numbers,
// booleans, null.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; the lab's integers stay exact well
    /// below 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|v| v.is_finite())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|e| format!("invalid utf-8 in string: {e}"))
            }
            b'\\' => {
                let esc = *bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        let ch = char::from_u32(hex).ok_or("bad \\u codepoint")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    _ => return Err(format!("unknown escape '\\{}'", esc as char)),
                }
            }
            _ => out.push(b),
        }
    }
    Err("unterminated string".into())
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "lab metrics must be finite");
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

// ---------------------------------------------------------------------------
// The run record.
// ---------------------------------------------------------------------------

/// Current line format version.
pub const LAB_FORMAT_VERSION: u64 = 1;

/// One machine-charge scenario row, mirroring the shared `scenarios`
/// schema of the `BENCH_*.json` files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRow {
    /// Scenario name (e.g. `subtree_sums`).
    pub scenario: String,
    /// Implementation under that scenario (e.g. `spatial`, `pram`).
    pub impl_name: String,
    /// Workload family (e.g. `uniform_random`, `in-order-list`).
    pub family: String,
    /// Problem size.
    pub n: u64,
    /// Curve name.
    pub curve: String,
    /// Machine-model charges.
    pub energy: u64,
    /// Depth charge.
    pub depth: u64,
    /// Message count.
    pub messages: u64,
    /// Work charge.
    pub work: u64,
    /// PRAM step count, when the impl reports one.
    pub steps: Option<u64>,
    /// Whether the charges are deterministic for fixed code + seeds.
    /// Deterministic rows get a zero noise budget in the gate;
    /// non-deterministic rows (e.g. totals that depend on queue-timing
    /// coalescing) are compared under the wall-noise tolerance.
    pub det: bool,
}

impl ScenarioRow {
    /// The identity the views and the gate join rows on.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/n={}/{}",
            self.scenario, self.impl_name, self.family, self.n, self.curve
        )
    }

    /// The gated charge fields, by name.
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("energy", self.energy),
            ("depth", self.depth),
            ("messages", self.messages),
            ("work", self.work),
        ]
    }
}

/// How a wall metric is interpreted by the views and the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallKind {
    /// A duration (any unit — the name says which): lower is better.
    /// Not gated by default — absolute times do not transfer across
    /// machines; the machine-portable ratios carry the gate.
    Time,
    /// A dimensionless speedup (optimized vs reference on the same
    /// box): higher is better, gated noise-aware against prior runs.
    Ratio,
    /// Recorded for the views, never gated (e.g. QPS figures whose
    /// scale is machine-bound).
    Info,
}

impl WallKind {
    fn name(self) -> &'static str {
        match self {
            WallKind::Time => "time",
            WallKind::Ratio => "ratio",
            WallKind::Info => "info",
        }
    }

    fn from_name(s: &str) -> Option<WallKind> {
        match s {
            "time" => Some(WallKind::Time),
            "ratio" => Some(WallKind::Ratio),
            "info" => Some(WallKind::Info),
            _ => None,
        }
    }
}

/// One wall-clock (or derived) metric of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct WallMetric {
    /// Metric name, unique within the run's bench.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Interpretation (see [`WallKind`]).
    pub kind: WallKind,
}

/// One appended lab run: everything a later session needs to compare a
/// revision's performance claims against history.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Which bench family wrote the run (e.g. `sfc_treefix`).
    pub bench: String,
    /// Git revision of the tree that produced the run.
    pub git_rev: String,
    /// Unix seconds at append time.
    pub timestamp: u64,
    /// Free-form config axes (`profile` is always present).
    pub config: Vec<(String, String)>,
    /// Machine-charge rows.
    pub scenarios: Vec<ScenarioRow>,
    /// Wall metrics.
    pub wall: Vec<WallMetric>,
}

impl RunRecord {
    /// Config lookup.
    pub fn config_get(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The build profile the run was measured under.
    pub fn profile(&self) -> &str {
        self.config_get("profile").unwrap_or("release")
    }

    /// Serializes the record as one CRC-framed JSONL line (no trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(1024);
        // Fixed-width CRC window at bytes 8..16, patched below.
        s.push_str("{\"crc\":\"00000000\"");
        s.push_str(&format!(",\"v\":{LAB_FORMAT_VERSION}"));
        s.push_str(&format!(",\"bench\":\"{}\"", escape_json(&self.bench)));
        s.push_str(&format!(",\"rev\":\"{}\"", escape_json(&self.git_rev)));
        s.push_str(&format!(",\"ts\":{}", self.timestamp));
        s.push_str(",\"config\":{");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        s.push_str("},\"scenarios\":[");
        for (i, row) in self.scenarios.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let steps = row
                .steps
                .map(|v| format!(",\"steps\":{v}"))
                .unwrap_or_default();
            s.push_str(&format!(
                "{{\"scenario\":\"{}\",\"impl\":\"{}\",\"family\":\"{}\",\"n\":{},\"curve\":\"{}\",\"energy\":{},\"depth\":{},\"messages\":{},\"work\":{}{steps},\"det\":{}}}",
                escape_json(&row.scenario),
                escape_json(&row.impl_name),
                escape_json(&row.family),
                row.n,
                escape_json(&row.curve),
                row.energy,
                row.depth,
                row.messages,
                row.work,
                row.det,
            ));
        }
        s.push_str("],\"wall\":[");
        for (i, m) in self.wall.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"value\":{},\"kind\":\"{}\"}}",
                escape_json(&m.name),
                fmt_f64(m.value),
                m.kind.name(),
            ));
        }
        s.push_str("]}");
        // CRC-32 over the line with the CRC window zeroed, then patch
        // the window — readers re-zero and verify.
        let crc = store::crc32(s.as_bytes());
        s.replace_range(8..16, &format!("{crc:08x}"));
        s
    }

    /// Parses and CRC-verifies one line produced by [`Self::to_line`].
    pub fn from_line(line: &str) -> Result<RunRecord, String> {
        const WINDOW: std::ops::Range<usize> = 8..16;
        if !line.starts_with("{\"crc\":\"") || line.len() < 17 {
            return Err("not a lab run line (missing crc frame)".into());
        }
        let stored = u32::from_str_radix(&line[WINDOW], 16)
            .map_err(|_| "crc field is not hex".to_string())?;
        let mut zeroed = line.as_bytes().to_vec();
        zeroed[WINDOW].fill(b'0');
        let computed = store::crc32(&zeroed);
        if computed != stored {
            return Err(format!(
                "crc mismatch: stored {stored:08x}, computed {computed:08x}"
            ));
        }
        let doc = parse_json(line)?;
        let version = doc.get("v").and_then(Json::as_u64).ok_or("missing v")?;
        if version != LAB_FORMAT_VERSION {
            return Err(format!("unsupported lab format version {version}"));
        }
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing {key}"))
        };
        let mut config = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("config") {
            for (k, v) in fields {
                config.push((
                    k.clone(),
                    v.as_str().ok_or("non-string config value")?.to_string(),
                ));
            }
        }
        let mut scenarios = Vec::new();
        for row in doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .ok_or("missing scenarios")?
        {
            let s = |key: &str| -> Result<String, String> {
                row.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("scenario row missing {key}"))
            };
            let u = |key: &str| -> Result<u64, String> {
                row.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("scenario row missing {key}"))
            };
            scenarios.push(ScenarioRow {
                scenario: s("scenario")?,
                impl_name: s("impl")?,
                family: s("family")?,
                n: u("n")?,
                curve: s("curve")?,
                energy: u("energy")?,
                depth: u("depth")?,
                messages: u("messages")?,
                work: u("work")?,
                steps: row.get("steps").and_then(Json::as_u64),
                det: matches!(row.get("det"), Some(Json::Bool(true)) | None),
            });
        }
        let mut wall = Vec::new();
        for m in doc
            .get("wall")
            .and_then(Json::as_arr)
            .ok_or("missing wall")?
        {
            wall.push(WallMetric {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("wall metric missing name")?
                    .to_string(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("wall metric missing value")?,
                kind: m
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(WallKind::from_name)
                    .ok_or("wall metric missing kind")?,
            });
        }
        Ok(RunRecord {
            bench: str_field("bench")?,
            git_rev: str_field("rev")?,
            timestamp: doc.get("ts").and_then(Json::as_u64).ok_or("missing ts")?,
            config,
            scenarios,
            wall,
        })
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// Where the run store lives: `$LAB_DIR/runs.jsonl`, default
/// `lab/runs.jsonl` relative to the working directory (the workspace
/// root for CI and the documented invocations).
pub fn runs_path() -> PathBuf {
    let dir = std::env::var("LAB_DIR").unwrap_or_else(|_| "lab".into());
    PathBuf::from(dir).join("runs.jsonl")
}

/// The readable history of a run store, with its damage accounting.
#[derive(Debug, Default)]
pub struct RunHistory {
    /// Intact, CRC-verified runs in append order.
    pub runs: Vec<RunRecord>,
    /// Complete lines dropped because of a CRC/parse failure (the
    /// first bad line and everything after it, per the journal's
    /// intact-prefix rule).
    pub dropped_lines: usize,
    /// Bytes of unterminated torn tail dropped by the framing layer.
    pub torn_tail_bytes: usize,
}

/// Appends one run to the store at `path`.
pub fn append_run(path: impl AsRef<std::path::Path>, record: &RunRecord) -> std::io::Result<()> {
    store::append_line(path, record.to_line().as_bytes())
}

/// Reads the intact prefix of the store at `path`: framing drops a
/// torn tail; a CRC or schema failure on a complete line drops that
/// line and everything after it (the journal's prefix discipline —
/// nothing beyond the first damage is trusted).
pub fn read_runs(path: impl AsRef<std::path::Path>) -> std::io::Result<RunHistory> {
    let framed = store::read_lines(path)?;
    let mut history = RunHistory {
        torn_tail_bytes: framed.torn_tail_bytes,
        ..RunHistory::default()
    };
    for (i, line) in framed.lines.iter().enumerate() {
        match RunRecord::from_line(line) {
            Ok(run) => history.runs.push(run),
            Err(_) => {
                history.dropped_lines = framed.lines.len() - i;
                break;
            }
        }
    }
    Ok(history)
}

// ---------------------------------------------------------------------------
// The builder the bench writers drive.
// ---------------------------------------------------------------------------

/// Collects one bench invocation's rows and metrics, then appends the
/// run to the store. The `scenario_row` method doubles as the
/// `BENCH_*.json` row formatter so every writer records each row in
/// both places with one call.
pub struct LabRun {
    record: RunRecord,
}

impl LabRun {
    /// Starts a run for `bench`, capturing the git revision
    /// (`LAB_GIT_REV` overrides the `git rev-parse` probe), the
    /// timestamp, and the build profile.
    pub fn new(bench: &str) -> LabRun {
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        LabRun {
            record: RunRecord {
                bench: bench.to_string(),
                git_rev: current_git_rev(),
                timestamp: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
                config: vec![("profile".into(), profile.into())],
                scenarios: Vec::new(),
                wall: Vec::new(),
            },
        }
    }

    /// Adds a config axis (workload shape, sizes, options).
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.record.config.push((key.into(), value.to_string()));
    }

    /// Records one deterministic machine-charge row and returns it
    /// formatted for the `scenarios` array of the `BENCH_*.json`
    /// snapshot (the shared schema `tests/bench_schema.rs` checks).
    #[allow(clippy::too_many_arguments)]
    pub fn scenario_row(
        &mut self,
        scenario: &str,
        impl_name: &str,
        family: &str,
        n: u64,
        curve: &str,
        r: CostReport,
        steps: Option<u32>,
    ) -> String {
        self.record.scenarios.push(ScenarioRow {
            scenario: scenario.to_string(),
            impl_name: impl_name.to_string(),
            family: family.to_string(),
            n,
            curve: curve.to_string(),
            energy: r.energy,
            depth: r.depth,
            messages: r.messages,
            work: r.work,
            steps: steps.map(u64::from),
            det: true,
        });
        let steps = steps
            .map(|s| format!(", \"steps\": {s}"))
            .unwrap_or_default();
        format!(
            "    {{\"scenario\": \"{scenario}\", \"impl\": \"{impl_name}\", \"family\": \"{family}\", \"n\": {n}, \"curve\": \"{curve}\", \"energy\": {}, \"depth\": {}, \"messages\": {}, \"work\": {}{steps}}}",
            r.energy, r.depth, r.messages, r.work
        )
    }

    /// Like [`Self::scenario_row`] for rows whose charges are *not*
    /// run-to-run deterministic (e.g. session totals that depend on
    /// queue-timing coalescing) — the gate compares them under the
    /// noise tolerance instead of exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn scenario_row_nondet(
        &mut self,
        scenario: &str,
        impl_name: &str,
        family: &str,
        n: u64,
        curve: &str,
        r: CostReport,
        steps: Option<u32>,
    ) -> String {
        let row = self.scenario_row(scenario, impl_name, family, n, curve, r, steps);
        self.record.scenarios.last_mut().expect("pushed").det = false;
        row
    }

    /// Records an optimized/reference timing pair plus its speedup:
    /// `{name}.optimized` and `{name}.reference` as [`WallKind::Time`],
    /// `{name}.speedup` as the gated [`WallKind::Ratio`].
    pub fn wall_pair(&mut self, name: &str, pair: Speedup) {
        self.wall_time(&format!("{name}.optimized"), pair.optimized);
        self.wall_time(&format!("{name}.reference"), pair.reference);
        self.wall_ratio(&format!("{name}.speedup"), pair.speedup);
    }

    /// Records each named pair (see [`Self::wall_pair`]), prints
    /// them as a speedup table, and returns the rows of the snapshot's
    /// `results` array. `unit` names the timings in the table headers
    /// and the JSON keys (`ms`, `ns_per_op`); `decimals` is their
    /// precision.
    pub fn speedup_table(
        &mut self,
        unit: &str,
        decimals: usize,
        pairs: &[(&str, Speedup)],
    ) -> String {
        let mut table = crate::Table::new([
            "benchmark".to_string(),
            format!("optimized {unit}"),
            format!("reference {unit}"),
            "speedup".to_string(),
        ]);
        let mut rows = Vec::with_capacity(pairs.len());
        for &(name, pair) in pairs {
            let Speedup {
                optimized: opt,
                reference,
                speedup,
            } = pair;
            table.row([
                name.to_string(),
                format!("{opt:.decimals$}"),
                format!("{reference:.decimals$}"),
                format!("{speedup:.2}x"),
            ]);
            rows.push(format!(
                "    {{\"name\": \"{name}\", \"optimized_{unit}\": {opt:.decimals$}, \"reference_{unit}\": {reference:.decimals$}, \"speedup\": {speedup:.3}}}"
            ));
            self.wall_pair(name, pair);
        }
        table.print();
        rows.join(",\n")
    }

    /// Records a duration metric (lower is better, not gated by
    /// default).
    pub fn wall_time(&mut self, name: &str, value: f64) {
        self.push_wall(name, value, WallKind::Time);
    }

    /// Records a dimensionless speedup (higher is better, gated).
    pub fn wall_ratio(&mut self, name: &str, value: f64) {
        self.push_wall(name, value, WallKind::Ratio);
    }

    /// Records an informational metric (never gated).
    pub fn wall_info(&mut self, name: &str, value: f64) {
        self.push_wall(name, value, WallKind::Info);
    }

    fn push_wall(&mut self, name: &str, value: f64, kind: WallKind) {
        assert!(value.is_finite(), "wall metric {name} must be finite");
        self.record.wall.push(WallMetric {
            name: name.to_string(),
            value,
            kind,
        });
    }

    /// A view of the record built so far (for the bar check and tests).
    pub fn record(&self) -> &RunRecord {
        &self.record
    }

    /// Appends the run to the store at [`runs_path`] (`LAB_DIR=off`
    /// disables the append for scratch invocations).
    pub fn commit(self) {
        if std::env::var("LAB_DIR").is_ok_and(|d| d == "off") {
            return;
        }
        let path = runs_path();
        append_run(&path, &self.record).expect("append lab run");
        println!(
            "  lab: appended run bench={} rev={} ({} scenario rows, {} wall metrics) to {}",
            self.record.bench,
            self.record.git_rev,
            self.record.scenarios.len(),
            self.record.wall.len(),
            path.display()
        );
    }
}

/// The git revision the lab stamps on appended runs: `LAB_GIT_REV` if
/// set (CI and history seeding), else `git rev-parse --short=12 HEAD`,
/// else `"unknown"`.
pub fn current_git_rev() -> String {
    if let Ok(rev) = std::env::var("LAB_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------------
// Acceptance bars.
// ---------------------------------------------------------------------------

/// Bars that hold under every build profile.
const ANY: &[&str] = &["debug", "release"];

/// Bars on SWAR speedups: unoptimized lane kernels have no reason to
/// beat unoptimized scalar loops, so only release runs are held to them.
const RELEASE: &[&str] = &["release"];

/// Which side of its bound a barred metric must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The metric must be at least this (speedups).
    AtLeast(f64),
    /// The metric must be at most this (overheads, size ratios).
    AtMost(f64),
}

/// One numeric acceptance bar, `(bench, metric, bound, profiles)`:
/// every run of `bench` measured under one of `profiles` must record
/// the wall metric `metric` within `bound`.
pub type Bar = (&'static str, &'static str, Bound, &'static [&'static str]);

/// Every numeric acceptance bar, declared once. [`bar_violations`]
/// checks a fresh run before its snapshot is written, and
/// [`regression_report`] checks each bench's latest stored run, so the
/// writers, `lab-gate` and the committed-history test hold the same
/// numbers.
#[rustfmt::skip]
pub const BARS: &[Bar] = &[
    // SWAR lane kernels vs the retained scalar batch loops.
    ("sfc_treefix", "hilbert_index_batch_order10.speedup", Bound::AtLeast(1.5), RELEASE),
    ("sfc_treefix", "zorder_index_batch_order10.speedup", Bound::AtLeast(1.5), RELEASE),
    ("sfc_treefix", "bitonic_sort_2^16.speedup", Bound::AtLeast(1.5), RELEASE),
    // Mixed-batch engine reuse vs building every engine per query.
    ("service", "service_mixed_2^13_reuse_vs_fresh_engines.speedup", Bound::AtLeast(1.5), ANY),
    // Modeled QPS from 1 to 8 shards. The busiest tenant carries 4/13
    // of the trace, but 13/4 = 3.25x is no ceiling: the figure divides
    // per-thread busy clocks of workers that may share cores, not a
    // critical path, and read up to 4.03x on a 2-vCPU host.
    ("throughput", "modeled_scaling_8w_vs_1w.speedup", Bound::AtLeast(2.0), ANY),
    // The 1-worker service path vs direct forest calls: the median of
    // 5 interleaved direct/service pass pairs.
    ("throughput", "single_shard_overhead_vs_direct", Bound::AtMost(1.10), ANY),
    // Checkpoint + journal tail vs replaying the whole history.
    ("durability", "recovery_vs_full_replay.speedup", Bound::AtLeast(2.0), ANY),
    // Delta bytes vs a full snapshot rewrite on a dirty-tail workload.
    ("ooc", "incremental_checkpoint_ratio", Bound::AtMost(0.25), ANY),
];

/// The bars `run` breaks, one message each: every bar of its bench and
/// build profile whose metric the run did not record or recorded
/// outside the bound.
pub fn bar_violations(run: &RunRecord) -> Vec<String> {
    let mut broken = Vec::new();
    for &(bench, metric, bound, profiles) in BARS {
        if bench != run.bench || !profiles.contains(&run.profile()) {
            continue;
        }
        match run.wall.iter().find(|m| m.name == metric) {
            None => broken.push(format!("{bench}: bar metric {metric} not recorded")),
            Some(m) => {
                let (holds, op, limit) = match bound {
                    Bound::AtLeast(limit) => (m.value >= limit, ">=", limit),
                    Bound::AtMost(limit) => (m.value <= limit, "<=", limit),
                };
                if !holds {
                    broken.push(format!(
                        "{bench}: {metric} = {:.3} breaks its acceptance bar ({op} {limit})",
                        m.value
                    ));
                }
            }
        }
    }
    broken
}

// ---------------------------------------------------------------------------
// Analysis: shared grouping helpers.
// ---------------------------------------------------------------------------

/// Distinct revisions in first-appearance (append) order — the store's
/// notion of "prior" and "latest".
pub fn rev_order(runs: &[RunRecord]) -> Vec<String> {
    let mut revs: Vec<String> = Vec::new();
    for run in runs {
        if !revs.iter().any(|r| r == &run.git_rev) {
            revs.push(run.git_rev.clone());
        }
    }
    revs
}

/// Median absolute deviation of a sample (0 for fewer than two
/// points — the tolerance then falls back to `rel_eps` alone).
pub fn mad_of(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let med = median(xs.to_vec());
    median(xs.iter().map(|x| (x - med).abs()).collect())
}

// ---------------------------------------------------------------------------
// The regression view + gate.
// ---------------------------------------------------------------------------

/// Noise model of the regression gate. Deterministic charge rows
/// ignore all of this — they are compared exactly.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Relative floor of the wall tolerance band (fraction of the
    /// prior median). The default leaves about the headroom the
    /// acceptance bars in [`BARS`] leave below their committed values:
    /// roughly half.
    pub rel_eps: f64,
    /// Dispersion multiplier: the band is
    /// `max(rel_eps · median, mad_k · MAD)` of the prior samples.
    pub mad_k: f64,
    /// Gate absolute durations too (off by default: times do not
    /// transfer across machines; the ratios carry the gate).
    pub gate_time: bool,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            rel_eps: 0.5,
            mad_k: 6.0,
            gate_time: false,
        }
    }
}

/// Outcome of one charge-row comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum ChargeStatus {
    /// All fields equal the prior revision's exactly.
    Exact,
    /// Row appeared at the latest revision (no prior to compare).
    New,
    /// Row existed at the prior revision but not the latest.
    Missing,
    /// A deterministic field drifted — always a violation.
    Drift {
        /// Which charge field drifted.
        field: &'static str,
        /// Prior-revision value.
        prior: u64,
        /// Latest-revision value.
        latest: u64,
    },
    /// Two runs at the *same* revision disagree on a deterministic
    /// row — always a violation.
    Nondeterministic {
        /// Which charge field disagreed within the revision.
        field: &'static str,
    },
    /// Non-deterministic row within the noise band.
    NoisyWithin,
    /// Non-deterministic row beyond the noise band — a violation.
    NoisyBeyond {
        /// Prior-revision median energy.
        prior: f64,
        /// Latest-revision median energy.
        latest: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
}

/// One compared charge row.
#[derive(Debug, Clone)]
pub struct ChargeCheck {
    /// Row identity ([`ScenarioRow::key`]).
    pub key: String,
    /// Outcome.
    pub status: ChargeStatus,
}

/// Outcome of one wall-metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum WallStatus {
    /// Within the tolerance band.
    Ok,
    /// Better than prior beyond the band (reported, never fatal).
    Improved,
    /// Worse than prior beyond the band — a violation for gated kinds.
    Regressed,
    /// No prior samples under the same profile.
    NoHistory,
    /// Kind is not gated ([`WallKind::Info`], or [`WallKind::Time`]
    /// without `gate_time`).
    Ungated,
}

/// One compared wall metric.
#[derive(Debug, Clone)]
pub struct WallCheck {
    /// Metric name.
    pub name: String,
    /// Metric kind.
    pub kind: WallKind,
    /// Median over prior-revision samples (None without history).
    pub prior_median: Option<f64>,
    /// MAD of the prior-revision samples.
    pub prior_mad: f64,
    /// Median over latest-revision samples.
    pub latest_median: f64,
    /// Sample counts (prior, latest).
    pub samples: (usize, usize),
    /// The tolerance band that applied.
    pub tolerance: f64,
    /// Outcome.
    pub status: WallStatus,
}

/// One bench's comparison of latest vs prior revision.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The bench family.
    pub bench: String,
    /// Profile the wall comparison ran under.
    pub profile: String,
    /// The prior revision compared against (None = first recorded
    /// revision for this bench).
    pub prior_rev: Option<String>,
    /// Charge-row comparisons.
    pub charge: Vec<ChargeCheck>,
    /// Wall-metric comparisons.
    pub wall: Vec<WallCheck>,
}

/// The full regression report the `lab-regress` view prints and the
/// `lab-gate` step enforces.
#[derive(Debug, Clone, Default)]
pub struct RegressionReport {
    /// The latest revision in the store.
    pub latest_rev: String,
    /// Per-bench comparisons (benches with runs at the latest rev).
    pub benches: Vec<BenchReport>,
    /// Human-readable violations; the gate fails iff non-empty.
    pub violations: Vec<String>,
}

/// Builds the regression report: for every bench with runs at the
/// store's latest revision, compares deterministic charge rows exactly
/// (and cross-checks within-revision determinism), non-deterministic
/// rows and wall ratios under the dispersion-derived tolerance,
/// against the nearest prior revision with runs of the same bench
/// (same profile for wall metrics), and checks the bench's latest run
/// against its acceptance bars ([`BARS`]).
pub fn regression_report(
    runs: &[RunRecord],
    cfg: &GateConfig,
    bench_filter: Option<&str>,
) -> RegressionReport {
    let revs = rev_order(runs);
    let Some(latest_rev) = revs.last().cloned() else {
        return RegressionReport::default();
    };
    let rev_index: BTreeMap<&str, usize> = revs
        .iter()
        .enumerate()
        .map(|(i, r)| (r.as_str(), i))
        .collect();

    // Benches with runs at the latest rev, in first-appearance order.
    let mut benches: Vec<String> = Vec::new();
    for run in runs {
        if run.git_rev == latest_rev
            && bench_filter.is_none_or(|f| f == run.bench)
            && !benches.contains(&run.bench)
        {
            benches.push(run.bench.clone());
        }
    }

    let mut report = RegressionReport {
        latest_rev: latest_rev.clone(),
        ..RegressionReport::default()
    };
    for bench in benches {
        let bench_runs: Vec<&RunRecord> = runs.iter().filter(|r| r.bench == bench).collect();
        let latest_runs: Vec<&&RunRecord> = bench_runs
            .iter()
            .filter(|r| r.git_rev == latest_rev)
            .collect();
        // Wall metrics are profile-stratified; compare under the
        // profile of the latest runs (mixed profiles at one rev are
        // compared per the profile of the *last* run).
        let profile = latest_runs.last().map(|r| r.profile()).unwrap_or("release");
        let prior_rev = bench_runs
            .iter()
            .filter(|r| r.git_rev != latest_rev)
            .filter(|r| rev_index[r.git_rev.as_str()] < rev_index[latest_rev.as_str()])
            .max_by_key(|r| rev_index[r.git_rev.as_str()])
            .map(|r| r.git_rev.clone());

        let mut bench_report = BenchReport {
            bench: bench.clone(),
            profile: profile.to_string(),
            prior_rev: prior_rev.clone(),
            charge: Vec::new(),
            wall: Vec::new(),
        };

        // ---- Charge rows. ----
        let collect_rows = |rev: &str| -> BTreeMap<String, Vec<&ScenarioRow>> {
            let mut map: BTreeMap<String, Vec<&ScenarioRow>> = BTreeMap::new();
            for run in bench_runs.iter().filter(|r| r.git_rev == rev) {
                for row in &run.scenarios {
                    map.entry(row.key()).or_default().push(row);
                }
            }
            map
        };
        let latest_rows = collect_rows(&latest_rev);
        let prior_rows = prior_rev.as_deref().map(collect_rows).unwrap_or_default();
        for (key, rows) in &latest_rows {
            let det = rows.iter().all(|r| r.det);
            // Within-revision determinism: every run at the latest rev
            // must produce identical deterministic rows.
            let mut status = None;
            if det {
                for pair in rows.windows(2) {
                    for ((field, a), (_, b)) in pair[0].fields().iter().zip(pair[1].fields()) {
                        if *a != b {
                            status = Some(ChargeStatus::Nondeterministic { field });
                            report.violations.push(format!(
                                "{bench}: {key}: deterministic row differs between runs at rev {latest_rev} ({field}: {a} vs {b})"
                            ));
                        }
                    }
                }
            }
            let status = status.unwrap_or_else(|| match prior_rows.get(key) {
                None => ChargeStatus::New,
                Some(prior) => {
                    if det {
                        let (a, b) = (rows[0], prior[0]);
                        match a
                            .fields()
                            .iter()
                            .zip(b.fields())
                            .find(|((_, x), (_, y))| x != y)
                        {
                            None => ChargeStatus::Exact,
                            Some(((field, latest), (_, prior))) => {
                                report.violations.push(format!(
                                    "{bench}: {key}: deterministic {field} drifted from {prior} (rev {}) to {latest} (rev {latest_rev}) — machine-charge rows have a zero noise budget; a deliberate change must re-seed the lab history",
                                    bench_report.prior_rev.as_deref().unwrap_or("?"),
                                ));
                                ChargeStatus::Drift {
                                    field,
                                    prior,
                                    latest: *latest,
                                }
                            }
                        }
                    } else {
                        // Non-deterministic rows: energy compared like
                        // a wall metric (lower is not better here —
                        // flag movement in either direction beyond the
                        // band).
                        let latest_med =
                            median(rows.iter().map(|r| r.energy as f64).collect());
                        let prior_samples: Vec<f64> =
                            prior.iter().map(|r| r.energy as f64).collect();
                        let prior_med = median(prior_samples.clone());
                        let tolerance = (cfg.rel_eps * prior_med)
                            .max(cfg.mad_k * mad_of(&prior_samples));
                        if (latest_med - prior_med).abs() <= tolerance {
                            ChargeStatus::NoisyWithin
                        } else {
                            report.violations.push(format!(
                                "{bench}: {key}: non-deterministic energy moved beyond the noise band: {prior_med:.0} -> {latest_med:.0} (tolerance {tolerance:.0})"
                            ));
                            ChargeStatus::NoisyBeyond {
                                prior: prior_med,
                                latest: latest_med,
                                tolerance,
                            }
                        }
                    }
                }
            });
            bench_report.charge.push(ChargeCheck {
                key: key.clone(),
                status,
            });
        }
        for key in prior_rows.keys() {
            if !latest_rows.contains_key(key) {
                bench_report.charge.push(ChargeCheck {
                    key: key.clone(),
                    status: ChargeStatus::Missing,
                });
            }
        }

        // ---- Wall metrics (profile-stratified). ----
        let wall_samples = |rev: &str| -> Vec<(String, WallKind, Vec<f64>)> {
            let mut names: Vec<(String, WallKind)> = Vec::new();
            let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for run in bench_runs
                .iter()
                .filter(|r| r.git_rev == rev && r.profile() == profile)
            {
                for m in &run.wall {
                    if !names.iter().any(|(n, _)| n == &m.name) {
                        names.push((m.name.clone(), m.kind));
                    }
                    map.entry(m.name.clone()).or_default().push(m.value);
                }
            }
            names
                .into_iter()
                .map(|(n, k)| {
                    let xs = map.remove(&n).unwrap_or_default();
                    (n, k, xs)
                })
                .collect()
        };
        // Prior samples for wall come from the nearest earlier rev
        // that has same-profile runs of this bench (which can differ
        // from the charge-comparison rev when profiles are mixed).
        let wall_prior_rev = bench_runs
            .iter()
            .filter(|r| r.git_rev != latest_rev && r.profile() == profile)
            .filter(|r| rev_index[r.git_rev.as_str()] < rev_index[latest_rev.as_str()])
            .max_by_key(|r| rev_index[r.git_rev.as_str()])
            .map(|r| r.git_rev.clone());
        let prior_wall: BTreeMap<String, (WallKind, Vec<f64>)> = wall_prior_rev
            .as_deref()
            .map(|rev| {
                wall_samples(rev)
                    .into_iter()
                    .map(|(n, k, xs)| (n, (k, xs)))
                    .collect()
            })
            .unwrap_or_default();
        for (name, kind, latest_samples) in wall_samples(&latest_rev) {
            if latest_samples.is_empty() {
                continue;
            }
            let latest_median = median(latest_samples.clone());
            let gated =
                matches!(kind, WallKind::Ratio) || (cfg.gate_time && kind == WallKind::Time);
            let (prior_median, prior_mad, n_prior) = match prior_wall.get(&name) {
                Some((_, xs)) if !xs.is_empty() => (Some(median(xs.clone())), mad_of(xs), xs.len()),
                _ => (None, 0.0, 0),
            };
            let (tolerance, status) = match prior_median {
                None => (0.0, WallStatus::NoHistory),
                Some(prior) => {
                    let tolerance = (cfg.rel_eps * prior.abs()).max(cfg.mad_k * prior_mad);
                    let delta = latest_median - prior;
                    // Ratio: higher is better. Time: lower is better.
                    let worse = match kind {
                        WallKind::Time => delta > tolerance,
                        _ => -delta > tolerance,
                    };
                    let better = match kind {
                        WallKind::Time => -delta > tolerance,
                        _ => delta > tolerance,
                    };
                    let status = if !gated {
                        WallStatus::Ungated
                    } else if worse {
                        report.violations.push(format!(
                            "{bench}: wall {name} regressed: median {prior:.4} (rev {}, {n_prior} runs) -> {latest_median:.4} (rev {latest_rev}) beyond tolerance {tolerance:.4}",
                            wall_prior_rev.as_deref().unwrap_or("?"),
                        ));
                        WallStatus::Regressed
                    } else if better {
                        WallStatus::Improved
                    } else {
                        WallStatus::Ok
                    };
                    (tolerance, status)
                }
            };
            bench_report.wall.push(WallCheck {
                name,
                kind,
                prior_median,
                prior_mad,
                latest_median,
                samples: (n_prior, latest_samples.len()),
                tolerance,
                status,
            });
        }

        report.violations.extend(bar_violations(
            latest_runs
                .last()
                .expect("the bench has runs at the latest rev"),
        ));
        report.benches.push(bench_report);
    }
    report
}

// ---------------------------------------------------------------------------
// The sweep view.
// ---------------------------------------------------------------------------

/// Normalization applied to a swept metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// Raw value.
    None,
    /// Divided by `n · log2 n` (the spatial bound's shape).
    NLogN,
    /// Divided by `n^1.5` (the PRAM bound's shape).
    NThreeHalves,
}

impl Norm {
    /// Parses the `norm=` filter value.
    pub fn from_name(s: &str) -> Option<Norm> {
        match s {
            "none" => Some(Norm::None),
            "nlogn" => Some(Norm::NLogN),
            "n15" => Some(Norm::NThreeHalves),
            _ => None,
        }
    }

    fn apply(self, v: f64, n: u64) -> f64 {
        match self {
            Norm::None => v,
            Norm::NLogN => v / (n as f64 * (n as f64).log2().max(1.0)),
            Norm::NThreeHalves => v / (n as f64).powf(1.5),
        }
    }
}

/// Row filter for the sweep and A/B views; `None` = no constraint.
#[derive(Debug, Clone, Default)]
pub struct RowFilter {
    /// Bench family.
    pub bench: Option<String>,
    /// Scenario name.
    pub scenario: Option<String>,
    /// Implementation.
    pub impl_name: Option<String>,
    /// Workload family.
    pub family: Option<String>,
    /// Curve.
    pub curve: Option<String>,
}

impl RowFilter {
    fn matches(&self, bench: &str, row: &ScenarioRow) -> bool {
        self.bench.as_deref().is_none_or(|f| f == bench)
            && self.scenario.as_deref().is_none_or(|f| f == row.scenario)
            && self.impl_name.as_deref().is_none_or(|f| f == row.impl_name)
            && self.family.as_deref().is_none_or(|f| f == row.family)
            && self.curve.as_deref().is_none_or(|f| f == row.curve)
    }
}

/// The sweep view's data: one metric across the config axis `n`
/// (rows) and revisions (columns).
#[derive(Debug, Clone, Default)]
pub struct SweepView {
    /// The swept sizes, ascending.
    pub ns: Vec<u64>,
    /// Revisions, append order.
    pub revs: Vec<String>,
    /// `cells[rev_idx][n_idx]`: median metric over matching rows, or
    /// None when the (rev, n) cell has no data.
    pub cells: Vec<Vec<Option<f64>>>,
    /// How many distinct row keys fed each column (over-broad filters
    /// show up here).
    pub keys_matched: usize,
}

/// Builds the parameter-sweep view: `field` (energy/depth/messages/
/// work) of every scenario row matching `filter`, normalized by
/// `norm`, laid out as n × revision.
pub fn sweep_view(runs: &[RunRecord], filter: &RowFilter, field: &str, norm: Norm) -> SweepView {
    let revs = rev_order(runs);
    let mut ns: Vec<u64> = Vec::new();
    let mut keys: Vec<String> = Vec::new();
    let mut samples: BTreeMap<(usize, u64), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let rev_idx = revs.iter().position(|r| r == &run.git_rev).expect("known");
        for row in &run.scenarios {
            if !filter.matches(&run.bench, row) {
                continue;
            }
            let value = match field {
                "energy" => row.energy,
                "depth" => row.depth,
                "messages" => row.messages,
                "work" => row.work,
                _ => continue,
            };
            if !ns.contains(&row.n) {
                ns.push(row.n);
            }
            if !keys.contains(&row.key()) {
                keys.push(row.key());
            }
            samples
                .entry((rev_idx, row.n))
                .or_default()
                .push(norm.apply(value as f64, row.n));
        }
    }
    ns.sort_unstable();
    let cells = (0..revs.len())
        .map(|rev_idx| {
            ns.iter()
                .map(|&n| samples.get(&(rev_idx, n)).map(|xs| median(xs.clone())))
                .collect()
        })
        .collect();
    SweepView {
        ns,
        revs,
        cells,
        keys_matched: keys.len(),
    }
}

// ---------------------------------------------------------------------------
// The A/B view.
// ---------------------------------------------------------------------------

/// One paired comparison from the A/B view.
#[derive(Debug, Clone)]
pub struct AbPair {
    /// Shared identity (scenario/family/n/curve, or the wall pair
    /// name).
    pub key: String,
    /// (label, value) of side A — the cheaper/optimized side.
    pub a: (String, f64),
    /// (label, value) of side B — the costlier/reference side.
    pub b: (String, f64),
    /// `b.value / a.value` — how much the B side costs over A.
    pub ratio: f64,
}

/// Builds the A/B view over the latest revision: paired
/// implementations on shared scenarios (impls joined on
/// scenario/family/n/curve, energy compared) plus the recorded
/// optimized/reference wall pairs.
pub fn ab_view(runs: &[RunRecord], filter: &RowFilter) -> Vec<AbPair> {
    let revs = rev_order(runs);
    let Some(latest) = revs.last() else {
        return Vec::new();
    };
    let mut pairs: Vec<AbPair> = Vec::new();

    // Scenario pairs: group by everything except the impl.
    let mut groups: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
    for run in runs.iter().filter(|r| &r.git_rev == latest) {
        for row in &run.scenarios {
            if !filter.matches(&run.bench, row) {
                continue;
            }
            let key = format!(
                "{}:{}/{}/n={}/{}",
                run.bench, row.scenario, row.family, row.n, row.curve
            );
            let entry = groups.entry(key).or_default();
            if !entry.iter().any(|(name, _)| name == &row.impl_name) {
                entry.push((row.impl_name.clone(), row.energy as f64));
            }
        }
    }
    for (key, mut impls) in groups {
        if impls.len() < 2 {
            continue;
        }
        impls.sort_by(|a, b| a.1.total_cmp(&b.1));
        let a = impls.first().expect("nonempty").clone();
        let b = impls.last().expect("nonempty").clone();
        let ratio = b.1 / a.1.max(1.0);
        pairs.push(AbPair { key, a, b, ratio });
    }

    // Wall pairs: `<name>.optimized` vs `<name>.reference` (medians
    // over the latest rev's runs).
    let mut wall: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut wall_bench: BTreeMap<String, String> = BTreeMap::new();
    for run in runs.iter().filter(|r| &r.git_rev == latest) {
        if filter.bench.as_deref().is_some_and(|f| f != run.bench) {
            continue;
        }
        for m in &run.wall {
            wall.entry(m.name.clone()).or_default().push(m.value);
            wall_bench.insert(m.name.clone(), run.bench.clone());
        }
    }
    let opt_names: Vec<String> = wall
        .keys()
        .filter_map(|name| name.strip_suffix(".optimized").map(str::to_string))
        .collect();
    for base in opt_names {
        let (Some(opt), Some(reference)) = (
            wall.get(&format!("{base}.optimized")),
            wall.get(&format!("{base}.reference")),
        ) else {
            continue;
        };
        let (o, r) = (median(opt.clone()), median(reference.clone()));
        let bench = wall_bench
            .get(&format!("{base}.optimized"))
            .cloned()
            .unwrap_or_default();
        pairs.push(AbPair {
            key: format!("{bench}:wall/{base}"),
            a: ("optimized".into(), o),
            b: ("reference".into(), r),
            ratio: r / o.max(f64::MIN_POSITIVE),
        });
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(energy: u64) -> CostReport {
        CostReport {
            energy,
            depth: 3,
            messages: 7,
            work: 9,
        }
    }

    #[test]
    fn line_roundtrip_preserves_everything() {
        let mut lab = LabRun::new("unit");
        lab.config("shape", "2^12 \"quoted\"");
        lab.scenario_row("s", "spatial", "fam", 4096, "hilbert", report(100), Some(5));
        lab.scenario_row_nondet("s", "sharded", "fam", 4096, "hilbert", report(101), None);
        lab.wall_pair("kernel", Speedup::of(1.5, 3.0));
        lab.wall_info("qps", 123.456);
        let line = lab.record().to_line();
        let back = RunRecord::from_line(&line).expect("roundtrip");
        assert_eq!(&back, lab.record());
        assert!(back.scenarios[0].det && !back.scenarios[1].det);
        assert_eq!(back.wall.len(), 4);
        assert_eq!(back.wall[2].kind, WallKind::Ratio);
        assert_eq!(back.wall[2].value, 2.0);
    }

    #[test]
    fn corrupted_line_fails_crc() {
        let lab = LabRun::new("unit");
        let line = lab.record().to_line();
        let mut bad = line.clone().into_bytes();
        let at = line.find("unit").expect("bench name");
        bad[at] = b'x';
        let bad = String::from_utf8(bad).expect("utf8");
        assert!(RunRecord::from_line(&bad).unwrap_err().contains("crc"));
        // And the CRC window itself is covered: a flipped hex digit
        // fails too.
        let mut bad = line.into_bytes();
        bad[8] = if bad[8] == b'0' { b'1' } else { b'0' };
        let bad = String::from_utf8(bad).expect("utf8");
        assert!(RunRecord::from_line(&bad).is_err());
    }

    #[test]
    fn parse_json_subset() {
        let doc = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"\n","c":true,"d":null}"#).expect("parse");
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(doc.get("b").and_then(Json::as_str), Some("x\"\n"));
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(-300.0)
        );
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{\"a\":Infinity}").is_err());
    }

    #[test]
    fn rev_order_is_first_appearance() {
        let mk = |rev: &str| RunRecord {
            bench: "b".into(),
            git_rev: rev.into(),
            timestamp: 0,
            config: vec![],
            scenarios: vec![],
            wall: vec![],
        };
        let runs = [mk("r1"), mk("r2"), mk("r1"), mk("r3")];
        assert_eq!(rev_order(&runs), ["r1", "r2", "r3"]);
    }

    #[test]
    fn mad_of_known_samples() {
        assert_eq!(mad_of(&[]), 0.0);
        assert_eq!(mad_of(&[5.0]), 0.0);
        // median 3, abs devs [2,1,0,1,2] -> median 1
        assert_eq!(mad_of(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
    }
}
