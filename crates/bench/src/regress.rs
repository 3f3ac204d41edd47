//! Bench-regression recorder: schema-versioned `BENCH_<n>.json` snapshots
//! and the diff gate between consecutive ones.
//!
//! A snapshot pins what the simulator *currently* says about every
//! implementation on the selected datasets: simulated milliseconds, the
//! trace's counters fingerprint (workload identity, timing-free), and the
//! per-kernel hotspot summary. `record_bench` appends `BENCH_0.json`,
//! `BENCH_1.json`, … to the results directory, so the repo accumulates a
//! performance trajectory instead of anecdotes; [`diff`] compares a new
//! snapshot against the latest recorded one and flags any implementation
//! whose status, simulated time, launch count or counters fingerprint
//! differs at all — `scripts/check_regression.sh` turns that into a CI
//! failure. Every cell is deterministic and independent of the rayon width,
//! so an exact compare cannot flake; a deliberate move needs a new snapshot.
//!
//! Comparisons refuse to cross schema versions or dataset modes
//! (smoke vs full registry): a diff between snapshots that measured
//! different things would report garbage with a straight face.
//!
//! The `serde_json` shim only serializes, so this module carries its own
//! minimal JSON parser ([`parse_json`]) for reading prior snapshots back.

use serde::{Serialize, Value};
use std::path::{Path, PathBuf};

/// Version of the snapshot schema; bump on any shape change so old
/// snapshots are skipped, not misread.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// One recorded benchmark snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Snapshot schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Trace-subsystem schema the measurements were taken under.
    pub trace_schema_version: u32,
    /// Snapshot sequence number (the `<n>` in `BENCH_<n>.json`).
    pub seq: u32,
    /// Dataset registry mode: `"smoke"` or `"full"`.
    pub mode: String,
    /// One entry per (dataset, implementation) measurement.
    pub entries: Vec<Entry>,
}

/// One measured (dataset, implementation) pair.
#[derive(Debug, Clone, Serialize)]
pub struct Entry {
    /// Dataset name.
    pub dataset: String,
    /// Implementation name (`"Ours"`, `"Gunrock"`, …).
    pub impl_name: String,
    /// Run outcome: `"ok"`, `"oom"`, `"timeout"`, or `"error"`.
    pub status: String,
    /// Total simulated time, ms.
    pub sim_ms: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Order-sensitive counters fingerprint of the run's trace — identical
    /// fingerprints mean the same simulated workload, so a sim-time delta is
    /// a cost-model or scheduling change, not an algorithm change.
    pub counters_fingerprint: u64,
    /// Sharded-engine exchanges that carried border packets —
    /// **informational only**: never part of the regression gate, `0` for
    /// single-device entries, and absent from snapshots written before the
    /// field existed (the parser treats a missing key as absent, so old
    /// snapshots parse cleanly).
    pub exchange_rounds: u64,
    /// Worker→master border packets over the run — informational, like
    /// [`Entry::exchange_rounds`].
    pub border_packets: u64,
    /// Per-kernel hotspot summary, worst kernel first.
    pub hotspots: Vec<HotspotSummary>,
}

/// Compressed hotspot line for a snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct HotspotSummary {
    /// Kernel name.
    pub kernel: String,
    /// Launches of the kernel.
    pub launches: u64,
    /// Total simulated time, ms.
    pub total_ms: f64,
    /// Largest attribution bucket.
    pub dominant: String,
    /// That bucket's share, ms.
    pub dominant_ms: f64,
}

/// Outcome of diffing a new snapshot against the previous one.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Human-readable per-entry lines, in entry order.
    pub lines: Vec<String>,
    /// Paired entries whose gated fields differ, each naming the fields
    /// that moved.
    pub mismatches: Vec<String>,
    /// Set when the comparison was skipped entirely (schema/mode mismatch).
    pub skipped: Option<String>,
}

impl DiffReport {
    /// Whether the gate should fail.
    pub fn failed(&self) -> bool {
        !self.mismatches.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

/// Sequence numbers of every `BENCH_<n>.json` under `dir`, ascending.
pub fn recorded_seqs(dir: &Path) -> Vec<u32> {
    let mut seqs: Vec<u32> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// Path of snapshot `seq` under `dir`.
pub fn snapshot_path(dir: &Path, seq: u32) -> PathBuf {
    dir.join(format!("BENCH_{seq}.json"))
}

/// Loads the most recent recorded snapshot, if any, as a parsed JSON value.
pub fn latest_snapshot(dir: &Path) -> Option<(u32, Value)> {
    let seq = recorded_seqs(dir).pop()?;
    let text = std::fs::read_to_string(snapshot_path(dir, seq)).ok()?;
    match parse_json(&text) {
        Ok(v) => Some((seq, v)),
        Err(e) => {
            eprintln!("[regress] ignoring unreadable BENCH_{seq}.json: {e}");
            None
        }
    }
}

/// Writes `snap` as `BENCH_<seq>.json` under `dir` and returns the path.
pub fn write_snapshot(dir: &Path, snap: &Snapshot) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = snapshot_path(dir, snap.seq);
    let json = serde_json::to_string_pretty(snap).expect("snapshot serializes");
    std::fs::write(&path, json).expect("write snapshot");
    path
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// Compares `cur` against a previously recorded snapshot (as loaded by
/// [`latest_snapshot`]). Entries pair up by (dataset, implementation). A
/// paired entry fails the gate on any difference, in either direction, in
/// its `status`, the bits of its `sim_ms`, its `launches` or its
/// `counters_fingerprint`; a field the previous snapshot lacks counts as a
/// difference. Other fields (hotspots, exchange counts, and the host-time
/// fields of older snapshots) are never compared.
pub fn diff(prev: &Value, cur: &Snapshot) -> DiffReport {
    let mut rep = DiffReport::default();
    let prev_schema = get(prev, "schema_version").and_then(as_u64);
    if prev_schema != Some(BENCH_SCHEMA_VERSION as u64) {
        rep.skipped = Some(format!(
            "previous snapshot has schema {prev_schema:?}, current is {BENCH_SCHEMA_VERSION} — not comparable"
        ));
        return rep;
    }
    let prev_mode = get(prev, "mode").and_then(as_str).unwrap_or("?");
    if prev_mode != cur.mode {
        rep.skipped = Some(format!(
            "previous snapshot measured the {prev_mode} registry, current run the {} registry — not comparable",
            cur.mode
        ));
        return rep;
    }
    let empty = Vec::new();
    let prev_entries = get(prev, "entries").and_then(as_array).unwrap_or(&empty);
    for e in &cur.entries {
        let key = format!("{} / {}", e.dataset, e.impl_name);
        let old = prev_entries.iter().find(|p| {
            get(p, "dataset").and_then(as_str) == Some(&e.dataset)
                && get(p, "impl_name").and_then(as_str) == Some(&e.impl_name)
        });
        let Some(old) = old else {
            rep.lines.push(format!("  {key}: new entry ({})", e.status));
            continue;
        };
        let old_status = get(old, "status").and_then(as_str);
        let old_ms = get(old, "sim_ms").and_then(as_f64);
        let old_launches = get(old, "launches").and_then(as_u64);
        let old_fp = get(old, "counters_fingerprint").and_then(as_u64);
        let mut moved = Vec::new();
        if old_status != Some(e.status.as_str()) {
            moved.push(format!("status {} -> {:?}", shown(old_status), e.status));
        }
        if old_ms.map(f64::to_bits) != Some(e.sim_ms.to_bits()) {
            moved.push(format!("sim_ms {} -> {:?}", shown(old_ms), e.sim_ms));
        }
        if old_launches != Some(e.launches) {
            moved.push(format!(
                "launches {} -> {}",
                shown(old_launches),
                e.launches
            ));
        }
        if old_fp != Some(e.counters_fingerprint) {
            moved.push(format!(
                "counters_fingerprint {} -> {}",
                shown(old_fp),
                e.counters_fingerprint
            ));
        }
        let old_ms = old_ms.unwrap_or(0.0);
        let delta = if old_ms > 0.0 {
            (e.sim_ms - old_ms) / old_ms
        } else {
            0.0
        };
        // Exchange-ledger note: informational — border traffic is a
        // workload property already covered by the fingerprint.
        let old_packets = get(old, "border_packets").and_then(as_u64).unwrap_or(0);
        let xch_note = if old_packets > 0 || e.border_packets > 0 {
            format!(
                "  [border {old_packets} -> {} packets, informational]",
                e.border_packets
            )
        } else {
            String::new()
        };
        let verdict = if moved.is_empty() { "" } else { "  [MOVED]" };
        rep.lines.push(format!(
            "  {key}: {old_ms:.3} ms -> {:.3} ms ({:+.1}%){verdict}{xch_note}",
            e.sim_ms,
            delta * 100.0
        ));
        if !moved.is_empty() {
            rep.mismatches.push(format!("{key}: {}", moved.join(", ")));
        }
    }
    rep
}

/// A previous snapshot's field value for a mismatch line: its `Debug` form,
/// or `missing` when the snapshot lacks the field.
fn shown(v: Option<impl std::fmt::Debug>) -> String {
    v.map_or_else(|| "missing".into(), |x| format!("{x:?}"))
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (the serde_json shim only serializes)
// ---------------------------------------------------------------------------

/// Parses a JSON document into the serde shim's [`Value`] tree. Supports the
/// full JSON grammar this workspace emits (objects, arrays, strings with
/// `\uXXXX` escapes, integer/float numbers, booleans, null).
pub fn parse_json(s: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Looks up `key` in a JSON object value.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Unwraps a string value.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Unwraps an unsigned integer value.
pub fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Unwraps any numeric value as f64.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Unwraps an array value.
pub fn as_array(v: &Value) -> Option<&Vec<Value>> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|_| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // surrogate pairs don't occur in our own output;
                            // map lone surrogates to the replacement char
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // consume one UTF-8 scalar (strings came from &str, so
                    // the bytes are valid UTF-8)
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] & 0b1100_0000) == 0b1000_0000
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dataset: &str, name: &str, ms: f64, fp: u64) -> Entry {
        Entry {
            dataset: dataset.into(),
            impl_name: name.into(),
            status: "ok".into(),
            sim_ms: ms,
            launches: 10,
            counters_fingerprint: fp,
            exchange_rounds: 0,
            border_packets: 0,
            hotspots: vec![HotspotSummary {
                kernel: "loop".into(),
                launches: 5,
                total_ms: ms * 0.8,
                dominant: "uncoalesced".into(),
                dominant_ms: ms * 0.5,
            }],
        }
    }

    fn snap(seq: u32, entries: Vec<Entry>) -> Snapshot {
        Snapshot {
            schema_version: BENCH_SCHEMA_VERSION,
            trace_schema_version: kcore_gpusim::TRACE_SCHEMA_VERSION,
            seq,
            mode: "smoke".into(),
            entries,
        }
    }

    #[test]
    fn parser_round_trips_own_output() {
        let s = snap(3, vec![entry("amazon0601", "Ours", 12.25, 0xdead_beef)]);
        let json = serde_json::to_string_pretty(&s).unwrap();
        let v = parse_json(&json).unwrap();
        assert_eq!(get(&v, "schema_version").and_then(as_u64), Some(1));
        assert_eq!(get(&v, "seq").and_then(as_u64), Some(3));
        assert_eq!(get(&v, "mode").and_then(as_str), Some("smoke"));
        let entries = get(&v, "entries").and_then(as_array).unwrap();
        assert_eq!(get(&entries[0], "sim_ms").and_then(as_f64), Some(12.25));
        assert_eq!(
            get(&entries[0], "counters_fingerprint").and_then(as_u64),
            Some(0xdead_beef)
        );
    }

    #[test]
    fn parser_handles_escapes_nesting_and_numbers() {
        let v = parse_json(
            r#"{"a": [1, -2, 3.5, 1e3, true, false, null], "s": "q\"\\\nA", "o": {"k": []}}"#,
        )
        .unwrap();
        let a = get(&v, "a").and_then(as_array).unwrap();
        assert_eq!(as_u64(&a[0]), Some(1));
        assert_eq!(as_f64(&a[1]), Some(-2.0));
        assert_eq!(as_f64(&a[2]), Some(3.5));
        assert_eq!(as_f64(&a[3]), Some(1000.0));
        assert_eq!(get(&v, "s").and_then(as_str), Some("q\"\\\nA"));
        assert!(parse_json("{\"x\": }").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("[1] junk").is_err());
    }

    #[test]
    fn diff_flags_regressions_beyond_threshold() {
        let old = snap(
            0,
            vec![
                entry("a", "Ours", 100.0, 1),
                entry("a", "Gunrock", 100.0, 2),
            ],
        );
        let prev = parse_json(&serde_json::to_string(&old).unwrap()).unwrap();
        // 4% slower and 10% slower: both fail the exact gate
        let new = snap(
            1,
            vec![
                entry("a", "Ours", 104.0, 1),
                entry("a", "Gunrock", 110.0, 2),
            ],
        );
        let rep = diff(&prev, &new);
        assert!(rep.skipped.is_none());
        assert_eq!(rep.mismatches.len(), 2, "{:?}", rep.mismatches);
        assert!(rep.mismatches[0].contains("Ours"));
        assert!(rep.mismatches[1].contains("Gunrock"));
        assert!(rep.failed());
    }

    #[test]
    fn diff_fails_a_one_ulp_move_in_either_direction() {
        let old = snap(0, vec![entry("a", "Ours", 100.0, 1)]);
        let prev = parse_json(&serde_json::to_string(&old).unwrap()).unwrap();
        let up = f64::from_bits(100.0f64.to_bits() + 1);
        let down = f64::from_bits(100.0f64.to_bits() - 1);
        for ms in [up, down] {
            let rep = diff(&prev, &snap(1, vec![entry("a", "Ours", ms, 1)]));
            assert!(rep.failed(), "{ms:?} passed the gate");
            assert!(rep.mismatches[0].contains("sim_ms"), "{:?}", rep.mismatches);
        }
        // the same bits pass
        let rep = diff(&prev, &snap(1, vec![entry("a", "Ours", 100.0, 1)]));
        assert!(!rep.failed(), "{:?}", rep.mismatches);
    }

    #[test]
    fn diff_fails_status_and_launch_moves() {
        let old = snap(0, vec![entry("a", "Ours", 10.0, 1)]);
        let prev = parse_json(&serde_json::to_string(&old).unwrap()).unwrap();
        let mut timed_out = entry("a", "Ours", 10.0, 1);
        timed_out.status = "timeout".into();
        let mut relaunched = entry("a", "Ours", 10.0, 1);
        relaunched.launches += 1;
        let rep = diff(&prev, &snap(1, vec![timed_out]));
        assert!(rep.mismatches[0].contains("status"), "{:?}", rep.mismatches);
        let rep = diff(&prev, &snap(1, vec![relaunched]));
        assert!(
            rep.mismatches[0].contains("launches"),
            "{:?}",
            rep.mismatches
        );
    }

    #[test]
    fn committed_snapshots_diff_cleanly_against_their_own_cells() {
        // BENCH_2..BENCH_5 also carry host-time fields (`host_ms`, …) that
        // the recorder no longer writes; the differ reads by key.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let seqs = recorded_seqs(&dir);
        assert!(seqs.len() >= 6, "{seqs:?}");
        let mut with_host_fields = 0;
        for seq in seqs {
            let text = std::fs::read_to_string(snapshot_path(&dir, seq)).unwrap();
            with_host_fields += text.contains("\"host_ms\"") as usize;
            let v = parse_json(&text).unwrap();
            let cells = get(&v, "entries").and_then(as_array).unwrap();
            let entries = cells
                .iter()
                .map(|p| Entry {
                    dataset: get(p, "dataset").and_then(as_str).unwrap().into(),
                    impl_name: get(p, "impl_name").and_then(as_str).unwrap().into(),
                    status: get(p, "status").and_then(as_str).unwrap().into(),
                    sim_ms: get(p, "sim_ms").and_then(as_f64).unwrap(),
                    launches: get(p, "launches").and_then(as_u64).unwrap(),
                    counters_fingerprint: get(p, "counters_fingerprint").and_then(as_u64).unwrap(),
                    exchange_rounds: 0,
                    border_packets: 0,
                    hotspots: Vec::new(),
                })
                .collect();
            let mut cur = snap(seq + 1, entries);
            cur.mode = get(&v, "mode").and_then(as_str).unwrap().into();
            let rep = diff(&v, &cur);
            assert!(rep.skipped.is_none(), "BENCH_{seq}: {:?}", rep.skipped);
            assert!(!rep.failed(), "BENCH_{seq}: {:?}", rep.mismatches);
            assert_eq!(rep.lines.len(), cells.len());
        }
        assert!(with_host_fields >= 4, "{with_host_fields}");
    }

    #[test]
    fn exchange_fields_round_trip_and_never_gate() {
        let mut e = entry("a", "Sharded p=4", 10.0, 1);
        e.exchange_rounds = 3;
        e.border_packets = 1234;
        let s = snap(0, vec![e]);
        let v = parse_json(&serde_json::to_string_pretty(&s).unwrap()).unwrap();
        let entries = get(&v, "entries").and_then(as_array).unwrap();
        assert_eq!(
            get(&entries[0], "exchange_rounds").and_then(as_u64),
            Some(3)
        );
        assert_eq!(
            get(&entries[0], "border_packets").and_then(as_u64),
            Some(1234)
        );
        // A border-traffic explosion with identical sim time is
        // informational only — never a regression.
        let mut noisy = entry("a", "Sharded p=4", 10.0, 1);
        noisy.exchange_rounds = 300;
        noisy.border_packets = 123_400;
        let rep = diff(&v, &snap(1, vec![noisy]));
        assert!(!rep.failed(), "{:?}", rep.mismatches);
        assert!(
            rep.lines[0].contains("border 1234 -> 123400 packets"),
            "{:?}",
            rep.lines
        );
        // Pre-ledger snapshots (no border_packets key) diff silently when
        // the new entry also carries no border traffic.
        let old = parse_json(
            r#"{"schema_version": 1, "mode": "smoke", "entries": [{"dataset": "a", "impl_name": "Ours", "status": "ok", "sim_ms": 10.0, "launches": 10, "counters_fingerprint": 1}]}"#,
        )
        .unwrap();
        let rep = diff(&old, &snap(1, vec![entry("a", "Ours", 10.0, 1)]));
        assert!(!rep.failed());
        assert!(!rep.lines[0].contains("border"), "{:?}", rep.lines);
    }

    #[test]
    fn diff_notes_workload_changes_and_new_entries() {
        let old = snap(0, vec![entry("a", "Ours", 100.0, 1)]);
        let prev = parse_json(&serde_json::to_string(&old).unwrap()).unwrap();
        let new = snap(
            1,
            vec![entry("a", "Ours", 100.0, 99), entry("b", "Ours", 5.0, 1)],
        );
        let rep = diff(&prev, &new);
        // a changed workload at the same time fails; a new entry does not
        assert_eq!(rep.mismatches.len(), 1, "{:?}", rep.mismatches);
        assert!(rep.mismatches[0].contains("counters_fingerprint"));
        assert!(rep.lines[0].contains("[MOVED]"));
        assert!(rep.lines[1].contains("new entry"));
    }

    #[test]
    fn diff_refuses_mismatched_schema_or_mode() {
        let mut other_mode = snap(0, vec![entry("a", "Ours", 100.0, 1)]);
        other_mode.mode = "full".into();
        let prev = parse_json(&serde_json::to_string(&other_mode).unwrap()).unwrap();
        let new = snap(1, vec![entry("a", "Ours", 200.0, 1)]);
        let rep = diff(&prev, &new);
        assert!(rep.skipped.is_some());
        assert!(!rep.failed());

        let bad_schema = parse_json(r#"{"schema_version": 99, "mode": "smoke"}"#).unwrap();
        let rep = diff(&bad_schema, &new);
        assert!(rep.skipped.is_some());
        assert!(!rep.failed());
    }

    #[test]
    fn snapshot_files_sequence() {
        let dir = std::env::temp_dir().join(format!("kcore_regress_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(recorded_seqs(&dir).is_empty());
        assert!(latest_snapshot(&dir).is_none());
        write_snapshot(&dir, &snap(0, vec![entry("a", "Ours", 1.0, 1)]));
        write_snapshot(&dir, &snap(1, vec![entry("a", "Ours", 2.0, 1)]));
        assert_eq!(recorded_seqs(&dir), vec![0, 1]);
        let (seq, v) = latest_snapshot(&dir).unwrap();
        assert_eq!(seq, 1);
        let entries = get(&v, "entries").and_then(as_array).unwrap();
        assert_eq!(get(&entries[0], "sim_ms").and_then(as_f64), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
