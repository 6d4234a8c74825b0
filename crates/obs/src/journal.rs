//! Buffered JSONL run journal.
//!
//! One JSON object per line, every line carrying a `"t"` timestamp read
//! from the caller's [`Clock`](crate::Clock) (simulation ticks in the
//! drivers) and an `"ev"` event tag. The encoder is hand-rolled into a
//! reused `String`, so steady-state emission allocates nothing, and the
//! writer is buffered, so a tick's worth of events is one memcpy.
//!
//! Failure policy: the journal **never panics and never fails the
//! run**. An I/O error flips a sticky `errored` flag (queryable, and
//! reported once on stderr) and further writes become no-ops —
//! observability must not take down the experiment it observes.
//!
//! Schema (version 1):
//!
//! ```text
//! {"t":0,"ev":"meta","v":1,"driver":"vivaldi","nodes":70,"seed":61}
//! {"t":3,"ev":"tick","d":{"probe.ok":120,"fault.lost_probes":4},"g":{"embed.mean_local_error":0.21}}
//! {"t":5,"ev":"phase","name":"clean","ticks":6}
//! {"t":7,"ev":"evict","node":12}
//! {"t":7,"ev":"reject","node":12,"peer":3}
//! {"t":9,"ev":"summary","c":{...all counters...},"g":{...}}
//! ```
//!
//! `"d"` maps counter names to their increase since the previous tick
//! line (zero deltas omitted); `"g"` maps gauge names to current
//! values (non-finite gauges omitted — JSON has no NaN).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Journal schema version stamped into the `meta` line.
pub const SCHEMA_VERSION: u64 = 1;

enum Sink {
    /// Bytes accumulate in memory; retrieved via [`Journal::finish`].
    Memory(Vec<u8>),
    /// Buffered file writer.
    File(BufWriter<File>),
}

/// A JSONL event stream. See the module docs for the schema.
pub struct Journal {
    sink: Sink,
    /// Reused per-line encode buffer.
    line: String,
    errored: bool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field(
                "sink",
                &match self.sink {
                    Sink::Memory(ref b) => format!("memory({} bytes)", b.len()),
                    Sink::File(_) => "file".to_string(),
                },
            )
            .field("errored", &self.errored)
            .finish()
    }
}

/// Append `value` to `out` with JSON string escaping.
fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xF;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite `f64` as a JSON number. Callers filter non-finite
/// values; this renders anything it is given via `{}` (shortest
/// round-trip form, always a valid JSON number for finite inputs).
fn push_f64(out: &mut String, value: f64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{value}");
    // `{}` prints integral floats without a dot ("3"); that is still a
    // valid JSON number, so no fixup is needed.
}

impl Journal {
    /// Journal into an in-memory buffer (tests, invariance checks).
    pub fn in_memory() -> Self {
        Self {
            sink: Sink::Memory(Vec::new()),
            line: String::with_capacity(256),
            errored: false,
        }
    }

    /// Journal into a buffered file, truncating any existing content.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            sink: Sink::File(BufWriter::new(file)),
            line: String::with_capacity(256),
            errored: false,
        })
    }

    /// Whether a write has failed; once true the journal is inert.
    pub fn errored(&self) -> bool {
        self.errored
    }

    fn write_line(&mut self) {
        self.line.push('\n');
        if self.errored {
            return;
        }
        let result = match &mut self.sink {
            Sink::Memory(buf) => {
                buf.extend_from_slice(self.line.as_bytes());
                Ok(())
            }
            Sink::File(w) => w.write_all(self.line.as_bytes()),
        };
        if let Err(e) = result {
            self.errored = true;
            eprintln!("ices-obs: journal write failed, journaling disabled: {e}");
        }
    }

    /// `meta` line: run identity, stamped first.
    pub fn meta(&mut self, t: u64, driver: &str, nodes: usize, seed: u64) {
        self.line.clear();
        use std::fmt::Write as _;
        let _ = write!(
            self.line,
            "{{\"t\":{t},\"ev\":\"meta\",\"v\":{SCHEMA_VERSION},\"driver\":"
        );
        push_json_str(&mut self.line, driver);
        let _ = write!(self.line, ",\"nodes\":{nodes},\"seed\":{seed}}}");
        self.write_line();
    }

    /// `tick` line: counter deltas since the previous tick line plus
    /// current finite gauge values. Emitted even when both maps are
    /// empty so the time axis has no holes.
    pub fn tick(&mut self, t: u64, deltas: &[(&'static str, u64)], gauges: &[(&'static str, f64)]) {
        self.line.clear();
        use std::fmt::Write as _;
        let _ = write!(self.line, "{{\"t\":{t},\"ev\":\"tick\",\"d\":{{");
        for (i, (name, d)) in deltas.iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            push_json_str(&mut self.line, name);
            let _ = write!(self.line, ":{d}");
        }
        self.line.push_str("},\"g\":{");
        let mut first = true;
        for (name, v) in gauges {
            if !v.is_finite() {
                continue;
            }
            if !first {
                self.line.push(',');
            }
            first = false;
            push_json_str(&mut self.line, name);
            self.line.push(':');
            push_f64(&mut self.line, *v);
        }
        self.line.push_str("}}");
        self.write_line();
    }

    /// `phase` line: a named span of `ticks` ticks ending at `t`.
    pub fn phase(&mut self, t: u64, name: &str, ticks: u64) {
        self.line.clear();
        use std::fmt::Write as _;
        let _ = write!(self.line, "{{\"t\":{t},\"ev\":\"phase\",\"name\":");
        push_json_str(&mut self.line, name);
        let _ = write!(self.line, ",\"ticks\":{ticks}}}");
        self.write_line();
    }

    /// Discrete per-node event (`evict`, `refresh`, `stale_fallback`,
    /// `defer_arm`, `arm`, ...).
    pub fn node_event(&mut self, t: u64, ev: &str, node: usize) {
        self.line.clear();
        use std::fmt::Write as _;
        let _ = write!(self.line, "{{\"t\":{t},\"ev\":");
        push_json_str(&mut self.line, ev);
        let _ = write!(self.line, ",\"node\":{node}}}");
        self.write_line();
    }

    /// Discrete per-edge event (`reject`: observer flags a peer;
    /// `defense_reject`: cross-verification witnesses vote a peer out).
    pub fn pair_event(&mut self, t: u64, ev: &str, node: usize, peer: usize) {
        self.line.clear();
        use std::fmt::Write as _;
        let _ = write!(self.line, "{{\"t\":{t},\"ev\":");
        push_json_str(&mut self.line, ev);
        let _ = write!(self.line, ",\"node\":{node},\"peer\":{peer}}}");
        self.write_line();
    }

    /// `summary` line: every counter's final value and every finite
    /// gauge, closing the journal's data section.
    pub fn summary(
        &mut self,
        t: u64,
        counters: &[(&'static str, u64)],
        gauges: &[(&'static str, f64)],
    ) {
        self.line.clear();
        use std::fmt::Write as _;
        let _ = write!(self.line, "{{\"t\":{t},\"ev\":\"summary\",\"c\":{{");
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            push_json_str(&mut self.line, name);
            let _ = write!(self.line, ":{v}");
        }
        self.line.push_str("},\"g\":{");
        let mut first = true;
        for (name, v) in gauges {
            if !v.is_finite() {
                continue;
            }
            if !first {
                self.line.push(',');
            }
            first = false;
            push_json_str(&mut self.line, name);
            self.line.push(':');
            push_f64(&mut self.line, *v);
        }
        self.line.push_str("}}");
        self.write_line();
    }

    /// Push buffered lines to the file now, without closing the
    /// journal. The daemon calls this on its shutdown path (and
    /// periodically between poll cycles) so an abort — `SIGKILL`,
    /// `process::exit`, a panic with destructors skipped — loses at
    /// most the lines written since the last flush, never a torn one.
    /// A no-op for in-memory journals and after a write error.
    pub fn flush(&mut self) {
        if self.errored {
            return;
        }
        if let Sink::File(w) = &mut self.sink {
            if let Err(e) = w.flush() {
                self.errored = true;
                eprintln!("ices-obs: journal flush failed, journaling disabled: {e}");
            }
        }
    }

    /// Flush and close. Returns the accumulated bytes for an in-memory
    /// journal, `None` for a file journal (whose bytes are on disk).
    pub fn finish(mut self) -> Option<Vec<u8>> {
        match &mut self.sink {
            Sink::Memory(buf) => Some(std::mem::take(buf)),
            Sink::File(w) => {
                if let Err(e) = w.flush() {
                    if !self.errored {
                        eprintln!("ices-obs: journal flush failed: {e}");
                    }
                    self.errored = true;
                }
                None
            }
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best-effort flush for file journals dropped without finish().
        if let Sink::File(w) = &mut self.sink {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(journal: Journal) -> Vec<String> {
        let bytes = journal.finish().unwrap_or_default();
        String::from_utf8(bytes)
            .unwrap_or_default()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn emits_one_valid_json_object_per_line() {
        let mut j = Journal::in_memory();
        j.meta(0, "vivaldi", 70, 61);
        j.tick(1, &[("probe.ok", 3)], &[("err", 0.5), ("nan", f64::NAN)]);
        j.phase(6, "clean", 6);
        j.node_event(7, "evict", 12);
        j.pair_event(7, "reject", 12, 3);
        j.summary(9, &[("probe.ok", 3)], &[]);
        let lines = lines(j);
        assert_eq!(lines.len(), 6);
        for line in &lines {
            let _: serde::Value =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e:?}"));
        }
        assert!(lines[1].contains("\"probe.ok\":3"));
        assert!(
            !lines[1].contains("nan"),
            "non-finite gauges must be omitted"
        );
    }

    #[test]
    fn escapes_strings() {
        let mut j = Journal::in_memory();
        j.phase(0, "we\"ird\nname", 1);
        let lines = lines(j);
        assert_eq!(lines.len(), 1);
        let v = serde_json::from_str(&lines[0]).unwrap_or_else(|e| panic!("{e:?}"));
        let name = match &v {
            serde::Value::Map(m) => m.iter().find(|(k, _)| k == "name").map(|(_, v)| v.clone()),
            _ => None,
        };
        assert_eq!(name, Some(serde::Value::Str("we\"ird\nname".to_string())));
    }

    #[test]
    fn empty_tick_line_still_emitted() {
        let mut j = Journal::in_memory();
        j.tick(4, &[], &[]);
        let lines = lines(j);
        assert_eq!(lines, vec!["{\"t\":4,\"ev\":\"tick\",\"d\":{},\"g\":{}}"]);
    }
}
