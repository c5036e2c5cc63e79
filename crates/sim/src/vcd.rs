//! Value Change Dump (VCD) export — open recorded traces in GTKWave or
//! any other waveform viewer.
//!
//! For every channel the dump contains one `valid` bit per thread, a
//! `fired` bit, and the token label as a string variable. Values are
//! emitted only on change, as the format requires.

use std::io::{self, Write};

use crate::channel::ChannelId;
use crate::circuit::Circuit;
use crate::token::Token;
use crate::trace::TraceRecorder;

/// Errors from VCD export.
#[derive(Debug)]
pub enum VcdError {
    /// The circuit has no recorded trace (call
    /// [`Circuit::enable_trace`] before running).
    NoTrace,
    /// The underlying writer failed.
    Io(io::Error),
}

impl std::fmt::Display for VcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcdError::NoTrace => write!(f, "no trace recorded: enable tracing before running"),
            VcdError::Io(e) => write!(f, "vcd write failed: {e}"),
        }
    }
}

impl std::error::Error for VcdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VcdError::NoTrace => None,
            VcdError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for VcdError {
    fn from(e: io::Error) -> Self {
        VcdError::Io(e)
    }
}

/// A channel to include in the dump: id, display name, thread count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VcdChannel {
    /// Channel to dump.
    pub id: ChannelId,
    /// Signal-group name in the VCD scope tree.
    pub name: String,
    /// Threads (one `valid` bit each).
    pub threads: usize,
}

/// Builds a VCD identifier code (printable ASCII 33–126, excluding
/// whitespace) from an index.
fn id_code(mut n: usize) -> String {
    let mut s = String::new();
    loop {
        s.push(char::from(33 + (n % 94) as u8));
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

/// Sanitizes a channel name into a VCD identifier.
fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    if s.is_empty() {
        "ch".to_string()
    } else {
        s
    }
}

/// Sanitizes every channel name into a **unique** VCD scope name.
///
/// `sanitize` is lossy (`a.b` and `a_b` both map to `a_b`), so distinct
/// channels used to collapse into one scope, leaving their variables
/// indistinguishable in the waveform viewer. Colliding names get a
/// `_2`, `_3`, … suffix in channel order.
fn unique_scope_names(channels: &[VcdChannel]) -> Vec<String> {
    let mut used = std::collections::HashSet::new();
    channels
        .iter()
        .map(|ch| {
            let base = sanitize(&ch.name);
            let mut candidate = base.clone();
            let mut n = 1usize;
            while !used.insert(candidate.clone()) {
                n += 1;
                candidate = format!("{base}_{n}");
            }
            candidate
        })
        .collect()
}

/// Encodes a token label for a `$var string` value-change line.
///
/// The VCD change record is `s<value> <id>`: any whitespace inside the
/// value ends it early and shifts the identifier, producing a dump that
/// GTKWave rejects (or silently mis-associates). Whitespace, control
/// characters and the escape character itself are therefore hex-escaped
/// (`\xNN` per UTF-8 byte); all other characters pass through.
fn encode_label(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c == '\\' {
            out.push_str("\\\\");
        } else if c.is_whitespace() || c.is_control() {
            let mut buf = [0u8; 4];
            for b in c.encode_utf8(&mut buf).bytes() {
                out.push_str(&format!("\\x{b:02x}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Writes the recorded cycles of `recorder` for the given channels as a
/// VCD document, and flushes `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`, the final flush included: a buffered
/// writer's last block fails here, not unseen when the writer drops.
pub fn write_vcd<W: Write>(
    recorder: &TraceRecorder,
    channels: &[VcdChannel],
    mut w: W,
) -> io::Result<()> {
    writeln!(w, "$version elastic-sim VCD export $end")?;
    writeln!(w, "$timescale 1 ns $end")?;
    writeln!(w, "$scope module top $end")?;

    // Variable ids: per channel, [valid bits...], fired, label.
    let scopes = unique_scope_names(channels);
    let mut next_id = 0usize;
    let mut var_ids: Vec<(Vec<String>, String, String)> = Vec::new();
    for (ch, scope) in channels.iter().zip(&scopes) {
        writeln!(w, "$scope module {scope} $end")?;
        let mut valid_ids = Vec::with_capacity(ch.threads);
        for t in 0..ch.threads {
            let id = id_code(next_id);
            next_id += 1;
            writeln!(w, "$var wire 1 {id} valid_t{t} $end")?;
            valid_ids.push(id);
        }
        let fired_id = id_code(next_id);
        next_id += 1;
        writeln!(w, "$var wire 1 {fired_id} fired $end")?;
        let label_id = id_code(next_id);
        next_id += 1;
        writeln!(w, "$var string 1 {label_id} token $end")?;
        writeln!(w, "$upscope $end")?;
        var_ids.push((valid_ids, fired_id, label_id));
    }
    writeln!(w, "$upscope $end")?;
    writeln!(w, "$enddefinitions $end")?;

    // State for change detection.
    let mut last_valid: Vec<Vec<Option<bool>>> =
        channels.iter().map(|c| vec![None; c.threads]).collect();
    let mut last_fired: Vec<Option<bool>> = vec![None; channels.len()];
    let mut last_label: Vec<Option<String>> = vec![None; channels.len()];

    for record in recorder.records() {
        let mut changes: Vec<String> = Vec::new();
        for (ci, ch) in channels.iter().enumerate() {
            let tr = &record.channels[ch.id.index()];
            let (valid_ids, fired_id, label_id) = &var_ids[ci];
            for t in 0..ch.threads {
                let v = tr.valid_thread == Some(t);
                if last_valid[ci][t] != Some(v) {
                    changes.push(format!("{}{}", u8::from(v), valid_ids[t]));
                    last_valid[ci][t] = Some(v);
                }
            }
            if last_fired[ci] != Some(tr.fired) {
                changes.push(format!("{}{}", u8::from(tr.fired), fired_id));
                last_fired[ci] = Some(tr.fired);
            }
            let label = tr.label.clone().unwrap_or_default();
            if last_label[ci].as_deref() != Some(label.as_str()) {
                changes.push(format!("s{} {label_id}", encode_label(&label)));
                last_label[ci] = Some(label);
            }
        }
        if !changes.is_empty() {
            writeln!(w, "#{}", record.cycle)?;
            for c in changes {
                writeln!(w, "{c}")?;
            }
        }
    }
    w.flush()
}

impl<T: Token> Circuit<T> {
    /// Exports the recorded trace of **all** channels as a VCD document.
    ///
    /// # Errors
    ///
    /// [`VcdError::NoTrace`] when tracing was never enabled, or a wrapped
    /// I/O error.
    pub fn write_vcd<W: Write>(&self, w: W) -> Result<(), VcdError> {
        let recorder = self.trace().ok_or(VcdError::NoTrace)?;
        let channels: Vec<VcdChannel> = self
            .channel_ids()
            .into_iter()
            .map(|id| VcdChannel {
                id,
                name: self.channel_name(id).to_string(),
                threads: self.channel_threads(id),
            })
            .collect();
        write_vcd(recorder, &channels, w)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::schedule::{ReadyPolicy, Sink, Source};
    use crate::token::Tagged;

    fn traced_circuit() -> Circuit<Tagged> {
        let mut b = CircuitBuilder::<Tagged>::new();
        let ch = b.channel("main bus", 2);
        let mut src = Source::new("src", ch, 2);
        src.extend(0, (0..3).map(|i| Tagged::new(0, i, i)));
        src.extend(1, (0..2).map(|i| Tagged::new(1, i, i)));
        b.add(src);
        b.add(Sink::new(
            "snk",
            ch,
            2,
            ReadyPolicy::Period {
                on: 2,
                off: 1,
                phase: 0,
            },
        ));
        let mut c = b.build().expect("valid");
        c.enable_trace();
        c.run(10).expect("clean");
        c
    }

    #[test]
    fn dump_has_header_vars_and_changes() {
        let c = traced_circuit();
        let mut out = Vec::new();
        c.write_vcd(&mut out).expect("vcd written");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("$timescale 1 ns $end"));
        assert!(text.contains("$scope module main_bus $end"));
        assert!(text.contains("valid_t0"));
        assert!(text.contains("valid_t1"));
        assert!(text.contains("fired"));
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("#0"), "{text}");
        // At least one token label was dumped.
        assert!(text.contains("sA0 ") || text.contains("sB0 "), "{text}");
    }

    #[test]
    fn values_only_emitted_on_change() {
        let c = traced_circuit();
        let mut out = Vec::new();
        c.write_vcd(&mut out).expect("vcd written");
        let text = String::from_utf8(out).expect("utf8");
        // Count timestamp markers: with 10 cycles there must be at most 10,
        // and fewer than 10 if consecutive cycles were identical.
        let stamps = text.lines().filter(|l| l.starts_with('#')).count();
        assert!((1..=10).contains(&stamps), "{stamps}");
    }

    /// Takes every write and fails every flush, as a buffered file does
    /// when its last block cannot be written.
    struct FailingFlush;

    impl Write for FailingFlush {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn a_failing_flush_is_an_error() {
        let err = traced_circuit().write_vcd(FailingFlush).unwrap_err();
        assert!(matches!(err, VcdError::Io(_)), "{err:?}");
    }

    #[test]
    fn no_trace_is_an_error() {
        let mut b = CircuitBuilder::<u64>::new();
        let ch = b.channel("c", 1);
        let mut src = Source::new("src", ch, 1);
        src.push(0, 1);
        b.add(src);
        b.add(Sink::new("snk", ch, 1, ReadyPolicy::Always));
        let c = b.build().expect("valid");
        let err = c.write_vcd(Vec::new()).unwrap_err();
        assert!(matches!(err, VcdError::NoTrace));
    }

    /// Line-level validity check for the change section: every `$var
    /// string` change must be exactly `s<value> <id>` with a known id and
    /// no stray whitespace inside the value.
    fn check_string_changes(text: &str) {
        let defined: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).expect("id field"))
            .collect();
        let mut saw_string_change = false;
        let body = text
            .split("$enddefinitions $end")
            .nth(1)
            .expect("change section");
        for line in body.lines().filter(|l| l.starts_with('s')) {
            saw_string_change = true;
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 2, "malformed string change: {line:?}");
            let value = &fields[0][1..];
            assert!(
                value.chars().all(|c| !c.is_whitespace() && !c.is_control()),
                "unescaped whitespace in {line:?}"
            );
            assert!(
                defined.contains(&fields[1]),
                "change references undefined id: {line:?}"
            );
        }
        assert!(saw_string_change, "no string change found:\n{text}");
    }

    #[test]
    fn labels_with_spaces_are_escaped() {
        // String tokens whose labels contain spaces, tabs and newlines —
        // each used to leak raw whitespace into the `s<value> <id>`
        // change record and shift the identifier field.
        let mut b = CircuitBuilder::<String>::new();
        let ch = b.channel("bus", 1);
        let mut src = Source::new("src", ch, 1);
        src.extend(
            0,
            [
                "spaced label".to_string(),
                "tab\tsep".to_string(),
                "multi\nline".to_string(),
                "back\\slash".to_string(),
            ],
        );
        b.add(src);
        b.add(Sink::new("snk", ch, 1, ReadyPolicy::Always));
        let mut c = b.build().expect("valid");
        c.enable_trace();
        c.run(6).expect("clean");

        let mut out = Vec::new();
        c.write_vcd(&mut out).expect("vcd written");
        let text = String::from_utf8(out).expect("utf8");
        check_string_changes(&text);
        assert!(
            text.contains(r"sspaced\x20label"),
            "space not hex-escaped:\n{text}"
        );
        assert!(text.contains(r"stab\x09sep"), "tab not escaped:\n{text}");
        assert!(
            text.contains(r"smulti\x0aline"),
            "newline not escaped:\n{text}"
        );
        assert!(
            text.contains(r"sback\\slash"),
            "escape char not doubled:\n{text}"
        );
    }

    #[test]
    fn default_labels_still_pass_line_check() {
        let c = traced_circuit();
        let mut out = Vec::new();
        c.write_vcd(&mut out).expect("vcd written");
        check_string_changes(&String::from_utf8(out).expect("utf8"));
    }

    #[test]
    fn sanitize_collisions_get_distinct_scopes() {
        // `a.b` and `a_b` both sanitize to `a_b`; the dump must keep them
        // apart or their variables merge into one scope in the viewer.
        let mut b = CircuitBuilder::<u64>::new();
        let c1 = b.channel("a.b", 1);
        let c2 = b.channel("a_b", 1);
        let mut s1 = Source::new("src1", c1, 1);
        s1.push(0, 1);
        let mut s2 = Source::new("src2", c2, 1);
        s2.push(0, 2);
        b.add(s1);
        b.add(s2);
        b.add(Sink::new("k1", c1, 1, ReadyPolicy::Always));
        b.add(Sink::new("k2", c2, 1, ReadyPolicy::Always));
        let mut c = b.build().expect("valid");
        c.enable_trace();
        c.run(3).expect("clean");

        let mut out = Vec::new();
        c.write_vcd(&mut out).expect("vcd written");
        let text = String::from_utf8(out).expect("utf8");
        let scopes: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("$scope module") && !l.contains(" top "))
            .map(|l| l.split_whitespace().nth(2).expect("scope name"))
            .collect();
        assert_eq!(scopes.len(), 2);
        let unique: std::collections::HashSet<&&str> = scopes.iter().collect();
        assert_eq!(unique.len(), 2, "scope names collided: {scopes:?}");
        assert!(scopes.contains(&"a_b"));
        assert!(scopes.contains(&"a_b_2"));
    }

    #[test]
    fn empty_channel_name_gets_fallback_scope() {
        assert_eq!(sanitize("—"), "_");
        assert_eq!(sanitize(""), "ch");
        let chans = [
            VcdChannel {
                id: ChannelId(0),
                name: String::new(),
                threads: 1,
            },
            VcdChannel {
                id: ChannelId(1),
                name: String::new(),
                threads: 1,
            },
        ];
        assert_eq!(unique_scope_names(&chans), vec!["ch", "ch_2"]);
    }

    #[test]
    fn id_codes_are_printable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let id = id_code(n);
            assert!(id.chars().all(|c| (33..=126).contains(&(c as u32))));
            assert!(seen.insert(id), "duplicate id for {n}");
        }
    }
}
