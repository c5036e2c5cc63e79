//! Cycle-by-cycle trace recording and ASCII rendering.
//!
//! The recorder snapshots, for every cycle, the state of every channel
//! (which thread was valid, whether the transfer fired, the token label)
//! and the occupancy of every storage slot reported by components via
//! [`Component::slots`](crate::Component::slots).
//!
//! Two renderers are provided:
//!
//! * [`render_waveform`] — a compact `valid`/`ready`/`data` waveform for a
//!   handful of channels, in the style of the paper's Figure 2(b);
//! * [`GridTrace`] — a table with one column per cycle and one row per
//!   channel or slot, in the style of the paper's Figure 5.

use std::fmt::Write as _;

use crate::channel::ChannelId;
use crate::component::SlotView;

/// The recorded state of one channel in one cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChannelTrace {
    /// Thread whose `valid` bit was asserted (at most one by protocol).
    pub valid_thread: Option<usize>,
    /// Label of the token on the data bus (when valid).
    pub label: Option<String>,
    /// Whether the transfer completed (`valid && ready`).
    pub fired: bool,
}

/// The recorded state of the whole circuit in one cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CycleTrace {
    /// Cycle index (0-based).
    pub cycle: u64,
    /// Per-channel state, indexed by [`ChannelId::index`].
    pub channels: Vec<ChannelTrace>,
    /// Per-component slot occupancy as `(component index, slots)` pairs,
    /// sorted by index; only components with non-empty slots appear. The
    /// index resolves to a name through the recorder's
    /// [name table](TraceRecorder::component_names) at render time, so
    /// the per-cycle snapshot allocates no keys and builds no map.
    pub slots: Vec<(usize, Vec<SlotView>)>,
}

/// Accumulates [`CycleTrace`] records while the circuit runs.
///
/// Enable with [`Circuit::enable_trace`](crate::Circuit::enable_trace);
/// retrieve with [`Circuit::trace`](crate::Circuit::trace).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TraceRecorder {
    records: Vec<CycleTrace>,
    /// Component names in evaluation order — the table that resolves the
    /// index-keyed [`CycleTrace::slots`] entries at render time.
    names: Vec<String>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the component-name table (evaluation order). Set once by
    /// [`Circuit::enable_trace`](crate::Circuit::enable_trace).
    pub fn set_names(&mut self, names: Vec<String>) {
        self.names = names;
    }

    /// The component-name table, in evaluation order.
    pub fn component_names(&self) -> &[String] {
        &self.names
    }

    pub(crate) fn push(&mut self, record: CycleTrace) {
        self.records.push(record);
    }

    /// All recorded cycles, oldest first.
    pub fn records(&self) -> &[CycleTrace] {
        &self.records
    }

    /// The labels transferred on `ch` (fired transfers only), in order,
    /// as `(cycle, thread, label)` triples.
    pub fn transfers_on(&self, ch: ChannelId) -> Vec<(u64, usize, String)> {
        self.records
            .iter()
            .filter_map(|r| {
                let c = &r.channels[ch.index()];
                match (c.fired, c.valid_thread, &c.label) {
                    (true, Some(t), Some(l)) => Some((r.cycle, t, l.clone())),
                    _ => None,
                }
            })
            .collect()
    }
}

/// One row of a [`GridTrace`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RowSpec {
    /// Show the token on a channel each cycle. Stalled tokens (valid but
    /// not fired) are rendered with a trailing `*`.
    Channel {
        /// Channel to display.
        id: ChannelId,
        /// Row caption.
        caption: String,
    },
    /// Show the occupant of a named storage slot of a named component.
    Slot {
        /// Component instance name (as reported by `Component::name`).
        component: String,
        /// Slot name (as reported in [`SlotView::name`]).
        slot: String,
        /// Row caption.
        caption: String,
    },
}

impl RowSpec {
    /// Row displaying channel `id` with the given caption.
    pub fn channel(id: ChannelId, caption: impl Into<String>) -> Self {
        RowSpec::Channel {
            id,
            caption: caption.into(),
        }
    }

    /// Row displaying slot `slot` of component `component`.
    pub fn slot(
        component: impl Into<String>,
        slot: impl Into<String>,
        caption: impl Into<String>,
    ) -> Self {
        RowSpec::Slot {
            component: component.into(),
            slot: slot.into(),
            caption: caption.into(),
        }
    }
}

/// Renders recorded cycles as a table with one column per cycle — the
/// format of the paper's Figure 5.
///
/// # Examples
///
/// ```no_run
/// # use elastic_sim::{GridTrace, RowSpec, TraceRecorder, ChannelId};
/// # fn demo(rec: &TraceRecorder, input: ChannelId) {
/// let grid = GridTrace::new(vec![
///     RowSpec::channel(input, "Input"),
///     RowSpec::slot("meb0", "main[0]", "MEB#0 A"),
/// ]);
/// println!("{}", grid.render(rec, 0, 9));
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GridTrace {
    rows: Vec<RowSpec>,
}

impl GridTrace {
    /// Creates a grid with the given rows (top to bottom).
    pub fn new(rows: Vec<RowSpec>) -> Self {
        Self { rows }
    }

    fn cell(&self, row: &RowSpec, rec: &CycleTrace, names: &[String]) -> String {
        match row {
            RowSpec::Channel { id, .. } => {
                let c = &rec.channels[id.index()];
                match (&c.label, c.fired) {
                    (Some(l), true) => l.clone(),
                    (Some(l), false) => format!("{l}*"),
                    (None, _) => String::new(),
                }
            }
            RowSpec::Slot {
                component, slot, ..
            } => {
                // Resolve the row's component name through the name table
                // once per cell — render time only, never on the hot path.
                let idx = names.iter().position(|n| n == component);
                idx.and_then(|idx| {
                    rec.slots
                        .iter()
                        .find(|(i, _)| *i == idx)
                        .and_then(|(_, slots)| slots.iter().find(|s| &s.name == slot))
                        .and_then(|s| s.occupant.as_ref())
                        .map(|(_, l)| l.clone())
                })
                .unwrap_or_default()
            }
        }
    }

    /// Renders cycles `from..=to` as an aligned ASCII table.
    ///
    /// Channel cells show the token label; a trailing `*` marks a token
    /// that was valid but stalled (did not fire). Slot cells show the
    /// occupant label; empty cells are blank.
    pub fn render(&self, recorder: &TraceRecorder, from: u64, to: u64) -> String {
        let records: Vec<&CycleTrace> = recorder
            .records()
            .iter()
            .filter(|r| r.cycle >= from && r.cycle <= to)
            .collect();

        let captions: Vec<&str> = self
            .rows
            .iter()
            .map(|r| match r {
                RowSpec::Channel { caption, .. } | RowSpec::Slot { caption, .. } => {
                    caption.as_str()
                }
            })
            .collect();
        let caption_w = captions.iter().map(|c| c.len()).max().unwrap_or(0).max(6);

        // Pre-compute cells to size columns.
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            cells.push(
                records
                    .iter()
                    .map(|r| self.cell(row, r, recorder.component_names()))
                    .collect(),
            );
        }
        let mut col_w: Vec<usize> = records.iter().map(|r| r.cycle.to_string().len()).collect();
        for row_cells in &cells {
            for (i, c) in row_cells.iter().enumerate() {
                col_w[i] = col_w[i].max(c.len());
            }
        }
        col_w.iter_mut().for_each(|w| *w = (*w).max(2));

        let mut out = String::new();
        // Header row with cycle numbers.
        let _ = write!(out, "{:caption_w$} |", "cycle");
        for (i, r) in records.iter().enumerate() {
            let _ = write!(out, " {:>w$} |", r.cycle, w = col_w[i]);
        }
        out.push('\n');
        let total: usize = caption_w + 2 + col_w.iter().map(|w| w + 3).sum::<usize>();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for (row_i, row_cells) in cells.iter().enumerate() {
            let _ = write!(out, "{:caption_w$} |", captions[row_i]);
            for (i, c) in row_cells.iter().enumerate() {
                let _ = write!(out, " {:>w$} |", c, w = col_w[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Renders a `valid/ready/data` waveform for the given channels, one
/// character column per cycle, in the style of the paper's Figure 2(b).
///
/// `valid`/`ready` rows use `▔` for high and `▁` for low; the data row
/// prints the token label at the cycle the transfer fires and `.`
/// otherwise.
pub fn render_waveform(
    recorder: &TraceRecorder,
    channels: &[(ChannelId, &str)],
    from: u64,
    to: u64,
) -> String {
    let records: Vec<&CycleTrace> = recorder
        .records()
        .iter()
        .filter(|r| r.cycle >= from && r.cycle <= to)
        .collect();
    let name_w = channels
        .iter()
        .map(|(_, n)| n.len() + 6)
        .max()
        .unwrap_or(10)
        .max(10);
    let mut out = String::new();

    let _ = write!(out, "{:name_w$} ", "cycle");
    for r in &records {
        let _ = write!(out, "{:>3}", r.cycle % 1000);
    }
    out.push('\n');

    for (ch, name) in channels {
        for signal in ["valid", "ready", "data"] {
            let _ = write!(out, "{:name_w$} ", format!("{name}.{signal}"));
            for r in &records {
                let c = &r.channels[ch.index()];
                match signal {
                    "valid" => {
                        let _ = write!(
                            out,
                            "{:>3}",
                            if c.valid_thread.is_some() {
                                "▔"
                            } else {
                                "▁"
                            }
                        );
                    }
                    "ready" => {
                        // A channel is shown ready when the asserted thread fired,
                        // or (with no valid) left blank-low: we only know ready
                        // through fired, which is what the figure illustrates.
                        let _ = write!(out, "{:>3}", if c.fired { "▔" } else { "▁" });
                    }
                    _ => {
                        let cell = if c.fired {
                            c.label.clone().unwrap_or_default()
                        } else {
                            ".".into()
                        };
                        let _ = write!(out, "{cell:>3}");
                    }
                }
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cycle: u64, label: Option<&str>, fired: bool) -> CycleTrace {
        CycleTrace {
            cycle,
            channels: vec![ChannelTrace {
                valid_thread: label.map(|_| 0),
                label: label.map(str::to_string),
                fired,
            }],
            // Component index 1 ("buf" in the test name table).
            slots: vec![(1, vec![SlotView::full("main[0]", 0, format!("S{cycle}"))])],
        }
    }

    fn recorder_with_names() -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        rec.set_names(vec!["src".into(), "buf".into(), "snk".into()]);
        rec
    }

    #[test]
    fn transfers_on_returns_only_fired() {
        let mut rec = TraceRecorder::new();
        rec.push(record(0, Some("A0"), true));
        rec.push(record(1, Some("A1"), false));
        rec.push(record(2, Some("A1"), true));
        let t = rec.transfers_on(ChannelId(0));
        assert_eq!(t, vec![(0, 0, "A0".into()), (2, 0, "A1".into())]);
    }

    #[test]
    fn grid_renders_stall_marker_and_slots() {
        let mut rec = recorder_with_names();
        rec.push(record(0, Some("A0"), true));
        rec.push(record(1, Some("A1"), false));
        let grid = GridTrace::new(vec![
            RowSpec::channel(ChannelId(0), "in"),
            RowSpec::slot("buf", "main[0]", "buf A"),
        ]);
        let s = grid.render(&rec, 0, 1);
        assert!(s.contains("A0"), "{s}");
        assert!(s.contains("A1*"), "{s}");
        assert!(s.contains("S0"), "{s}");
        assert!(s.contains("S1"), "{s}");
    }

    #[test]
    fn grid_slot_row_for_unknown_component_is_blank() {
        let mut rec = recorder_with_names();
        rec.push(record(0, Some("A0"), true));
        let grid = GridTrace::new(vec![RowSpec::slot("nope", "main[0]", "ghost")]);
        let s = grid.render(&rec, 0, 0);
        assert!(s.contains("ghost"), "{s}");
        assert!(!s.contains("S0"), "{s}");
    }

    #[test]
    fn waveform_renders_rows_per_signal() {
        let mut rec = TraceRecorder::new();
        rec.push(record(0, Some("A0"), true));
        rec.push(record(1, None, false));
        let w = render_waveform(&rec, &[(ChannelId(0), "ch")], 0, 1);
        assert!(w.contains("ch.valid"));
        assert!(w.contains("ch.ready"));
        assert!(w.contains("ch.data"));
        assert!(w.contains("A0"));
    }
}
