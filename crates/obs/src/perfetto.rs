//! Perfetto protobuf trace export.
//!
//! Renders recorded spans as a binary [Perfetto](https://perfetto.dev)
//! `Trace` message, loadable directly in <https://ui.perfetto.dev> —
//! no JSON conversion, no truncation limits. The encoder is a pure
//! function of the span list, so two identically-seeded runs export
//! byte-identical traces (the same determinism contract as
//! [`crate::to_chrome_trace`]).
//!
//! The schema subset used (field numbers from the public
//! `perfetto.protos` definitions):
//!
//! * `Trace.packet = 1` — the repeated [`TracePacket`] stream;
//! * `TracePacket`: `timestamp = 8`, `trusted_packet_sequence_id = 10`,
//!   `track_event = 11`, `track_descriptor = 60`;
//! * `TrackDescriptor`: `uuid = 1`, `name = 2`, `parent_uuid = 5`;
//! * `TrackEvent`: `debug_annotations = 4`, `type = 9`,
//!   `track_uuid = 11`, `categories = 22`, `name = 23`;
//! * `DebugAnnotation`: `string_value = 6`, `name = 10`.
//!
//! Layout: each trace becomes a named parent track (`trace N`); its
//! spans are packed onto child *lanes* by a greedy interval scheduler
//! so overlapping spans render side by side instead of corrupting the
//! begin/end nesting Perfetto expects per track. Timestamps are
//! simulation-µs scaled to ns (Perfetto's native unit). Track uuids
//! are allocated sequentially — never from randomness — and every
//! span's ids, kind, and attributes ride along as debug annotations.
//!
//! [`decode_perfetto`] is a verifying decoder for the same subset; the
//! test-suite round-trips large traces through it to prove the writer
//! emits well-formed protobuf end to end.

use crate::span::Span;

// ---------------------------------------------------------------------
// Protobuf wire-format primitives (proto3, subset: varint + length-
// delimited). Hand-rolled: the export must not pull in a codegen
// dependency.
// ---------------------------------------------------------------------

const WIRE_VARINT: u64 = 0;
const WIRE_LEN: u64 = 2;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_key(out: &mut Vec<u8>, field: u64, wire: u64) {
    put_varint(out, (field << 3) | wire);
}

fn put_varint_field(out: &mut Vec<u8>, field: u64, v: u64) {
    put_key(out, field, WIRE_VARINT);
    put_varint(out, v);
}

fn put_len_field(out: &mut Vec<u8>, field: u64, bytes: &[u8]) {
    put_key(out, field, WIRE_LEN);
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn put_str_field(out: &mut Vec<u8>, field: u64, s: &str) {
    put_len_field(out, field, s.as_bytes());
}

// TracePacket field numbers.
const PACKET: u64 = 1; // Trace.packet
const TIMESTAMP: u64 = 8;
const SEQUENCE_ID: u64 = 10;
const TRACK_EVENT: u64 = 11;
const TRACK_DESCRIPTOR: u64 = 60;

// TrackDescriptor field numbers.
const TRACK_UUID_FIELD: u64 = 1;
const TRACK_NAME: u64 = 2;
const TRACK_PARENT_UUID: u64 = 5;

// TrackEvent field numbers.
const EVENT_ANNOTATIONS: u64 = 4;
const EVENT_TYPE: u64 = 9;
const EVENT_TRACK_UUID: u64 = 11;
const EVENT_CATEGORIES: u64 = 22;
const EVENT_NAME: u64 = 23;

// DebugAnnotation field numbers.
const ANNOTATION_STRING_VALUE: u64 = 6;
const ANNOTATION_NAME: u64 = 10;

/// `TrackEvent.Type.TYPE_SLICE_BEGIN`.
pub const SLICE_BEGIN: u64 = 1;
/// `TrackEvent.Type.TYPE_SLICE_END`.
pub const SLICE_END: u64 = 2;

/// All packets share one synthetic trusted sequence id; the export is
/// produced by a single logical writer.
const SEQUENCE: u64 = 1;

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------

/// One span occurrence placed on a lane, ready to become a
/// begin/end packet pair.
struct Placed<'a> {
    span: &'a Span,
    lane_uuid: u64,
}

/// Render spans (any order) as a binary Perfetto `Trace` message.
///
/// Open spans are emitted as an un-terminated `SLICE_BEGIN` with an
/// `open = "true"` annotation, so an export taken mid-run still loads
/// (Perfetto draws the slice to the end of the trace). The output is a
/// pure function of the input — byte-identical across reruns of a
/// seeded scenario.
pub fn to_perfetto_trace(spans: &[Span]) -> Vec<u8> {
    let mut out = Vec::with_capacity(spans.len() * 96 + 64);
    let mut next_uuid: u64 = 1;
    let mut placed: Vec<Placed<'_>> = Vec::with_capacity(spans.len());

    // Group spans by trace, keeping trace-id order deterministic.
    let mut trace_ids: Vec<u64> = spans.iter().map(|s| s.trace.0).collect();
    trace_ids.sort_unstable();
    trace_ids.dedup();

    for trace in trace_ids {
        let mut members: Vec<&Span> = spans.iter().filter(|s| s.trace.0 == trace).collect();
        // Greedy interval packing: first lane whose last slice ended at
        // or before this span's start takes it; open spans hold their
        // lane forever.
        members.sort_by_key(|s| (s.start.0, s.id.0));
        let root_uuid = next_uuid;
        next_uuid += 1;
        emit_track_descriptor(&mut out, root_uuid, &format!("trace {trace}"), None);
        let mut lanes: Vec<(u64, u64)> = Vec::new(); // (lane uuid, busy-until µs)
        for span in members {
            let end = span.end.map_or(u64::MAX, |e| e.0);
            let lane_uuid = match lanes.iter_mut().find(|(_, busy)| *busy <= span.start.0) {
                Some(lane) => {
                    lane.1 = end;
                    lane.0
                }
                None => {
                    let uuid = next_uuid;
                    next_uuid += 1;
                    emit_track_descriptor(
                        &mut out,
                        uuid,
                        &format!("trace {trace} / lane {}", lanes.len()),
                        Some(root_uuid),
                    );
                    lanes.push((uuid, end));
                    uuid
                }
            };
            placed.push(Placed { span, lane_uuid });
        }
    }

    // Emit begin/end events in global timestamp order; ends sort before
    // begins at the same instant so back-to-back slices on one lane
    // stay properly nested.
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(placed.len() * 2);
    for (i, p) in placed.iter().enumerate() {
        events.push((p.span.start.0, 1, i));
        if let Some(end) = p.span.end {
            events.push((end.0, 0, i));
        }
    }
    events.sort_unstable_by_key(|&(ts, phase, i)| (ts, phase, i));

    for (ts, phase, i) in events {
        let p = &placed[i];
        if phase == 1 {
            emit_slice_begin(&mut out, ts, p.lane_uuid, p.span);
        } else {
            emit_slice_end(&mut out, ts, p.lane_uuid);
        }
    }
    out
}

fn emit_track_descriptor(out: &mut Vec<u8>, uuid: u64, name: &str, parent: Option<u64>) {
    let mut desc = Vec::with_capacity(name.len() + 16);
    put_varint_field(&mut desc, TRACK_UUID_FIELD, uuid);
    put_str_field(&mut desc, TRACK_NAME, name);
    if let Some(parent) = parent {
        put_varint_field(&mut desc, TRACK_PARENT_UUID, parent);
    }
    let mut packet = Vec::with_capacity(desc.len() + 8);
    put_len_field(&mut packet, TRACK_DESCRIPTOR, &desc);
    put_varint_field(&mut packet, SEQUENCE_ID, SEQUENCE);
    put_len_field(out, PACKET, &packet);
}

fn annotation(name: &str, value: &str) -> Vec<u8> {
    let mut a = Vec::with_capacity(name.len() + value.len() + 8);
    put_str_field(&mut a, ANNOTATION_STRING_VALUE, value);
    put_str_field(&mut a, ANNOTATION_NAME, name);
    a
}

fn emit_slice_begin(out: &mut Vec<u8>, ts_us: u64, track_uuid: u64, span: &Span) {
    let mut event = Vec::with_capacity(span.name.len() + 64);
    let ann = |event: &mut Vec<u8>, k: &str, v: &str| {
        put_len_field(event, EVENT_ANNOTATIONS, &annotation(k, v));
    };
    ann(&mut event, "span", &span.id.0.to_string());
    if let Some(parent) = span.parent {
        ann(&mut event, "parent", &parent.0.to_string());
    }
    if span.end.is_none() {
        ann(&mut event, "open", "true");
    }
    for (k, v) in &span.attrs {
        ann(&mut event, k, v);
    }
    put_varint_field(&mut event, EVENT_TYPE, SLICE_BEGIN);
    put_varint_field(&mut event, EVENT_TRACK_UUID, track_uuid);
    put_str_field(&mut event, EVENT_CATEGORIES, span.kind.name());
    put_str_field(&mut event, EVENT_NAME, &span.name);
    emit_event_packet(out, ts_us, &event);
}

fn emit_slice_end(out: &mut Vec<u8>, ts_us: u64, track_uuid: u64) {
    let mut event = Vec::with_capacity(8);
    put_varint_field(&mut event, EVENT_TYPE, SLICE_END);
    put_varint_field(&mut event, EVENT_TRACK_UUID, track_uuid);
    emit_event_packet(out, ts_us, &event);
}

fn emit_event_packet(out: &mut Vec<u8>, ts_us: u64, event: &[u8]) {
    let mut packet = Vec::with_capacity(event.len() + 16);
    // Simulation µs → Perfetto ns.
    put_varint_field(&mut packet, TIMESTAMP, ts_us.saturating_mul(1000));
    put_len_field(&mut packet, TRACK_EVENT, event);
    put_varint_field(&mut packet, SEQUENCE_ID, SEQUENCE);
    put_len_field(out, PACKET, &packet);
}

// ---------------------------------------------------------------------
// Verifying decoder
// ---------------------------------------------------------------------

/// A decoded `TrackDescriptor`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfettoTrack {
    /// The track's uuid.
    pub uuid: u64,
    /// The track's display name.
    pub name: String,
    /// The parent track's uuid (lanes point at their trace track).
    pub parent_uuid: Option<u64>,
}

/// A decoded `TrackEvent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfettoEvent {
    /// `TrackEvent.Type` ([`SLICE_BEGIN`], [`SLICE_END`], …).
    pub event_type: u64,
    /// The track this event belongs to.
    pub track_uuid: u64,
    /// The slice name (begins only).
    pub name: Option<String>,
    /// Categories (the span kind token).
    pub categories: Vec<String>,
    /// Debug annotations as `(name, string_value)` pairs.
    pub annotations: Vec<(String, String)>,
}

/// A decoded `TracePacket`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfettoPacket {
    /// Packet timestamp in ns, if present.
    pub timestamp: Option<u64>,
    /// `trusted_packet_sequence_id`, if present.
    pub sequence_id: Option<u64>,
    /// A track definition, if this packet carries one.
    pub track: Option<PerfettoTrack>,
    /// A track event, if this packet carries one.
    pub event: Option<PerfettoEvent>,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .buf
                .get(self.pos)
                .ok_or_else(|| format!("varint runs past end at offset {}", self.pos))?;
            self.pos += 1;
            if shift >= 64 {
                return Err("varint longer than 64 bits".into());
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.varint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("length {len} overruns buffer at offset {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read a field key; returns `(field, wire_type)`.
    fn key(&mut self) -> Result<(u64, u64), String> {
        let k = self.varint()?;
        Ok((k >> 3, k & 0x7))
    }

    /// Skip a field of the given wire type (only the types we emit).
    fn skip(&mut self, wire: u64) -> Result<(), String> {
        match wire {
            WIRE_VARINT => self.varint().map(|_| ()),
            WIRE_LEN => self.bytes().map(|_| ()),
            other => Err(format!("unsupported wire type {other}")),
        }
    }
}

fn utf8(bytes: &[u8]) -> Result<String, String> {
    String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid UTF-8 string: {e}"))
}

fn decode_track(buf: &[u8]) -> Result<PerfettoTrack, String> {
    let mut r = Reader::new(buf);
    let mut track = PerfettoTrack { uuid: 0, name: String::new(), parent_uuid: None };
    while !r.done() {
        let (field, wire) = r.key()?;
        match field {
            TRACK_UUID_FIELD => track.uuid = r.varint()?,
            TRACK_NAME => track.name = utf8(r.bytes()?)?,
            TRACK_PARENT_UUID => track.parent_uuid = Some(r.varint()?),
            _ => r.skip(wire)?,
        }
    }
    Ok(track)
}

fn decode_annotation(buf: &[u8]) -> Result<(String, String), String> {
    let mut r = Reader::new(buf);
    let (mut name, mut value) = (String::new(), String::new());
    while !r.done() {
        let (field, wire) = r.key()?;
        match field {
            ANNOTATION_NAME => name = utf8(r.bytes()?)?,
            ANNOTATION_STRING_VALUE => value = utf8(r.bytes()?)?,
            _ => r.skip(wire)?,
        }
    }
    Ok((name, value))
}

fn decode_event(buf: &[u8]) -> Result<PerfettoEvent, String> {
    let mut r = Reader::new(buf);
    let mut event = PerfettoEvent {
        event_type: 0,
        track_uuid: 0,
        name: None,
        categories: Vec::new(),
        annotations: Vec::new(),
    };
    while !r.done() {
        let (field, wire) = r.key()?;
        match field {
            EVENT_TYPE => event.event_type = r.varint()?,
            EVENT_TRACK_UUID => event.track_uuid = r.varint()?,
            EVENT_NAME => event.name = Some(utf8(r.bytes()?)?),
            EVENT_CATEGORIES => event.categories.push(utf8(r.bytes()?)?),
            EVENT_ANNOTATIONS => event.annotations.push(decode_annotation(r.bytes()?)?),
            _ => r.skip(wire)?,
        }
    }
    Ok(event)
}

fn decode_packet(buf: &[u8]) -> Result<PerfettoPacket, String> {
    let mut r = Reader::new(buf);
    let mut packet = PerfettoPacket::default();
    while !r.done() {
        let (field, wire) = r.key()?;
        match field {
            TIMESTAMP => packet.timestamp = Some(r.varint()?),
            SEQUENCE_ID => packet.sequence_id = Some(r.varint()?),
            TRACK_DESCRIPTOR => packet.track = Some(decode_track(r.bytes()?)?),
            TRACK_EVENT => packet.event = Some(decode_event(r.bytes()?)?),
            _ => r.skip(wire)?,
        }
    }
    Ok(packet)
}

/// Decode a binary Perfetto `Trace` produced by [`to_perfetto_trace`]
/// back into its packets.
///
/// This is a *verifying* decoder: any framing error — a truncated
/// varint, a length running past the buffer, a non-UTF-8 string —
/// returns `Err` instead of a partial result, so a successful decode
/// proves the whole buffer is well-formed wire format.
pub fn decode_perfetto(bytes: &[u8]) -> Result<Vec<PerfettoPacket>, String> {
    let mut r = Reader::new(bytes);
    let mut packets = Vec::new();
    while !r.done() {
        let (field, wire) = r.key()?;
        if field == PACKET && wire == WIRE_LEN {
            packets.push(decode_packet(r.bytes()?)?);
        } else {
            r.skip(wire)?;
        }
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanId, SpanKind, TraceId};
    use dgf_simgrid::SimTime;

    fn span(id: u64, trace: u64, start: u64, end: Option<u64>) -> Span {
        Span {
            id: SpanId(id),
            trace: TraceId(trace),
            parent: (id > 1).then_some(SpanId(1)),
            kind: SpanKind::Request,
            name: format!("s{id}"),
            start: SimTime(start),
            end: end.map(SimTime),
            attrs: vec![("txn".into(), "t1".into())],
        }
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let bytes = to_perfetto_trace(&[]);
        assert!(bytes.is_empty());
        assert_eq!(decode_perfetto(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn round_trip_preserves_slices_and_annotations() {
        let spans =
            vec![span(1, 1, 100, Some(400)), span(2, 1, 150, Some(250)), span(3, 1, 200, None)];
        let bytes = to_perfetto_trace(&spans);
        let packets = decode_perfetto(&bytes).unwrap();

        let tracks: Vec<_> = packets.iter().filter_map(|p| p.track.as_ref()).collect();
        // Root + lane 0 (span 1) + lane 1 (span 2) + lane 2 (span 3:
        // lane 1 is busy until 250 when span 3 starts at 200).
        assert_eq!(tracks.len(), 4);
        assert_eq!(tracks[0].name, "trace 1");
        assert!(tracks[1..].iter().all(|t| t.parent_uuid == Some(tracks[0].uuid)));

        let begins: Vec<_> = packets
            .iter()
            .filter(|p| p.event.as_ref().is_some_and(|e| e.event_type == SLICE_BEGIN))
            .collect();
        let ends = packets
            .iter()
            .filter(|p| p.event.as_ref().is_some_and(|e| e.event_type == SLICE_END))
            .count();
        assert_eq!(begins.len(), 3);
        assert_eq!(ends, 2, "the open span has no end packet");

        let first = begins[0].event.as_ref().unwrap();
        assert_eq!(first.name.as_deref(), Some("s1"));
        assert_eq!(first.categories, vec!["request".to_owned()]);
        assert!(first.annotations.contains(&("txn".into(), "t1".into())));
        assert_eq!(begins[0].timestamp, Some(100_000), "µs scaled to ns");
        let open = begins[2].event.as_ref().unwrap();
        assert!(open.annotations.contains(&("open".into(), "true".into())));
    }

    #[test]
    fn lane_reuse_after_a_slice_closes() {
        // Span 2 starts exactly when span 1 ends: same lane, and the
        // end packet must sort before the begin at the shared instant.
        let spans = vec![span(1, 1, 100, Some(200)), span(2, 1, 200, Some(300))];
        let packets = decode_perfetto(&to_perfetto_trace(&spans)).unwrap();
        let tracks = packets.iter().filter(|p| p.track.is_some()).count();
        assert_eq!(tracks, 2, "root + one shared lane");
        let at_200: Vec<u64> = packets
            .iter()
            .filter(|p| p.timestamp == Some(200_000))
            .map(|p| p.event.as_ref().unwrap().event_type)
            .collect();
        assert_eq!(at_200, vec![SLICE_END, SLICE_BEGIN]);
    }

    #[test]
    fn traces_get_separate_track_families() {
        let spans = vec![span(1, 2, 100, Some(200)), span(2, 7, 100, Some(200))];
        let packets = decode_perfetto(&to_perfetto_trace(&spans)).unwrap();
        let roots: Vec<_> = packets
            .iter()
            .filter_map(|p| p.track.as_ref())
            .filter(|t| t.parent_uuid.is_none())
            .map(|t| t.name.clone())
            .collect();
        assert_eq!(roots, vec!["trace 2".to_owned(), "trace 7".to_owned()]);
    }

    #[test]
    fn decoder_rejects_truncation() {
        let spans = vec![span(1, 1, 100, Some(200))];
        let bytes = to_perfetto_trace(&spans);
        assert!(decode_perfetto(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn export_is_deterministic() {
        let spans = vec![span(1, 1, 100, Some(400)), span(2, 1, 150, None)];
        assert_eq!(to_perfetto_trace(&spans), to_perfetto_trace(&spans));
    }
}
