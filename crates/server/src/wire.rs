//! The JSON-lines wire format.
//!
//! Hand-rolled for the same reason the store's binary codec is (see
//! `semitri-store`): the schema is small and fixed, crates.io is out of
//! reach, and keeping the format inspectable beats pulling a JSON stack.
//! One JSON object per line, flat scalar fields only on input. Input is
//! read by one scanner that walks a body once and allocates nothing per
//! line; its error messages are part of the format, since 422 responses
//! carry them.
//!
//! **Request body** (`POST /annotate`, `POST /session/{user}/push`):
//!
//! ```text
//! {"object_id":7,"trajectory_id":1}      <- optional header, first line
//! {"x":1200.0,"y":1400.0,"t":28800.0}    <- one line per GPS fix
//! ```
//!
//! Coordinates are meters in the city's local projection, `t` is unix
//! seconds — the same convention as the CSV reader in `semitri-data`.
//!
//! **Response body**: one `{"type":...}` object per line; `summary` +
//! `tuple` lines for a full annotation, `move`/`stop` event lines for
//! streaming pushes, `cleaning` + `end` for a flush. Everything the
//! server emits goes through [`encode_output`] / [`encode_events`] /
//! [`encode_flush`], and the CLI `annotate` subcommand prints through
//! the same functions — byte-identical output is a design invariant the
//! integration suite asserts, not an accident.

use semitri_core::streaming::StreamEvent;
use semitri_core::{Mutation, PipelineOutput};
use semitri_data::{GpsFeed, GpsRecord, LanduseCategory, PoiCategory, RegionKind, RoadClass};
use semitri_geo::{Point, Rect, Timestamp};
use semitri_obs::CleaningReport;
use std::fmt;

/// A malformed request body.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for WireError {}

fn err(line: usize, msg: impl Into<String>) -> WireError {
    WireError {
        line,
        msg: msg.into(),
    }
}

/// Returns the position after the whitespace that starts `s[p..]`,
/// stopping at a line's end. Whitespace is `str::trim`'s: Unicode
/// `White_Space`, which for ASCII is space and `\t`..=`\r`.
#[inline]
fn skip_ws(s: &str, mut p: usize) -> usize {
    let b = s.as_bytes();
    while let Some(&c) = b.get(p) {
        if c.is_ascii() {
            if !matches!(c, b' ' | b'\t' | b'\x0b'..=b'\r') {
                break;
            }
            p += 1;
        } else {
            match s[p..].chars().next() {
                Some(ch) if ch.is_whitespace() => p += ch.len_utf8(),
                _ => break,
            }
        }
    }
    p
}

/// If the `}` at `p` is the last non-whitespace character of its line,
/// returns where the next line starts.
#[inline]
fn closing_brace(s: &str, p: usize) -> Option<usize> {
    let q = skip_ws(s, p + 1);
    match s.as_bytes().get(q) {
        None => Some(q),
        Some(b'\n') => Some(q + 1),
        Some(_) => None,
    }
}

/// Position of the first `byte` in `b[from..]` that comes before the
/// end of the line.
#[inline]
fn find_in_line(b: &[u8], from: usize, byte: u8) -> Option<usize> {
    b[from..]
        .iter()
        .position(|&c| c == byte || c == b'\n')
        .map(|i| from + i)
        .filter(|&i| b[i] == byte)
}

const NOT_AN_OBJECT: &str = "expected a {...} object";

/// The error for a syntax fault found at some point of the line that
/// starts at `start`: `msg`, unless the line as a whole is not wrapped in
/// braces, which is reported first.
#[cold]
fn syntax_error(s: &str, start: usize, msg: &'static str) -> &'static str {
    let line = s[start..].split('\n').next().unwrap_or("").trim();
    if line.len() >= 2 && line.starts_with('{') && line.ends_with('}') {
        msg
    } else {
        NOT_AN_OBJECT
    }
}

/// Scans the line of a JSON-lines body that starts at `*pos` as one flat
/// JSON object, handing each `(key, raw value token)` to `field` in line
/// order, and moves `*pos` to the start of the next line. Returns
/// `Ok(false)` for a blank line.
///
/// The line's bytes are walked once, line splitting included. The scan
/// accepts exactly the subset the wire format uses: string keys without
/// escapes, scalar values (numbers, `true`/`false`/`null`, escape-free
/// strings, whose token is the text between the quotes). Anything nested
/// is a syntax error.
///
/// Errors follow the line-at-a-time contract: a line whose trimmed text
/// is not wrapped in `{...}` is reported as such before anything else,
/// then the first syntax fault in line order. Callers only read the
/// values of a line that scanned whole, so a syntax error always wins
/// over a bad field.
fn scan_line<'a>(
    s: &'a str,
    pos: &mut usize,
    mut field: impl FnMut(&'a str, &'a str),
) -> Result<bool, &'static str> {
    let b = s.as_bytes();
    let start = *pos;
    let mut p = skip_ws(s, start);
    match b.get(p) {
        None => {
            *pos = p;
            return Ok(false);
        }
        Some(b'\n') => {
            *pos = p + 1;
            return Ok(false);
        }
        Some(b'{') => {}
        Some(_) => return Err(NOT_AN_OBJECT),
    }
    let fail = |msg| Err(syntax_error(s, start, msg));
    p = skip_ws(s, p + 1);
    if b.get(p) == Some(&b'}') {
        if let Some(next) = closing_brace(s, p) {
            *pos = next;
            return Ok(true);
        }
    }
    loop {
        if b.get(p) != Some(&b'"') {
            return fail("expected a quoted key");
        }
        let k0 = p + 1;
        let Some(k1) = find_in_line(b, k0, b'"') else {
            return fail("unterminated key");
        };
        p = skip_ws(s, k1 + 1);
        if b.get(p) != Some(&b':') {
            return fail("expected ':' after key");
        }
        p = skip_ws(s, p + 1);
        let value;
        if b.get(p) == Some(&b'"') {
            let Some(v1) = find_in_line(b, p + 1, b'"') else {
                return fail("unterminated string value");
            };
            value = &s[p + 1..v1];
            p = skip_ws(s, v1 + 1);
        } else {
            // a bare scalar runs to the next ',' or the closing brace;
            // sign, point and digit bytes, the bulk of a fix line, need
            // no other check and are skipped eight at a time
            let v0 = p;
            const LANES: u64 = 0x0101_0101_0101_0101;
            while let Some(chunk) = b.get(p..p + 8) {
                let w = u64::from_le_bytes(chunk.try_into().unwrap());
                // a lane's high bit is set unless its byte is in b'-'..=b'9'
                if (w.wrapping_sub(LANES * 0x2d) | w.wrapping_add(LANES * 0x46)) & (LANES * 0x80)
                    != 0
                {
                    break;
                }
                p += 8;
            }
            let mut nested = false;
            loop {
                match b.get(p) {
                    None | Some(b'\n') => return Err(NOT_AN_OBJECT),
                    Some(b',') => break,
                    Some(b'}') if closing_brace(s, p).is_some() => break,
                    Some(b'{' | b'[' | b'"') => nested = true,
                    Some(_) => {}
                }
                p += 1;
            }
            value = s[v0..p].trim_end();
            if value.is_empty() {
                return fail("empty value");
            }
            if nested {
                return fail("nested values are not part of the wire format");
            }
        }
        field(&s[k0..k1], value);
        match b.get(p) {
            Some(b',') => {
                p = skip_ws(s, p + 1);
                if b.get(p) == Some(&b'}') && closing_brace(s, p).is_some() {
                    return fail("trailing comma");
                }
            }
            Some(b'}') => {
                if let Some(next) = closing_brace(s, p) {
                    *pos = next;
                    return Ok(true);
                }
                return fail("expected ',' between fields");
            }
            _ => return fail("expected ',' between fields"),
        }
    }
}

/// The value of a required numeric field of a `what` line.
fn required_f64(
    what: &str,
    key: &str,
    token: Option<&str>,
    line_no: usize,
) -> Result<f64, WireError> {
    let token = token.ok_or_else(|| err(line_no, format!("{what} is missing field '{key}'")))?;
    token
        .parse::<f64>()
        .map_err(|_| err(line_no, format!("field '{key}' is not a number: {token:?}")))
}

fn unsigned(key: &str, token: &str, line_no: usize) -> Result<u64, WireError> {
    token.parse::<u64>().map_err(|_| {
        err(
            line_no,
            format!("field '{key}' is not an unsigned integer: {token:?}"),
        )
    })
}

/// The value tokens of the keys a feed line can carry. Any other key is
/// scanned and ignored.
#[derive(Default)]
struct FeedLine<'a> {
    x: Option<&'a str>,
    y: Option<&'a str>,
    t: Option<&'a str>,
    object_id: Option<&'a str>,
    trajectory_id: Option<&'a str>,
}

impl<'a> FeedLine<'a> {
    fn offer(&mut self, key: &'a str, value: &'a str) {
        let slot = match key {
            "x" => &mut self.x,
            "y" => &mut self.y,
            "t" => &mut self.t,
            "object_id" => &mut self.object_id,
            "trajectory_id" => &mut self.trajectory_id,
            _ => return,
        };
        // the first occurrence of a key wins
        slot.get_or_insert(value);
    }
}

/// The shortest fix line, `{"x":0,"y":0,"t":0}`, with its newline: a
/// body of `n` bytes holds at most `n / 20 + 1` fixes.
const MIN_FIX_LINE_BYTES: usize = 20;

/// Parses a feed body: an optional `object_id`/`trajectory_id` header
/// line followed by one fix per line. Blank lines are ignored.
///
/// A line that carries either id key is a header, and only the first
/// non-blank line may be one. Fix lines need `x`, `y` and `t`, checked in
/// that order; other keys are ignored.
pub fn parse_feed(body: &str) -> Result<GpsFeed, WireError> {
    let mut object_id = 0u64;
    let mut trajectory_id = 0u64;
    let mut records = Vec::with_capacity(body.len() / MIN_FIX_LINE_BYTES + 1);
    let mut saw_any = false;
    let (mut pos, mut line_no) = (0, 0);
    while pos < body.len() {
        line_no += 1;
        let mut line = FeedLine::default();
        if !scan_line(body, &mut pos, |k, v| line.offer(k, v)).map_err(|m| err(line_no, m))? {
            continue;
        }
        if line.object_id.is_some() || line.trajectory_id.is_some() {
            if saw_any {
                return Err(err(line_no, "header must be the first line"));
            }
            if let Some(v) = line.object_id {
                object_id = unsigned("object_id", v, line_no)?;
            }
            if let Some(v) = line.trajectory_id {
                trajectory_id = unsigned("trajectory_id", v, line_no)?;
            }
            saw_any = true;
            continue;
        }
        let x = required_f64("fix", "x", line.x, line_no)?;
        let y = required_f64("fix", "y", line.y, line_no)?;
        let t = required_f64("fix", "t", line.t, line_no)?;
        records.push(GpsRecord::new(Point::new(x, y), Timestamp(t)));
        saw_any = true;
    }
    if !saw_any {
        return Err(err(1, "empty body"));
    }
    Ok(GpsFeed::new(object_id, trajectory_id, records))
}

/// Parses a push body: fixes only (a header line, if present, is
/// validated and ignored — the session identity lives in the URL).
pub fn parse_records(body: &str) -> Result<Vec<GpsRecord>, WireError> {
    Ok(parse_feed(body)?.records)
}

fn road_class(label: &str) -> Option<RoadClass> {
    [
        RoadClass::Highway,
        RoadClass::Street,
        RoadClass::Path,
        RoadClass::Rail,
    ]
    .into_iter()
    .find(|c| c.label() == label)
}

fn region_kind(label: &str) -> Option<RegionKind> {
    [
        RegionKind::Campus,
        RegionKind::Recreation,
        RegionKind::Market,
        RegionKind::Residential,
    ]
    .into_iter()
    .find(|k| k.label() == label)
}

/// The value tokens of the keys a mutation line can carry.
#[derive(Default)]
struct MutationLine<'a> {
    op: Option<&'a str>,
    class: Option<&'a str>,
    bus: Option<&'a str>,
    name: Option<&'a str>,
    category: Option<&'a str>,
    kind: Option<&'a str>,
    x1: Option<&'a str>,
    y1: Option<&'a str>,
    x2: Option<&'a str>,
    y2: Option<&'a str>,
    x: Option<&'a str>,
    y: Option<&'a str>,
    min_x: Option<&'a str>,
    min_y: Option<&'a str>,
    max_x: Option<&'a str>,
    max_y: Option<&'a str>,
}

impl<'a> MutationLine<'a> {
    fn offer(&mut self, key: &'a str, value: &'a str) {
        let slot = match key {
            "op" => &mut self.op,
            "class" => &mut self.class,
            "bus" => &mut self.bus,
            "name" => &mut self.name,
            "category" => &mut self.category,
            "kind" => &mut self.kind,
            "x1" => &mut self.x1,
            "y1" => &mut self.y1,
            "x2" => &mut self.x2,
            "y2" => &mut self.y2,
            "x" => &mut self.x,
            "y" => &mut self.y,
            "min_x" => &mut self.min_x,
            "min_y" => &mut self.min_y,
            "max_x" => &mut self.max_x,
            "max_y" => &mut self.max_y,
            _ => return,
        };
        slot.get_or_insert(value);
    }
}

/// Parses a `POST /admin/update` body: one mutation per line, each a
/// flat JSON object selected by its `op` field.
///
/// ```text
/// {"op":"add_road","x1":100,"y1":100,"x2":300,"y2":100,"class":"street","bus":false,"name":"New St"}
/// {"op":"add_poi","x":150,"y":150,"category":"feedings","name":"New Cafe"}
/// {"op":"set_landuse","x":50,"y":50,"category":"lake"}
/// {"op":"add_region","name":"New Campus","kind":"campus","min_x":0,"min_y":0,"max_x":500,"max_y":500}
/// ```
///
/// `class` defaults to `street`, `bus` to `false`, names to `""`;
/// category/kind labels are the same strings the annotation output uses.
pub fn parse_mutations(body: &str) -> Result<Vec<Mutation>, WireError> {
    let mut out = Vec::new();
    let (mut pos, mut line_no) = (0, 0);
    while pos < body.len() {
        line_no += 1;
        let mut m = MutationLine::default();
        if !scan_line(body, &mut pos, |k, v| m.offer(k, v)).map_err(|e| err(line_no, e))? {
            continue;
        }
        let get = |key: &str, token: Option<&str>| required_f64("mutation", key, token, line_no);
        let op =
            m.op.ok_or_else(|| err(line_no, "mutation is missing field 'op'"))?;
        let mutation = match op {
            "add_road" => {
                let class_label = m.class.unwrap_or("street");
                let class = road_class(class_label)
                    .ok_or_else(|| err(line_no, format!("unknown road class {class_label:?}")))?;
                Mutation::AddRoad {
                    from: Point::new(get("x1", m.x1)?, get("y1", m.y1)?),
                    to: Point::new(get("x2", m.x2)?, get("y2", m.y2)?),
                    class,
                    bus_route: m.bus == Some("true"),
                    name: m.name.unwrap_or("").to_string(),
                }
            }
            "add_poi" => {
                let label = m.category.unwrap_or("unknown");
                let category = PoiCategory::ALL
                    .into_iter()
                    .find(|c| c.label() == label)
                    .ok_or_else(|| err(line_no, format!("unknown poi category {label:?}")))?;
                Mutation::AddPoi {
                    point: Point::new(get("x", m.x)?, get("y", m.y)?),
                    category,
                    name: m.name.unwrap_or("").to_string(),
                }
            }
            "set_landuse" => {
                let label = m
                    .category
                    .ok_or_else(|| err(line_no, "mutation is missing field 'category'"))?;
                let category = LanduseCategory::ALL
                    .into_iter()
                    .find(|c| c.label() == label || c.code() == label)
                    .ok_or_else(|| err(line_no, format!("unknown landuse category {label:?}")))?;
                Mutation::SetLanduse {
                    at: Point::new(get("x", m.x)?, get("y", m.y)?),
                    category,
                }
            }
            "add_region" => {
                let kind_label = m.kind.unwrap_or("campus");
                let kind = region_kind(kind_label)
                    .ok_or_else(|| err(line_no, format!("unknown region kind {kind_label:?}")))?;
                Mutation::AddRegion {
                    name: m.name.unwrap_or("").to_string(),
                    kind,
                    bounds: Rect::new(
                        get("min_x", m.min_x)?,
                        get("min_y", m.min_y)?,
                        get("max_x", m.max_x)?,
                        get("max_y", m.max_y)?,
                    ),
                }
            }
            other => return Err(err(line_no, format!("unknown mutation op {other:?}"))),
        };
        mutation.validate().map_err(|e| err(line_no, e))?;
        out.push(mutation);
    }
    if out.is_empty() {
        return Err(err(1, "empty update body"));
    }
    Ok(out)
}

/// Escapes a string for inclusion in a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON-safe float rendering (JSON has no Infinity/NaN literals; the
/// pipeline never emits them, but the encoder must not either).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn push_cleaning(out: &mut String, c: &CleaningReport) {
    out.push_str(&format!(
        "\"input\":{},\"kept\":{},\"dropped\":{},\"reordered\":{},\"deduped\":{}",
        c.input,
        c.kept,
        c.dropped(),
        c.reordered,
        c.deduped
    ));
}

/// Renders a full pipeline output (`POST /annotate` and the CLI
/// `annotate` subcommand) as JSON lines: one `summary` line, then one
/// `tuple` line per SST tuple.
pub fn encode_output(out: &PipelineOutput) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"type\":\"summary\",\"object_id\":{},\"trajectory_id\":{},",
        out.sst.object_id, out.sst.trajectory_id
    ));
    push_cleaning(&mut s, &out.cleaning);
    s.push_str(&format!(
        ",\"episodes\":{},\"tuples\":{}}}\n",
        out.episodes.len(),
        out.sst.len()
    ));
    for tuple in &out.sst.tuples {
        s.push_str("{\"type\":\"tuple\",\"place\":");
        match &tuple.place {
            Some(p) => {
                push_json_str(&mut s, &p.label);
                s.push_str(&format!(",\"place_kind\":\"{}\"", p.kind.label()));
                s.push_str(&format!(",\"place_id\":{}", p.id));
            }
            None => s.push_str("null,\"place_kind\":null,\"place_id\":null"),
        }
        s.push_str(&format!(
            ",\"t_in\":{},\"t_out\":{},\"annotations\":[",
            json_f64(tuple.span.start.0),
            json_f64(tuple.span.end.0)
        ));
        for (i, a) in tuple.annotations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"key\":");
            push_json_str(&mut s, &a.key);
            s.push_str(",\"value\":");
            match &a.value {
                semitri_core::AnnotationValue::Mode(m) => push_json_str(&mut s, m.label()),
                semitri_core::AnnotationValue::Activity(c) => push_json_str(&mut s, c.label()),
                semitri_core::AnnotationValue::Text(t) => push_json_str(&mut s, t),
                semitri_core::AnnotationValue::Number(n) => s.push_str(&json_f64(*n)),
            }
            s.push('}');
        }
        s.push_str("]}\n");
    }
    s
}

/// Renders streaming events (`POST /session/{user}/push` responses).
pub fn encode_events(events: &[StreamEvent]) -> String {
    let mut s = String::new();
    for e in events {
        match e {
            StreamEvent::Move { episode, route } => {
                s.push_str(&format!(
                    "{{\"type\":\"move\",\"start\":{},\"end\":{},\"t_in\":{},\"t_out\":{},\"entries\":{}}}\n",
                    episode.start,
                    episode.end,
                    json_f64(episode.span.start.0),
                    json_f64(episode.span.end.0),
                    route.len()
                ));
            }
            StreamEvent::Stop {
                episode,
                annotation,
                region,
            } => {
                s.push_str(&format!(
                    "{{\"type\":\"stop\",\"start\":{},\"end\":{},\"t_in\":{},\"t_out\":{},\"category\":",
                    episode.start,
                    episode.end,
                    json_f64(episode.span.start.0),
                    json_f64(episode.span.end.0)
                ));
                push_json_str(&mut s, annotation.category.label());
                s.push_str(",\"region\":");
                match region {
                    Some(r) => push_json_str(&mut s, &r.label),
                    None => s.push_str("null"),
                }
                s.push_str("}\n");
            }
        }
    }
    s
}

/// Renders a flush response: the final events, the session's cumulative
/// cleaning report, and a terminal `end` line.
pub fn encode_flush(events: &[StreamEvent], cleaning: &CleaningReport, records: usize) -> String {
    let mut s = encode_events(events);
    s.push_str("{\"type\":\"cleaning\",");
    push_cleaning(&mut s, cleaning);
    s.push_str("}\n");
    s.push_str(&format!("{{\"type\":\"end\",\"records\":{records}}}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parser the one-pass scanner replaced: it splits each line
    /// into a `Vec` of `(key, value)` pairs, then searches it per field.
    /// Kept only as the reference the differential tests compare against.
    mod oracle {
        use super::super::*;

        /// Splits one flat JSON object into `(key, raw value token)` pairs.
        /// Accepts exactly the subset the wire format uses: string keys without
        /// escapes, scalar values (numbers, `true`/`false`/`null`, escape-free
        /// strings). Anything nested is a syntax error.
        fn parse_flat_object(line: &str) -> Result<Vec<(&str, &str)>, String> {
            let s = line.trim();
            let inner = s
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .ok_or("expected a {...} object")?;
            let mut pairs = Vec::new();
            let mut rest = inner.trim();
            while !rest.is_empty() {
                // key
                rest = rest.strip_prefix('"').ok_or("expected a quoted key")?;
                let kq = rest.find('"').ok_or("unterminated key")?;
                let key = &rest[..kq];
                rest = rest[kq + 1..].trim_start();
                rest = rest.strip_prefix(':').ok_or("expected ':' after key")?;
                rest = rest.trim_start();
                // value token: a quoted string or a bare scalar up to ',' / end
                let value;
                if let Some(vr) = rest.strip_prefix('"') {
                    let vq = vr.find('"').ok_or("unterminated string value")?;
                    value = &vr[..vq];
                    rest = vr[vq + 1..].trim_start();
                } else {
                    let end = rest.find(',').unwrap_or(rest.len());
                    value = rest[..end].trim();
                    if value.is_empty() {
                        return Err("empty value".to_string());
                    }
                    if value.contains(['{', '[', '"']) {
                        return Err("nested values are not part of the wire format".to_string());
                    }
                    rest = &rest[end..];
                }
                pairs.push((key, value));
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                    if rest.is_empty() {
                        return Err("trailing comma".to_string());
                    }
                } else if !rest.is_empty() {
                    return Err("expected ',' between fields".to_string());
                }
            }
            Ok(pairs)
        }

        fn field_f64(pairs: &[(&str, &str)], key: &str) -> Option<Result<f64, String>> {
            pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| {
                v.parse::<f64>()
                    .map_err(|_| format!("field '{key}' is not a number: {v:?}"))
            })
        }

        fn field_u64(pairs: &[(&str, &str)], key: &str) -> Option<Result<u64, String>> {
            pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| {
                v.parse::<u64>()
                    .map_err(|_| format!("field '{key}' is not an unsigned integer: {v:?}"))
            })
        }

        fn parse_fix(pairs: &[(&str, &str)], line_no: usize) -> Result<GpsRecord, WireError> {
            let get = |key: &str| -> Result<f64, WireError> {
                field_f64(pairs, key)
                    .ok_or_else(|| err(line_no, format!("fix is missing field '{key}'")))?
                    .map_err(|m| err(line_no, m))
            };
            let x = get("x")?;
            let y = get("y")?;
            let t = get("t")?;
            Ok(GpsRecord::new(Point::new(x, y), Timestamp(t)))
        }

        /// Parses a feed body: an optional `object_id`/`trajectory_id` header
        /// line followed by one fix per line. Blank lines are ignored.
        pub fn parse_feed(body: &str) -> Result<GpsFeed, WireError> {
            let mut object_id = 0u64;
            let mut trajectory_id = 0u64;
            let mut records = Vec::new();
            let mut saw_any = false;
            for (i, raw) in body.lines().enumerate() {
                let line_no = i + 1;
                if raw.trim().is_empty() {
                    continue;
                }
                let pairs = parse_flat_object(raw).map_err(|m| err(line_no, m))?;
                let is_header = pairs
                    .iter()
                    .any(|(k, _)| *k == "object_id" || *k == "trajectory_id");
                if is_header {
                    if saw_any {
                        return Err(err(line_no, "header must be the first line"));
                    }
                    if let Some(v) = field_u64(&pairs, "object_id") {
                        object_id = v.map_err(|m| err(line_no, m))?;
                    }
                    if let Some(v) = field_u64(&pairs, "trajectory_id") {
                        trajectory_id = v.map_err(|m| err(line_no, m))?;
                    }
                    saw_any = true;
                    continue;
                }
                records.push(parse_fix(&pairs, line_no)?);
                saw_any = true;
            }
            if !saw_any {
                return Err(err(1, "empty body"));
            }
            Ok(GpsFeed::new(object_id, trajectory_id, records))
        }

        fn field_str<'a>(pairs: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
            pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
        }

        /// Parses a `POST /admin/update` body: one mutation per line, each a
        /// flat JSON object selected by its `op` field.
        ///
        /// ```text
        /// {"op":"add_road","x1":100,"y1":100,"x2":300,"y2":100,"class":"street","bus":false,"name":"New St"}
        /// {"op":"add_poi","x":150,"y":150,"category":"feedings","name":"New Cafe"}
        /// {"op":"set_landuse","x":50,"y":50,"category":"lake"}
        /// {"op":"add_region","name":"New Campus","kind":"campus","min_x":0,"min_y":0,"max_x":500,"max_y":500}
        /// ```
        ///
        /// `class` defaults to `street`, `bus` to `false`, names to `""`;
        /// category/kind labels are the same strings the annotation output uses.
        pub fn parse_mutations(body: &str) -> Result<Vec<Mutation>, WireError> {
            let mut out = Vec::new();
            for (i, raw) in body.lines().enumerate() {
                let line_no = i + 1;
                if raw.trim().is_empty() {
                    continue;
                }
                let pairs = parse_flat_object(raw).map_err(|m| err(line_no, m))?;
                let get = |key: &str| -> Result<f64, WireError> {
                    field_f64(&pairs, key)
                        .ok_or_else(|| err(line_no, format!("mutation is missing field '{key}'")))?
                        .map_err(|m| err(line_no, m))
                };
                let op = field_str(&pairs, "op")
                    .ok_or_else(|| err(line_no, "mutation is missing field 'op'"))?;
                let mutation = match op {
                    "add_road" => {
                        let class_label = field_str(&pairs, "class").unwrap_or("street");
                        let class = road_class(class_label).ok_or_else(|| {
                            err(line_no, format!("unknown road class {class_label:?}"))
                        })?;
                        let bus_route = matches!(field_str(&pairs, "bus"), Some("true"));
                        Mutation::AddRoad {
                            from: Point::new(get("x1")?, get("y1")?),
                            to: Point::new(get("x2")?, get("y2")?),
                            class,
                            bus_route,
                            name: field_str(&pairs, "name").unwrap_or("").to_string(),
                        }
                    }
                    "add_poi" => {
                        let label = field_str(&pairs, "category").unwrap_or("unknown");
                        let category = PoiCategory::ALL
                            .into_iter()
                            .find(|c| c.label() == label)
                            .ok_or_else(|| {
                                err(line_no, format!("unknown poi category {label:?}"))
                            })?;
                        Mutation::AddPoi {
                            point: Point::new(get("x")?, get("y")?),
                            category,
                            name: field_str(&pairs, "name").unwrap_or("").to_string(),
                        }
                    }
                    "set_landuse" => {
                        let label = field_str(&pairs, "category")
                            .ok_or_else(|| err(line_no, "mutation is missing field 'category'"))?;
                        let category = LanduseCategory::ALL
                            .into_iter()
                            .find(|c| c.label() == label || c.code() == label)
                            .ok_or_else(|| {
                                err(line_no, format!("unknown landuse category {label:?}"))
                            })?;
                        Mutation::SetLanduse {
                            at: Point::new(get("x")?, get("y")?),
                            category,
                        }
                    }
                    "add_region" => {
                        let kind_label = field_str(&pairs, "kind").unwrap_or("campus");
                        let kind = region_kind(kind_label).ok_or_else(|| {
                            err(line_no, format!("unknown region kind {kind_label:?}"))
                        })?;
                        Mutation::AddRegion {
                            name: field_str(&pairs, "name").unwrap_or("").to_string(),
                            kind,
                            bounds: Rect::new(
                                get("min_x")?,
                                get("min_y")?,
                                get("max_x")?,
                                get("max_y")?,
                            ),
                        }
                    }
                    other => return Err(err(line_no, format!("unknown mutation op {other:?}"))),
                };
                mutation.validate().map_err(|m| err(line_no, m))?;
                out.push(mutation);
            }
            if out.is_empty() {
                return Err(err(1, "empty update body"));
            }
            Ok(out)
        }
    }

    #[test]
    fn feed_roundtrip_with_header() {
        let body = "{\"object_id\":7,\"trajectory_id\":3}\n\
                    {\"x\":1.5,\"y\":-2.25,\"t\":100}\n\
                    \n\
                    {\"x\":2.5, \"y\":0, \"t\":108.5}\n";
        let feed = parse_feed(body).unwrap();
        assert_eq!(feed.object_id, 7);
        assert_eq!(feed.trajectory_id, 3);
        assert_eq!(feed.records.len(), 2);
        assert_eq!(feed.records[0].point, Point::new(1.5, -2.25));
        assert_eq!(feed.records[1].t.0, 108.5);
    }

    #[test]
    fn feed_without_header_defaults_ids() {
        let feed = parse_feed("{\"x\":0,\"y\":0,\"t\":1}\n").unwrap();
        assert_eq!(feed.object_id, 0);
        assert_eq!(feed.trajectory_id, 0);
        assert_eq!(feed.records.len(), 1);
    }

    #[test]
    fn malformed_bodies_are_rejected_with_line_numbers() {
        for (body, want_line) in [
            ("", 1),
            ("not json", 1),
            ("{\"x\":0,\"y\":0,\"t\":1}\n{\"x\":}", 2),
            ("{\"x\":0,\"y\":0}\n", 1),                // missing t
            ("{\"x\":0,\"y\":0,\"t\":\"noon\"}\n", 1), // t not a number
            ("{\"x\":0,\"y\":0,\"t\":1}\n{\"object_id\":1}", 2), // late header
            ("{\"object_id\":-1}", 1),                 // negative id
            ("{\"x\":[1],\"y\":0,\"t\":1}", 1),        // nested value
            ("{\"x\":0,\"y\":0,\"t\":1,}", 1),         // trailing comma
        ] {
            let e = parse_feed(body).unwrap_err();
            assert_eq!(e.line, want_line, "{body:?} -> {e}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn encoded_lines_are_json_objects() {
        use semitri_core::point::StopAnnotation;
        use semitri_core::streaming::StreamEvent;
        use semitri_data::PoiCategory;
        use semitri_episodes::{Episode, EpisodeKind};
        use semitri_geo::{Rect, TimeSpan};
        let episode = Episode {
            kind: EpisodeKind::Stop,
            start: 0,
            end: 4,
            span: TimeSpan::new(Timestamp(0.0), Timestamp(30.0)),
            bbox: Rect::new(0.0, 0.0, 1.0, 1.0),
            center: Point::new(0.5, 0.5),
        };
        let events = vec![StreamEvent::Stop {
            episode,
            annotation: StopAnnotation {
                category: PoiCategory::Services,
                poi: None,
            },
            region: None,
        }];
        let body = encode_flush(&events, &CleaningReport::default(), 4);
        assert_eq!(body.lines().count(), 3);
        for line in body.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(body.contains("\"type\":\"stop\""));
        assert!(body.contains("\"type\":\"cleaning\""));
        assert!(body.ends_with("{\"type\":\"end\",\"records\":4}\n"));
    }

    #[test]
    fn mutation_batches_parse_with_defaults() {
        let body = concat!(
            "{\"op\":\"add_road\",\"x1\":0,\"y1\":0,\"x2\":100,\"y2\":0}\n",
            "{\"op\":\"add_poi\",\"x\":5,\"y\":5,\"category\":\"item sale\",\"name\":\"kiosk\"}\n",
            "{\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"4.13\"}\n",
            "{\"op\":\"add_region\",\"name\":\"yard\",\"kind\":\"market\",",
            "\"min_x\":0,\"min_y\":0,\"max_x\":50,\"max_y\":50}\n",
        );
        let muts = parse_mutations(body).unwrap();
        assert_eq!(muts.len(), 4);
        assert!(matches!(
            &muts[0],
            Mutation::AddRoad {
                class: semitri_data::RoadClass::Street,
                bus_route: false,
                ..
            }
        ));
        assert!(matches!(
            &muts[1],
            Mutation::AddPoi {
                category: semitri_data::PoiCategory::ItemSale,
                ..
            }
        ));
        assert!(matches!(
            &muts[2],
            Mutation::SetLanduse {
                category: semitri_data::LanduseCategory::Lake,
                ..
            }
        ));
        assert!(matches!(
            &muts[3],
            Mutation::AddRegion {
                kind: semitri_data::RegionKind::Market,
                ..
            }
        ));
    }

    #[test]
    fn hostile_mutation_bodies_are_rejected_whole() {
        assert!(parse_mutations("").is_err());
        assert!(parse_mutations("{\"op\":\"drop_tables\"}\n").is_err());
        // a degenerate road fails validation at parse time
        assert!(
            parse_mutations("{\"op\":\"add_road\",\"x1\":1,\"y1\":1,\"x2\":1,\"y2\":1}\n").is_err()
        );
        // non-finite coordinates are rejected
        assert!(parse_mutations("{\"op\":\"add_poi\",\"x\":\"nan\",\"y\":0}\n").is_err());
        // one bad line poisons the batch even when others are fine
        let mixed = concat!(
            "{\"op\":\"add_poi\",\"x\":5,\"y\":5}\n",
            "{\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"no such\"}\n",
        );
        assert!(parse_mutations(mixed).is_err());
    }

    /// Fixes as raw bits, so `NaN`s and signed zeros compare exactly.
    fn bits(records: &[GpsRecord]) -> Vec<[u64; 3]> {
        records
            .iter()
            .map(|r| [r.point.x.to_bits(), r.point.y.to_bits(), r.t.0.to_bits()])
            .collect()
    }

    /// Asserts that the scanner and the oracle agree on `body` through
    /// both entry points: the same error, or bit-identical results.
    fn assert_same(body: &str) {
        match (parse_feed(body), oracle::parse_feed(body)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(
                    (got.object_id, got.trajectory_id),
                    (want.object_id, want.trajectory_id),
                    "{body:?}"
                );
                assert_eq!(bits(&got.records), bits(&want.records), "{body:?}");
            }
            (got, want) => assert_eq!(got.err(), want.err(), "{body:?}"),
        }
        match (parse_mutations(body), oracle::parse_mutations(body)) {
            (Ok(got), Ok(want)) => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{body:?}"),
            (got, want) => assert_eq!(got.err(), want.err(), "{body:?}"),
        }
    }

    /// A feed body the way `tests/server.rs` and the benchmark render it.
    fn render(object_id: u64, trajectory_id: u64, records: &[GpsRecord]) -> String {
        let mut body = format!("{{\"object_id\":{object_id},\"trajectory_id\":{trajectory_id}}}\n");
        for r in records {
            body.push_str(&format!(
                "{{\"x\":{},\"y\":{},\"t\":{}}}\n",
                r.point.x, r.point.y, r.t.0
            ));
        }
        body
    }

    #[test]
    fn scanner_matches_the_oracle_bit_for_bit_on_preset_feeds() {
        use semitri_data::presets::{lausanne_taxis, milan_cars, smartphone_users};
        let mut fixes = 0;
        for dataset in [
            lausanne_taxis(1, 1),
            milan_cars(3, 1, 1),
            smartphone_users(3, 1, 1),
        ] {
            for track in &dataset.tracks {
                let body = render(track.object_id, track.trajectory_id, &track.records);
                assert_same(&body);
                let feed = parse_feed(&body).unwrap();
                assert_eq!(feed.trajectory_id, track.trajectory_id);
                assert_eq!(bits(&feed.records), bits(&track.records));
                fixes += feed.records.len();
            }
        }
        assert!(fixes > 5_000, "{fixes}");
    }

    /// Value tokens the wire format must treat exactly as the oracle
    /// does, quoted or bare.
    const TOKENS: &[&str] = &[
        "0",
        "-0",
        "1.5",
        "-2.25",
        "28800",
        "1e3",
        "1E-3",
        "inf",
        "-inf",
        "Infinity",
        "NaN",
        "nan",
        "-",
        "+",
        "+1",
        ".5",
        "5.",
        ".",
        "1e400",
        "-1e400",
        "1e-400",
        "12345678901234567890",
        "123456789012345678901234567890.5",
        "0.30000000000000000000000000000000000001",
        "18446744073709551615",
        "18446744073709551616",
        "0x10",
        "1_000",
        "1 2",
        "\u{a0}7",
        "7\u{a0}",
        "١٢",
        "é",
        "true",
        "false",
        "null",
        "",
        " ",
        "noon",
        "1}",
        "{}",
        "[1]",
        "\\",
        "\u{0}",
    ];

    #[test]
    fn scanner_matches_the_oracle_on_a_hostile_corpus() {
        let mut bodies: Vec<String> = [
            // the bodies of the tests above and of the server suite
            "",
            "not json",
            "this is not json\n",
            "this is not a mutation\n",
            "{\"object_id\":7,\"trajectory_id\":3}\n{\"x\":1.5,\"y\":-2.25,\"t\":100}\n\n{\"x\":2.5, \"y\":0, \"t\":108.5}\n",
            "{\"x\":0,\"y\":0,\"t\":1}\n",
            "{\"x\":0,\"y\":0,\"t\":1}\n{\"x\":}",
            "{\"x\":0,\"y\":0}\n",
            "{\"x\":0,\"y\":0,\"t\":\"noon\"}\n",
            "{\"x\":0,\"y\":0,\"t\":1}\n{\"object_id\":1}",
            "{\"object_id\":-1}",
            "{\"x\":[1],\"y\":0,\"t\":1}",
            "{\"x\":0,\"y\":0,\"t\":1,}",
            "{\"x\":2000,\"y\":2000,\"t\":28800}\n{\"x\":2005,\"y\":2000,\"t\":28830}\n",
            "{\"op\":\"add_road\",\"x1\":0,\"y1\":0,\"x2\":100,\"y2\":0}\n\
             {\"op\":\"add_poi\",\"x\":5,\"y\":5,\"category\":\"item sale\",\"name\":\"kiosk\"}\n\
             {\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"4.13\"}\n\
             {\"op\":\"add_region\",\"name\":\"yard\",\"kind\":\"market\",\"min_x\":0,\"min_y\":0,\"max_x\":50,\"max_y\":50}\n",
            "{\"op\":\"drop_tables\"}\n",
            "{\"op\":\"add_road\",\"x1\":1,\"y1\":1,\"x2\":1,\"y2\":1}\n",
            "{\"op\":\"add_poi\",\"x\":\"nan\",\"y\":0}\n",
            "{\"op\":\"add_poi\",\"x\":5,\"y\":5}\n{\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"no such\"}\n",
            "{\"op\":\"add_poi\",\"x\":3000,\"y\":3000,\"category\":\"item sale\",\"name\":\"kiosk\"}\n\
             {\"op\":\"add_road\",\"x1\":2800,\"y1\":2800,\"x2\":3200,\"y2\":2800,\"class\":\"street\"}\n",
            "{\"op\":\"add_road\",\"class\":\"canal\",\"x1\":0}\n",
            "{\"op\":\"add_road\",\"x1\":0,\"y1\":0,\"x2\":9,\"y2\":0,\"bus\":true,\"bus\":false,\"class\":\"rail\"}\n",
            "{\"op\":\"add_region\",\"kind\":\"moon\"}\n",
            "{\"op\":\"add_region\",\"min_x\":0,\"min_y\":0,\"max_x\":5}\n",
            "{\"op\":\"set_landuse\",\"x\":1,\"y\":1}\n",
            "{\"op\":\"add_poi\",\"category\":\"bakery\"}\n",
            "{\"op\":add_poi,\"x\":1,\"y\":1}\n",
            // whitespace: ASCII, vertical tab and form feed, Unicode, CRLF
            " \t{ \"x\" : 1 , \"y\" :2,\"t\": 3 } \r\n",
            "\u{b}\u{c}{\"x\":1,\"y\":2,\"t\":3}\u{b}\n",
            "\u{a0}{\"x\":1,\"y\":2,\"t\":3}\u{3000}\n",
            "{\u{2028}\"x\"\u{85}:\u{2009}1\u{202f},\"y\":2,\"t\":3\u{205f}}",
            "\u{1c}{\"x\":1,\"y\":2,\"t\":3}",
            "{\"x\":1,\"y\":2,\"t\":3}\u{1f}",
            "{\"x\":1,\"y\":2,\"t\":3\u{200b}}",
            "\r\n\r\n{\"x\":1,\"y\":2,\"t\":3}\r\n\r\n",
            "{\"x\":1,\"y\":2,\"t\":3}\r",
            "{\"x\":1,\"y\":2,\"t\":3}\r\r\n",
            "\n\n\n",
            " \u{3000} \n\t\n",
            "{}",
            "{ }\n{\"x\":1,\"y\":2,\"t\":3}",
            "{",
            "}",
            "{{}}",
            "{\"x\":1,\"y\":2,\"t\":3}}",
            "{{\"x\":1,\"y\":2,\"t\":3}",
            "{\"x\":1,\"y\":2,\"t\":3} {\"x\":1}",
            // braces inside values and after the closing one
            "{\"x\":\"a}\",\"y\":2,\"t\":3}",
            "{\"x\":1,\"y\":2,\"t\":\"a}\"}",
            "{\"x\":1,\"y\":2,\"t\":\"a}  \n\"}",
            "{\"x\":1,\"y\":2,\"t\":3} }",
            "{\"x\":1,\"y\":2,\"t\":3}, }",
            "{\"x\":1,\"y\":2,\"t\":3}}\n{\"x\":1}",
            "{\"x\":1}2,\"y\":2,\"t\":3}",
            "{\"x\":1,\"y\":2,\"t\":3}\u{3000}\u{85}\r\n",
            "{\"x\":1,\"y\":2,\"t\":3} x}",
            "{\"x\":1,\"y\":2,\"t\":3,\"k\":}",
            "{\"x\":1,\"y\":2,\"t\":3,\"k\"}",
            "{\"x\":1,\"y\":2,\"t\":3,\"k}",
            "{\"x\":1,\"y\":2,\"t\":3,\"k\":\"}",
            // key syntax
            "{x:1}",
            "{\"x:1}",
            "{\"x\" 1}",
            "{\"x\"}",
            "{\"x\":}",
            "{\"x\": ,\"y\":1}",
            "{\"x\":1 \"y\":2}",
            "{\"x\":\"1\" \"y\":2}",
            "{\"x\":\"1\"\"y\":2}",
            "{\"x\":\"1,\"y\":2,\"t\":3}",
            "{\"x\":1,\"y\":2,\"t\":\"3}",
            "{\"x\":1,,\"y\":2}",
            "{,\"x\":1}",
            "{\"x\":1,\"y\":2,\"t\":3, }",
            "{\"\":1,\"x\":1,\"y\":2,\"t\":3}",
            "{\"x y\":1,\"x\":1,\"y\":2,\"t\":3}",
            "{\"x\\\":1,\"y\":2,\"t\":3}",
            "{\"é\":1,\"x\":1,\"y\":2,\"t\":3}",
            // duplicates, reordering, extras, missing fields
            "{\"x\":1,\"x\":2,\"y\":2,\"t\":3}",
            "{\"x\":\"bad\",\"x\":2,\"y\":2,\"t\":3}",
            "{\"x\":2,\"x\":\"bad\",\"y\":2,\"t\":3}",
            "{\"t\":3,\"y\":2,\"x\":1}",
            "{\"speed\":4,\"t\":3,\"sat\":\"gps\",\"y\":2,\"x\":1,\"ok\":true}",
            "{\"t\":\"bad\",\"y\":\"bad\"}",
            "{\"y\":\"bad\"}",
            "{\"x\":1,\"t\":3}",
            "{\"X\":1,\"Y\":2,\"T\":3}",
            // headers
            "{\"object_id\":7}\n{\"object_id\":8}",
            "{\"trajectory_id\":7,\"x\":1,\"y\":2,\"t\":3}",
            "{\"object_id\":\"7\",\"trajectory_id\":\"+8\"}",
            "{\"object_id\":1.0}",
            "{\"object_id\":-0}",
            "{\"trajectory_id\":-5,\"object_id\":\"bad\"}",
            "{\"object_id\":18446744073709551616}",
            "{\"object_id\":1,\"object_id\":-1}",
            "\n\n{\"object_id\":1}\n{\"x\":1,\"y\":2,\"t\":3}",
            "{\"object_id\":1}",
            "{\"x\":1,\"y\":2,\"t\":3}\n\n{\"trajectory_id\":2}",
            "{\"x\":1,\"y\":2,\"t\":3}\n{\"object_id\":\"bad\"",
            // non-ASCII and control bytes
            "{\"x\":1,\"y\":2,\"t\":3,\"name\":\"Café 移動\"}",
            "{\"x\":\"١\",\"y\":2,\"t\":3}",
            "{\"x\":1\u{0},\"y\":2,\"t\":3}",
            "{\"x\":1,\"y\":2,\"t\":3}\u{0}",
            "{\"x\":1,\"y\":2,\"t\":3é}",
        ]
        .iter()
        .map(|b| b.to_string())
        .collect();
        // every token in every fix field, bare and quoted, and as an id
        for token in TOKENS {
            for key in ["x", "y", "t"] {
                let mut fields = vec![("x", "1"), ("y", "2"), ("t", "3")];
                for f in &mut fields {
                    if f.0 == key {
                        f.1 = token;
                    }
                }
                let line = |q: &str| {
                    let parts: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("\"{k}\":{q}{v}{q}"))
                        .collect();
                    format!("{{{}}}", parts.join(","))
                };
                bodies.push(line(""));
                bodies.push(line("\""));
            }
            for key in ["object_id", "trajectory_id"] {
                bodies.push(format!(
                    "{{\"{key}\":{token}}}\n{{\"x\":1,\"y\":2,\"t\":3}}"
                ));
                bodies.push(format!(
                    "{{\"{key}\":\"{token}\"}}\n{{\"x\":1,\"y\":2,\"t\":3}}"
                ));
            }
            bodies.push(format!("{{\"op\":\"add_poi\",\"x\":{token},\"y\":1}}"));
            bodies.push(format!(
                "{{\"op\":\"set_landuse\",\"x\":1,\"y\":1,\"category\":\"{token}\"}}"
            ));
        }
        for body in &bodies {
            assert_same(body);
        }
        // every error the oracle can raise on a fix line shows up above
        let messages: Vec<String> = bodies
            .iter()
            .filter_map(|b| oracle::parse_feed(b).err())
            .map(|e| e.msg)
            .collect();
        for kind in [
            "expected a {...} object",
            "expected a quoted key",
            "unterminated key",
            "expected ':' after key",
            "unterminated string value",
            "empty value",
            "nested values are not part of the wire format",
            "trailing comma",
            "expected ',' between fields",
            "header must be the first line",
            "empty body",
            "fix is missing field 'x'",
            "fix is missing field 't'",
            "field 'x' is not a number",
            "field 'object_id' is not an unsigned integer",
        ] {
            assert!(
                messages.iter().any(|m| m.starts_with(kind)),
                "corpus never hits {kind:?}"
            );
        }
    }

    /// Keys the generated lines draw from: the fix and header keys,
    /// extras, and near misses.
    const KEYS: &[&str] = &[
        "x",
        "y",
        "t",
        "object_id",
        "trajectory_id",
        "op",
        "speed",
        "X",
        "",
        "x ",
        "é",
    ];
    /// Separators around the structural characters.
    const WS: &[&str] = &[
        "", "", "", " ", "\t", "\u{b}", "\u{a0}", "\u{3000}", "\u{1c}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        #[test]
        fn scanner_matches_the_oracle_on_generated_lines(
            lines in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0..KEYS.len(), 0..TOKENS.len(), 0..WS.len(), 0..4usize),
                        0..6,
                    ),
                    0..8usize,
                    0..WS.len(),
                    0..4usize,
                ),
                0..5,
            ),
        ) {
            let mut body = String::new();
            for (fields, shape, ws, eol) in &lines {
                let ws = WS[*ws];
                let parts: Vec<String> = fields
                    .iter()
                    .map(|&(k, v, w, quote)| {
                        let w = WS[w];
                        // mostly well-formed fix values, sometimes a hostile token
                        let value = if quote < 2 { "1.25" } else { TOKENS[v] };
                        let q = if quote == 3 { "\"" } else { "" };
                        format!("{w}\"{}\"{w}:{w}{q}{value}{q}{w}", KEYS[k])
                    })
                    .collect();
                let inner = parts.join(",");
                let line = match shape {
                    0 => format!("{ws}{{{inner},}}{ws}"),
                    1 => format!("{ws}{{{inner}{ws}"),
                    2 => format!("{{{inner}}} x"),
                    3 => String::new(),
                    _ => format!("{ws}{{{inner}}}{ws}"),
                };
                body.push_str(&line);
                body.push_str(["\n", "\r\n", "\n\n", ""][*eol]);
            }
            assert_same(&body);
        }
    }
}
