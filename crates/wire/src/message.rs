//! TDWP — the simulated Teradata-like wire protocol (WP-A).
//!
//! The paper's Protocol Handler (§4.1) must emulate "authentication
//! handshake …, network message types and binary formats, as well as
//! representation of different query elements, data types and query
//! responses", producing traffic "bit-identical to the original database".
//! The real Teradata message layout is proprietary; TDWP is a faithful
//! structural stand-in: framed binary messages, a challenge–response
//! logon, a typed binary row format, and an explicit end-of-request marker.
//!
//! Frame layout: `kind: u8`, `len: u32 LE`, `payload: len bytes`.
//!
//! Reading is two steps: [`read_frame`] fills a caller's buffer with one
//! payload, and [`Message::parse`] turns it into a message;
//! [`Message::read_from`] composes them. A reader that keeps its buffer,
//! like the client, allocates no buffer per frame, and decodes a `Record`
//! straight from it with a [`RowDecoder`] built once per result set.
//! [`decode_client_row`] runs the same decoder for a single row.

use bytes::{Buf, BufMut, BytesMut};
use hyperq_xtra::datum::{Datum, Decimal, Interval};
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;
use hyperq_xtra::Row;
use std::io::{Read, Write};
use std::sync::Arc;

/// Protocol-level error.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(m) => write!(f, "wire protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// TDWP messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // --- client → gateway -------------------------------------------------
    /// Start the logon handshake.
    LogonRequest { user: String },
    /// Response to the server's challenge: FNV-1a digest of
    /// `password ‖ salt`.
    LogonDigest { digest: u64 },
    /// Execute a request (one or more statements) in the client's dialect.
    SqlRequest { sql: String },
    /// Close the session.
    Logoff,
    /// Asynchronously abort the request currently executing on this
    /// session (the Teradata `ABORT`/async-abort shape). Sent out-of-band
    /// while a `SqlRequest` is in flight; the gateway answers the aborted
    /// request with error 3110 and the session stays usable.
    AbortRequest,
    /// Execute a request under a client-supplied response-time limit
    /// (milliseconds; 0 = unlimited). Expiry cancels the request with
    /// error 3156 without tearing down the session.
    SqlRequestTimed { timeout_ms: u32, sql: String },
    // --- gateway → client -------------------------------------------------
    /// Authentication challenge with a per-session salt.
    AuthChallenge { salt: u64 },
    /// Logon accepted.
    LogonOk { session_id: u64 },
    /// Result set header: column names and type codes.
    RecordSetHeader { columns: Vec<(String, u8)> },
    /// One data row in the client's native binary format.
    Record { row_bytes: Vec<u8> },
    /// Statement completed; `activity_count` = rows returned/affected.
    StatementOk { activity_count: u64 },
    /// Request failed.
    ErrorResponse { code: u16, message: String },
    /// All statements of the request are done.
    EndRequest,
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::LogonRequest { .. } => 0x01,
            Message::LogonDigest { .. } => 0x02,
            Message::SqlRequest { .. } => 0x03,
            Message::Logoff => 0x04,
            Message::AbortRequest => 0x05,
            Message::SqlRequestTimed { .. } => 0x06,
            Message::AuthChallenge { .. } => 0x81,
            Message::LogonOk { .. } => 0x82,
            Message::RecordSetHeader { .. } => 0x83,
            Message::Record { .. } => RECORD_KIND,
            Message::StatementOk { .. } => 0x85,
            Message::ErrorResponse { .. } => 0x86,
            Message::EndRequest => 0x87,
        }
    }

    /// Serialize into a frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut payload = BytesMut::new();
        match self {
            Message::LogonRequest { user } => put_str(&mut payload, user),
            Message::LogonDigest { digest } => payload.put_u64_le(*digest),
            Message::SqlRequest { sql } => put_str(&mut payload, sql),
            Message::Logoff | Message::AbortRequest | Message::EndRequest => {}
            Message::SqlRequestTimed { timeout_ms, sql } => {
                payload.put_u32_le(*timeout_ms);
                put_str(&mut payload, sql);
            }
            Message::AuthChallenge { salt } => payload.put_u64_le(*salt),
            Message::LogonOk { session_id } => payload.put_u64_le(*session_id),
            Message::RecordSetHeader { columns } => {
                payload.put_u16_le(columns.len() as u16);
                for (name, code) in columns {
                    payload.put_u8(*code);
                    put_str(&mut payload, name);
                }
            }
            Message::Record { row_bytes } => payload.put_slice(row_bytes),
            Message::StatementOk { activity_count } => payload.put_u64_le(*activity_count),
            Message::ErrorResponse { code, message } => {
                payload.put_u16_le(*code);
                put_str(&mut payload, message);
            }
        }
        let mut frame = Vec::with_capacity(5 + payload.len());
        frame.push(self.kind());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// Read one framed message from a stream: [`read_frame`] into a fresh
    /// buffer, then [`Message::parse`]. A `Record` keeps that buffer as its
    /// `row_bytes` rather than copying it.
    pub fn read_from(stream: &mut impl Read) -> Result<Message, WireError> {
        let mut payload = Vec::new();
        match read_frame(stream, &mut payload)? {
            RECORD_KIND => Ok(Message::Record { row_bytes: payload }),
            kind => Message::parse(kind, &payload),
        }
    }

    /// Parse the payload of a frame of kind `kind`, as [`read_frame`]
    /// returned them.
    pub fn parse(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
        let mut buf = payload;
        Ok(match kind {
            0x01 => Message::LogonRequest { user: get_str(&mut buf)? },
            0x02 => Message::LogonDigest { digest: get_u64(&mut buf)? },
            0x03 => Message::SqlRequest { sql: get_str(&mut buf)? },
            0x04 => Message::Logoff,
            0x05 => Message::AbortRequest,
            0x06 => {
                if buf.remaining() < 4 {
                    return Err(WireError::Protocol("truncated timed request".into()));
                }
                let timeout_ms = buf.get_u32_le();
                Message::SqlRequestTimed { timeout_ms, sql: get_str(&mut buf)? }
            }
            0x81 => Message::AuthChallenge { salt: get_u64(&mut buf)? },
            0x82 => Message::LogonOk { session_id: get_u64(&mut buf)? },
            0x83 => {
                if buf.remaining() < 2 {
                    return Err(WireError::Protocol("truncated header".into()));
                }
                let n = buf.get_u16_le() as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    if buf.remaining() < 1 {
                        return Err(WireError::Protocol("truncated column".into()));
                    }
                    let code = buf.get_u8();
                    columns.push((get_str(&mut buf)?, code));
                }
                Message::RecordSetHeader { columns }
            }
            RECORD_KIND => Message::Record { row_bytes: buf.to_vec() },
            0x85 => Message::StatementOk { activity_count: get_u64(&mut buf)? },
            0x86 => {
                if buf.remaining() < 2 {
                    return Err(WireError::Protocol("truncated error".into()));
                }
                let code = buf.get_u16_le();
                Message::ErrorResponse { code, message: get_str(&mut buf)? }
            }
            0x87 => Message::EndRequest,
            other => return Err(WireError::Protocol(format!("unknown message kind {other:#x}"))),
        })
    }

    /// Write this message to a stream.
    pub fn write_to(&self, stream: &mut impl Write) -> Result<(), WireError> {
        stream.write_all(&self.to_frame())?;
        Ok(())
    }

    /// Write a [`Message::Record`] frame for `row_bytes` straight into
    /// `stream` — header, then the row, with no intermediate frame — the
    /// same bytes as `Message::Record { row_bytes }.to_frame()`.
    pub fn write_record(stream: &mut impl Write, row_bytes: &[u8]) -> std::io::Result<()> {
        let len = u32::try_from(row_bytes.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "record exceeds a frame")
        })?;
        let mut head = [RECORD_KIND, 0, 0, 0, 0];
        head[1..].copy_from_slice(&len.to_le_bytes());
        stream.write_all(&head)?;
        stream.write_all(row_bytes)
    }
}

pub(crate) const RECORD_KIND: u8 = 0x84;

/// Largest frame payload a reader accepts.
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Read one frame from `stream` into `payload`, replacing its contents,
/// and return the frame's kind. A reader that keeps `payload` across
/// frames allocates only when a frame outgrows every earlier one.
pub fn read_frame(stream: &mut impl Read, payload: &mut Vec<u8>) -> Result<u8, WireError> {
    let mut head = [0u8; 5];
    stream.read_exact(&mut head)?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Protocol(format!("oversized frame ({len} bytes)")));
    }
    payload.clear();
    payload.resize(len, 0);
    stream.read_exact(payload)?;
    Ok(head[0])
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    if buf.remaining() < 4 {
        return Err(WireError::Protocol("truncated string".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(WireError::Protocol("truncated string body".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| WireError::Protocol("string is not UTF-8".into()))?;
    buf.advance(len);
    Ok(s)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Protocol("truncated u64".into()));
    }
    Ok(buf.get_u64_le())
}

// ---------------------------------------------------------------------------
// Client-native binary row format (the "WP-A" row representation that must
// be produced bit-identically regardless of which backend executed the
// query).
// ---------------------------------------------------------------------------

/// Type codes used in [`Message::RecordSetHeader`].
pub fn type_code(ty: &SqlType) -> u8 {
    match ty {
        SqlType::Boolean => 1,
        SqlType::Integer => 2,
        SqlType::Double => 3,
        SqlType::Decimal { .. } => 4,
        SqlType::Date => 5,
        SqlType::Timestamp => 6,
        SqlType::Interval => 8,
        _ => 7, // character-ish
    }
}

/// Encode one row into the client's native binary format: per field a
/// presence byte (0 = value follows, 1 = NULL) then the value. Dates use
/// the Teradata integer encoding — the client is a Teradata application
/// and expects `(year-1900)*10000 + month*100 + day`.
pub fn encode_client_row(row: &Row, schema: &Schema) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(row.len() * 9 + 2);
    buf.put_u16_le(row.len() as u16);
    for (v, field) in row.iter().zip(schema.fields.iter()) {
        if v.is_null() {
            buf.put_u8(1);
            continue;
        }
        buf.put_u8(0);
        match (v, &field.ty) {
            (Datum::Bool(b), _) => buf.put_u8(*b as u8),
            (Datum::Int(i), _) => buf.put_i64_le(*i),
            (Datum::Double(d), _) => buf.put_f64_le(*d),
            (Datum::Dec(d), _) => {
                buf.put_i128_le(d.mantissa);
                buf.put_u8(d.scale);
            }
            (Datum::Date(days), _) => {
                buf.put_i32_le(hyperq_xtra::datum::teradata_int_from_date(*days) as i32);
            }
            (Datum::Timestamp(t), _) => buf.put_i64_le(*t),
            (Datum::Interval(iv), _) => {
                buf.put_i32_le(iv.months);
                buf.put_i32_le(iv.days);
            }
            (v, _) => {
                let s = v.to_sql_string();
                buf.put_u32_le(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
    buf.to_vec()
}

/// Decode a client-format row given the header type codes: the same
/// decoding as [`RowDecoder::decode`], with every string its own
/// allocation.
pub fn decode_client_row(bytes: &[u8], columns: &[(String, u8)]) -> Result<Row, WireError> {
    decode_fields(bytes, columns.iter().map(|(_, code)| (FieldKind::of(*code), None)))
}

/// Distinct values one string column of a result set shares before it
/// stops interning. A fixed bound, not a setting: enough for flags,
/// statuses and modes, and a linear scan stays cheaper than the
/// allocation it saves.
const DICTIONARY_ENTRIES: usize = 16;

/// Decodes the rows of one result set. Built once from its
/// [`Message::RecordSetHeader`], it resolves each column's type code
/// once, and shares one `Arc<str>` among the repeated values of a string
/// column: each column keeps its first 16 distinct values, compared by
/// bytes, and from its 17th distinct value on allocates every value
/// itself for the rest of the result set.
pub struct RowDecoder {
    columns: Vec<(FieldKind, Dictionary)>,
}

impl RowDecoder {
    pub fn new(columns: &[(String, u8)]) -> RowDecoder {
        RowDecoder {
            columns: columns
                .iter()
                .map(|(_, code)| (FieldKind::of(*code), Dictionary::default()))
                .collect(),
        }
    }

    /// Decode one row of this result set.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<Row, WireError> {
        decode_fields(bytes, self.columns.iter_mut().map(|(kind, dict)| (*kind, Some(dict))))
    }
}

/// The wire layout of a column's values, from its header type code.
#[derive(Clone, Copy)]
enum FieldKind {
    Bool,
    Int,
    Double,
    Dec,
    Date,
    Timestamp,
    Interval,
    Str,
}

impl FieldKind {
    fn of(code: u8) -> FieldKind {
        match code {
            1 => FieldKind::Bool,
            2 => FieldKind::Int,
            3 => FieldKind::Double,
            4 => FieldKind::Dec,
            5 => FieldKind::Date,
            6 => FieldKind::Timestamp,
            8 => FieldKind::Interval,
            _ => FieldKind::Str,
        }
    }
}

/// The distinct values a string column has shared so far; emptied, and
/// bypassed, once the column has more than [`DICTIONARY_ENTRIES`].
#[derive(Default)]
struct Dictionary {
    values: Vec<Arc<str>>,
    full: bool,
}

impl Dictionary {
    fn intern(&mut self, s: &str) -> Arc<str> {
        if !self.full {
            if let Some(v) = self.values.iter().find(|v| v.as_bytes() == s.as_bytes()) {
                return Arc::clone(v);
            }
            if self.values.len() < DICTIONARY_ENTRIES {
                let v: Arc<str> = Arc::from(s);
                self.values.push(Arc::clone(&v));
                return v;
            }
            self.full = true;
            self.values = Vec::new();
        }
        Arc::from(s)
    }
}

/// The one row decoder: per column, its kind and, for a [`RowDecoder`],
/// its dictionary.
fn decode_fields<'d>(
    bytes: &[u8],
    columns: impl ExactSizeIterator<Item = (FieldKind, Option<&'d mut Dictionary>)>,
) -> Result<Row, WireError> {
    let mut buf = bytes;
    if buf.remaining() < 2 {
        return Err(WireError::Protocol("truncated row".into()));
    }
    let n = buf.get_u16_le() as usize;
    if n != columns.len() {
        return Err(WireError::Protocol(format!(
            "row has {n} fields, header declared {}",
            columns.len()
        )));
    }
    let need = |buf: &[u8], n: usize| -> Result<(), WireError> {
        if buf.remaining() < n {
            Err(WireError::Protocol("truncated field".into()))
        } else {
            Ok(())
        }
    };
    let mut row = Vec::with_capacity(n);
    for (kind, dict) in columns {
        if buf.remaining() < 1 {
            return Err(WireError::Protocol("truncated presence byte".into()));
        }
        if buf.get_u8() == 1 {
            row.push(Datum::Null);
            continue;
        }
        row.push(match kind {
            FieldKind::Bool => {
                need(buf, 1)?;
                Datum::Bool(buf.get_u8() != 0)
            }
            FieldKind::Int => {
                need(buf, 8)?;
                Datum::Int(buf.get_i64_le())
            }
            FieldKind::Double => {
                need(buf, 8)?;
                Datum::Double(buf.get_f64_le())
            }
            FieldKind::Dec => {
                need(buf, 17)?;
                let mantissa = buf.get_i128_le();
                let scale = buf.get_u8();
                Datum::Dec(Decimal::new(mantissa, scale))
            }
            FieldKind::Date => {
                need(buf, 4)?;
                let encoded = buf.get_i32_le() as i64;
                match hyperq_xtra::datum::date_from_teradata_int(encoded) {
                    Some(days) => Datum::Date(days),
                    None => {
                        return Err(WireError::Protocol(format!(
                            "invalid Teradata date encoding {encoded}"
                        )))
                    }
                }
            }
            FieldKind::Timestamp => {
                need(buf, 8)?;
                Datum::Timestamp(buf.get_i64_le())
            }
            FieldKind::Interval => {
                need(buf, 8)?;
                let months = buf.get_i32_le();
                let days = buf.get_i32_le();
                Datum::Interval(Interval { months, days })
            }
            FieldKind::Str => {
                need(buf, 4)?;
                let len = buf.get_u32_le() as usize;
                need(buf, len)?;
                let s = std::str::from_utf8(&buf[..len])
                    .map_err(|_| WireError::Protocol("row string not UTF-8".into()))?;
                buf.advance(len);
                Datum::Str(match dict {
                    Some(dict) => dict.intern(s),
                    None => Arc::from(s),
                })
            }
        });
    }
    Ok(row)
}

/// Header columns for a schema.
pub fn header_columns(schema: &Schema) -> Vec<(String, u8)> {
    schema
        .fields
        .iter()
        .map(|f| (f.name.clone(), type_code(&f.ty)))
        .collect()
}

/// Reconstruct field metadata from header columns (client side).
pub fn schema_from_header(columns: &[(String, u8)]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|(name, code)| {
                let ty = match code {
                    1 => SqlType::Boolean,
                    2 => SqlType::Integer,
                    3 => SqlType::Double,
                    4 => SqlType::Decimal { precision: 38, scale: 2 },
                    5 => SqlType::Date,
                    6 => SqlType::Timestamp,
                    8 => SqlType::Interval,
                    _ => SqlType::Varchar(None),
                };
                Field { qualifier: None, name: name.clone(), ty, nullable: true }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::datum::date_from_ymd;

    #[test]
    fn message_frame_round_trip() {
        let messages = vec![
            Message::LogonRequest { user: "APPUSER".into() },
            Message::LogonDigest { digest: 0xDEADBEEF },
            Message::SqlRequest { sql: "SEL * FROM T".into() },
            Message::Logoff,
            Message::AbortRequest,
            Message::SqlRequestTimed { timeout_ms: 1500, sql: "SEL * FROM T".into() },
            Message::AuthChallenge { salt: 42 },
            Message::LogonOk { session_id: 7 },
            Message::RecordSetHeader {
                columns: vec![("A".into(), 2), ("B".into(), 7)],
            },
            Message::Record { row_bytes: vec![1, 2, 3] },
            Message::StatementOk { activity_count: 10 },
            Message::ErrorResponse { code: 3807, message: "table not found".into() },
            Message::EndRequest,
        ];
        // One payload buffer for every frame, as the client reads them.
        let mut payload = Vec::new();
        for m in messages {
            let frame = m.to_frame();
            let back = Message::read_from(&mut frame.as_slice()).unwrap();
            assert_eq!(back, m);
            let kind = read_frame(&mut frame.as_slice(), &mut payload).unwrap();
            assert_eq!(Message::parse(kind, &payload).unwrap(), m);
        }
    }

    #[test]
    fn write_record_matches_record_frame() {
        for len in [0, 7, 64 * 1024] {
            let row_bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut written = Vec::new();
            Message::write_record(&mut written, &row_bytes).unwrap();
            assert_eq!(written, Message::Record { row_bytes }.to_frame(), "{len}-byte row");
        }
    }

    #[test]
    fn client_row_round_trip_with_teradata_dates() {
        let schema = Schema::new(vec![
            Field::new(None, "I", SqlType::Integer, true),
            Field::new(None, "D", SqlType::Date, true),
            Field::new(None, "S", SqlType::Varchar(None), true),
        ]);
        let row = vec![
            Datum::Int(5),
            Datum::Date(date_from_ymd(2014, 1, 1)),
            Datum::str("x"),
        ];
        let bytes = encode_client_row(&row, &schema);
        // The date must be on the wire in Teradata integer encoding:
        // presence(0) + i64 + presence(0) + 1140101 as i32 …
        let date_bytes = &bytes[2 + 1 + 8 + 1..2 + 1 + 8 + 1 + 4];
        assert_eq!(i32::from_le_bytes(date_bytes.try_into().unwrap()), 1_140_101);
        let cols = header_columns(&schema);
        let back = decode_client_row(&bytes, &cols).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn null_fields_round_trip() {
        let schema = Schema::new(vec![
            Field::new(None, "A", SqlType::Integer, true),
            Field::new(None, "B", SqlType::Varchar(None), true),
        ]);
        let row = vec![Datum::Null, Datum::Null];
        let bytes = encode_client_row(&row, &schema);
        let back = decode_client_row(&bytes, &header_columns(&schema)).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn encoding_is_deterministic() {
        // "Bit-identical" responses: same row, same bytes.
        let schema = Schema::new(vec![Field::new(None, "A", SqlType::Integer, true)]);
        let row = vec![Datum::Int(99)];
        assert_eq!(encode_client_row(&row, &schema), encode_client_row(&row, &schema));
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let frame = Message::SqlRequest { sql: "SEL 1".into() }.to_frame();
        for cut in [0, 3, 5, frame.len() - 1] {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(Message::read_from(&mut cursor).is_err());
        }
    }
}
