//! TDF — the Tabular Data Format (paper §4.5).
//!
//! "Result batches are packaged according to Hyper-Q binary data
//! representation, called Tabular Data Format (TDF), which is designed to
//! be an extensible binary format that is able to handle arbitrarily large
//! nested data."
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    u32   = 0x54444631 ("TDF1")
//! ncols    u16
//! per col: tag u8, name-len u16, name bytes (UTF-8)
//! nrows    u64
//! per row: null bitmap (⌈ncols/8⌉ bytes), then non-null values in column
//!          order, each encoded per its column tag; variable-length values
//!          carry a u32 length prefix.
//! ```
//!
//! The format is self-describing: a TDF batch can be decoded without the
//! producing query's plan. The Result Converter never decodes it into
//! values, though: [`transcode`] turns a batch straight into framed client
//! rows, and [`decode`] stays as the reference that transcoding is tested
//! against.

use bytes::{Buf, BufMut, Bytes};
use hyperq_xtra::datum::{teradata_int_from_date, Datum, Decimal, Interval};
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;
use hyperq_xtra::Row;

use crate::message::RECORD_KIND;

const MAGIC: u32 = 0x5444_4631;

/// Encoding error (schema/value mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdfError(pub String);

impl std::fmt::Display for TdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TDF error: {}", self.0)
    }
}

impl std::error::Error for TdfError {}

/// Column type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Bool = 1,
    Int = 2,
    Double = 3,
    Decimal = 4,
    Date = 5,
    Timestamp = 6,
    Varchar = 7,
    Interval = 8,
}

fn tag_of(ty: &SqlType) -> Tag {
    match ty {
        SqlType::Boolean => Tag::Bool,
        SqlType::Integer => Tag::Int,
        SqlType::Double => Tag::Double,
        SqlType::Decimal { .. } => Tag::Decimal,
        SqlType::Date => Tag::Date,
        SqlType::Timestamp => Tag::Timestamp,
        SqlType::Interval => Tag::Interval,
        // Character data and everything the tag set does not distinguish
        // serializes as a string; TDF is a transport, not a type system.
        SqlType::Varchar(_) | SqlType::Char(_) | SqlType::Period(_) | SqlType::Unknown => {
            Tag::Varchar
        }
    }
}

fn tag_from(b: u8) -> Result<Tag, TdfError> {
    Ok(match b {
        1 => Tag::Bool,
        2 => Tag::Int,
        3 => Tag::Double,
        4 => Tag::Decimal,
        5 => Tag::Date,
        6 => Tag::Timestamp,
        7 => Tag::Varchar,
        8 => Tag::Interval,
        other => return Err(TdfError(format!("unknown TDF type tag {other}"))),
    })
}

/// Check that a schema fits TDF's header: at most `u16::MAX` columns, each
/// name at most `u16::MAX` bytes. Both the TDWP `RecordSetHeader` and the
/// client row format count columns in a u16 as well, so a schema that
/// passes is representable on every hop; one that fails must be refused
/// before any frame of its response is written, not truncated into a
/// corrupt batch.
pub fn check_schema(schema: &Schema) -> Result<(), TdfError> {
    if schema.len() > u16::MAX as usize {
        return Err(TdfError(format!(
            "{} columns exceed the TDF limit of {}",
            schema.len(),
            u16::MAX
        )));
    }
    match schema.fields.iter().find(|f| f.name.len() > u16::MAX as usize) {
        Some(f) => Err(TdfError(format!(
            "a column name of {} bytes exceeds the TDF limit of {}",
            f.name.len(),
            u16::MAX
        ))),
        None => Ok(()),
    }
}

/// Encode a result batch into one TDF buffer.
pub fn encode(schema: &Schema, rows: &[Row]) -> Result<Bytes, TdfError> {
    let mut buf = Vec::with_capacity(64 + rows.len() * schema.len() * 8);
    encode_into(schema, rows, &mut buf)?;
    Ok(Bytes::from(buf))
}

/// [`encode`], appending to a caller-owned buffer so a stream of batches
/// reuses one allocation.
pub fn encode_into(schema: &Schema, rows: &[Row], buf: &mut Vec<u8>) -> Result<(), TdfError> {
    check_schema(schema)?;
    let ncols = schema.len();
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(ncols as u16);
    let tags: Vec<Tag> = schema
        .fields
        .iter()
        .map(|f| {
            let t = tag_of(&f.ty);
            buf.put_u8(t as u8);
            let name = f.name.as_bytes();
            buf.put_u16_le(name.len() as u16);
            buf.put_slice(name);
            t
        })
        .collect();
    buf.put_u64_le(rows.len() as u64);
    let bitmap_len = ncols.div_ceil(8);
    for row in rows {
        if row.len() != ncols {
            return Err(TdfError(format!(
                "row width {} does not match schema width {ncols}",
                row.len()
            )));
        }
        let bitmap = buf.len();
        buf.resize(bitmap + bitmap_len, 0);
        for (i, v) in row.iter().enumerate() {
            if v.is_null() {
                buf[bitmap + i / 8] |= 1 << (i % 8);
            }
        }
        for (v, tag) in row.iter().zip(tags.iter()) {
            if v.is_null() {
                continue;
            }
            encode_value(buf, v, *tag)?;
        }
    }
    Ok(())
}

fn encode_value(buf: &mut Vec<u8>, v: &Datum, tag: Tag) -> Result<(), TdfError> {
    match (tag, v) {
        (Tag::Bool, Datum::Bool(b)) => buf.put_u8(*b as u8),
        (Tag::Int, Datum::Int(i)) => buf.put_i64_le(*i),
        (Tag::Double, Datum::Double(d)) => buf.put_f64_le(*d),
        (Tag::Decimal, Datum::Dec(d)) => {
            buf.put_i128_le(d.mantissa);
            buf.put_u8(d.scale);
        }
        (Tag::Date, Datum::Date(d)) => buf.put_i32_le(*d),
        (Tag::Timestamp, Datum::Timestamp(t)) => buf.put_i64_le(*t),
        (Tag::Interval, Datum::Interval(iv)) => {
            buf.put_i32_le(iv.months);
            buf.put_i32_le(iv.days);
        }
        (Tag::Varchar, Datum::Str(s)) => {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        (Tag::Varchar, v) => {
            let s = v.to_sql_string();
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        // Numeric widening: the engine may produce a narrower representation
        // than the declared column type.
        (Tag::Int, other) => {
            let i = other
                .to_i64()
                .ok_or_else(|| TdfError(format!("cannot encode {other:?} as INT")))?;
            buf.put_i64_le(i);
        }
        (Tag::Double, other) => {
            let d = other
                .to_f64()
                .ok_or_else(|| TdfError(format!("cannot encode {other:?} as DOUBLE")))?;
            buf.put_f64_le(d);
        }
        (Tag::Decimal, Datum::Int(i)) => {
            buf.put_i128_le(*i as i128);
            buf.put_u8(0);
        }
        (Tag::Decimal, Datum::Double(d)) => {
            let dec = Decimal::new((d * 10_000.0).round() as i128, 4);
            buf.put_i128_le(dec.mantissa);
            buf.put_u8(dec.scale);
        }
        (tag, v) => {
            return Err(TdfError(format!(
                "value {v:?} does not match column tag {tag:?}"
            )))
        }
    }
    Ok(())
}

/// Decode a TDF buffer back into a schema and rows.
pub fn decode(data: &[u8]) -> Result<(Schema, Vec<Row>), TdfError> {
    let mut buf = data;
    if buf.remaining() < 6 {
        return Err(TdfError("truncated TDF header".into()));
    }
    if buf.get_u32_le() != MAGIC {
        return Err(TdfError("bad TDF magic".into()));
    }
    let ncols = buf.get_u16_le() as usize;
    let mut fields = Vec::with_capacity(ncols);
    let mut tags = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if buf.remaining() < 3 {
            return Err(TdfError("truncated TDF column header".into()));
        }
        let tag = tag_from(buf.get_u8())?;
        let name_len = buf.get_u16_le() as usize;
        if buf.remaining() < name_len {
            return Err(TdfError("truncated TDF column name".into()));
        }
        let name = String::from_utf8(buf[..name_len].to_vec())
            .map_err(|_| TdfError("column name is not UTF-8".into()))?;
        buf.advance(name_len);
        let ty = match tag {
            Tag::Bool => SqlType::Boolean,
            Tag::Int => SqlType::Integer,
            Tag::Double => SqlType::Double,
            Tag::Decimal => SqlType::Decimal { precision: 38, scale: 2 },
            Tag::Date => SqlType::Date,
            Tag::Timestamp => SqlType::Timestamp,
            Tag::Varchar => SqlType::Varchar(None),
            Tag::Interval => SqlType::Interval,
        };
        fields.push(Field { qualifier: None, name, ty, nullable: true });
        tags.push(tag);
    }
    if buf.remaining() < 8 {
        return Err(TdfError("truncated TDF row count".into()));
    }
    let nrows = buf.get_u64_le() as usize;
    let bitmap_len = ncols.div_ceil(8);
    // A corrupted row count must not drive a huge preallocation; the Vec
    // grows on demand past this hint.
    let mut rows = Vec::with_capacity(nrows.min(64 * 1024));
    for _ in 0..nrows {
        if buf.remaining() < bitmap_len {
            return Err(TdfError("truncated TDF null bitmap".into()));
        }
        let bitmap = buf[..bitmap_len].to_vec();
        buf.advance(bitmap_len);
        let mut row = Vec::with_capacity(ncols);
        for (i, tag) in tags.iter().enumerate() {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                row.push(Datum::Null);
                continue;
            }
            row.push(decode_value(&mut buf, *tag)?);
        }
        rows.push(row);
    }
    Ok((Schema::new(fields), rows))
}

fn decode_value(buf: &mut &[u8], tag: Tag) -> Result<Datum, TdfError> {
    let need = |buf: &&[u8], n: usize| -> Result<(), TdfError> {
        if buf.remaining() < n {
            Err(TdfError("truncated TDF value".into()))
        } else {
            Ok(())
        }
    };
    Ok(match tag {
        Tag::Bool => {
            need(buf, 1)?;
            Datum::Bool(buf.get_u8() != 0)
        }
        Tag::Int => {
            need(buf, 8)?;
            Datum::Int(buf.get_i64_le())
        }
        Tag::Double => {
            need(buf, 8)?;
            Datum::Double(buf.get_f64_le())
        }
        Tag::Decimal => {
            need(buf, 17)?;
            let mantissa = buf.get_i128_le();
            let scale = buf.get_u8();
            Datum::Dec(Decimal::new(mantissa, scale))
        }
        Tag::Date => {
            need(buf, 4)?;
            Datum::Date(buf.get_i32_le())
        }
        Tag::Timestamp => {
            need(buf, 8)?;
            Datum::Timestamp(buf.get_i64_le())
        }
        Tag::Interval => {
            need(buf, 8)?;
            let months = buf.get_i32_le();
            let days = buf.get_i32_le();
            Datum::Interval(Interval { months, days })
        }
        Tag::Varchar => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(buf, len)?;
            let s = String::from_utf8(buf[..len].to_vec())
                .map_err(|_| TdfError("string value is not UTF-8".into()))?;
            buf.advance(len);
            Datum::str(s)
        }
    })
}

/// Transcode one TDF batch straight into the client's wire format: one
/// framed TDWP `Record` message per row, appended back to back to `out`,
/// with no `Datum` in between. The bytes are exactly those of [`decode`]
/// followed by [`encode_client_row`] and [`Message::write_record`] — dates
/// in the Teradata integer encoding, booleans normalised to 0/1 — and a
/// corrupt batch (truncated, bad magic, column name or string not UTF-8)
/// is the same error. On error `out` holds a partial batch the caller must
/// discard. Returns the number of rows.
///
/// [`encode_client_row`]: crate::message::encode_client_row
/// [`Message::write_record`]: crate::message::Message::write_record
pub fn transcode(data: &[u8], out: &mut Vec<u8>) -> Result<u64, TdfError> {
    let mut buf = data;
    if buf.remaining() < 6 {
        return Err(TdfError("truncated TDF header".into()));
    }
    if buf.get_u32_le() != MAGIC {
        return Err(TdfError("bad TDF magic".into()));
    }
    let ncols = buf.get_u16_le() as usize;
    let mut tags = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        if buf.remaining() < 3 {
            return Err(TdfError("truncated TDF column header".into()));
        }
        let tag = tag_from(buf.get_u8())?;
        let name_len = buf.get_u16_le() as usize;
        if buf.remaining() < name_len {
            return Err(TdfError("truncated TDF column name".into()));
        }
        std::str::from_utf8(&buf[..name_len])
            .map_err(|_| TdfError("column name is not UTF-8".into()))?;
        buf.advance(name_len);
        tags.push(tag);
    }
    if buf.remaining() < 8 {
        return Err(TdfError("truncated TDF row count".into()));
    }
    let nrows = buf.get_u64_le();
    let bitmap_len = ncols.div_ceil(8);
    // Client rows carry a frame header, a field count and a presence byte
    // per field where TDF carries a bitmap; the values are the same size.
    // A corrupt row count must not drive a huge reservation.
    out.reserve(buf.len() + (nrows.min(64 * 1024) as usize) * (7 + ncols));
    for _ in 0..nrows {
        if buf.remaining() < bitmap_len {
            return Err(TdfError("truncated TDF null bitmap".into()));
        }
        let (bitmap, rest) = buf.split_at(bitmap_len);
        buf = rest;
        let frame = out.len();
        out.extend_from_slice(&[RECORD_KIND, 0, 0, 0, 0]);
        out.put_u16_le(ncols as u16);
        for (i, tag) in tags.iter().enumerate() {
            if bitmap[i / 8] & (1 << (i % 8)) != 0 {
                out.push(1);
                continue;
            }
            out.push(0);
            transcode_value(&mut buf, *tag, out)?;
        }
        let len = u32::try_from(out.len() - frame - 5)
            .map_err(|_| TdfError("row exceeds a TDWP frame".into()))?;
        out[frame + 1..frame + 5].copy_from_slice(&len.to_le_bytes());
    }
    Ok(nrows)
}

/// Move one non-null value from TDF into the client row format.
fn transcode_value(buf: &mut &[u8], tag: Tag, out: &mut Vec<u8>) -> Result<(), TdfError> {
    let truncated = || TdfError("truncated TDF value".into());
    let width = match tag {
        Tag::Bool => 1,
        Tag::Date => 4,
        Tag::Int | Tag::Double | Tag::Timestamp | Tag::Interval => 8,
        Tag::Decimal => 17,
        Tag::Varchar => {
            let prefix = buf.get(..4).ok_or_else(truncated)?;
            4 + u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize
        }
    };
    let value = buf.get(..width).ok_or_else(truncated)?;
    buf.advance(width);
    match tag {
        Tag::Bool => out.push(u8::from(value[0] != 0)),
        Tag::Date => {
            let days = i32::from_le_bytes([value[0], value[1], value[2], value[3]]);
            out.put_i32_le(teradata_int_from_date(days) as i32);
        }
        Tag::Varchar => {
            std::str::from_utf8(&value[4..])
                .map_err(|_| TdfError("string value is not UTF-8".into()))?;
            out.extend_from_slice(value);
        }
        _ => out.extend_from_slice(value),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperq_xtra::datum::date_from_ymd;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new(None, "I", SqlType::Integer, true),
            Field::new(None, "S", SqlType::Varchar(Some(20)), true),
            Field::new(None, "D", SqlType::Decimal { precision: 10, scale: 2 }, true),
            Field::new(None, "DT", SqlType::Date, true),
            Field::new(None, "B", SqlType::Boolean, true),
        ])
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![
                Datum::Int(42),
                Datum::str("hello"),
                Datum::Dec(Decimal::parse("12.34").unwrap()),
                Datum::Date(date_from_ymd(2014, 1, 1)),
                Datum::Bool(true),
            ],
            vec![
                Datum::Null,
                Datum::str("naïve ünïcode"),
                Datum::Null,
                Datum::Null,
                Datum::Bool(false),
            ],
        ]
    }

    #[test]
    fn round_trip() {
        let (schema, rows) = (schema(), sample_rows());
        let bytes = encode(&schema, &rows).unwrap();
        let (schema2, rows2) = decode(&bytes).unwrap();
        assert_eq!(schema2.len(), schema.len());
        assert_eq!(rows2, rows);
    }

    #[test]
    fn empty_batch() {
        let s = schema();
        let bytes = encode(&s, &[]).unwrap();
        let (s2, rows) = decode(&bytes).unwrap();
        assert_eq!(s2.len(), 5);
        assert!(rows.is_empty());
    }

    #[test]
    fn zero_column_result() {
        let s = Schema::empty();
        let bytes = encode(&s, &[vec![], vec![]]).unwrap();
        let (s2, rows) = decode(&bytes).unwrap();
        assert!(s2.is_empty());
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn column_name_past_u16_is_error_not_truncated() {
        let field = |len: usize| Field::new(None, &"N".repeat(len), SqlType::Integer, true);
        let longest = Schema::new(vec![field(u16::MAX as usize)]);
        let (back, _) = decode(&encode(&longest, &[vec![Datum::Int(1)]]).unwrap()).unwrap();
        assert_eq!(back.fields[0].name.len(), u16::MAX as usize);
        let too_long = Schema::new(vec![field(u16::MAX as usize + 1)]);
        let err = encode(&too_long, &[vec![Datum::Int(1)]]).unwrap_err();
        assert!(err.0.contains("column name of 65536 bytes"), "{err}");
    }

    #[test]
    fn column_count_past_u16_is_error_not_truncated() {
        let wide = Schema::new(
            (0..=u16::MAX as usize)
                .map(|i| Field::new(None, &format!("C{i}"), SqlType::Integer, true))
                .collect(),
        );
        let err = encode(&wide, &[]).unwrap_err();
        assert!(err.0.contains("65536 columns"), "{err}");
        assert!(check_schema(&wide).is_err());
    }

    #[test]
    fn width_mismatch_is_error() {
        let s = schema();
        assert!(encode(&s, &[vec![Datum::Int(1)]]).is_err());
    }

    #[test]
    fn corrupt_input_is_error_not_panic() {
        let s = schema();
        let bytes = encode(&s, &sample_rows()).unwrap();
        for cut in [0usize, 3, 6, 10, bytes.len() - 1] {
            let _ = decode(&bytes[..cut]); // must not panic
        }
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn char_columns_round_trip_as_strings() {
        let s = Schema::new(vec![Field::new(None, "C", SqlType::Char(4), true)]);
        let rows = vec![vec![Datum::str("ab  ")]];
        let bytes = encode(&s, &rows).unwrap();
        let (_, rows2) = decode(&bytes).unwrap();
        assert_eq!(rows2[0][0], Datum::str("ab  "));
    }
}
