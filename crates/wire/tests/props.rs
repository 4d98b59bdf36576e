//! Property tests for the binary formats: TDF and the client row format
//! must round-trip arbitrary values, decoding must never panic on corrupt
//! bytes, and the transcoder must produce exactly the client bytes of the
//! decode → encode path it replaced.

use proptest::prelude::*;

use hyperq_wire::message::{
    decode_client_row, encode_client_row, header_columns, Message, RowDecoder,
};
use hyperq_wire::tdf;
use hyperq_xtra::datum::{Datum, Decimal, Interval};
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;
use hyperq_xtra::Row;

/// Generate a (type, value) pair where the value inhabits the type.
fn datum_for(col: u8) -> impl Strategy<Value = Datum> {
    match col {
        0 => any::<bool>().prop_map(Datum::Bool).boxed(),
        1 => any::<i64>().prop_map(Datum::Int).boxed(),
        2 => (-1e12f64..1e12).prop_map(Datum::Double).boxed(),
        3 => (any::<i64>(), 0u8..10)
            .prop_map(|(m, s)| Datum::Dec(Decimal::new(m as i128, s)))
            .boxed(),
        // 0001-01-01 through 9999-12-31, the dates a Teradata DATE holds.
        4 => (-719_162i32..=2_932_896).prop_map(Datum::Date).boxed(),
        5 => (0i64..4_000_000_000_000_000i64)
            .prop_map(Datum::Timestamp)
            .boxed(),
        6 => (-1200i32..1200, -10_000i32..10_000)
            .prop_map(|(m, d)| Datum::Interval(Interval { months: m, days: d }))
            .boxed(),
        _ => "[a-zA-Z0-9 àéü'%_-]{0,40}".prop_map(Datum::str).boxed(),
    }
}

fn col_type(col: u8) -> SqlType {
    match col {
        0 => SqlType::Boolean,
        1 => SqlType::Integer,
        2 => SqlType::Double,
        3 => SqlType::Decimal { precision: 38, scale: 4 },
        4 => SqlType::Date,
        5 => SqlType::Timestamp,
        6 => SqlType::Interval,
        _ => SqlType::Varchar(None),
    }
}

fn rows_strategy() -> impl Strategy<Value = (Schema, Vec<Row>)> {
    // 1..6 columns of random types, 0..20 rows with per-cell nulls.
    rows_of(0..20)
}

fn rows_of(count: std::ops::Range<usize>) -> impl Strategy<Value = (Schema, Vec<Row>)> {
    proptest::collection::vec(0u8..8, 1..6).prop_flat_map(move |cols| {
        let schema = Schema::new(
            cols.iter()
                .enumerate()
                .map(|(i, &c)| Field::new(None, &format!("C{i}"), col_type(c), true))
                .collect(),
        );
        let row = cols
            .iter()
            .map(|&c| {
                prop_oneof![
                    9 => datum_for(c),
                    1 => Just(Datum::Null),
                ]
            })
            .collect::<Vec<_>>();
        let rows = proptest::collection::vec(row, count.clone());
        (Just(schema), rows)
    })
}

/// Rows for the result-set decoder: a leading string column cycling
/// through `1..40` distinct values (NULL every seventh row), so that its
/// dictionary both fills and overflows, then random columns.
fn decoder_strategy() -> impl Strategy<Value = (Schema, Vec<Row>)> {
    (rows_of(0..80), 1usize..40).prop_map(|((schema, rows), distinct)| {
        let mut fields = vec![Field::new(None, "CYCLE", SqlType::Varchar(None), true)];
        fields.extend(schema.fields);
        let rows = rows
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                let cycle = match i % 7 {
                    3 => Datum::Null,
                    _ => Datum::str(format!("v{}", i % distinct)),
                };
                [vec![cycle], row].concat()
            })
            .collect();
        (Schema::new(fields), rows)
    })
}

/// Rows equal field by field, doubles bit for bit.
fn same_row(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Datum::Double(p), Datum::Double(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        })
}

/// A column for the transcoder tests: its declared type and the values
/// the engine may put in it, including the coercions TDF encoding applies
/// (an `Int` or `Double` in a DECIMAL column, anything non-string in a
/// character column).
fn transcode_column(kind: u8) -> (SqlType, proptest::strategy::BoxedStrategy<Datum>) {
    let text = || "[a-zA-Z0-9 àéü'%_-]{0,12}".prop_map(Datum::str);
    match kind {
        0..=7 => (col_type(kind), datum_for(kind).boxed()),
        8 => (
            SqlType::Decimal { precision: 18, scale: 2 },
            prop_oneof![
                any::<i64>().prop_map(Datum::Int),
                (-1e9f64..1e9).prop_map(Datum::Double),
            ]
            .boxed(),
        ),
        9 => (
            SqlType::Varchar(Some(40)),
            prop_oneof![any::<i64>().prop_map(Datum::Int), text()].boxed(),
        ),
        10 => (SqlType::Char(12), text().boxed()),
        _ => (
            SqlType::Period(Box::new(SqlType::Date)),
            text().boxed(),
        ),
    }
}

/// 0..12 columns (zero-column rows, and bitmaps past one byte) of every
/// kind, 0..12 rows with NULLs anywhere.
fn transcode_strategy() -> impl Strategy<Value = (Schema, Vec<Row>)> {
    proptest::collection::vec(0u8..12, 0..12).prop_flat_map(|kinds| {
        let (types, values): (Vec<_>, Vec<_>) = kinds.iter().map(|&k| transcode_column(k)).unzip();
        let schema = Schema::new(
            types
                .into_iter()
                .enumerate()
                .map(|(i, ty)| Field::new(None, &format!("C{i}"), ty, true))
                .collect(),
        );
        let row = values
            .into_iter()
            .map(|v| prop_oneof![3 => v, 1 => Just(Datum::Null)])
            .collect::<Vec<_>>();
        (Just(schema), proptest::collection::vec(row, 0..12))
    })
}

/// What the Result Converter produced before the transcoder: decode the
/// batch into values, re-encode each row, frame it.
fn decode_then_encode(batch: &[u8]) -> Result<Vec<u8>, tdf::TdfError> {
    let (schema, rows) = tdf::decode(batch)?;
    let mut out = Vec::new();
    for row in &rows {
        Message::write_record(&mut out, &encode_client_row(row, &schema)).unwrap();
    }
    Ok(out)
}

fn transcoded(batch: &[u8]) -> Result<Vec<u8>, tdf::TdfError> {
    let mut out = Vec::new();
    tdf::transcode(batch, &mut out)?;
    Ok(out)
}

#[test]
fn transcode_rejects_strings_and_names_that_are_not_utf8() {
    let schema = Schema::new(vec![Field::new(None, "NAME", SqlType::Varchar(None), true)]);
    let batch = tdf::encode(&schema, &[vec![Datum::str("abc")]]).unwrap().to_vec();
    assert_eq!(transcoded(&batch).unwrap(), decode_then_encode(&batch).unwrap());
    for (at, what) in [(batch.len() - 1, "string value"), (9, "column name")] {
        let mut bad = batch.clone();
        bad[at] = 0xFF;
        let err = transcoded(&bad).unwrap_err();
        assert!(err.0.contains(what), "{err}");
        assert_eq!(Err(err), decode_then_encode(&bad));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transcode_matches_decode_then_encode((schema, rows) in transcode_strategy()) {
        let batch = tdf::encode(&schema, &rows).unwrap();
        let mut out = Vec::new();
        prop_assert_eq!(tdf::transcode(&batch, &mut out).unwrap(), rows.len() as u64);
        prop_assert_eq!(&out, &decode_then_encode(&batch).unwrap());
    }

    #[test]
    fn transcode_errors_on_every_truncation_and_agrees_on_corruption(
        (schema, rows) in transcode_strategy(),
        flip in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let batch = tdf::encode(&schema, &rows).unwrap().to_vec();
        for cut in 0..batch.len() {
            prop_assert!(transcoded(&batch[..cut]).is_err(), "a batch cut at {} decoded", cut);
        }
        let mut bad_magic = batch.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(transcoded(&bad_magic).is_err());
        // Any corrupted byte: the transcoder fails exactly when decoding
        // does, and otherwise still matches it byte for byte.
        let mut bad = batch.clone();
        let at = flip % bad.len();
        bad[at] ^= mask;
        prop_assert_eq!(transcoded(&bad), decode_then_encode(&bad));
    }

    #[test]
    fn tdf_round_trips((schema, rows) in rows_strategy()) {
        let encoded = tdf::encode(&schema, &rows).unwrap();
        let (schema2, rows2) = tdf::decode(&encoded).unwrap();
        prop_assert_eq!(schema2.len(), schema.len());
        prop_assert_eq!(rows2.len(), rows.len());
        for (a, b) in rows.iter().zip(rows2.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                match (x, y) {
                    // Doubles survive bit-exactly.
                    (Datum::Double(p), Datum::Double(q)) => {
                        prop_assert_eq!(p.to_bits(), q.to_bits());
                    }
                    _ => prop_assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn tdf_decode_never_panics_on_corruption(
        (schema, rows) in rows_strategy(),
        cut in 0usize..500,
        flip in 0usize..500,
    ) {
        let encoded = tdf::encode(&schema, &rows).unwrap();
        // Truncation.
        let cut = cut.min(encoded.len());
        let _ = tdf::decode(&encoded[..cut]);
        // Bit flip.
        if !encoded.is_empty() {
            let mut bad = encoded.to_vec();
            let idx = flip % bad.len();
            bad[idx] ^= 0x5A;
            let _ = tdf::decode(&bad);
        }
    }

    #[test]
    fn client_row_round_trips((schema, rows) in rows_strategy()) {
        let columns = header_columns(&schema);
        for row in &rows {
            let bytes = encode_client_row(row, &schema);
            let back = decode_client_row(&bytes, &columns).unwrap();
            for (x, y) in row.iter().zip(back.iter()) {
                match (x, y) {
                    (Datum::Double(p), Datum::Double(q)) => {
                        prop_assert_eq!(p.to_bits(), q.to_bits());
                    }
                    _ => prop_assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn one_decoder_per_result_set_matches_per_row_decoding((schema, rows) in decoder_strategy()) {
        let columns = header_columns(&schema);
        let mut decoder = RowDecoder::new(&columns);
        let error = |r: Result<Row, hyperq_wire::WireError>| r.map_err(|e| e.to_string());
        for row in &rows {
            let bytes = encode_client_row(row, &schema);
            // A truncated row, or a string that is not UTF-8, fails the
            // same way through both, and leaves the decoder usable.
            for cut in 0..bytes.len() {
                let got = error(decoder.decode(&bytes[..cut]));
                prop_assert!(got.is_err(), "a row cut at {} decoded", cut);
                prop_assert_eq!(got, error(decode_client_row(&bytes[..cut], &columns)));
            }
            if !row[0].is_null() {
                // Presence byte, then the string's length, then its bytes.
                let mut bad = bytes.clone();
                bad[2 + 1 + 4] = 0xFF;
                let got = error(decoder.decode(&bad));
                prop_assert!(got.is_err());
                prop_assert_eq!(got, error(decode_client_row(&bad, &columns)));
            }
            let got = decoder.decode(&bytes).unwrap();
            let expected = decode_client_row(&bytes, &columns).unwrap();
            prop_assert!(same_row(&got, &expected), "{:?} != {:?}", got, expected);
            prop_assert!(same_row(&got, row), "{:?} != {:?}", got, row);
        }
    }

    #[test]
    fn client_row_encoding_deterministic((schema, rows) in rows_strategy()) {
        // "Bit-identical to the original database": same value, same bytes.
        for row in &rows {
            prop_assert_eq!(
                encode_client_row(row, &schema),
                encode_client_row(row, &schema)
            );
        }
    }
}
