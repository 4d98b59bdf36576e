//! Result verification: a digest of everything one request returned, and
//! the committed golden digests it is checked against.

use std::collections::HashMap;

use hyperq_xtra::{Datum, Row};

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn hash_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.finish()
}

fn hash_datum(h: &mut Fnv, d: &Datum) {
    match d {
        Datum::Null => h.bytes(&[0]),
        Datum::Int(v) => {
            h.bytes(&[2]);
            h.bytes(&v.to_le_bytes());
        }
        // Nine significant digits: a later engine change may sum in another
        // order, and that is not a wrong result.
        Datum::Double(v) => {
            h.bytes(&[3]);
            h.bytes(format!("{v:.8e}").as_bytes());
        }
        Datum::Dec(v) => {
            h.bytes(&[4, v.scale]);
            h.bytes(&v.mantissa.to_le_bytes());
        }
        Datum::Date(v) => {
            h.bytes(&[5]);
            h.bytes(&v.to_le_bytes());
        }
        Datum::Str(s) => {
            h.bytes(&[7]);
            h.bytes(s.as_bytes());
        }
        other => {
            h.bytes(&[9]);
            h.bytes(other.to_sql_string().as_bytes());
        }
    }
    h.bytes(&[0xff]);
}

pub fn hash_row(row: &Row) -> u64 {
    let mut h = Fnv::new();
    for d in row {
        hash_datum(&mut h, d);
    }
    h.finish()
}

/// What one request returned, reduced to a few numbers: how many result
/// sets, rows and affected rows, a checksum that ignores row order and one
/// that does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub sets: u64,
    pub rows: u64,
    pub activity: u64,
    pub unordered: u64,
    pub ordered: u64,
}

/// Digest a response given as `(rows, activity_count)` per result set.
pub fn digest<'a>(sets: impl IntoIterator<Item = (&'a [Row], u64)>) -> Digest {
    let mut d = Digest {
        sets: 0,
        rows: 0,
        activity: 0,
        unordered: 0,
        ordered: 0,
    };
    let mut chain = Fnv::new();
    for (rows, activity) in sets {
        // The set index goes into every row hash so that rows cannot move
        // between the result sets of a multi-statement request unnoticed.
        let salt = d.sets.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for row in rows {
            let h = hash_row(row) ^ salt;
            d.unordered = d.unordered.wrapping_add(h);
            chain.bytes(&h.to_le_bytes());
        }
        d.sets += 1;
        d.rows += rows.len() as u64;
        d.activity += activity;
    }
    d.ordered = chain.finish();
    d
}

/// One committed golden digest. `ordered` is `None` for statements without
/// a trailing `ORDER BY`, whose row order nothing promises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    pub label: String,
    pub sets: u64,
    pub rows: u64,
    pub activity: u64,
    pub unordered: u64,
    pub ordered: Option<u64>,
}

impl Golden {
    pub fn from_digest(label: &str, sql: &str, d: &Digest) -> Golden {
        Golden {
            label: label.to_string(),
            sets: d.sets,
            rows: d.rows,
            activity: d.activity,
            unordered: d.unordered,
            ordered: has_trailing_order_by(sql).then_some(d.ordered),
        }
    }

    pub fn check(&self, d: &Digest) -> Result<(), String> {
        let same = self.sets == d.sets
            && self.rows == d.rows
            && self.activity == d.activity
            && self.unordered == d.unordered
            && self.ordered.is_none_or(|o| o == d.ordered);
        if same {
            Ok(())
        } else {
            Err(format!("{}: expected {self:?}, got {d:?}", self.label))
        }
    }
}

/// True when the statement's last `ORDER BY` is outside every parenthesis,
/// i.e. it orders the result and not a window or a subquery.
pub fn has_trailing_order_by(sql: &str) -> bool {
    let upper = sql.to_ascii_uppercase();
    let Some(at) = upper.rfind("ORDER BY") else {
        return false;
    };
    let mut depth = 0i32;
    for c in upper[..at].chars() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// Golden digests of one workload, keyed by the hash of the SQL text.
#[derive(Default)]
pub struct GoldenTable(HashMap<u64, Golden>);

impl GoldenTable {
    /// Parse the tab-separated file format written by [`render`].
    pub fn parse(text: &str) -> Result<GoldenTable, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("golden line {}: malformed: {line:?}", n + 1);
            if f.len() != 7 {
                return Err(bad());
            }
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            let dec = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let golden = Golden {
                label: f[0].to_string(),
                sets: dec(f[2])?,
                rows: dec(f[3])?,
                activity: dec(f[4])?,
                unordered: hex(f[5])?,
                ordered: if f[6] == "-" { None } else { Some(hex(f[6])?) },
            };
            map.insert(hex(f[1])?, golden);
        }
        Ok(GoldenTable(map))
    }

    pub fn get(&self, sql: &str) -> Option<&Golden> {
        self.0.get(&hash_text(sql))
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Render golden digests as the committed file: one line per statement,
/// sorted by label so regenerated files diff cleanly.
pub fn render(mut entries: Vec<(u64, Golden)>) -> String {
    entries.sort_by(|a, b| (&a.1.label, a.0).cmp(&(&b.1.label, b.0)));
    entries.dedup_by_key(|e| e.0);
    let mut out = String::from(
        "# label\tsql_hash\tresult_sets\trows\tactivity\tunordered_checksum\tordered_checksum\n\
         # Regenerate with `bench/run.sh regen-expected`; never edit by hand.\n",
    );
    for (hash, g) in entries {
        let ordered = g.ordered.map_or("-".to_string(), |o| format!("{o:016x}"));
        out.push_str(&format!(
            "{}\t{hash:016x}\t{}\t{}\t{}\t{:016x}\t{ordered}\n",
            g.label, g.sets, g.rows, g.activity, g.unordered
        ));
    }
    out
}

/// What a statement must return for the run to count it as correct.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The committed golden digest for this SQL text.
    Golden,
    /// One result set whose rows the generator worked out itself from its
    /// own copy of the data.
    Rows { rows: u64, unordered: u64 },
    /// Result sets without rows; the affected-row count of each.
    Activity(Vec<u64>),
}

impl Expect {
    pub fn check(&self, sql: &str, d: &Digest, goldens: &GoldenTable) -> Result<(), String> {
        match self {
            Expect::Golden => match goldens.get(sql) {
                Some(g) => g.check(d),
                None => Err(format!("no golden result for: {sql}")),
            },
            Expect::Rows { rows, unordered } => {
                if d.sets == 1 && d.rows == *rows && d.unordered == *unordered {
                    Ok(())
                } else {
                    Err(format!(
                        "expected {rows} rows with checksum {unordered:016x}, got {d:?}: {sql}"
                    ))
                }
            }
            Expect::Activity(counts) => {
                let total: u64 = counts.iter().sum();
                if d.sets == counts.len() as u64 && d.rows == 0 && d.activity == total {
                    Ok(())
                } else {
                    Err(format!("expected activity {counts:?}, got {d:?}: {sql}"))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[&[i64]]) -> Vec<Row> {
        values
            .iter()
            .map(|r| r.iter().map(|v| Datum::Int(*v)).collect())
            .collect()
    }

    #[test]
    fn unordered_checksum_ignores_order_and_ordered_does_not() {
        let a = rows(&[&[1, 2], &[3, 4], &[5, 6]]);
        let b = rows(&[&[5, 6], &[1, 2], &[3, 4]]);
        let da = digest([(a.as_slice(), 3)]);
        let db = digest([(b.as_slice(), 3)]);
        assert_eq!(da.unordered, db.unordered);
        assert_ne!(da.ordered, db.ordered);
        assert_eq!((da.sets, da.rows, da.activity), (1, 3, 3));
    }

    #[test]
    fn checksum_sees_values_nulls_and_field_boundaries() {
        let base = digest([(rows(&[&[12, 3]]).as_slice(), 1)]);
        assert_ne!(
            base.unordered,
            digest([(rows(&[&[1, 23]]).as_slice(), 1)]).unordered
        );
        let with_null: Vec<Row> = vec![vec![Datum::Int(12), Datum::Null]];
        assert_ne!(
            base.unordered,
            digest([(with_null.as_slice(), 1)]).unordered
        );
        let strs = |a: &str, b: &str| -> Vec<Row> { vec![vec![Datum::str(a), Datum::str(b)]] };
        assert_ne!(
            digest([(strs("ab", "c").as_slice(), 1)]).unordered,
            digest([(strs("a", "bc").as_slice(), 1)]).unordered
        );
    }

    #[test]
    fn doubles_compare_to_nine_digits() {
        let d = |v: f64| digest([(vec![vec![Datum::Double(v)]].as_slice(), 1)]).unordered;
        assert_eq!(d(0.1 + 0.2), d(0.3));
        assert_ne!(d(0.3), d(0.300_001));
    }

    #[test]
    fn trailing_order_by_detection() {
        assert!(has_trailing_order_by("SEL A FROM T ORDER BY 1"));
        assert!(has_trailing_order_by(
            "SEL A FROM (SEL B FROM U) X order by A DESC"
        ));
        assert!(!has_trailing_order_by(
            "SEL A FROM T QUALIFY RANK() OVER (ORDER BY A) <= 3"
        ));
        assert!(!has_trailing_order_by("SEL A FROM T"));
    }

    #[test]
    fn golden_file_round_trips_and_checks() {
        let r = rows(&[&[1], &[2]]);
        let d = digest([(r.as_slice(), 2)]);
        let sql_o = "SEL A FROM T ORDER BY A";
        let sql_u = "SEL A FROM T";
        let text = render(vec![
            (hash_text(sql_o), Golden::from_digest("ordered", sql_o, &d)),
            (
                hash_text(sql_u),
                Golden::from_digest("unordered", sql_u, &d),
            ),
        ]);
        let table = GoldenTable::parse(&text).unwrap();
        assert_eq!(table.len(), 2);
        assert!(Expect::Golden.check(sql_o, &d, &table).is_ok());
        // Reordered rows fail only the statement that promised an order.
        let swapped = rows(&[&[2], &[1]]);
        let ds = digest([(swapped.as_slice(), 2)]);
        assert!(Expect::Golden.check(sql_o, &ds, &table).is_err());
        assert!(Expect::Golden.check(sql_u, &ds, &table).is_ok());
        assert!(Expect::Golden.check("SEL 1", &d, &table).is_err());
        assert!(GoldenTable::parse("a\tb\n").is_err());
    }

    #[test]
    fn activity_expectation_counts_result_sets() {
        let table = GoldenTable::parse("").unwrap();
        let none: &[Row] = &[];
        let d = digest([(none, 1), (none, 1)]);
        assert!(Expect::Activity(vec![1, 1]).check("x", &d, &table).is_ok());
        assert!(Expect::Activity(vec![2]).check("x", &d, &table).is_err());
    }
}
