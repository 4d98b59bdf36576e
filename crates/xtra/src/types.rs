//! The SQL type system shared by the frontend dialect, XTRA and the backend
//! engine.
//!
//! The paper's desiderata (§3.1) call for "support for a variety of data
//! types, including ODBC types, as well as user-defined types or compound
//! data types, e.g., PERIOD". We model the scalar types needed by the
//! evaluation workloads (TPC-H plus the customer-workload features) and the
//! Teradata `PERIOD` compound type, which the emulation layer splits into a
//! begin/end column pair (Table 2, "Unsupported column properties").

use std::fmt;

/// A SQL data type.
///
/// `Unknown` is the type of an untyped `NULL` literal before binding; the
/// binder replaces it through coercion wherever context determines a type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// Boolean truth value.
    Boolean,
    /// 64-bit signed integer. Teradata BYTEINT/SMALLINT/INTEGER/BIGINT all
    /// map here; width is preserved only as metadata on the column.
    Integer,
    /// IEEE-754 double precision (`FLOAT`/`REAL`/`DOUBLE PRECISION`).
    Double,
    /// Exact fixed-point decimal with the given precision and scale.
    Decimal { precision: u8, scale: u8 },
    /// Calendar date (no time component).
    Date,
    /// Date and time with microsecond resolution, no time zone.
    Timestamp,
    /// Variable-length character string; `None` means unbounded.
    Varchar(Option<u32>),
    /// Fixed-length character string, blank padded on comparison.
    Char(u32),
    /// Year-month / day interval.
    Interval,
    /// Teradata-style `PERIOD(inner)` compound type: a closed-open time
    /// range. Few targets support it; the emulation layer decomposes it.
    Period(Box<SqlType>),
    /// The type of an unbound `NULL`; coerces to anything.
    Unknown,
}

impl SqlType {
    /// True for types on which arithmetic is defined.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            SqlType::Integer | SqlType::Double | SqlType::Decimal { .. }
        )
    }

    /// The common supertype of two types under implicit SQL coercion, or
    /// `None` if the pair is incomparable without an explicit rewrite.
    ///
    /// Note that DATE vs INTEGER deliberately has *no* common supertype:
    /// Teradata permits that comparison through its internal integer date
    /// encoding, and Hyper-Q must rewrite it (paper §5.2) rather than rely on
    /// coercion.
    pub fn common_supertype(&self, other: &SqlType) -> Option<SqlType> {
        use SqlType::*;
        if self == other {
            return Some(self.clone());
        }
        match (self, other) {
            (Unknown, t) | (t, Unknown) => Some(t.clone()),
            (Integer, Double) | (Double, Integer) => Some(Double),
            (Decimal { .. }, Double) | (Double, Decimal { .. }) => Some(Double),
            (Integer, Decimal { precision, scale })
            | (Decimal { precision, scale }, Integer) => Some(Decimal {
                precision: (*precision).max(19),
                scale: *scale,
            }),
            (Decimal { precision: p1, scale: s1 }, Decimal { precision: p2, scale: s2 }) => {
                let scale = (*s1).max(*s2);
                let int_digits = (p1 - s1).max(p2 - s2);
                Some(Decimal {
                    precision: (int_digits + scale).min(38),
                    scale,
                })
            }
            (Varchar(a), Varchar(b)) => Some(Varchar(match (a, b) {
                (Some(a), Some(b)) => Some(*a.max(b)),
                _ => None,
            })),
            (Char(a), Varchar(b)) | (Varchar(b), Char(a)) => {
                Some(Varchar(b.map(|b| b.max(*a))))
            }
            (Char(a), Char(b)) => Some(Char(*a.max(b))),
            (Date, Timestamp) | (Timestamp, Date) => Some(Timestamp),
            _ => None,
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlType::Boolean => write!(f, "BOOLEAN"),
            SqlType::Integer => write!(f, "INTEGER"),
            SqlType::Double => write!(f, "DOUBLE PRECISION"),
            SqlType::Decimal { precision, scale } => {
                write!(f, "DECIMAL({precision},{scale})")
            }
            SqlType::Date => write!(f, "DATE"),
            SqlType::Timestamp => write!(f, "TIMESTAMP"),
            SqlType::Varchar(Some(n)) => write!(f, "VARCHAR({n})"),
            SqlType::Varchar(None) => write!(f, "VARCHAR"),
            SqlType::Char(n) => write!(f, "CHAR({n})"),
            SqlType::Interval => write!(f, "INTERVAL"),
            SqlType::Period(inner) => write!(f, "PERIOD({inner})"),
            SqlType::Unknown => write!(f, "UNKNOWN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification() {
        assert!(SqlType::Integer.is_numeric());
        assert!(SqlType::Double.is_numeric());
        assert!(SqlType::Decimal { precision: 10, scale: 2 }.is_numeric());
        assert!(!SqlType::Date.is_numeric());
        assert!(!SqlType::Varchar(None).is_numeric());
    }

    #[test]
    fn supertype_int_double() {
        assert_eq!(
            SqlType::Integer.common_supertype(&SqlType::Double),
            Some(SqlType::Double)
        );
    }

    #[test]
    fn supertype_decimal_widening() {
        let a = SqlType::Decimal { precision: 10, scale: 2 };
        let b = SqlType::Decimal { precision: 12, scale: 4 };
        assert_eq!(
            a.common_supertype(&b),
            Some(SqlType::Decimal { precision: 12, scale: 4 })
        );
    }

    #[test]
    fn date_int_incomparable_without_rewrite() {
        // The whole point of the comp_date_to_int transformation (paper §5.2):
        // coercion alone cannot bridge DATE and INTEGER.
        assert_eq!(SqlType::Date.common_supertype(&SqlType::Integer), None);
    }

    #[test]
    fn unknown_coerces_to_anything() {
        assert_eq!(
            SqlType::Unknown.common_supertype(&SqlType::Date),
            Some(SqlType::Date)
        );
    }

    #[test]
    fn char_varchar_supertype() {
        assert_eq!(
            SqlType::Char(5).common_supertype(&SqlType::Varchar(Some(3))),
            Some(SqlType::Varchar(Some(5)))
        );
    }

    #[test]
    fn display_round_trips_names() {
        assert_eq!(
            SqlType::Decimal { precision: 15, scale: 2 }.to_string(),
            "DECIMAL(15,2)"
        );
        assert_eq!(
            SqlType::Period(Box::new(SqlType::Date)).to_string(),
            "PERIOD(DATE)"
        );
    }
}
