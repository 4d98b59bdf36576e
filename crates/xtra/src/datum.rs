//! Runtime values with SQL semantics.
//!
//! [`Datum`] is the single value representation used by the engine's
//! evaluator, the TDF wire format and the result converter. It provides SQL
//! three-valued comparison, numeric coercion along the
//! `INTEGER → DECIMAL → DOUBLE` lattice, exact fixed-point decimals and the
//! proleptic-Gregorian date arithmetic that the Teradata date/integer
//! rewrites depend on.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::types::SqlType;
use crate::ValueError;

/// Exact fixed-point decimal: `mantissa * 10^-scale`.
///
/// Used for all `DECIMAL(p,s)` arithmetic (TPC-H prices and discounts must
/// not accumulate floating-point error). 128-bit mantissa covers precision
/// up to 38 digits as in most warehouses.
///
/// Packed to 8-byte alignment: since Rust 1.77 an `i128` is 16-byte
/// aligned, which would make every [`Datum`] 48 bytes instead of 32. A
/// packed field can be read by value (`d.mantissa`, `{ d.mantissa }`) but
/// not borrowed.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
pub struct Decimal {
    pub mantissa: i128,
    pub scale: u8,
}

impl Decimal {
    pub fn new(mantissa: i128, scale: u8) -> Self {
        Decimal { mantissa, scale }
    }

    pub fn from_int(v: i64) -> Self {
        Decimal { mantissa: v as i128, scale: 0 }
    }

    /// Parse a decimal literal such as `-12.345`.
    pub fn parse(s: &str) -> Result<Self, ValueError> {
        let s = s.trim();
        let (neg, digits) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let (int_part, frac_part) = match digits.split_once('.') {
            Some((i, f)) => (i, f),
            None => (digits, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(ValueError(format!("invalid decimal literal {s:?}")));
        }
        let mut mantissa: i128 = 0;
        for c in int_part.chars().chain(frac_part.chars()) {
            let d = c
                .to_digit(10)
                .ok_or_else(|| ValueError(format!("invalid decimal literal {s:?}")))?;
            mantissa = mantissa
                .checked_mul(10)
                .and_then(|m| m.checked_add(d as i128))
                .ok_or_else(|| ValueError(format!("decimal literal overflow {s:?}")))?;
        }
        if frac_part.len() > 38 {
            return Err(ValueError(format!("decimal scale too large in {s:?}")));
        }
        Ok(Decimal {
            mantissa: if neg { -mantissa } else { mantissa },
            scale: frac_part.len() as u8,
        })
    }

    /// Rescale to exactly `scale` digits after the point (rounding half away
    /// from zero when reducing scale). A result past the mantissa's range
    /// saturates; arithmetic and casts use the checked form and fail.
    pub fn rescale(&self, scale: u8) -> Decimal {
        self.checked_rescale(scale).unwrap_or(Decimal {
            mantissa: if self.mantissa < 0 { i128::MIN } else { i128::MAX },
            scale,
        })
    }

    /// [`Decimal::rescale`], or a `decimal overflow` error when raising the
    /// scale leaves the mantissa's range. Reducing the scale never fails.
    fn checked_rescale(&self, scale: u8) -> Result<Decimal, ValueError> {
        match scale.cmp(&self.scale) {
            Ordering::Equal => Ok(*self),
            Ordering::Greater => Ok(Decimal {
                mantissa: scale_up(self.mantissa, u32::from(scale - self.scale))
                    .ok_or_else(|| overflow("CAST"))?,
                scale,
            }),
            Ordering::Less => {
                // Quotient and remainder round without an intermediate sum
                // that could overflow.
                let factor = pow10(u32::from(self.scale - scale)).unwrap_or(i128::MAX);
                let (q, r) = (self.mantissa / factor, self.mantissa % factor);
                let round = r.unsigned_abs() >= factor.unsigned_abs().div_ceil(2);
                Ok(Decimal { mantissa: if round { q + r.signum() } else { q }, scale })
            }
        }
    }

    /// Strip trailing zero fraction digits; canonical form for hashing.
    pub fn normalize(&self) -> Decimal {
        let mut m = self.mantissa;
        let mut s = self.scale;
        while s > 0 && m % 10 == 0 {
            m /= 10;
            s -= 1;
        }
        Decimal { mantissa: m, scale: s }
    }

    pub fn to_f64(&self) -> f64 {
        self.mantissa as f64 / 10f64.powi(self.scale as i32)
    }

    /// Truncate toward zero to an integer.
    pub fn to_i64(&self) -> i64 {
        (self.mantissa / 10i128.pow(self.scale as u32)) as i64
    }

    /// Both mantissas at the larger of the two scales, or `None` when the
    /// one scaled up leaves the mantissa's range.
    fn align(a: &Decimal, b: &Decimal) -> Option<(i128, i128, u8)> {
        let scale = a.scale.max(b.scale);
        let up = |d: &Decimal| scale_up(d.mantissa, u32::from(scale - d.scale));
        Some((up(a)?, up(b)?, scale))
    }

    pub fn add(&self, other: &Decimal) -> Result<Decimal, ValueError> {
        Self::align(self, other)
            .and_then(|(a, b, scale)| Some(Decimal { mantissa: a.checked_add(b)?, scale }))
            .ok_or_else(|| overflow("+"))
    }

    pub fn sub(&self, other: &Decimal) -> Result<Decimal, ValueError> {
        Self::align(self, other)
            .and_then(|(a, b, scale)| Some(Decimal { mantissa: a.checked_sub(b)?, scale }))
            .ok_or_else(|| overflow("-"))
    }

    pub fn mul(&self, other: &Decimal) -> Result<Decimal, ValueError> {
        // Two 64-bit mantissas cannot overflow 128 bits: TPC-H's prices
        // and rates multiply without the checked product's overflow test.
        let mantissa = match (i64::try_from(self.mantissa), i64::try_from(other.mantissa)) {
            (Ok(a), Ok(b)) => i128::from(a) * i128::from(b),
            _ => self.mantissa.checked_mul(other.mantissa).ok_or_else(|| overflow("*"))?,
        };
        let d = Decimal { mantissa, scale: self.scale + other.scale };
        // Keep scales bounded so repeated multiplication stays in range.
        if d.scale > 12 { d.checked_rescale(12) } else { Ok(d) }
    }

    pub fn div(&self, other: &Decimal) -> Result<Decimal, ValueError> {
        if other.mantissa == 0 {
            return Err(ValueError("division by zero".into()));
        }
        // Compute at 6 extra digits of scale, standard warehouse practice.
        let target = (self.scale.max(other.scale) + 6).min(30);
        let shift = i32::from(target) + i32::from(other.scale) - i32::from(self.scale);
        let num = match u32::try_from(shift) {
            Ok(up) => scale_up(self.mantissa, up).ok_or_else(|| overflow("/"))?,
            Err(_) => self.mantissa / pow10(shift.unsigned_abs()).unwrap_or(i128::MAX),
        };
        let mantissa = num.checked_div(other.mantissa).ok_or_else(|| overflow("/"))?;
        Ok(Decimal { mantissa, scale: target })
    }

    pub fn neg(&self) -> Decimal {
        Decimal { mantissa: -self.mantissa, scale: self.scale }
    }

    pub fn is_zero(&self) -> bool {
        self.mantissa == 0
    }

    pub fn cmp_decimal(&self, other: &Decimal) -> Ordering {
        match Self::align(self, other) {
            Some((a, b, _)) => a.cmp(&b),
            // Only the side with fewer fraction digits scales up, and the
            // one that overflows is the larger in magnitude.
            None if self.scale < other.scale => { self.mantissa }.cmp(&0),
            None => 0.cmp(&{ other.mantissa }),
        }
    }
}

/// `10^k`, while it fits the mantissa.
fn pow10(k: u32) -> Option<i128> {
    10i128.checked_pow(k)
}

/// `m * 10^k`, or `None` past the mantissa's range.
fn scale_up(m: i128, k: u32) -> Option<i128> {
    pow10(k)?.checked_mul(m)
}

fn overflow(op: &str) -> ValueError {
    ValueError(format!("decimal overflow in {op}"))
}

impl PartialEq for Decimal {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_decimal(other) == Ordering::Equal
    }
}
impl Eq for Decimal {}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", { self.mantissa });
        }
        let neg = self.mantissa < 0;
        let abs = self.mantissa.unsigned_abs();
        let factor = 10u128.pow(self.scale as u32);
        let int = abs / factor;
        let frac = abs % factor;
        write!(
            f,
            "{}{}.{:0width$}",
            if neg { "-" } else { "" },
            int,
            frac,
            width = self.scale as usize
        )
    }
}

/// Year-month + day interval value (`INTERVAL '3' MONTH`, `INTERVAL '7' DAY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    pub months: i32,
    pub days: i32,
}

impl Interval {
    pub fn months(n: i32) -> Self {
        Interval { months: n, days: 0 }
    }
    pub fn days(n: i32) -> Self {
        Interval { months: 0, days: n }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.months, self.days) {
            (m, 0) => write!(f, "INTERVAL '{m}' MONTH"),
            (0, d) => write!(f, "INTERVAL '{d}' DAY"),
            (m, d) => write!(f, "INTERVAL '{m}' MONTH '{d}' DAY"),
        }
    }
}

// ---------------------------------------------------------------------------
// Civil date arithmetic (proleptic Gregorian), after Howard Hinnant's
// `days_from_civil` / `civil_from_days` algorithms.
// ---------------------------------------------------------------------------

/// Days since 1970-01-01 for the given civil date.
pub fn date_from_ymd(y: i32, m: u32, d: u32) -> i32 {
    days_from_ymd(y, m, d) as i32
}

/// [`date_from_ymd`] before it is narrowed to a day number: exact for
/// every year.
fn days_from_ymd(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (i64::from(m) + 9) % 12;
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil (year, month, day) for days since 1970-01-01.
#[inline]
pub fn ymd_from_date(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

fn days_in_month(y: i32, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Add `n` calendar months, clamping the day-of-month (Teradata
/// `ADD_MONTHS` semantics: `ADD_MONTHS('2020-01-31', 1)` → `2020-02-29`),
/// or `None` past the range of a day number.
pub fn add_months(days: i32, n: i64) -> Option<i32> {
    let (y, m, d) = ymd_from_date(days);
    let total = (i64::from(y) * 12 + i64::from(m) - 1).checked_add(n)?;
    let ny = i32::try_from(total.div_euclid(12)).ok()?;
    let nm = total.rem_euclid(12) as u32 + 1;
    let nd = d.min(days_in_month(ny, nm));
    i32::try_from(days_from_ymd(ny, nm, nd)).ok()
}

/// Add `n` days, or `None` past the range of a day number.
pub fn add_days(days: i32, n: i64) -> Option<i32> {
    i64::from(days).checked_add(n).and_then(|d| i32::try_from(d).ok())
}

/// Move by an interval, months first, forward for `sign` 1 and back for
/// -1; `None` past the range of a day number.
fn add_interval(days: i32, iv: Interval, sign: i64) -> Option<i32> {
    add_months(days, sign * i64::from(iv.months)).and_then(|d| add_days(d, sign * i64::from(iv.days)))
}

fn date_overflow(op: &str) -> ValueError {
    ValueError(format!("date overflow in {op}"))
}

/// Teradata internal integer encoding of a date:
/// `(year - 1900) * 10000 + month * 100 + day` (paper §5, Example 2:
/// `1140101` encodes `2014-01-01`).
#[inline]
pub fn teradata_int_from_date(days: i32) -> i64 {
    let (y, m, d) = ymd_from_date(days);
    ((y as i64) - 1900) * 10_000 + (m as i64) * 100 + d as i64
}

/// Inverse of [`teradata_int_from_date`]; returns `None` for an encoding
/// that does not name a valid civil date. Dates before 1900 encode as
/// negative integers (`-8769` is `1899-12-31`), so the fields split off
/// with Euclidean division.
pub fn date_from_teradata_int(v: i64) -> Option<i32> {
    let d = v.rem_euclid(100) as u32;
    let m = v.div_euclid(100).rem_euclid(100) as u32;
    let y = i32::try_from(v.div_euclid(10_000) + 1900).ok()?;
    if m == 0 || m > 12 || d == 0 || d > days_in_month(y, m) {
        return None;
    }
    Some(date_from_ymd(y, m, d))
}

/// Parse `YYYY-MM-DD` or `YYYY/MM/DD`.
pub fn parse_date(s: &str) -> Result<i32, ValueError> {
    let parts: Vec<&str> = s.split(['-', '/']).collect();
    if parts.len() != 3 {
        return Err(ValueError(format!("invalid date literal {s:?}")));
    }
    let y: i32 = parts[0]
        .trim()
        .parse()
        .map_err(|_| ValueError(format!("invalid date literal {s:?}")))?;
    let m: u32 = parts[1]
        .trim()
        .parse()
        .map_err(|_| ValueError(format!("invalid date literal {s:?}")))?;
    let d: u32 = parts[2]
        .trim()
        .parse()
        .map_err(|_| ValueError(format!("invalid date literal {s:?}")))?;
    if m == 0 || m > 12 || d == 0 || d > days_in_month(y, m) {
        return Err(ValueError(format!("date out of range {s:?}")));
    }
    Ok(date_from_ymd(y, m, d))
}

/// Parse `YYYY-MM-DD[ HH:MM:SS[.ffffff]]` into microseconds since epoch.
pub fn parse_timestamp(s: &str) -> Result<i64, ValueError> {
    let s = s.trim();
    let (date_part, time_part) = match s.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let days = parse_date(date_part)? as i64;
    let mut micros = days * 86_400_000_000;
    if let Some(t) = time_part {
        let mut it = t.split(':');
        let h: i64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ValueError(format!("invalid timestamp {s:?}")))?;
        let m: i64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ValueError(format!("invalid timestamp {s:?}")))?;
        let sec_str = it.next().unwrap_or("0");
        let (sec, frac) = match sec_str.split_once('.') {
            Some((sec, frac)) => {
                let mut f = frac.to_string();
                while f.len() < 6 {
                    f.push('0');
                }
                (
                    sec.parse::<i64>()
                        .map_err(|_| ValueError(format!("invalid timestamp {s:?}")))?,
                    f[..6]
                        .parse::<i64>()
                        .map_err(|_| ValueError(format!("invalid timestamp {s:?}")))?,
                )
            }
            None => (
                sec_str
                    .parse::<i64>()
                    .map_err(|_| ValueError(format!("invalid timestamp {s:?}")))?,
                0,
            ),
        };
        micros += ((h * 60 + m) * 60 + sec) * 1_000_000 + frac;
    }
    Ok(micros)
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = ymd_from_date(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Format microseconds-since-epoch as `YYYY-MM-DD HH:MM:SS[.ffffff]`.
pub fn format_timestamp(micros: i64) -> String {
    let days = micros.div_euclid(86_400_000_000);
    let rem = micros.rem_euclid(86_400_000_000);
    let (y, m, d) = ymd_from_date(days as i32);
    let secs = rem / 1_000_000;
    let frac = rem % 1_000_000;
    let (h, mi, s) = (secs / 3600, (secs / 60) % 60, secs % 60);
    if frac == 0 {
        format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    } else {
        format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}.{frac:06}")
    }
}

// ---------------------------------------------------------------------------
// Datum
// ---------------------------------------------------------------------------

/// `s` without its trailing blanks (`CHAR` padding), as bytes: a blank is
/// one byte in UTF-8 and never part of another character, and `str`
/// orders by its bytes.
#[inline]
fn unpadded(s: &str) -> &[u8] {
    let bytes = s.as_bytes();
    let mut len = bytes.len();
    while len > 0 && bytes[len - 1] == b' ' {
        len -= 1;
    }
    &bytes[..len]
}

/// A runtime SQL value.
///
/// Strings use `Arc<str>` so that row cloning during joins and conversion is
/// a reference-count bump rather than a heap copy (result conversion is
/// deliberately parallel, paper §4.6, so values must be `Send + Sync`).
#[derive(Debug, Clone)]
pub enum Datum {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Dec(Decimal),
    Date(i32),
    Timestamp(i64),
    Str(Arc<str>),
    Interval(Interval),
}

// Every row holds its values inline, so a `Datum`'s size is a row's bytes
// per column. It is a tag word beside a 24-byte payload, a `Decimal`
// packed to 8-byte alignment: 32 bytes, not the 48 an `i128` aligned to 16
// bytes would make it.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Datum>() == 32);

impl Datum {
    pub fn str(s: impl AsRef<str>) -> Datum {
        Datum::Str(Arc::from(s.as_ref()))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The natural type of this value.
    pub fn sql_type(&self) -> SqlType {
        match self {
            Datum::Null => SqlType::Unknown,
            Datum::Bool(_) => SqlType::Boolean,
            Datum::Int(_) => SqlType::Integer,
            Datum::Double(_) => SqlType::Double,
            Datum::Dec(d) => SqlType::Decimal { precision: 38, scale: d.scale },
            Datum::Date(_) => SqlType::Date,
            Datum::Timestamp(_) => SqlType::Timestamp,
            Datum::Str(_) => SqlType::Varchar(None),
            Datum::Interval(_) => SqlType::Interval,
        }
    }

    /// SQL comparison: `None` when either side is NULL or the pair is
    /// incomparable. Numerics compare across representations; `CHAR`
    /// blank-padding is normalized by trimming trailing spaces.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        use Datum::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Int(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Int(a), Dec(b)) => Some(Decimal::from_int(*a).cmp_decimal(b)),
            (Dec(a), Int(b)) => Some(a.cmp_decimal(&Decimal::from_int(*b))),
            (Dec(a), Dec(b)) => Some(a.cmp_decimal(b)),
            (Dec(a), Double(b)) => a.to_f64().partial_cmp(b),
            (Double(a), Dec(b)) => a.partial_cmp(&b.to_f64()),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Date(a), Timestamp(b)) => {
                Some((*a as i64 * 86_400_000_000).cmp(b))
            }
            (Timestamp(a), Date(b)) => {
                Some(a.cmp(&(*b as i64 * 86_400_000_000)))
            }
            (Str(a), Str(b)) => Some(unpadded(a).cmp(unpadded(b))),
            (Interval(a), Interval(b)) => {
                Some((a.months * 30 + a.days).cmp(&(b.months * 30 + b.days)))
            }
            _ => None,
        }
    }

    /// SQL equality (three-valued collapses to `false` on NULL for use in
    /// join/group keys, which treat NULLs per the caller's policy).
    pub fn sql_eq(&self, other: &Datum) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    fn numeric_pair(&self, other: &Datum) -> Option<NumericPair> {
        use Datum::*;
        Some(match (self, other) {
            (Int(a), Int(b)) => NumericPair::Int(*a, *b),
            (Double(a), Double(b)) => NumericPair::Double(*a, *b),
            (Int(a), Double(b)) => NumericPair::Double(*a as f64, *b),
            (Double(a), Int(b)) => NumericPair::Double(*a, *b as f64),
            (Dec(a), Dec(b)) => NumericPair::Dec(*a, *b),
            (Int(a), Dec(b)) => NumericPair::Dec(Decimal::from_int(*a), *b),
            (Dec(a), Int(b)) => NumericPair::Dec(*a, Decimal::from_int(*b)),
            (Dec(a), Double(b)) => NumericPair::Double(a.to_f64(), *b),
            (Double(a), Dec(b)) => NumericPair::Double(*a, b.to_f64()),
            _ => return None,
        })
    }

    /// SQL `+`, with date/interval support (`DATE + n` adds days, matching
    /// Teradata date arithmetic before the DATEADD rewrite).
    pub fn add(&self, other: &Datum) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match (self, other) {
            (Date(d), Int(n)) | (Int(n), Date(d)) => {
                return add_days(*d, *n).map(Date).ok_or_else(|| date_overflow("+"));
            }
            (Date(d), Interval(iv)) | (Interval(iv), Date(d)) => {
                return add_interval(*d, *iv, 1).map(Date).ok_or_else(|| date_overflow("+"));
            }
            (Timestamp(t), Interval(iv)) | (Interval(iv), Timestamp(t)) => {
                let days = t.div_euclid(86_400_000_000) as i32;
                let rem = t.rem_euclid(86_400_000_000);
                let nd = add_interval(days, *iv, 1).ok_or_else(|| date_overflow("+"))?;
                return Ok(Timestamp(nd as i64 * 86_400_000_000 + rem));
            }
            (Interval(a), Interval(b)) => {
                return Ok(Interval(self::Interval {
                    months: a.months + b.months,
                    days: a.days + b.days,
                }));
            }
            _ => {}
        }
        match self.numeric_pair(other) {
            Some(NumericPair::Int(a, b)) => a
                .checked_add(b)
                .map(Int)
                .ok_or_else(|| ValueError("integer overflow in +".into())),
            Some(NumericPair::Double(a, b)) => Ok(Double(a + b)),
            Some(NumericPair::Dec(a, b)) => a.add(&b).map(Dec),
            None => Err(ValueError(format!(
                "cannot add {} and {}",
                self.sql_type(),
                other.sql_type()
            ))),
        }
    }

    /// SQL `-`, with `DATE - DATE` returning days and `DATE - n` subtracting
    /// days.
    pub fn sub(&self, other: &Datum) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match (self, other) {
            (Date(a), Date(b)) => return Ok(Int(i64::from(*a) - i64::from(*b))),
            (Date(d), Int(n)) => {
                return n.checked_neg().and_then(|n| add_days(*d, n)).map(Date).ok_or_else(|| date_overflow("-"));
            }
            (Date(d), Interval(iv)) => {
                return add_interval(*d, *iv, -1).map(Date).ok_or_else(|| date_overflow("-"));
            }
            (Timestamp(t), Interval(iv)) => {
                let days = t.div_euclid(86_400_000_000) as i32;
                let rem = t.rem_euclid(86_400_000_000);
                let nd = add_interval(days, *iv, -1).ok_or_else(|| date_overflow("-"))?;
                return Ok(Timestamp(nd as i64 * 86_400_000_000 + rem));
            }
            _ => {}
        }
        match self.numeric_pair(other) {
            Some(NumericPair::Int(a, b)) => a
                .checked_sub(b)
                .map(Int)
                .ok_or_else(|| ValueError("integer overflow in -".into())),
            Some(NumericPair::Double(a, b)) => Ok(Double(a - b)),
            Some(NumericPair::Dec(a, b)) => a.sub(&b).map(Dec),
            None => Err(ValueError(format!(
                "cannot subtract {} from {}",
                other.sql_type(),
                self.sql_type()
            ))),
        }
    }

    pub fn mul(&self, other: &Datum) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match self.numeric_pair(other) {
            Some(NumericPair::Int(a, b)) => a
                .checked_mul(b)
                .map(Int)
                .ok_or_else(|| ValueError("integer overflow in *".into())),
            Some(NumericPair::Double(a, b)) => Ok(Double(a * b)),
            Some(NumericPair::Dec(a, b)) => a.mul(&b).map(Dec),
            None => Err(ValueError(format!(
                "cannot multiply {} and {}",
                self.sql_type(),
                other.sql_type()
            ))),
        }
    }

    pub fn div(&self, other: &Datum) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match self.numeric_pair(other) {
            Some(NumericPair::Int(a, b)) => {
                if b == 0 {
                    Err(ValueError("division by zero".into()))
                } else {
                    a.checked_div(b).map(Int).ok_or_else(|| ValueError("integer overflow in /".into()))
                }
            }
            Some(NumericPair::Double(a, b)) => {
                if b == 0.0 {
                    Err(ValueError("division by zero".into()))
                } else {
                    Ok(Double(a / b))
                }
            }
            Some(NumericPair::Dec(a, b)) => a.div(&b).map(Dec),
            None => Err(ValueError(format!(
                "cannot divide {} by {}",
                self.sql_type(),
                other.sql_type()
            ))),
        }
    }

    pub fn rem(&self, other: &Datum) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match self.numeric_pair(other) {
            Some(NumericPair::Int(a, b)) => {
                if b == 0 {
                    Err(ValueError("division by zero in MOD".into()))
                } else {
                    a.checked_rem(b).map(Int).ok_or_else(|| ValueError("integer overflow in MOD".into()))
                }
            }
            Some(NumericPair::Double(a, b)) => Ok(Double(a % b)),
            Some(NumericPair::Dec(a, b)) => {
                // Truncating division's remainder, with the dividend's sign.
                let (a, b, scale) = Decimal::align(&a, &b).ok_or_else(|| overflow("MOD"))?;
                if b == 0 {
                    return Err(ValueError("division by zero".into()));
                }
                let mantissa = a.checked_rem(b).ok_or_else(|| overflow("MOD"))?;
                Ok(Dec(Decimal { mantissa, scale }))
            }
            None => Err(ValueError(format!(
                "cannot apply MOD to {} and {}",
                self.sql_type(),
                other.sql_type()
            ))),
        }
    }

    pub fn pow(&self, other: &Datum) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        let base = self
            .to_f64()
            .ok_or_else(|| ValueError("non-numeric base in **".into()))?;
        let exp = other
            .to_f64()
            .ok_or_else(|| ValueError("non-numeric exponent in **".into()))?;
        Ok(Double(base.powf(exp)))
    }

    pub fn neg(&self) -> Result<Datum, ValueError> {
        use Datum::*;
        match self {
            Null => Ok(Null),
            Int(v) => v.checked_neg().map(Int).ok_or_else(|| ValueError("integer overflow in -".into())),
            Double(v) => Ok(Double(-v)),
            Dec(d) => {
                let mantissa = d.mantissa.checked_neg().ok_or_else(|| overflow("-"))?;
                Ok(Dec(Decimal { mantissa, scale: d.scale }))
            }
            other => Err(ValueError(format!("cannot negate {}", other.sql_type()))),
        }
    }

    pub fn to_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(v) => Some(*v as f64),
            Datum::Double(v) => Some(*v),
            Datum::Dec(d) => Some(d.to_f64()),
            _ => None,
        }
    }

    pub fn to_i64(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            Datum::Double(v) => Some(*v as i64),
            Datum::Dec(d) => Some(d.to_i64()),
            _ => None,
        }
    }

    /// SQL `CAST(self AS ty)`.
    pub fn cast_to(&self, ty: &SqlType) -> Result<Datum, ValueError> {
        use Datum::*;
        if self.is_null() {
            return Ok(Null);
        }
        let fail = || {
            ValueError(format!(
                "cannot cast {} value to {}",
                self.sql_type(),
                ty
            ))
        };
        Ok(match ty {
            SqlType::Boolean => match self {
                Bool(b) => Bool(*b),
                Int(v) => Bool(*v != 0),
                _ => return Err(fail()),
            },
            SqlType::Integer => match self {
                Int(v) => Int(*v),
                Double(v) => Int(*v as i64),
                Dec(d) => Int(d.to_i64()),
                Str(s) => Int(s.trim().parse().map_err(|_| fail())?),
                Date(d) => Int(teradata_int_from_date(*d)),
                _ => return Err(fail()),
            },
            SqlType::Double => match self {
                Int(v) => Double(*v as f64),
                Double(v) => Double(*v),
                Dec(d) => Double(d.to_f64()),
                Str(s) => Double(s.trim().parse().map_err(|_| fail())?),
                _ => return Err(fail()),
            },
            SqlType::Decimal { scale, .. } => match self {
                Int(v) => Dec(Decimal::from_int(*v).checked_rescale(*scale)?),
                Dec(d) => Dec(d.checked_rescale(*scale)?),
                Double(v) => {
                    // `as` would saturate; the range test also rejects NaN.
                    let m = (v * 10f64.powi(i32::from(*scale))).round();
                    let bound = 2f64.powi(127);
                    if !(m > -bound && m < bound) {
                        return Err(overflow("CAST"));
                    }
                    Dec(Decimal { mantissa: m as i128, scale: *scale })
                }
                Str(s) => Dec(Decimal::parse(s)?.checked_rescale(*scale)?),
                _ => return Err(fail()),
            },
            SqlType::Date => match self {
                Date(d) => Date(*d),
                Timestamp(t) => Date(t.div_euclid(86_400_000_000) as i32),
                Str(s) => Date(parse_date(s)?),
                Int(v) => Date(date_from_teradata_int(*v).ok_or_else(fail)?),
                _ => return Err(fail()),
            },
            SqlType::Timestamp => match self {
                Timestamp(t) => Timestamp(*t),
                Date(d) => Timestamp(*d as i64 * 86_400_000_000),
                Str(s) => Timestamp(parse_timestamp(s)?),
                _ => return Err(fail()),
            },
            SqlType::Varchar(limit) => {
                let s = self.to_sql_string();
                match limit {
                    Some(n) if s.chars().count() > *n as usize => {
                        Datum::str(s.chars().take(*n as usize).collect::<String>())
                    }
                    _ => Datum::str(s),
                }
            }
            SqlType::Char(n) => {
                let mut s = self.to_sql_string();
                let len = s.chars().count();
                if len > *n as usize {
                    s = s.chars().take(*n as usize).collect();
                } else {
                    s.extend(std::iter::repeat_n(' ', *n as usize - len));
                }
                Datum::str(s)
            }
            SqlType::Interval => match self {
                Interval(iv) => Interval(*iv),
                _ => return Err(fail()),
            },
            SqlType::Period(_) | SqlType::Unknown => return Err(fail()),
        })
    }

    /// Render the value the way the engine prints it in result sets.
    pub fn to_sql_string(&self) -> String {
        match self {
            Datum::Null => "NULL".to_string(),
            Datum::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Datum::Int(v) => v.to_string(),
            Datum::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Datum::Dec(d) => d.to_string(),
            Datum::Date(d) => format_date(*d),
            Datum::Timestamp(t) => format_timestamp(*t),
            Datum::Str(s) => s.to_string(),
            Datum::Interval(iv) => iv.to_string(),
        }
    }
}

enum NumericPair {
    Int(i64, i64),
    Double(f64, f64),
    Dec(Decimal, Decimal),
}

/// Structural equality used by containers (hash join / group-by keys).
///
/// Normalizes across numeric representations so that the derived hash (see
/// [`Datum::hash`]) agrees: `Int(1)`, `Dec(1.00)` hash and compare equal.
/// NULLs compare equal to each other here (SQL `GROUP BY` semantics place
/// all NULLs in one group); three-valued logic lives in [`Datum::sql_cmp`].
impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        use Datum::*;
        match (self, other) {
            (Null, Null) => true,
            (Null, _) | (_, Null) => false,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }
}
impl Eq for Datum {}

impl Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        use Datum::*;
        match self {
            Null => state.write_u8(0),
            Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // All numerics hash through a canonical decimal/bits form so
            // that cross-representation equality implies equal hashes.
            Int(v) => {
                state.write_u8(2);
                state.write_i128(i128::from(*v));
                0u8.hash(state);
            }
            Dec(d) => {
                let n = d.normalize();
                state.write_u8(2);
                state.write_i128(n.mantissa);
                n.scale.hash(state);
            }
            Double(v) => {
                // A double that holds an exact small integer hashes like one.
                if v.fract() == 0.0 && v.abs() < 9e15 {
                    state.write_u8(2);
                    state.write_i128(i128::from(*v as i64));
                    0u8.hash(state);
                } else {
                    state.write_u8(3);
                    v.to_bits().hash(state);
                }
            }
            Date(d) => {
                state.write_u8(4);
                d.hash(state);
            }
            Timestamp(t) => {
                state.write_u8(5);
                t.hash(state);
            }
            Str(s) => {
                state.write_u8(6);
                s.trim_end_matches(' ').hash(state);
            }
            Interval(iv) => {
                state.write_u8(7);
                iv.hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sql_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_and_display() {
        let d = Decimal::parse("-12.345").unwrap();
        assert_eq!({ d.mantissa }, -12345);
        assert_eq!(d.scale, 3);
        assert_eq!(d.to_string(), "-12.345");
        assert_eq!(Decimal::parse("0.07").unwrap().to_string(), "0.07");
    }

    #[test]
    fn decimal_arithmetic_is_exact() {
        let a = Decimal::parse("0.1").unwrap();
        let b = Decimal::parse("0.2").unwrap();
        assert_eq!(a.add(&b), Ok(Decimal::parse("0.3").unwrap()));
        let price = Decimal::parse("901.00").unwrap();
        let disc = Decimal::parse("0.05").unwrap();
        let one = Decimal::from_int(1);
        let extended = price.mul(&one.sub(&disc).unwrap());
        assert_eq!(extended, Ok(Decimal::parse("855.95").unwrap()));
    }

    #[test]
    fn decimal_overflow_fails_instead_of_wrapping() {
        use Datum::{Dec, Double, Int};
        let a = Dec(Decimal::parse("100000000000000000000.00").unwrap());
        let err = |op: &str| Err(ValueError(format!("decimal overflow in {op}")));
        assert_eq!(a.mul(&a), err("*"));
        assert_eq!(a.cast_to(&SqlType::Decimal { precision: 38, scale: 30 }), err("CAST"));
        assert_eq!(a.div(&Dec(Decimal::parse("0.0000000001").unwrap())), err("/"));
        let cents = SqlType::Decimal { precision: 38, scale: 2 };
        assert_eq!(Double(1e300).cast_to(&cents), err("CAST"));
        assert_eq!(Double(f64::NAN).cast_to(&cents), err("CAST"));
        let max = Dec(Decimal::new(i128::MAX, 0));
        assert_eq!(max.add(&Int(1)), err("+"));
        assert_eq!(Dec(Decimal::new(i128::MIN + 1, 0)).sub(&Int(2)), err("-"));
        // -2^127 is outside a DECIMAL(38) cast, and a mantissa at i128::MIN
        // reached another way fails the ops whose result would be 2^127.
        let units = SqlType::Decimal { precision: 38, scale: 0 };
        assert_eq!(Double(-(2f64.powi(127))).cast_to(&units), err("CAST"));
        let min = Dec(Decimal::new(i128::MIN, 0));
        assert_eq!(min.rem(&Int(-1)), err("MOD"));
        assert_eq!(min.neg(), err("-"));
        assert_eq!(Dec(Decimal::new(i128::MIN, 30)).div(&Int(-1)), err("/"));
        let int_err = |op: &str| Err(ValueError(format!("integer overflow in {op}")));
        assert_eq!(Int(i64::MIN).rem(&Int(-1)), int_err("MOD"));
        assert_eq!(Int(i64::MIN).div(&Int(-1)), int_err("/"));
        assert_eq!(Int(i64::MIN).neg(), int_err("-"));
        // Values in range are unchanged, on the 64-bit fast path and off it.
        assert_eq!(a.mul(&Int(2)), Ok(Dec(Decimal::parse("200000000000000000000.00").unwrap())));
        assert_eq!(Double(12.345).cast_to(&cents), Ok(Dec(Decimal::new(1235, 2))));
        // The rescale without a result type saturates rather than wrap.
        assert_eq!({ Decimal::new(i128::MAX / 2, 0).rescale(2).mantissa }, i128::MAX);
        assert_eq!({ Decimal::new(i128::MIN / 2, 0).rescale(2).mantissa }, i128::MIN);
        // Rounding half away from zero at the top of the range: no overflow.
        assert_eq!({ Decimal::new(i128::MAX, 1).rescale(0).mantissa }, i128::MAX / 10 + 1);
    }

    #[test]
    fn comparison_orders_decimals_whose_alignment_overflows() {
        let big = Decimal::new(10i128.pow(37), 0);
        let small = Decimal::parse("0.05").unwrap();
        assert_eq!(big.cmp_decimal(&small), Ordering::Greater);
        assert_eq!(small.cmp_decimal(&big), Ordering::Less);
        assert_eq!(big.neg().cmp_decimal(&small), Ordering::Less);
        assert_eq!(small.cmp_decimal(&big.neg()), Ordering::Greater);
        assert_eq!(Datum::Dec(big).sql_cmp(&Datum::Dec(small)), Some(Ordering::Greater));
    }

    #[test]
    fn decimal_div_rounds() {
        let a = Decimal::from_int(1);
        let b = Decimal::from_int(3);
        let q = a.div(&b).unwrap();
        assert_eq!(q.to_string(), "0.333333");
    }

    #[test]
    fn decimal_rescale_rounds_half_away() {
        assert_eq!(
            Decimal::parse("2.345").unwrap().rescale(2),
            Decimal::parse("2.35").unwrap()
        );
        assert_eq!(
            Decimal::parse("-2.345").unwrap().rescale(2),
            Decimal::parse("-2.35").unwrap()
        );
    }

    #[test]
    fn civil_date_round_trip() {
        for (y, m, d) in [(1970, 1, 1), (2014, 1, 1), (2000, 2, 29), (1900, 3, 1), (2026, 7, 6)] {
            let days = date_from_ymd(y, m, d);
            assert_eq!(ymd_from_date(days), (y, m, d));
        }
        assert_eq!(date_from_ymd(1970, 1, 1), 0);
    }

    #[test]
    fn teradata_date_encoding_matches_paper() {
        // Paper §5: "'1140101' is the integer representation of '2014-01-01'".
        let d = date_from_ymd(2014, 1, 1);
        assert_eq!(teradata_int_from_date(d), 1_140_101);
        assert_eq!(date_from_teradata_int(1_140_101), Some(d));
        assert_eq!(date_from_teradata_int(1_141_350), None); // month 13
        // Before 1900 the encoding is negative.
        for (y, m, d, enc) in [(1899, 12, 31, -8_769), (1, 1, 1, -18_989_899)] {
            assert_eq!(teradata_int_from_date(date_from_ymd(y, m, d)), enc);
            assert_eq!(date_from_teradata_int(enc), Some(date_from_ymd(y, m, d)));
        }
        assert_eq!(date_from_teradata_int(-8_699), None); // 1899, month 13
    }

    #[test]
    fn add_months_clamps_day() {
        let jan31 = date_from_ymd(2020, 1, 31);
        assert_eq!(ymd_from_date(add_months(jan31, 1).unwrap()), (2020, 2, 29));
        assert_eq!(ymd_from_date(add_months(jan31, 13).unwrap()), (2021, 2, 28));
        assert_eq!(ymd_from_date(add_months(jan31, -2).unwrap()), (2019, 11, 30));
    }

    #[test]
    fn sql_cmp_nulls_and_cross_type() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Dec(Decimal::parse("2.00").unwrap())),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Double(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn char_padding_ignored_in_comparison() {
        assert!(Datum::str("abc  ").sql_eq(&Datum::str("abc")));
    }

    #[test]
    fn hash_consistent_with_eq_across_numeric_types() {
        use std::collections::hash_map::DefaultHasher;
        fn h(d: &Datum) -> u64 {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        }
        let a = Datum::Int(5);
        let b = Datum::Dec(Decimal::parse("5.000").unwrap());
        let c = Datum::Double(5.0);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&a), h(&c));
    }

    #[test]
    fn date_arithmetic() {
        let d = Datum::Date(date_from_ymd(2014, 1, 1));
        let plus = d.add(&Datum::Int(31)).unwrap();
        assert_eq!(plus, Datum::Date(date_from_ymd(2014, 2, 1)));
        let diff = plus.sub(&d).unwrap();
        assert_eq!(diff, Datum::Int(31));
        let iv = Datum::Interval(Interval::months(3));
        assert_eq!(
            d.add(&iv).unwrap(),
            Datum::Date(date_from_ymd(2014, 4, 1))
        );
    }

    #[test]
    fn null_propagation_in_arithmetic() {
        assert!(Datum::Null.add(&Datum::Int(1)).unwrap().is_null());
        assert!(Datum::Int(1).mul(&Datum::Null).unwrap().is_null());
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(Datum::Int(1).div(&Datum::Int(0)).is_err());
        assert!(Datum::Dec(Decimal::from_int(1))
            .div(&Datum::Dec(Decimal::from_int(0)))
            .is_err());
    }

    #[test]
    fn cast_string_to_date_and_back() {
        let d = Datum::str("2014-01-01").cast_to(&SqlType::Date).unwrap();
        assert_eq!(d, Datum::Date(date_from_ymd(2014, 1, 1)));
        assert_eq!(d.to_sql_string(), "2014-01-01");
    }

    #[test]
    fn cast_date_to_int_uses_teradata_encoding() {
        let d = Datum::Date(date_from_ymd(2014, 1, 1));
        assert_eq!(d.cast_to(&SqlType::Integer).unwrap(), Datum::Int(1_140_101));
        let before_1900 = Datum::Int(-8_769).cast_to(&SqlType::Date).unwrap();
        assert_eq!(before_1900, Datum::Date(date_from_ymd(1899, 12, 31)));
    }

    #[test]
    fn cast_char_pads_and_truncates() {
        assert_eq!(
            Datum::str("ab").cast_to(&SqlType::Char(4)).unwrap(),
            Datum::Str(Arc::from("ab  "))
        );
        assert_eq!(
            Datum::str("abcdef").cast_to(&SqlType::Varchar(Some(3))).unwrap(),
            Datum::Str(Arc::from("abc"))
        );
    }

    #[test]
    fn timestamp_parse_format_round_trip() {
        let t = parse_timestamp("2014-01-01 12:34:56.789000").unwrap();
        assert_eq!(format_timestamp(t), "2014-01-01 12:34:56.789000");
        let t2 = parse_timestamp("2014-01-01").unwrap();
        assert_eq!(format_timestamp(t2), "2014-01-01 00:00:00");
    }
}
