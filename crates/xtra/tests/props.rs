//! Property-based tests for the value layer (decimals, dates, comparison
//! semantics) and the plan validator (generated trees stay clean,
//! mutated trees are flagged).

use proptest::prelude::*;

use hyperq_xtra::datum::{
    add_months, date_from_teradata_int, date_from_ymd, parse_date, teradata_int_from_date,
    ymd_from_date, Datum, Decimal,
};
use hyperq_xtra::expr::{CmpOp, ScalarExpr, SortExpr};
use hyperq_xtra::rel::RelExpr;
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;
use hyperq_xtra::validate::{validate_rel, Invariant, ValidateOptions};

/// Every date a Teradata DATE holds, 0001-01-01 through 9999-12-31, in
/// days since 1970-01-01.
const TERADATA_DATES: std::ops::RangeInclusive<i32> = -719_162..=2_932_896;

proptest! {
    #[test]
    fn civil_date_round_trip(days in -700_000i32..1_000_000) {
        let (y, m, d) = ymd_from_date(days);
        prop_assert_eq!(date_from_ymd(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    #[test]
    fn teradata_int_encoding_round_trip(days in TERADATA_DATES) {
        let enc = teradata_int_from_date(days);
        prop_assert_eq!(date_from_teradata_int(enc), Some(days));
    }

    #[test]
    fn teradata_encoding_is_order_preserving(a in TERADATA_DATES, b in TERADATA_DATES) {
        // The whole point of the paper's comp_date_to_int rewrite: the
        // integer encoding preserves date ordering.
        let (ea, eb) = (teradata_int_from_date(a), teradata_int_from_date(b));
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn date_display_parse_round_trip(days in 0i32..80_000) {
        let s = hyperq_xtra::datum::format_date(days);
        prop_assert_eq!(parse_date(&s).unwrap(), days);
    }

    #[test]
    fn add_months_inverts(days in 0i32..80_000, n in -240i32..240) {
        // Adding then subtracting months lands within clamp distance
        // (day-of-month clamping loses at most 3 days of information).
        let there = add_months(days, n.into()).unwrap();
        let back = add_months(there, (-n).into()).unwrap();
        prop_assert!((days - back).abs() <= 3, "days={days} n={n} back={back}");
    }

    #[test]
    fn decimal_parse_display_round_trip(mantissa in -1_000_000_000i64..1_000_000_000, scale in 0u8..8) {
        let d = Decimal::new(mantissa as i128, scale);
        let s = d.to_string();
        let back = Decimal::parse(&s).unwrap();
        prop_assert_eq!(d, back);
    }

    #[test]
    fn decimal_add_commutes_and_associates(
        a in -1_000_000i64..1_000_000, sa in 0u8..6,
        b in -1_000_000i64..1_000_000, sb in 0u8..6,
        c in -1_000_000i64..1_000_000, sc in 0u8..6,
    ) {
        let (x, y, z) = (
            Decimal::new(a as i128, sa),
            Decimal::new(b as i128, sb),
            Decimal::new(c as i128, sc),
        );
        prop_assert_eq!(x.add(&y), y.add(&x));
        prop_assert_eq!(x.add(&y).unwrap().add(&z), x.add(&y.add(&z).unwrap()));
    }

    #[test]
    fn decimal_cmp_matches_f64(a in -10_000_000i64..10_000_000, sa in 0u8..4,
                               b in -10_000_000i64..10_000_000, sb in 0u8..4) {
        let (x, y) = (Decimal::new(a as i128, sa), Decimal::new(b as i128, sb));
        let approx = x.to_f64().partial_cmp(&y.to_f64()).unwrap();
        // f64 is exact for these magnitudes, so orders must agree.
        prop_assert_eq!(x.cmp_decimal(&y), approx);
    }

    #[test]
    fn rescale_is_idempotent(m in -1_000_000i64..1_000_000, s in 0u8..6, target in 0u8..6) {
        let d = Decimal::new(m as i128, s);
        let once = d.rescale(target);
        prop_assert_eq!(once.rescale(target), once);
    }

    #[test]
    fn datum_hash_agrees_with_eq(a in -1000i64..1000, scale in 0u8..4) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(d: &Datum) -> u64 {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        }
        let int = Datum::Int(a);
        let dec = Datum::Dec(Decimal::new(
            a as i128 * 10i128.pow(scale as u32),
            scale,
        ));
        prop_assert_eq!(&int, &dec);
        prop_assert_eq!(h(&int), h(&dec));
    }

    #[test]
    fn sql_cmp_is_antisymmetric(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        let (x, y) = (Datum::Int(a), Datum::Int(b));
        let fwd = x.sql_cmp(&y).unwrap();
        let rev = y.sql_cmp(&x).unwrap();
        prop_assert_eq!(fwd, rev.reverse());
    }

    #[test]
    fn cast_date_int_round_trip(days in 0i32..80_000) {
        let d = Datum::Date(days);
        let as_int = d.cast_to(&SqlType::Integer).unwrap();
        let back = as_int.cast_to(&SqlType::Date).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn arithmetic_null_propagation(a in -1000i64..1000) {
        let x = Datum::Int(a);
        prop_assert!(x.add(&Datum::Null).unwrap().is_null());
        prop_assert!(Datum::Null.mul(&x).unwrap().is_null());
        prop_assert!(x.sub(&Datum::Null).unwrap().is_null());
    }
}

// ---------------------------------------------------------------------------
// Plan validator properties: random operator stacks over a base table stay
// violation-free, and a dangling column reference is always flagged.

const BASE_COLS: [(&str, SqlType); 3] = [
    ("A", SqlType::Integer),
    ("B", SqlType::Integer),
    ("S", SqlType::Varchar(None)),
];

fn base_get() -> RelExpr {
    RelExpr::Get {
        table: "T".into(),
        alias: None,
        schema: Schema::new(
            BASE_COLS
                .iter()
                .map(|(name, ty)| Field {
                    qualifier: Some("T".into()),
                    name: (*name).to_string(),
                    ty: ty.clone(),
                    nullable: true,
                })
                .collect(),
        ),
    }
}

fn column(rel: &RelExpr, idx: usize) -> ScalarExpr {
    let schema = rel.schema();
    let f = &schema.fields[idx % schema.len()];
    ScalarExpr::Column {
        qualifier: f.qualifier.clone(),
        name: f.name.clone(),
        ty: f.ty.clone(),
    }
}

/// Stack one well-formed operator on `input`, driven by `pick`.
fn grow(input: RelExpr, pick: u8, n: i64) -> RelExpr {
    match pick % 5 {
        0 => {
            let pred = ScalarExpr::Cmp {
                op: CmpOp::Gt,
                left: Box::new(column(&input, 0)),
                right: Box::new(ScalarExpr::Literal(Datum::Int(n), SqlType::Integer)),
            };
            RelExpr::Select { input: Box::new(input), predicate: pred }
        }
        1 => {
            let exprs = (0..input.schema().len().max(1))
                .map(|i| (column(&input, i), format!("C{i}")))
                .collect();
            RelExpr::Project { input: Box::new(input), exprs }
        }
        2 => {
            let key = SortExpr::asc(column(&input, n.unsigned_abs() as usize));
            RelExpr::Sort { input: Box::new(input), keys: vec![key] }
        }
        3 => RelExpr::Limit {
            input: Box::new(input),
            limit: Some(n.unsigned_abs().max(1)),
            offset: 0,
            with_ties: false,
        },
        _ => RelExpr::Distinct { input: Box::new(input) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_operator_stacks_validate_clean(
        picks in proptest::collection::vec((0u8..5, -50i64..50), 0..8),
    ) {
        let mut rel = base_get();
        for (pick, n) in picks {
            rel = grow(rel, pick, n);
        }
        let report = validate_rel(&rel, &ValidateOptions::default());
        prop_assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn dangling_reference_is_always_flagged(
        picks in proptest::collection::vec((0u8..5, -50i64..50), 0..6),
    ) {
        let mut rel = base_get();
        for (pick, n) in picks {
            rel = grow(rel, pick, n);
        }
        // Mutate: project a column name that resolves nowhere.
        let ghost = ScalarExpr::Column {
            qualifier: None,
            name: "NO_SUCH_COLUMN".into(),
            ty: SqlType::Integer,
        };
        let rel = RelExpr::Project {
            input: Box::new(rel),
            exprs: vec![(ghost, "G".into())],
        };
        let report = validate_rel(&rel, &ValidateOptions::default());
        prop_assert!(report.has(Invariant::UnresolvedColumn), "{report}");
    }
}
