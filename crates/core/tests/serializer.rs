//! Serializer unit tests: per-target dialect spellings and block assembly.

use hyperq_core::binder::Binder;
use hyperq_core::serialize::Serializer;
use hyperq_core::targets;
use hyperq_core::transform::Transformer;
use hyperq_parser::{parse_one, Dialect};
use hyperq_xtra::catalog::{ColumnDef, MemoryCatalog, TableDef};
use hyperq_xtra::feature::FeatureSet;
use hyperq_xtra::rel::Plan;
use hyperq_xtra::types::SqlType;

fn tables() -> Vec<TableDef> {
    vec![
        TableDef::new(
            "SALES",
            vec![
                ColumnDef::new("STORE", SqlType::Integer, true),
                ColumnDef::new("AMOUNT", SqlType::Integer, true),
                ColumnDef::new("SALES_DATE", SqlType::Date, true),
                ColumnDef::new("NAME", SqlType::Varchar(Some(30)), true),
            ],
        ),
        TableDef::new(
            "SALES_HISTORY",
            vec![
                ColumnDef::new("GROSS", SqlType::Integer, true),
                ColumnDef::new("NET", SqlType::Integer, true),
            ],
        ),
    ]
}

fn catalog_with(tables: Vec<TableDef>) -> MemoryCatalog {
    let mut cat = MemoryCatalog::new();
    for t in tables {
        cat = cat.with_table(t);
    }
    cat
}

/// Translate Teradata SQL for the registered target profile `target`.
fn translate(sql: &str, target: &str) -> String {
    let profile = targets::lookup(target).unwrap();
    let catalog = catalog_with(tables());
    let parsed = parse_one(sql, Dialect::Teradata).unwrap();
    let mut binder = Binder::new(&catalog);
    let plan = binder.bind_statement(&parsed.stmt).unwrap();
    let mut fired = FeatureSet::new();
    let plan = Transformer::standard().run_all(plan, &profile.caps, &mut fired).unwrap();
    Serializer::for_profile(&profile).serialize_plan(&plan).unwrap()
}

#[test]
fn top_vs_limit_spelling() {
    let q = "SEL TOP 7 STORE FROM SALES ORDER BY STORE";
    let with_limit = translate(q, "simwh");
    assert!(with_limit.contains("LIMIT 7"), "{with_limit}");
    assert!(!with_limit.contains("TOP"), "{with_limit}");
    let with_top = translate(q, "cloud-a");
    assert!(with_top.contains("SELECT TOP 7"), "{with_top}");
    assert!(!with_top.contains("LIMIT"), "{with_top}");
}

#[test]
fn mod_spelling_per_target() {
    let q = "SEL AMOUNT MOD 3 FROM SALES";
    let pct = translate(q, "simwh");
    assert!(pct.contains("% 3"), "{pct}");
    let func = translate(q, "cloud-c");
    assert!(func.contains("MOD("), "{func}");
}

#[test]
fn date_add_spellings() {
    let q = "SEL SALES_DATE + 30 FROM SALES";
    // SimWH: native date arithmetic — no rewrite.
    let native = translate(q, "simwh");
    assert!(native.contains("+ 30"), "{native}");
    assert!(!native.to_uppercase().contains("DATEADD"), "{native}");
    // CloudWH-A: DATEADD(DAY, n, d).
    let dateadd = translate(q, "cloud-a");
    assert!(dateadd.contains("DATEADD(DAY, 30,"), "{dateadd}");
    // CloudWH-C: DATE_ADD(d, INTERVAL n DAY).
    let interval_fn = translate(q, "cloud-c");
    assert!(interval_fn.contains("DATE_ADD("), "{interval_fn}");
    assert!(interval_fn.contains("INTERVAL 30 DAY"), "{interval_fn}");
    // CloudWH-E: d + INTERVAL 'n' DAY.
    let interval_lit = translate(q, "cloud-e");
    assert!(interval_lit.contains("INTERVAL '30' DAY"), "{interval_lit}");
}

#[test]
fn add_months_spellings() {
    let q = "SEL ADD_MONTHS(SALES_DATE, 2) FROM SALES";
    let native = translate(q, "simwh");
    assert!(native.contains("ADD_MONTHS("), "{native}");
    let dateadd = translate(q, "cloud-a");
    assert!(dateadd.contains("DATEADD(MONTH, 2,"), "{dateadd}");
    let interval = translate(q, "cloud-c");
    assert!(interval.contains("INTERVAL '2' MONTH"), "{interval}");
}

#[test]
fn power_operator_becomes_function() {
    let sql = translate("SEL AMOUNT ** 2 FROM SALES", "simwh");
    assert!(sql.contains("POWER("), "{sql}");
    assert!(!sql.contains("**"), "{sql}");
}

#[test]
fn grouping_sets_native_when_supported() {
    let q = "SEL STORE, SUM(AMOUNT) FROM SALES GROUP BY ROLLUP(STORE)";
    // CloudWH-D supports grouping sets → native syntax, no UNION ALL.
    let native = translate(q, "cloud-d");
    assert!(native.contains("GROUPING SETS"), "{native}");
    assert!(!native.contains("UNION ALL"), "{native}");
    // SimWH lacks them → UNION ALL expansion.
    let expanded = translate(q, "simwh");
    assert!(expanded.contains("UNION ALL"), "{expanded}");
    assert!(!expanded.contains("GROUPING SETS"), "{expanded}");
}

#[test]
fn vector_subquery_native_when_supported() {
    let q = "SEL STORE FROM SALES \
             WHERE (AMOUNT, AMOUNT) > ANY (SEL GROSS, NET FROM SALES_HISTORY)";
    // CloudWH-E supports row-valued quantified comparison natively.
    let native = translate(q, "cloud-e");
    assert!(native.contains("> ANY"), "{native}");
    assert!(!native.contains("EXISTS"), "{native}");
    // SimWH: rewritten to EXISTS.
    let rewritten = translate(q, "simwh");
    assert!(rewritten.contains("EXISTS"), "{rewritten}");
    assert!(!rewritten.contains("ANY"), "{rewritten}");
}

#[test]
fn qualify_native_when_supported() {
    // CloudWH-D has native QUALIFY, but the binder always lowers it, which
    // is still *correct* SQL for that target — the serializer must never
    // emit QUALIFY (normalized form is universal).
    let q = "SEL STORE FROM SALES QUALIFY RANK() OVER (ORDER BY AMOUNT DESC) <= 1";
    for target in ["simwh", "cloud-d"] {
        let sql = translate(q, target);
        assert!(!sql.to_uppercase().contains("QUALIFY"), "{sql}");
        assert!(sql.to_uppercase().contains("RANK() OVER"), "{sql}");
    }
}

#[test]
fn string_literals_escaped() {
    let sql = translate("SEL STORE FROM SALES WHERE NAME = 'O''Brien'", "simwh");
    assert!(sql.contains("'O''Brien'"), "{sql}");
}

#[test]
fn nested_blocks_requalify_columns() {
    // Window + filter + projection forces a derived-table wrap; references
    // above the wrap must switch to the derived alias.
    let sql = translate(
        "SEL STORE, AMOUNT FROM SALES QUALIFY RANK(AMOUNT DESC) <= 2",
        "simwh",
    );
    assert!(sql.contains(") AS _T1"), "{sql}");
    assert!(sql.contains("_T1.STORE"), "{sql}");
    assert!(
        !sql.starts_with("SELECT SALES.STORE"),
        "outer references must use the derived alias: {sql}"
    );
}

#[test]
fn dml_serialization() {
    let target = "simwh";
    let upd = translate("UPD SALES SET AMOUNT = AMOUNT + 1 WHERE STORE = 2", target);
    assert!(upd.starts_with("UPDATE SALES SET AMOUNT ="), "{upd}");
    let del = translate("DEL FROM SALES WHERE AMOUNT < 0", target);
    assert!(del.starts_with("DELETE FROM SALES WHERE"), "{del}");
    let ins = translate("INS SALES (1, 2, DATE '2020-01-01', 'x')", target);
    assert!(ins.starts_with("INSERT INTO SALES"), "{ins}");
    assert!(ins.contains("VALUES (1, 2, DATE '2020-01-01', 'x')"), "{ins}");
}

#[test]
fn create_table_serialization() {
    let catalog = catalog_with(vec![]);
    let parsed = parse_one(
        "CREATE TABLE T2 (A INTEGER NOT NULL, B DECIMAL(10,2) DEFAULT 0.00, C VARCHAR(5))",
        Dialect::Teradata,
    )
    .unwrap();
    let mut binder = Binder::new(&catalog);
    let plan = binder.bind_statement(&parsed.stmt).unwrap();
    let sql = Serializer::for_profile(&targets::simwh()).serialize_plan(&plan).unwrap();
    assert!(sql.contains("A INTEGER NOT NULL"), "{sql}");
    assert!(sql.contains("B DECIMAL(10,2) DEFAULT 0.00"), "{sql}");
    assert!(sql.contains("C VARCHAR(5)"), "{sql}");
}

#[test]
fn semi_join_cannot_be_serialized() {
    use hyperq_xtra::rel::{JoinKind, RelExpr};
    use hyperq_xtra::schema::Schema;
    let join = RelExpr::Join {
        kind: JoinKind::Semi,
        left: Box::new(RelExpr::Values { rows: vec![], schema: Schema::empty() }),
        right: Box::new(RelExpr::Values { rows: vec![], schema: Schema::empty() }),
        condition: Some(hyperq_xtra::expr::ScalarExpr::boolean(true)),
    };
    assert!(Serializer::for_profile(&targets::simwh()).serialize_plan(&Plan::Query(join)).is_err());
}

#[test]
fn set_operations_serialize_flat() {
    let sql = translate(
        "SEL STORE FROM SALES UNION ALL SEL GROSS FROM SALES_HISTORY ORDER BY 1",
        "simwh",
    );
    assert!(sql.contains("UNION ALL"), "{sql}");
    assert!(sql.contains("ORDER BY"), "{sql}");
    // The set operation is not needlessly wrapped.
    assert!(!sql.contains("AS _S"), "{sql}");
}
