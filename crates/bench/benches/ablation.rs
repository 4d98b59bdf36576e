//! Ablations of the design choices called out in DESIGN.md §6:
//!
//! 1. fixed-point transformer vs. a single bounded pass,
//! 2. spill-to-disk vs. fully buffered conversion,
//! 3. single-row DML batching on vs. off.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use hyperq_core::backend::Backend;
use hyperq_core::binder::Binder;
use hyperq_core::capability::TargetCapabilities;
use hyperq_core::session::{SessionState, ShadowCatalog};
use hyperq_core::transform::Transformer;
use hyperq_core::HyperQBuilder;
use hyperq_engine::EngineDb;
use hyperq_parser::{parse_one, Dialect};
use hyperq_wire::{convert, ConverterConfig};
use hyperq_xtra::datum::Datum;
use hyperq_xtra::feature::FeatureSet;
use hyperq_xtra::schema::{Field, Schema};
use hyperq_xtra::types::SqlType;

/// A query whose rewrite cascades (date-int comparison inside a vector
/// subquery inside QUALIFY): the fixed-point loop needs several passes.
const CASCADING: &str = "SEL * FROM SALES WHERE SALES_DATE > 1140101 \
     AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY \
                                        WHERE SALES_DATE > 1150101) \
     QUALIFY RANK(AMOUNT DESC) <= 10";

fn sales_backend() -> Arc<dyn Backend> {
    let db = EngineDb::new();
    db.execute_sql(
        "CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER, SALES_DATE DATE)",
    )
    .unwrap();
    db.execute_sql(
        "CREATE TABLE SALES_HISTORY (GROSS INTEGER, NET INTEGER, SALES_DATE DATE)",
    )
    .unwrap();
    Arc::new(db)
}

fn bench_fixed_point(c: &mut Criterion) {
    let backend = sales_backend();
    let session = SessionState::new(1, "BENCH");
    let caps = TargetCapabilities::simwh();
    let parsed = parse_one(CASCADING, Dialect::Teradata).unwrap();
    let catalog = ShadowCatalog::new(&*backend, &session);
    let mut binder = Binder::new(&catalog);
    let plan = binder.bind_statement(&parsed.stmt).unwrap();

    let mut group = c.benchmark_group("transformer");
    let fixed_point = Transformer::standard();
    group.bench_function("fixed_point", |b| {
        b.iter(|| {
            let mut fired = FeatureSet::new();
            fixed_point.run_all(plan.clone(), &caps, &mut fired).unwrap()
        });
    });
    let single_pass = Transformer::standard().with_max_passes(1);
    group.bench_function("single_pass", |b| {
        b.iter(|| {
            let mut fired = FeatureSet::new();
            single_pass.run_all(plan.clone(), &caps, &mut fired).unwrap()
        });
    });
    group.finish();
}

fn bench_spill(c: &mut Criterion) {
    let schema = Schema::new(vec![
        Field::new(None, "K", SqlType::Integer, true),
        Field::new(None, "PAD", SqlType::Varchar(None), true),
    ]);
    let rows: Vec<Vec<Datum>> = (0..20_000)
        .map(|i| vec![Datum::Int(i), Datum::str(format!("padding-{i:0>40}"))])
        .collect();
    let mut group = c.benchmark_group("converter_spill");
    for (label, budget) in [("buffered", usize::MAX), ("spilling", 64 * 1024)] {
        group.bench_function(label, |b| {
            let config = ConverterConfig {
                batch_size: 1024,
                memory_budget: budget,
                ..Default::default()
            };
            b.iter(|| {
                let result = convert(&schema, &rows, &config).unwrap();
                // Consume (and clean up spill files).
                let mut n = 0usize;
                result
                    .for_each_row(|_| {
                        n += 1;
                        Ok(())
                    })
                    .unwrap();
                n
            });
        });
    }
    group.finish();
}

fn bench_dml_batching(c: &mut Criterion) {
    let script: String = (0..200)
        .map(|i| format!("INSERT INTO EVENTS VALUES ({i});"))
        .collect();
    let mut group = c.benchmark_group("dml_batching");
    for (label, batching) in [("batched", true), ("unbatched", false)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let db = EngineDb::new();
                    db.execute_sql("CREATE TABLE EVENTS (K INTEGER)").unwrap();
                    let mut hq = HyperQBuilder::for_target(
                        Arc::new(db) as Arc<dyn Backend>,
                        hyperq_core::targets::simwh(),
                    ).no_cache().build();
                    hq.dml_batching = batching;
                    hq
                },
                |mut hq| hq.run_script(&script).unwrap(),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_fixed_point, bench_spill, bench_dml_batching
}
criterion_main!(benches);
