//! The disaster-recovery scenario (paper §B.2): the same unchanged
//! application runs against the primary *and* a differently-shaped standby,
//! because Hyper-Q absorbs the dialect differences per target.
//!
//! ```sh
//! cargo run --example disaster_recovery
//! ```

use std::sync::Arc;

use hyperq::core::targets::{self, TargetProfile};
use hyperq::core::{Backend, HyperQBuilder};
use hyperq::engine::EngineDb;

const APP_QUERY: &str = "SEL REGION, SUM(AMOUNT) AS TOTAL FROM ORDERS_FACT \
                         WHERE ORDER_DATE > 1140101 GROUP BY 1 ORDER BY 2 DESC";

fn provision() -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    db.execute_sql(
        "CREATE TABLE ORDERS_FACT (REGION INTEGER, AMOUNT DECIMAL(12,2), ORDER_DATE DATE)",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO ORDERS_FACT VALUES \
         (1, 100.00, DATE '2014-05-01'), (1, 250.00, DATE '2014-06-01'), \
         (2, 900.00, DATE '2014-07-01'), (3, 50.00, DATE '2013-01-01')",
    )
    .unwrap();
    db
}

fn run_on(label: &str, profile: TargetProfile, backend: Arc<EngineDb>) -> Vec<(i64, String)> {
    let display = profile.caps.name.to_string();
    let mut hq = HyperQBuilder::for_target(backend as Arc<dyn Backend>, profile).build();
    let outcome = hq.run_one(APP_QUERY).expect("application query");
    println!("{label} (capability profile {display}):");
    println!("  SQL generated for this target: {}", outcome.sql_sent[0]);
    outcome
        .result
        .rows
        .iter()
        .map(|r| (r[0].to_i64().unwrap(), r[1].to_sql_string()))
        .collect()
}

fn main() {
    // Primary and standby are provisioned independently (content transfer
    // is the out-of-band, well-studied half of the migration).
    let primary = provision();
    let standby = provision();

    // The application text never changes; the serializer output differs per
    // target profile. `translate` shows what a TOP-style target would get:
    let mut demo = HyperQBuilder::for_target(
        Arc::clone(&primary) as Arc<dyn Backend>,
        targets::lookup("cloud-a").expect("registered profile"),
    ).build();
    println!(
        "for a TOP-dialect target (CloudWH-A) the same query would serialize as:\n  {}\n",
        demo.translate(APP_QUERY).unwrap()[0]
    );

    let on_primary = run_on("PRIMARY", targets::simwh(), primary);
    println!();
    let on_standby = run_on("STANDBY", targets::simwh(), standby);

    assert_eq!(on_primary, on_standby, "failover must be invisible to the application");
    println!("\nfailover check: identical results on primary and standby ✓");
    for (region, total) in on_primary {
        println!("  region {region}: {total}");
    }
}
