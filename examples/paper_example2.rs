//! Walk the paper's worked Example 2 through every pipeline stage, printing
//! the intermediate representations of Figures 4–6 and the final SQL of
//! Example 3.
//!
//! ```sh
//! cargo run --example paper_example2
//! ```

use std::sync::Arc;

use hyperq::core::backend::Backend;
use hyperq::core::binder::Binder;
use hyperq::core::serialize::Serializer;
use hyperq::core::session::{SessionState, ShadowCatalog};
use hyperq::core::targets;
use hyperq::core::transform::{Phase, Transformer};
use hyperq::engine::EngineDb;
use hyperq::parser::{parse_one, Dialect};
use hyperq::xtra::display::render_rel;
use hyperq::xtra::feature::FeatureSet;
use hyperq::xtra::rel::Plan;

const EXAMPLE2: &str = "SEL * \
  FROM SALES \
  WHERE SALES_DATE > 1140101 \
  AND (AMOUNT, AMOUNT * 0.85) > ANY (SEL GROSS, NET FROM SALES_HISTORY) \
  QUALIFY RANK(AMOUNT DESC) <= 10";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = EngineDb::new();
    db.execute_sql("CREATE TABLE SALES (AMOUNT INTEGER, SALES_DATE DATE)")?;
    db.execute_sql("CREATE TABLE SALES_HISTORY (GROSS INTEGER, NET INTEGER)")?;
    let backend: Arc<dyn Backend> = Arc::new(db);
    let session = SessionState::new(1, "DEMO");
    let target = targets::simwh();

    println!("── input (Example 2, Teradata dialect) ──────────────────────────");
    println!("{EXAMPLE2}\n");

    // Parsing: mixed generic/vendor AST (Figure 4).
    let parsed = parse_one(EXAMPLE2, Dialect::Teradata)?;
    println!("── parse: tracked features detected ─────────────────────────────");
    for f in parsed.features.iter() {
        println!("  {f}");
    }

    // Binding (algebrization): XTRA (Figure 5 before transformations).
    let catalog = ShadowCatalog::new(&*backend, &session);
    let mut binder = Binder::new(&catalog);
    let plan = binder.bind_statement(&parsed.stmt)?;
    let Plan::Query(rel) = &plan else {
        unreachable!("Example 2 is a query");
    };
    println!("\n── XTRA after binding (cf. Figure 5) ────────────────────────────");
    print!("{}", render_rel(rel));

    // Binding-phase transformations (comp_date_to_int, §5.2).
    let transformer = Transformer::standard();
    let mut fired = FeatureSet::new();
    let plan = transformer.run(plan, Phase::Binding, &target.caps, &mut fired)?;
    if let Plan::Query(rel) = &plan {
        println!("\n── XTRA after binding-phase transformations ─────────────────────");
        print!("{}", render_rel(rel));
    }

    // Serialization-phase transformations (vector subquery → EXISTS, §5.3).
    let plan = transformer.run(plan, Phase::Serialization, &target.caps, &mut fired)?;
    if let Plan::Query(rel) = &plan {
        println!("\n── final XTRA (cf. Figure 6) ─────────────────────────────────────");
        print!("{}", render_rel(rel));
    }
    println!("\n── transformations fired ─────────────────────────────────────────");
    for f in fired.iter() {
        println!("  {f}");
    }

    // Serialization: target SQL (cf. Example 3).
    let sql = Serializer::for_profile(&target).serialize_plan(&plan)?;
    println!("\n── serialized SQL for the target (cf. Example 3) ────────────────");
    println!("{sql}");

    // And it actually runs on the target:
    let result = backend.execute(&sql)?;
    println!("\nexecutes on the target: {} rows", result.row_count);
    Ok(())
}
