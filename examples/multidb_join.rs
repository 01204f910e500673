//! Approximate joins across independent databases (§4.5).
//!
//! Two customer tables refer to the same people, but the names were
//! entered independently and carry typos. The exact equi-join returns
//! nothing; the *approximate* join (edit-distance on names) recovers the
//! correspondence — "our system will help the user to identify closely
//! related data items of the two databases".
//!
//! ```sh
//! cargo run --example multidb_join
//! ```

use std::sync::Arc;

use visdb::baseline::evaluate_boolean;
use visdb::core::JoinOptions;
use visdb::prelude::*;

fn main() -> Result<()> {
    let data = generate_multidb(&MultiDbConfig::default());

    let conn = data
        .registry
        .lookup("same-customer", "CustomersA", "CustomersB")?
        .clone()
        .instantiate(vec![])?;
    let query = QueryBuilder::from_tables(["CustomersA", "CustomersB"])
        .connect(conn)
        .build();

    // exact equi-join over the cross product: zero matches
    let base = materialize_base(&data.db, &query, &JoinOptions::default())?;
    let cond = query.condition.as_ref().unwrap();
    let exact = evaluate_boolean(&data.db, &base, &cond.node)?;
    let exact_count = exact.iter().filter(|b| **b).count();
    println!(
        "cross product of {} pairs; exact name-equality join matches {exact_count} pairs",
        base.len()
    );

    // approximate join: rank pairs by name distance
    let mut session = Session::new(Arc::new(data.db.clone()), data.registry.clone());
    session.set_display_policy(DisplayPolicy::Percentage(5.0))?;
    session.set_query(query)?;
    let res = session.result()?;

    // score: how many of the true pairs appear among the closest
    // |pairs| items of the relevance order?
    let m = data.db.table("CustomersB")?.len();
    let truth: Vec<usize> = data.pairs.iter().map(|&(i, j)| i * m + j).collect();
    let top_k = truth.len();
    let top: Vec<usize> = res.pipeline.ranked().take(top_k).collect();
    let recovered = truth.iter().filter(|flat| top.contains(flat)).count();
    println!(
        "approximate join: {recovered}/{} true correspondences rank in the top {top_k} \
         of {} pairs",
        truth.len(),
        res.pipeline.n
    );

    // show a few recovered pairs with their distances
    let closest: Vec<usize> = res.pipeline.ranked().take(8).collect();
    let distances = session.raw_distances(0)?;
    let names_a = data.db.table("CustomersA")?;
    let na = names_a.column_by_name("Name")?;
    let names_b = data.db.table("CustomersB")?;
    let nb = names_b.column_by_name("Name")?;
    println!("\nclosest non-identical pairs:");
    for item in closest {
        let (i, j) = (item / m, item % m);
        let d = distances.get(item);
        println!(
            "  '{}' ~ '{}' (distance {:?})",
            na.get_str(i).unwrap_or("?"),
            nb.get_str(j).unwrap_or("?"),
            d
        );
    }
    Ok(())
}
