//! Similarity retrieval in a CAD database (§4.5).
//!
//! "In searching for similar parts in traditional CAD databases a query
//! is issued using fixed allowances for some of the parameters. ... the
//! user might miss a part that exactly fits in all except one parameter."
//!
//! We query for parts similar to a cluster prototype using 27 `AROUND`
//! predicates. The boolean baseline (fixed allowances) misses the
//! planted near-miss parts; the relevance ranking puts them right after
//! the exact matches.
//!
//! ```sh
//! cargo run --example cad_similarity
//! ```

use std::sync::Arc;

use visdb::baseline::evaluate_boolean;
use visdb::data::cad::NUM_PARAMS;
use visdb::prelude::*;

fn main() -> Result<()> {
    let cad = generate_cad(&CadConfig::default());
    let cluster = 0usize;
    let proto = cad.prototypes[cluster].clone();

    // similarity query: every parameter within a fixed allowance
    let allowance = 3.0;
    let mut qb = QueryBuilder::from_tables(["Parts"]);
    for (p, &target) in proto.iter().enumerate() {
        qb = qb.around(format!("p{p:02}"), target, allowance);
    }
    let query = qb.build();

    // boolean baseline: all-or-nothing fixed allowances
    let parts = cad.db.table("Parts")?;
    let cond = query.condition.as_ref().unwrap();
    let exact = evaluate_boolean(&cad.db, parts, &cond.node)?;
    let exact_rows: Vec<usize> = (0..parts.len()).filter(|&i| exact[i]).collect();

    // the planted near-misses for this cluster
    let planted: Vec<usize> = cad
        .near_misses
        .iter()
        .filter(|(_, c, _)| *c == cluster)
        .map(|(row, _, _)| *row)
        .collect();
    let missed: Vec<usize> = planted
        .iter()
        .copied()
        .filter(|r| !exact_rows.contains(r))
        .collect();
    println!(
        "boolean query with ±{allowance} allowances: {} matches",
        exact_rows.len()
    );
    println!(
        "planted near-miss parts {planted:?}: baseline misses {:?}",
        missed
    );

    // visual feedback query: relevance ranking over the same predicates
    let mut session = Session::new(Arc::new(cad.db.clone()), ConnectionRegistry::new());
    session.set_display_policy(DisplayPolicy::Percentage(25.0))?;
    session.set_query(query)?;
    let res = session.result()?;

    let mut report: Vec<(usize, usize)> = missed
        .iter()
        .map(|&row| {
            let rank = res.pipeline.rank_of(row).unwrap_or(usize::MAX);
            (row, rank)
        })
        .collect();
    report.sort_by_key(|&(_, rank)| rank);
    println!("\nrelevance ranking over {} parts:", res.pipeline.n);
    println!(
        "  exact matches (yellow region): {}",
        res.pipeline.num_exact
    );
    for (row, rank) in &report {
        println!("  near-miss part at row {row}: relevance rank {rank}");
    }
    let cluster_size = exact_rows.len();
    let recovered = report
        .iter()
        .filter(|(_, rank)| *rank < cluster_size + planted.len() + 5)
        .count();
    println!(
        "=> {recovered}/{} near-misses appear directly after the exact matches",
        report.len()
    );

    // weighting: suppress the one deviating parameter and the near-miss
    // becomes an exact-quality answer (the §4.5 adjustment workflow)
    if let Some(&(row, _)) = report.first() {
        let (_, _, dev) = *cad
            .near_misses
            .iter()
            .find(|(r, _, _)| *r == row)
            .expect("planted row");
        session.set_weight(dev, 0.05)?;
        let res = session.result()?;
        match res.pipeline.rank_of(row) {
            Some(new_rank) => println!(
                "after down-weighting parameter p{dev:02} to 0.05, row {row} ranks {new_rank} \
                 (of {} displayed)",
                res.pipeline.displayed.len()
            ),
            None => println!(
                "after down-weighting parameter p{dev:02} to 0.05, row {row} still ranks beyond \
                 the top {}",
                res.pipeline.order.len()
            ),
        }
    }
    let _ = NUM_PARAMS;
    Ok(())
}
