//! Consistency of the committed results files with each other: a fact two
//! tables share must read the same in both. Runs no simulation.

use std::path::PathBuf;

/// The (dataset, Ours) cells of the committed `results/<name>.txt`, the
/// best-cell `*` mark dropped. Ours is the first column after the dataset
/// in Tables III and IV.
fn ours_column(name: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.txt"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let rows = text.lines().skip_while(|l| !l.starts_with("---")).skip(1);
    rows.take_while(|l| !l.trim().is_empty())
        .map(|row| {
            let mut cells = row.split_whitespace();
            let dataset = cells.next().expect("a dataset cell").to_string();
            let ours = cells.next().expect("an Ours cell").trim_end_matches('*');
            (dataset, ours.to_string())
        })
        .collect()
}

/// Table IV's Ours column is Table III's seed-0 capture of the paper's
/// kernel, so the two committed tables must agree on it row by row.
#[test]
fn table4_ours_matches_table3() {
    let table3 = ours_column("table3");
    let table4 = ours_column("table4");
    assert_eq!(table3.len(), 20, "Table III has one row per dataset");
    for (t3, t4) in table3.iter().zip(&table4) {
        assert_eq!(t4, t3, "Table IV's Ours cell disagrees with Table III's");
    }
    assert_eq!(
        table3.len(),
        table4.len(),
        "Tables III and IV list the same datasets"
    );
}
