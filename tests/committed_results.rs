//! Consistency of the committed results files with each other: a fact two
//! tables share must read the same in both. Runs no simulation.

use serde_json::Value;
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

/// The committed `results/<name>.json`.
fn json(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("results/{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The array elements of `v`.
fn items(v: &Value) -> &[Value] {
    v.as_array().expect("a JSON array")
}

/// Table III's time for `engine` on one of its JSON rows.
fn table3_ms(row: &Value, engine: &str) -> Option<f64> {
    let cells = items(row.get("cells")?);
    let cell = cells
        .iter()
        .find(|c| items(c)[0].as_str() == Some(engine))?;
    items(cell)[1].get("Time")?.get("avg_ms")?.as_f64()
}

/// Extension 2 re-runs Ours and Medusa-MPM on three datasets Table III
/// also holds, so its six cells must equal Table III's, bit for bit.
#[test]
fn extensions_match_table3() {
    let table3 = json("table3");
    let extensions = json("extensions");
    let rows = items(extensions.get("mpm_vs_peel").expect("Extension 2"));
    assert_eq!(rows.len(), 3, "Extension 2 has three datasets");
    for row in rows {
        let row = items(row);
        let dataset = row[0].as_str().expect("a dataset name");
        let t3 = items(&table3)
            .iter()
            .find(|r| r.get("dataset").and_then(Value::as_str) == Some(dataset))
            .unwrap_or_else(|| panic!("{dataset} is not in Table III"));
        let ours = table3_ms(t3, "Ours");
        assert_eq!(row[1].as_f64(), ours, "{dataset}: Ours");
        let mpm = table3_ms(t3, "Medusa-MPM");
        assert_eq!(row[3].as_f64(), mpm, "{dataset}: Medusa-MPM");
        assert!(
            ours.is_some() && mpm.is_some(),
            "{dataset}: Table III times"
        );
    }
}
