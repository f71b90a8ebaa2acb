//! The experiment baseline: `BENCH_baseline.json` (schema 2) holds every
//! table cell of every suite, except unpinned columns, one table row per
//! line so `git diff` shows which cells moved. [`check`] compares cells
//! keyed by suite, table, row and column: by exact text, except ceiling
//! cells, which pass at or below the stored value. No
//! clock is read here; `benchmark/` measures wall time.

use std::collections::BTreeMap;

use crate::table::{Pin, Table};

/// Suites as `(id, tables)`, in run order.
pub type Suites = Vec<(String, Vec<Table>)>;

fn pinned(t: &Table) -> Vec<usize> {
    (0..t.pins().len())
        .filter(|&c| t.pins()[c] != Pin::Unpinned)
        .collect()
}

fn quote(cell: &str) -> String {
    let plain = !cell.contains(['"', '\\']) && !cell.contains(char::is_control);
    assert!(plain, "cell `{cell}` would need JSON escaping");
    format!("\"{cell}\"")
}

/// Serialize the pinned cells of `suites` as a schema-2 document, one
/// table row per line. Panics on a cell that would need escaping.
pub fn to_json(suites: &Suites) -> String {
    let sep = |i: usize| if i == 0 { "" } else { "," };
    let mut out = String::from("{\n  \"schema_version\": 2,\n  \"suites\": {");
    for (i, (id, tables)) in suites.iter().enumerate() {
        out += &format!("{}\n    {}: {{", sep(i), quote(id));
        for (j, t) in tables.iter().enumerate() {
            let cols = pinned(t);
            let list = |row: &[String]| {
                let cells: Vec<String> = cols.iter().map(|&c| quote(&row[c])).collect();
                format!("[{}]", cells.join(", "))
            };
            out += &format!("{}\n      {}: {{\n", sep(j), quote(t.title()));
            out += &format!("        \"columns\": {},\n", list(t.headers()));
            out += "        \"rows\": [";
            for (k, row) in t.rows().iter().enumerate() {
                out += &format!("{}\n          {}", sep(k), list(row));
            }
            out += "\n        ]\n      }";
        }
        out += "\n    }";
    }
    out + "\n  }\n}\n"
}

fn strings(list: &str) -> Option<Vec<String>> {
    if list == "[]" {
        return Some(Vec::new());
    }
    let inner = list.strip_prefix("[\"")?.strip_suffix("\"]")?;
    Some(inner.split("\", \"").map(str::to_string).collect())
}

/// Parse a document written by [`to_json`], line by line, into tables
/// whose pins are all exact (the run side of [`check`] knows ceilings).
/// A schema-1 file (medians and `wall_ms`) is refused.
pub fn from_json(text: &str) -> Result<Suites, String> {
    if !text.contains("\n  \"schema_version\": 2,\n") {
        let hint = "not a schema-2 baseline: regenerate it with `experiments -- all --json`";
        return Err(hint.into());
    }
    let mut suites: Suites = Vec::new();
    let mut title = None;
    for (n, line) in text.lines().enumerate() {
        let bad = || format!("line {}: unexpected `{}`", n + 1, line.trim());
        let body = line.trim().trim_end_matches(',');
        let indent = line.len() - line.trim_start().len();
        let key = body.strip_prefix('"').and_then(|b| b.strip_suffix("\": {"));
        if let (4 | 6, Some(key)) = (indent, key) {
            match indent {
                4 => suites.push((key.to_string(), Vec::new())),
                _ => title = Some(key.to_string()),
            }
        } else if let Some(list) = body.strip_prefix("\"columns\": ") {
            let columns = strings(list).ok_or_else(bad)?;
            let table = Table::new(&title.take().ok_or_else(bad)?, &columns);
            suites.last_mut().ok_or_else(bad)?.1.push(table);
        } else if indent == 10 {
            let table = suites.last_mut().and_then(|s| s.1.last_mut());
            let table = table.ok_or_else(bad)?;
            let row = strings(body).filter(|r| r.len() == table.headers().len());
            table.row(row.ok_or_else(bad)?);
        }
    }
    Ok(suites)
}

/// Cell key `(table title, row, column)` with `(row label, cell, pin)`.
type Cell<'a> = ((&'a str, usize, &'a str), (&'a str, &'a str, Pin));

fn cells(tables: &[Table]) -> Vec<Cell<'_>> {
    let mut out = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        let twice = tables[..i].iter().any(|u| u.title() == t.title());
        assert!(!twice, "two tables titled `{}`", t.title());
        for (r, row) in t.rows().iter().enumerate() {
            let label = row.first().map_or("", String::as_str);
            for c in pinned(t) {
                let key = (t.title(), r, t.headers()[c].as_str());
                out.push((key, (label, row[c].as_str(), t.pins()[c])));
            }
        }
    }
    out
}

/// One line per moved, new or missing cell of the suites in `run`, and
/// with `ran_all` one per file suite that `run` lacks.
pub fn check(run: &Suites, file: &Suites, ran_all: bool) -> Vec<String> {
    let mut out = Vec::new();
    for (id, tables) in run {
        let Some((_, stored)) = file.iter().find(|(f, _)| f == id) else {
            out.push(format!("{id}: new suite, not in the baseline"));
            continue;
        };
        let at =
            |(t, r, c): (&str, usize, &str), label| format!("{id} / {t} / row {r} {label} / {c}");
        let mut old: BTreeMap<_, _> = cells(stored).into_iter().collect();
        for (key, (label, now, pin)) in cells(tables) {
            match old.remove(&key) {
                None => out.push(format!("{}: new cell {now}", at(key, label))),
                Some((_, was, _)) if was == now || (pin == Pin::Ceiling && below(now, was)) => {}
                Some((_, was, _)) => out.push(format!("{}: {was} → {now}", at(key, label))),
            }
        }
        for (key, (label, was, _)) in old {
            out.push(format!("{}: {was} → missing", at(key, label)));
        }
    }
    let ran = |f: &String| run.iter().any(|(r, _)| r == f);
    for (id, _) in file.iter().filter(|(f, _)| ran_all && !ran(f)) {
        out.push(format!("{id}: in the baseline but not in this run"));
    }
    out
}

fn below(now: &str, ceiling: &str) -> bool {
    matches!((now.parse::<f64>(), ceiling.parse::<f64>()), (Ok(n), Ok(c)) if n <= c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(cost: &str, identical: &str, verdict: &str) -> Table {
        let headers = ["topology", "cost", "identical", "verdict", "wall_ms"];
        let mut t = Table::new("demo", &headers).unpinned(&["wall_ms"]);
        t.row(vec![
            "star".into(),
            "1.5".into(),
            "yes".into(),
            "PASS".into(),
            "3.0".into(),
        ]);
        t.row(vec![
            "tree".into(),
            cost.into(),
            identical.into(),
            verdict.into(),
            "9.9".into(),
        ]);
        t
    }

    fn run(tables: Vec<(&str, Table)>) -> Suites {
        tables
            .into_iter()
            .map(|(id, t)| (id.to_string(), vec![t]))
            .collect()
    }

    fn file(tables: Vec<(&str, Table)>) -> Suites {
        from_json(&to_json(&run(tables))).unwrap()
    }

    #[test]
    fn each_moved_cell_fails_with_one_named_line() {
        let base = file(vec![("x-demo", demo("2.25", "yes", "PASS"))]);
        let same = run(vec![("x-demo", demo("2.25", "yes", "PASS"))]);
        assert!(check(&same, &base, true).is_empty());
        for (moved, want) in [
            (demo("2.26", "yes", "PASS"), "cost: 2.25 → 2.26"),
            (demo("2.25", "no", "PASS"), "identical: yes → no"),
            (demo("2.25", "yes", "FAIL"), "verdict: PASS → FAIL"),
        ] {
            let diffs = check(&run(vec![("x-demo", moved)]), &base, true);
            assert_eq!(diffs, vec![format!("x-demo / demo / row 1 tree / {want}")]);
        }
    }

    #[test]
    fn missing_and_new_cells_and_suites_fail() {
        let base = file(vec![
            ("a", demo("2", "yes", "PASS")),
            ("b", demo("2", "yes", "PASS")),
        ]);
        let mut longer = demo("2", "yes", "PASS");
        longer.row(vec![
            "ring".into(),
            "4".into(),
            "yes".into(),
            "PASS".into(),
            "1".into(),
        ]);
        let diffs = check(
            &run(vec![("a", longer), ("c", demo("2", "yes", "PASS"))]),
            &base,
            true,
        );
        assert_eq!(diffs.len(), 6, "{diffs:#?}"); // four new cells, a new suite, a lost suite
        assert_eq!(diffs[0], "a / demo / row 2 ring / topology: new cell ring");
        assert_eq!(diffs[4], "c: new suite, not in the baseline");
        assert_eq!(diffs[5], "b: in the baseline but not in this run");

        // A subset run: suite `b` is not compared, row 1 of `a` is missing.
        let mut shorter = Table::new("demo", &["topology", "cost", "identical", "verdict"]);
        shorter.row(vec![
            "star".into(),
            "1.5".into(),
            "yes".into(),
            "PASS".into(),
        ]);
        let diffs = check(&run(vec![("a", shorter)]), &base, false);
        assert_eq!(diffs.len(), 4, "{diffs:#?}");
        assert!(diffs.contains(&"a / demo / row 1 tree / cost: 2 → missing".to_string()));
    }

    #[test]
    fn ceilings_may_fall_but_not_rise() {
        let sized = |lines: &str| {
            let mut t = Table::new("size", &["crate", "lines"]).ceilings(&["lines"]);
            t.row(vec!["core".into(), lines.into()]);
            t
        };
        let base = file(vec![("x-size", sized("100"))]);
        assert!(check(&run(vec![("x-size", sized("99"))]), &base, false).is_empty());
        let diffs = check(&run(vec![("x-size", sized("101"))]), &base, false);
        assert_eq!(diffs, vec!["x-size / size / row 0 core / lines: 100 → 101"]);
    }

    #[test]
    fn a_schema_1_file_is_refused_with_a_hint() {
        let v1 = "{\n  \"schema_version\": 1,\n  \"suites\": [\n    {\"id\": \"f2\", \
                  \"median_numeric\": 9.000000, \"wall_ms\": 1.3}\n  ]\n}\n";
        assert!(from_json(v1).unwrap_err().contains("regenerate"));
    }

    #[test]
    fn json_roundtrips() {
        let mut tables = crate::suite::f2();
        tables.extend(crate::xsize::x_size());
        let emitted = vec![("f2+x-size".to_string(), tables)];
        let parsed = from_json(&to_json(&emitted)).unwrap();
        assert!(check(&emitted, &parsed, true).is_empty());
        assert_eq!(parsed[0].1.len(), 2);
        assert!(!parsed[0].1[1].headers().contains(&"files".to_string()));
    }

    #[test]
    fn json_shape_is_valid() {
        let mut t = Table::new("empty", &["a"]).unpinned(&["a"]);
        t.row(vec!["x".into()]);
        let suites = run(vec![("x-demo", demo("2", "yes", "PASS")), ("x-empty", t)]);
        let j = to_json(&suites);
        assert!(j.starts_with("{\n  \"schema_version\": 2,\n  \"suites\": {\n    \"x-demo\": {"));
        assert!(j.contains("\n          [\"star\", \"1.5\", \"yes\", \"PASS\"],\n"));
        assert!(j.contains("\"columns\": [],\n        \"rows\": [\n          []\n        ]"));
        assert!(!j.contains("wall_ms") && !j.contains(",\n  }") && !j.contains(",\n    }"));
        assert!(check(&suites, &from_json(&j).unwrap(), true).is_empty());
    }

    #[test]
    #[should_panic(expected = "would need JSON escaping")]
    fn a_cell_that_needs_escaping_is_refused() {
        let mut t = Table::new("quoted", &["a"]);
        t.row(vec!["say \"hi\"".into()]);
        to_json(&run(vec![("x-demo", t)]));
    }
}
