//! EXPERIMENTS.md quotes the headline numbers of the checked-in
//! `results/*.txt` files. The CI determinism job pins those files' rows,
//! so a change that moves a headline updates the results files in the same
//! change, and this test then fails until the prose moves with them.
//!
//! Checked: fig5's two `# RL-S vs …` lines and its pretraining transition
//! count, table3's `Average` row and the extremes of its speedup and
//! step-reduction columns, compat's `average` row, and every row's totals
//! of the ablation table.

use std::path::PathBuf;

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The first line of `text` starting with `prefix`, with the prefix cut.
fn line_after<'a>(text: &'a str, prefix: &str, file: &str) -> &'a str {
    text.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("{file}: no line starts with {prefix:?}"))
}

/// `1.58X` → `1.58`; `78.91%` → `78.91`.
fn figure(cell: &str) -> &str {
    cell.trim_end_matches(['X', '%'])
}

/// `2272` → `2,272`.
fn grouped(n: &str) -> String {
    let mut out = String::new();
    for (i, c) in n.chars().enumerate() {
        if i > 0 && (n.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Fails naming every quote the prose lacks.
fn assert_quotes(prose: &str, quotes: &[(String, &str)]) {
    let missing: Vec<String> = quotes
        .iter()
        .filter(|(quote, _)| !prose.contains(quote.as_str()))
        .map(|(quote, source)| format!("  {quote:?} (from {source})"))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md does not quote these measured numbers:\n{}",
        missing.join("\n")
    );
}

#[test]
fn fig5_headlines_are_quoted() {
    let fig5 = repo_file("results/fig5.txt");
    let mut quotes = Vec::new();
    for baseline in ["adaptive", "simple"] {
        // `# RL-S vs adaptive: avg 4.82X, max 16.72X (paper …)`
        let line = line_after(&fig5, &format!("# RL-S vs {baseline}: avg "), "fig5.txt");
        let (avg, rest) = line.split_once(", max ").expect("avg, max");
        let max = rest.split_whitespace().next().expect("max value");
        quotes.push((
            format!(
                "RL-S vs {baseline}: average {}×, max {}×",
                figure(avg),
                figure(max)
            ),
            "results/fig5.txt",
        ));
    }
    let line = line_after(
        &fig5,
        "# RL-S pretrained on the training corpus (",
        "fig5.txt",
    );
    let transitions = line.split_whitespace().next().expect("transition count");
    quotes.push((
        format!("({} transitions)", grouped(transitions)),
        "results/fig5.txt",
    ));
    assert_quotes(&repo_file("EXPERIMENTS.md"), &quotes);
}

#[test]
fn table3_average_and_ranges_are_quoted() {
    let table3 = repo_file("results/table3.txt");
    // The speedup and step-reduction columns of every circuit row.
    let rows: Vec<(f64, f64, &str, &str)> = table3
        .lines()
        .skip_while(|l| !l.starts_with("Circuits"))
        .skip(1)
        .take_while(|l| !l.starts_with("Average"))
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            let (speed, red) = (cells[5], cells[6]);
            (
                figure(speed).parse().expect("speedup"),
                figure(red).parse().expect("reduction"),
                speed,
                red,
            )
        })
        .collect();
    assert_eq!(rows.len(), 33, "table3 has 33 circuit rows");
    let pick = |key: fn(&(f64, f64, &str, &str)) -> f64, max: bool| {
        let best = rows
            .iter()
            .max_by(|a, b| {
                let (a, b) = (key(a), key(b));
                if max {
                    a.total_cmp(&b)
                } else {
                    b.total_cmp(&a)
                }
            })
            .expect("rows");
        *best
    };
    let (speed_min, speed_max) = (pick(|r| r.0, false).2, pick(|r| r.0, true).2);
    let (red_min, red_max) = (pick(|r| r.1, false).3, pick(|r| r.1, true).3);
    let average: Vec<&str> = line_after(&table3, "Average", "table3.txt")
        .split_whitespace()
        .filter(|c| *c != "-")
        .collect();
    let source = "results/table3.txt";
    assert_quotes(
        &repo_file("EXPERIMENTS.md"),
        &[
            (format!("**{}×**", figure(average[0])), source),
            (format!("**{}%**", figure(average[1])), source),
            (
                format!("**{}× – {}×**", figure(speed_min), figure(speed_max)),
                source,
            ),
            (
                format!("**{}% – {}%**", figure(red_min), figure(red_max)),
                source,
            ),
        ],
    );
}

#[test]
fn compat_averages_are_quoted() {
    let compat = repo_file("results/compat.txt");
    let cells: Vec<String> = line_after(&compat, "average", "compat.txt")
        .split_whitespace()
        .map(|c| format!("{}×", figure(c)))
        .collect();
    assert_eq!(cells.len(), 4, "four PTA flavours");
    let row = format!("| {} |", cells.join(" | "));
    assert_quotes(&repo_file("EXPERIMENTS.md"), &[(row, "results/compat.txt")]);
}

#[test]
fn ablation_totals_are_quoted() {
    // `full RL-S   total #Ite  924  total #Ste  150  LU f/r 15/909  failures 0`
    let measured: Vec<[String; 3]> = repo_file("results/ablation.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && l.contains("total #Ite"))
        .map(|l| {
            let after = |key: &str| {
                let rest = l.split_once(key).expect(key).1;
                rest.split_whitespace().next().expect("value").to_string()
            };
            [after("total #Ite"), after("total #Ste"), after("failures")]
        })
        .collect();
    assert!(!measured.is_empty(), "ablation.txt has total rows");
    // The last three cells of each row of the prose's ablation table.
    let prose = repo_file("EXPERIMENTS.md");
    let section = prose
        .split_once("## Ablations")
        .expect("an ablation section")
        .1;
    let quoted: Vec<[String; 3]> = section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| {
            let cells: Vec<String> = l
                .trim_matches('|')
                .split('|')
                .map(|c| c.trim().trim_matches('*').to_string())
                .collect();
            let n = cells.len();
            [
                cells[n - 3].clone(),
                cells[n - 2].clone(),
                cells[n - 1].clone(),
            ]
        })
        .collect();
    assert_eq!(
        quoted, measured,
        "EXPERIMENTS.md's ablation table (#Ite, #Ste, failures per row) \
         differs from results/ablation.txt"
    );
}
