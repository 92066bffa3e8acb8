//! Machine-readable result rows shared by every `ftc` subcommand.
//!
//! Simulator runs (`le`, `agree`, `sweep`) and cluster runs (`cluster`)
//! emit the same row shapes through one [`RowWriter`], so downstream
//! tooling parses one format regardless of the execution substrate. Two
//! machine formats are supported: CSV (header row + comma-joined values)
//! and JSON Lines (one object per row, keys = column names).

use std::fmt;

use ftc_sim::json::Json;
use ftc_sim::stats::Summary;

/// Output format of a subcommand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Format {
    /// Human-oriented summary prose (the default).
    #[default]
    Human,
    /// Comma-separated values with a header row.
    Csv,
    /// JSON Lines: one JSON object per row.
    Json,
}

impl Format {
    /// Parses a `--format` argument.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "human" => Ok(Format::Human),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format {other} (human|csv|json)")),
        }
    }

    /// Whether this format emits per-trial rows (vs. a prose summary).
    pub fn is_machine(self) -> bool {
        self != Format::Human
    }
}

/// One cell of a result row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A boolean flag (CSV: `true`/`false`).
    Bool(bool),
    /// A signed integer (sentinels like `-1` included).
    Int(i64),
    /// An unsigned counter.
    UInt(u64),
    /// A float, printed with full precision.
    Float(f64),
    /// A short identifier-like string.
    Str(String),
}

impl fmt::Display for Value {
    /// CSV rendering.
    ///
    /// Non-finite floats render as an empty field — the CSV idiom for
    /// "no value" — matching the `null` the JSON rendering emits, so the
    /// two machine formats agree on which cells carry data. Strings
    /// containing a comma, quote or line break are quoted RFC 4180-style
    /// (wrapped in `"`, embedded `"` doubled), so no producer can corrupt
    /// a row.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) if x.is_finite() => write!(f, "{x}"),
            Value::Float(_) => Ok(()),
            Value::Str(s) if s.contains(['"', ',', '\n', '\r']) => {
                write!(f, "\"{}\"", s.replace('"', "\"\""))
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Renders result rows in a fixed column order, in CSV or JSON Lines.
#[derive(Debug)]
pub struct RowWriter {
    format: Format,
    columns: Vec<&'static str>,
    header_pending: bool,
}

impl RowWriter {
    /// A writer for rows of the given `columns`.
    pub fn new(format: Format, columns: &[&'static str]) -> Self {
        RowWriter {
            format,
            columns: columns.to_vec(),
            header_pending: format == Format::Csv,
        }
    }

    /// Renders one row. The first CSV row is preceded by the header line.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count, or if called on
    /// a [`Format::Human`] writer (human output is free-form prose, not
    /// rows).
    pub fn render(&mut self, values: &[Value]) -> String {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row shape does not match columns"
        );
        match self.format {
            Format::Human => panic!("RowWriter is for machine formats"),
            Format::Csv => {
                let row = values
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                if self.header_pending {
                    self.header_pending = false;
                    format!("{}\n{row}", self.columns.join(","))
                } else {
                    row
                }
            }
            Format::Json => {
                let fields = self
                    .columns
                    .iter()
                    .zip(values)
                    .map(|(c, v)| match v {
                        // `Display`, not `Json::Num`'s `{:?}`: the goldens
                        // spell a whole float `4`, not `4.0`.
                        Value::Float(x) if x.is_finite() => format!("\"{c}\":{x}"),
                        Value::Float(_) => format!("\"{c}\":null"),
                        Value::Str(s) => format!("\"{c}\":{}", Json::Str(s.clone()).render()),
                        other => format!("\"{c}\":{other}"),
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{{fields}}}")
            }
        }
    }

    /// Renders and prints one row to stdout.
    pub fn emit(&mut self, values: &[Value]) {
        println!("{}", self.render(values));
    }
}

/// Column names of the trailing per-metric summary table every
/// trial-emitting subcommand appends in machine formats.
pub const SUMMARY_COLUMNS: [&str; 8] = [
    "metric", "mean", "median", "p95", "p99", "p999", "min", "max",
];

/// Renders the trailing summary table: one row per metric with its
/// distribution quantiles. In CSV the table gets its own header line
/// (separating it from the per-trial rows above); in JSON Lines each row
/// carries a `metric` key, so consumers can split trial rows from
/// summary rows on key shape alone.
pub fn render_summaries(format: Format, metrics: &[(&str, &Summary)]) -> Vec<String> {
    let mut w = RowWriter::new(format, &SUMMARY_COLUMNS);
    metrics
        .iter()
        .map(|(name, s)| {
            w.render(&[
                Value::Str((*name).to_string()),
                Value::Float(s.mean),
                Value::Float(s.median),
                Value::Float(s.p95),
                Value::Float(s.p99),
                Value::Float(s.p999),
                Value::Float(s.min),
                Value::Float(s.max),
            ])
        })
        .collect()
}

/// Prints [`render_summaries`] to stdout.
pub fn emit_summaries(format: Format, metrics: &[(&str, &Summary)]) {
    for line in render_summaries(format, metrics) {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_format_names() {
        assert_eq!(Format::parse("csv").unwrap(), Format::Csv);
        assert_eq!(Format::parse("json").unwrap(), Format::Json);
        assert_eq!(Format::parse("human").unwrap(), Format::Human);
        assert!(Format::parse("xml").is_err());
        assert!(Format::Csv.is_machine());
        assert!(!Format::Human.is_machine());
    }

    #[test]
    fn csv_emits_header_once() {
        let mut w = RowWriter::new(Format::Csv, &["trial", "ok", "msgs"]);
        assert_eq!(
            w.render(&[Value::UInt(0), Value::Bool(true), Value::UInt(42)]),
            "trial,ok,msgs\n0,true,42"
        );
        assert_eq!(
            w.render(&[Value::UInt(1), Value::Bool(false), Value::UInt(7)]),
            "1,false,7"
        );
    }

    #[test]
    fn json_lines_are_self_describing() {
        let mut w = RowWriter::new(Format::Json, &["trial", "proto", "rate"]);
        assert_eq!(
            w.render(&[Value::UInt(3), Value::Str("le".into()), Value::Float(0.25)]),
            "{\"trial\":3,\"proto\":\"le\",\"rate\":0.25}"
        );
    }

    #[test]
    fn json_escapes_strings_and_nonfinite_floats() {
        let mut w = RowWriter::new(Format::Json, &["s", "x"]);
        assert_eq!(
            w.render(&[Value::Str("a\"b\\c\nd".into()), Value::Float(f64::NAN)]),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"x\":null}"
        );
    }

    #[test]
    fn csv_and_json_agree_on_nonfinite_floats() {
        // NaN/∞ must not leak literal `NaN`/`inf` tokens into CSV while
        // JSON says null: both formats treat the cell as "no value".
        let mut csv = RowWriter::new(Format::Csv, &["a", "b", "c"]);
        assert_eq!(
            csv.render(&[
                Value::Float(f64::NAN),
                Value::Float(f64::INFINITY),
                Value::Float(1.5),
            ]),
            "a,b,c\n,,1.5"
        );
        let mut json = RowWriter::new(Format::Json, &["a", "b", "c"]);
        assert_eq!(
            json.render(&[
                Value::Float(f64::NAN),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(1.5),
            ]),
            "{\"a\":null,\"b\":null,\"c\":1.5}"
        );
    }

    #[test]
    fn csv_quotes_cells_that_would_corrupt_rows() {
        let mut w = RowWriter::new(Format::Csv, &["s", "n"]);
        assert_eq!(
            w.render(&[Value::Str("a,b".into()), Value::UInt(1)]),
            "s,n\n\"a,b\",1"
        );
        assert_eq!(
            w.render(&[Value::Str("say \"hi\"\nok".into()), Value::UInt(2)]),
            "\"say \"\"hi\"\"\nok\",2"
        );
        // Plain strings stay unquoted.
        assert_eq!(
            w.render(&[Value::Str("plain".into()), Value::UInt(3)]),
            "plain,3"
        );
    }

    #[test]
    #[should_panic(expected = "row shape")]
    fn mismatched_row_width_panics() {
        let mut w = RowWriter::new(Format::Csv, &["a", "b"]);
        let _ = w.render(&[Value::UInt(1)]);
    }

    #[test]
    fn summary_rows_surface_quantiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        let lines = render_summaries(Format::Csv, &[("msgs", &s)]);
        assert_eq!(lines.len(), 1);
        let mut parts = lines[0].lines();
        assert_eq!(
            parts.next().unwrap(),
            "metric,mean,median,p95,p99,p999,min,max"
        );
        let row = parts.next().unwrap();
        assert!(row.starts_with("msgs,"), "{row}");
        assert!(row.contains(&format!(",{},", s.median)), "{row}");
        let json = render_summaries(Format::Json, &[("rounds", &s)]);
        assert!(json[0].contains("\"metric\":\"rounds\""), "{}", json[0]);
        assert!(json[0].contains("\"p95\":"), "{}", json[0]);
        assert!(json[0].contains("\"p99\":"), "{}", json[0]);
        assert!(json[0].contains("\"p999\":"), "{}", json[0]);
    }
}
