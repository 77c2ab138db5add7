//! Structured experiment results and their renderers.
//!
//! Two layers live here:
//!
//! * [`Table`] — a plain string table, used for ad-hoc CLI output
//!   (capacity arithmetic, throughput probes) and as the text-alignment
//!   backend of the typed layer.
//! * [`Report`] — the structured result of one experiment run: named
//!   [`TypedTable`]s of typed [`Cell`]s plus [`RunMeta`] provenance
//!   (scale, seed, replication and simulation counts, wall time). A
//!   report renders to aligned text, CSV, or JSON ([`Format`]), and JSON
//!   reports parse back with [`Report::from_json`] so downstream tooling
//!   can consume artifacts mechanically instead of scraping stdout.
//!
//! JSON is the *data* interchange form: it carries cell values, not
//! presentation precision. Percent cells serialize as raw fractions,
//! non-finite floats as `null`, and a reparsed report re-serializes to
//! the identical JSON string. Both directions go through
//! [`rbr_obs::json`].

use rbr_obs::json::{self, Json};

/// A rectangular table with a header row.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned monospace table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numbers, left-align everything else.
                let numeric = cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+' || c == '.');
                if numeric {
                    line.push_str(&" ".repeat(w.saturating_sub(cell.chars().count())));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(w.saturating_sub(cell.chars().count())));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as RFC-4180-ish CSV (quotes cells containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        let esc = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a ratio the way the paper's tables do (two decimals).
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with one decimal.
pub fn percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One typed value in a [`TypedTable`].
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label (scheme name, policy, metric description, ...).
    Text(String),
    /// An integer quantity (cluster count, job count, queue size).
    Int(i64),
    /// A real-valued metric, displayed with `prec` decimals.
    Float {
        /// The value.
        value: f64,
        /// Decimals shown by the text renderer (JSON keeps full precision).
        prec: u8,
    },
    /// A fraction in `[0, 1]` displayed as a percentage with `prec`
    /// decimals; JSON serializes the raw fraction.
    Percent {
        /// The raw fraction.
        value: f64,
        /// Decimals shown by the text renderer.
        prec: u8,
    },
    /// A metric that does not exist for this row (e.g. redundant-job
    /// stretch when the redundant fraction is zero).
    Missing,
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// An integer cell.
    pub fn int(value: i64) -> Cell {
        Cell::Int(value)
    }

    /// A float cell. The value is stored as-is — experiments that can
    /// legitimately produce a non-finite value (an undefined population
    /// mean, say) should use [`Cell::float_or_missing`] so the framework
    /// smoke test can keep asserting that every `Float` cell is finite.
    pub fn float(value: f64, prec: u8) -> Cell {
        Cell::Float { value, prec }
    }

    /// A float cell for an *optional* metric: non-finite values become
    /// [`Cell::Missing`] instead of poisoning the table.
    pub fn float_or_missing(value: f64, prec: u8) -> Cell {
        if value.is_finite() {
            Cell::Float { value, prec }
        } else {
            Cell::Missing
        }
    }

    /// A percent cell (raw fraction in, `xx.x%` out).
    pub fn percent(value: f64, prec: u8) -> Cell {
        Cell::Percent { value, prec }
    }

    /// A percent cell for an optional metric; non-finite → missing.
    pub fn percent_or_missing(value: f64, prec: u8) -> Cell {
        if value.is_finite() {
            Cell::Percent { value, prec }
        } else {
            Cell::Missing
        }
    }

    /// The aligned-text form.
    fn to_text(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float { value, prec } if value.is_finite() => {
                let p = *prec as usize;
                format!("{value:.p$}")
            }
            Cell::Percent { value, prec } if value.is_finite() => {
                let p = *prec as usize;
                format!("{:.p$}%", value * 100.0)
            }
            Cell::Float { .. } | Cell::Percent { .. } | Cell::Missing => "-".to_string(),
        }
    }

    /// The raw CSV form (full precision, empty string for missing).
    fn to_csv(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float { value, .. } | Cell::Percent { value, .. } if value.is_finite() => {
                format!("{value}")
            }
            Cell::Float { .. } | Cell::Percent { .. } | Cell::Missing => String::new(),
        }
    }

    /// Appends the JSON form.
    fn write_json(&self, out: &mut String) {
        match self {
            Cell::Text(s) => json::write_str(out, s),
            Cell::Int(v) => out.push_str(&v.to_string()),
            Cell::Float { value, .. } | Cell::Percent { value, .. } => {
                json::write_f64(out, *value, "null");
            }
            Cell::Missing => out.push_str("null"),
        }
    }

    /// Rebuilds a cell from a parsed JSON value. Integer tokens that fit
    /// `i64` come back as `Int`; everything else numeric comes back as
    /// `Float` with default display precision (precision is
    /// presentation state and is not serialized).
    fn from_value(v: &Json) -> Result<Cell, String> {
        let float = |value| Ok(Cell::Float { value, prec: 3 });
        match v {
            Json::Null => Ok(Cell::Missing),
            Json::Str(s) => Ok(Cell::Text(s.clone())),
            Json::Int(i) => match i64::try_from(*i) {
                Ok(i) => Ok(Cell::Int(i)),
                Err(_) => float(*i as f64),
            },
            Json::Num(value) => float(*value),
            other => Err(format!("cell must be null/string/number, got {other:?}")),
        }
    }
}

/// A named table of typed cells — one logical figure or table of output.
#[derive(Clone, Debug, PartialEq)]
pub struct TypedTable {
    /// Table name, e.g. `"Figure 1 — relative average stretch"`.
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
}

impl TypedTable {
    /// Creates an empty table with the given name and column headers.
    pub fn new(name: impl Into<String>, columns: Vec<impl Into<String>>) -> Self {
        TypedTable {
            name: name.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the column count.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {} in table {:?}",
            row.len(),
            self.columns.len(),
            self.name
        );
        self.rows.push(row);
    }

    /// Renders as an aligned monospace table (no name line).
    pub fn to_text(&self) -> String {
        let mut t = Table::new(self.columns.clone());
        for row in &self.rows {
            t.push(row.iter().map(Cell::to_text).collect::<Vec<_>>());
        }
        t.render()
    }

    /// Renders as CSV with raw (full-precision) values.
    pub fn to_csv(&self) -> String {
        let mut t = Table::new(self.columns.clone());
        for row in &self.rows {
            t.push(row.iter().map(Cell::to_csv).collect::<Vec<_>>());
        }
        t.to_csv()
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(",\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(out, c);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                cell.write_json(out);
            }
            out.push(']');
        }
        out.push_str("]}");
    }

    fn from_value(v: &Json) -> Result<TypedTable, String> {
        let name = text(field(v, "name")?)?;
        let columns: Vec<String> = list(field(v, "columns")?)?
            .iter()
            .map(text)
            .collect::<Result<_, _>>()?;
        let mut rows = Vec::new();
        for row in list(field(v, "rows")?)? {
            let cells: Vec<Cell> = list(row)?
                .iter()
                .map(Cell::from_value)
                .collect::<Result<_, _>>()?;
            if cells.len() != columns.len() {
                return Err(format!(
                    "table {name:?}: row width {} != column count {}",
                    cells.len(),
                    columns.len()
                ));
            }
            rows.push(cells);
        }
        Ok(TypedTable {
            name,
            columns,
            rows,
        })
    }
}

/// Provenance of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// Registry name of the experiment.
    pub experiment: String,
    /// Paper section the experiment reproduces.
    pub paper_section: String,
    /// Scale name (`"smoke"` / `"quick"` / `"paper"`).
    pub scale: String,
    /// Master seed the run was derived from.
    pub seed: u64,
    /// Replications per configuration at this scale.
    pub replications: usize,
    /// Grid-simulator executions performed (0 for experiments that drive
    /// the moldable, dual-queue, or middleware simulators instead).
    pub sim_runs: u64,
    /// Jobs completed across those grid-simulator executions.
    pub jobs: u64,
    /// Discrete events processed across those executions.
    pub events: u64,
    /// Wall-clock time of the run in seconds.
    pub wall_time_secs: f64,
}

impl RunMeta {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"experiment\":");
        json::write_str(out, &self.experiment);
        out.push_str(",\"paper_section\":");
        json::write_str(out, &self.paper_section);
        out.push_str(",\"scale\":");
        json::write_str(out, &self.scale);
        out.push_str(&format!(
            ",\"seed\":{},\"replications\":{},\"sim_runs\":{},\"jobs\":{},\"events\":{}",
            self.seed, self.replications, self.sim_runs, self.jobs, self.events
        ));
        out.push_str(",\"wall_time_secs\":");
        json::write_f64(out, self.wall_time_secs, "null");
        out.push('}');
    }

    fn from_value(v: &Json) -> Result<RunMeta, String> {
        // Counts are written as integer tokens; a float (`2e3`) or a
        // token past u64::MAX is a malformed report, not a count.
        let count = |key| {
            let value = field(v, key)?;
            let n = match value {
                Json::Int(i) => u64::try_from(*i).ok(),
                _ => None,
            };
            n.ok_or_else(|| format!("{key:?}: expected unsigned integer, got {value:?}"))
        };
        Ok(RunMeta {
            experiment: text(field(v, "experiment")?)?,
            paper_section: text(field(v, "paper_section")?)?,
            scale: text(field(v, "scale")?)?,
            seed: count("seed")?,
            replications: count("replications")? as usize,
            sim_runs: count("sim_runs")?,
            jobs: count("jobs")?,
            events: count("events")?,
            wall_time_secs: match field(v, "wall_time_secs")? {
                Json::Null => f64::NAN,
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("expected number, got {other:?}"))?,
            },
        })
    }

    /// One-line human summary, used as the text footer.
    fn summary_line(&self) -> String {
        format!(
            "# {} · {} · {} scale · seed {} · {} reps · {} sim runs · {} jobs · {} events · {:.2} s",
            self.experiment,
            self.paper_section,
            self.scale,
            self.seed,
            self.replications,
            self.sim_runs,
            self.jobs,
            self.events,
            self.wall_time_secs
        )
    }
}

/// Output format of a rendered [`Report`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Aligned monospace tables with a provenance footer.
    Text,
    /// Comment-prefixed metadata followed by one CSV block per table.
    Csv,
    /// A single JSON object (`{"meta": ..., "tables": [...]}`).
    Json,
}

impl Format {
    /// Parses a format name (case-insensitive); `txt` is accepted for
    /// `text`.
    pub fn parse(s: &str) -> Option<Format> {
        match s.to_ascii_lowercase().as_str() {
            "text" | "txt" => Some(Format::Text),
            "csv" => Some(Format::Csv),
            "json" => Some(Format::Json),
            _ => None,
        }
    }

    /// File extension used by `--out`.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

/// The structured result of one experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Provenance of the run.
    pub meta: RunMeta,
    /// The experiment's output tables, in presentation order.
    pub tables: Vec<TypedTable>,
}

impl Report {
    /// Renders in the requested format.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Csv => self.render_csv(),
            Format::Json => self.render_json(),
        }
    }

    /// Aligned text: each table under a `== name ==` banner, then the
    /// provenance footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for table in &self.tables {
            out.push_str(&format!("== {} ==\n", table.name));
            out.push_str(&table.to_text());
            out.push('\n');
        }
        out.push_str(&self.meta.summary_line());
        out.push('\n');
        out
    }

    /// CSV: `# key: value` metadata comments, then one `# table: name`
    /// block per table, separated by blank lines.
    pub fn render_csv(&self) -> String {
        let m = &self.meta;
        let mut out = format!(
            "# experiment: {}\n# paper_section: {}\n# scale: {}\n# seed: {}\n\
             # replications: {}\n# sim_runs: {}\n# jobs: {}\n# events: {}\n\
             # wall_time_secs: {}\n",
            m.experiment,
            m.paper_section,
            m.scale,
            m.seed,
            m.replications,
            m.sim_runs,
            m.jobs,
            m.events,
            m.wall_time_secs
        );
        for table in &self.tables {
            out.push_str(&format!("\n# table: {}\n", table.name));
            out.push_str(&table.to_csv());
        }
        out
    }

    /// Compact JSON, deterministic key order. Parse it back with
    /// [`Report::from_json`].
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"meta\":");
        self.meta.write_json(&mut out);
        out.push_str(",\"tables\":[");
        for (i, table) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            table.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parses a report from its JSON rendering.
    pub fn from_json(s: &str) -> Result<Report, String> {
        let v = Json::parse(s)?;
        let meta = RunMeta::from_value(field(&v, "meta")?)?;
        let tables = list(field(&v, "tables")?)?
            .iter()
            .map(TypedTable::from_value)
            .collect::<Result<_, _>>()?;
        Ok(Report { meta, tables })
    }
}

/// `v[key]`, or an error naming the missing key.
fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn text(v: &Json) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("expected string, got {v:?}"))
}

fn list(v: &Json) -> Result<&[Json], String> {
    v.as_arr()
        .ok_or_else(|| format!("expected array, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["scheme", "rel"]);
        t.push(vec!["R2".to_string(), "0.94".to_string()]);
        t.push(vec!["HALF".to_string(), "0.86".to_string()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("scheme"));
        assert!(lines[2].contains("R2"));
        // Numeric column right-aligned to equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec!["x,y".to_string(), "say \"hi\"".to_string()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push(vec!["only one".to_string()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(0.8567), "0.86");
        assert_eq!(percent(0.123), "12.3%");
    }

    fn sample_report() -> Report {
        let mut t = TypedTable::new("Sample — \"quoted\", comma", vec!["label", "n", "metric"]);
        t.push(vec![
            Cell::text("plain"),
            Cell::int(42),
            Cell::float(0.8125, 3),
        ]);
        t.push(vec![
            Cell::text("esc \\ \"\n\ttab · π"),
            Cell::int(-7),
            Cell::float_or_missing(f64::NAN, 2),
        ]);
        t.push(vec![
            Cell::text("pct"),
            Cell::int(0),
            Cell::percent(0.875, 1),
        ]);
        Report {
            meta: RunMeta {
                experiment: "sample".to_string(),
                paper_section: "§0".to_string(),
                scale: "smoke".to_string(),
                seed: u64::MAX,
                replications: 2,
                sim_runs: 4,
                jobs: 123,
                events: 4567,
                wall_time_secs: 0.25,
            },
            tables: vec![t],
        }
    }

    #[test]
    fn cell_text_forms() {
        assert_eq!(Cell::float(1.5, 2).to_text(), "1.50");
        assert_eq!(Cell::percent(0.1234, 1).to_text(), "12.3%");
        assert_eq!(Cell::float_or_missing(f64::NAN, 2), Cell::Missing);
        assert_eq!(Cell::Missing.to_text(), "-");
        assert_eq!(Cell::int(-3).to_csv(), "-3");
        assert_eq!(Cell::percent(0.5, 0).to_csv(), "0.5");
    }

    #[test]
    fn report_text_has_banners_and_footer() {
        let text = sample_report().render_text();
        assert!(text.contains("== Sample"));
        assert!(text.contains("0.812"));
        assert!(text.contains("87.5%"));
        assert!(text.lines().last().unwrap().starts_with("# sample"));
    }

    #[test]
    fn report_csv_carries_metadata_comments() {
        let csv = sample_report().render_csv();
        assert!(csv.starts_with("# experiment: sample\n"));
        assert!(csv.contains("# seed: 18446744073709551615"));
        assert!(csv.contains("# table: Sample"));
        assert!(csv.contains("label,n,metric"));
        assert!(csv.contains("0.8125"));
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample_report();
        let json = report.render_json();
        let reparsed = Report::from_json(&json).expect("parse back");
        assert_eq!(reparsed.render_json(), json);
        assert_eq!(reparsed.meta, report.meta);
        assert_eq!(reparsed.tables[0].name, report.tables[0].name);
        assert_eq!(reparsed.tables[0].rows[0][1], Cell::Int(42));
        // NaN serialized as null comes back as Missing.
        assert_eq!(reparsed.tables[0].rows[1][2], Cell::Missing);
        // Full float precision survives.
        match reparsed.tables[0].rows[0][2] {
            Cell::Float { value, .. } => assert_eq!(value, 0.8125),
            ref other => panic!("expected float, got {other:?}"),
        }
        // String escapes survive.
        assert_eq!(
            reparsed.tables[0].rows[1][0],
            Cell::Text("esc \\ \"\n\ttab · π".to_string())
        );
    }

    #[test]
    fn from_json_rejects_incomplete_reports() {
        assert!(Report::from_json("{\"meta\":{}}").is_err());
        assert!(Report::from_json("{\"meta\":null,\"tables\":[]}").is_err());
        // Counts must be in-range integer tokens.
        let json = sample_report().render_json();
        let seed = "\"seed\":18446744073709551615";
        assert!(json.contains(seed));
        for bad in ["18446744073709551616", "-1", "2e3", "1.0", "\"1\""] {
            let text = json.replace(seed, &format!("\"seed\":{bad}"));
            assert!(Report::from_json(&text).is_err(), "seed {bad} accepted");
        }
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("TEXT"), Some(Format::Text));
        assert_eq!(Format::parse("txt"), Some(Format::Text));
        assert_eq!(Format::parse("csv"), Some(Format::Csv));
        assert_eq!(Format::parse("yaml"), None);
        assert_eq!(Format::Json.extension(), "json");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn typed_table_rejects_ragged_rows() {
        let mut t = TypedTable::new("t", vec!["a", "b"]);
        t.push(vec![Cell::int(1)]);
    }
}
