//! Typed experiment reports: the artifact every registry experiment
//! returns, with shared emitters and a tolerance-banded diff.
//!
//! A [`Report`] is a [`Manifest`] (which experiment, at what seed/scale,
//! over which apps, how long it took) plus [`Table`]s, [`Series`], and
//! free-form notes. Two emitters render every report identically across
//! the whole experiment matrix:
//!
//! * [`Report::to_text`] — the human format written to
//!   `results/<name>.txt` (tables, sparklines, bars, notes),
//! * [`Report::to_json`] — the machine format written to
//!   `results/<name>.json`, parsed back by [`Report::from_json`].
//!
//! Every column and series carries a [`Tolerance`] — exact, an absolute
//! epsilon, or a [`RatioBand`] reusing the verify harness's tolerance
//! machinery — and [`diff_reports`] compares a fresh run against a tracked
//! report statistic by statistic under those bands. `pcm-lab diff` (and
//! the `--diff` stage of `scripts_run_all.sh`) is exactly that comparison
//! over every tracked file. The vendored `serde` facade is a no-op, so
//! JSON emission and parsing are hand-rolled here, mirroring
//! `BENCH_hotpath.json`; the derive attributes stay in place for a future
//! swap back to crates.io serde.

use crate::plot;
pub use pcm_core::verify::RatioBand;
use serde::{Deserialize, Serialize};

/// Run provenance carried by every report: which experiment produced it,
/// at what seed and scale, over which workloads, and how long it took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Registry name of the experiment (`fig10_lifetime`, …).
    pub experiment: String,
    /// Paper anchor (`Fig. 10`, `Table IV`, `ablation`).
    pub anchor: String,
    /// Campaign seed the run used.
    pub seed: u64,
    /// Whether the reduced `--quick` scale was used.
    pub quick: bool,
    /// Workload names evaluated, in run order.
    pub apps: Vec<String>,
    /// Wall-clock milliseconds of the experiment's `run` call. Ignored by
    /// [`diff_reports`].
    pub wall_ms: f64,
}

/// One table cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// An exact integer (counts, per-line writes).
    Int(i64),
    /// A float rendered at a fixed precision (value, decimal places).
    Num(f64, usize),
    /// Free text (workload classes, config labels).
    Text(String),
}

impl Value {
    /// Renders the cell the way every emitter prints it.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Num(v, p) => format!("{v:.p$}"),
            Value::Text(s) => s.clone(),
        }
    }

    /// The cell as a number, if it is one.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Num(v, _) => Some(*v),
            Value::Text(_) => None,
        }
    }
}

/// How much a statistic may drift between a tracked report and a fresh
/// run before `pcm-lab diff` fails.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Tolerance {
    /// Rendered values must match byte for byte.
    Exact,
    /// `fresh / tracked` must land in the band (zero only matches zero).
    Ratio(RatioBand),
    /// `|fresh - tracked|` must not exceed the epsilon.
    Abs(f64),
}

impl Tolerance {
    /// Whether a fresh value is acceptable against the tracked one.
    ///
    /// Non-numeric (or mixed) pairs fall back to exact rendered-text
    /// comparison regardless of the tolerance.
    pub fn accepts(&self, tracked: &Value, fresh: &Value) -> bool {
        match (tracked.as_f64(), fresh.as_f64()) {
            (Some(t), Some(f)) => match self {
                Tolerance::Exact => tracked.render() == fresh.render(),
                Tolerance::Ratio(band) => band.check(t, f).1,
                Tolerance::Abs(eps) => (t - f).abs() <= *eps,
            },
            _ => tracked.render() == fresh.render(),
        }
    }

    /// Serialized form (`exact`, `ratio:lo:hi`, `abs:eps`).
    pub fn encode(&self) -> String {
        match self {
            Tolerance::Exact => "exact".into(),
            Tolerance::Ratio(b) => format!("ratio:{}:{}", b.lo, b.hi),
            Tolerance::Abs(e) => format!("abs:{e}"),
        }
    }

    /// Parses the serialized form.
    pub fn decode(s: &str) -> Result<Tolerance, String> {
        if s == "exact" {
            return Ok(Tolerance::Exact);
        }
        if let Some(rest) = s.strip_prefix("ratio:") {
            let (lo, hi) = rest
                .split_once(':')
                .ok_or_else(|| format!("malformed ratio tolerance '{s}'"))?;
            let lo: f64 = lo.parse().map_err(|_| format!("bad ratio lo in '{s}'"))?;
            let hi: f64 = hi.parse().map_err(|_| format!("bad ratio hi in '{s}'"))?;
            return Ok(Tolerance::Ratio(RatioBand::new(lo, hi)));
        }
        if let Some(rest) = s.strip_prefix("abs:") {
            let eps: f64 = rest.parse().map_err(|_| format!("bad abs eps in '{s}'"))?;
            return Ok(Tolerance::Abs(eps));
        }
        Err(format!("unknown tolerance '{s}'"))
    }
}

/// A table column: a header plus the diff tolerance of its statistic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    /// Column header.
    pub name: String,
    /// Acceptance policy applied by [`diff_reports`].
    pub tol: Tolerance,
}

impl Column {
    /// A column whose values must reproduce exactly.
    pub fn exact(name: &str) -> Column {
        Column {
            name: name.into(),
            tol: Tolerance::Exact,
        }
    }

    /// A column accepting `fresh/tracked` ratios in `lo..=hi`.
    pub fn ratio(name: &str, lo: f64, hi: f64) -> Column {
        Column {
            name: name.into(),
            tol: Tolerance::Ratio(RatioBand::new(lo, hi)),
        }
    }

    /// A column accepting absolute drift up to `eps`.
    pub fn abs(name: &str, eps: f64) -> Column {
        Column {
            name: name.into(),
            tol: Tolerance::Abs(eps),
        }
    }
}

/// One labelled table row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Row label (usually a workload name).
    pub label: String,
    /// One value per table column.
    pub values: Vec<Value>,
}

/// A titled table: the unit the paper's figures and tables map onto.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title, printed as the `# …` header.
    pub title: String,
    /// Header of the label column (`app`, `config`, `write`, …).
    pub label: String,
    /// Columns with their diff tolerances.
    pub columns: Vec<Column>,
    /// Rows, in emission order.
    pub rows: Vec<Row>,
}

impl Table {
    /// An empty table with the given title, label header, and columns.
    pub fn new(title: &str, label: &str, columns: Vec<Column>) -> Table {
        Table {
            title: title.into(),
            label: label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match column count in table '{}'",
            self.title
        );
        self.rows.push(Row {
            label: label.into(),
            values,
        });
    }
}

/// How a series renders in the text emitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SeriesStyle {
    /// A sparkline of the (downsampled) values.
    Spark,
    /// One labelled horizontal bar per value.
    Bars,
}

/// A named numeric series: a figure's *shape*, rendered by the text
/// emitter as a sparkline or labelled bars (the `plot` module is an
/// emitter concern now).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Series name.
    pub name: String,
    /// Rendering style.
    pub style: SeriesStyle,
    /// Per-value labels ([`SeriesStyle::Bars`]); empty for sparklines.
    pub labels: Vec<String>,
    /// The values.
    pub values: Vec<f64>,
    /// Decimal places used when emitting the values.
    pub prec: usize,
    /// Bar-scale maximum; defaults to the series maximum when `None`.
    pub max: Option<f64>,
    /// Acceptance policy applied by [`diff_reports`].
    pub tol: Tolerance,
}

impl Series {
    /// A sparkline series.
    pub fn spark(name: &str, values: Vec<f64>, prec: usize, tol: Tolerance) -> Series {
        Series {
            name: name.into(),
            style: SeriesStyle::Spark,
            labels: Vec::new(),
            values,
            prec,
            max: None,
            tol,
        }
    }

    /// A labelled bar series scaled to `max`.
    ///
    /// # Panics
    ///
    /// Panics if the label and value counts differ.
    pub fn bars(
        name: &str,
        labels: &[&str],
        values: Vec<f64>,
        max: f64,
        prec: usize,
        tol: Tolerance,
    ) -> Series {
        assert_eq!(labels.len(), values.len(), "bars need one label per value");
        Series {
            name: name.into(),
            style: SeriesStyle::Bars,
            labels: labels.iter().map(|s| s.to_string()).collect(),
            values,
            prec,
            max: Some(max),
            tol,
        }
    }
}

/// The artifact every registry experiment returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Run provenance.
    pub manifest: Manifest,
    /// Tables, in emission order.
    pub tables: Vec<Table>,
    /// Shape series, in emission order.
    pub series: Vec<Series>,
    /// Free-form findings (`# …` lines in the text emitter).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for the given manifest.
    pub fn new(manifest: Manifest) -> Report {
        Report {
            manifest,
            tables: Vec::new(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// One-line content summary for progress output.
    pub fn summary(&self) -> String {
        let rows: usize = self.tables.iter().map(|t| t.rows.len()).sum();
        format!(
            "{} table(s), {} row(s), {} series, {} note(s)",
            self.tables.len(),
            rows,
            self.series.len(),
            self.notes.len()
        )
    }

    // ----------------------------------------------------------------- text

    /// Renders the human format (tables, sparklines, bars, notes).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                s.push('\n');
            }
            s.push_str(&format!("# {}\n", t.title));
            s.push_str(&t.label);
            for c in &t.columns {
                s.push('\t');
                s.push_str(&c.name);
            }
            s.push('\n');
            for row in &t.rows {
                s.push_str(&row.label);
                for v in &row.values {
                    s.push('\t');
                    s.push_str(&v.render());
                }
                s.push('\n');
            }
        }
        for series in &self.series {
            match series.style {
                SeriesStyle::Spark => {
                    let shape = plot::sparkline(&plot::downsample(&series.values, 64));
                    s.push_str(&format!("# {}: {shape}\n", series.name));
                }
                SeriesStyle::Bars => {
                    s.push_str(&format!("# {}\n", series.name));
                    let max = series
                        .max
                        .unwrap_or_else(|| series.values.iter().cloned().fold(f64::MIN, f64::max));
                    for (label, &v) in series.labels.iter().zip(&series.values) {
                        s.push_str(&format!("# {:8} {}\n", label, plot::bar(v, max, 40)));
                    }
                }
            }
        }
        for note in &self.notes {
            s.push_str(&format!("# {note}\n"));
        }
        s
    }

    // ----------------------------------------------------------------- json

    /// Renders the machine format parsed back by [`Report::from_json`].
    pub fn to_json(&self) -> String {
        let m = &self.manifest;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"pcm-lab/v1\",\n");
        s.push_str("  \"manifest\": {\n");
        s.push_str(&format!(
            "    \"experiment\": {},\n",
            json_str(&m.experiment)
        ));
        s.push_str(&format!("    \"anchor\": {},\n", json_str(&m.anchor)));
        s.push_str(&format!("    \"seed\": {},\n", m.seed));
        s.push_str(&format!("    \"quick\": {},\n", m.quick));
        let apps: Vec<String> = m.apps.iter().map(|a| json_str(a)).collect();
        s.push_str(&format!("    \"apps\": [{}],\n", apps.join(", ")));
        s.push_str(&format!("    \"wall_ms\": {:.1}\n", m.wall_ms));
        s.push_str("  },\n");
        s.push_str("  \"tables\": [");
        for (i, t) in self.tables.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\n");
            s.push_str(&format!("      \"title\": {},\n", json_str(&t.title)));
            s.push_str(&format!("      \"label\": {},\n", json_str(&t.label)));
            let cols: Vec<String> = t
                .columns
                .iter()
                .map(|c| {
                    format!(
                        "{{\"name\": {}, \"tol\": {}}}",
                        json_str(&c.name),
                        json_str(&c.tol.encode())
                    )
                })
                .collect();
            s.push_str(&format!("      \"columns\": [{}],\n", cols.join(", ")));
            s.push_str("      \"rows\": [");
            for (j, row) in t.rows.iter().enumerate() {
                s.push_str(if j == 0 { "\n" } else { ",\n" });
                let vals: Vec<String> = row.values.iter().map(json_value).collect();
                s.push_str(&format!(
                    "        {{\"label\": {}, \"values\": [{}]}}",
                    json_str(&row.label),
                    vals.join(", ")
                ));
            }
            s.push_str("\n      ]\n    }");
        }
        s.push_str("\n  ],\n");
        s.push_str("  \"series\": [");
        for (i, series) in self.series.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": {},\n", json_str(&series.name)));
            s.push_str(&format!(
                "      \"style\": {},\n",
                json_str(match series.style {
                    SeriesStyle::Spark => "spark",
                    SeriesStyle::Bars => "bars",
                })
            ));
            let labels: Vec<String> = series.labels.iter().map(|l| json_str(l)).collect();
            s.push_str(&format!("      \"labels\": [{}],\n", labels.join(", ")));
            let vals: Vec<String> = series
                .values
                .iter()
                .map(|&v| json_num(v, series.prec))
                .collect();
            s.push_str(&format!("      \"values\": [{}],\n", vals.join(", ")));
            s.push_str(&format!("      \"prec\": {},\n", series.prec));
            match series.max {
                Some(m) => s.push_str(&format!("      \"max\": {},\n", json_num(m, 2))),
                None => s.push_str("      \"max\": null,\n"),
            }
            s.push_str(&format!(
                "      \"tol\": {}\n",
                json_str(&series.tol.encode())
            ));
            s.push_str("    }");
        }
        s.push_str("\n  ],\n");
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        s.push_str(&format!("  \"notes\": [{}]\n", notes.join(", ")));
        s.push_str("}\n");
        s
    }

    /// Parses a report emitted by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let json = Json::parse(text)?;
        let schema = json.field("schema")?.str("schema")?;
        if schema != "pcm-lab/v1" {
            return Err(format!("unsupported schema '{schema}'"));
        }
        let m = json.field("manifest")?;
        let manifest = Manifest {
            experiment: m.field("experiment")?.str("experiment")?.to_string(),
            anchor: m.field("anchor")?.str("anchor")?.to_string(),
            seed: m.field("seed")?.u64("seed")?,
            quick: m.field("quick")?.bool("quick")?,
            apps: m
                .field("apps")?
                .arr("apps")?
                .iter()
                .map(|a| a.str("app").map(str::to_string))
                .collect::<Result<_, _>>()?,
            wall_ms: m.field("wall_ms")?.num("wall_ms")?,
        };
        let mut tables = Vec::new();
        for t in json.field("tables")?.arr("tables")? {
            let mut columns = Vec::new();
            for c in t.field("columns")?.arr("columns")? {
                columns.push(Column {
                    name: c.field("name")?.str("column name")?.to_string(),
                    tol: Tolerance::decode(c.field("tol")?.str("column tol")?)?,
                });
            }
            let mut table = Table::new(
                t.field("title")?.str("title")?,
                t.field("label")?.str("label")?,
                columns,
            );
            for row in t.field("rows")?.arr("rows")? {
                let label = row.field("label")?.str("row label")?.to_string();
                let values: Vec<Value> = row
                    .field("values")?
                    .arr("row values")?
                    .iter()
                    .map(Json::to_value)
                    .collect::<Result<_, _>>()?;
                if values.len() != table.columns.len() {
                    return Err(format!(
                        "row '{label}' has {} values for {} columns",
                        values.len(),
                        table.columns.len()
                    ));
                }
                table.rows.push(Row { label, values });
            }
            tables.push(table);
        }
        let mut series = Vec::new();
        for v in json.field("series")?.arr("series")? {
            let style = match v.field("style")?.str("series style")? {
                "spark" => SeriesStyle::Spark,
                "bars" => SeriesStyle::Bars,
                other => return Err(format!("unknown series style '{other}'")),
            };
            series.push(Series {
                name: v.field("name")?.str("series name")?.to_string(),
                style,
                labels: v
                    .field("labels")?
                    .arr("series labels")?
                    .iter()
                    .map(|l| l.str("series label").map(str::to_string))
                    .collect::<Result<_, _>>()?,
                values: v
                    .field("values")?
                    .arr("series values")?
                    .iter()
                    .map(|x| x.num("series value"))
                    .collect::<Result<_, _>>()?,
                prec: v.field("prec")?.num("series prec")? as usize,
                max: match v.field("max")? {
                    Json::Null => None,
                    other => Some(other.num("series max")?),
                },
                tol: Tolerance::decode(v.field("tol")?.str("series tol")?)?,
            });
        }
        let notes = json
            .field("notes")?
            .arr("notes")?
            .iter()
            .map(|n| n.str("note").map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Report {
            manifest,
            tables,
            series,
            notes,
        })
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64, prec: usize) -> String {
    if v.is_finite() {
        format!("{v:.prec$}")
    } else {
        // Not representable as a JSON number; parses back as Text.
        json_str(&v.to_string())
    }
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Num(n, p) => json_num(*n, *p),
        Value::Text(t) => json_str(t),
    }
}

// ------------------------------------------------------------------ parser

/// A parsed JSON value. Numbers keep their raw token so the precision a
/// report was emitted with survives the round trip, and so an integer
/// reads back exactly ([`Json::u64`]). `pcm-lab` reports and the
/// `pcm-bench-hotpath` ratchet both read through it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(String),
    Bool(bool),
    Null,
}

impl Json {
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    pub(crate) fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{key}'")),
            _ => Err(format!("expected object while reading '{key}'")),
        }
    }

    pub(crate) fn str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected string")),
        }
    }

    pub(crate) fn num(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(tok) => tok.parse().map_err(|_| format!("{what}: bad number {tok}")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    /// An unsigned integer, parsed from the raw token: a seed or checksum
    /// read through `f64` would lose every bit above 2^53.
    pub(crate) fn u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(tok) => tok
                .parse()
                .map_err(|_| format!("{what}: bad integer {tok}")),
            _ => Err(format!("{what}: expected number")),
        }
    }

    pub(crate) fn bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{what}: expected bool")),
        }
    }

    pub(crate) fn arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what}: expected array")),
        }
    }

    /// Maps a JSON scalar onto a table [`Value`], inferring integer vs
    /// fixed-precision float from the raw token ("12" vs "12.0").
    fn to_value(&self) -> Result<Value, String> {
        match self {
            Json::Str(s) => Ok(Value::Text(s.clone())),
            Json::Num(tok) => {
                if let Some(dot) = tok.find('.') {
                    let prec = tok.len() - dot - 1;
                    let v: f64 = tok.parse().map_err(|_| format!("bad number {tok}"))?;
                    Ok(Value::Num(v, prec))
                } else if tok.contains(['e', 'E']) {
                    let v: f64 = tok.parse().map_err(|_| format!("bad number {tok}"))?;
                    Ok(Value::Num(v, 0))
                } else {
                    tok.parse()
                        .map(Value::Int)
                        .map_err(|_| format!("bad integer {tok}"))
                }
            }
            other => Err(format!("cell must be a scalar, got {other:?}")),
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".into());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let text = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = text
                        .chars()
                        .next()
                        .ok_or_else(|| "unterminated string".to_string())?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-UTF-8 number token at byte {start}"))?;
        tok.parse::<f64>()
            .map_err(|_| format!("bad number '{tok}' at byte {start}"))?;
        Ok(Json::Num(tok.to_string()))
    }
}

// ------------------------------------------------------------------- diff

/// One out-of-tolerance statistic found by [`diff_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFinding {
    /// Where the mismatch is (`table 'x' row 'y' col 'z'`).
    pub location: String,
    /// The tracked value.
    pub tracked: String,
    /// The freshly computed value.
    pub fresh: String,
    /// The tolerance that rejected the pair.
    pub tolerance: String,
}

/// The outcome of diffing one fresh report against its tracked twin.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    /// Experiment name.
    pub experiment: String,
    /// Statistics compared.
    pub compared: usize,
    /// Out-of-tolerance statistics (empty means the diff passed).
    pub findings: Vec<DiffFinding>,
}

impl ReportDiff {
    /// `true` when every statistic agreed within tolerance.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable description, one line per finding.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{}: {} statistic(s) compared, {} out of tolerance",
            self.experiment,
            self.compared,
            self.findings.len()
        );
        for f in &self.findings {
            out.push_str(&format!(
                "\n  {}: tracked {} vs fresh {} ({})",
                f.location, f.tracked, f.fresh, f.tolerance
            ));
        }
        out
    }
}

/// Compares a fresh report against a tracked one statistic by statistic
/// under the tracked report's tolerance bands.
///
/// The fresh report is canonicalized through its own JSON emission first,
/// so fixed-precision rounding applies to both sides identically; the
/// tracked side's tolerances govern, so regenerating a report never
/// loosens the gate retroactively. `wall_ms` is ignored.
pub fn diff_reports(tracked: &Report, fresh: &Report) -> ReportDiff {
    let fresh = Report::from_json(&fresh.to_json()).expect("fresh report must round-trip");
    let mut compared = 0usize;
    let mut findings = Vec::new();
    let mut mismatch = |location: &str, tracked: String, fresh: String, tolerance: &str| {
        findings.push(DiffFinding {
            location: location.to_string(),
            tracked,
            fresh,
            tolerance: tolerance.to_string(),
        });
    };

    // Manifest: everything except wall-clock must match exactly, or the
    // two runs are not comparable at all.
    let tm = &tracked.manifest;
    let fm = &fresh.manifest;
    for (what, t, f) in [
        ("manifest experiment", &tm.experiment, &fm.experiment),
        ("manifest anchor", &tm.anchor, &fm.anchor),
        ("manifest seed", &tm.seed.to_string(), &fm.seed.to_string()),
        (
            "manifest quick",
            &tm.quick.to_string(),
            &fm.quick.to_string(),
        ),
        ("manifest apps", &tm.apps.join(","), &fm.apps.join(",")),
    ] {
        if t != f {
            mismatch(what, t.clone(), f.clone(), "exact");
        }
    }

    if tracked.tables.len() != fresh.tables.len() {
        mismatch(
            "table count",
            tracked.tables.len().to_string(),
            fresh.tables.len().to_string(),
            "exact",
        );
    }
    for (t, f) in tracked.tables.iter().zip(&fresh.tables) {
        let loc = format!("table '{}'", t.title);
        if t.title != f.title {
            mismatch(&loc, t.title.clone(), f.title.clone(), "exact");
            continue;
        }
        let t_cols: Vec<&str> = t.columns.iter().map(|c| c.name.as_str()).collect();
        let f_cols: Vec<&str> = f.columns.iter().map(|c| c.name.as_str()).collect();
        if t_cols != f_cols || t.rows.len() != f.rows.len() {
            mismatch(
                &format!("{loc} shape"),
                format!("{} cols × {} rows", t_cols.len(), t.rows.len()),
                format!("{} cols × {} rows", f_cols.len(), f.rows.len()),
                "exact",
            );
            continue;
        }
        for (tr, fr) in t.rows.iter().zip(&f.rows) {
            if tr.label != fr.label {
                mismatch(
                    &format!("{loc} row label"),
                    tr.label.clone(),
                    fr.label.clone(),
                    "exact",
                );
                continue;
            }
            for (col, (tv, fv)) in t.columns.iter().zip(tr.values.iter().zip(&fr.values)) {
                compared += 1;
                if !col.tol.accepts(tv, fv) {
                    mismatch(
                        &format!("{loc} row '{}' col '{}'", tr.label, col.name),
                        tv.render(),
                        fv.render(),
                        &col.tol.encode(),
                    );
                }
            }
        }
    }

    if tracked.series.len() != fresh.series.len() {
        mismatch(
            "series count",
            tracked.series.len().to_string(),
            fresh.series.len().to_string(),
            "exact",
        );
    }
    for (t, f) in tracked.series.iter().zip(&fresh.series) {
        let loc = format!("series '{}'", t.name);
        if t.name != f.name || t.labels != f.labels || t.values.len() != f.values.len() {
            mismatch(
                &format!("{loc} shape"),
                format!("{} ({} values)", t.name, t.values.len()),
                format!("{} ({} values)", f.name, f.values.len()),
                "exact",
            );
            continue;
        }
        for (i, (&tv, &fv)) in t.values.iter().zip(&f.values).enumerate() {
            compared += 1;
            let (tv, fv) = (Value::Num(tv, t.prec), Value::Num(fv, t.prec));
            if !t.tol.accepts(&tv, &fv) {
                mismatch(
                    &format!("{loc} [{i}]"),
                    tv.render(),
                    fv.render(),
                    &t.tol.encode(),
                );
            }
        }
    }

    drop(mismatch);
    ReportDiff {
        experiment: tracked.manifest.experiment.clone(),
        compared,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new(Manifest {
            experiment: "sample".into(),
            anchor: "Fig. 0".into(),
            seed: 7,
            quick: true,
            apps: vec!["milc".into(), "gcc".into()],
            wall_ms: 12.5,
        });
        let mut t = Table::new(
            "a \"quoted\" title with ×",
            "app",
            vec![
                Column::exact("count"),
                Column::ratio("mean", 0.9, 1.1),
                Column::abs("prob", 0.05),
                Column::exact("class"),
            ],
        );
        t.push(
            "milc",
            vec![
                Value::Int(42),
                Value::Num(1.25, 2),
                Value::Num(0.001, 3),
                Value::Text("COMP\tHIGH".into()),
            ],
        );
        t.push(
            "gcc",
            vec![
                Value::Int(-3),
                Value::Num(2.0, 1),
                Value::Num(0.0, 3),
                Value::Text("mixed".into()),
            ],
        );
        r.tables.push(t);
        r.series.push(Series::spark(
            "shape",
            vec![0.0, 1.5, 3.0],
            1,
            Tolerance::Ratio(RatioBand::new(0.8, 1.25)),
        ));
        r.series.push(Series::bars(
            "averages",
            &["Comp", "Comp+W"],
            vec![1.2, 3.4],
            5.0,
            2,
            Tolerance::Exact,
        ));
        r.note("a finding with \\ and \" in it");
        r
    }

    #[test]
    fn json_round_trip_is_identical() {
        let mut r = sample();
        // A seed above 2^53 survives only if it is read as an integer.
        r.manifest.seed = (1 << 53) + 1;
        let json = r.to_json();
        let parsed = Report::from_json(&json).expect("parse back");
        assert_eq!(parsed.to_json(), json);
        assert_eq!(parsed.manifest, r.manifest);
        assert_eq!(parsed.notes, r.notes);
        assert_eq!(parsed.series, r.series);
    }

    #[test]
    fn value_precision_survives_round_trip() {
        let json = sample().to_json();
        let parsed = Report::from_json(&json).unwrap();
        // Num(2.0, 1) must come back as "2.0", not collapse to Int(2).
        assert_eq!(parsed.tables[0].rows[1].values[1].render(), "2.0");
        assert_eq!(parsed.tables[0].rows[0].values[0], Value::Int(42));
    }

    #[test]
    fn diff_passes_on_self() {
        let r = sample();
        let d = diff_reports(&r, &r);
        assert!(d.passed(), "{}", d.describe());
        assert_eq!(d.compared, 8 + 5);
    }

    #[test]
    fn diff_honors_ratio_band() {
        let tracked = sample();
        let mut fresh = sample();
        // Within the 0.9..1.1 band: accepted.
        fresh.tables[0].rows[0].values[1] = Value::Num(1.30, 2);
        assert!(diff_reports(&tracked, &fresh).passed());
        // Outside: rejected.
        fresh.tables[0].rows[0].values[1] = Value::Num(1.60, 2);
        let d = diff_reports(&tracked, &fresh);
        assert!(!d.passed());
        assert_eq!(d.findings.len(), 1);
        assert!(d.findings[0].location.contains("col 'mean'"));
    }

    #[test]
    fn diff_honors_abs_and_exact() {
        let tracked = sample();
        let mut fresh = sample();
        fresh.tables[0].rows[1].values[2] = Value::Num(0.04, 3); // |0.04| <= 0.05
        assert!(diff_reports(&tracked, &fresh).passed());
        fresh.tables[0].rows[1].values[2] = Value::Num(0.2, 3);
        assert!(!diff_reports(&tracked, &fresh).passed());

        let mut fresh = sample();
        fresh.tables[0].rows[0].values[0] = Value::Int(43);
        assert!(!diff_reports(&tracked, &fresh).passed());
    }

    #[test]
    fn diff_catches_shape_changes() {
        let tracked = sample();
        let mut fresh = sample();
        fresh.manifest.seed = 8;
        assert!(!diff_reports(&tracked, &fresh).passed());

        let mut fresh = sample();
        fresh.tables[0].rows.pop();
        assert!(!diff_reports(&tracked, &fresh).passed());

        let mut fresh = sample();
        fresh.series.pop();
        assert!(!diff_reports(&tracked, &fresh).passed());
    }

    #[test]
    fn wall_clock_is_ignored_by_diff() {
        let tracked = sample();
        let mut fresh = sample();
        fresh.manifest.wall_ms = 99_999.0;
        assert!(diff_reports(&tracked, &fresh).passed());
    }

    #[test]
    fn tolerance_codec() {
        for tol in [
            Tolerance::Exact,
            Tolerance::Ratio(RatioBand::new(0.5, 2.0)),
            Tolerance::Abs(0.125),
        ] {
            assert_eq!(Tolerance::decode(&tol.encode()).unwrap(), tol);
        }
        assert!(Tolerance::decode("bogus").is_err());
        assert!(Tolerance::decode("ratio:1").is_err());
    }

    #[test]
    fn text_emitter_renders_tables_series_notes() {
        let text = sample().to_text();
        assert!(text.contains("# a \"quoted\" title with ×"));
        assert!(text.starts_with("# "));
        assert!(text.contains("app\tcount\tmean\tprob\tclass"));
        assert!(text.contains("milc\t42\t1.25\t0.001\tCOMP\tHIGH"));
        assert!(text.contains("# shape: "));
        assert!(text.contains("# Comp    "));
        assert!(text.contains("# a finding"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("{}").is_err());
        assert!(Report::from_json("{\"schema\": \"pcm-lab/v1\"").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
