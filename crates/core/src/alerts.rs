//! Resource alerts (Fig 2's "Resource Alerts", Fig 9's "Threshold
//! exceeded → Event transmitted"): declarative threshold rules evaluated
//! over harvested result sets, producing normalised [`GridRMEvent`]s.
//!
//! A rule *is* a query: [`AlertEngine::add_rule`] materialises it once
//! as `SELECT * FROM <group> WHERE <attr> <cmp> <threshold>`
//! ([`AlertRule::to_sql`]), and [`AlertEngine::scan`] evaluates that
//! statement with the store's SQL engine over the harvested rows — the
//! same evaluator continuous queries use.
//! [`AlertRule::to_continuous_sql`] appends `EVERY <n>`, turning the
//! rule into a standing subscription whose deltas are the alert firings
//! (see `docs/streaming.md`).

use crate::events::{GridRMEvent, Severity};
use crate::health::{HealthState, HealthTransition};
use gridrm_dbc::RowSet;
use gridrm_sqlparse::{ColumnDef, SelectStatement, Statement};
use gridrm_store::{select_in_memory, Table};
use gridrm_telemetry::SloTransition;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// Comparison operator for a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Comparison {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
}

impl Comparison {
    /// Whether `value <cmp> threshold` holds.
    pub fn holds(&self, value: f64, threshold: f64) -> bool {
        match self {
            Comparison::Gt => value > threshold,
            Comparison::Ge => value >= threshold,
            Comparison::Lt => value < threshold,
            Comparison::Le => value <= threshold,
            Comparison::Eq => (value - threshold).abs() < f64::EPSILON,
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            Comparison::Gt => ">",
            Comparison::Ge => ">=",
            Comparison::Lt => "<",
            Comparison::Le => "<=",
            Comparison::Eq => "=",
        }
    }
}

/// One threshold rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlertRule {
    /// Rule name.
    pub name: String,
    /// GLUE group it applies to (case-insensitive).
    pub group: String,
    /// Attribute (result column) to test.
    pub attr: String,
    /// Comparison against the threshold.
    pub cmp: Comparison,
    /// Threshold value.
    pub threshold: f64,
    /// Severity of the generated event.
    pub severity: Severity,
    /// Category of the generated event (e.g. `cpu.load.high`).
    pub category: String,
}

impl AlertRule {
    /// The rule as SQL: `SELECT * FROM <group> WHERE <attr> <cmp> <n>`.
    /// Matching rows under this query are exactly the rows the rule
    /// fires on.
    pub fn to_sql(&self) -> String {
        format!(
            "SELECT * FROM {} WHERE {} {} {}",
            self.group,
            self.attr,
            self.cmp.symbol(),
            fmt_threshold(self.threshold)
        )
    }

    /// The rule as a standing continuous query: its deltas are the
    /// alert firings.
    pub fn to_continuous_sql(&self, every_ms: u64) -> String {
        format!("{} EVERY {}", self.to_sql(), every_ms)
    }
}

/// Render a threshold so it round-trips through the SQL lexer as a
/// float literal (a bare `3` would lex as an integer).
fn fmt_threshold(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The alert engine: a rule set scanned over query results. Each rule
/// is kept beside its materialised `SELECT`; `None` when the rule's
/// group/attr is not a lexable identifier — such a rule never fires.
#[derive(Default)]
pub struct AlertEngine {
    rules: RwLock<Vec<(AlertRule, Option<SelectStatement>)>>,
}

impl AlertEngine {
    /// Empty engine.
    pub fn new() -> AlertEngine {
        AlertEngine::default()
    }

    /// Install a rule (replacing any same-named one), parsing its SQL
    /// form here so no scan ever has to.
    pub fn add_rule(&self, rule: AlertRule) {
        let select = match gridrm_sqlparse::parse(&rule.to_sql()) {
            Ok(Statement::Select(sel)) => Some(sel),
            _ => None,
        };
        let mut rules = self.rules.write();
        rules.retain(|(r, _)| r.name != rule.name);
        rules.push((rule, select));
    }

    /// Remove a rule by name.
    pub fn remove_rule(&self, name: &str) -> bool {
        let mut rules = self.rules.write();
        let before = rules.len();
        rules.retain(|(r, _)| r.name != name);
        rules.len() != before
    }

    /// Current rules.
    pub fn rules(&self) -> Vec<AlertRule> {
        self.rules.read().iter().map(|(r, _)| r.clone()).collect()
    }

    /// Scan a result set harvested from `source` for group `group`;
    /// returns one event per (rule, matching row).
    ///
    /// Each applicable rule's `SELECT` statement (materialised at
    /// install) is evaluated by the store's SQL engine over the
    /// harvested rows — the rows that survive the `WHERE` clause are
    /// the firings. SQL three-valued logic gives the
    /// NULL handling (a NULL attribute never matches) for free.
    pub fn scan(&self, source: &str, group: &str, rows: &RowSet, now_ms: i64) -> Vec<GridRMEvent> {
        let rules = self.rules.read();
        let applicable: Vec<&(AlertRule, Option<SelectStatement>)> = rules
            .iter()
            .filter(|(r, _)| r.group.eq_ignore_ascii_case(group))
            .collect();
        if applicable.is_empty() {
            return Vec::new();
        }
        // Mount the harvested result set as a transient table so rules
        // evaluate through the ordinary SQL path.
        let meta = rows.meta();
        let columns: Vec<ColumnDef> = meta
            .columns()
            .iter()
            .map(|c| ColumnDef {
                name: c.name.clone(),
                ty: c.ty,
                primary_key: false,
            })
            .collect();
        let mut table = Table::new(group, columns);
        table.rows = rows.rows().to_vec();
        let mut events = Vec::new();
        for (rule, select) in applicable {
            if meta.column_index(&rule.attr).is_err() {
                continue; // attribute not in this projection
            }
            let Some(sel) = select else {
                continue;
            };
            let Ok(matched) = select_in_memory(&table, sel, now_ms) else {
                continue;
            };
            let matched_meta = matched.meta();
            let host_idx = matched_meta.column_index("Hostname").ok();
            let attr_idx = matched_meta.column_index(&rule.attr).ok();
            for row in matched.rows() {
                let Some(value) = attr_idx.and_then(|i| row.get(i)).and_then(|v| v.as_f64()) else {
                    continue;
                };
                let hostname = host_idx
                    .and_then(|i| row.get(i))
                    .and_then(|v| v.as_str().map(str::to_owned));
                events.push(GridRMEvent {
                    id: 0,
                    at_ms: now_ms,
                    source: source.to_owned(),
                    hostname: hostname.clone(),
                    severity: rule.severity,
                    category: rule.category.clone(),
                    message: format!(
                        "{}: {}.{} = {value:.3} {} {:.3}{}",
                        rule.name,
                        group,
                        rule.attr,
                        rule.cmp.symbol(),
                        rule.threshold,
                        hostname
                            .as_deref()
                            .map(|h| format!(" on {h}"))
                            .unwrap_or_default(),
                    ),
                    value: Some(value),
                });
            }
        }
        events
    }

    /// Map a health state-machine transition to an alert event (Fig 9's
    /// "Threshold exceeded → Event transmitted", applied to the
    /// gateway's own health): `Down` raises a Critical alert, `Degraded`
    /// a Warning, and recovery back to `Up` an Info notice. Transitions
    /// that carry no alerting value (e.g. `Unknown → Up` on the first
    /// ever success) return `None`.
    pub fn health_alert(&self, t: &HealthTransition) -> Option<GridRMEvent> {
        let (severity, category) = match t.to {
            HealthState::Down => (Severity::Critical, "health.state.down"),
            HealthState::Degraded => (Severity::Warning, "health.state.degraded"),
            HealthState::Up if matches!(t.from, HealthState::Down | HealthState::Degraded) => {
                (Severity::Info, "health.state.recovered")
            }
            _ => return None,
        };
        Some(GridRMEvent {
            id: 0,
            at_ms: t.at_ms as i64,
            source: t.source.clone(),
            hostname: None,
            severity,
            category: category.to_owned(),
            message: format!(
                "{}: {} -> {}{}",
                t.source,
                t.from.name(),
                t.to.name(),
                if t.via_probe { " (probe)" } else { "" }
            ),
            value: None,
        })
    }

    /// Map an SLO burn-rate transition to an alert event: a firing SLO
    /// raises a Critical alert, a recovery an Info notice. The event's
    /// value carries the slow-window burn rate (the confirming signal).
    pub fn slo_alert(&self, t: &SloTransition) -> GridRMEvent {
        let (severity, category) = if t.firing {
            (Severity::Critical, "slo.burn.firing")
        } else {
            (Severity::Info, "slo.burn.recovered")
        };
        GridRMEvent {
            id: 0,
            at_ms: t.at_ms as i64,
            source: format!("slo:{}", t.slo),
            hostname: None,
            severity,
            category: category.to_owned(),
            message: t.message.clone(),
            value: Some(t.burn_slow),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_dbc::{ColumnMeta, ResultSetMetaData};
    use gridrm_sqlparse::{SqlType, SqlValue};

    fn rows() -> RowSet {
        RowSet::new(
            ResultSetMetaData::new(vec![
                ColumnMeta::new("Hostname", SqlType::Str),
                ColumnMeta::new("Load1", SqlType::Float),
            ]),
            vec![
                vec![SqlValue::Str("calm".into()), SqlValue::Float(0.2)],
                vec![SqlValue::Str("busy".into()), SqlValue::Float(3.7)],
                vec![SqlValue::Str("unknown".into()), SqlValue::Null],
            ],
        )
        .unwrap()
    }

    fn load_rule(threshold: f64) -> AlertRule {
        AlertRule {
            name: "high-load".into(),
            group: "Processor".into(),
            attr: "Load1".into(),
            cmp: Comparison::Gt,
            threshold,
            severity: Severity::Warning,
            category: "cpu.load.high".into(),
        }
    }

    #[test]
    fn threshold_fires_per_matching_row() {
        let e = AlertEngine::new();
        e.add_rule(load_rule(1.0));
        let events = e.scan("src", "Processor", &rows(), 42);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].hostname.as_deref(), Some("busy"));
        assert_eq!(events[0].value, Some(3.7));
        assert_eq!(events[0].at_ms, 42);
        assert!(events[0].message.contains("high-load"));
    }

    #[test]
    fn health_transitions_map_to_alert_events() {
        let e = AlertEngine::new();
        let t = |from, to| HealthTransition {
            source: "jdbc:snmp://n/p".into(),
            from,
            to,
            at_ms: 9,
            via_probe: true,
        };
        let down = e
            .health_alert(&t(HealthState::Degraded, HealthState::Down))
            .unwrap();
        assert_eq!(down.severity, Severity::Critical);
        assert_eq!(down.category, "health.state.down");
        assert_eq!(down.at_ms, 9);
        assert!(down.message.contains("(probe)"));
        let degraded = e
            .health_alert(&t(HealthState::Up, HealthState::Degraded))
            .unwrap();
        assert_eq!(degraded.severity, Severity::Warning);
        let recovered = e
            .health_alert(&t(HealthState::Down, HealthState::Up))
            .unwrap();
        assert_eq!(recovered.severity, Severity::Info);
        assert_eq!(recovered.category, "health.state.recovered");
        // First-ever success is not alert-worthy.
        assert!(e
            .health_alert(&t(HealthState::Unknown, HealthState::Up))
            .is_none());
    }

    #[test]
    fn group_mismatch_no_events() {
        let e = AlertEngine::new();
        e.add_rule(load_rule(1.0));
        assert!(e.scan("src", "MainMemory", &rows(), 0).is_empty());
        // Case-insensitive group match.
        assert_eq!(e.scan("src", "processor", &rows(), 0).len(), 1);
    }

    #[test]
    fn null_values_never_match() {
        let e = AlertEngine::new();
        e.add_rule(load_rule(-100.0)); // everything numeric matches
        let events = e.scan("src", "Processor", &rows(), 0);
        assert_eq!(events.len(), 2); // NULL row skipped
    }

    #[test]
    fn rule_replacement_and_removal() {
        let e = AlertEngine::new();
        e.add_rule(load_rule(1.0));
        e.add_rule(load_rule(10.0)); // replaces by name
        assert_eq!(e.rules().len(), 1);
        assert!(e.scan("s", "Processor", &rows(), 0).is_empty());
        assert!(e.remove_rule("high-load"));
        assert!(!e.remove_rule("high-load"));
    }

    #[test]
    fn comparisons() {
        assert!(Comparison::Ge.holds(1.0, 1.0));
        assert!(!Comparison::Gt.holds(1.0, 1.0));
        assert!(Comparison::Le.holds(1.0, 1.0));
        assert!(Comparison::Lt.holds(0.5, 1.0));
        assert!(Comparison::Eq.holds(2.0, 2.0));
    }

    #[test]
    fn rule_materialises_as_a_select_statement() {
        let rule = load_rule(1.0);
        assert_eq!(rule.to_sql(), "SELECT * FROM Processor WHERE Load1 > 1.0");
        let e = AlertEngine::new();
        e.add_rule(rule);
        let installed = e.rules.read();
        let sel = installed[0].1.as_ref().unwrap();
        assert_eq!(sel.table, "Processor");
        assert!(sel.where_clause.is_some());
        assert_eq!(sel.every_ms, None);
        drop(installed);
        // Fractional and negative thresholds survive the round-trip.
        for threshold in [0.75, -100.0] {
            e.add_rule(load_rule(threshold));
            assert!(e.rules.read()[0].1.is_some());
        }
    }

    #[test]
    fn unlexable_rule_is_accepted_and_never_fires() {
        let e = AlertEngine::new();
        let mut rule = load_rule(-100.0);
        rule.group = "select".into(); // a keyword: the rule's SQL does not parse
        e.add_rule(rule);
        assert_eq!(e.rules().len(), 1);
        assert!(e.scan("s", "select", &rows(), 0).is_empty());
    }

    #[test]
    fn rule_materialises_as_a_continuous_query() {
        let sql = load_rule(1.0).to_continuous_sql(500);
        assert_eq!(sql, "SELECT * FROM Processor WHERE Load1 > 1.0 EVERY 500");
        let Ok(gridrm_sqlparse::Statement::Select(sel)) = gridrm_sqlparse::parse(&sql) else {
            panic!("continuous rule SQL must parse as SELECT");
        };
        assert_eq!(sel.every_ms, Some(500));
    }

    #[test]
    fn missing_attribute_is_ignored() {
        let e = AlertEngine::new();
        let mut rule = load_rule(0.0);
        rule.attr = "NotProjected".into();
        e.add_rule(rule);
        assert!(e.scan("s", "Processor", &rows(), 0).is_empty());
    }
}
